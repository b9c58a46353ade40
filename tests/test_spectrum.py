from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from obsblock.config import DEFAULT_TOLERANCES, Tolerances
from obsblock.graph import WeightedDigraph
from obsblock.model import IntegratorNetwork, assemble
from obsblock.scenarios import fig2_din, generic_network, random_network
from obsblock.config import DesignOptions
from obsblock.designer import design_blocking
from obsblock.spectrum import (SpectralData, check_stacked_structure,
                               closed_loop_audit, components, decompose,
                               match_eigenvalue, multiset_error, rank_cutoff)

from conftest import random_digraph


def symmetric_graph(n, rng, order=2):
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if v == u + 1 or rng.random() < 0.4:
                w = tuple(float(rng.uniform(0.5, 1.5)) for _ in range(order))
                edges.append((u, v, w))
                edges.append((v, u, w))
    return WeightedDigraph(n=n, edges=tuple(edges))


def _reference_phase(v):
    mags = np.abs(v)
    top = mags.max()
    if top == 0.0:
        return v
    idx = int(np.argmax(mags > 1e-8 * top))
    return v * np.exp(-1j * np.angle(v[idx]))


def _reference_flag_defective(A, lam, tol):
    d = lam.size
    scale = max(1.0, np.abs(lam).max()) if d else 1.0
    width = tol.cluster * scale
    # clusters are chains of pairwise gaps within width, grown breadth-first
    clusters, seen = [], set()
    for start in range(d):
        if start in seen:
            continue
        cluster, seen = [start], seen | {start}
        for i in cluster:
            near = [j for j in range(d)
                    if j not in seen and abs(lam[j] - lam[i]) <= width]
            cluster.extend(near)
            seen.update(near)
        clusters.append(sorted(cluster))
    flags = np.zeros(d, dtype=bool)
    for cluster in clusters:
        if len(cluster) < 2:
            continue
        center = np.mean([lam[i] for i in cluster])
        M = A - center * np.eye(d)
        sv = la.svdvals(M)
        cutoff = max(rank_cutoff(sv[0], M.shape, None),
                     1e3 * np.finfo(float).eps * sv[0])
        if d - int((sv > cutoff).sum()) < len(cluster):
            flags[cluster] = True
    return flags


def reference_decompose(A, tol=DEFAULT_TOLERANCES):
    """decompose with its pairing, realification, phase and clustering
    steps as per-column Python loops."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    lam, W, V = la.eig(A, left=True)
    nrm = la.norm(A, 2) if d else 0.0
    scale = max(1.0, nrm)
    raw = lam.copy()
    lam = np.where(np.abs(lam.imag) <= tol.snap_imag * scale, lam.real + 0j, lam)
    V = V.astype(complex) / np.linalg.norm(V, axis=0)
    W = W.astype(complex) / np.linalg.norm(W, axis=0)
    order = np.lexsort((lam.imag, lam.real))
    lam, raw, V, W = lam[order], raw[order], V[:, order], W[:, order]
    pairing = np.arange(d)
    taken = set()
    for i in [i for i in range(d) if lam[i].imag > 0]:
        cands = [j for j in range(d)
                 if j not in taken and lam[j].imag < 0
                 and abs(lam[j] - lam[i].conjugate()) <= tol.lambda_match * scale]
        if not cands:
            continue
        j = min(cands, key=lambda j: np.linalg.norm(V[:, j] - V[:, i].conj()))
        lam[j] = lam[i].conjugate()
        pairing[i], pairing[j] = j, i
        taken.update((i, j))
    for i in range(d):
        if pairing[i] != i or lam[i].imag != 0:
            continue
        if np.abs(V[:, i].imag).max() <= tol.realness * max(
                np.abs(V[:, i].real).max(), 1e-300):
            V[:, i] = V[:, i].real / np.linalg.norm(V[:, i].real) + 0j
            continue
        mates = [j for j in range(d)
                 if j != i and pairing[j] == j and lam[j].imag == 0
                 and abs(lam[j] - lam[i]) <= tol.lambda_match * scale
                 and np.linalg.norm(V[:, j] - V[:, i].conj()) < 1e-6]
        if mates:
            pairing[i], pairing[mates[0]] = mates[0], i
    for i in range(d):
        j = pairing[i]
        if j == i:
            V[:, i] = _reference_phase(V[:, i])
        elif i < j:
            V[:, i] = _reference_phase(V[:, i])
            V[:, j] = V[:, i].conj()
            W[:, j] = W[:, i].conj()
    return SpectralData(eigenvalues=lam, raw_eigenvalues=raw, modal_matrix=V,
                        left_modal_matrix=W, pairing=pairing,
                        defective=_reference_flag_defective(A, lam, tol),
                        matrix_norm=nrm)


def spectral_bytes(sd):
    return [np.asarray(getattr(sd, f)).tobytes() for f in (
        "eigenvalues", "raw_eigenvalues", "modal_matrix", "left_modal_matrix",
        "pairing", "defective", "matrix_norm")]


# block kinds: a real eigenvalue, a rotation block a +- bi (repeats give
# several conjugate candidates per row), a rotation whose imaginary part
# falls under the snap budget (a snapped pair), and a 2x2 Jordan block
_VALUES = st.sampled_from([-1.0, -0.5, 0.0, 0.5])
_BLOCKS = st.one_of(
    st.tuples(st.just("real"), _VALUES, st.just(0.0)),
    st.tuples(st.just("rotation"), _VALUES, st.sampled_from([1.0, 2.0])),
    st.tuples(st.just("snapped"), _VALUES, st.sampled_from([1e-10, 1e-12])),
    st.tuples(st.just("jordan"), _VALUES, st.just(1.0)))


def block_matrix(blocks, seed, basis):
    diag = []
    for kind, a, b in blocks:
        if kind == "real":
            diag.append(np.array([[a]]))
        elif kind == "jordan":
            diag.append(np.array([[a, b], [0.0, a]]))
        else:
            diag.append(np.array([[a, b], [-b, a]]))
    D = la.block_diag(*diag)
    d = D.shape[0]
    rng = np.random.default_rng(seed)
    if basis == "permutation":
        P = np.eye(d)[rng.permutation(d)]
        return P @ D @ P.T
    if basis == "orthogonal":
        Q = la.qr(rng.standard_normal((d, d)))[0]
        return Q @ D @ Q.T
    T = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    return T @ D @ la.inv(T)


class TestDecompose:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(blocks=st.lists(_BLOCKS, min_size=1, max_size=8),
           seed=st.integers(0, 2**16),
           basis=st.sampled_from(["permutation", "orthogonal", "similar"]))
    def test_matches_the_per_column_loops_bit_for_bit(self, blocks, seed, basis):
        A = block_matrix(blocks, seed, basis)
        assert spectral_bytes(decompose(A)) == spectral_bytes(reference_decompose(A))

    @pytest.mark.parametrize("make", [
        lambda: random_network(n=7, order=2, seed=1, m=1, q=3, density=0.4),
        lambda: random_network(n=6, seed=0, m=1, q=3, density=0.4,
                               undirected=True, overdamped=True),
        lambda: random_network(n=7, order=3, seed=2, m=1, q=3,
                               undirected=True, overdamped=True),
        lambda: generic_network(n=9, order=3, seed=3, m=2, q=4),
        lambda: fig2_din(seed=0, order=3)])
    def test_network_matrices_match_the_per_column_loops(self, make):
        A, _, _ = assemble(make())
        assert spectral_bytes(decompose(A)) == spectral_bytes(reference_decompose(A))

    def test_repeated_rotations_and_snapped_pairs_take_their_branches(self):
        A = block_matrix([("rotation", 0.5, 1.0)] * 3 + [("snapped", 0.0, 1e-10)]
                         + [("real", -1.0, 0.0)] * 2, seed=5, basis="orthogonal")
        sd = decompose(A)
        assert spectral_bytes(sd) == spectral_bytes(reference_decompose(A))
        # every row of 0.5 + 1i sees all three columns of 0.5 - 1i
        pos = np.flatnonzero(sd.eigenvalues.imag > 0)
        neg = np.flatnonzero(sd.eigenvalues.imag < 0)
        assert len(pos) == len(neg) == 3
        assert (np.abs(sd.raw_eigenvalues[neg][None, :]
                       - sd.raw_eigenvalues[pos][:, None].conj()) < 1e-12).all()
        assert sorted(sd.pairing[pos]) == list(neg)
        # the snapped pair sits after the two real -1 columns
        assert [i for i in range(sd.dim) if sd.is_vector_paired(i)] == [2, 3]

    @pytest.mark.parametrize("eps, eta, delta, split", [
        (1e-7, 1e-8, -1e-7, 1e-9), (1e-7, 1e-9, -1e-8, 1e-10)])
    def test_real_column_before_a_snapped_pair_is_realified_then_mated(
            self, eps, eta, delta, split):
        # eigenvectors x -+ i*eps*y of 1 +- i*split (snapped) and a real
        # x + eta*z of 1 + delta just below them: the first snapped column
        # takes the realified real column as its mate
        x, y, z = np.eye(3)
        V = np.stack([x + 1j * eps * y, x - 1j * eps * y, x + eta * z], axis=1)
        lam = np.array([1 + 1j * split, 1 - 1j * split, 1 + delta])
        A = (V @ np.diag(lam) @ la.inv(V)).real
        sd = decompose(A)
        assert spectral_bytes(sd) == spectral_bytes(reference_decompose(A))
        assert list(sd.pairing) == [1, 0, 2]
        assert not sd.modal_matrix[:, 0].imag.any()

    def test_jordan_block_flagged_defective(self):
        sd = decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert sd.dim == 2
        assert np.abs(sd.eigenvalues).max() < 1e-12
        assert sd.defective.all()

    def test_jordan_pair_split_by_a_rotation_pair_is_flagged(self):
        # the Jordan pair at -0.5 splits by about 1e-8 in the real part,
        # so the rotation pair -0.5 +- 1i sorts between its halves; the
        # cluster is the chain of pairwise gaps, not of sorted neighbours
        A = block_matrix([("rotation", -0.5, 1.0), ("jordan", -0.5, 1.0)],
                         seed=0, basis="similar")
        sd = decompose(A)
        jordan = np.abs(sd.eigenvalues.imag) < 0.5
        assert jordan.sum() == 2
        assert list(sd.defective) == list(jordan)

    def test_undamped_symmetric_modes_on_imaginary_axis(self, rng):
        # zero velocity coupling: eigenvalues come in +-i*sqrt(mu) pairs
        # for each symmetric-Laplacian eigenvalue mu (independent oracle)
        g = symmetric_graph(6, rng, order=1)
        Ls = np.zeros((6, 6))
        for (u, v, w) in g.edges:
            Ls[v - 1, u - 1] -= w[0]
            Ls[v - 1, v - 1] += w[0]
        net = IntegratorNetwork(order=2, graph=g, actuation=(1,), measurement=(6,),
                                laplacians=(Ls, np.zeros((6, 6))))
        A, _, _ = assemble(net)
        sd = decompose(A)
        mu = la.eigvalsh((Ls + Ls.T) / 2)
        expected = np.concatenate([1j * np.sqrt(mu + 0j), -1j * np.sqrt(mu + 0j)])
        cost = np.abs(sd.eigenvalues[:, None] - expected[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 1e-6

    def test_fig2_spectrum_all_real(self):
        net = fig2_din(seed=0)
        A, _, _ = assemble(net)
        sd = decompose(A)
        assert sd.all_real()

    def test_eigen_residuals_small(self):
        # snapped eigenvalues may carry up to the snap budget as residual
        net = random_network(n=9, seed=6, m=2, q=4)
        A, _, _ = assemble(net)
        sd = decompose(A)
        R = A @ sd.modal_matrix - sd.modal_matrix * sd.eigenvalues
        assert np.linalg.norm(R, axis=0).max() < 2e-8 * max(1.0, sd.matrix_norm)

    def test_reconstruction_when_nondefective(self):
        net = generic_network(n=7, seed=3, m=2, q=4)
        A, _, _ = assemble(net)
        sd = decompose(A)
        assert not sd.defective.any()
        recon = sd.modal_matrix @ np.diag(sd.eigenvalues) @ la.inv(sd.modal_matrix)
        assert la.norm(recon - A, 2) <= 1e-7 * la.norm(A, 2)

    def test_pairing_is_involution_and_conjugate_exact(self):
        net = random_network(n=8, seed=12, m=2, q=4)
        A, _, _ = assemble(net)
        sd = decompose(A)
        for i in range(sd.dim):
            j = int(sd.pairing[i])
            assert int(sd.pairing[j]) == i
            if j != i:
                assert sd.eigenvalues[j] == np.conj(sd.eigenvalues[i])
                assert np.array_equal(sd.modal_matrix[:, j],
                                      sd.modal_matrix[:, i].conj())
                assert np.array_equal(sd.left_modal_matrix[:, j],
                                      sd.left_modal_matrix[:, i].conj())

    @pytest.mark.parametrize("make", [
        lambda: random_network(n=8, seed=12, m=2, q=4),
        lambda: random_network(n=7, order=3, seed=2, m=1, q=3,
                               undirected=True, overdamped=True),
        lambda: generic_network(n=7, order=3, seed=3, m=2, q=4)])
    def test_left_eigenvectors_follow_their_columns(self, make):
        A, _, _ = assemble(make())
        sd = decompose(A)
        W = sd.left_modal_matrix
        assert np.allclose(np.linalg.norm(W, axis=0), 1.0)
        resid = np.linalg.norm(W.conj().T @ A - sd.raw_eigenvalues[:, None]
                               * W.conj().T, axis=1)
        assert resid.max() < 1e-12 * max(1.0, sd.matrix_norm)
        # asking for the left vectors leaves the right eigen-data bit-identical
        lam, V = la.eig(A)
        lam_l, _, V_l = la.eig(A, left=True)
        assert np.array_equal(lam, lam_l) and np.array_equal(V, V_l)

    def test_real_eigenvalues_with_real_vectors_self_paired(self):
        net = generic_network(n=6, seed=4, m=1, q=3)
        A, _, _ = assemble(net)
        sd = decompose(A)
        for i in range(sd.dim):
            if sd.is_real(i) and np.abs(sd.modal_matrix[:, i].imag).max() == 0.0:
                assert sd.pairing[i] == i

    def test_canonical_phase_first_significant_entry_positive(self):
        net = random_network(n=7, seed=8, m=1, q=3)
        A, _, _ = assemble(net)
        sd = decompose(A)
        for i in range(sd.dim):
            v = sd.modal_matrix[:, i]
            mags = np.abs(v)
            idx = int(np.argmax(mags > 1e-8 * mags.max()))
            assert v[idx].real > 0
            assert abs(v[idx].imag) <= 1e-10

    def test_match_eigenvalue(self):
        net = random_network(n=6, seed=5, m=1, q=3)
        A, _, _ = assemble(net)
        sd = decompose(A)
        tol = Tolerances()
        for i in (0, sd.dim - 1):
            j = match_eigenvalue(sd, complex(sd.eigenvalues[i]), tol)
            # equal eigenvalues tie deterministically; the value must match
            assert sd.eigenvalues[j] == sd.eigenvalues[i]
        assert match_eigenvalue(sd, 123.0 + 0j, tol) == -1


def reference_components(adjacent):
    """The former label loop: row j merges every label it touches into
    its own, so an edge joins its ends whichever way it points."""
    label = np.arange(adjacent.shape[0])
    for j in np.flatnonzero(adjacent.sum(axis=1) > 1):
        label[np.isin(label, label[adjacent[j]])] = label[j]
    return label


def _partition(label):
    return sorted(tuple(np.flatnonzero(label == c)) for c in np.unique(label))


class TestComponents:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(size=st.integers(0, 12), seed=st.integers(0, 2**16),
           density=st.sampled_from([0.05, 0.15, 0.3]),
           symmetric=st.booleans())
    def test_matches_the_label_loop(self, size, seed, density, symmetric):
        # eigenvalue-gap adjacencies are symmetric, the dark-mode one
        # (gap within lambda_match * max(1, |lambda_i|)) is not
        rng = np.random.default_rng(seed)
        adjacent = rng.random((size, size)) < density
        if symmetric:
            adjacent |= adjacent.T
        np.fill_diagonal(adjacent, True)
        got = components(adjacent)
        assert _partition(got) == _partition(reference_components(adjacent))
        assert sorted(set(got.tolist())) == list(range(len(set(got.tolist()))))

    def test_one_way_edge_joins_its_ends(self):
        adjacent = np.eye(3, dtype=bool)
        adjacent[2, 0] = True
        assert _partition(components(adjacent)) == [(0, 2), (1,)]


class TestStackedStructure:
    @pytest.mark.parametrize("order", [2, 3])
    def test_open_loop_structure_tight(self, order, rng):
        g = random_digraph(6, rng, density=0.4, order=order)
        net = IntegratorNetwork.from_graph(g, (1,), (6,))
        A, _, _ = assemble(net)
        sd = decompose(A)
        assert check_stacked_structure(sd, 6, order) < 1e-9

    def test_zero_eigenvalue_kills_derivative_block(self):
        net = random_network(n=5, seed=2, m=1, q=2)
        A, _, _ = assemble(net)
        sd = decompose(A)
        n = 5
        zero_cols = [i for i in range(sd.dim)
                     if abs(sd.eigenvalues[i]) < 1e-6 * max(1.0, sd.matrix_norm)]
        assert zero_cols
        snap_budget = 1e-8 * max(1.0, sd.matrix_norm)
        for i in zero_cols:
            v = sd.modal_matrix[:, i]
            lam = sd.raw_eigenvalues[i]
            # exact eigenpair relation, and the block is zero up to the
            # magnitude of the numerically split eigenvalue
            assert np.abs(v[n:] - lam * v[:n]).max() < 1e-10
            assert np.abs(v[n:]).max() <= snap_budget

    def test_order3_quadratic_relation(self, rng):
        g = random_digraph(5, rng, density=0.5, order=3)
        net = IntegratorNetwork.from_graph(g, (1, 2), (5,))
        A, _, _ = assemble(net)
        sd = decompose(A)
        n = 5
        for i in range(sd.dim):
            v = sd.modal_matrix[:, i]
            lam = sd.eigenvalues[i]
            assert np.abs(v[2 * n:] - lam ** 2 * v[:n]).max() < 1e-8

    def test_dimension_mismatch(self):
        sd = decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            check_stacked_structure(sd, 3, 2)


class TestClosedLoopAudit:
    def test_multiset_error_matches_real_with_real_on_tied_real_parts(self):
        # sorting by (real, imag) pairs 1 with 1 - 3j here and reports 3
        err = multiset_error([1, 1 - 3j, 1 + 3j],
                             [1 + 2e-14, 1 + 1e-14 - 3j, 1 + 1e-14 + 3j])
        assert err <= 2e-14

    def test_moved_eigenvalue_is_reported_and_fails(self):
        net = random_network(n=8, seed=3, m=2, q=4)
        design = design_blocking(net, DesignOptions(seed=3))
        A, B, _ = assemble(net)
        A_cl = A + B @ design.F
        # move one real closed-loop eigenvalue by 1e-5 along its spectral
        # projector: every other eigenvalue stays put
        mu, W, V = la.eig(A_cl, left=True)
        k = int(np.flatnonzero(mu.imag == 0.0)[0])
        v, w = V[:, k].real, W[:, k].real
        moved = A_cl + 1e-5 * np.outer(v, w) / (w @ v)
        sd = decompose(A)
        err, _ = closed_loop_audit(sd, moved, ())
        assert err >= 1e-5 * (1 - 1e-6)
        assert err > DEFAULT_TOLERANCES.spectrum_match
        assert closed_loop_audit(sd, A_cl, ())[0] \
            <= DEFAULT_TOLERANCES.spectrum_match

    @pytest.mark.parametrize("seed", range(3))
    def test_residuals_match_per_column_reference(self, seed):
        net = generic_network(9, 3, seed=seed, m=2)
        A, _, _ = assemble(net)
        sd = decompose(A)
        # a perturbed loop, so the residuals are O(||A||), not roundoff
        rng = np.random.default_rng(seed)
        A_cl = A + sd.matrix_norm * rng.standard_normal(A.shape) / A.shape[0]
        preserved = [i for i in range(sd.dim) if i % 4 != 1]
        _, residuals = closed_loop_audit(sd, A_cl, preserved)
        scale = max(1.0, sd.matrix_norm)
        reference = [np.linalg.norm(A_cl @ sd.modal_matrix[:, i]
                                    - sd.eigenvalues[i] * sd.modal_matrix[:, i])
                     / scale for i in preserved]
        assert len(residuals) == len(preserved)
        assert np.allclose(residuals, reference, rtol=1e-14, atol=0.0)
        assert closed_loop_audit(sd, A_cl, ())[1] == []
