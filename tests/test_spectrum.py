from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as la
from scipy.optimize import linear_sum_assignment

from obsblock.config import Tolerances
from obsblock.graph import WeightedDigraph
from obsblock.model import IntegratorNetwork, assemble
from obsblock.scenarios import fig2_din, generic_network, random_network
from obsblock.spectrum import check_stacked_structure, decompose, match_eigenvalue

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


class TestDecompose:
    def test_jordan_block_flagged_defective(self):
        sd = decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert sd.dim == 2
        assert np.abs(sd.eigenvalues).max() < 1e-12
        assert sd.defective.all()

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
        assert sd.residuals(A).max() < 2e-8 * max(1.0, sd.matrix_norm)

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
