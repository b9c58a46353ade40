"""Eigendecomposition with conjugate pairing and perturbation disks.

The modal data is canonicalized so downstream modal replacement is
deterministic: eigenvalues sorted by (real, imag), near-real values
snapped, columns phase-fixed, and the column set exactly self-conjugate
with the eigensolver's own conjugate pairing. Overlapping first-order
perturbation disks form the clusters that the choice of lambda_p
reads. The numerical-rank and eigenvalue multiset primitives shared by
the designer and the verifier live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .config import Tolerances

_EPS = np.finfo(float).eps


@dataclass(eq=False)
class SpectralData:
    """Eigenvalues, modal matrix and pairing of a (closed-loop) state matrix.

    pairing[i] is the column index of the conjugate partner from the
    eigensolver, i itself exactly for raw-real eigenvalues, whose
    eigenvectors are real, with imaginary parts exactly zero. A snapped pair
    keeps its partner, so it has a real eigenvalue and complex
    eigenvectors. Pairs are exact: the partner column stores the complex
    conjugate values of its mate.
    left_modal_matrix holds the unit left eigenvectors, column i for
    eigenvalue i (w_i^* A = lambda_i w_i^*), sorted and paired like
    modal_matrix.

    Column i has the first-order perturbation disk of radius[i] =
    kappa[i] * eta_i about its raw eigenvalue mu_i: kappa[i] =
    1 / |w_i^* v_i| (inf, and the radius too, when that vanishes) and
    eta_i the larger of ||A v_i - mu_i v_i|| and ||A^T w_i - conj(mu_i) w_i||.
    cluster labels the components of overlapping disks, whose members
    cannot be told apart: a Jordan chain scattered by roundoff, or the
    copies of a repeated eigenvalue.
    """

    eigenvalues: np.ndarray
    raw_eigenvalues: np.ndarray
    modal_matrix: np.ndarray
    left_modal_matrix: np.ndarray
    pairing: np.ndarray
    kappa: np.ndarray
    radius: np.ndarray
    cluster: np.ndarray
    matrix_norm: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def is_real(self, i: int) -> bool:
        return self.eigenvalues[i].imag == 0.0

    def all_real(self) -> bool:
        return bool((self.eigenvalues.imag == 0.0).all())

    @property
    def leading(self) -> np.ndarray:
        """Self-paired or leading column of each solver conjugate pair."""
        return _leading(self.pairing)

    def is_vector_paired(self, i: int) -> bool:
        """Distinct conjugate partner despite a real eigenvalue (snapped pair)."""
        return self.pairing[i] != i and self.is_real(i)


def _leading(pairing: np.ndarray) -> np.ndarray:
    return np.flatnonzero(pairing >= np.arange(pairing.size))


def decompose(A: np.ndarray) -> SpectralData:
    """Full eigendecomposition of a real state matrix.

    One eigensolve returns both eigenvector sets: the left ones add a
    back-substitution (about 15 % of the solve) and leave the eigenvalues
    and right eigenvectors bit-identical. Right columns are unit 2-norm in
    canonical phase (phase_rotation), left columns unit 2-norm with w^* v
    real and non-negative, so that it is 1 / kappa. Imaginary parts of
    eigenvalues below snap_imag * ||A|| are snapped to zero. Conjugate
    pairs come from the solver alone: LAPACK's xGEEV returns each complex
    pair in adjacent columns, positive imaginary part first, as exact
    conjugates, and that pairing of the raw eigenvalues is carried through
    the sort, snapped pairs included. The self-paired columns are the
    raw-real ones, and their eigenvectors are real before phasing.
    Partners are overwritten with exact conjugates of the phase-fixed
    leading column, left and right, so both sets are self-conjugate. The
    disks come last, from the final columns; a cluster is reported, never
    fatal here.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    lam, W, V = la.eig(A, left=True)
    nrm = np.linalg.norm(A, 2) if d else 0.0
    scale = max(1.0, nrm)

    raw = lam.copy()
    lam = np.where(np.abs(lam.imag) <= Tolerances.snap_imag * scale, lam.real + 0j, lam)
    V = V.astype(complex) / np.linalg.norm(V, axis=0)
    W = W.astype(complex) / np.linalg.norm(W, axis=0)

    mate = np.arange(d)
    up = np.flatnonzero(raw.imag > 0)
    mate[up], mate[up + 1] = up + 1, up
    order = np.lexsort((lam.imag, lam.real))
    lam, raw, V, W = lam[order], raw[order], V[:, order], W[:, order]
    column = np.empty(d, dtype=int)
    column[order] = np.arange(d)
    pairing = column[mate[order]]

    # self-paired columns belong to raw-real eigenvalues: their real part
    # is the whole eigenvector, renormalized
    single = np.flatnonzero(pairing == np.arange(d))
    V[:, single] = (V[:, single].real
                    / [np.linalg.norm(V[:, i].real) for i in single])

    # canonical phase on each self-paired or leading column (a sign for a
    # real column, so it stays exactly real), then exact conjugates onto
    # the partners
    lead = _leading(pairing)
    V[:, lead] *= phase_rotation(V[:, lead], pairing[lead] == lead)
    mated = lead[pairing[lead] != lead]
    V[:, pairing[mated]] = V[:, mated].conj()
    W[:, pairing[mated]] = W[:, mated].conj()

    gram = (W.conj() * V).sum(axis=0)
    modulus = np.abs(gram)
    W[:, modulus > 0] *= gram[modulus > 0] / modulus[modulus > 0]
    AV = (A @ np.ascontiguousarray(V).view(float)).view(complex)
    ATW = (A.T @ np.ascontiguousarray(W).view(float)).view(complex)
    eta = np.maximum(np.linalg.norm(AV - V * raw, axis=0),
                     np.linalg.norm(ATW - W * raw.conj(), axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = 1.0 / modulus
        radius = np.where(np.isfinite(kappa), kappa * eta, np.inf)
    cluster = components(np.abs(raw[:, None] - raw[None, :])
                         <= radius[:, None] + radius[None, :])
    return SpectralData(eigenvalues=lam, raw_eigenvalues=raw, modal_matrix=V,
                        left_modal_matrix=W, pairing=pairing, kappa=kappa,
                        radius=radius, cluster=cluster, matrix_norm=nrm)


def phase_rotation(U: np.ndarray, real) -> np.ndarray:
    """Unit factors that put the columns of U in canonical phase.

    The first entry above 1e-8 of a column's largest magnitude becomes
    real positive: a real column (where `real` is true) is multiplied by
    that entry's sign, so it stays exactly real, a complex one by
    exp(-i angle). decompose and the designer's replacement eigenvector
    share this rule.
    """
    mags = np.abs(U)
    first = np.argmax(mags > 1e-8 * mags.max(axis=0, initial=0.0), axis=0)
    entry = U[first, np.arange(U.shape[1])]
    return np.where(real, np.sign(entry.real), np.exp(-1j * np.angle(entry)))


def rank_cutoff(sv_max: float, shape, rtol: float | None) -> float:
    """Singular values above this count toward the numerical rank.

    rtol is relative to the largest singular value; None means
    max(shape) * machine-eps (the rank-revealing default).
    """
    return (max(shape) * _EPS if rtol is None else rtol) * sv_max


def numerical_rank(M: np.ndarray, rtol: float | None = None) -> int:
    """Number of singular values of M above rank_cutoff; 0 for an empty
    or zero matrix."""
    if M.size == 0:
        return 0
    sv = la.svdvals(M)
    return int((sv > rank_cutoff(sv[0], M.shape, rtol)).sum())


def multiset_error(lam_a, lam_b) -> float:
    """Largest deviation between two eigenvalue lists under the matching
    that minimizes the summed distance (linear_sum_assignment), so a
    real eigenvalue is never paired with a complex one merely because
    their real parts tie."""
    # imported here: scipy.optimize takes longer to import than all of
    # obsblock, and only the spectrum audits need it
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(lam_a, complex)
    b = np.asarray(lam_b, complex)
    if not a.size:
        return 0.0
    rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
    return float(np.abs(a[rows] - b[cols]).max())


def closed_loop_audit(sd: SpectralData, A_cl: np.ndarray, preserved):
    """Spectrum and eigenvector retention of a closed loop against the
    open-loop modal data `sd`: the designer's postcondition.

    Returns the multiset error of eig(A_cl) against sd.raw_eigenvalues
    and, for each column index in `preserved`, the residual
    ||A_cl v - lambda v|| / max(1, ||A||) of that open-loop eigenpair.
    The residuals come from one real product of A_cl with the real and
    imaginary parts of the preserved columns, interleaved.
    """
    err = multiset_error(sd.raw_eigenvalues, la.eigvals(A_cl))
    scale = max(1.0, sd.matrix_norm)
    idx = np.asarray(preserved, dtype=int)
    V = np.ascontiguousarray(sd.modal_matrix[:, idx])
    AV = (np.asarray(A_cl, dtype=float) @ V.view(float)).view(complex)
    residuals = np.linalg.norm(AV - V * sd.eigenvalues[idx], axis=0) / scale
    return err, residuals.tolist()


def components(adjacent: np.ndarray) -> np.ndarray:
    """Weakly connected component labels, 0 .. count - 1, of the graph
    whose edges are the true entries of the square boolean matrix
    `adjacent`; an edge joins its ends whichever way it points.

    Components are numbered in the order of their smallest members, as
    scipy's connected_components numbers them, without its per-call graph
    checks, which cost more than the whole loop on small inputs. Labels
    start as the node indices. Each round a node takes the smallest label
    among itself and its neighbours, the node its old label names takes
    that label too, and every label then jumps to its own label's label.
    A label only falls and always names a member of its node's component,
    so the rounds stop with each component labelled by its smallest
    member. Chains are the slow case: a path, ring or shuffled path of
    1000 nodes settles in at most 10 rounds of O(d^2) array work.
    """
    joined = np.asarray(adjacent, dtype=bool)
    joined = joined | joined.T
    d = joined.shape[0]
    label = np.arange(d)
    while True:
        reached = np.where(joined, label, d).min(axis=1, initial=d)
        step = np.minimum(label, reached)
        np.minimum.at(step, label, reached)
        step = step[step]
        if np.array_equal(step, label):
            break
        label = step
    first = label == np.arange(d)
    return np.cumsum(first)[label] - 1


def check_stacked_structure(sd: SpectralData, n: int, N: int) -> float:
    """Largest deviation from the stacked eigenvector relation.

    For an integrator network every eigenvector obeys
    v[j + k*n] = lambda^k v[j]; returns max_{i,j,k} of the absolute
    deviation over all eigenvectors (diagnostic, no raising). Each
    column is measured against its raw eigensolver eigenvalue; the
    relation belongs to the true eigenpair, which snapping perturbs.
    """
    if sd.dim != n * N:
        raise ValueError(f"modal dimension {sd.dim} is not n*N = {n * N}")
    worst = 0.0
    for i in range(sd.dim):
        v = sd.modal_matrix[:, i]
        lam = sd.raw_eigenvalues[i]
        base = v[:n]
        for k in range(1, N):
            dev = np.abs(v[k * n:(k + 1) * n] - (lam ** k) * base).max()
            worst = max(worst, float(dev))
    return worst


def match_eigenvalue(sd: SpectralData, value: complex) -> int:
    """Column index whose eigenvalue is numerically `value`, or -1.

    Ties resolve to the lexicographically first (re, im) candidate.
    """
    scale = max(1.0, sd.matrix_norm)
    dist = np.abs(sd.eigenvalues - value)
    ok = np.flatnonzero(dist <= Tolerances.lambda_match * scale)
    if ok.size == 0:
        return -1
    best = min(ok, key=lambda i: (dist[i], sd.eigenvalues[i].real,
                                  sd.eigenvalues[i].imag, i))
    return int(best)
