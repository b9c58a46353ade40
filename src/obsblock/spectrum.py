"""Eigendecomposition with conjugate pairing and defectiveness flags.

The modal data is canonicalized so downstream modal replacement is
deterministic: eigenvalues sorted by (real, imag), near-real values
snapped, columns phase-fixed, and the column set made exactly
self-conjugate by construction. The numerical-rank and eigenvalue
multiset primitives shared by the designer and the verifier live here
too, so both sides decide with the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
from scipy.sparse.csgraph import connected_components

from .config import Tolerances, DEFAULT_TOLERANCES

_EPS = np.finfo(float).eps


@dataclass
class SpectralData:
    """Eigenvalues, modal matrix and pairing of a (closed-loop) state matrix.

    pairing[i] is the column index of the conjugate partner (i itself
    for columns with real eigenvectors). Pairs are exact: the partner
    column stores the complex conjugate values of its mate.
    left_modal_matrix holds the unit left eigenvectors, column i for
    eigenvalue i (w_i^* A = lambda_i w_i^*), sorted and paired like
    modal_matrix.
    """

    eigenvalues: np.ndarray
    raw_eigenvalues: np.ndarray
    modal_matrix: np.ndarray
    left_modal_matrix: np.ndarray
    pairing: np.ndarray
    defective: np.ndarray
    matrix_norm: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def is_real(self, i: int) -> bool:
        return self.eigenvalues[i].imag == 0.0

    def all_real(self) -> bool:
        return bool((self.eigenvalues.imag == 0.0).all())

    def is_vector_paired(self, i: int) -> bool:
        """Distinct conjugate partner despite a real eigenvalue (snapped pair)."""
        return self.pairing[i] != i and self.is_real(i)


def decompose(A: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralData:
    """Full eigendecomposition of a real state matrix.

    One eigensolve returns both eigenvector sets: the left ones add a
    back-substitution (about 15 % of the solve) and leave the eigenvalues
    and right eigenvectors bit-identical. Right columns are unit 2-norm with
    canonical phase (first entry above 1e-8 of the largest made real
    positive), left columns unit 2-norm. Imaginary parts of
    eigenvalues below snap_imag * ||A|| are snapped to zero. Conjugate
    pairs come from the solver: LAPACK's xGEEV returns each complex pair
    in adjacent columns, positive imaginary part first, as exact
    conjugates, and that pairing is carried through the sort. Snapped
    pairs are mated by _pair_snapped. Partners are overwritten with
    exact conjugates of the phase-fixed leading column, left and right,
    so both sets are self-conjugate. Defective clusters are flagged,
    never fatal here.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    lam, W, V = la.eig(A, left=True)
    nrm = la.norm(A, 2) if d else 0.0
    scale = max(1.0, nrm)
    match = tol.lambda_match * scale

    raw = lam.copy()
    lam = np.where(np.abs(lam.imag) <= tol.snap_imag * scale, lam.real + 0j, lam)
    V = V.astype(complex) / np.linalg.norm(V, axis=0)
    W = W.astype(complex) / np.linalg.norm(W, axis=0)

    mate = np.arange(d)
    up = np.flatnonzero(lam.imag > 0)
    mate[up], mate[up + 1] = up + 1, up
    order = np.lexsort((lam.imag, lam.real))
    lam, raw, V, W = lam[order], raw[order], V[:, order], W[:, order]
    column = np.empty(d, dtype=int)
    column[order] = np.arange(d)
    pairing = column[mate[order]]
    _pair_snapped(lam, V, pairing, match, tol.realness)

    # canonical phase on each self-paired or leading column, then exact
    # conjugates onto the partners
    lead = np.flatnonzero(pairing >= np.arange(d))
    U = V[:, lead]
    mags = np.abs(U)
    top = mags.max(axis=0, initial=0.0)
    first = np.argmax(mags > 1e-8 * top, axis=0)
    nz = top != 0.0
    rot = np.exp(-1j * np.angle(U[first[nz], np.flatnonzero(nz)]))
    V[:, lead[nz]] = U[:, nz] * rot
    mated = lead[pairing[lead] != lead]
    V[:, pairing[mated]] = V[:, mated].conj()
    W[:, pairing[mated]] = W[:, mated].conj()

    return SpectralData(eigenvalues=lam, raw_eigenvalues=raw, modal_matrix=V,
                        left_modal_matrix=W, pairing=pairing,
                        defective=_flag_defective(A, lam, tol), matrix_norm=nrm)


def _pair_snapped(lam, V, pairing, match, realness) -> None:
    """Realify or mate the unpaired columns with a real eigenvalue.

    A column whose eigenvector is real up to `realness` becomes the
    normalized real part. A column whose eigenvector is essentially
    complex (a snapped defective pair) pairs with the first unpaired real
    column, in column order, of matching eigenvalue whose eigenvector is
    within 1e-6 of its conjugate. Columns are visited in ascending order,
    so a real column before the searching one is compared in realified
    form and is realified even if it is taken as a mate later.
    """
    single = np.flatnonzero((pairing == np.arange(lam.size)) & (lam.imag == 0))
    S = V[:, single]
    flat = (np.abs(S.imag).max(axis=0, initial=0.0)
            <= realness * np.maximum(np.abs(S.real).max(axis=0, initial=0.0), 1e-300))
    real_cols = single[flat]
    norms = np.array([np.linalg.norm(V[:, i].real) for i in real_cols])
    R = V[:, real_cols].real / norms + 0j
    realified = dict(zip(real_cols.tolist(), R.T))
    for i in single[~flat]:
        if pairing[i] != i:
            continue
        vi = V[:, i].conj()
        for j in single[np.abs(lam[single] - lam[i]) <= match]:
            if j == i or pairing[j] != j:
                continue
            vj = realified.get(int(j), V[:, j]) if j < i else V[:, j]
            if np.linalg.norm(vj - vi) < 1e-6:
                pairing[i], pairing[j] = j, i
                break
    # a real column taken by an earlier complex column was never realified
    keep = pairing[real_cols] >= real_cols
    V[:, real_cols[keep]] = R[:, keep]


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
    `adjacent`; an edge joins its ends whichever way it points."""
    return connected_components(adjacent, connection="weak")[1]


def _flag_defective(A, lam, tol):
    """Compare numerical rank of A - lam*I against algebraic multiplicity.

    Clusters are chains of pairwise gaps within cluster * max(1, max |lam|)
    (components), whatever sorts between their members.
    """
    d = lam.size
    flags = np.zeros(d, dtype=bool)
    if d == 0:
        return flags
    width = tol.cluster * max(1.0, np.abs(lam).max())
    label = components(np.abs(lam[:, None] - lam[None, :]) <= width)
    size = np.bincount(label, minlength=d)
    for c in np.flatnonzero(size > 1):
        members = label == c
        M = A - lam[members].mean() * np.eye(d)
        sv = la.svdvals(M)
        # defectiveness gap sits well above roundoff; use a safety factor
        cutoff = max(rank_cutoff(sv[0], M.shape, None), 1e3 * _EPS * sv[0])
        geo = d - int((sv > cutoff).sum())
        if geo < size[c]:
            flags[members] = True
    return flags


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


def match_eigenvalue(sd: SpectralData, value: complex, tol: Tolerances) -> int:
    """Column index whose eigenvalue is numerically `value`, or -1.

    Ties resolve to the lexicographically first (re, im) candidate.
    """
    scale = max(1.0, sd.matrix_norm)
    dist = np.abs(sd.eigenvalues - value)
    ok = np.flatnonzero(dist <= tol.lambda_match * scale)
    if ok.size == 0:
        return -1
    best = min(ok, key=lambda i: (dist[i], sd.eigenvalues[i].real,
                                  sd.eigenvalues[i].imag, i))
    return int(best)
