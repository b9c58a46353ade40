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

    def residuals(self, A: np.ndarray) -> np.ndarray:
        R = A @ self.modal_matrix - self.modal_matrix * self.eigenvalues
        return np.linalg.norm(R, axis=0)


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate so the first significant entry is real positive."""
    mags = np.abs(v)
    top = mags.max()
    if top == 0.0:
        return v
    idx = int(np.argmax(mags > 1e-8 * top))
    return v * np.exp(-1j * np.angle(v[idx]))


def decompose(A: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralData:
    """Full eigendecomposition of a real state matrix.

    One eigensolve returns both eigenvector sets: the left ones add a
    back-substitution (about 15 % of the solve) and leave the eigenvalues
    and right eigenvectors bit-identical. Right columns are unit 2-norm with
    canonical phase, left columns unit 2-norm. Imaginary parts of
    eigenvalues below snap_imag * ||A|| are snapped to zero; conjugate
    partners (matched by eigenvalue, then by eigenvector proximity) are
    overwritten with exact conjugates, left and right, so both sets are
    self-conjugate. Defective clusters are flagged, never fatal here.
    """
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
    # conjugate pairs by eigenvalue, tightest eigenvector match first
    unpaired = [i for i in range(d) if lam[i].imag > 0]
    taken = set()
    for i in unpaired:
        cands = [j for j in range(d)
                 if j not in taken and lam[j].imag < 0
                 and abs(lam[j] - lam[i].conjugate()) <= tol.lambda_match * scale]
        if not cands:
            continue
        j = min(cands, key=lambda j: np.linalg.norm(V[:, j] - V[:, i].conj()))
        lam[j] = lam[i].conjugate()
        pairing[i], pairing[j] = j, i
        taken.add(j)
        taken.add(i)

    # snapped defective pairs: real eigenvalue, essentially complex eigenvector
    for i in range(d):
        if pairing[i] != i or lam[i].imag != 0:
            continue
        if np.abs(V[:, i].imag).max() <= tol.realness * max(np.abs(V[:, i].real).max(), 1e-300):
            V[:, i] = V[:, i].real / np.linalg.norm(V[:, i].real) + 0j
            continue
        mates = [j for j in range(d)
                 if j != i and pairing[j] == j and lam[j].imag == 0
                 and abs(lam[j] - lam[i]) <= tol.lambda_match * scale
                 and np.linalg.norm(V[:, j] - V[:, i].conj()) < 1e-6]
        if mates:
            j = mates[0]
            pairing[i], pairing[j] = j, i

    # canonical phase, then force exact conjugacy onto partners
    for i in range(d):
        j = pairing[i]
        if j == i:
            V[:, i] = _canonical_phase(V[:, i])
        elif i < j:
            V[:, i] = _canonical_phase(V[:, i])
            V[:, j] = V[:, i].conj()
            W[:, j] = W[:, i].conj()

    return SpectralData(eigenvalues=lam, raw_eigenvalues=raw, modal_matrix=V,
                        left_modal_matrix=W,
                        pairing=pairing, defective=_flag_defective(A, lam, tol),
                        matrix_norm=nrm)


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
    """Largest deviation between two eigenvalue lists matched after
    sorting by (real, imag)."""
    key = lambda z: (z.real, z.imag)
    a = np.array(sorted(np.asarray(lam_a, complex), key=key))
    b = np.array(sorted(np.asarray(lam_b, complex), key=key))
    return float(np.abs(a - b).max()) if a.size else 0.0


def _flag_defective(A, lam, tol):
    """Compare numerical rank of A - lam*I against algebraic multiplicity."""
    d = lam.size
    scale = max(1.0, np.abs(lam).max()) if d else 1.0
    width = tol.cluster * scale
    order = sorted(range(d), key=lambda i: (lam[i].real, lam[i].imag))
    clusters = []
    current = [order[0]] if d else []
    for i in order[1:]:
        if abs(lam[i] - lam[current[-1]]) <= width:
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    if current:
        clusters.append(current)

    flags = np.zeros(d, dtype=bool)
    for cluster in clusters:
        alg = len(cluster)
        if alg < 2:
            continue
        center = np.mean([lam[i] for i in cluster])
        M = A - center * np.eye(d)
        sv = la.svdvals(M)
        # defectiveness gap sits well above roundoff; use a safety factor
        cutoff = max(rank_cutoff(sv[0], M.shape, None), 1e3 * _EPS * sv[0])
        geo = d - int((sv > cutoff).sum())
        if geo < alg:
            for i in cluster:
                flags[i] = True
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
