"""Independent numerical oracles for blocking designs.

Everything here recomputes from the network, F, v_hat and lambda_p, with
no open-loop eigensolve: preservation is certified from F's row space,
closed under A^T up to the record's count of replaced and repaired
columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .config import DEFAULT_TOLERANCES, Tolerances
from .designer import BlockingDesign
from .model import assemble, closed_loop
from .spectrum import components, multiset_error, numerical_rank


@dataclass
class VerificationReport:
    """Aggregated pass/fail evidence for one design."""

    pbh_rank_at_lambda: int
    full_state_dim: int
    obs_matrix_rank: int
    spectrum_match_error: float
    invariance_residual: float
    gain_rank: int
    output_energy: float
    random_output_energy: float
    reasons: list = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        """Pass when no oracle gave a reason to fail."""
        return not self.reasons

    @property
    def blocked_energy_bound(self) -> float:
        """The energy witness's budget for the blocked start."""
        return Tolerances.candidate_residual ** 2 * self.random_output_energy


def pbh_test(A_cl: np.ndarray, C: np.ndarray, lam) -> int:
    """Rank of [A_cl - lambda I; C]; below the state dimension means
    the mode at lambda is unobservable. The matrix is real for a real
    lambda."""
    A_cl = np.asarray(A_cl)
    lam = complex(lam)
    s = lam.real if lam.imag == 0.0 else lam
    M = np.vstack([A_cl - s * np.eye(A_cl.shape[0]), np.asarray(C, dtype=float)])
    return numerical_rank(M, Tolerances.rank_decision)


def observability_rank(A_cl: np.ndarray, C: np.ndarray, eig=None) -> int:
    """d minus the dark modes (eigenvectors C maps to zero), which is d
    minus the PBH deficiencies summed over the distinct eigenvalues.

    Eigenvalues within lambda_match * max(1, |lambda|) of each other count
    as one (spectrum.components). Their dark modes are the unit directions
    of the span of their unit eigenvectors that C maps to at most
    zero_pattern (||C v|| for a simple eigenvalue); the span stops at
    lambda_match relative, so a defective eigenvalue's nearly parallel
    eigenvectors span one. `eig` is la.eig(A_cl) when the caller has it.
    """
    match, zero = Tolerances.lambda_match, Tolerances.zero_pattern
    C = np.asarray(C, dtype=float)
    lam, V = la.eig(np.asarray(A_cl, dtype=float)) if eig is None else eig
    label = components(np.abs(lam[:, None] - lam[None, :])
                       <= match * np.maximum(1.0, np.abs(lam))[:, None])
    size = np.bincount(label, minlength=lam.size)
    single = size[label] == 1
    dark = int((np.linalg.norm(C @ V[:, single], axis=0) <= zero).sum())
    for g in np.flatnonzero(size > 1):
        U, sv, _ = la.svd(V[:, label == g], full_matrices=False)
        span = U[:, sv > match * sv[0]]
        dark += span.shape[1] - int((la.svdvals(C @ span) > zero).sum())
    return lam.size - dark


def preservation_audit(design: BlockingDesign, A: np.ndarray, A_cl: np.ndarray):
    """Certificate from F's row space that A_cl = A + B F keeps A's
    spectrum and every eigenvector F does not act on.

    F's rows above preserved_residual * max(1, ||A||) span Y_0 (||B|| = 1:
    the actuation nodes are distinct); the rest of F is backward error. Y
    is closed under A^T: while null(Y^T) is not A-invariant, the left
    singular directions of (I - Y Y^T) A^T Y above the same budget join Y,
    reorthogonalized, so long as Y stays within the record's claim of
    |replaced| + |repaired| columns. If null(Y^T) is A-invariant, A_cl
    equals A on it, so the spectra can differ only on the quotients
    Y^T A Y and Y^T A_cl Y, and no Jordan chain inside null(F) is
    compared. Returns (quotient multiset error,
    ||Y^T A - (Y^T A Y) Y^T|| / max(1, ||A||) at the last Y, rank F).
    """
    scale = max(1.0, np.linalg.norm(A, 2))
    cut = Tolerances.preserved_residual * scale
    _, sv, Vh = la.svd(design.F, full_matrices=False)
    r = int((sv > cut).sum())
    claim = len(design.replaced) + len(design.repaired)
    Yt = Vh[:r]
    while True:
        YtA = Yt @ A
        quotient = YtA @ Yt.T
        R = YtA - quotient @ Yt
        rho = np.linalg.norm(R, 2) / scale
        if rho <= Tolerances.preserved_residual:
            break
        U, su, _ = la.svd(R.T, full_matrices=False)
        U = U[:, su > cut]
        if not U.shape[1] or Yt.shape[0] + U.shape[1] > claim:
            break
        U = la.qr(U - Yt.T @ (Yt @ U), mode="economic")[0]
        Yt = np.vstack([Yt, U.T])
    err = multiset_error(la.eigvals(quotient), la.eigvals(Yt @ A_cl @ Yt.T))
    return err, float(rho), r


_STATE_OVERFLOW = 1e150   # state norm at which the horizon is cut short
HORIZON = 10.0            # the energy witness runs on t_j = j*DT over [0, HORIZON]
DT = 0.01
_STEPS = int(round(HORIZON / DT))


def step_propagator(A_cl: np.ndarray) -> tuple:
    """E = expm(A_cl*DT) and its repeated squares E^2, E^4, ... up to the
    largest power of two at most HORIZON/DT, or up to the last finite one
    should a square overflow: one expm and about log2(HORIZON/DT) d x d
    squarings. Every start of output_energy on A_cl can share them."""
    powers = [la.expm(np.asarray(A_cl, dtype=float) * DT)]
    with np.errstate(over="ignore", invalid="ignore"):
        while 2 ** len(powers) <= _STEPS:
            Q = powers[-1] @ powers[-1]
            if not np.isfinite(Q).all():
                break
            powers.append(Q)
    return tuple(powers)


def output_energy(A_cl: np.ndarray, C: np.ndarray, x0: np.ndarray, powers=None):
    """Trapezoidal estimate of the output energy integral over [0, HORIZON].

    The state is sampled on the grid t_j = j*DT, j = 0..HORIZON/DT,
    through the step propagator E = expm(A_cl*DT) (exact for LTI), so the
    estimate carries only quadrature error in t. The trajectory is built
    by doubling: rows [p, 2p) are rows [0, p) times E^p, and E^(2p) is
    the square of E^p. That is about log2(HORIZON/DT) d x d squarings plus
    O(d^2 HORIZON/DT) flops, with no per-step Python loop. Should a power
    overflow, the trajectory advances in blocks of the largest finite
    power instead. The powers are step_propagator(A_cl), computed here
    when not given; a caller that runs several starts on one loop passes
    them to each.

    The horizon is cut short at step k, the last step before the first
    state that is non-finite or has norm above 1e150, found by one scan
    once every row is filled; the report says so through
    horizon_actually_used = k*DT.

    Returns (energy, horizon_actually_used).
    """
    powers = step_propagator(A_cl) if powers is None else powers
    C = np.asarray(C, dtype=float)
    top = 1 << (len(powers) - 1)    # the largest power
    X = np.empty((_STEPS + 1, powers[0].shape[0]))   # row j holds x(j*DT)
    X[0] = np.asarray(x0, dtype=float)
    j = 1                           # rows < j are filled
    with np.errstate(over="ignore", invalid="ignore"):
        while j <= _STEPS:
            p = min(j, top)         # rows [j, j + p) are rows [j - p, j) times E^p
            hi = min(j + p, _STEPS + 1)
            np.matmul(X[j - p:hi - p], powers[p.bit_length() - 1].T, out=X[j:hi])
            j = hi
        # one scan of the finished trajectory: a row depends on earlier
        # rows only, so the rows past a bad one never reach the kept rows
        bad = np.flatnonzero(~(np.einsum("ij,ij->i", X[1:], X[1:])
                               <= _STATE_OVERFLOW ** 2))
        k = int(bad[0]) if bad.size else _STEPS

        Y = X[:k + 1] @ C.T
        y = np.einsum("ij,ij->i", Y, Y)    # |C x(j*DT)|^2
        energy = 0.5 * DT * float(np.sum(y[:-1] + y[1:]))
    return energy, k * DT


def verify_design(design: BlockingDesign, C: np.ndarray | None = None,
                  tol: Tolerances = DEFAULT_TOLERANCES,
                  rng=None) -> VerificationReport:
    """Run every oracle against a design and aggregate the verdict.

    C defaults to the network's base measurement output (assemble's C).
    For a direct design that is its own constraint set; for the design
    of a cutset result it audits the transfer claim, blocking at the
    measurement nodes rather than at the cut.

    A, B and A_cl are built once here and handed to every oracle. The
    preservation certificate closes F's row space under A^T, at most to
    the record's |replaced| + |repaired|; ||B|| = 1, as the actuation
    nodes are distinct.

    The energy witness runs the blocked start (from v_hat) and a random unit
    start on A_cl - sigma*I, sigma = max(0, max Re lambda(A_cl)), through one
    step_propagator on the fixed grid (HORIZON = 10, DT = 0.01). The shift scales
    every trajectory by e^(-sigma t) and leaves every invariant subspace, the
    blocked one included, exactly in place, so it keeps the horizon on
    unstable loops without touching darkness. The witness fails when the
    blocked energy exceeds candidate_residual^2 times the random energy: a
    start delta away from its mode shows about delta^2 of a generic start's
    energy, and the designer certifies v_hat to candidate_residual.
    """
    A, B, C_base = assemble(design.network)
    C = C_base if C is None else C
    A_cl = closed_loop(A, B, design.F)
    d = A.shape[0]

    rank = pbh_test(A_cl, C, design.lambda_p)
    # one eigensolve feeds the dark-mode count and the energy shift
    eig = la.eig(A_cl)
    obs_rank = observability_rank(A_cl, C, eig)
    spec_err, rho, gain_rank = preservation_audit(design, A, A_cl)

    x0 = np.real(design.v_hat)
    if np.linalg.norm(x0) < 1e-8:
        x0 = np.imag(design.v_hat)
    x0 = x0 / np.linalg.norm(x0)
    # both starts ride one set of step powers of the shifted loop; they
    # live only for this call
    sigma = max(0.0, float(eig[0].real.max()))
    A_shift = A_cl - sigma * np.eye(d)
    powers = step_propagator(A_shift)
    energy, _ = output_energy(A_shift, C, x0, powers)

    rng = np.random.default_rng(0) if rng is None else rng
    xr = rng.standard_normal(d)
    xr /= np.linalg.norm(xr)
    energy_rand, _ = output_energy(A_shift, C, xr, powers)

    reasons = []
    if rank >= d:
        reasons.append(f"PBH rank {rank} shows no deficiency at lambda_p")
    blocked = 2 if complex(design.lambda_p).imag != 0.0 else 1
    if d - obs_rank < blocked:
        reasons.append(f"observability rank {obs_rank} leaves {d - obs_rank} "
                       f"dark modes, fewer than the {blocked} blocked")
    if rho > tol.preserved_residual:
        reasons.append(f"null(F) invariance residual {rho:.3e} > "
                       f"{tol.preserved_residual:g}")
    if spec_err > tol.spectrum_match:
        reasons.append(f"quotient spectrum multiset error {spec_err:.3e} > "
                       f"{tol.spectrum_match:g}")
    report = VerificationReport(
        pbh_rank_at_lambda=rank, full_state_dim=d, obs_matrix_rank=obs_rank,
        spectrum_match_error=spec_err, invariance_residual=rho, gain_rank=gain_rank,
        output_energy=energy, random_output_energy=energy_rand, reasons=reasons)
    if energy > report.blocked_energy_bound:
        reasons.append(f"blocked-state output energy {energy:.3e} > "
                       f"{report.blocked_energy_bound:.3e}")
    return report
