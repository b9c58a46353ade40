"""Independent numerical oracles for blocking designs.

Everything here recomputes from the network, F, v_hat and lambda_p, with
no open-loop eigensolve: preservation is certified from F's row space.
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
    blocked_energy_bound: float
    verdict: bool
    reasons: list = field(default_factory=list)


def pbh_test(A_cl: np.ndarray, C: np.ndarray, lam,
             tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Rank of [A_cl - lambda I; C]; below the state dimension means
    the mode at lambda is unobservable. The matrix is real for a real
    lambda."""
    A_cl = np.asarray(A_cl)
    lam = complex(lam)
    s = lam.real if lam.imag == 0.0 else lam
    M = np.vstack([A_cl - s * np.eye(A_cl.shape[0]), np.asarray(C, dtype=float)])
    return numerical_rank(M, tol.rank_decision)


def observability_rank(A_cl: np.ndarray, C: np.ndarray,
                       tol: Tolerances = DEFAULT_TOLERANCES, eig=None) -> int:
    """d minus the dark modes (eigenvectors C maps to zero), which is d
    minus the PBH deficiencies summed over the distinct eigenvalues.

    Eigenvalues within lambda_match * max(1, |lambda|) of each other count
    as one (spectrum.components). Their dark modes are the unit directions
    of the span of their unit eigenvectors that C maps to at most
    zero_pattern (||C v|| for a simple eigenvalue); the span stops at
    lambda_match relative, so a defective eigenvalue's nearly parallel
    eigenvectors span one. `eig` is la.eig(A_cl) when the caller has it.
    """
    C = np.asarray(C, dtype=float)
    lam, V = la.eig(np.asarray(A_cl, dtype=float)) if eig is None else eig
    label = components(np.abs(lam[:, None] - lam[None, :])
                       <= tol.lambda_match * np.maximum(1.0, np.abs(lam))[:, None])
    size = np.bincount(label, minlength=lam.size)
    single = size[label] == 1
    dark = int((np.linalg.norm(C @ V[:, single], axis=0) <= tol.zero_pattern).sum())
    for g in np.flatnonzero(size > 1):
        U, sv, _ = la.svd(V[:, label == g], full_matrices=False)
        span = U[:, sv > tol.lambda_match * sv[0]]
        dark += span.shape[1] - int((la.svdvals(C @ span) > tol.zero_pattern).sum())
    return lam.size - dark


def preservation_audit(design: BlockingDesign, A_cl: np.ndarray | None = None,
                       tol: Tolerances = DEFAULT_TOLERANCES):
    """Certificate from F's row space that A_cl = A + B F keeps A's
    spectrum and every eigenvector F does not act on.

    Y holds the r right singular vectors of F with sigma_k ||B|| above
    preserved_residual * max(1, ||A||); the rest of F is backward error.
    If null(Y^T) is A-invariant, A_cl equals A on it, so the spectra can
    differ only on the r x r quotients Y^T A Y and Y^T A_cl Y, and no
    Jordan chain inside null(F) is compared. Returns (quotient multiset
    error, ||Y^T A - (Y^T A Y) Y^T|| / max(1, ||A||), r).
    """
    A, B, _ = assemble(design.network)
    if A_cl is None:
        A_cl = closed_loop(A, B, design.F)
    scale = max(1.0, la.norm(A, 2))
    _, sv, Vh = la.svd(design.F, full_matrices=False)
    r = int((sv * la.norm(B, 2) > tol.preserved_residual * scale).sum())
    Yt = Vh[:r]
    YtA = Yt @ A
    quotient = YtA @ Yt.T
    rho = la.norm(YtA - quotient @ Yt, 2) / scale
    err = multiset_error(la.eigvals(quotient), la.eigvals(Yt @ A_cl @ Yt.T))
    return err, float(rho), r


_STATE_OVERFLOW = 1e150   # state norm at which the horizon is cut short


@dataclass(frozen=True)
class StepPropagator:
    """The step propagator of one loop on the grid t_j = j*dt, j = 0..steps.

    powers holds E = expm(A_cl*dt) and its repeated squares E^2, E^4,
    ... up to the largest power of two at most steps, or up to the last
    finite one should a square overflow. It depends on the loop and the
    grid only, so every start of output_energy on that loop can share it.
    """

    dt: float
    steps: int
    powers: tuple


def step_propagator(A_cl: np.ndarray, T: float = 10.0,
                    dt: float = 0.01) -> StepPropagator:
    """StepPropagator of A_cl over [0, T]: one expm and about log2(T/dt)
    d x d squarings."""
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    steps = int(round(T / dt))
    powers = [la.expm(np.asarray(A_cl, dtype=float) * dt)]
    with np.errstate(over="ignore", invalid="ignore"):
        while 2 ** len(powers) <= steps:
            Q = powers[-1] @ powers[-1]
            if not np.isfinite(Q).all():
                break
            powers.append(Q)
    return StepPropagator(dt=dt, steps=steps, powers=tuple(powers))


def output_energy(A_cl: np.ndarray, C: np.ndarray, x0: np.ndarray,
                  T: float = 10.0, dt: float = 0.01,
                  propagator: StepPropagator | None = None):
    """Trapezoidal estimate of the output energy integral over [0, T].

    The state is sampled on the grid t_j = j*dt, j = 0..round(T/dt),
    through the step propagator E = expm(A_cl*dt) (exact for LTI), so the
    estimate carries only quadrature error in t. The trajectory is built
    by doubling: rows [p, 2p) are rows [0, p) times E^p, and E^(2p) is
    the square of E^p. That is about log2(T/dt) d x d squarings plus
    O(d^2 T/dt) flops, with no per-step Python loop. Should a power
    overflow, the trajectory advances in blocks of the largest finite
    power instead. The powers come from `propagator`, which must be
    step_propagator(A_cl, T, dt) and is computed here when not given;
    a caller that runs several starts on one loop passes it to each.

    The horizon is cut short at step k, the last step before the first
    state that is non-finite or has norm above 1e150; the report says
    so through horizon_actually_used = k*dt.

    Returns (energy, horizon_actually_used).
    """
    prop = step_propagator(A_cl, T, dt) if propagator is None else propagator
    C = np.asarray(C, dtype=float)
    steps, powers = prop.steps, prop.powers
    top = 1 << (len(powers) - 1)    # the largest power
    X = np.empty((steps + 1, powers[0].shape[0]))   # row j holds x(j*dt)
    X[0] = np.asarray(x0, dtype=float)
    j, k = 1, steps                 # rows < j are filled
    with np.errstate(over="ignore", invalid="ignore"):
        while j <= steps:
            p = min(j, top)         # rows [j, j + p) are rows [j - p, j) times E^p
            hi = min(j + p, steps + 1)
            block = X[j:hi]
            np.matmul(X[j - p:hi - p], powers[p.bit_length() - 1].T, out=block)
            bad = np.flatnonzero(~(np.einsum("ij,ij->i", block, block)
                                   <= _STATE_OVERFLOW ** 2))
            if bad.size:
                k = j + int(bad[0]) - 1
                break
            j = hi

        Y = X[:k + 1] @ C.T
        y = np.einsum("ij,ij->i", Y, Y)    # |C x(j*dt)|^2
        energy = 0.5 * dt * float(np.sum(y[:-1] + y[1:]))
    return energy, k * dt


def verify_design(design: BlockingDesign, C: np.ndarray | None = None,
                  tol: Tolerances = DEFAULT_TOLERANCES, T: float = 10.0,
                  dt: float = 0.01, rng=None) -> VerificationReport:
    """Run every oracle against a design and aggregate the verdict.

    C defaults to the network's base measurement output (assemble's C).
    For a direct design that is its own constraint set; for the design
    of a cutset result it audits the transfer claim, blocking at the
    measurement nodes rather than at the cut.

    The energy witness runs the blocked start (from v_hat) and a random
    unit start on A_cl - sigma*I, sigma = max(0, max Re lambda(A_cl)),
    through one shared propagator. The shift scales every trajectory by
    e^(-sigma t) and leaves every invariant subspace, the blocked one
    included, exactly in place, so it keeps the horizon on unstable
    loops without touching darkness. The witness fails when the blocked
    energy exceeds candidate_residual^2 times the random energy: a start
    delta away from its mode shows about delta^2 of a generic start's
    energy, and the designer certifies v_hat to candidate_residual.
    """
    A, B, C_base = assemble(design.network)
    C = C_base if C is None else C
    A_cl = closed_loop(A, B, design.F)
    d = A.shape[0]

    rank = pbh_test(A_cl, C, design.lambda_p, tol)
    # one eigensolve feeds the dark-mode count and the energy shift
    eig = la.eig(A_cl)
    obs_rank = observability_rank(A_cl, C, tol, eig)
    spec_err, rho, gain_rank = preservation_audit(design, A_cl, tol)

    x0 = np.real(design.v_hat)
    if np.linalg.norm(x0) < 1e-8:
        x0 = np.imag(design.v_hat)
    x0 = x0 / np.linalg.norm(x0)
    # both starts ride one propagator of the shifted loop; it lives only
    # for this call
    sigma = max(0.0, float(eig[0].real.max()))
    A_shift = A_cl - sigma * np.eye(d)
    propagator = step_propagator(A_shift, T, dt)
    energy, _ = output_energy(A_shift, C, x0, T, dt, propagator)

    rng = np.random.default_rng(0) if rng is None else rng
    xr = rng.standard_normal(d)
    xr /= np.linalg.norm(xr)
    energy_rand, _ = output_energy(A_shift, C, xr, T, dt, propagator)
    bound = tol.candidate_residual ** 2 * energy_rand

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
    if energy > bound:
        reasons.append(f"blocked-state output energy {energy:.3e} > {bound:.3e}")

    return VerificationReport(
        pbh_rank_at_lambda=rank, full_state_dim=d, obs_matrix_rank=obs_rank,
        spectrum_match_error=spec_err, invariance_residual=rho, gain_rank=gain_rank,
        output_energy=energy, random_output_energy=energy_rand,
        blocked_energy_bound=bound, verdict=not reasons, reasons=reasons)
