"""Independent numerical oracles for blocking designs.

Everything here recomputes from the state matrices; nothing trusts the
designer's internal bookkeeping beyond the indices it claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .config import DEFAULT_TOLERANCES, Tolerances
from .designer import BlockingDesign
from .model import assemble, closed_loop
from .spectrum import SpectralData, closed_loop_audit, components, numerical_rank


@dataclass
class VerificationReport:
    """Aggregated pass/fail evidence for one design."""

    pbh_rank_at_lambda: int
    full_state_dim: int
    obs_matrix_rank: int
    spectrum_match_error: float
    preserved_vector_residuals: list
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


def preservation_audit(sd_open: SpectralData, design: BlockingDesign,
                       A_cl: np.ndarray | None = None, eigenvalues=None):
    """Spectrum multiset error and residuals of the preserved eigenvectors
    (spectrum.closed_loop_audit); only indices the design claims as
    preserved are audited for eigenvector retention."""
    if A_cl is None:
        A, B, _ = assemble(design.network)
        A_cl = closed_loop(A, B, design.F)
    return closed_loop_audit(sd_open, A_cl, design.preserved, eigenvalues)


_STATE_OVERFLOW = 1e150   # state norm at which the horizon is cut short
_GROWTH_CAP = 1e100       # growth saturates here


@dataclass(frozen=True)
class StepPropagator:
    """The step propagator of one loop on the grid t_j = j*dt, j = 0..steps.

    powers holds E = expm(A_cl*dt) and its repeated squares E^2, E^4,
    ... up to the largest power of two at most steps, or up to the last
    finite one should a square overflow; norms holds their Frobenius
    norms and E_steps the product of the powers at the bits of steps
    (None when steps is zero). It depends on the loop and the grid
    only, so every start of output_energy on that loop can share it.
    """

    dt: float
    steps: int
    powers: tuple
    norms: tuple
    E_steps: np.ndarray | None


def step_propagator(A_cl: np.ndarray, T: float = 10.0,
                    dt: float = 0.01) -> StepPropagator:
    """StepPropagator of A_cl over [0, T]: one expm, about log2(T/dt)
    d x d squarings and the products for E^steps."""
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    steps = int(round(T / dt))
    powers = [la.expm(np.asarray(A_cl, dtype=float) * dt)]
    E_steps = None
    with np.errstate(over="ignore", invalid="ignore"):
        while 2 ** len(powers) <= steps:
            Q = powers[-1] @ powers[-1]
            if not np.isfinite(Q).all():
                break
            powers.append(Q)
        for i, P in enumerate(powers):
            if steps >> i & 1:
                E_steps = P if E_steps is None else E_steps @ P
        norms = tuple(float(np.linalg.norm(P)) for P in powers)
    return StepPropagator(dt=dt, steps=steps, powers=tuple(powers), norms=norms,
                          E_steps=E_steps)


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

    Returns (energy, horizon_actually_used, growth). Growth estimates the
    factor by which roundoff in the gain can be amplified before it
    reaches the output: the largest Frobenius norm of E^j over the
    dyadic steps j = 1, 2, 4, ... <= k and j = k, at least 1 and
    saturated at 1e100. Every sampled j is a step of the horizon, so
    growth never exceeds the largest ||E^j|| over all steps up to the
    first one past 1e100. Damped loops keep it near one.
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

        # if squaring overflowed, the last power has norm > 1e154 and is
        # sampled, so growth is capped before E_steps (then short of its
        # top bits) could be used
        growth = max((1.0,) + prop.norms[:k.bit_length()])
        if growth < _GROWTH_CAP and k & (k - 1):
            E_k = (prop.E_steps if k == steps
                   else np.linalg.matrix_power(powers[0], k))
            growth = max(growth, float(np.linalg.norm(E_k)))
    return energy, k * dt, min(growth, _GROWTH_CAP)


def verify_design(design: BlockingDesign, C: np.ndarray | None = None,
                  tol: Tolerances = DEFAULT_TOLERANCES, T: float = 10.0,
                  dt: float = 0.01, rng=None) -> VerificationReport:
    """Run every oracle against a design and aggregate the verdict.

    C defaults to the network's base measurement output (assemble's C).
    For a direct design that is its own constraint set; for the design
    of a cutset result it audits the transfer claim, blocking at the
    measurement nodes rather than at the cut.
    """
    A, B, C_base = assemble(design.network)
    C = C_base if C is None else C
    A_cl = closed_loop(A, B, design.F)
    d = A.shape[0]

    rank = pbh_test(A_cl, C, design.lambda_p, tol)
    # one eigensolve feeds both the dark-mode count and the multiset check
    eig = la.eig(A_cl)
    obs_rank = observability_rank(A_cl, C, tol, eig)
    spec_err, residuals = preservation_audit(design.open_loop, design, A_cl, eig[0])

    x0 = np.real(design.v_hat)
    if np.linalg.norm(x0) < 1e-8:
        x0 = np.imag(design.v_hat)
    x0 = x0 / np.linalg.norm(x0)
    # both starts ride one propagator; it lives only for this call
    propagator = step_propagator(A_cl, T, dt)
    energy, used, growth = output_energy(A_cl, C, x0, T, dt, propagator)
    # growth-normalized bound: on an unstable loop the unavoidable gain
    # roundoff rides the propagator, so darkness is judged relative to
    # the amplification; damped loops keep the absolute bound
    bound = tol.blocked_energy * used * max(1.0, growth ** 2)

    rng = np.random.default_rng(0) if rng is None else rng
    xr = rng.standard_normal(d)
    xr /= np.linalg.norm(xr)
    energy_rand, _, _ = output_energy(A_cl, C, xr, T, dt, propagator)

    reasons = []
    if rank >= d:
        reasons.append(f"PBH rank {rank} shows no deficiency at lambda_p")
    blocked = 2 if complex(design.lambda_p).imag != 0.0 else 1
    if d - obs_rank < blocked:
        reasons.append(f"observability rank {obs_rank} leaves {d - obs_rank} "
                       f"dark modes, fewer than the {blocked} blocked")
    if spec_err > tol.spectrum_match:
        reasons.append(f"spectrum multiset error {spec_err:.3e} > "
                       f"{tol.spectrum_match:g}")
    bad = [r for r in residuals if r > tol.preserved_residual]
    if bad:
        reasons.append(f"{len(bad)} preserved eigenvectors exceed the "
                       f"residual budget (worst {max(bad):.3e})")
    if energy > bound:
        reasons.append(f"blocked-state output energy {energy:.3e} > {bound:.3e}")

    return VerificationReport(
        pbh_rank_at_lambda=rank, full_state_dim=d, obs_matrix_rank=obs_rank,
        spectrum_match_error=spec_err, preserved_vector_residuals=residuals,
        output_energy=energy, random_output_energy=energy_rand,
        blocked_energy_bound=bound, verdict=not reasons, reasons=reasons)
