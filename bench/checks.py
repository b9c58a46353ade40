"""The benchmark's own correctness checks of one verified design.

They recompute from `assemble` of the generated network and the gain
read back from the record, with plain numpy/scipy, so a design that
`verify_design` passes can still be caught. They run outside every
timed interval.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la
from scipy.optimize import linear_sum_assignment

from obsblock.model import assemble


def design_problems(network, design, tol) -> list:
    """Reasons the design does not hide lambda_p from the base sensors.

    `network` is the generated input, not the one stored in the record;
    the measured rows are those of its base measurement set, so cutset
    designs are checked for the transfer claim. An empty list passes.
    """
    A, B, C = assemble(network)
    d = A.shape[0]
    F = np.asarray(design.F)
    if (F.shape != (B.shape[1], d) or not np.isrealobj(F)
            or not np.isfinite(F).all()):
        return [f"gain is not a finite real {B.shape[1]}x{d} matrix"]
    problems = []
    A_cl = A + B @ F

    open_eigs = la.eigvals(A)
    closed_eigs = la.eigvals(A_cl)
    rows, cols = linear_sum_assignment(
        np.abs(open_eigs[:, None] - closed_eigs[None, :]))
    spec_err = float(np.abs(open_eigs[rows] - closed_eigs[cols]).max())
    if spec_err > tol.spectrum_match:
        problems.append(f"closed-loop spectrum moved by {spec_err:.3e} "
                        f"> {tol.spectrum_match:g}")

    lam = complex(design.lambda_p)
    v = np.asarray(design.v_hat)
    n, N = network.n, network.order
    meas = [(r - 1) + k * n for k in range(N) for r in network.measurement]
    zero = float(np.abs(v[meas]).max())
    if zero > tol.zero_pattern:
        problems.append(f"v_hat on measured rows {zero:.3e} > {tol.zero_pattern:g}")
    resid = float(np.linalg.norm(A_cl @ v - lam * v) / max(1.0, la.norm(A, 2)))
    if resid > tol.candidate_residual:
        problems.append(f"v_hat eigen-residual {resid:.3e} "
                        f"> {tol.candidate_residual:g}")

    sv = la.svdvals(np.vstack([A_cl - lam * np.eye(d), C]))
    rank = int((sv > tol.rank_decision * sv[0]).sum())
    if rank >= d:
        problems.append(f"rank of [A_cl - lambda_p I; C] is {rank} = d, "
                        "the mode is observable")
    return problems


def apply_checks(inst, result, tol) -> None:
    """Turn a verified op whose design fails these checks into check_failed."""
    if result.outcome != "verified":
        return
    problems = design_problems(inst.network, result.loaded, tol)
    if problems:
        result.outcome, result.message = "check_failed", "; ".join(problems)
