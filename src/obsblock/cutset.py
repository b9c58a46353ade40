"""Sparser blocking through a separating vertex cutset.

Design against the cutset-measurement model, then certify that the
blocking transfers to the base measurement set: with the cut entries of
the replacement eigenvector at zero, the far-partition block satisfies
lambda^N v = L_g v, so the far entries vanish whenever lambda^N misses
the spectrum of L_g.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la

from .config import DesignOptions, Tolerances
from .designer import (BlockingDesign, candidates, design_blocking,
                       select_lambda)
from .errors import InvalidInputError, LgConditionError, NoEligibleEigenvalueError
from .graph import CutsetPlan, is_strongly_connected, min_vertex_cut
from .model import IntegratorNetwork, assemble
from .spectrum import decompose


@dataclass(eq=False)
class LgCondition:
    """Spectral eligibility of one eigenvalue for the cutset transfer."""

    lg_eigenvalues: np.ndarray
    margin: float
    tolerance: float

    @property
    def satisfied(self) -> bool:
        return bool(self.margin > self.tolerance)


@dataclass(eq=False)
class TransferCertificate:
    """Evidence that a cutset design blocks the base measurement set. The
    zero pattern on the cut is the design's residuals["zero_pattern"].
    v_hat is a column of the lifted null space of [A - lambda I, B], so
    each derivative block is lambda times the previous one by
    construction, and the far partition's entries vanish with the cut's
    once the L_g condition holds."""

    plan: CutsetPlan
    condition: LgCondition
    far_zero_pattern: float
    base_output_infnorm: float


@dataclass(eq=False)
class CutsetDesign:
    design: BlockingDesign
    certificate: TransferCertificate


def lg_condition(network: IntegratorNetwork, plan: CutsetPlan, lambda_p) -> LgCondition:
    """Check that lambda_p^N is not an eigenvalue of L_g on the far partition.

    L_g = -(sum_k lambda_p^k L^(k)_22); an empty far partition satisfies
    the condition trivially with infinite margin.
    """
    lam = complex(lambda_p)
    N = network.order
    idx = [v - 1 for v in plan.v2]
    if not idx:
        return LgCondition(lg_eigenvalues=np.array([], complex), margin=np.inf,
                           tolerance=0.0)
    Lg = np.zeros((len(idx), len(idx)), dtype=complex)
    for k, L in enumerate(network.laplacians):
        Lg -= (lam ** k) * L[np.ix_(idx, idx)]
    eig_lg = la.eigvals(Lg)
    margin = float(np.abs((lam ** N) - eig_lg).min())
    threshold = float(Tolerances.lg_margin * (1.0 + np.linalg.norm(Lg, 2)))
    return LgCondition(lg_eigenvalues=eig_lg, margin=margin, tolerance=threshold)


def design_via_cutset(network: IntegratorNetwork, plan: CutsetPlan | None = None,
                      options: DesignOptions = DesignOptions()) -> CutsetDesign:
    """Blocking design with the cut nodes as the measurement surrogate.

    A plan is computed with min_vertex_cut when not supplied. The L_g
    screen filters the designer's candidates: the default takes the first
    that passes; an explicit request is resolved by select_lambda, and
    its eigenvalue failing the screen lists those that pass. The
    certificate carries the screen's condition at lambda_p.
    """
    if plan is None:
        plan = min_vertex_cut(network.graph, network.actuation,
                              network.measurement)
    else:
        plan.validate(network.graph, network.actuation, network.measurement)
        if network.is_laplacian_form() and not is_strongly_connected(network.graph):
            raise InvalidInputError("cutset design requires a strongly connected graph")

    A, B, _ = assemble(network)
    sd = decompose(A)

    conditions = {}     # lambda -> its L_g condition, computed once

    def screen(lam) -> LgCondition:
        lam = complex(lam)
        if lam not in conditions:
            conditions[lam] = lg_condition(network, plan, lam)
        return conditions[lam]

    eligible = (p for p in candidates(sd) if screen(sd.eigenvalues[p]).satisfied)
    if options.lambda_selection == "default":
        p = next(eligible, None)
        if p is None:
            raise NoEligibleEigenvalueError(
                "no usable eigenvalue satisfies the L_g condition")
    else:
        p = select_lambda(sd, options)
        cond = screen(sd.eigenvalues[p])
        if not cond.satisfied:
            alts = [f"index:{k} ({sd.eigenvalues[k]:.6g})" for k in eligible]
            raise LgConditionError(
                f"lambda = {sd.eigenvalues[p]:.6g} fails the L_g condition "
                f"(margin {cond.margin:.3e} <= {cond.tolerance:.3e}); "
                f"eligible alternatives: {', '.join(alts) if alts else 'none'}")

    design = design_blocking(network, replace(options, lambda_selection=("index", p)),
                             measured_nodes=plan.vcut, precomputed=(A, B, sd))
    # design_blocking held the cut entries of v_hat to zero_pattern; the
    # far partition's must follow
    certificate = _certify(network, plan, design, screen(design.lambda_p))
    if certificate.far_zero_pattern > Tolerances.zero_pattern:
        raise NoEligibleEigenvalueError(
            f"transfer failed: replacement eigenvector magnitude "
            f"{certificate.far_zero_pattern:.3e} on V2 exceeds "
            f"{Tolerances.zero_pattern:g}")
    return CutsetDesign(design=design, certificate=certificate)


def _certify(network, plan, design, cond) -> TransferCertificate:
    """Zero-pattern evidence for the transfer on the far partition."""
    v = design.v_hat
    far = v[network.state_index(plan.v2)].ravel()
    base = v[network.state_index().ravel()]
    return TransferCertificate(
        plan=plan, condition=cond,
        far_zero_pattern=float(max((abs(x) for x in far), default=0.0)),
        base_output_infnorm=float(np.abs(base).max()) if base.size else 0.0)
