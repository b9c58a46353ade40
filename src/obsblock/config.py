"""Shared numerical tolerances and run configuration.

A single Tolerances instance flows through design and verification so a
design cannot pass synthesis and fail its own audit on a tolerance
mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the pipeline.

    Relative tolerances scale with the norm of the matrix they gate
    unless noted otherwise.

    Attributes
    ----------
    rank_decision : float
        Relative singular-value cutoff for PBH verdicts.
    snap_imag : float
        Imaginary parts below snap_imag * ||A|| are snapped to real.
    cluster : float
        Relative eigenvalue clustering width for defectiveness checks.
    spectrum_match : float
        Allowed eigenvalue multiset deviation, open against closed loop
        (designer) or on the quotient by null(F) (verifier).
    realness : float
        Relative imaginary magnitude under which an eigenvector of a
        snapped real eigenvalue counts as real (spectrum._pair_snapped).
    lg_margin : float
        The L_g condition demands margin > lg_margin * (1 + ||L_g||).
    zero_pattern : float
        Magnitude under which blocked eigenvector entries, and C times a
        dark mode, must fall.
    preserved_residual : float
        Relative residual allowed for preserved eigenvectors (designer)
        and for the A-invariance of null(F) (verifier).
    candidate_residual : float
        Relative residual allowed for the replacement eigenvector; its
        square bounds the blocked start's output energy relative to a
        random start's (verify.verify_design).
    cond_limit : float
        Condition number above which the modal matrix is rejected.
    lambda_match : float
        Relative distance under which eigenvalues match or count as one.
    """

    rank_decision: float = 1e-12
    snap_imag: float = 1e-8
    cluster: float = 1e-7
    spectrum_match: float = 1e-6
    realness: float = 1e-9
    lg_margin: float = 1e-6
    zero_pattern: float = 1e-8
    preserved_residual: float = 1e-6
    candidate_residual: float = 1e-7
    cond_limit: float = 1e12
    lambda_match: float = 1e-6

    def with_overrides(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = Tolerances()

VARIANT_POSITION = "measure-position"
VARIANT_DERIVATIVE = "measure-derivative"


@dataclass(frozen=True)
class DesignOptions:
    """Knobs for a single blocking design run.

    lambda_selection accepts "default", ("index", k) or ("value", complex).
    The actuation count needs no option: a count below the paper's
    sufficient q = m + 2 (m + 1 on an all-real spectrum) is recorded as
    a warning, and the design fails only when the constraint block has
    no null direction.
    """

    variant: str = VARIANT_POSITION
    lambda_selection: object = "default"
    seed: int = 0
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if self.variant not in (VARIANT_POSITION, VARIANT_DERIVATIVE):
            raise ValueError(f"unknown variant: {self.variant!r}")
