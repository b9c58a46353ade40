"""Shared numerical tolerances and run configuration.

The spectrum budget is the only tolerance a caller sets: one Tolerances
instance carries it through design and verification, so a design cannot
pass synthesis and fail its own audit on a budget mismatch. The other
budgets are constants of the Tolerances class, written down once and
read as Tolerances.<name> (or through any instance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

from .errors import InvalidInputError


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the pipeline.

    spectrum_match is the one field; the rest are class constants, never
    per-run settings. Relative tolerances scale with the norm of the
    matrix they gate unless noted otherwise. Eigenvalue clusters take no
    width: they are overlapping perturbation disks (spectrum.SpectralData).

    Attributes
    ----------
    spectrum_match : float
        Allowed eigenvalue multiset deviation, open against closed loop
        (designer) or on the quotient by null(F) (verifier). Finite and
        positive: a NaN budget would pass every comparison against it.
    rank_decision : float
        Relative singular-value cutoff for PBH verdicts.
    snap_imag : float
        Imaginary parts below snap_imag * ||A|| are snapped to real.
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

    spectrum_match: float = 1e-6

    rank_decision: ClassVar[float] = 1e-12
    snap_imag: ClassVar[float] = 1e-8
    lg_margin: ClassVar[float] = 1e-6
    zero_pattern: ClassVar[float] = 1e-8
    preserved_residual: ClassVar[float] = 1e-6
    candidate_residual: ClassVar[float] = 1e-7
    cond_limit: ClassVar[float] = 1e12
    lambda_match: ClassVar[float] = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.spectrum_match) and self.spectrum_match > 0):
            raise InvalidInputError(f"spectrum tolerance {self.spectrum_match} "
                                    "is not a finite positive number")


DEFAULT_TOLERANCES = Tolerances()

@dataclass(frozen=True)
class DesignOptions:
    """Knobs for a single blocking design run.

    lambda_selection accepts "default", ("index", k) or ("value", complex).
    The actuation count needs no option: a count below the paper's
    sufficient q = m + 2 (m + 1 on an all-real spectrum) is recorded as
    a warning, and the design fails only when the constraint block has
    no null direction.
    """

    lambda_selection: object = "default"
    seed: int = 0
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidInputError(f"seed {self.seed} is negative")
