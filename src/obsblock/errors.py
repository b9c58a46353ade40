"""Exception hierarchy with CLI exit codes.

Exit code contract: 2 for violated preconditions, 3 for numerical
failures discovered mid-computation, 4 for I/O and parse problems.
"""

from __future__ import annotations

EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ObsBlockError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidInputError(ObsBlockError):
    """Malformed or inconsistent user input (overlapping node sets, bad ids)."""

    exit_code = EXIT_PRECONDITION


class OrderMismatchError(InvalidInputError):
    """Derivative order outside 0..N-1 or inconsistent weight counts."""


class ModelAssemblyError(InvalidInputError):
    """State-space blocks do not fit together."""


class InsufficientActuationError(ObsBlockError):
    """No actuation node, or no null direction in the constraint block."""

    exit_code = EXIT_PRECONDITION


class ControllabilityError(ObsBlockError):
    """(A, B) is uncontrollable where the design needs it: at lambda_p or
    a repaired eigenvalue, the null space of [A - lambda I, B] is not
    q-dimensional. check_controllability raises it at any eigenvalue."""

    exit_code = EXIT_PRECONDITION


class DegenerateCandidateError(ObsBlockError):
    """Every admissible h yields a (numerically) zero replacement eigenvector."""

    exit_code = EXIT_NUMERICAL


class RepairFailureError(ObsBlockError):
    """Step-8 repair could not restore linear independence."""

    exit_code = EXIT_NUMERICAL


class IllConditionedDesignError(ObsBlockError):
    """Closed-loop modal matrix is numerically singular."""

    exit_code = EXIT_NUMERICAL


class LgConditionError(ObsBlockError):
    """Selected eigenvalue fails the grounded-block spectral condition."""

    exit_code = EXIT_PRECONDITION


class NoEligibleEigenvalueError(ObsBlockError):
    """No spectrum candidate passes the cutset eligibility screen."""

    exit_code = EXIT_PRECONDITION


class NotAnEigenvalueError(ObsBlockError):
    """Requested eigenvalue does not match the open-loop spectrum."""

    exit_code = EXIT_PRECONDITION


class GenerationError(ObsBlockError):
    """Random-instance generation exhausted its retry budget."""

    exit_code = EXIT_NUMERICAL


class NetworkFileError(ObsBlockError):
    """Network or design file could not be read or parsed."""

    exit_code = EXIT_IO
