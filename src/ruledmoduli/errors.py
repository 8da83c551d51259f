"""Exception types and the checked 64-bit integer guard shared by all modules."""

from __future__ import annotations

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class RuledModuliError(Exception):
    """Base class for all domain errors raised by this package."""


class ConfigMismatchError(RuledModuliError):
    """Arithmetic was attempted between classes living on different surfaces."""


class IntegerOverflowError(RuledModuliError, OverflowError):
    """A computed value left the signed 64-bit range.

    Python integers never wrap, so this is a declared range contract rather
    than a hardware limit: desk-scale inputs stay far below 2**63, and a loud
    error beats quietly producing numbers the JSON interfaces do not promise
    to round-trip.
    """


class ParityError(RuledModuliError):
    """An integer that must be even (or congruent mod 2) is not.

    Reaching this from a public entry point signals corrupted lattice data;
    the pairing D.(D - K) is even on any smooth surface.
    """


class UnsupportedSurfaceError(RuledModuliError):
    """The requested computation is exact only on a restricted surface class."""


class InvalidPolarizationError(RuledModuliError):
    """A polarization failed one of the recorded positivity checks."""


class SearchBoundsError(RuledModuliError):
    """Wall enumeration exceeded its candidate budget."""

    def __init__(self, budget: int, detail: str = ""):
        self.budget = budget
        self.detail = detail
        message = f"wall enumeration exceeded the candidate budget of {budget}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class NotApplicableError(RuledModuliError):
    """The hypotheses of a certificate routine exclude the given input."""


class AssumptionViolatedError(RuledModuliError):
    """A vanishing assumption behind a dimension formula is certifiably false."""


class BoxTooLargeError(RuledModuliError):
    """A destabilizer search box exceeds the configured enumeration cap."""


class NegativeLengthWarning(UserWarning):
    """The derived subscheme length is negative.

    Numerical data with negative length cannot come from an actual rank-two
    bundle; callers that probe infeasible classes on purpose may filter this.
    """


def checked_int(value: int, context: str = "value") -> int:
    """The package's one integer gate: return ``value`` unchanged, or raise
    TypeError unless it is an int (not a bool), or IntegerOverflowError
    unless it lies in the 64-bit range."""
    if type(value) is not int:
        raise TypeError(f"{context} must be an int, got {value!r}")
    if value < INT64_MIN or value > INT64_MAX:
        raise IntegerOverflowError(
            f"{context} {value} exceeds the signed 64-bit range"
        )
    return value


def checked_ints(**values: int) -> None:
    """Pass each keyword argument through ``checked_int``, named by its keyword."""
    for name, value in values.items():
        checked_int(value, name)
