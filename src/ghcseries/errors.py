"""Error hierarchy shared by all modules.

Three branches map onto the CLI exit codes: invalid input (2), declared
unsupported regime (3), internal consistency violation (4).  A message
that repeats input text quotes it through _excerpt.
"""

# Longest input text an error message repeats in full.
_EXCERPT = 64


def _excerpt(text: str, quote=repr) -> str:
    """quote(text); past _EXCERPT characters, quote of its start and its length."""
    if len(text) <= _EXCERPT:
        return quote(text)
    return f"{quote(text[:_EXCERPT])}... ({len(text)} characters)"


class GhcseriesError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InvalidInput(GhcseriesError):
    """Malformed or out-of-contract input."""

    exit_code = 2


class DimensionMismatch(InvalidInput):
    """Operands live in ambient spaces of different dimension."""


class GroupMismatch(InvalidInput):
    """Weyl elements do not belong to the same group."""


class NotARoot(InvalidInput):
    """A weight expected to be a root is not one."""


class NonIntegralGrading(InvalidInput):
    """Some root evaluates non-integrally on the defining vector."""


class NotIntegrable(InvalidInput):
    """Weight-string peeling produced a negative summand count."""


class NoSl2Triple(InvalidInput):
    """The weight-2 eigenspace of the grading is zero."""


class IndexOutOfRange(InvalidInput):
    """Cohomological degree outside the valid range."""


class VirtualNotAllowed(InvalidInput):
    """A genuine (non-virtual) character is required."""


class WindowTooNarrow(InvalidInput):
    """A truncated character was queried outside its trusted window."""


class OutOfRegime(InvalidInput):
    """Parameters violate the regime a formula is proved in."""


class UnsupportedRegime(GhcseriesError):
    """Declared out of scope; named explicitly rather than guessed at."""

    exit_code = 3


class UnsupportedAlgebra(UnsupportedRegime):
    """Root-system family or rank outside the supported set."""


class UnsupportedLevi(UnsupportedRegime):
    """Levi part larger than a Cartan plus at most one sl(2)."""


class SingularBlockUnsupported(UnsupportedRegime):
    """Multiplicity matrices require a regular central character."""


class UnsupportedRank(UnsupportedRegime):
    """Multiplicity matrices need a pair of total rank at most 2."""


class InternalInconsistency(GhcseriesError):
    """Cross-checked quantities disagree; indicates a bug, not bad input."""

    exit_code = 4
