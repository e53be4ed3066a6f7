"""Exception hierarchy shared across the package.

Every failure mode the CLI distinguishes by exit code has its own class
here, so library users can catch precisely what they care about.
"""

import operator


class GstabError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(GstabError):
    """Malformed input file or value (bad JSON, bad edge list, ...)."""


class NotPerfectError(GstabError):
    """An operation that requires a perfect graph received one that is not."""


class SizeGuardError(GstabError):
    """Input exceeds a configured size limit for an exponential-time step."""


class ParameterError(GstabError):
    """Family parameters outside their admissible range."""


def _ints(values, error: type[GstabError], what: str) -> tuple[int, ...]:
    """`values` as ints if they are integer-like (`operator.index`), else
    `error` naming `what`: no float or string is truncated or compared."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise error(f"{what} must be integers, got {values!r}") from None
