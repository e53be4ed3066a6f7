"""Exception hierarchy shared across the package.

Every failure mode the CLI distinguishes by exit code has its own class
here, so library users can catch precisely what they care about.  The
private helpers turn malformed outside input (numbers, files, JSON) into
these errors.
"""

import json
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


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at `path`; bytes that are not UTF-8 are
    a FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _decode_json(text: str):
    """`text` decoded as JSON.  Malformed JSON, nesting deeper than the
    decoder's recursion limit and an integer longer than Python's limit on
    int-string conversion are each a FormatError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
