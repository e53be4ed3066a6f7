"""Size guards for the exponential-time steps.

The defaults are 12 vertices for the perfection test and cone dimension
9 for the face oracle.  `verify` checks every graph's face oracle, so it
reaches one vertex below the cone guard: 8 by default.  Enumeration up to
isomorphism (`graphs_up_to_iso`) builds and keeps every layer below the
one asked for, so it reaches the cone guard itself: 9 by default.  Both
refuse more before any layer is built.  The environment
variable GSTAB_SIZE_LIMIT (an integer n) raises both guards at once and
never lowers one: the perfection guard becomes the larger of its default
and n, the cone guard the larger of its default and n + 1.  So
`GSTAB_SIZE_LIMIT=9`, which lets `verify` reach 9 vertices (and the face
oracle cone dimension 10), leaves the perfection test at 12.  A value
that is not a nonnegative integer is a ParameterError.
`classify(vertex_limit=...)` (the CLI's `--max-n`) and
`is_perfect(limit=...)` take an explicit vertex limit, which replaces the
perfection guard, up or down; it must be an integer (a ParameterError
otherwise).
"""

import os

from .errors import ParameterError

# The perfection test (Lovasz's criterion) runs two clique searches on
# each induced subgraph of at least 5 vertices inside one connected
# component: nearly all 2^n of them for a connected graph.
DEFAULT_PERFECT_LIMIT = 12

# The face oracle walks faces of the (n+1)-dimensional cone.  At the
# default, `verify` checks the 9992 perfect graphs on at most 8 vertices
# in about 10 s, in flat memory (about 18 MB peak RSS), since it solves
# only each cone's apex and rays and drops them with the graph.  There are
# 274668 graphs on 9 vertices, 22 times as many as on 8, so 9 needs the
# environment override; the whole run to 9 takes about 6 minutes.
DEFAULT_CONE_DIM_LIMIT = 9

_ENV_VAR = "GSTAB_SIZE_LIMIT"


def _env_override() -> int | None:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise ParameterError(
            f"{_ENV_VAR} must be a nonnegative integer, got {raw!r}")
    return value


def _raised(default: int, offset: int = 0) -> int:
    """The guard `default`, raised to the override plus `offset` if set."""
    override = _env_override()
    return default if override is None else max(default, override + offset)


def perfect_limit() -> int:
    return _raised(DEFAULT_PERFECT_LIMIT)


def cone_dim_limit() -> int:
    return _raised(DEFAULT_CONE_DIM_LIMIT, 1)
