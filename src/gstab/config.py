"""Size guards for the exponential-time steps.

Each step refuses an input above its guard with a SizeGuardError raised
here (`check_size`), before any work.  The defaults are 12 vertices for
the perfection test, which `poset analyze` and `family hmp` also apply to
the poset's elements (one vertex each) before the poset is built, and
cone dimension 9 for the face oracle.  Enumeration up to isomorphism
(`graphs_up_to_iso`) builds and keeps every layer below the one asked
for, so it reaches the cone guard itself: 9 vertices.  `verify` checks
every graph's face oracle, so it reaches one vertex below the cone guard:
8 vertices.

The one override is the environment variable GSTAB_SIZE_LIMIT (an integer
n).  It raises the guards and never lowers one: the perfection guard
becomes the larger of its default and n, the cone guard the larger of its
default and n + 1.  So `GSTAB_SIZE_LIMIT=9`, which lets `verify` reach 9
vertices (and the face oracle cone dimension 10), leaves the perfection
test at 12.  A value that is not a nonnegative integer is a
ParameterError.
"""

import os

from .errors import ParameterError, SizeGuardError

# The perfection test (Lovasz's criterion) runs two clique searches on
# each induced subgraph of 5 or of at least 7 vertices inside one
# connected component: nearly all 2^n of them for a connected graph.
DEFAULT_PERFECT_LIMIT = 12

# The face oracle walks faces of the (n+1)-dimensional cone.  At the
# default, `verify` checks the 9992 perfect graphs on at most 8 vertices
# in about 10 s, in flat memory (about 18 MB peak RSS), since it solves
# only each cone's apex and rays and drops them with the graph.  There are
# 274668 graphs on 9 vertices, 22 times as many as on 8, so 9 needs the
# environment override; the whole run to 9 takes about 6 minutes.
DEFAULT_CONE_DIM_LIMIT = 9

_ENV_VAR = "GSTAB_SIZE_LIMIT"

# step: (default limit, the override plus this raises it, how the limit reads)
_GUARDS = {
    "perfection test": (DEFAULT_PERFECT_LIMIT, 0, "{} vertices"),
    "family hmp": (DEFAULT_PERFECT_LIMIT, 0, "{} vertices"),
    "enumeration": (DEFAULT_CONE_DIM_LIMIT, 1, "{} vertices"),
    "face enumeration": (DEFAULT_CONE_DIM_LIMIT, 1, "cone dimension {}"),
    "verify": (DEFAULT_CONE_DIM_LIMIT - 1, 0, "{} vertices"),
}


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


def size_limit(step: str) -> int:
    """The largest size `step` takes: its default guard, raised to the
    override (plus one for the cone guard) if that is larger."""
    default, offset, _ = _GUARDS[step]
    override = _env_override()
    return default if override is None else max(default, override + offset)


def check_size(step: str, size: int) -> None:
    """Refuse `size` above the guard of `step` (a key of `_GUARDS`): the
    vertex count, or for the face enumeration the cone dimension."""
    limit = size_limit(step)
    if size > limit:
        reads = _GUARDS[step][2].format(limit)
        raise SizeGuardError(f"{step} limited to {reads}, got {size}")
