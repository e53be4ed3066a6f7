"""Lattice-point model of the stable set ring of a perfect graph.

For a perfect graph the ring is spanned by the monomials x^a t^q whose
exponent vectors satisfy a_i >= 0 and, for every maximal clique C,
sum_{i in C} a_i <= q.  Shifting the thresholds to 1 gives the canonical
module, shifting to -1 gives the anticanonical fractional ideal, and the
trace of the canonical module is the set of componentwise sums of a
canonical and an anticanonical point.  Everything in this module is an
integer computation on those inequality systems.

Membership tests (`in_ring`, `in_canonical`, `in_anticanonical`,
`in_trace`) work from the definitions alone: they are the oracle against
which the fast combinatorial classification is checked.  `in_trace` is an
exhaustive pruned search for a canonical summand: it covers every degree
split and every summand the definition allows, and its bounds only skip
values that no completion of a partial summand can make valid, so it
never uses the purity criterion, the generators or the faces.  The
generator and face machinery is what makes m-primariness and trace height
computable at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .config import cone_dim_limit
from .errors import InconclusiveError, NotPerfectError, ParameterError, SizeGuardError
from .graphs import (
    GRAPH_CACHE_SIZE,
    Graph,
    connected_components,
    graphs_up_to_iso,
    is_perfect,
    is_pure,
    maximal_cliques,
)


class _Unit:
    """Sentinel for 'the trace is the whole ring' (height question is moot).

    Pickling and copying refer back to the module constant `UNIT`, so
    `height is UNIT` survives both."""

    def __repr__(self):
        return "Unit"

    def __reduce__(self):
        return "UNIT"


UNIT = _Unit()


@dataclass(frozen=True)
class Monomial:
    """One lattice point: exponents of x_1..x_n plus the t-degree."""

    exponents: tuple[int, ...]
    degree: int

    def __add__(self, other: "Monomial") -> "Monomial":
        return Monomial(
            tuple(a + b for a, b in zip(self.exponents, other.exponents, strict=True)),
            self.degree + other.degree,
        )

    def __sub__(self, other: "Monomial") -> "Monomial":
        return Monomial(
            tuple(a - b for a, b in zip(self.exponents, other.exponents, strict=True)),
            self.degree - other.degree,
        )


@dataclass(frozen=True)
class FacetSystem:
    """Nonnegativity plus maximal-clique inequalities of a perfect graph.

    A threshold theta turns the system into the membership test for the
    ring (theta=0), the canonical module (theta=1), or the anticanonical
    ideal (theta=-1): exponents at least theta, clique sums at most
    degree - theta.
    """

    n: int
    cliques: tuple[tuple[int, ...], ...]
    delta: int

    @staticmethod
    def from_graph(g: Graph, check: bool = True) -> "FacetSystem":
        if g.n == 0:
            raise ParameterError("need at least one vertex")
        if check and not is_perfect(g):
            raise NotPerfectError("graph is not perfect")
        cx = maximal_cliques(g)
        return FacetSystem(g.n, cx.maximal_cliques, cx.dim + 1)


@dataclass(frozen=True)
class OracleCheck:
    """Brute-force side of a classification run."""

    trace_power: bool
    m_primary: bool
    height: object
    agreement: bool


@dataclass(frozen=True)
class TraceReport:
    classification: str
    N: int | None
    nearly_gorenstein: bool
    gorenstein: bool
    dim: int
    a_invariant: int
    component_dims: tuple[int, ...]
    component_pure: tuple[bool, ...]
    oracle: OracleCheck | None = None

    def label(self) -> str:
        if self.classification == "GPS":
            return f"GPS({self.N})"
        return self.classification


# ---------------------------------------------------------------------------
# membership tests

def _check_length(fs: FacetSystem, m: Monomial):
    if len(m.exponents) != fs.n:
        raise ParameterError(
            f"exponent vector has length {len(m.exponents)}, expected {fs.n}")


def _clique_sums(fs: FacetSystem, exps) -> list[int]:
    return [sum(exps[i - 1] for i in c) for c in fs.cliques]


def _in_module(fs: FacetSystem, exps, degree: int, theta: int) -> bool:
    if any(e < theta for e in exps):
        return False
    bound = degree - theta
    return all(s <= bound for s in _clique_sums(fs, exps))


def in_ring(fs: FacetSystem, m: Monomial) -> bool:
    """Exponents nonnegative, clique sums at most the degree."""
    _check_length(fs, m)
    return _in_module(fs, m.exponents, m.degree, 0)


def in_canonical(fs: FacetSystem, m: Monomial) -> bool:
    """Exponents at least 1, clique sums at most degree - 1."""
    _check_length(fs, m)
    return _in_module(fs, m.exponents, m.degree, 1)


def in_anticanonical(fs: FacetSystem, m: Monomial) -> bool:
    """Exponents at least -1, clique sums at most degree + 1.

    This is the facet-threshold route.  The test suite checks it against
    the defining property: m + w in the ring for every canonical generator w.
    """
    _check_length(fs, m)
    return _in_module(fs, m.exponents, m.degree, -1)


def in_trace(fs: FacetSystem, m: Monomial) -> bool:
    """Is m a sum of a canonical-module point and an anticanonical point?

    Decided by an exhaustive pruned search over the canonical summand
    (`_in_trace`): every degree split and every summand w in the box the
    definition allows is covered.  The search bounds each clique's
    unassigned part by its least and largest possible sum, so it only
    skips values that no completion of the partial w can make valid; at a
    clique's last vertex the test is the clique's exact inequality, so the
    bounds never decide an answer.
    """
    _check_length(fs, m)
    a, q = m.exponents, m.degree
    if any(x < 0 for x in a):
        return False
    if not _in_module(fs, a, q, 0):
        return False
    return _in_trace(fs, a, q)


def _in_trace(fs: FacetSystem, a, q: int) -> bool:
    """Is the ring point x^a t^q a sum w + (a - w) of a canonical point w
    in some degree d and an anticanonical point in degree q - d?

    Spelled out, that asks for d and w with 1 <= w_i <= a_i + 1 and, for
    every maximal clique C with clique sum cs_C,
    cs_C(a) - q + d - 1 <= cs_C(w) <= d - 1.  Since w_i >= 1 forces
    cs_C(w) >= |C| and w_i <= a_i + 1 forces cs_C(w) <= cs_C(a) + |C|, no d
    outside omega + 1 .. q + 1 + min |C| (omega the largest clique size)
    can satisfy every clique, so the degrees in that range are all tried.

    For each d the vertices are assigned in order, carrying each clique's
    partial sum.  A value of vertex v is skipped when some clique C through
    v cannot land in its interval even if each of C's later vertices takes
    its least value 1 or its largest value a_i + 1.  Those bounds only
    prune: at a clique's last vertex there are no later vertices and the
    test is the clique's own interval, so every full assignment reached is
    a witness and no witness is skipped.
    """
    t = _tables(fs)
    cliques = t.cliques
    n = fs.n
    # per vertex v, for each clique C through it: (clique index, low,
    # count), where count is the number of C's vertices after v and low is
    # cs_C(a) minus the largest sum those can take, which is a's sum over
    # C's vertices up to v minus count
    rows = [[] for _ in range(n)]
    for ci, c in enumerate(cliques):
        low, count = 0, len(c)
        for v in c:
            low += a[v]
            count -= 1
            rows[v].append((ci, low - count, count))
    part = [0] * len(cliques)

    def place(v: int, hi: int, slack: int) -> bool:
        # x >= cs_C(a) - slack - part_C - (largest sum of C's later vertices)
        # x <= hi - part_C - (number of C's later vertices)
        x_lo, x_hi = 1, a[v] + 1
        for ci, low, count in rows[v]:
            p = part[ci]
            if low - p - slack > x_lo:
                x_lo = low - p - slack
            if hi - p - count < x_hi:
                x_hi = hi - p - count
        if x_lo > x_hi:
            return False
        if v + 1 == n:
            return True
        row = rows[v]
        for x in range(x_lo, x_hi + 1):
            for ci, _, _ in row:
                part[ci] += x
            found = place(v + 1, hi, slack)
            for ci, _, _ in row:
                part[ci] -= x
            if found:
                return True
        return False

    # hi = d - 1 is the top of every clique's interval; slack = q - d + 1
    return any(place(0, d - 1, q - d + 1) for d in range(t.top + 1, q + 2 + t.bottom))


# ---------------------------------------------------------------------------
# degree slices

def _walk(fs: FacetSystem, theta: int, degree: int, index, masks, full: int, bound):
    """Walk the theta-module slice at the given degree in ascending
    lexicographic order and split its points into (drop, stuck) lists.

    `index` is the (by_vertex, closing) pair of `_tables`.  The walk
    assigns vertices in order and carries each point's face as a running
    AND: `masks` holds a bitset per `_slack` entry (`_zero_masks`),
    the face starts at `full`, a vertex's mask is ANDed in when its value
    is theta (slack 0), and a clique's when its last vertex is assigned and
    its sum reaches degree - theta.  A point is stuck iff its face is 0.
    Below vertex v every point's face contains the running face ANDed with
    `bound[v]`, so a node where that is nonzero is skipped: its points all
    drop.  With masks, `full` and bound all zero every point is stuck,
    which is the plain slice.
    """
    n = fs.n
    caps = [degree - theta * (len(c) + 1) for c in fs.cliques]
    if any(cap < 0 for cap in caps):
        return [], []
    by_vertex, closing = index
    drop: list[tuple[int, ...]] = []
    stuck: list[tuple[int, ...]] = []
    shifted = [0] * n

    def assign(v: int, face: int):
        cliques, ends, mask, below = by_vertex[v], closing[v], masks[v], bound[v + 1]
        room = min(caps[ci] for ci in cliques)
        last = v + 1 == n
        if last:
            prefix = tuple(x + theta for x in shifted[:v])
        for b in range(room + 1):
            f = face if b else face & mask
            # every cap here is at least room, so only b = room can use up
            # the cap of a clique ending here
            if b == room:
                for ci in ends:
                    if caps[ci] == room:
                        f &= masks[n + ci]
            if f & below:
                continue
            if last:
                (drop if f else stuck).append((*prefix, b + theta))
                continue
            shifted[v] = b
            for ci in cliques:
                caps[ci] -= b
            assign(v + 1, f)
            for ci in cliques:
                caps[ci] += b

    assign(0, full)
    return drop, stuck


def _slice(fs: FacetSystem, theta: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors in the theta-module at the given degree,
    in ascending lexicographic order."""
    zeros = [0] * (fs.n + len(fs.cliques))
    return tuple(_walk(fs, theta, degree, _clique_index(fs)[1], zeros, 0, zeros)[1])


def degree_monomials(fs: FacetSystem, q: int) -> list[Monomial]:
    """All ring monomials of degree exactly q, lexicographically ordered."""
    if q < 0:
        return []
    return [Monomial(e, q) for e in _slice(fs, 0, q)]


def hilbert_function(fs: FacetSystem, q: int) -> int:
    if q < 0:
        return 0
    return len(_slice(fs, 0, q))


def a_invariant(g: Graph) -> int:
    """Minus the clique-complex dimension minus two.

    Equals minus the smallest degree of a canonical-module monomial; the
    tests verify that by enumeration.
    """
    if not is_perfect(g):
        raise NotPerfectError("a-invariant formula requires a perfect graph")
    return -maximal_cliques(g).dim - 2


def _slack(fs: FacetSystem, exps, degree: int) -> tuple[int, ...]:
    """Slack of x^a t^q in each ring inequality: a_1..a_n, then
    q - sum_{i in C} a_i for each maximal clique C, in the order of
    `fs.cliques`.  The point is in the ring iff every entry is >= 0."""
    return (*exps, *(degree - s for s in _clique_sums(fs, exps)))


def _zero_masks(fs: FacetSystem, points) -> list[int]:
    """For each entry of `_slack`, the bitset of the degree-one points
    (bit k for `points[k]`) with slack 0 there.

    Entry j is a facet of the cone: the degree-one points on it are the
    stable sets avoiding vertex j + 1 (j < n) or meeting clique j - n
    (j >= n).  A face is the intersection of the facets containing it and
    is spanned by its degree-one points, so ANDs of these bitsets name
    every face.
    """
    masks = [0] * (fs.n + len(fs.cliques))
    for k, p in enumerate(points):
        bit = 1 << k
        for j, x in enumerate(_slack(fs, p, 1)):
            if not x:
                masks[j] |= bit
    return masks


def _face_of(masks, full: int, pattern: int) -> int:
    """The face cut out by a zero-slack pattern (bit j set where entry j of
    `_slack` is 0), as the bitset of its degree-one points; `full` has a
    bit for every point.  The apex, the face without points, is 0."""
    face = full
    while pattern:
        low = pattern & -pattern
        face &= masks[low.bit_length() - 1]
        pattern ^= low
    return face


# ---------------------------------------------------------------------------
# module generators, computed degree by degree per component
#
# A point p of the theta-module drops to the previous degree iff p - w is
# in the module for some stable set w.  That holds iff w avoids every vertex
# where p has zero slack (p_i = theta) and meets every clique where p has
# zero slack (clique sum degree - theta): a stable set meets a clique at
# most once, and every other entry has slack at least 1.  The stable sets
# are the degree-one ring points, so those w are the points of the face cut
# out by p's zero-slack pattern, and p is a new generator (stuck) iff that
# face is the apex.  `_walk` carries the face as it assigns the vertices.
#
# A connected graph needs only the stuck points, so its walk prunes: a
# subtree all of whose points drop is skipped.  `bound[v]` is the AND of
# the masks of vertices >= v and of the cliques whose last vertex is >= v.
# Those are the only entries a point below a node at vertex v can still
# AND into the running face, so every such point's face contains
# face & bound[v], and when that is nonzero none of them is stuck.
#
# A degree slice of the union graph is the cartesian product of the
# component slices in the same degree, and a point drops iff each component
# point does (subtract a stable set per component).  New generators
# therefore live in the product positions where at least one component
# point cannot drop, which keeps the materialized sets small; those
# products need every component's droppable points, so a disconnected
# graph walks whole slices.

class _Tables(NamedTuple):
    """Everything the searches of this module read off one facet system."""

    cliques: tuple   # the cliques as ascending 0-based vertex tuples
    index: tuple     # per vertex: the cliques through it, the cliques it closes
    top: int         # the largest clique size
    bottom: int      # the smallest clique size
    points: tuple    # the degree-one points (stable sets), `_slice(fs, 0, 1)`
    masks: tuple     # their `_zero_masks`; bit k of a face is points[k]
    full: int        # the bitset of every point
    bound: tuple     # the pruning bound of `_walk`, described above


def _clique_index(fs: FacetSystem) -> tuple[tuple, tuple]:
    """The cliques of `fs` as ascending 0-based vertex tuples, and the
    clique index `_walk` reads: per vertex, the cliques through it and the
    cliques whose last vertex it is.  Uncached: it costs one pass over the
    cliques, and `_slice` needs nothing else of `_tables`."""
    cliques = tuple(tuple(sorted(i - 1 for i in c)) for c in fs.cliques)
    by_vertex = [[] for _ in range(fs.n)]
    closing = [[] for _ in range(fs.n)]
    for ci, c in enumerate(cliques):
        for v in c:
            by_vertex[v].append(ci)
        closing[c[-1]].append(ci)
    return cliques, (tuple(map(tuple, by_vertex)), tuple(map(tuple, closing)))


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _tables(fs: FacetSystem) -> _Tables:
    """The `_Tables` of `fs`, built once per facet system.  The clique
    index is built first, since `_walk` needs it to list the points."""
    n = fs.n
    cliques, index = _clique_index(fs)
    closing = index[1]
    zeros = [0] * (n + len(cliques))
    points = tuple(_walk(fs, 0, 1, index, zeros, 0, zeros)[1])
    masks = tuple(_zero_masks(fs, points))
    full = (1 << len(points)) - 1
    bound = [full] * (n + 1)
    for v in reversed(range(n)):
        bound[v] = bound[v + 1] & masks[v]
        for ci in closing[v]:
            bound[v] &= masks[n + ci]
    sizes = [len(c) for c in cliques]
    return _Tables(cliques, index, max(sizes), min(sizes), points, masks, full,
                   tuple(bound))


def _module_start_degree(fs_list, theta: int) -> int:
    if theta == 1:
        return max(fs.delta for fs in fs_list) + 1
    if theta == -1:
        return -min(min(len(c) for c in fs.cliques) for fs in fs_list) - 1
    raise ParameterError("generators are only computed for theta = 1 or -1")


def _module_generators(g: Graph, theta: int, degree_bound: int | None) -> list[Monomial]:
    if degree_bound is not None and degree_bound < 0:
        raise ParameterError(f"degree bound must be nonnegative, got {degree_bound}")
    comps = connected_components(g)
    fs_list = [FacetSystem.from_graph(c.graph, check=False) for c in comps]
    tables = [_tables(fs) for fs in fs_list]
    # the product pools below need every component's droppable points, so
    # only a connected graph prunes
    prune = len(comps) == 1
    window = degree_bound if degree_bound is not None \
        else 2 * (maximal_cliques(g).dim + 3)
    start = _module_start_degree(fs_list, theta)

    def embed(parts) -> tuple[int, ...]:
        full = [0] * g.n
        for comp, exps in zip(comps, parts):
            for slot, orig in enumerate(comp.vertices):
                full[orig - 1] = exps[slot]
        return tuple(full)

    gens: list[Monomial] = []
    quiet = 0
    stabilized = False
    for d in range(start, start + window + 1):
        splits = [_walk(fs, theta, d, t.index, t.masks, t.full,
                        t.bound if prune else (0,) * len(t.bound))
                  for fs, t in zip(fs_list, tables)]
        new = 0
        for j in range(len(comps)):
            # an empty component slice empties every product
            pools = [drop if k < j else (stuck if k == j else drop + stuck)
                     for k, (drop, stuck) in enumerate(splits)]
            for parts in product(*pools):
                gens.append(Monomial(embed(parts), d))
                new += 1
        quiet = quiet + 1 if new == 0 else 0
        if quiet >= 2 and d > start:
            stabilized = True
            break
    if not stabilized:
        raise InconclusiveError(
            f"generator search did not stabilize within degrees "
            f"{start}..{start + window}; raise the degree bound")
    gens.sort(key=lambda m: (m.degree, m.exponents))
    return gens


def omega_generators(g: Graph, degree_bound: int | None = None) -> tuple[Monomial, ...]:
    """Minimal generators of the canonical module, lowest degree delta+1."""
    return tuple(_module_generators(g, 1, degree_bound))


def anticanonical_generators(g: Graph, degree_bound: int | None = None) -> tuple[Monomial, ...]:
    """Minimal generators of the anticanonical fractional ideal."""
    return tuple(_module_generators(g, -1, degree_bound))


# ---------------------------------------------------------------------------
# trace as a power of the maximal ideal (brute-force route)

def trace_equals_power(g: Graph, power: int) -> bool:
    """Does the trace equal the power-th power of the maximal ideal?

    Checks that no ring monomial of smaller degree is in the trace and
    that every monomial of degree `power` is.  Degrees above `power` then
    follow because the ring is generated in degree one and the trace is
    an ideal.
    """
    if power < 0:
        raise ParameterError("power must be nonnegative")
    return _trace_equals_power(FacetSystem.from_graph(g), power)


def _trace_equals_power(fs: FacetSystem, power: int) -> bool:
    for q in range(power):
        if any(_in_trace(fs, a, q) for a in _slice(fs, 0, q)):
            return False
    return all(_in_trace(fs, a, power) for a in _slice(fs, 0, power))


# ---------------------------------------------------------------------------
# faces of the cone

def _face_lattice(fs: FacetSystem) -> dict[int, int]:
    """All faces of the cone over the stable set polytope, as a dict from
    each face to its dimension.

    Because the polytope has 0/1 vertices, each face is spanned by its
    degree-one lattice points, so a face is identified by the bitset of
    those points (bit k for `_tables(fs).points[k]`) and an intersection
    of faces by the AND of their bitsets, the facets being the
    `_zero_masks`.  An inequality is
    tight on a face iff the face's points all lie on that facet, a subset
    test of the two bitsets.

    Dimensions come from the grading of the face lattice.  The full cone
    has dimension n + 1.  Every proper intersection G = F & facet of a face
    F is a face of dimension at most dim F - 1, with equality when G is a
    facet of F, and every facet of F arises this way.  So dim G is the
    least dim F - 1 over the faces F it is cut from, and visiting faces by
    decreasing point count settles each dimension before it is passed on.
    The apex is the face with no points, of dimension 0.
    """
    limit = cone_dim_limit()
    if fs.n + 1 > limit:
        raise SizeGuardError(
            f"face enumeration limited to cone dimension {limit}, got {fs.n + 1}")
    t = _tables(fs)
    dims = {t.full: fs.n + 1}
    by_size = [[] for _ in t.points] + [[t.full]]
    for bucket in reversed(by_size):
        for face in bucket:
            below = dims[face] - 1
            for f in t.masks:
                sub = face & f
                if sub == face:
                    continue
                known = dims.get(sub)
                if known is None:
                    by_size[sub.bit_count()].append(sub)
                    dims[sub] = below
                elif known > below:
                    dims[sub] = below
    return dims


def _tight_patterns(fs: FacetSystem, gens, value: int) -> set[int]:
    """The distinct bitsets, one per generator, of the `_slack` entries
    equal to `value` (bit j for entry j)."""
    out = set()
    for m in gens:
        pattern = 0
        for j, x in enumerate(_slack(fs, m.exponents, m.degree)):
            if x == value:
                pattern |= 1 << j
        out.add(pattern)
    return out


def _face_oracles(g: Graph, fs: FacetSystem, degree_bound: int | None) -> object:
    """Height of the trace ideal, or UNIT, from one pass over the facet
    system `fs` of the perfect graph `g`.

    The sums w + v of a canonical generator w and an anticanonical
    generator v generate the trace, so every trace point is such a sum
    plus a ring point r.  Slack entries are >= 0 on the ring, so s + r
    has slack 0 at an entry iff s and r both do: a face meets the trace
    iff some sum w + v lies on it.  Slack is additive, canonical points
    have slack >= 1 and anticanonical points slack >= -1 in every entry,
    so w + v has slack 0 exactly where w has slack 1 and v has slack -1.
    Its zero-slack pattern is the AND of those two bitsets, and no sum is
    formed or reduced to minimal generators.

    Each distinct pattern cuts out (`_face_of`) the smallest face holding
    its sums, so a face meets the trace iff it contains one of those cuts.
    The origin is the only ring point whose cut is the apex, so a cut of 0
    puts 1 in the trace: UNIT.  Otherwise the height is n + 1 minus the
    largest dimension of a face containing no cut, which the apex always
    is.  The cuts are tested smallest first, the likeliest to fit.

    The faces are enumerated first: the size guard must fire before the
    generator search, which grows much faster with the vertex count.
    """
    dims = _face_lattice(fs)
    omega = _tight_patterns(fs, omega_generators(g, degree_bound), 1)
    anti = _tight_patterns(fs, anticanonical_generators(g, degree_bound), -1)
    t = _tables(fs)
    cuts = {_face_of(t.masks, t.full, p) for p in {w & v for w in omega for v in anti}}
    if 0 in cuts:
        return UNIT
    cuts = sorted(cuts, key=int.bit_count)
    best = 0
    for face, dim in dims.items():
        if dim > best and not any(cut & face == cut for cut in cuts):
            best = dim
    return (fs.n + 1) - best


def is_m_primary(g: Graph, degree_bound: int | None = None) -> bool:
    """Is the trace ideal primary to the maximal ideal?

    True iff the trace meets every face of the cone except the apex; a
    unit trace (Gorenstein ring) counts as m-primary.  The apex meets the
    trace only when the trace is the unit ideal, so the trace is m-primary
    iff the height is UNIT or the cone dimension n + 1.  Which faces meet
    the trace is read off the zero-slack patterns of the pairwise sums of
    canonical and anticanonical generators (`_face_oracles`): a face meets
    it iff it contains the face one of those patterns cuts out.
    """
    height = _face_oracles(g, FacetSystem.from_graph(g), degree_bound)
    return height is UNIT or height == g.n + 1


def trace_height(g: Graph, degree_bound: int | None = None):
    """Height of the trace ideal, or UNIT when the trace is the whole ring.

    The radical of a monomial ideal is an intersection of face primes, and
    the height of a face prime is the cone dimension minus the face
    dimension, so the height is n + 1 minus the largest dimension of a
    face avoiding the trace.  A face meets the trace iff some sum w + v of
    a canonical and an anticanonical generator lies on it, that is iff it
    contains the face cut out by the AND of w's slack-1 and v's slack-(-1)
    bitsets; `_face_oracles` gives the argument.
    """
    return _face_oracles(g, FacetSystem.from_graph(g), degree_bound)


# ---------------------------------------------------------------------------
# classification

def is_nearly_gorenstein(g: Graph) -> bool:
    """Every component pure with top and bottom dimensions within one."""
    if not is_perfect(g):
        raise NotPerfectError("classification requires a perfect graph")
    comps = connected_components(g)
    if not all(is_pure(c.graph) for c in comps):
        return False
    dims = [maximal_cliques(c.graph).dim for c in comps]
    return dims[0] - dims[-1] <= 1


def classify(g: Graph, oracle: bool = False, degree_bound: int | None = None,
             vertex_limit: int | None = None) -> TraceReport:
    """Classify the non-Gorenstein locus of the stable set ring.

    Fast path: component dimensions and purity.  With `oracle=True` the
    brute-force power test, the face test, and the height computation run
    as well, and the report records whether everything agrees.
    """
    if g.n == 0:
        raise ParameterError("need at least one vertex")
    if not is_perfect(g, vertex_limit):
        raise NotPerfectError("classification requires a perfect graph")
    comps = connected_components(g)
    dims = tuple(maximal_cliques(c.graph).dim for c in comps)
    pure = tuple(is_pure(c.graph) for c in comps)
    all_pure = all(pure)
    spread = dims[0] - dims[-1]
    n_exp = spread if all_pure else None
    gorenstein = all_pure and spread == 0
    nearly = all_pure and spread <= 1
    if gorenstein:
        classification = "Gorenstein"
    elif nearly:
        classification = "NearlyGorensteinOnly"
    elif all_pure:
        classification = "GPS"
    else:
        classification = "NotGPS"

    check = None
    if oracle:
        # perfection is checked above, once
        fs = FacetSystem.from_graph(g, check=False)
        power_ok = _trace_equals_power(fs, spread)
        height = _face_oracles(g, fs, degree_bound)
        # see is_m_primary
        m_prim = height is UNIT or height == g.n + 1
        if all_pure:
            height_ok = (height is UNIT) if spread == 0 else (height == g.n + 1)
            agreement = power_ok and height_ok
        else:
            agreement = not power_ok and not m_prim
        check = OracleCheck(power_ok, m_prim, height, agreement)

    return TraceReport(
        classification=classification,
        N=n_exp,
        nearly_gorenstein=nearly,
        gorenstein=gorenstein,
        dim=g.n + 1,
        a_invariant=-maximal_cliques(g).dim - 2,
        component_dims=dims,
        component_pure=pure,
        oracle=check,
    )


def verify_equivalence(max_n: int) -> dict:
    """Run the purity criterion against both oracles over all graphs up to
    max_n vertices (one representative per isomorphism class).

    Returns counts plus a list of any disagreements (expected empty).
    """
    checked = 0
    perfect_count = 0
    disagreements = []
    for n in range(1, max_n + 1):
        for g in graphs_up_to_iso(n):
            checked += 1
            if not is_perfect(g):
                continue
            perfect_count += 1
            report = classify(g, oracle=True)
            fast_gps = report.classification != "NotGPS"
            if not (fast_gps == report.oracle.trace_power == report.oracle.m_primary
                    and report.oracle.agreement):
                disagreements.append({
                    "n": n,
                    "edges": g.sorted_edges(),
                    "fast": fast_gps,
                    "trace_power": report.oracle.trace_power,
                    "m_primary": report.oracle.m_primary,
                })
    return {
        "graphs_checked": checked,
        "perfect": perfect_count,
        "disagreements": len(disagreements),
        "details": disagreements,
    }
