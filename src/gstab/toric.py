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
never uses the purity criterion or the faces.  The trace-power test
(`_trace_equals_power`) runs that search on one ring point per orbit of
twin swaps, which are graph automorphisms and so map the trace onto
itself (`_twin_floors`), one slice per call of `_trace_miss`: the top
degree first, in descending order, so a point outside the trace ends the
test early.  Along a slice each degree split resumes the search's first
path from the previous point, where consecutive points differ only in
their last coordinates, and a point whose path stops short is searched
exhaustively from the first vertex, so the answers are the search's own.

m-primariness and the trace height come from the faces of the cone: the
trace misses a face iff the ring localised at the face's prime is not
Gorenstein, which an integer linear system over the facets through the
face decides (`_gorenstein`: the tight vertices are fixed, and the tight
clique rows, kept as sparse dicts over the free columns, are reduced in
order by Euclid steps on their columns).  Those faces form a down-set,
so the apex and the rays decide m-primariness (`_ray_stage`), and for
the height only the faces spanned by non-Gorenstein rays are listed,
bottom-up from those rays (`_faces_within`); the cone's face lattice is
never built (`_local_height`).  A face is a bitset of the degree-one points
(stable sets) on it, each facet one such bitset (`_zero_masks`, read off
the stable sets' vertex bitsets), and the walk names each face by the
bitset of the facets through it, so the join of a face with a ray is
one AND of two facet bitsets.  Neither needs module generators.

Every public function takes the graph itself.  For a perfect graph the
nonnegativity inequalities and one inequality per maximal clique cut out
the stable set polytope (Chvatal, "On certain polytopes associated with
graphs", 1975), so the graph's cached maximal cliques (`_cliques`) are
all the inequalities there are; the membership tests and slices read
them for any graph, and the three oracles refuse an imperfect one.  Each
oracle derives what it reads once per call, after its own guard, and
hands it on as arguments: the trace searches read the per-vertex clique
rows (`_clique_rows`) and the twin floors, small tables, and only the
height route grows the exponentially many stable sets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .config import check_size
from .errors import FormatError, NotPerfectError, ParameterError, _ints
from .graphs import (
    Graph,
    _adjacency_masks,
    _stable_masks,
    _twin_masks,
    connected_components,
    graphs_up_to_iso,
    is_perfect,
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
    """One lattice point: exponents of x_1..x_n plus the t-degree, stored
    as ints; a value that is not integer-like is a `FormatError`."""

    exponents: tuple[int, ...]
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "exponents", _ints(self.exponents, FormatError, "exponents"))
        object.__setattr__(self, "degree", _ints((self.degree,), FormatError, "degrees")[0])

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


def _cliques(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The maximal cliques of `g`, tuples of vertices 1..n, from the graph
    layer's cache: with x_i >= 0, one inequality sum_{i in C} x_i <= q
    per clique C.  A graph with no vertices is a ParameterError."""
    if g.n == 0:
        raise ParameterError("need at least one vertex")
    return maximal_cliques(g)


def _check_perfect(g: Graph):
    if not is_perfect(g):
        raise NotPerfectError("graph is not perfect")


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

def _cliques_for(g: Graph, m: Monomial):
    """The cliques of `g` (`_cliques`), once the point `m` has one
    exponent per vertex."""
    cliques = _cliques(g)
    if len(m.exponents) != g.n:
        raise ParameterError(
            f"exponent vector has length {len(m.exponents)}, expected {g.n}")
    return cliques


def _clique_sums(cliques, exps) -> list[int]:
    return [sum(exps[i - 1] for i in c) for c in cliques]


def _in_module(cliques, exps, degree: int, theta: int) -> bool:
    """Exponents at least theta, and sums over the `cliques` at most
    degree - theta: theta = 0 tests the ring, 1 the canonical module and
    -1 the anticanonical ideal."""
    if any(e < theta for e in exps):
        return False
    bound = degree - theta
    return all(s <= bound for s in _clique_sums(cliques, exps))


def in_ring(g: Graph, m: Monomial) -> bool:
    """Exponents nonnegative, clique sums at most the degree."""
    return _in_module(_cliques_for(g, m), m.exponents, m.degree, 0)


def in_canonical(g: Graph, m: Monomial) -> bool:
    """Exponents at least 1, clique sums at most degree - 1."""
    return _in_module(_cliques_for(g, m), m.exponents, m.degree, 1)


def in_anticanonical(g: Graph, m: Monomial) -> bool:
    """Exponents at least -1, clique sums at most degree + 1.

    This is the facet-threshold route.  The test suite checks it against
    the defining property: m + w in the ring for every canonical generator w.
    """
    return _in_module(_cliques_for(g, m), m.exponents, m.degree, -1)


def in_trace(g: Graph, m: Monomial) -> bool:
    """Is m a sum of a canonical-module point and an anticanonical point?

    Decided by an exhaustive pruned search over the canonical summand
    (`_trace_miss`): every degree split and every summand w in the box the
    definition allows is covered.  The search bounds each clique's
    unassigned part by its least and largest possible sum, so it only
    skips values that no completion of the partial w can make valid; at a
    clique's last vertex the test is the clique's exact inequality, so the
    bounds never decide an answer.
    """
    cliques = _cliques_for(g, m)
    a, q = m.exponents, m.degree
    if not _in_module(cliques, a, q, 0):
        return False
    return _trace_miss(cliques, _clique_rows(g), (a,), q, False) is not None


def _clique_rows(g: Graph) -> list[list[tuple[int, int]]]:
    """Per vertex v (0-based), a (clique index, later count) pair for each
    maximal clique C through v, in the order of `_cliques(g)`, where the
    later count is the number of C's vertices above v."""
    rows = [[] for _ in range(g.n)]
    for ci, c in enumerate(_cliques(g)):
        for later, v in enumerate(sorted(c, reverse=True)):
            rows[v - 1].append((ci, later))
    return rows


def _trace_miss(cliques, rows, points, q: int, want: bool):
    """The first of `points`, exponent vectors a of ring points x^a t^q,
    taken in the order given, whose trace membership is not `want`, or
    None if every one's is.

    A ring point x^a t^q is in the trace iff it is a sum w + (a - w) of a
    canonical point w in some degree d and an anticanonical point in
    degree q - d.  Spelled out, that asks for d and w with
    1 <= w_i <= a_i + 1 and, for every maximal clique C with clique sum cs_C,
    cs_C(a) - q + d - 1 <= cs_C(w) <= d - 1.  Since w_i >= 1 forces
    cs_C(w) >= |C| and w_i <= a_i + 1 forces cs_C(w) <= cs_C(a) + |C|, no d
    outside omega + 1 .. q + 1 + min |C| (omega the largest clique size)
    can satisfy every clique, so the degrees in that range are all tried.

    For each d the vertices are assigned in order, carrying each clique's
    partial sums of w and of a.  A value of vertex v is skipped when some
    clique C through v cannot land in its interval even if each of C's
    later vertices takes its least value 1 or its largest value a_i + 1;
    the number of those later vertices is read from `rows`, the
    `_clique_rows` of their graph.
    Those bounds only prune: at a clique's last vertex there are no later
    vertices and the test is the clique's own interval, so every full
    assignment reached is a witness and no witness is skipped.

    Points of a slice walk come in descending lexicographic order, so
    consecutive ones share all but their last coordinates.  Each degree
    split therefore keeps the first path of the search `_complete_summand`,
    the one that takes the least value at every vertex, with its clique
    sums, and `_first_summand` carries it from the split's previous point
    to the next: it undoes the steps from the first vertex where the two
    differ and continues.  A path that reaches the last vertex is a
    witness.  One that stops short sends the point to `_complete_summand`
    from vertex 0, which covers every summand of that split, so an answer
    "not in the trace" is still exhaustive, and each point's answer, the
    first miss returned among them, is the one that deciding it alone
    gives.  The buffers, splits and paths are set up once per call.
    """
    part = [0] * len(cliques)   # sum of w over each clique's assigned vertices
    done = [0] * len(cliques)   # sum of a over the same vertices
    # hi = d - 1 is the top of every clique's interval; slack = q - d + 1;
    # then the first path's clique sums and its (a_v, w_v) steps
    sizes = list(map(len, cliques))
    splits = [(d - 1, q - d + 1, [0] * len(cliques), [0] * len(cliques), [])
              for d in range(max(sizes) + 1, q + 2 + min(sizes))]
    for a in points:
        found = False
        for hi, slack, first_part, first_done, path in splits:
            if (_first_summand(a, rows, first_part, first_done, path, hi, slack)
                    or _complete_summand(a, rows, part, done, 0, hi, slack)):
                found = True
                break
        if found != want:
            return a
    return None


def _first_summand(a, rows, part, done, path, hi: int, slack: int) -> bool:
    """Does the first path of `_complete_summand` for the point `a`, the
    one that takes the least value x_lo at every vertex, reach the last
    vertex?  `path` holds the steps (a_v, w_v) of that path for an earlier
    point, and `part` and `done` its clique sums; the steps from the first
    vertex where `a` differs are undone, the path is continued, and the
    three are left holding the path of `a`."""
    v = 0
    depth = len(path)
    while v < depth and path[v][0] == a[v]:
        v += 1
    while depth > v:
        depth -= 1
        av, x = path.pop()
        for ci, _ in rows[depth]:
            part[ci] -= x
            done[ci] -= av
    last = len(rows) - 1
    while True:
        # the bounds of `_complete_summand`, inline to spare a call per vertex
        av = a[v]
        x_lo, x_hi = 1, av + 1
        row = rows[v]
        for ci, count in row:
            p = part[ci]
            low = done[ci] + av - count - slack - p
            if low > x_lo:
                x_lo = low
            high = hi - p - count
            if high < x_hi:
                x_hi = high
        if x_lo > x_hi:
            return False
        if v == last:
            return True
        for ci, _ in row:
            part[ci] += x_lo
            done[ci] += av
        path.append((av, x_lo))
        v += 1


def _complete_summand(a, rows, part, done, v: int, hi: int, slack: int) -> bool:
    """Can vertices v, v + 1, ... of a canonical summand w of the point
    `a` be given values, on top of the clique sums `part` of w and `done`
    of `a` over the vertices before v, so that every clique lands in its
    interval (`_trace_miss`)?  `part` and `done` are restored on return.
    Module-level with its state in arguments, so that no call leaves a
    reference cycle (see `graphs._extend_clique`).
    """
    # with count later vertices in C, each between 1 and a_i + 1:
    # x >= cs_C(a) - slack - part_C - (largest sum of C's later vertices)
    #    = done_C + a_v - count - slack - part_C
    # x <= hi - part_C - count
    av = a[v]
    x_lo, x_hi = 1, av + 1
    row = rows[v]
    for ci, count in row:
        p = part[ci]
        low = done[ci] + av - count - slack - p
        if low > x_lo:
            x_lo = low
        high = hi - p - count
        if high < x_hi:
            x_hi = high
    if x_lo > x_hi:
        return False
    if v + 1 == len(rows):
        return True
    for ci, _ in row:
        done[ci] += av
    found = False
    for x in range(x_lo, x_hi + 1):
        for ci, _ in row:
            part[ci] += x
        found = _complete_summand(a, rows, part, done, v + 1, hi, slack)
        for ci, _ in row:
            part[ci] -= x
        if found:
            break
    for ci, _ in row:
        done[ci] -= av
    return found


# ---------------------------------------------------------------------------
# degree slices

def _walk(cliques, theta: int, degree: int, floors):
    """The exponent vectors of the theta-module slice at the given degree,
    for the maximal `cliques` of a graph on len(floors) vertices, whose
    value at each vertex v is at least the value at `floors[v]` (no bound
    where that is -1), as an iterator in descending lexicographic order:
    a search that stops early stops the walk with it.

    The walk assigns the vertices in order, each value shifted down by
    theta, and carries what is left of the cap of each clique through the
    vertex.  With every floor -1 it yields the whole slice; with the
    previous twin of each vertex (`_twin_floors`) it yields one point
    per twin orbit, the one that is non-decreasing along each twin class.
    """
    n = len(floors)
    caps = [degree - theta * (len(c) + 1) for c in cliques]
    if any(cap < 0 for cap in caps):
        return iter(())
    by_vertex = [[] for _ in range(n)]
    for ci, c in enumerate(cliques):
        for i in c:
            by_vertex[i - 1].append(ci)
    # shifted[-1] stays 0: the start of a vertex whose floor is -1
    return _walk_from(0, theta, by_vertex, floors, caps, [0] * (n + 1))


def _walk_from(v: int, theta: int, by_vertex, floors, caps, shifted):
    """Yield every completion of the shifted values `shifted[:v]` of
    `_walk`, largest first, with `caps` what is left of each clique's cap;
    `caps` is restored once the completions are exhausted.  Module-level,
    like `_complete_summand`, so that no call leaves a reference cycle."""
    cliques = by_vertex[v]
    room = min(caps[ci] for ci in cliques)
    lo = shifted[floors[v]]
    if v + 1 == len(by_vertex):
        prefix = tuple(x + theta for x in shifted[:v])
        yield from ((*prefix, b + theta) for b in range(room, lo - 1, -1))
        return
    for b in range(room, lo - 1, -1):
        shifted[v] = b
        for ci in cliques:
            caps[ci] -= b
        yield from _walk_from(v + 1, theta, by_vertex, floors, caps, shifted)
        for ci in cliques:
            caps[ci] += b


def _slice(g: Graph, theta: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors in the theta-module of `g` at the given degree,
    in ascending lexicographic order."""
    return tuple(_walk(_cliques(g), theta, degree, (-1,) * g.n))[::-1]


def degree_monomials(g: Graph, q: int) -> list[Monomial]:
    """All ring monomials of degree exactly q, lexicographically ordered;
    none below degree 0, where every clique's cap is negative."""
    q = _ints((q,), ParameterError, "degrees")[0]
    return [Monomial(e, q) for e in _slice(g, 0, q)]


def hilbert_function(g: Graph, q: int) -> int:
    """The number of ring monomials of degree exactly q, counted along the
    walk, which keeps no point."""
    q = _ints((q,), ParameterError, "degrees")[0]
    return sum(1 for _ in _walk(_cliques(g), 0, q, (-1,) * g.n))


def a_invariant(g: Graph) -> int:
    """Minus the clique-complex dimension minus two: `classify`'s field.

    Equals minus the smallest degree of a canonical-module monomial; the
    tests verify that by enumeration.
    """
    return classify(g).a_invariant


def _zero_masks(g: Graph) -> tuple[list[int], int]:
    """For each facet of the cone, the bitset of the degree-one points on
    it, and the bitset `full` of every point.

    The degree-one points are the stable sets of `g` in the order of
    `_stable_masks`, so bit k is the k-th point of `_slice(g, 0, 1)`, in
    ascending lexicographic order.

    Facet j < n is x_{j+1} = 0, which holds the stable sets avoiding
    vertex j + 1; facet n + i is q = sum_{v in C} x_v for the i-th clique C
    of `_cliques(g)`, which holds the stable sets meeting C, since a stable
    set meets a clique at most once.  So both are read off one bitset per
    vertex, the points containing it.  A face is the intersection of the
    facets containing it and is spanned by its degree-one points, so ANDs
    of these bitsets name every face.
    """
    sets = _stable_masks(_adjacency_masks(g))
    holding = [0] * g.n
    for k, s in enumerate(sets):
        bit = 1 << k
        while s:
            low = s & -s
            holding[low.bit_length() - 1] |= bit
            s ^= low
    full = (1 << len(sets)) - 1
    masks = [full ^ h for h in holding]
    for c in _cliques(g):
        meet = 0
        for v in c:
            meet |= holding[v - 1]
        masks.append(meet)
    return masks, full


# ---------------------------------------------------------------------------
# trace as a power of the maximal ideal (brute-force route)

def trace_equals_power(g: Graph, power: int) -> bool:
    """Does the trace equal the power-th power of the maximal ideal?

    Checks that every ring monomial of degree `power` is in the trace and
    that no monomial of smaller degree is.  Degrees above `power` then
    follow because the ring is generated in degree one and the trace is
    an ideal.
    """
    power = _ints((power,), ParameterError, "powers")[0]
    if power < 0:
        raise ParameterError("power must be nonnegative")
    _check_perfect(g)
    return _trace_equals_power(g, power)


def _trace_equals_power(g: Graph, power: int) -> bool:
    """`trace_equals_power` on the perfect graph `g`, one point per orbit.

    Swapping two twins (`_twin_floors`) is an automorphism of the graph,
    so it permutes the maximal cliques and maps the ring and the trace
    onto themselves: a ring point is in the trace iff every point of its
    orbit under the twin swaps is.  Each orbit holds exactly one point
    that is non-decreasing along every twin class, and `_walk` with the
    twin floors yields just those, so both tests run on them alone.

    Both tests are "for all" checks, so their order cannot change the
    answer; the one that refutes runs first.  Every graph that is not GPS
    checked so far passes the absence tests and misses a point of degree
    `power`, and the slice walked in descending lexicographic order meets
    one early: 60 points searched in all for the 12 such graphs with
    N >= 1 on at most six vertices, against 1366 absence first (each
    point handed to `_trace_miss` counts once, however its answer is
    found).  Membership is still
    decided by `_trace_miss` from the definition; neither the faces nor
    the purity criterion is read.  `full_trace_equals_power` in the tests
    is the loop over every point.  Below degree omega - min |C|,
    `_trace_miss` has no degree split to try, so no point there is in the
    trace: a smaller `power` is answered False before anything is built,
    since its slice holds the zero vector, and the absence tests start at
    that degree.  Otherwise the clique rows and the twin floors are
    derived once and read by every search and walk.
    `_oracle_check` asks for the component dimensions' spread, at most
    omega - min |C| (the smallest component's largest clique has at least
    min |C| vertices), so it walks the top slice alone, or none; only
    larger powers, from `trace_equals_power`, walk the absence loop.
    """
    cliques = _cliques(g)
    sizes = list(map(len, cliques))
    lowest = max(sizes) - min(sizes)
    if power < lowest:
        return False
    rows, floors = _clique_rows(g), _twin_floors(g)
    if _trace_miss(cliques, rows, _walk(cliques, 0, power, floors), power, True) is not None:
        return False
    return all(_trace_miss(cliques, rows, _walk(cliques, 0, q, floors), q, False) is None
               for q in range(lowest, power))


def _twin_floors(g: Graph) -> tuple[int, ...]:
    """Per vertex v (0-based), its previous twin: the largest u < v with
    N(u) - {v} = N(v) - {u} (`_twin_masks`), or -1 if there is none."""
    return tuple((t & ((1 << v) - 1)).bit_length() - 1
                 for v, t in enumerate(_twin_masks(_adjacency_masks(g))))


# ---------------------------------------------------------------------------
# faces of the cone

def _gorenstein(cliques, masks, face: int) -> bool:
    """Is the ring localised at the prime of `face` Gorenstein?

    That localisation is the semigroup ring of the cone plus the span of
    the face, over the same lattice Z^(n+1), which the stable sets
    generate; its facets are the facets of the cone that contain the face.
    A normal semigroup ring is Gorenstein iff some lattice point c has
    value 1 on every primitive facet form (Bruns-Herzog, Cohen-Macaulay
    Rings, Thm 6.3.5).  The forms are, as functions of
    c = (c_1..c_n, c_q), x_j for each vertex j and q - sum_{i in C} x_i
    for each clique C (tuples of vertices 1..n, as in `_cliques`), all
    primitive, in the order of `masks` (`_zero_masks`).  So the
    answer is whether those whose mask contains `face` are all 1 at some
    integer c.

    A tight vertex form fixes c_j = 1, so those coordinates move to the
    right-hand side up front: each tight clique row becomes a sparse dict
    over the free columns (the other vertices and q) with right-hand side
    1 plus the number of its tight vertices.  The rows are then reduced in
    order by unimodular column changes: Euclid steps on a row's smallest
    coefficient, each subtracting a multiple of its column from another
    and applied to the later rows alone, until one coefficient a is left.
    The row then fixes that column's value: it is solvable iff a divides
    its right-hand side, and the value is substituted into the later rows.
    The other columns stay free, and the earlier rows no longer read them.
    """
    n = len(masks) - len(cliques)
    rows, rhs = [], []
    for clique, mask in zip(cliques, masks[n:]):
        if face & mask == face:
            row = {n: 1}
            b = 1
            for i in clique:
                if face & masks[i - 1] == face:
                    b += 1
                else:
                    row[i - 1] = -1
            rows.append(row)
            rhs.append(b)
    for r, row in enumerate(rows):
        later = rows[r + 1:]
        while len(row) > 1:
            p = min(row, key=lambda j: abs(row[j]))
            a = row.pop(p)
            for j in list(row):
                k, rem = divmod(row[j], a)
                if rem:
                    row[j] = rem
                else:
                    del row[j]
                # column j minus k times column p, in every later row
                for other in later:
                    x = other.get(p)
                    if x:
                        y = other.get(j, 0) - k * x
                        if y:
                            other[j] = y
                        else:
                            del other[j]
            row[p] = a
        if not row:
            if rhs[r]:
                return False
            continue
        (p, a), = row.items()
        value, rest = divmod(rhs[r], a)
        if rest:
            return False
        for s, other in enumerate(later, r + 1):
            x = other.pop(p, 0)
            if x:
                rhs[s] -= x * value
    return True


def _faces_within(masks, full: int, rays: list[int]) -> dict[int, int]:
    """Every face of the cone other than the apex whose degree-one points
    all lie on `rays` (one-point bitsets), as a dict from face bitset to
    dimension; `masks` and `full` are the `_zero_masks` of the system.

    Walked bottom-up from the rays, which have dimension 1, by increasing
    point count: each face F is joined with each ray r outside it, the
    join being the smallest face holding both, and a join with a point off
    `rays` is dropped.  Every such face G above a ray is reached: a facet
    F of G has its points on `rays` too, and G is its join with any point
    of G outside F.  Since a facet has fewer points than G, all of G's
    facets come before G, and G's dimension is the largest dim F + 1 over
    the faces F it is joined from: a facet gives exactly dim G, any
    smaller face less.

    Each face carries the bitset of the facets through it (bit j for
    `masks[j]`).  The facets through the join are those through both F
    and r, `facets(F) & facets(r)`, which is `facets(F)` itself iff r lies
    on F, and the join is the AND of their masks.  A face is the
    intersection of its facets, so that key names the join: the masks are
    ANDed once per key, and `joins` keeps the join's points, or 0 for a
    join off `rays`, for every later pair with that key.
    """
    within = sum(rays)
    throughs = [sum(1 << j for j, m in enumerate(masks) if m & r) for r in rays]
    dims = dict.fromkeys(rays, 1)
    by_size = [[] for _ in range(full.bit_count() + 1)]
    by_size[1] = list(zip(rays, throughs))
    joins = {}
    for bucket in by_size:
        for face, facets in bucket:
            dim = dims[face] + 1
            for through in throughs:
                key = facets & through
                if key == facets:
                    continue
                join = joins.get(key)
                if join is None:
                    join, rest = full, key
                    while rest:
                        low = rest & -rest
                        join &= masks[low.bit_length() - 1]
                        rest ^= low
                    if join & within != join:
                        join = 0
                    joins[key] = join
                    if join:
                        dims[join] = dim
                        by_size[join.bit_count()].append((join, key))
                elif join and dims[join] < dim:
                    dims[join] = dim
    return dims


def _ray_stage(g: Graph):
    """The apex and the rays of the cone: what they decide of the trace
    height, and what the walk above them needs.

    The trace of the canonical module cuts out the non-Gorenstein locus
    (Herzog-Hibi-Stamate, "The trace of the canonical module", 2019), so
    the trace lies in the prime of a face iff the ring localised there is
    not Gorenstein (`_gorenstein`), and the prime of a face has height
    n + 1 minus the face's dimension.  A larger face has a smaller prime,
    whose localisation is a further localisation, and a localisation of a
    Gorenstein ring is Gorenstein: the non-Gorenstein faces form a
    down-set.  So:
    - if the apex, whose prime is the maximal ideal, is Gorenstein, the
      ring is, and the trace is UNIT;
    - every other face contains a ray, spanned by one degree-one point,
      so if every ray is Gorenstein the apex is the only non-Gorenstein
      face and the height is n + 1: the trace is m-primary;
    - otherwise the height is below n + 1, and the trace is not m-primary.

    Returns (height, masks, full, rays): the height UNIT, n + 1, or None
    for "below n + 1"; the `_zero_masks` of `g`; and the bitsets of the
    non-Gorenstein rays.  The cone-dimension guard fires first.  Only then
    are the stable sets grown and the facet bitsets built, once, and
    handed to every solve.
    """
    check_size("face enumeration", g.n + 1)
    cliques = _cliques(g)
    masks, full = _zero_masks(g)
    if _gorenstein(cliques, masks, 0):
        return UNIT, masks, full, []
    rays = [1 << k for k in range(full.bit_length()) if not _gorenstein(cliques, masks, 1 << k)]
    return (None if rays else g.n + 1), masks, full, rays


def _local_height(g: Graph) -> object:
    """Height of the trace ideal, or UNIT, of the perfect graph `g`.

    The apex and the rays come first (`_ray_stage`), and settle UNIT and
    n + 1; a GPS graph stops there.  Otherwise a non-Gorenstein face has
    all its points on the non-Gorenstein rays.  Only those faces are
    listed (`_faces_within`), and they are solved largest first, down to
    the first non-Gorenstein one; a ray is known to be one.
    """
    height, masks, full, rays = _ray_stage(g)
    if height is not None:
        return height
    dims = _faces_within(masks, full, rays)
    cliques = _cliques(g)
    return g.n + 1 - next(dims[face] for face in sorted(dims, key=dims.get, reverse=True)
                          if dims[face] == 1 or not _gorenstein(cliques, masks, face))


def is_m_primary(g: Graph) -> bool:
    """Is the trace ideal primary to the maximal ideal?

    True iff the trace lies in no face prime but the maximal ideal, the
    prime of the apex; a unit trace (Gorenstein ring) counts as m-primary.
    So the trace is m-primary iff its height is UNIT or the cone dimension
    n + 1, which the apex and the rays decide (`_ray_stage`): no face
    above a ray is listed.
    """
    _check_perfect(g)
    return _ray_stage(g)[0] is not None


def trace_height(g: Graph):
    """Height of the trace ideal, or UNIT when the trace is the whole ring.

    Decided face by face from the clique inequalities by the Gorenstein
    localisation criterion (`_local_height`): the apex and the rays, then,
    below n + 1, the faces on the non-Gorenstein rays.  No module
    generator is computed.
    """
    _check_perfect(g)
    return _local_height(g)


# ---------------------------------------------------------------------------
# classification

def is_nearly_gorenstein(g: Graph) -> bool:
    """Every component pure with top and bottom dimensions within one:
    `classify`'s field."""
    return classify(g).nearly_gorenstein


def classify(g: Graph, oracle: bool = False) -> TraceReport:
    """Classify the non-Gorenstein locus of the stable set ring.

    Fast path: component dimensions and purity.  With `oracle=True` the
    face-by-face height (`_local_height`) and the brute-force power test
    run as well, in that order, so that the height's cone guard fires
    before any oracle work, and the report records whether everything
    agrees (`_oracle_check`).
    """
    if g.n == 0:
        raise ParameterError("need at least one vertex")
    _check_perfect(g)
    comps = connected_components(g)
    dims = tuple(c.dim for c in comps)
    pure = tuple(c.pure for c in comps)
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

    report = TraceReport(
        classification=classification,
        N=n_exp,
        nearly_gorenstein=nearly,
        gorenstein=gorenstein,
        dim=g.n + 1,
        # the largest clique of the graph is one of the first component's
        a_invariant=-dims[0] - 2,
        component_dims=dims,
        component_pure=pure,
    )
    if not oracle:
        return report
    return replace(report, oracle=_oracle_check(g, report, _local_height(g)))


def _oracle_check(g: Graph, report: TraceReport, height) -> OracleCheck:
    """Both oracles against the fast `report` on the perfect graph `g`.

    `height` is the face oracle's answer: the trace height or UNIT, or
    the ray stage's UNIT, n + 1 or None (below n + 1), since the rule
    reads no more than that.  The trace-power test runs here.  The fast
    criterion says GPS iff every component is pure, and Gorenstein iff
    moreover their dimensions agree; the oracles agree with it iff the
    trace is the power m^spread (spread the gap between the largest and
    smallest component dimension) exactly when the graph is GPS, is
    m-primary exactly when it is GPS, and is UNIT exactly when it is
    Gorenstein.
    """
    dims = report.component_dims
    power_ok = _trace_equals_power(g, dims[0] - dims[-1])
    # see is_m_primary
    m_prim = height is UNIT or height == g.n + 1
    gps = report.classification != "NotGPS"
    agreement = power_ok == gps and m_prim == gps and (height is UNIT) == report.gorenstein
    return OracleCheck(power_ok, m_prim, height, agreement)


def verify_equivalence(max_n: int) -> dict:
    """Run the purity criterion against both oracles over all graphs up to
    max_n vertices (one representative per isomorphism class).

    The agreement rule (`_oracle_check`) reads of the face oracle only
    whether the trace is UNIT, of height n + 1, or of smaller height, so
    each graph solves the apex and the rays (`_ray_stage`) and lists no
    face above them; the heights come from `classify(oracle=True)`.

    Returns counts plus a list of any disagreements (expected empty).  The
    face oracle's cone has dimension n + 1, so a max_n above the `verify`
    guard of `config`, one below the cone guard, is a SizeGuardError, and a
    max_n below 1 or not an integer a ParameterError, both raised before
    any graph is built.
    """
    max_n = _ints((max_n,), ParameterError, "vertex counts")[0]
    check_size("verify", max_n)
    if max_n < 1:
        raise ParameterError(f"max_n must be at least 1, got {max_n}")
    checked = 0
    perfect_count = 0
    disagreements = []
    for n in range(1, max_n + 1):
        for g in graphs_up_to_iso(n):
            checked += 1
            if not is_perfect(g):
                continue
            perfect_count += 1
            report = classify(g)
            check = _oracle_check(g, report, _ray_stage(g)[0])
            # agreement implies fast == trace_power == m_primary
            if not check.agreement:
                disagreements.append({
                    "n": n,
                    "edges": g.sorted_edges(),
                    "fast": report.classification != "NotGPS",
                    "trace_power": check.trace_power,
                    "m_primary": check.m_primary,
                })
    return {
        "graphs_checked": checked,
        "perfect": perfect_count,
        "disagreements": len(disagreements),
        "details": disagreements,
    }
