"""Reference oracles that exist only to check the library.

Each one takes a route the library does not: the canonical and
anticanonical generators by a drop test over whole degree slices, the
trace height from those generators, the trace ideal's minimal generators
by reducing the pairwise canonical-plus-anticanonical sums, the whole
face lattice of the cone graded top-down, the faces as objects with
their tight inequalities and points, the anticanonical ideal by its
defining property, near-Gorensteinness by testing every degree-one
monomial for trace membership, the trace power by searching every ring
point instead of one per twin orbit, the facet bitsets one slack tuple
per point, the Gorenstein test of a face by carrying basis vectors
instead of reducing sparse rows, perfection by its definition
(colouring every induced subgraph) and by the Strong Perfect Graph
Theorem (no odd hole in the graph or its complement), a connected
component as its own relabelled graph, with the purity of a graph's own
cliques (the library reads a component's dimension and purity off the
whole graph's cliques), the lattice points of a
poset's order and chain polytopes (the order count along a linear
extension, so Stanley's identity checks it against the ring), and numerical
semigroups by a membership table with ideals scanned over a window, one
membership test at a time.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from gstab.config import check_size
from gstab.errors import ParameterError, _ints
from gstab.graphs import (
    Graph,
    _adjacency_masks,
    _bits,
    _maximal_clique_masks,
    complement,
    maximal_cliques,
)
from gstab.numsgp import IntegerIdeal, _check_table_size
from gstab.posets import comparability_graph
from gstab.toric import (
    UNIT,
    Monomial,
    _clique_rows,
    _clique_sums,
    _slice,
    _trace_miss,
    _zero_masks,
    hilbert_function,
    in_ring,
)


def clique_dim(g):
    """The dimension of the clique complex of `g`: its largest clique size
    minus one."""
    return max(map(len, maximal_cliques(g))) - 1


def slack(g, exps, degree):
    """Slack of x^a t^q in each ring inequality of the graph `g`: a_1..a_n,
    then q - sum_{i in C} a_i for each maximal clique C, in the order of
    `maximal_cliques(g)`.  The point is in the ring iff every entry is
    >= 0, and entry j is 0 on the j-th facet of the `_zero_masks` of `g`."""
    return (*exps, *(degree - s for s in _clique_sums(maximal_cliques(g), exps)))


def zero_masks_by_slack(g, points):
    """`_zero_masks` one `slack` tuple per point: for each entry, the
    bitset of the degree-one points (bit k for `points[k]`) with slack 0
    there.  The library reads the same bitsets off the stable sets'
    vertex bitsets."""
    masks = [0] * (g.n + len(maximal_cliques(g)))
    for k, p in enumerate(points):
        bit = 1 << k
        for j, x in enumerate(slack(g, p, 1)):
            if not x:
                masks[j] |= bit
    return masks


def _ext_gcd(a, b):
    """(x, y, d) with x*a + y*b = d, where |d| = gcd(a, b) and a, b are
    not both 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    return x0, y0, a


def gorenstein_by_basis(cliques, masks, face):
    """`_gorenstein` by carrying a basis of the solution directions.

    The tight vertex coordinates are fixed to 1 up front and every other
    coordinate, q included, starts as a unit basis vector of length n + 1.
    The integer points on which the tight clique rows seen so far are 1
    are c plus the integer span of `basis`.  A new row takes some value on
    each basis vector; extended-gcd steps, each an invertible integer
    change of two basis vectors, gather those values into one vector
    `pivot` with value their gcd and leave every other vector at value 0,
    so those span the new solution set's directions.  The row can be made
    1 iff that gcd divides 1 minus the row's value at c.  The library
    reduces sparse rows instead and builds no basis vector.
    """
    n = len(masks) - len(cliques)
    c = [0] * (n + 1)
    basis = []
    for j in range(n):
        if face & masks[j] == face:
            c[j] = 1
        else:
            basis.append([int(i == j) for i in range(n + 1)])
    basis.append([0] * n + [1])
    for clique, mask in zip(cliques, masks[n:]):
        if face & mask != face:
            continue
        pivot, value, rest = None, 0, []
        for u in basis:
            g = u[n] - sum([u[i - 1] for i in clique])
            if not g:
                rest.append(u)
            elif pivot is None:
                pivot, value = u, g
            else:
                x, y, d = _ext_gcd(value, g)
                rest.append([g // d * a - value // d * b for a, b in zip(pivot, u)])
                pivot, value = [x * a + y * b for a, b in zip(pivot, u)], d
        need = 1 - c[n] + sum([c[i - 1] for i in clique])
        if pivot is None:
            if need:
                return False
        elif need % value:
            return False
        else:
            k = need // value
            c = [a + k * b for a, b in zip(c, pivot)]
        basis = rest
    return True


def bits(flags):
    """The int bitset with bit j set where flags[j] is true."""
    return sum(1 << j for j, flag in enumerate(flags) if flag)


def face_of(masks, full, pattern):
    """The face cut out by a zero-slack pattern (bit j set where entry j of
    `slack` is 0), as the bitset of its degree-one points; `full` has a
    bit for every point.  The apex, the face without points, is 0."""
    face = full
    while pattern:
        low = pattern & -pattern
        face &= masks[low.bit_length() - 1]
        pattern ^= low
    return face


def face_lattice(g):
    """All faces of the cone over the stable set polytope, as a dict from
    each face to its dimension.

    Because the polytope has 0/1 vertices, each face is spanned by its
    degree-one lattice points, so a face is identified by the bitset of
    those points (bit k for the k-th point of `_slice(g, 0, 1)`) and an
    intersection of faces by the AND of their bitsets, the facets being
    the `_zero_masks`.  An inequality is tight on a face iff the face's
    points all lie on that facet, a subset test of the two bitsets.

    Dimensions come from the grading of the face lattice.  The full cone
    has dimension n + 1.  Every proper intersection G = F & facet of a face
    F is a face of dimension at most dim F - 1, with equality when G is a
    facet of F, and every facet of F arises this way.  So dim G is the
    least dim F - 1 over the faces F it is cut from, and visiting faces by
    decreasing point count settles each dimension before it is passed on.
    The apex is the face with no points, of dimension 0.

    This is the top-down reference for the library's bottom-up join walk
    (`_faces_within`); it keeps the cone-dimension guard of that walk's
    caller.
    """
    check_size("face enumeration", g.n + 1)
    masks, full = _zero_masks(g)
    dims = {full: g.n + 1}
    by_size = [[] for _ in range(full.bit_count())] + [[full]]
    for bucket in reversed(by_size):
        for face in bucket:
            below = dims[face] - 1
            for f in masks:
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


def drop_splitter(g, theta):
    """The drop test by whole slices, point by point.

    Returns split(points, degree), which divides a degree slice into the
    points that drop to the previous degree (p - w is in the module for
    some stable set w) and those that do not.  That holds iff w avoids
    every vertex where p has zero slack (p_i = theta) and meets every
    clique where p has zero slack (clique sum degree - theta): a stable set
    meets a clique at most once, and every other entry has slack at least
    1.  So p drops iff the face its zero-slack pattern cuts out
    (`face_of`) has a degree-one point; the answer is memoised on the
    pattern.
    """
    cliques = [tuple(i - 1 for i in c) for c in maximal_cliques(g)]
    masks, full = _zero_masks(g)
    memo = {}

    def split(points, degree):
        cap = degree - theta
        can, cannot = [], []
        for p in points:
            key = (*(x == theta for x in p),
                   *(sum([p[i] for i in c]) == cap for c in cliques))
            drops = memo.get(key)
            if drops is None:
                drops = memo[key] = face_of(masks, full, bits(key)) != 0
            (can if drops else cannot).append(p)
        return can, cannot

    return split


@lru_cache(maxsize=None)
def module_generators(g, theta):
    """Minimal generators of the theta-module (1: canonical, -1:
    anticanonical) as the points of whole slices of `g` that do not drop
    (`drop_splitter`), degree by degree.

    The degrees run from the lowest module degree (delta + 1 for the
    canonical module, minus the smallest clique size minus 1 for the
    anticanonical one) until two consecutive degrees have no new
    generator, within a window of twice the clique-complex dimension plus
    6.  Cached, because several tests and oracles read the same graphs."""
    split = drop_splitter(g, theta)
    sizes = [len(c) for c in maximal_cliques(g)]
    start = max(sizes) + 1 if theta == 1 else -min(sizes) - 1
    gens, quiet = [], 0
    # the clique-complex dimension is max(sizes) - 1
    for d in range(start, start + 2 * (max(sizes) + 2) + 1):
        stuck = split(_slice(g, theta, d), d)[1]
        gens += (Monomial(p, d) for p in stuck)
        quiet = 0 if stuck else quiet + 1
        if quiet >= 2 and d > start:
            return tuple(gens)
    raise AssertionError("oracle search did not stabilize")


def omega_generators(g):
    """Minimal generators of the canonical module, lowest degree delta + 1."""
    return module_generators(g, 1)


def anticanonical_generators(g):
    """Minimal generators of the anticanonical fractional ideal."""
    return module_generators(g, -1)


def tight_patterns(g, gens, value):
    """The distinct bitsets, one per generator, of the `slack` entries
    equal to `value` (bit j for entry j)."""
    return {bits(x == value for x in slack(g, m.exponents, m.degree)) for m in gens}


def generator_trace_height(g):
    """Height of the trace ideal, or UNIT, from the module generators.

    The sums w + v of a canonical generator w and an anticanonical
    generator v generate the trace, so every trace point is such a sum
    plus a ring point r.  Slack entries are >= 0 on the ring, so s + r
    has slack 0 at an entry iff s and r both do: a face meets the trace
    iff some sum w + v lies on it.  Slack is additive, canonical points
    have slack >= 1 and anticanonical points slack >= -1 in every entry,
    so w + v has slack 0 exactly where w has slack 1 and v has slack -1.
    Its zero-slack pattern is the AND of those two bitsets.

    Each distinct pattern cuts out (`face_of`) the smallest face holding
    its sums, so a face meets the trace iff it contains one of those cuts.
    The origin is the only ring point whose cut is the apex, so a cut of 0
    puts 1 in the trace: UNIT.  Otherwise the height is n + 1 minus the
    largest dimension of a face containing no cut, which the apex always
    is.
    """
    dims = face_lattice(g)
    omega = tight_patterns(g, omega_generators(g), 1)
    anti = tight_patterns(g, anticanonical_generators(g), -1)
    masks, full = _zero_masks(g)
    cuts = {face_of(masks, full, w & v) for w in omega for v in anti}
    if 0 in cuts:
        return UNIT
    return g.n + 1 - max(dim for face, dim in dims.items()
                         if not any(cut & face == cut for cut in cuts))


@lru_cache(maxsize=None)
def pairwise_trace_generators(g):
    """Minimal generators of the trace ideal by the quadratic reduction:
    walk the sorted canonical-plus-anticanonical sums and keep a candidate
    unless cand - k is in the ring for a kept k.

    Every trace monomial is a canonical generator plus an anticanonical
    generator plus a ring point, so the pairwise sums generate, and a sum
    is redundant iff it lies above a kept one.  Cached, because several
    tests reduce the same graphs."""
    sums = sorted(
        {w + v for w in omega_generators(g) for v in anticanonical_generators(g)},
        key=lambda m: (m.degree, m.exponents))
    kept = []
    for cand in sums:
        assert in_ring(g, cand)
        if not any(in_ring(g, cand - k) for k in kept):
            kept.append(cand)
    return tuple(kept)


@dataclass(frozen=True)
class Face:
    """A face of the cone over the stable set polytope.

    `tight_nonneg` / `tight_cliques` record which inequalities hold with
    equality everywhere on the face (vertex labels, resp. indices into the
    graph's list of maximal cliques); `points` are the degree-one lattice points
    lying on the face, which span it.
    """

    tight_nonneg: frozenset[int]
    tight_cliques: frozenset[int]
    points: tuple[tuple[int, ...], ...]
    dim: int


def cone_faces(g: Graph) -> tuple[Face, ...]:
    """All faces of the cone over the stable set polytope, ordered by
    dimension and then by their points (see `face_lattice`)."""
    masks = _zero_masks(g)[0]
    points = _slice(g, 0, 1)
    faces = []
    for face, dim in face_lattice(g).items():
        tight = [j for j, f in enumerate(masks) if face & f == face]
        bits = bin(face)[:1:-1]   # bit k of the face at index k
        faces.append(Face(frozenset(j + 1 for j in tight if j < g.n),
                          frozenset(j - g.n for j in tight if j >= g.n),
                          tuple(points[k] for k, b in enumerate(bits) if b == "1"),
                          dim))
    faces.sort(key=lambda f: (f.dim, f.points))
    return tuple(faces)


def monomial_on_face(g: Graph, face: Face, m: Monomial) -> bool:
    """Does a ring monomial satisfy all of the face's tight equalities?"""
    exps = m.exponents
    if any(exps[i - 1] != 0 for i in face.tight_nonneg):
        return False
    cliques = maximal_cliques(g)
    return all(sum(exps[i - 1] for i in cliques[ci]) == m.degree for ci in face.tight_cliques)


def in_anticanonical_definitional(g, m: Monomial) -> bool:
    """True iff m + w lands in the ring for every canonical-module generator w."""
    return all(in_ring(g, m + w) for w in omega_generators(g))


def full_trace_equals_power(g, power):
    """The trace-power test over every ring point, in ascending order: no
    point of degree below `power` is in the trace and every point of
    degree `power` is.  The library searches one point per twin orbit,
    degree `power` first and descending."""
    cliques, rows = maximal_cliques(g), _clique_rows(g)
    for q in range(power):
        if any(_trace_miss(cliques, rows, [a], q, False) is not None for a in _slice(g, 0, q)):
            return False
    return all(_trace_miss(cliques, rows, [a], power, True) is None
               for a in _slice(g, 0, power))


def trace_contains_maximal_ideal(g) -> bool:
    """Oracle for near-Gorensteinness: every degree-one monomial in the trace."""
    cliques = maximal_cliques(g)
    return _trace_miss(cliques, _clique_rows(g), _slice(g, 0, 1), 1, True) is None


def colorable(adj, vertices, k):
    """Backtracking k-colourability of the graph `adj` induced on
    `vertices`, which come sorted by decreasing degree."""
    color = {}

    def assign(idx, used):
        if idx == len(vertices):
            return True
        v = vertices[idx]
        taken = {color[u] for u in color if adj[v] >> u & 1}
        # allowing one fresh colour caps the search at k while breaking
        # colour-permutation symmetry
        for c in range(min(k, used + 1)):
            if c in taken:
                continue
            color[v] = c
            if assign(idx + 1, max(used, c + 1)):
                return True
            del color[v]
        return False

    return assign(0, 0)


def stable_sets_by_scan(g):
    """The stable sets by scanning all 2^n vertex masks, ordered by size
    then lexicographically, as `stable_sets` orders them."""
    adj = _adjacency_masks(g)
    out = [tuple(v + 1 for v in _bits(mask)) for mask in range(1 << g.n)
           if not any(adj[v] & mask for v in _bits(mask))]
    return tuple(sorted(out, key=lambda s: (len(s), s)))


def perfect_by_coloring(g):
    """Perfection by definition: every induced subgraph H has a colouring
    with omega(H) colours.  Every clique of H lies in a maximal clique of
    the graph (Bron-Kerbosch), so omega(H) is the largest part of H in
    one of them."""
    adj = _adjacency_masks(g)
    full = (1 << g.n) - 1
    cliques = _maximal_clique_masks(adj, full)
    for mask in range(1, full + 1):
        omega = max((c & mask).bit_count() for c in cliques)
        vertices = sorted(_bits(mask), key=lambda v: -(adj[v] & mask).bit_count())
        if not colorable(adj, vertices, omega):
            return False
    return True


def has_odd_hole(g):
    """Induced odd cycle of length >= 5 present?"""
    adj = _adjacency_masks(g)
    for size in range(5, g.n + 1, 2):
        for subset in combinations(range(g.n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if all((adj[v] & mask).bit_count() == 2 for v in subset):
                # 2-regular induced subgraph: a cycle iff connected
                reach = 1 << subset[0]
                frontier = [subset[0]]
                while frontier:
                    v = frontier.pop()
                    for w in _bits(adj[v] & mask & ~reach):
                        reach |= 1 << w
                        frontier.append(w)
                if reach == mask:
                    return True
    return False


def perfect_by_holes(g):
    """Perfection by the Strong Perfect Graph Theorem (Chudnovsky,
    Robertson, Seymour and Thomas, 2006): no odd hole in the graph or its
    complement."""
    return not (has_odd_hole(g) or has_odd_hole(complement(g)))


def component_graph(g, component):
    """The subgraph of `g` induced on a `connected_components` entry,
    relabelled 1..k in the order of `component.vertices`, so that the
    component's dimension and purity can be read off its own cliques."""
    relabel = {v: k for k, v in enumerate(component.vertices, 1)}
    return Graph.from_edges(len(relabel), [(relabel[i], relabel[j])
                                           for i, j in g.edges if i in relabel])


def is_pure(g):
    """True when every maximal clique of `g` has the same number of
    vertices: with `component_graph`, the purity of one component, which
    the library reads off the whole graph's cliques instead."""
    sizes = {len(c) for c in maximal_cliques(g)}
    return len(sizes) <= 1


# -- posets -------------------------------------------------------------------

def polytope_point_count(p, kind, q):
    """Lattice points of the q-th dilate of the order or chain polytope of
    the poset `p`, whose counts agree (Stanley, "Two poset polytopes",
    1986).

    order: 0 <= y_e <= q with y_e <= y_f whenever e < f, counted along a
    linear extension (`_order_points`).
    chain: y >= 0 with sum over each maximal chain at most q, that is the
    degree-q ring points of the comparability graph.
    The dilation q is a nonnegative integer-like value, else a
    ParameterError, and so is a kind other than these two.
    """
    q = _ints((q,), ParameterError, "dilation factors")[0]
    if q < 0:
        raise ParameterError("dilation factor must be nonnegative")
    n = len(p)
    if kind == "order":
        # an element has more elements below it than anything below it does
        below = [0] * n
        for ups in p.lt:
            for j in ups:
                below[j] += 1
        order = sorted(range(n), key=below.__getitem__)
        return _order_points(p.lt, order, q, 0, [0] * n)
    if kind == "chain":
        # the empty poset has only the origin (and no clique inequality)
        if n == 0:
            return 1
        return hilbert_function(comparability_graph(p), q)
    raise ParameterError(f"kind must be 'order' or 'chain', got {kind!r}")


def _order_points(lt, order, q, idx, values):
    """The number of ways to give the elements order[idx:] values up to q,
    each at least the values of its predecessors, with `values` holding
    those of order[:idx]."""
    if idx == len(order):
        return 1
    e = order[idx]
    lower = max((values[d] for d in order[:idx] if e in lt[d]), default=0)
    count = 0
    for y in range(lower, q + 1):
        values[e] = y
        count += _order_points(lt, order, q, idx + 1, values)
    return count


# -- numerical semigroups -------------------------------------------------------

class TableSemigroup(NamedTuple):
    """A numerical semigroup as read off its membership table
    (`table_semigroup`), to compare field by field with the library's."""

    generators: tuple   # sorted, without repeats
    gaps: tuple
    frobenius: int
    conductor: int
    members: frozenset  # the members below the conductor
    apery: tuple        # per residue r mod min(generators), its least member


def table_semigroup(generators):
    """The semigroup from a membership table of 2 * min * max + 1 entries:
    the largest gap is below min(gens) * max(gens)."""
    gens = tuple(sorted(set(generators)))
    _check_table_size(gens[0], gens[-1])
    size = 2 * gens[0] * gens[-1] + 1
    member = [False] * size
    member[0] = True
    for x in range(1, size):
        member[x] = any(x >= gen and member[x - gen] for gen in gens)
    gaps = [x for x in range(1, size) if not member[x]]
    frobenius = gaps[-1] if gaps else -1
    conductor = frobenius + 1
    m = gens[0]
    apery = tuple(next(x for x in range(r, size, m) if member[x]) for r in range(m))
    below = frozenset(x for x in range(conductor) if member[x])
    return TableSemigroup(gens, tuple(gaps), frobenius, conductor, below, apery)


def members_upto(h, bound):
    """The members of the semigroup `h` below `bound`, ascending."""
    return [x for x in range(bound) if h.contains(x)]


def ideal_members_upto(ideal, bound):
    """The members of an IntegerIdeal below `bound`, ascending."""
    top = ideal.min + ideal.semigroup.conductor
    small = [z for z in sorted(ideal.window) if z < bound]
    return small + list(range(top, max(top, bound)))


def apery_of_window(ideal):
    """The Apery vector of an IntegerIdeal read off its window: per class
    r mod min(generators), the least window member, else the first
    integer of the class from min + conductor on."""
    m, top = ideal.semigroup.generators[0], ideal.min + ideal.semigroup.conductor
    ap = [top + (r - top) % m for r in range(m)]
    for z in ideal.window:
        ap[z % m] = min(ap[z % m], z)
    return tuple(ap)


def ideal_from_test(h, test, lo, hi):
    """{z : test(z)} as an IntegerIdeal whose minimum lies in [lo, hi]."""
    mn = next(z for z in range(lo, hi + 1) if test(z))
    window = frozenset(z for z in range(mn, mn + h.conductor) if test(z))
    return IntegerIdeal(h, mn, window)


def scan_canonical_ideal(h):
    return ideal_from_test(h, lambda z: not h.contains(h.frobenius - z), 0, 0)


def scan_quotient(target, ideal):
    """{z : z + ideal inside target}, testing the ideal members below
    target.min + conductor - z; past them z + e is in the target's tail."""
    h = target.semigroup
    top = target.min + h.conductor

    def test(z):
        return all(target.contains(z + e)
                   for e in ideal_members_upto(ideal, max(ideal.min, top - z)))

    # z = target.min + conductor - ideal.min always works
    return ideal_from_test(h, test, target.min - ideal.min, top - ideal.min)


def scan_sum(a, b):
    """{x + y}: z is a sum iff z - x is in b for some member x of a."""
    def test(z):
        return any(b.contains(z - x) for x in ideal_members_upto(a, z - b.min + 1))

    return ideal_from_test(a.semigroup, test, a.min + b.min, a.min + b.min)


def scan_trace_ideal(h):
    k = scan_canonical_ideal(h)
    semigroup = ideal_from_test(h, h.contains, 0, 0)
    return scan_sum(k, scan_quotient(semigroup, k))


def scan_residue(h):
    """Semigroup members missing from the trace, counted one by one."""
    tr = scan_trace_ideal(h)
    bound = max(h.conductor, tr.min + h.conductor)
    return sum(1 for x in members_upto(h, bound) if not tr.contains(x))
