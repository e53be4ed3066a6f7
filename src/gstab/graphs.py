"""Finite simple graphs: cliques, components, purity, perfection.

Vertices are labeled 1..n.  Edges are unordered pairs.  All values are
immutable and all operations are pure functions, so everything here is safe
to share across threads.  Perfection is decided by Lovasz's criterion
(omega(H) * alpha(H) >= |V(H)| on every induced subgraph H), tested on the
induced subgraphs of five or of seven and more vertices inside one connected
component (the others always pass), with omega and alpha read off the
component's maximal cliques and stable sets: exponential in the largest
component's size, and guarded by a vertex limit.  Enumeration up to
isomorphism is guarded by the cone-dimension limit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .config import check_size
from .errors import FormatError, ParameterError, _decode_json, _ints, _read_text

# Entries in each cache keyed on one graph: `maximal_cliques` and
# `_perfect`.  A sweep such as `verify` asks `is_perfect` and then
# `classify`, which asks again and looks up the graph's cliques (for its
# components, then for the oracle's inequalities) before it moves to a new
# graph; so a small bound keeps the hits within one graph while memory
# stays flat over the sweep.
GRAPH_CACHE_SIZE = 32


@dataclass(frozen=True)
class Graph:
    """A finite simple graph on vertices 1..n.

    The one rule for every graph: integer-like (`operator.index`) count
    and labels, stored as ints; each pair in either order, stored as
    (min, max); a loop or a label outside 1..n is a FormatError.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        index = operator.index
        try:
            n = index(self.n)
            pairs = [(index(i), index(j)) for i, j in self.edges]
        except (TypeError, ValueError):
            raise FormatError("need an integer vertex count and pairs of integer "
                              f"labels, got n={self.n!r}, edges {self.edges!r}") from None
        if n < 0:
            raise FormatError("vertex count must be nonnegative")
        edges = frozenset([(i, j) if i < j else (j, i) for i, j in pairs])
        for i, j in edges:
            if i == j:
                raise FormatError(f"loop at vertex {i}")
            if not (1 <= i and j <= n):
                raise FormatError(f"edge {(i, j)!r} out of range 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """`Graph(n, edges)`, under the name older callers use."""
        return Graph(n, edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class Component:
    """One connected component: its vertex labels, ascending, and the
    dimension and purity of its clique complex."""

    vertices: tuple[int, ...]
    dim: int     # its largest clique size minus one
    pure: bool   # whether all its maximal cliques have one size


# ---------------------------------------------------------------------------
# constructors

def _vertex_count(n) -> int:
    return _ints((n,), FormatError, "vertex counts")[0]


def complete_graph(n: int) -> Graph:
    n = _vertex_count(n)
    return Graph.from_edges(n, combinations(range(1, n + 1), 2))


def empty_graph(n: int) -> Graph:
    return Graph(_vertex_count(n), frozenset())


def path_graph(n: int) -> Graph:
    n = _vertex_count(n)
    return Graph.from_edges(n, ((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> Graph:
    n = _vertex_count(n)
    if n < 3:
        raise FormatError("a cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph.from_edges(n, edges)


def paw_graph() -> Graph:
    """Triangle on 1,2,3 with a pendant vertex 4 attached to 3."""
    return Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are shifted up by g.n."""
    edges = list(g.edges) + [(i + g.n, j + g.n) for i, j in h.edges]
    return Graph.from_edges(g.n + h.n, edges)


def complement(g: Graph) -> Graph:
    edges = [(i, j) for i, j in combinations(range(1, g.n + 1), 2)
             if not g.has_edge(i, j)]
    return Graph.from_edges(g.n, edges)


# ---------------------------------------------------------------------------
# file format

def parse_graph_json(text: str) -> Graph:
    """Parse {"n": int, "edges": [[i,j], ...]} with 1-based labels.

    File rules only: the JSON shape, integers that are not true or false,
    and no pair given twice in either order; `Graph` checks the rest.
    """
    data = _decode_json(text)
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise FormatError('graph file needs keys "n" and "edges"')
    n = data["n"]
    # bool is a subclass of int, and true must not read as one vertex
    if type(n) is not int:
        raise FormatError('"n" must be an integer')
    raw = data["edges"]
    if not isinstance(raw, list):
        raise FormatError('"edges" must be a list of pairs')
    seen = set()
    for pair in raw:
        if (not isinstance(pair, list)) or len(pair) != 2 \
                or not all(type(v) is int for v in pair):
            raise FormatError(f"bad edge entry: {pair!r}")
        key = (min(pair), max(pair))
        if key in seen:
            raise FormatError(f"duplicate or reversed edge {pair!r}")
        seen.add(key)
    return Graph(n, seen)


def load_graph(path: str) -> Graph:
    return parse_graph_json(_read_text(path))


# ---------------------------------------------------------------------------
# bitmask internals (vertices 0..n-1 inside, labels 1..n outside)

def _adjacency_masks(g: Graph) -> tuple[int, ...]:
    adj = [0] * g.n
    for i, j in g.edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return tuple(adj)


def _maximal_clique_masks(adj: tuple[int, ...], subset: int) -> list[int]:
    """Bron-Kerbosch with pivoting, restricted to the vertices in `subset`."""
    cliques: list[int] = []
    _extend_clique(adj, 0, subset, 0, cliques)
    return cliques


def _extend_clique(adj: tuple[int, ...], r: int, p: int, x: int, cliques: list[int]):
    """Append to `cliques` every maximal clique that holds the clique `r`,
    draws its other vertices from `p` and none from `x`.  Every later `p`
    and `x` stays inside the first call's `p`, since `x` only gains
    vertices of `p`.  The package's one clique search, module-level so
    that no call leaves a reference cycle: a nested recursive function
    refers to itself through its closure.
    """
    if p == 0 and x == 0:
        cliques.append(r)
        return
    piv_pool = p | x
    # pivot: vertex of p|x with the most neighbours inside p
    pivot = max(_bits(piv_pool), key=lambda v: (p & adj[v]).bit_count())
    for v in _bits(p & ~adj[pivot]):
        bit = 1 << v
        _extend_clique(adj, r | bit, p & adj[v], x & adj[v], cliques)
        p &= ~bit
        x |= bit


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _component_masks(adj: tuple[int, ...]) -> list[int]:
    """The vertex mask of each connected component, by lowest vertex."""
    comps = []
    left = (1 << len(adj)) - 1
    while left:
        # from the lowest vertex left, add the neighbours of the newest layer
        comp = layer = left & -left
        while layer:
            reach = 0
            for v in _bits(layer):
                reach |= adj[v]
            layer = reach & ~comp
            comp |= layer
        left &= ~comp
        comps.append(comp)
    return comps


# ---------------------------------------------------------------------------
# operations

@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def maximal_cliques(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All inclusion-maximal cliques, lexicographically sorted.

    An isolated vertex i contributes the singleton clique (i,).
    """
    masks = _maximal_clique_masks(_adjacency_masks(g), (1 << g.n) - 1)
    return tuple(sorted(tuple(v + 1 for v in _bits(m)) for m in masks))


def connected_components(g: Graph) -> tuple[Component, ...]:
    """Vertex-induced components, with their clique-complex dimension and
    purity, read off the maximal cliques of `g`: each lies in exactly one
    component.

    Sorted by descending clique-complex dimension, impure before pure
    within a dimension, then by smallest vertex label.  The (dimension,
    purity) sequence is therefore the same for every labelling of the
    graph.
    """
    cliques = maximal_cliques(g)
    built = []
    for comp in _component_masks(_adjacency_masks(g)):
        sizes = {len(c) for c in cliques if comp >> (c[0] - 1) & 1}
        built.append(Component(tuple(v + 1 for v in _bits(comp)),
                               max(sizes) - 1, len(sizes) == 1))
    built.sort(key=lambda c: (-c.dim, c.pure, c.vertices[0]))
    return tuple(built)


def stable_sets(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All stable (independent) vertex sets, the empty set included.

    Ordered by size then lexicographically.  These index the degree-one
    generators of the stable set ring; `_stable_masks` grows them.
    """
    sets = (tuple(v + 1 for v in _bits(m)) for m in _stable_masks(_adjacency_masks(g)))
    return tuple(sorted(sets, key=lambda s: (len(s), s)))


def _stable_masks(adj: tuple[int, ...]) -> list[int]:
    """The vertex bitsets of all stable sets, the empty set first.

    Grown from the last vertex down: each set found so far is kept, and
    extended by the vertex if it holds none of the vertex's neighbours, so
    the sets holding a vertex follow those that do not: the sets come in
    ascending lexicographic order of their 0/1 vectors.
    """
    masks = [0]
    for v in reversed(range(len(adj))):
        masks += [m | 1 << v for m in masks if not m & adj[v]]
    return masks


def is_perfect(g: Graph) -> bool:
    """Is the graph perfect?

    Decided by Lovasz's criterion (1972): a graph is perfect iff
    omega(H) * alpha(H) >= |V(H)| for every induced subgraph H.  Only the
    subgraphs inside one connected component are tested: if H splits into
    parts H1, H2 with no edge between them, omega(H) is the larger of
    omega(H1), omega(H2) and alpha(H) = alpha(H1) + alpha(H2), so
    omega(H) * alpha(H) >= omega(H1) * alpha(H1) + omega(H2) * alpha(H2),
    and H passes when its parts do.  Subgraphs of at most four vertices
    and of exactly six always pass and are not tested (`_perfect`, which
    also says where omega and alpha come from).  The scan still walks
    sum 2^|C| subsets over the components C, all 2^n for a connected
    graph, so the perfection guard of `config` caps the vertex count.
    """
    check_size("perfection test", g.n)
    return _perfect(g)


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _perfect(g: Graph) -> bool:
    """Lovasz's test on the subsets of five or of seven and more vertices
    of each component, ascending, up to the first failing one
    (`is_perfect`).

    Each component of at least five vertices lists its maximal cliques
    and maximal stable sets, and omega(H) is the most vertices H shares
    with one of those cliques, alpha(H) with one of those stable sets:
    every clique (stable set) of H lies in a maximal one of the component.

    The skipped subsets H always pass.  With at most four vertices, H is
    perfect (C5 is the smallest imperfect graph), and a perfect H has
    |V(H)| <= chi(H) * alpha(H) = omega(H) * alpha(H).  With six vertices,
    Ramsey's R(3, 3) = 6 gives omega(H) >= 3 or alpha(H) >= 3, and the
    other number is at least 2 unless H is complete or edgeless, where
    omega(H) * alpha(H) = 6 anyway; so omega(H) * alpha(H) >= 6.  Skipping
    them leaves the first failing subset, and so every verdict, as it is:
    C5 + K1 passes on all six vertices and fails on its C5.
    """
    adj = _adjacency_masks(g)
    full = (1 << g.n) - 1
    # the complement's adjacency: its cliques are the stable sets
    co_adj = tuple(full & ~a & ~(1 << v) for v, a in enumerate(adj))
    for comp in _component_masks(adj):
        if comp.bit_count() < 5:
            continue
        cliques = _maximal_clique_masks(adj, comp)
        stables = _maximal_clique_masks(co_adj, comp)
        # the nonempty subsets of comp in ascending order
        h = 0
        while h := (h - comp) & comp:
            if (k := h.bit_count()) > 4 and k != 6 and \
                    max((h & c).bit_count() for c in cliques) * \
                    max((h & s).bit_count() for s in stables) < k:
                return False
    return True


# ---------------------------------------------------------------------------
# enumeration up to isomorphism (vertex augmentation)
#
# A graph on vertices 0..n-1 is encoded as a pair mask: bit k is set when the
# k-th pair of combinations(range(n), 2) is an edge.  Each isomorphism class
# is represented by the graph whose mask is the least over all relabellings.

def _twin_masks(adj: list[int]) -> list[int]:
    """For each vertex, the vertices with its neighbourhood apart from
    each other; swapping two such twins is an automorphism."""
    twins = [0] * len(adj)
    for u, v in combinations(range(len(adj)), 2):
        if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
            twins[u] |= 1 << v
            twins[v] |= 1 << u
    return twins


def _canonical_mask(adj: list[int]) -> int:
    """The smallest pair mask over all relabellings of the graph `adj`.

    The pairs (i, j), j > i, of position i are a block of bits above every
    block of a lower position, and bit j - i - 1 of the block is the edge
    between the vertices at positions i and j.  So positions are filled
    from n - 1 downwards, and a vertex may take position i only if its
    block there (its edges to the vertices already placed) is the least
    over all partial placements left.  A placement is its unplaced vertices
    as a flat tuple of (block, cell bitset) pairs by ascending block;
    placing v splits each cell into non-neighbours (block * 2) and then
    neighbours (block * 2 + 1) of v, and only branches whose first block
    is the least at their step are built.  Of two twins one is tried, and
    equal placements merge.  All 12346 classes on 8 vertices take 1.1 s.
    """
    n = len(adj)
    twins = _twin_masks(adj)
    placements, mask = {(0, (1 << n) - 1)}, 0
    for i in range(n - 1, 0, -1):
        low = 1 << n   # above every block
        for cells in placements:
            first = left = cells[1]
            tried = 0
            while left:
                bit = left & -left
                left ^= bit
                v = bit.bit_length() - 1
                if twins[v] & tried:
                    continue
                tried |= bit
                row = adj[v]
                other = ~(row | bit)
                k = 0 if first ^ bit else 2   # the first cell left after v
                code = cells[k] << 1 | (not cells[k + 1] & other)
                if code > low:
                    continue
                if code < low:
                    low, grown = code, set()
                split, it = [], iter(cells)
                for block, cell in zip(it, it):
                    if part := cell & other:
                        split += block << 1, part
                    if part := cell & row:
                        split += block << 1 | 1, part
                grown.add(tuple(split))
        mask = mask << n - i | low   # position i - 1's block, below the rest
        placements = grown
    return mask


@lru_cache(maxsize=None)
def _canonical_masks(n: int) -> tuple[int, ...]:
    """The canonical masks of the graphs on n vertices, ascending.

    Each graph arises from the canonical graph on n - 1 vertices isomorphic
    to it minus a vertex v, plus a new vertex playing v, for every v.  So
    the layer is built from the one below by adding a vertex with each
    neighbourhood, keeping only children whose new vertex has the largest
    (degree, sum of the neighbours' degrees), read off the parent's degrees
    (any vertex with it can play the new one).  Neighbourhoods that differ
    by swapping twins of the parent give the same child, so of each twin
    class only an initial segment may be chosen.  The 12346 classes on 8
    vertices take 16373 canonical forms.
    """
    if n <= 1:
        return (0,)
    x, found = n - 1, set()
    for parent in _canonical_masks(x):
        adj = [0] * x
        for k, (i, j) in enumerate(combinations(range(x), 2)):
            adj[i] |= (parent >> k & 1) << j
            adj[j] |= (parent >> k & 1) << i
        degrees = [a.bit_count() for a in adj]
        sums = [sum(degrees[u] for u in _bits(a)) for a in adj]
        of_degree = [sum(1 << v for v, e in enumerate(degrees) if e == d) for d in range(x + 1)]
        later_twins = [t >> (v + 1) << (v + 1) for v, t in enumerate(_twin_masks(adj))]
        for nbrs in range(1 << x):
            d = nbrs.bit_count()
            # no vertex may end with a larger degree, or the same and a larger sum
            if d < max(degrees) or nbrs & of_degree[d] or any(
                    nbrs & later_twins[v] for v in range(x) if not nbrs >> v & 1):
                continue
            own = d + sum(degrees[u] for u in _bits(nbrs))
            if all(sums[u] + (adj[u] & nbrs).bit_count() + (nbrs >> u & 1) * d <= own
                   for u in _bits(of_degree[d] & ~nbrs | of_degree[d - 1] & nbrs)):
                found.add(_canonical_mask(
                    [a | (nbrs >> v & 1) << x for v, a in enumerate(adj)] + [nbrs]))
    return tuple(sorted(found))


def graphs_up_to_iso(n: int):
    """Yield one representative per isomorphism class of graphs on n vertices,
    the graph with the smallest pair mask in each class, by ascending mask.

    Every layer below n is built and kept, so n above the cone-dimension
    guard of `config` is a SizeGuardError, and a negative or non-integer n
    a ParameterError, raised at the first `next()` before any layer is
    built.
    """
    n = _ints((n,), ParameterError, "vertex counts")[0]
    if n < 0:
        raise ParameterError(f"vertex count must be nonnegative, got {n}")
    check_size("enumeration", n)
    pairs = list(combinations(range(n), 2))
    for mask in _canonical_masks(n):
        edges = [(i + 1, j + 1) for k, (i, j) in enumerate(pairs) if mask >> k & 1]
        yield Graph.from_edges(n, edges)
