"""Graph layer: cliques, components, purity, perfection, stable sets."""

import json
import random
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
import pytest
from oracles import (
    clique_dim,
    component_graph,
    is_pure,
    perfect_by_coloring,
    perfect_by_holes,
    stable_sets_by_scan,
)

from gstab import graphs as graphs_module
from gstab.cli import _graph_payload
from gstab.errors import FormatError, ParameterError, SizeGuardError
from gstab.graphs import (
    Graph,
    complement,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    graphs_up_to_iso,
    is_perfect,
    maximal_cliques,
    parse_graph_json,
    path_graph,
    paw_graph,
    stable_sets,
)


# -- independent brute-force oracles ----------------------------------------

def brute_maximal_cliques(g: Graph):
    """All subsets, keep cliques, keep the inclusion-maximal ones."""
    verts = range(1, g.n + 1)
    cliques = [set(s) for size in range(1, g.n + 1)
               for s in combinations(verts, size)
               if all(g.has_edge(i, j) for i, j in combinations(s, 2))]
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted(tuple(sorted(c)) for c in maximal)


def brute_stable_sets(g: Graph):
    verts = range(1, g.n + 1)
    out = [s for size in range(g.n + 1) for s in combinations(verts, size)
           if not any(g.has_edge(i, j) for i, j in combinations(s, 2))]
    return sorted(out, key=lambda s: (len(s), s))


def brute_clique_count(g: Graph):
    """Number of cliques including the empty one."""
    verts = range(1, g.n + 1)
    return sum(1 for size in range(g.n + 1) for s in combinations(verts, size)
               if all(g.has_edge(i, j) for i, j in combinations(s, 2)))


# -- maximal cliques ---------------------------------------------------------

def test_maximal_cliques_complete():
    assert maximal_cliques(complete_graph(3)) == ((1, 2, 3),)


def test_maximal_cliques_path():
    assert maximal_cliques(path_graph(3)) == ((1, 2), (2, 3))


def test_maximal_cliques_paw_against_brute():
    cliques = maximal_cliques(paw_graph())
    assert list(cliques) == brute_maximal_cliques(paw_graph())
    assert cliques == ((1, 2, 3), (3, 4))


def test_maximal_cliques_match_brute_on_all_small_graphs():
    for n in range(1, 6):
        for g in graphs_up_to_iso(n):
            assert list(maximal_cliques(g)) == brute_maximal_cliques(g)


def test_isolated_vertex_is_a_maximal_clique():
    g = disjoint_union(complete_graph(2), complete_graph(1))
    assert (3,) in maximal_cliques(g)


def test_every_vertex_in_some_maximal_clique():
    for n in range(1, 6):
        for g in graphs_up_to_iso(n):
            covered = {v for c in maximal_cliques(g) for v in c}
            assert covered == set(range(1, n + 1))


# -- components --------------------------------------------------------------

def test_components_k3_plus_k1():
    g = disjoint_union(complete_graph(3), complete_graph(1))
    comps = connected_components(g)
    assert [component_graph(g, c).n for c in comps] == [3, 1]
    assert comps[0].vertices == (1, 2, 3)
    assert comps[1].vertices == (4,)


def test_components_connected_graph_is_itself():
    g = path_graph(4)
    comps = connected_components(g)
    assert len(comps) == 1
    assert component_graph(g, comps[0]) == g


def test_components_sorted_by_dim():
    # K1 u K2 must come back as [K2, K1] (dims 1 >= 0)
    g = disjoint_union(complete_graph(1), complete_graph(2))
    comps = connected_components(g)
    assert [component_graph(g, c).n for c in comps] == [2, 1]
    assert comps[0].vertices == (2, 3)


def test_components_carry_their_dim_and_purity(union_corpus):
    """`Component.dim` and `Component.pure`, read off the whole graph's
    cliques, are the clique-complex dimension and the purity of the
    component's own graph, on every graph with at most seven vertices,
    perfect or not, and on the union corpus."""
    graphs = [g for n in range(1, 8) for g in graphs_up_to_iso(n)]
    assert len(graphs) == 1252
    graphs += [g for _, g in union_corpus]
    for g in graphs:
        comps = connected_components(g)
        assert sorted(v for c in comps for v in c.vertices) == list(range(1, g.n + 1)), g
        for c in comps:
            sub = component_graph(g, c)
            assert (c.dim, c.pure) == (clique_dim(sub), is_pure(sub)), g


def test_component_relabeling_preserves_edges():
    g = Graph.from_edges(5, [(2, 4), (1, 5)])
    for comp in connected_components(g):
        for i, j in component_graph(g, comp).edges:
            assert g.has_edge(comp.vertices[i - 1], comp.vertices[j - 1])


# -- purity ------------------------------------------------------------------

def test_is_pure():
    assert is_pure(path_graph(3))
    assert not is_pure(paw_graph())
    assert not is_pure(disjoint_union(complete_graph(2), complete_graph(1)))


# -- perfection --------------------------------------------------------------

def test_c5_not_perfect():
    c5 = cycle_graph(5)
    assert clique_dim(c5) == 1
    assert not is_perfect(c5)


def test_complete_graphs_perfect():
    for n in range(1, 7):
        assert is_perfect(complete_graph(n))


def test_c4_perfect():
    assert is_perfect(cycle_graph(4))


def union(*parts: Graph) -> Graph:
    g = parts[0]
    for h in parts[1:]:
        g = disjoint_union(g, h)
    return g


def relabel(g: Graph, rng: random.Random) -> Graph:
    """g with its labels shuffled, so that components interleave."""
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])


def wheel(k: int) -> Graph:
    """A k-cycle and one vertex adjacent to all of it: for odd k >= 5 it
    is imperfect, but omega * alpha >= |V| holds on the whole wheel."""
    return Graph.from_edges(k + 1, list(cycle_graph(k).edges)
                            + [(i, k + 1) for i in range(1, k + 1)])


def complete_multipartite(*parts: int) -> Graph:
    """Blocks of the given sizes on consecutive labels, two vertices
    adjacent iff they lie in different blocks."""
    block = [b for b, size in enumerate(parts) for _ in range(size)]
    return Graph(len(block), [(i + 1, j + 1) for i, j in combinations(range(len(block)), 2)
                              if block[i] != block[j]])


def join(g: Graph, h: Graph) -> Graph:
    """The disjoint union of g and h (h's labels shifted up by g.n) with
    every vertex of g adjacent to every vertex of h."""
    across = [(i, j) for i in range(1, g.n + 1) for j in range(g.n + 1, g.n + h.n + 1)]
    return Graph(g.n + h.n, list(disjoint_union(g, h).edges) + across)


def seeded_connected_graph(rng: random.Random, n: int) -> Graph:
    """The first connected graph of n vertices that `rng` draws, each at
    an edge density drawn from 0.2..0.8."""
    while True:
        p = rng.uniform(0.2, 0.8)
        g = Graph(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p])
        if len(connected_components(g)) == 1:
            return g


def test_perfection_agrees_with_hole_and_coloring_oracles():
    """Lovasz's criterion, the Strong Perfect Graph Theorem and the
    definition agree on every graph with at most seven vertices, on seeded
    random graphs on eight to ten vertices, on disjoint unions on eight to
    twelve vertices whose imperfect part, if any, is often not the first
    component, nor the whole of its component, nor labelled apart from
    the others, and on connected graphs of eleven and twelve vertices with
    many maximal cliques or stable sets.  `perfect_by_holes` reads no
    clique at all."""
    graphs = [g for n in range(1, 8) for g in graphs_up_to_iso(n)]
    assert len(graphs) == 1252
    rng = random.Random(1972)
    for n in range(8, 11):
        for _ in range(10):
            p = rng.uniform(0.2, 0.8)
            graphs.append(Graph.from_edges(
                n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]))
    c5, c7 = cycle_graph(5), cycle_graph(7)
    unions = [
        union(complete_graph(3), c5),
        union(path_graph(4), c7),
        union(complete_graph(2), path_graph(3), c5),
        union(cycle_graph(4), complete_graph(1), c7),
        union(complete_graph(2), empty_graph(1), complement(c7)),
        union(path_graph(3), wheel(5), complete_graph(2)),
        # C5 with a pendant vertex: omega * alpha = 6 on the whole component
        union(complete_graph(4), Graph.from_edges(6, list(c5.edges) + [(5, 6)])),
        union(complete_graph(5), path_graph(3)),
    ]
    pieces = [c5, c7, complement(c7), wheel(5), complete_graph(3), path_graph(4),
              cycle_graph(4), cycle_graph(6), empty_graph(2), paw_graph()]
    while len(unions) < 32:
        parts = [rng.choice(pieces) for _ in range(rng.randint(2, 3))]
        g = union(*parts)
        if 8 <= g.n <= 12:
            unions.append(relabel(g, rng))
    graphs += unions
    comparability = seeded_comparability_graph()
    large = [
        complete_multipartite(3, 3, 3, 3),
        complete_multipartite(2, 2, 2, 2, 2, 2),
        # the C5 on labels 8..12, the last subset of its size to be tested
        join(complete_graph(7), c5),
        comparability,
        complement(comparability),
    ]
    assert [len(maximal_cliques(g)) for g in large[:2]] == [81, 64]
    assert all(len(connected_components(g)) == 1 for g in large)
    large += [seeded_connected_graph(rng, n) for n in (11, 11, 12, 12)]
    graphs += large
    verdicts = [(is_perfect(g), perfect_by_holes(g), perfect_by_coloring(g)) for g in graphs]
    assert all(a == b == c for a, b, c in verdicts)
    # the perfect graphs on at most seven vertices, as `verify --max-n 7` counts them
    assert sum(a for a, _, _ in verdicts[:1252]) == 1105
    assert {a for a, _, _ in verdicts[1252:1282]} == {True, False}
    assert [a for a, _, _ in verdicts[1282:1290]] == [False] * 7 + [True]
    assert {a for a, _, _ in verdicts[1290:1314]} == {True, False}
    assert [a for a, _, _ in verdicts[1314:]] == [True, True, False, True, True,
                                                  False, True, False, True]


@pytest.mark.parametrize("g, searches", [
    pytest.param(union(complete_graph(5), path_graph(3)), 2, id="K5+P3"),
    pytest.param(union(complete_graph(3), complete_graph(3), complete_graph(1)), 0,
                 id="K3+K3+K1"),
    pytest.param(union(complete_graph(3), cycle_graph(5)), 2, id="K3+C5"),  # imperfect
    pytest.param(path_graph(7), 2, id="P7"),                                # connected
])
def test_perfection_searches_within_components(monkeypatch, g, searches):
    """Two Bron-Kerbosch searches, for the maximal cliques and then the
    maximal stable sets, per component of at least five vertices, each
    over the whole component, up to the first component that fails: the
    K5 alone in K5+P3, the C5 alone in K3+C5, none in K3+K3+K1 (its
    subsets of at most four vertices always pass) and all of P7.  Counted
    at the top-level calls of `_extend_clique`, one per search."""
    counted = []
    extend = graphs_module._extend_clique

    def counting(adj, r, p, x, cliques):
        if r == 0:
            counted.append(p)
        return extend(adj, r, p, x, cliques)

    monkeypatch.setattr(graphs_module, "_extend_clique", counting)
    # the undecorated test, so that no cached verdict hides the searches
    graphs_module._perfect.__wrapped__(g)
    assert len(counted) == searches
    comps = graphs_module._component_masks(graphs_module._adjacency_masks(g))
    assert all(p in comps and p.bit_count() >= 5 for p in counted)
    assert counted[0::2] == counted[1::2]


def brute_maximal_masks(within: int, adjacent) -> list[int]:
    """The vertex masks inside `within` whose pairs (0-based) all satisfy
    `adjacent` and that no further vertex of `within` extends, ascending:
    the maximal cliques of the subgraph on `within`, by scanning every
    subset of it."""
    verts = [v for v in range(within.bit_length()) if within >> v & 1]

    def fits(mask):
        return all(adjacent(i, j) for i, j in combinations(verts, 2)
                   if mask >> i & 1 and mask >> j & 1)

    found, h = [], 0
    while h := (h - within) & within:
        if fits(h) and not any(fits(h | 1 << v) for v in verts if not h >> v & 1):
            found.append(h)
    return found


def test_component_searches_match_brute_force():
    """`_maximal_clique_masks` on one component, with the graph's and with
    the complement's adjacency as `_perfect` passes them, lists the
    maximal cliques and the maximal stable sets of the component's own
    subgraph: on every component of every graph with at most seven
    vertices, and of seeded disconnected graphs on eight to twelve
    vertices with their labels shuffled, so that a component is a proper
    vertex subset that is not a block of consecutive labels."""
    graphs = [g for n in range(1, 8) for g in graphs_up_to_iso(n)]
    rng = random.Random(1998)
    seeded = []
    while len(seeded) < 16:
        parts = [seeded_connected_graph(rng, rng.randint(1, 7)) for _ in range(rng.randint(2, 4))]
        g = union(*parts)
        if 8 <= g.n <= 12:
            seeded.append(relabel(g, rng))
    graphs += seeded
    for g in graphs:
        adj = graphs_module._adjacency_masks(g)
        co_adj = graphs_module._adjacency_masks(complement(g))
        comps = graphs_module._component_masks(adj)
        assert len(comps) >= 2 or g.n <= 7
        for comp in comps:
            def edge(i, j):
                return g.has_edge(i + 1, j + 1)

            assert sorted(graphs_module._maximal_clique_masks(adj, comp)) == \
                brute_maximal_masks(comp, edge), (g, comp)
            assert sorted(graphs_module._maximal_clique_masks(co_adj, comp)) == \
                brute_maximal_masks(comp, lambda i, j: not edge(i, j)), (g, comp)


def lovasz_numbers(g: Graph, within: int):
    """The function taking a subset h of the vertex mask `within` to
    (omega, alpha) of the subgraph of `g` on h, read as `_perfect` reads
    them: the most vertices h shares with one maximal clique, and with one
    maximal stable set, of the subgraph on `within`."""
    cliques = graphs_module._maximal_clique_masks(graphs_module._adjacency_masks(g), within)
    stables = graphs_module._maximal_clique_masks(
        graphs_module._adjacency_masks(complement(g)), within)
    return lambda h: (max((h & c).bit_count() for c in cliques),
                      max((h & s).bit_count() for s in stables))


def test_subsets_of_at_most_four_vertices_pass_lovasz():
    """Every graph on at most four vertices is perfect, so
    omega(H) * alpha(H) >= |V(H)| holds on each of its induced subgraphs H:
    this is why `_perfect` tests no such subset, and searches no component
    of fewer than five vertices.  Checked on the 19 graphs up to
    isomorphism, with omega and alpha read as `_perfect` reads them."""
    graphs = [g for n in range(5) for g in graphs_up_to_iso(n)]
    assert len(graphs) == 19
    for g in graphs:
        numbers = lovasz_numbers(g, (1 << g.n) - 1)
        for h in range(1, 1 << g.n):
            omega, alpha = numbers(h)
            assert omega * alpha >= h.bit_count(), (g, h)


def test_six_vertex_subsets_pass_lovasz():
    """By R(3, 3) = 6, every graph H on six vertices has
    omega(H) * alpha(H) >= 6, so `_perfect` tests no six-vertex subset
    either.  Checked on the 156 classes, with omega and alpha read as
    `_perfect` reads them; they still hold imperfect graphs, C5 + K1
    among them (omega * alpha = 2 * 3 = 6), which fail on a five-vertex
    subset."""
    graphs = list(graphs_up_to_iso(6))
    assert len(graphs) == 156
    full = (1 << 6) - 1
    for g in graphs:
        omega, alpha = lovasz_numbers(g, full)(full)
        assert omega * alpha >= 6, g

    def canonical(g):
        return graphs_module._canonical_mask(graphs_module._adjacency_masks(g))

    imperfect = {canonical(g) for g in graphs if not is_perfect(g)}
    assert canonical(union(cycle_graph(5), complete_graph(1))) in imperfect


def test_perfection_searches_on_seven_vertices(monkeypatch):
    """The 1044 classes on seven vertices take 2014 Bron-Kerbosch
    searches in all, two per component of at least five vertices up to
    the first that fails, and 906 are perfect."""
    calls = [0]
    extend = graphs_module._extend_clique

    def counting(adj, r, p, x, cliques):
        calls[0] += r == 0
        return extend(adj, r, p, x, cliques)

    monkeypatch.setattr(graphs_module, "_extend_clique", counting)
    graphs = list(graphs_up_to_iso(7))
    assert len(graphs) == 1044
    assert sum(graphs_module._perfect.__wrapped__(g) for g in graphs) == 906
    assert calls[0] == 2014


def seeded_comparability_graph() -> Graph:
    """The comparability graph of a seeded poset on 12 elements, generated
    by relations i < j each taken with probability 1/4: connected, with 27
    edges."""
    from gstab.posets import comparability_graph, poset_from_covers

    rng = random.Random(1972)
    pairs = [p for p in combinations(range(12), 2) if rng.random() < 0.25]
    return comparability_graph(poset_from_covers(range(12), pairs))


@pytest.mark.parametrize("g, frames", [
    pytest.param(path_graph(7), 27, id="P7"),
    pytest.param(union(complete_graph(5), path_graph(3)), 12, id="K5+P3"),
    pytest.param(seeded_comparability_graph(), 40, id="comparability12"),
])
def test_clique_search_frames_pinned(monkeypatch, g, frames):
    """Bron-Kerbosch with pivoting, pinned by the number of its frames
    over one perfection test, which searches the maximal cliques and the
    maximal stable sets of each component of at least five vertices: a
    change of pivot rule or of branching order moves the count."""
    counted = [0]
    extend = graphs_module._extend_clique

    def counting(*args):
        counted[0] += 1
        return extend(*args)

    monkeypatch.setattr(graphs_module, "_extend_clique", counting)
    assert graphs_module._perfect.__wrapped__(g)
    assert counted[0] == frames


def test_perfection_self_complementary():
    for n in range(1, 6):
        for g in graphs_up_to_iso(n):
            assert is_perfect(g) == is_perfect(complement(g))


def test_perfection_size_guard(monkeypatch):
    monkeypatch.delenv("GSTAB_SIZE_LIMIT", raising=False)
    with pytest.raises(SizeGuardError, match="perfection test limited to 12 vertices, got 13"):
        is_perfect(empty_graph(13))
    monkeypatch.setenv("GSTAB_SIZE_LIMIT", "13")
    assert is_perfect(empty_graph(13))


# -- stable sets -------------------------------------------------------------

def test_stable_sets_k2():
    assert stable_sets(complete_graph(2)) == ((), (1,), (2,))


def test_stable_sets_empty_graph():
    assert len(stable_sets(empty_graph(2))) == 4


def test_stable_sets_path():
    assert stable_sets(path_graph(3)) == ((), (1,), (2,), (3,), (1, 3))


def test_stable_sets_match_brute():
    for n in range(1, 6):
        for g in graphs_up_to_iso(n):
            assert list(stable_sets(g)) == brute_stable_sets(g)


def test_stable_sets_match_scan_of_every_mask():
    """The vertex-by-vertex build against the scan of all 2^n vertex
    masks, tuple for tuple, on every graph with at most seven vertices and
    on 200 seeded graphs with 8 to 12 vertices."""
    graphs = [g for n in range(8) for g in graphs_up_to_iso(n)]
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(8, 12)
        graphs.append(Graph.from_edges(n, [p for p in combinations(range(1, n + 1), 2)
                                           if rng.random() < 0.3]))
    for g in graphs:
        assert stable_sets(g) == stable_sets_by_scan(g), g


def test_stable_set_count_equals_complement_clique_count():
    for n in range(1, 6):
        for g in graphs_up_to_iso(n):
            assert len(stable_sets(g)) == brute_clique_count(complement(g))


# -- complement --------------------------------------------------------------

def test_complement_involution():
    for n in range(1, 6):
        for g in graphs_up_to_iso(n):
            assert complement(complement(g)) == g


# -- construction and parsing ------------------------------------------------

def test_graph_rejects_loops_and_bad_range():
    with pytest.raises(FormatError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(FormatError):
        Graph.from_edges(3, [(1, 4)])


def test_graph_rejects_non_integer_count_and_labels():
    with pytest.raises(FormatError, match="integer labels"):
        Graph.from_edges(3, [(1.5, 2)])
    with pytest.raises(FormatError, match="integer labels"):
        Graph(3, frozenset({(1.5, 2)}))
    with pytest.raises(FormatError, match="integer vertex count"):
        Graph(2.5, frozenset())
    with pytest.raises(FormatError, match="integer labels"):
        Graph.from_edges(3, [("1", 2)])
    with pytest.raises(FormatError, match="integer labels"):
        Graph.from_edges(3, [("1", "2")])
    with pytest.raises(FormatError, match="pairs"):
        Graph.from_edges(3, [(1, 2, 3)])


@pytest.mark.parametrize("build", [complete_graph, empty_graph, path_graph, cycle_graph])
@pytest.mark.parametrize("n", [2.5, 3.5, "4"])
def test_constructors_refuse_non_integer_counts(build, n):
    with pytest.raises(FormatError, match="vertex counts must be integers"):
        build(n)
    assert build(np.int64(4)) == build(4)


def test_graph_accepts_integer_like_values_as_ints():
    g = Graph.from_edges(np.int64(3), [(np.int64(2), np.int64(1)), (2, np.int32(3))])
    assert g == path_graph(3)
    assert type(g.n) is int
    assert all(type(v) is int for e in g.edges for v in e)
    assert Graph(np.int64(2), frozenset({(np.int64(1), 2)})) == complete_graph(2)


def test_graph_has_one_construction_rule():
    """`Graph` itself stores each pair as (min, max) and refuses loops and
    labels outside 1..n; `from_edges` is the same constructor."""
    assert Graph(3, {(2, 1)}) == Graph.from_edges(3, [(2, 1)]) == Graph(3, {(1, 2)})
    assert Graph(3, [(3, 2), (2, 3)]).edges == frozenset({(2, 3)})
    for edges, message in (([(2, 2)], "loop at vertex 2"), ([(4, 1)], r"\(1, 4\) out of range 1..3"),
                           ([(1, 0)], r"\(0, 1\) out of range")):
        for build in (Graph, Graph.from_edges):
            with pytest.raises(FormatError, match=message):
                build(3, edges)
    with pytest.raises(FormatError, match="nonnegative"):
        Graph(-1, ())


def test_parse_graph_json_roundtrip():
    g = parse_graph_json('{"n": 3, "edges": [[1, 2], [2, 3]]}')
    assert g == path_graph(3)


def test_graph_payload_roundtrips_through_parser():
    # the "input" block of a report parses back to the graph it describes
    rng = random.Random(1001)
    for _ in range(60):
        n = rng.randint(0, 9)
        g = Graph.from_edges(n, [p for p in combinations(range(1, n + 1), 2)
                                 if rng.random() < 0.4])
        assert parse_graph_json(json.dumps(_graph_payload(g))) == g


def test_parse_graph_json_rejects_duplicates():
    with pytest.raises(FormatError):
        parse_graph_json('{"n": 3, "edges": [[1, 2], [1, 2]]}')
    with pytest.raises(FormatError):
        parse_graph_json('{"n": 3, "edges": [[1, 2], [2, 1]]}')


def test_parse_graph_json_rejects_garbage():
    with pytest.raises(FormatError):
        parse_graph_json("not json")
    with pytest.raises(FormatError):
        parse_graph_json('{"n": 2}')
    with pytest.raises(FormatError):
        parse_graph_json('{"n": 2, "edges": [[1, 1]]}')
    with pytest.raises(FormatError):
        parse_graph_json('{"n": -1, "edges": []}')


# -- enumeration up to isomorphism -------------------------------------------

@lru_cache(maxsize=None)
def pair_permutations(n: int) -> tuple[tuple[int, ...], ...]:
    """For each vertex permutation, the induced permutation of pair slots."""
    pairs = list(combinations(range(n), 2))
    index = {p: k for k, p in enumerate(pairs)}
    return tuple(tuple(index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs)
                 for perm in permutations(range(n)))


def apply_pair_perm(mask: int, row: tuple[int, ...]) -> int:
    out = 0
    for src, dst in enumerate(row):
        if mask >> src & 1:
            out |= 1 << dst
    return out


def is_canonical_mask(mask: int, n: int) -> bool:
    """No relabelling gives a smaller pair mask (all n! of them are tried)."""
    return all(apply_pair_perm(mask, row) >= mask for row in pair_permutations(n))


def brute_graphs_up_to_iso(n: int):
    """Edge lists of the graphs with a canonical pair mask, by ascending mask."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        if is_canonical_mask(mask, n):
            yield sorted((i + 1, j + 1) for k, (i, j) in enumerate(pairs) if mask >> k & 1)


def test_graph_counts_up_to_iso():
    # standard counts of graphs on n unlabeled vertices (OEIS A000088)
    assert [sum(1 for _ in graphs_up_to_iso(n)) for n in range(9)] == \
        [1, 1, 2, 4, 11, 34, 156, 1044, 12346]


def test_canonical_form_does_not_depend_on_the_labelling():
    """Every class on at most 7 vertices, fed under three seeded
    relabellings, gives its layer mask; on at most 6 vertices that is also
    the least mask over all n! relabellings of the input fed.  The layers
    alone are canonical inputs already, so they cannot show this."""
    rng = random.Random(2901)
    for n in range(8):
        pairs = list(combinations(range(1, n + 1), 2))
        for g, mask in zip(graphs_up_to_iso(n), graphs_module._canonical_masks(n)):
            for _ in range(3):
                h = relabel(g, rng)
                assert graphs_module._canonical_mask(graphs_module._adjacency_masks(h)) == mask, h
            if n <= 6:
                fed = sum(1 << k for k, (i, j) in enumerate(pairs) if h.has_edge(i, j))
                assert min(apply_pair_perm(fed, row) for row in pair_permutations(n)) == mask


def test_enumeration_matches_brute_force_canonical_masks():
    for n in range(7):
        got = [g.sorted_edges() for g in graphs_up_to_iso(n)]
        assert got == list(brute_graphs_up_to_iso(n)), n


def test_enumeration_edge_cases(monkeypatch, no_layer_built):
    negative = graphs_up_to_iso(-1)   # lazy: nothing is checked until iterated
    with pytest.raises(ParameterError, match="nonnegative, got -1"):
        next(negative)
    monkeypatch.undo()   # lets the empty graph's layer be built
    assert list(graphs_up_to_iso(0)) == [Graph(0, frozenset())]


def test_enumeration_size_guard(monkeypatch, no_layer_built):
    """Above the cone guard (9 by default) nothing is built: 40 would
    otherwise build and keep every layer below it, without end."""
    monkeypatch.delenv("GSTAB_SIZE_LIMIT", raising=False)
    with pytest.raises(SizeGuardError, match="enumeration limited to 9 vertices, got 10"):
        next(graphs_up_to_iso(10))
    with pytest.raises(SizeGuardError, match="got 40"):
        next(graphs_up_to_iso(40))


@pytest.mark.parametrize("n", [2.5, "3"])
def test_enumeration_refuses_non_integer_counts(no_layer_built, n):
    with pytest.raises(ParameterError, match="vertex counts must be integers"):
        next(graphs_up_to_iso(n))


def test_only_c5_imperfect_on_five_vertices():
    bad = [g for g in graphs_up_to_iso(5) if not is_perfect(g)]
    assert len(bad) == 1
    assert clique_dim(bad[0]) == 1
    assert len(bad[0].edges) == 5
