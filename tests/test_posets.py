"""Poset layer: comparability graphs, the X pattern, the two-block family,
antichains, and the polytope point counts of the test oracle."""

import json
import random
from itertools import combinations, product

import numpy as np
import pytest

from gstab.cli import _poset_payload
from gstab.errors import FormatError, ParameterError
from gstab.graphs import complete_graph, empty_graph, maximal_cliques, stable_sets
from gstab.posets import (
    Poset,
    antichain,
    antichains,
    chain,
    comparability_graph,
    has_x_subposet,
    hmp_poset,
    load_poset,
    ordinal_sum,
    parse_poset_json,
    poset_from_covers,
)
from gstab.toric import hilbert_function

from oracles import polytope_point_count


def x_poset():
    return poset_from_covers(
        ["a", "b", "x", "y", "z"],
        [("a", "x"), ("b", "x"), ("x", "y"), ("x", "z")],
    )


# -- brute-force oracles -----------------------------------------------------

def brute_antichains(p):
    n = len(p)
    out = []
    for mask in range(1 << n):
        members = [p.elements[i] for i in range(n) if mask >> i & 1]
        if all(not p.comparable(a, b) for a, b in combinations(members, 2)):
            out.append(tuple(members))
    return sorted(out, key=lambda s: (len(s), tuple(p.elements.index(e) for e in s)))


def brute_order_points(p, q):
    n = len(p)
    count = 0
    for y in product(range(q + 1), repeat=n):
        if all(y[i] <= y[j] for i in range(n) for j in p.lt[i]):
            count += 1
    return count


def maximal_chains(p):
    """Maximal chains as index tuples, found by DFS from minimal elements
    along cover relations."""
    n = len(p)
    minimal = [i for i in range(n) if not any(i in ups for ups in p.lt)]
    chains = []

    def walk(path):
        last = path[-1]
        succ = [j for j in p.lt[last]
                if not any(j in p.lt[k] for k in p.lt[last])]
        if not succ:
            chains.append(tuple(path))
            return
        for j in sorted(succ):
            walk(path + [j])

    for i in sorted(minimal):
        walk([i])
    return sorted(chains)


def brute_chain_points(p, q):
    n = len(p)
    chains = maximal_chains(p)
    count = 0
    for y in product(range(q + 1), repeat=n):
        if all(sum(y[i] for i in ch) <= q for ch in chains):
            count += 1
    return count


def brute_reach(n, pairs):
    """For each i, the indices reachable from i along one or more pairs."""
    succ = [[] for _ in range(n)]
    for i, j in pairs:
        succ[i].append(j)
    reach = []
    for i in range(n):
        seen, stack = set(), list(succ[i])
        while stack:
            j = stack.pop()
            if j not in seen:
                seen.add(j)
                stack.extend(succ[j])
        reach.append(frozenset(seen))
    return tuple(reach)


def random_dag(rng, n):
    """Index pairs along a random linear order of 0..n-1, in random order."""
    order = rng.sample(range(n), n)
    p = rng.random()
    pairs = [(a, b) for a, b in combinations(order, 2) if rng.random() < p]
    rng.shuffle(pairs)
    return pairs


def random_poset(rng, n, prefix):
    labels = [f"{prefix}{i}" for i in range(n)]
    return poset_from_covers(labels, [(labels[a], labels[b]) for a, b in random_dag(rng, n)])


# -- construction ------------------------------------------------------------

def test_from_covers_closure():
    p = poset_from_covers([1, 2, 3], [(1, 2), (2, 3)])
    assert p.less(1, 3)
    assert not p.less(3, 1)
    assert p.covers() == [(1, 2), (2, 3)]


def test_from_covers_rejects_cycle():
    with pytest.raises(FormatError):
        poset_from_covers([1, 2], [(1, 2), (2, 1)])


@pytest.mark.parametrize("lt", [(frozenset({1}),), (frozenset(),),
                                (frozenset(), frozenset(), frozenset())])
def test_poset_refuses_a_relation_row_count_other_than_the_element_count(lt):
    """A row that points past the rows given, or a missing or extra row,
    is a FormatError of the constructor, not an IndexError there or in
    `comparability_graph` later."""
    with pytest.raises(FormatError, match="rows for 2 elements"):
        Poset(("a", "b"), lt)


@pytest.mark.parametrize("elements, lt, message", [
    (("a", "b"), (frozenset({"x"}), frozenset()), "integer indices"),
    (("a", "b"), (5, frozenset()), "integer indices"),
    (("a", "b"), (frozenset({1.0}), frozenset()), "integer indices"),
    ((["a"], "b"), (frozenset({1}), frozenset()), "hashable"),
])
def test_poset_refuses_malformed_labels_and_relation_entries(elements, lt, message):
    """A non-integer index, a row that is no set and an unhashable label are
    each a FormatError of the constructor, not a TypeError inside it."""
    with pytest.raises(FormatError, match=message):
        Poset(elements, lt)


def test_from_covers_refuses_bad_labels_and_covers():
    """An unhashable element gets `Poset`'s message, and a cover that is
    no pair, or whose label is unhashable or no element, is refused where
    it is unpacked or looked up."""
    with pytest.raises(FormatError, match="labels must be hashable"):
        poset_from_covers([1, [2]], [])
    for cover in (([1], 2), (1, {2}), (1, 3), (1, 2, 3), (1,), 5):
        with pytest.raises(FormatError, match="not a pair of known labels"):
            poset_from_covers([1, 2], [cover])


def test_poset_accepts_integer_like_indices_as_ints():
    p = Poset(("a", "b"), (frozenset({np.int64(1)}), frozenset()))
    assert p == Poset(("a", "b"), (frozenset({1}), frozenset()))
    assert all(type(j) is int for row in p.lt for j in row)
    assert p.less("a", "b")


def test_from_covers_equals_reachability():
    rng = random.Random(1701)
    for _ in range(300):
        n = rng.randint(0, 9)
        pairs = random_dag(rng, n)
        p = poset_from_covers(range(n), pairs)
        assert p.lt == brute_reach(n, pairs), (n, pairs)


def test_from_covers_rejects_random_cycles():
    rng = random.Random(1702)
    for _ in range(100):
        n = rng.randint(2, 9)
        pairs = random_dag(rng, n)
        reach = brute_reach(n, pairs)
        closing = [(j, i) for i in range(n) for j in reach[i]]
        if not closing:
            continue
        pairs.append(rng.choice(closing))
        rng.shuffle(pairs)
        with pytest.raises(FormatError):
            poset_from_covers(range(n), pairs)


def test_parse_poset_json():
    p = parse_poset_json(
        '{"elements": ["m", "p", "c1", "c2"],'
        ' "covers": [["m", "p"], ["m", "c1"], ["c1", "c2"]]}')
    assert p == hmp_poset(4, 5)


@pytest.mark.parametrize("text", [
    '{"elements": [[1], [2]], "covers": []}',
    '{"elements": [1, {"a": 2}], "covers": []}',
    '{"elements": [1, 2], "covers": [[[1], 2]]}',
    '{"elements": 5, "covers": []}',
])
def test_parse_poset_json_rejects_bad_labels(text):
    with pytest.raises(FormatError):
        parse_poset_json(text)


def test_load_poset_reads_utf8_and_refuses_other_bytes(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"elements": ["m", "p", "c1", "c2"],'
                    ' "covers": [["m", "p"], ["m", "c1"], ["c1", "c2"]]}', encoding="utf-8")
    assert load_poset(str(path)) == hmp_poset(4, 5)
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(FormatError, match="not UTF-8 text"):
        load_poset(str(path))


# -- comparability graphs ----------------------------------------------------

def test_comparability_chain_is_complete():
    assert comparability_graph(chain(3)) == complete_graph(3)


def test_comparability_antichain_is_empty():
    assert comparability_graph(antichain(3)) == empty_graph(3)


@pytest.mark.parametrize("make", [chain, antichain])
def test_chain_and_antichain_check_size_and_labels(make):
    """Both constructors take an integer-like size k >= 0 and exactly k
    labels; anything else is a ParameterError."""
    assert len(make(np.int64(3))) == 3
    assert len(make(0)) == 0
    assert make(2, ["x", "y"]).elements == ("x", "y")
    for k in (2.5, "3", None):
        with pytest.raises(ParameterError, match="must be integers"):
            make(k)
    with pytest.raises(ParameterError, match="nonnegative"):
        make(-1)
    for k, labels in ((3, ["a"]), (1, ["a", "b"]), (0, ["a"])):
        with pytest.raises(ParameterError, match="label count"):
            make(k, labels)


def test_comparability_hmp45_is_triangle_plus_pendant():
    g = comparability_graph(hmp_poset(4, 5))
    # elements (m, p, c1, c2): triangle on {m, c1, c2}, pendant edge {m, p}
    assert g.n == 4
    assert g.sorted_edges() == [(1, 2), (1, 3), (1, 4), (3, 4)]


def test_hmp_graph_size():
    for a, b in [(4, 5), (4, 6), (5, 6), (4, 8), (6, 9)]:
        assert comparability_graph(hmp_poset(a, b)).n == b - 1


# -- the X pattern -----------------------------------------------------------

def test_chains_have_no_x():
    for k in range(1, 7):
        assert not has_x_subposet(chain(k))


def test_explicit_x_poset():
    assert has_x_subposet(x_poset())


def test_x_needs_both_incomparable_pairs():
    # comparable top pair kills the pattern
    p = poset_from_covers(
        ["a", "b", "x", "y", "z"],
        [("a", "x"), ("b", "x"), ("x", "y"), ("y", "z")])
    assert not has_x_subposet(p)
    # adding the witness relations back restores it
    assert has_x_subposet(x_poset())


def test_hmp_posets_have_no_x():
    for a, b in [(4, 5), (4, 6), (5, 6), (5, 8)]:
        assert not has_x_subposet(hmp_poset(a, b))


def test_x_survives_inside_a_larger_poset():
    p = poset_from_covers(
        ["a", "b", "x", "y", "z", "w"],
        [("a", "x"), ("b", "x"), ("x", "y"), ("x", "z"), ("w", "a"), ("w", "b")])
    assert has_x_subposet(p)


# -- ordinal sums ------------------------------------------------------------

def test_ordinal_sum_of_chains_is_a_chain():
    p = ordinal_sum(chain(2, ["a", "b"]), chain(2, ["c", "d"]))
    assert len(p) == 4
    assert all(p.comparable(x, y) for x, y in combinations(p.elements, 2))


def test_ordinal_sum_with_empty_is_identity():
    p = chain(3)
    assert ordinal_sum(chain(0), p) == p
    assert ordinal_sum(p, chain(0)) == p


def test_ordinal_sum_chain1_antichain2():
    p = ordinal_sum(chain(1, ["m"]), antichain(2, ["a", "b"]))
    assert p.less("m", "a") and p.less("m", "b")
    assert not p.comparable("a", "b")


def test_ordinal_sum_relabels_collisions():
    p = ordinal_sum(chain(2), chain(2))
    assert p.elements == ("c1", "c2", "c1'", "c2'")
    # a freshened label skips every label already in use
    p = ordinal_sum(antichain(2, ["a", "a'"]), antichain(2, ["a", "a'"]))
    assert p.elements == ("a", "a'", "a''", "a'''")


def test_ordinal_sum_keeps_parts_and_puts_p1_below_p2():
    rng = random.Random(1703)
    for _ in range(100):
        p1 = random_poset(rng, rng.randint(0, 5), "x")
        p2 = random_poset(rng, rng.randint(0, 5), "y")
        s = ordinal_sum(p1, p2)
        n1 = len(p1)
        assert s.elements == p1.elements + p2.elements
        for i in range(n1):
            assert s.lt[i] == p1.lt[i] | set(range(n1, len(s)))
        for j in range(len(p2)):
            assert s.lt[n1 + j] == {k + n1 for k in p2.lt[j]}


def test_ordinal_sum_is_associative():
    rng = random.Random(1704)
    for _ in range(60):
        p1, p2, p3 = (random_poset(rng, rng.randint(0, 4), "v") for _ in range(3))
        assert ordinal_sum(ordinal_sum(p1, p2), p3) == ordinal_sum(p1, ordinal_sum(p2, p3))


# -- the two-block family ----------------------------------------------------

def test_hmp45_structure():
    p = hmp_poset(4, 5)
    assert p.elements == ("m", "p", "c1", "c2")
    assert p.less("m", "p") and p.less("m", "c1") and p.less("c1", "c2")
    assert not p.comparable("p", "c1")
    assert not p.comparable("p", "c2")


def test_hmp46_structure():
    p = hmp_poset(4, 6)
    assert len(p) == 5
    assert p.elements[0] == "b1"
    assert all(p.less("b1", e) for e in p.elements[1:])


def test_hmp56_structure():
    p = hmp_poset(5, 6)
    assert len(p) == 5
    assert p.less("m", "p")
    assert p.less("m", "c1") and p.less("c1", "c2") and p.less("c2", "c3")


def test_hmp_equals_its_explicit_covers():
    """The bottom chain b1 < ... below the new minimum m, which lies below
    the singleton p and the chain c1 < ... (the README example for (4, 5))."""
    for a in range(4, 13):
        for b in range(a + 1, 14):
            bottom = [f"b{i + 1}" for i in range(b - a - 1)]
            top = [f"c{i + 1}" for i in range(a - 2)]
            covers = list(zip(bottom, bottom[1:] + ["m"])) + list(zip(top, top[1:]))
            covers += [("m", "p"), ("m", "c1")]
            explicit = poset_from_covers(bottom + ["m", "p"] + top, covers)
            assert hmp_poset(a, b) == explicit, (a, b)
            assert sorted(hmp_poset(a, b).covers()) == sorted(covers), (a, b)


def test_hmp_parameter_bounds():
    with pytest.raises(ParameterError):
        hmp_poset(3, 5)
    with pytest.raises(ParameterError):
        hmp_poset(4, 4)
    with pytest.raises(ParameterError):
        hmp_poset(5, 4)


def test_hmp_rejects_non_integer_parameters():
    with pytest.raises(ParameterError, match="must be integers"):
        hmp_poset(4.5, 7)
    with pytest.raises(ParameterError, match="must be integers"):
        hmp_poset(4, "7")


# -- antichains --------------------------------------------------------------

def test_antichains_chain():
    assert antichains(chain(3)) == ((), ("c1",), ("c2",), ("c3",))


def test_antichains_antichain2():
    assert len(antichains(antichain(2))) == 4


def test_antichains_hmp45():
    got = antichains(hmp_poset(4, 5))
    assert list(got) == brute_antichains(hmp_poset(4, 5))
    assert got == ((), ("m",), ("p",), ("c1",), ("c2",),
                   ("p", "c1"), ("p", "c2"))


def test_antichains_equal_stable_sets_of_comparability_graph():
    for p in [chain(4), antichain(3), hmp_poset(4, 6), hmp_poset(5, 6), x_poset()]:
        graph_sets = stable_sets(comparability_graph(p))
        label_sets = tuple(
            tuple(p.elements[v - 1] for v in s) for s in graph_sets)
        assert label_sets == antichains(p)


# -- polytope point counts ---------------------------------------------------

def test_order_polytope_chain2():
    assert polytope_point_count(chain(2), "order", 2) == 6


def test_chain_polytope_chain2():
    assert polytope_point_count(chain(2), "chain", 2) == 6


def test_zero_dilate_is_origin():
    for p in [chain(3), antichain(2), hmp_poset(4, 5)]:
        assert polytope_point_count(p, "order", 0) == 1
        assert polytope_point_count(p, "chain", 0) == 1


def test_empty_poset_polytopes_are_the_origin():
    empty = poset_from_covers([], [])
    for q in range(3):
        assert polytope_point_count(empty, "order", q) == 1
        assert polytope_point_count(empty, "chain", q) == 1
    assert antichains(empty) == ((),)


def test_point_counts_match_brute_force():
    for p in [chain(3), antichain(3), hmp_poset(4, 5), x_poset()]:
        for q in range(4):
            assert polytope_point_count(p, "order", q) == brute_order_points(p, q)
            assert polytope_point_count(p, "chain", q) == brute_chain_points(p, q)


def test_order_count_matches_brute_force_on_random_posets():
    # relations follow a random linear order, so the linear extension the
    # count picks differs from the element order
    rng = random.Random(1705)
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 5), "r")
        for q in range(3):
            assert polytope_point_count(p, "order", q) == brute_order_points(p, q)


def test_chain_polytope_counts_ring_monomials():
    # chain polytope of P = stable set polytope of the comparability graph
    for p in [chain(3), hmp_poset(4, 5), x_poset()]:
        g = comparability_graph(p)
        for q in range(5):
            assert polytope_point_count(p, "chain", q) == hilbert_function(g, q)


def test_maximal_chains_hmp45():
    """The test oracle's chains, which are also the maximal cliques of the
    comparability graph that the library counts on."""
    p = hmp_poset(4, 5)
    labeled = [tuple(p.elements[i] for i in ch) for ch in maximal_chains(p)]
    assert sorted(labeled) == [("m", "c1", "c2"), ("m", "p")]
    cliques = maximal_cliques(comparability_graph(p))
    assert sorted(tuple(sorted(i + 1 for i in ch)) for ch in maximal_chains(p)) == \
        list(cliques)


def test_point_count_rejects_bad_kind():
    with pytest.raises(ParameterError):
        polytope_point_count(chain(2), "cube", 1)


@pytest.mark.parametrize("kind", ["order", "chain"])
@pytest.mark.parametrize("q", [2.5, "3", 3.0])
def test_point_count_refuses_non_integer_dilation(kind, q):
    # 2.5 reached `range` (order) and "3" the comparison with 0: TypeErrors
    with pytest.raises(ParameterError, match="dilation factors must be integers"):
        polytope_point_count(chain(2), kind, q)


def test_point_count_takes_integer_like_dilation():
    assert polytope_point_count(chain(2), "order", np.int64(2)) == 6
    assert polytope_point_count(chain(2), "chain", np.int64(2)) == 6
    with pytest.raises(ParameterError, match="nonnegative"):
        polytope_point_count(chain(2), "order", -1)


def test_poset_payload_roundtrips_for_string_labels():
    # labels are written with str(), so string-labelled posets come back equal
    rng = random.Random(1002)
    posets = [x_poset(), chain(4, labels=["d", "c", "b", "a"]), antichain(3, labels=["p", "q", "r"])]
    for _ in range(40):
        n = rng.randint(0, 7)
        labels = [f"v{i}" for i in rng.sample(range(20), n)]
        # relations follow a random linear order, so they never form a cycle
        order = rng.sample(labels, n)
        covers = [(a, b) for a, b in combinations(order, 2) if rng.random() < 0.3]
        posets.append(poset_from_covers(labels, covers))
    for p in posets:
        assert parse_poset_json(json.dumps(_poset_payload(p))) == p
