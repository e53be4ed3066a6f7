"""Lattice-point oracle layer.

The spine of this file is the pair of independent routes for everything:
membership thresholds vs. definitional checks, the whole-slice generator
search vs. a per-degree sieve, the face-by-face Gorenstein height vs. the
generator route, fast classification vs. brute force.
"""

import copy
import dataclasses
import gc
import hashlib
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gstab
from gstab import errors, graphs, numsgp, posets, toric
from gstab.errors import FormatError, NotPerfectError, ParameterError, SizeGuardError
from gstab.graphs import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    graphs_up_to_iso,
    is_perfect,
    maximal_cliques,
    path_graph,
    paw_graph,
)
from gstab.toric import (
    UNIT,
    Monomial,
    OracleCheck,
    _clique_rows,
    _gorenstein,
    _faces_within,
    _local_height,
    _ray_stage,
    _slice,
    _trace_equals_power,
    _trace_miss,
    _twin_floors,
    _zero_masks,
    a_invariant,
    classify,
    degree_monomials,
    hilbert_function,
    in_anticanonical,
    in_canonical,
    in_ring,
    in_trace,
    is_m_primary,
    is_nearly_gorenstein,
    trace_equals_power,
    trace_height,
    verify_equivalence,
)

from oracles import (
    anticanonical_generators,
    bits,
    clique_dim,
    component_graph,
    cone_faces,
    face_lattice,
    face_of,
    full_trace_equals_power,
    generator_trace_height,
    gorenstein_by_basis,
    in_anticanonical_definitional,
    is_pure,
    monomial_on_face,
    omega_generators,
    pairwise_trace_generators,
    polytope_point_count,
    slack,
    zero_masks_by_slack,
)

K1 = complete_graph(1)
K2 = complete_graph(2)
K3 = complete_graph(3)
P3 = path_graph(3)
PAW = paw_graph()
K2K1 = disjoint_union(K2, K1)
K3K1 = disjoint_union(K3, K1)

SMALL = [K1, K2, K3, P3, PAW, K2K1, K3K1]


# -- independent oracles ------------------------------------------------------

def sieve_module_generators(g, theta, degrees):
    """Per-degree sieve: a module point is a generator iff it is not a
    lower-degree point plus a degree-one ring point."""
    ring_one = [m.exponents for m in degree_monomials(g, 1)]
    gens = []
    prev = set(_slice(g, theta, degrees[0] - 1))
    for d in degrees:
        level = _slice(g, theta, d)
        for exps in level:
            covered = any(
                tuple(a - b for a, b in zip(exps, r)) in prev for r in ring_one)
            if not covered:
                gens.append(Monomial(exps, d))
        prev = set(level)
    return gens


def sieve_trace_generators(g, qmax):
    """Same sieve for the trace ideal, using only the brute in_trace test."""
    ring_one = degree_monomials(g, 1)
    gens = []
    prev = set()
    for q in range(qmax + 1):
        level = {m for m in degree_monomials(g, q) if in_trace(g, m)}
        covered = {p + r for p in prev for r in ring_one}
        gens.extend(sorted(level - covered, key=lambda m: m.exponents))
        prev = level
    return gens


def int_rank(rows):
    """Rank over the rationals of an integer matrix (fraction-free)."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    row = 0
    for col in range(cols):
        pivot = None
        for r in range(row, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        for r in range(row + 1, len(mat)):
            if mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [pv * x - factor * y for x, y in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == len(mat):
            break
    return rank


def face_walk_missed(g, faces, gens):
    """Faces on which no generator lies, one monomial_on_face test at a time."""
    return [f for f in faces if not any(monomial_on_face(g, f, t) for t in gens)]


def missed_faces(g, dims, gens):
    """The faces of `dims` (a `face_lattice` result) on which no
    generator lies, as a dict from face bitset to dimension.

    A ring point lies on a face F iff its slack (`slack`) is 0 at every
    inequality tight on F, which is `monomial_on_face` verbatim.  The
    inequalities where it has slack 0 cut out the smallest face containing
    it (`face_of`), so it lies on F iff that face is a subset of F.
    """
    masks, full = _zero_masks(g)
    cuts = {face_of(masks, full, bits(x == 0 for x in slack(g, m.exponents, m.degree)))
            for m in gens}
    return {face: dim for face, dim in dims.items()
            if not any(cut & face == cut for cut in cuts)}


def in_trace_box(g, m):
    """The trace test by scanning the whole box of canonical summands.

    A canonical summand w of x^a t^q has 1 <= w_i <= a_i + 1 (the rest
    a - w has entries >= -1), and for a fixed w some degree split works
    iff the largest clique sum of w plus the largest clique sum of a - w
    is at most q.  Both clique-sum vectors are rebuilt for every w.
    """
    if not in_ring(g, m):
        return False
    a, q = m.exponents, m.degree

    cliques = maximal_cliques(g)

    def top(exps):
        return max(sum(exps[i - 1] for i in c) for c in cliques)

    return any(top(w) + top(tuple(x - y for x, y in zip(a, w))) <= q
               for w in product(*(range(1, x + 2) for x in a)))


def kernel_corpus(corpus):
    """Every perfect graph on at most five vertices and the two-component
    unions of the shared corpus, plus three larger graphs."""
    from gstab.posets import comparability_graph, hmp_poset

    return list(corpus) + [
        ("K4+P3", disjoint_union(complete_graph(4), path_graph(3))),
        ("K3+K3+K1", disjoint_union(disjoint_union(K3, K3), K1)),
        ("hmp(5,6)", comparability_graph(hmp_poset(5, 6))),
    ]


@pytest.fixture(scope="module")
def kernel_faces_and_gens(corpus):
    """(name, graph, faces, trace generators) for each graph of
    `kernel_corpus`, computed once for the tests that check them."""
    out = []
    for name, g in kernel_corpus(corpus):
        out.append((name, g, cone_faces(g), pairwise_trace_generators(g)))
    return out


@pytest.fixture(scope="module")
def oracle_reports(corpus):
    """`classify(g, oracle=True)` for each corpus graph, computed once."""
    return [(name, g, classify(g, oracle=True)) for name, g in corpus]


# -- library surface ----------------------------------------------------------

def test_reference_oracles_live_only_in_tests():
    """The reference oracles are test code: no name of theirs, nor of the
    helpers they replaced, is left in the library."""
    gone = ["Face", "cone_faces", "monomial_on_face", "in_anticanonical_definitional",
            "trace_contains_maximal_ideal", "trace_generators", "trace_is_unit",
            "chromatic_number", "clique_number", "omega_generators",
            "anticanonical_generators", "InconclusiveError", "_face_lattice",
            "_colorable", "_perfect_by_coloring", "has_odd_hole",
            "full_trace_equals_power", "members_upto", "_slack", "_ext_gcd",
            "polytope_point_count", "_order_points", "component_graph", "is_pure"]
    for module in (gstab, toric, graphs, errors, numsgp, numsgp.NumericalSemigroup, posets):
        assert [name for name in gone if hasattr(module, name)] == [], module.__name__


# -- membership: ring ---------------------------------------------------------

def test_in_ring_k2():
    assert in_ring(K2, Monomial((1, 0), 1))
    assert not in_ring(K2, Monomial((1, 1), 1))


def test_in_ring_paw_clique_violation():
    # clique {1,2,3} forces a1+a2+a3 <= q
    assert not in_ring(PAW, Monomial((1, 1, 1, 1), 2))
    assert in_ring(PAW, Monomial((1, 1, 1, 1), 3))


def test_in_ring_length_mismatch():
    with pytest.raises(ParameterError):
        in_ring(K2, Monomial((1,), 1))


def test_monomial_refuses_non_integers():
    """A fractional exponent or degree is no lattice point: `Monomial`
    refuses it rather than letting the membership tests accept it."""
    for test, exps, degree in ((in_ring, (0.5, 0, 0, 0), 1),
                               (in_anticanonical, (1.5, 1, 1, 1), 3),
                               (in_trace, (1, 0, 0, 0), 1.5),
                               (in_ring, ("1", 0, 0, 0), 1),
                               (in_ring, (0, 0, 0, 0), "1"),
                               (in_ring, 3, 1)):
        with pytest.raises(FormatError, match="must be integers"):
            test(PAW, Monomial(exps, degree))


def test_monomial_stores_integer_like_values_as_ints():
    m = Monomial([np.int64(1), np.int32(0), 0, True], np.int64(2))
    assert m == Monomial((1, 0, 0, 1), 2) and hash(m) == hash(Monomial((1, 0, 0, 1), 2))
    assert type(m.exponents) is tuple and type(m.degree) is int
    assert all(type(x) is int for x in m.exponents)
    assert in_ring(PAW, m)


# -- membership: canonical module ---------------------------------------------

def test_in_canonical_k2():
    assert in_canonical(K2, Monomial((1, 1), 3))
    assert not in_canonical(K2, Monomial((1, 1), 2))


def test_in_canonical_paw():
    assert in_canonical(PAW, Monomial((1, 1, 1, 1), 5))


# -- membership: anticanonical ------------------------------------------------

def test_in_anticanonical_k2():
    assert in_anticanonical(K2, Monomial((-1, -1), -3))
    assert not in_anticanonical(K2, Monomial((-2, 0), 0))


def test_origin_always_anticanonical():
    for g in SMALL:
        assert in_anticanonical(g, Monomial((0,) * g.n, 0))
        assert in_anticanonical_definitional(g, Monomial((0,) * g.n, 0))


def test_anticanonical_definitional_matches_threshold_k2():
    for a1 in range(-2, 3):
        for a2 in range(-2, 3):
            for q in range(-4, 5):
                m = Monomial((a1, a2), q)
                assert in_anticanonical(K2, m) == in_anticanonical_definitional(K2, m)


# -- membership: trace --------------------------------------------------------

def test_in_trace_k2_origin_with_witness():
    w = Monomial((1, 1), 3)
    v = Monomial((-1, -1), -3)
    assert in_canonical(K2, w)
    assert in_anticanonical(K2, v)
    assert w + v == Monomial((0, 0), 0)
    assert in_trace(K2, Monomial((0, 0), 0))


def test_in_trace_paw_origin_false():
    assert not in_trace(PAW, Monomial((0, 0, 0, 0), 0))


def test_in_trace_k3k1_degree_one_false():
    assert not in_trace(K3K1, Monomial((0, 0, 0, 1), 1))


def test_in_trace_matches_box_scan(corpus):
    """The pruned witness search against the box scan at every ring point
    of degree at most spread + 1, and at points outside the ring."""
    cases = kernel_corpus(corpus) + [("P7", path_graph(7))]
    for name, g in cases:
        dims = classify(g).component_dims
        for q in range(dims[0] - dims[-1] + 2):
            for m in degree_monomials(g, q):
                assert in_trace(g, m) == in_trace_box(g, m), (name, m)
        # a negative entry, or degree 1 under a clique sum of 2
        outside = [Monomial((*m.exponents[:-1], -1), m.degree)
                   for m in degree_monomials(g, 2)]
        outside += [Monomial(m.exponents, 1) for m in degree_monomials(g, 2)
                    if not in_ring(g, Monomial(m.exponents, 1))]
        cliques = maximal_cliques(g)
        for m in outside:
            assert not in_trace(g, m) and not in_trace_box(g, m), (name, m)
            assert _trace_miss(cliques, _clique_rows(g), [m.exponents], m.degree, False) is None, \
                (name, m)


def test_in_trace_implies_in_ring():
    box = [(-1, 0, 1, 0), (0, 0, 0, 0), (1, 0, 0, 1), (2, 1, 1, 1)]
    for exps in box:
        for q in range(-1, 5):
            m = Monomial(exps, q)
            if in_trace(PAW, m):
                assert in_ring(PAW, m)


def test_trace_translate_closed():
    one = degree_monomials(K2K1, 1)
    for q in range(3):
        for m in degree_monomials(K2K1, q):
            if in_trace(K2K1, m):
                for r in one:
                    assert in_trace(K2K1, m + r)


def test_omega_translate_closed():
    for g in [K2, PAW, K2K1]:
        one = degree_monomials(g, 1)
        start = clique_dim(g) + 2
        for exps in _slice(g, 1, start):
            w = Monomial(exps, start)
            for r in one:
                assert in_canonical(g, w + r)


def test_anticanonical_translate_closed():
    for g in [K2, PAW, K2K1]:
        one = degree_monomials(g, 1)
        start = -min(len(c) for c in maximal_cliques(g)) - 1
        for d in (start, start + 1):
            for exps in _slice(g, -1, d):
                w = Monomial(exps, d)
                for r in one:
                    assert in_anticanonical(g, w + r)


# -- degree slices ------------------------------------------------------------

def test_degree_monomials_k1():
    got = degree_monomials(K1, 2)
    assert got == [Monomial((0,), 2), Monomial((1,), 2), Monomial((2,), 2)]


def test_degree_monomials_k2_degree_one():
    assert hilbert_function(K2, 1) == 3


def test_segre_count_k2k1():
    assert hilbert_function(K2K1, 2) == 18
    assert hilbert_function(K2, 2) * hilbert_function(K1, 2) == 18
    # the ring of a disjoint union is the Segre product of the components'
    # rings, so its Hilbert function is the product of theirs
    pieces = [g for n in range(1, 4) for g in graphs_up_to_iso(n)
              if is_perfect(g) and len(connected_components(g)) == 1]
    assert len(pieces) == 4   # K1, K2, P3, K3
    for g, h in product(pieces, repeat=2):
        union = disjoint_union(g, h)
        for q in range(4):
            assert hilbert_function(union, q) == \
                hilbert_function(g, q) * hilbert_function(h, q), (g, h, q)


def test_hilbert_function_counts_the_degree_slice(corpus):
    """`hilbert_function` counts the walk that `degree_monomials` lists,
    below degree 0 too, and keeps none of its points: on the
    comparability graph of hmp(4, 8) at degree 6 (3300 points) the list
    alone takes about 0.4 MB."""
    for name, g in corpus:
        for q in range(-1, 4):
            assert hilbert_function(g, q) == len(degree_monomials(g, q)), (name, q)
    g = posets.comparability_graph(posets.hmp_poset(4, 8))
    assert hilbert_function(g, 6) == 3300
    tracemalloc.start()
    try:
        hilbert_function(g, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# -- a-invariant ---------------------------------------------------------------

def test_a_invariant_values():
    assert a_invariant(K3) == -4
    assert a_invariant(K1) == -2


def test_a_invariant_rejects_imperfect():
    with pytest.raises(NotPerfectError):
        a_invariant(cycle_graph(5))


@pytest.mark.parametrize("field", [a_invariant, is_nearly_gorenstein])
def test_classify_fields_reject_what_classify_rejects(field):
    """`a_invariant` and `is_nearly_gorenstein` read their field off
    `classify`, so they refuse the same inputs."""
    with pytest.raises(ParameterError):
        field(Graph(0, frozenset()))
    with pytest.raises(NotPerfectError):
        field(cycle_graph(5))


def test_minimal_canonical_degree_k3():
    assert _slice(K3, 1, 3) == ()
    assert _slice(K3, 1, 4) == ((1, 1, 1),)


# -- generators ----------------------------------------------------------------

def assert_generators_match_sieve(g, theta, gens, start):
    """The generators equal the sieve over the whole window the search
    scanned: from the lowest module degree to two degrees past the last
    generator, where the search stops."""
    degrees = range(start, max((m.degree for m in gens), default=start) + 3)
    expected = sieve_module_generators(g, theta, degrees)
    assert sorted(gens, key=lambda m: (m.degree, m.exponents)) == \
        sorted(expected, key=lambda m: (m.degree, m.exponents))


def test_omega_generators_against_sieve(corpus):
    for name, g in kernel_corpus(corpus):
        assert_generators_match_sieve(g, 1, omega_generators(g), clique_dim(g) + 2)


def test_anticanonical_generators_against_sieve(corpus):
    for name, g in kernel_corpus(corpus):
        start = -min(len(c) for c in maximal_cliques(g)) - 1
        assert_generators_match_sieve(g, -1, anticanonical_generators(g), start)


def test_zero_masks_built_once_per_oracle_call(monkeypatch):
    """`classify(oracle=True)` builds the incidence table once, for the
    graph itself, connected or not: the height route builds it and the
    power test reads none."""
    from gstab.posets import comparability_graph, hmp_poset

    builds = []
    zero_masks = toric._zero_masks
    monkeypatch.setattr(toric, "_zero_masks",
                        lambda *args: builds.append(1) or zero_masks(*args))
    for g, expected in ((comparability_graph(hmp_poset(5, 6)), 1),
                        (disjoint_union(complete_graph(4), P3), 1)):
        builds.clear()
        assert classify(g, oracle=True).oracle.agreement
        assert len(builds) == expected


def test_one_clique_search_per_oracle_call(monkeypatch):
    """An oracle call runs the graph layer's Bron-Kerbosch search once:
    the components and every oracle table read the graph's cached
    cliques, and nothing searches again to check them.  Counted at the
    top-level calls of `graphs._extend_clique`, one per search."""
    from gstab.posets import comparability_graph, hmp_poset

    searches = []
    extend = graphs._extend_clique

    def counting(adj, r, p, x, cliques):
        if r == 0:
            searches.append(p)
        return extend(adj, r, p, x, cliques)

    monkeypatch.setattr(graphs, "_extend_clique", counting)
    k5p3 = disjoint_union(complete_graph(5), path_graph(3))
    hmp = comparability_graph(hmp_poset(4, 9))
    for call in (lambda: classify(k5p3, oracle=True), lambda: trace_height(hmp)):
        maximal_cliques.cache_clear()
        searches.clear()
        call()
        assert len(searches) == 1
    assert [(c.vertices, c.dim, c.pure) for c in connected_components(k5p3)] == \
        [((1, 2, 3, 4, 5), 4, True), ((6, 7, 8), 1, True)]


def test_oracles_read_no_fast_classification(corpus, monkeypatch):
    """The trace-power test, m-primariness and the trace height answer
    the same on the corpus while the components and `classify`, which
    the fast criterion reads, raise: no oracle leans on what it checks.
    `_oracle_check` reads the fast report by design and is left out."""
    def answers():
        return [([trace_equals_power(g, p) for p in range(4)], is_m_primary(g), trace_height(g))
                for _, g in corpus]

    expected = answers()

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle read the fast classification")

    for module, name in ((graphs, "connected_components"), (toric, "connected_components"),
                         (toric, "classify")):
        monkeypatch.setattr(module, name, refuse)
    assert answers() == expected


def test_oracle_check_walks_one_slice_per_graph(monkeypatch):
    """`_oracle_check` asks for the power spread = dims[0] - dims[-1],
    which is at most omega - min |C|, so the absence loop of
    `_trace_equals_power` is empty and each check walks the top slice
    alone: one `_walk` per perfect graph on at most six vertices, under
    `classify(oracle=True)` and `verify_equivalence` alike, and none where
    the spread is below omega - min |C|, which leaves no degree split."""
    walks, per_check = [], []
    walk, check = toric._walk, toric._oracle_check

    def counting_walk(*args):
        walks.append(1)
        return walk(*args)

    def counting_check(*args):
        walks.clear()
        result = check(*args)
        per_check.append(len(walks))
        return result

    monkeypatch.setattr(toric, "_walk", counting_walk)
    monkeypatch.setattr(toric, "_oracle_check", counting_check)
    perfect = [g for n in range(1, 7) for g in graphs_up_to_iso(n) if is_perfect(g)]
    for g in perfect:
        assert classify(g, oracle=True).oracle.agreement
    assert verify_equivalence(6)["perfect"] == len(perfect)
    expected = []
    for g in perfect:
        dims = classify(g).component_dims
        sizes = [len(c) for c in maximal_cliques(g)]
        expected.append(int(dims[0] - dims[-1] >= max(sizes) - min(sizes)))
    assert (expected.count(0), expected.count(1)) == (79, 120)
    assert per_check == expected * 2


def test_classify_oracle_guard_fires_before_any_oracle_work(monkeypatch):
    """`classify(oracle=True)` runs the height route first, so on a
    9-vertex perfect graph its cone guard fires before the power test
    runs or a facet bitset is built."""
    calls = []
    monkeypatch.setattr(toric, "_trace_equals_power", lambda *args: calls.append(args))
    monkeypatch.setattr(toric, "_zero_masks", lambda *args: calls.append(args))
    g = disjoint_union(complete_graph(5), path_graph(4))
    assert is_perfect(g) and g.n == 9
    with pytest.raises(SizeGuardError, match="cone dimension 9, got 10"):
        classify(g, oracle=True)
    assert calls == []


def test_zero_masks_match_slack_route():
    """The facet bitsets read off the stable sets' vertex bitsets against
    the zero entries of one `slack` tuple per point, on every perfect
    graph with at most seven vertices; the stable sets, grown vertex by
    vertex, are the degree-one slice in its order."""
    graphs = perfect_graphs_up_to(7)
    assert len(graphs) == 1105
    for name, g in graphs:
        points = _slice(g, 0, 1)
        masks, full = _zero_masks(g)
        assert full == (1 << len(points)) - 1, name
        assert masks == zero_masks_by_slack(g, points), name


def test_trace_generators_against_sieve():
    for g in [K2, P3, PAW, K2K1, K3K1]:
        expected = sieve_trace_generators(g, 3)
        got = [m for m in pairwise_trace_generators(g) if m.degree <= 3]
        assert sorted(got, key=lambda m: (m.degree, m.exponents)) == \
            sorted(expected, key=lambda m: (m.degree, m.exponents))


def test_trace_generators_all_pass_brute_membership():
    for g in SMALL:
        for t in pairwise_trace_generators(g):
            assert in_ring(g, t)
            assert in_trace(g, t)


def test_paw_trace_generators_exact():
    gens = pairwise_trace_generators(PAW)
    assert all(m.degree == 1 for m in gens)
    # every degree-one monomial except the one for stable set {3}
    assert sorted(m.exponents for m in gens) == [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0),
        (0, 1, 0, 1), (1, 0, 0, 0), (1, 0, 0, 1)]


def test_trace_candidates_lie_in_ring(corpus):
    # every canonical-plus-anticanonical sum is a ring point, so its slack
    # vector is nonnegative, which the trace-generator reduction relies on
    for name, g in kernel_corpus(corpus):
        anti = anticanonical_generators(g)
        for w in omega_generators(g):
            assert all(in_ring(g, w + v) for v in anti), name


# -- trace as a power of the maximal ideal --------------------------------------

def test_trace_power_k2():
    assert trace_equals_power(K2, 0)


def test_trace_power_k2k1():
    assert not trace_equals_power(K2K1, 0)
    assert trace_equals_power(K2K1, 1)


def test_trace_power_k3k1():
    assert not trace_equals_power(K3K1, 0)
    assert not trace_equals_power(K3K1, 1)
    assert trace_equals_power(K3K1, 2)


def test_trace_power_rejects_negative():
    with pytest.raises(ParameterError):
        trace_equals_power(K2, -1)


def test_powers_and_degrees_must_be_integers():
    """A fractional power or degree is a parameter error, as a negative
    power is; an integer-like one is taken as an int."""
    with pytest.raises(ParameterError, match="must be integers"):
        trace_equals_power(K2, 1.5)
    with pytest.raises(ParameterError, match="must be integers"):
        hilbert_function(P3, 1.5)
    with pytest.raises(ParameterError, match="must be integers"):
        degree_monomials(P3, 2.0)
    assert hilbert_function(P3, np.int64(2)) == 14
    assert trace_equals_power(K2K1, np.int32(1))


def test_oracles_store_nothing_on_the_graph():
    """The oracles' tables are derived per call and never stored: after
    every oracle has run on a graph, its attributes are its two fields,
    and its hash, repr and pickled form are as they were.  A copy or an
    unpickled graph is equal and derives the same tables."""
    assert not hasattr(Graph, "tables") and "__reduce__" not in vars(Graph)
    for g in (K3K1, PAW, disjoint_union(complete_graph(4), P3)):
        before = (dict(vars(g)), hash(g), repr(g), pickle.dumps(g))
        classify(g, oracle=True)
        trace_height(g)
        is_m_primary(g)
        trace_equals_power(g, 1)
        in_trace(g, Monomial((1,) * g.n, 2))
        assert (vars(g), hash(g), repr(g), pickle.dumps(g)) == before
        assert set(vars(g)) == {"n", "edges"}
        for other in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert other == g and hash(other) == hash(g) and vars(other) == vars(g)
            assert (_zero_masks(other), _clique_rows(other), _twin_floors(other)) == \
                (_zero_masks(g), _clique_rows(g), _twin_floors(g))


def test_twin_floors_are_the_clique_preserving_swaps():
    """On every perfect graph with at most six vertices, two vertices are
    linked by the twin floors (following floors from each reaches the
    same vertex) iff swapping them maps the maximal cliques onto
    themselves, and each floor is the largest such vertex below."""
    for name, g in perfect_graphs_up_to(6):
        cliques = {frozenset(c) for c in maximal_cliques(g)}

        def swaps(u, v):
            tau = {u + 1: v + 1, v + 1: u + 1}
            return {frozenset(tau.get(i, i) for i in c) for c in cliques} == cliques

        floors = _twin_floors(g)
        root = list(range(g.n))
        for v, f in enumerate(floors):
            if f >= 0:
                root[v] = root[f]
        for u, v in combinations(range(g.n), 2):
            assert (root[u] == root[v]) == swaps(u, v), (name, u, v)
        assert floors == tuple(max([u for u in range(v) if swaps(u, v)], default=-1)
                               for v in range(g.n)), name


def test_twin_walk_yields_one_point_per_orbit():
    """With the twin floors, `_walk` yields each slice point that is
    non-decreasing along every twin class, once, in descending
    lexicographic order: one point per orbit of the twin swaps."""
    for name, g in perfect_graphs_up_to(5) + [("K4+P3", disjoint_union(complete_graph(4), P3))]:
        floors = _twin_floors(g)
        classes = []
        for v, f in enumerate(floors):
            if f < 0:
                classes.append([v])
            else:
                next(c for c in classes if f in c).append(v)

        def sort_classes(p):
            out = list(p)
            for members in classes:
                for v, x in zip(members, sorted(p[v] for v in members)):
                    out[v] = x
            return tuple(out)

        cliques, delta = maximal_cliques(g), clique_dim(g) + 1
        for theta, degrees in ((0, range(4)), (1, range(delta + 1, delta + 4))):
            for q in degrees:
                walked = list(toric._walk(cliques, theta, q, floors))
                assert walked == sorted(set(map(sort_classes, _slice(g, theta, q))),
                                        reverse=True), (name, theta, q)


def test_trace_equals_power_matches_full_search(union_corpus):
    """The one-point-per-orbit search agrees with the search over every
    ring point, for every power from 0 to the component dimension spread
    plus one."""
    for name, g in perfect_graphs_up_to(6) + union_corpus:
        dims = [clique_dim(component_graph(g, c)) for c in connected_components(g)]
        for power in range(dims[0] - dims[-1] + 2):
            assert _trace_equals_power(g, power) == full_trace_equals_power(g, power), \
                (name, power)


def test_trace_power_refutes_like_full_search_at_seven():
    """Every NotGPS graph on seven vertices with N >= 1: the search that
    refutes first, at degree N, agrees with the search over every point
    at the component dimension spread."""
    checked = 0
    for k, g in enumerate(graphs_up_to_iso(7)):
        if not is_perfect(g):
            continue
        report = classify(g)
        dims = report.component_dims
        if report.classification != "NotGPS" or dims[0] == dims[-1]:
            continue
        spread = dims[0] - dims[-1]
        assert not _trace_equals_power(g, spread), k
        assert not full_trace_equals_power(g, spread), k
        checked += 1
    assert checked == 90


def test_trace_power_search_counts(monkeypatch):
    """`classify(oracle=True)` searches one ring point per twin orbit of
    degrees omega - min |C| .. N, degree N first and descending, and stops
    at the first point of degree N outside the trace.  A GPS graph misses
    none, so all its orbits of those degrees are searched: searching every
    point took 930, 705, 2005, 236 and 333 searches on these graphs, and
    every orbit from degree 0 took 105, 63, 189, 49 and 57.  A NotGPS graph
    stops at its first miss: on the first two, with N = 2 and 3, that is
    the first point, where the absence tests first took 60 and 223
    searches; the third misses 49 orbits in (72 absence first)."""
    calls = 0
    search = toric._trace_miss

    def tally(points):
        nonlocal calls
        for p in points:
            calls += 1
            yield p

    monkeypatch.setattr(toric, "_trace_miss",
                        lambda cliques, rows, points, q, want:
                        search(cliques, rows, tally(points), q, want))
    for g, gps, searches in (
            (disjoint_union(complete_graph(5), K1), True, 60),
            (disjoint_union(complete_graph(5), K2), True, 42),
            (disjoint_union(complete_graph(5), P3), True, 140),
            (disjoint_union(complete_graph(4), P3), True, 40),
            (disjoint_union(disjoint_union(K3, K3), K1), True, 48),
            (Graph(5, [(1, 2), (1, 3), (1, 4), (2, 3)]), False, 1),
            (Graph(6, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)]), False, 1),
            (Graph(6, [(1, 2), (1, 5), (2, 3), (2, 4), (3, 4)]), False, 49)):
        calls = 0
        assert classify(g, oracle=True).oracle.trace_power is gps
        assert calls == searches, g


# -- faces ----------------------------------------------------------------------

def test_cone_faces_k1():
    faces = cone_faces(K1)
    assert sorted(f.dim for f in faces) == [0, 1, 1, 2]


def test_cone_faces_k2_simplex():
    faces = cone_faces(K2)
    assert len(faces) == 8
    assert sorted(f.dim for f in faces) == [0, 1, 1, 1, 2, 2, 2, 3]


def test_cone_faces_paw():
    faces = cone_faces(PAW)
    dims = [f.dim for f in faces]
    assert max(dims) == 5
    assert min(dims) == 0


def test_cone_face_guard():
    with pytest.raises(SizeGuardError):
        cone_faces(empty_graph(9))


def test_face_dims_match_rank(corpus):
    """The graded face lattice gives each face the rank of its points
    (with a homogenizing 1), the apex 0."""
    from gstab.posets import comparability_graph, hmp_poset

    graphs = [(name, g) for name, g in corpus if "+" not in name]
    graphs.append(("hmp(5,6)", comparability_graph(hmp_poset(5, 6))))
    for name, g in graphs:
        for face in cone_faces(g):
            rank = int_rank([list(p) + [1] for p in face.points])
            assert face.dim == rank, (name, face)


def test_faces_and_generators_pinned(corpus):
    """Faces, their order and all three generator tuples, byte for byte:
    the sha256 of their reprs over the 51 perfect graphs on at most five
    vertices, hmp(5,6) and K4+P3."""
    from gstab.posets import comparability_graph, hmp_poset

    graphs = [g for name, g in corpus if "+" not in name]
    graphs += [comparability_graph(hmp_poset(5, 6)),
               disjoint_union(complete_graph(4), path_graph(3))]
    digest = hashlib.sha256()
    for g in graphs:
        for part in (cone_faces(g), omega_generators(g),
                     anticanonical_generators(g), pairwise_trace_generators(g)):
            digest.update(repr(part).encode())
    assert digest.hexdigest() == \
        "8cbacbaebc3001c731e3d5cd2cfeb62ad654dcc21f41d13fda61548fcea36d60"


def test_face_count_pinned(corpus):
    # the 51 perfect graphs on at most five vertices
    total = sum(len(cone_faces(g)) for name, g in corpus if "+" not in name)
    assert total == 4962


def test_full_cone_contains_every_stable_set_point():
    top = max(cone_faces(P3), key=lambda f: f.dim)
    assert top.dim == P3.n + 1
    assert len(top.points) == hilbert_function(P3, 1)
    for m in degree_monomials(P3, 2):
        assert monomial_on_face(P3, top, m)


def test_origin_face_accepts_only_origin():
    origin = min(cone_faces(P3), key=lambda f: f.dim)
    assert origin.dim == 0
    assert monomial_on_face(P3, origin, Monomial((0, 0, 0), 0))
    assert not monomial_on_face(P3, origin, Monomial((0, 0, 0), 1))


def test_missed_faces_match_face_walk(kernel_faces_and_gens):
    for name, g, faces, gens in kernel_faces_and_gens:
        missed = face_walk_missed(g, faces, gens)
        # each walked face as its bitset of degree-one points, with its dim
        index = {p: k for k, p in enumerate(_slice(g, 0, 1))}
        walked = {sum(1 << index[p] for p in f.points): f.dim for f in missed}
        assert missed_faces(g, face_lattice(g), gens) == walked, name


def test_face_oracles_match_minimal_generator_route(kernel_faces_and_gens):
    """The face-by-face height behind is_m_primary and trace_height
    against the minimal trace generators: UNIT iff the trace is the unit
    ideal, otherwise n + 1 minus the largest dimension of a face no
    generator lies on; m-primary (only the apex missed) iff the height is
    UNIT or n + 1."""
    for name, g, faces, gens in kernel_faces_and_gens:
        height = _local_height(g)
        assert (height is UNIT) == any(m.degree == 0 for m in gens), name
        missed = missed_faces(g, face_lattice(g), gens)
        if height is not UNIT:
            assert height == g.n + 1 - max(missed.values()), name
        assert all(dim < 1 for dim in missed.values()) == \
            (height is UNIT or height == g.n + 1), name


def test_slices_build_no_incidence_table(monkeypatch):
    """On a new graph, `hilbert_function`, `degree_monomials` and
    the chain count of the oracle `polytope_point_count` walk the cliques
    alone and build no `_zero_masks`."""
    from gstab.posets import hmp_poset

    builds = []
    zero_masks = toric._zero_masks
    monkeypatch.setattr(toric, "_zero_masks", lambda *args: builds.append(1) or zero_masks(*args))
    assert hilbert_function(empty_graph(12), 1) == 2 ** 12
    # a1 + a2 <= 2 and a2 + a3 <= 2: 9 + 4 + 1 points by a2
    assert len(degree_monomials(P3, 2)) == 14
    # the chain and order polytopes of a poset have the same Ehrhart
    # polynomial (Stanley, "Two poset polytopes", 1986)
    p = hmp_poset(4, 6)
    assert polytope_point_count(p, "chain", 3) == polytope_point_count(p, "order", 3)
    assert builds == []


def test_trace_searches_build_no_incidence_table(monkeypatch):
    """`in_trace` and `trace_equals_power` read the clique rows and the
    twin floors alone and build no `_zero_masks`, so a trace point of the
    edgeless graph on 18 vertices, whose 2^18 stable sets the height
    route would grow, is found without them."""
    from gstab.posets import comparability_graph, hmp_poset

    builds = []
    zero_masks = toric._zero_masks
    monkeypatch.setattr(toric, "_zero_masks", lambda *args: builds.append(1) or zero_masks(*args))
    assert in_trace(empty_graph(18), Monomial((1,) * 18, 3))
    assert not in_trace(K3K1, Monomial((0, 0, 0, 1), 1))
    assert trace_equals_power(K3K1, 2) and not trace_equals_power(K3K1, 1)
    assert not trace_equals_power(comparability_graph(hmp_poset(4, 6)), 1)
    assert builds == []


# -- m-primariness and height ----------------------------------------------------

def test_is_m_primary_examples():
    assert is_m_primary(K2)
    assert is_m_primary(K3K1)
    assert not is_m_primary(PAW)


def test_trace_height_examples():
    assert trace_height(PAW) == 4
    assert trace_height(K2) is UNIT
    assert trace_height(K3K1) == 5


def test_unit_survives_copy_and_pickle():
    assert repr(UNIT) == "Unit"
    assert copy.copy(UNIT) is UNIT
    assert copy.deepcopy(UNIT) is UNIT
    assert pickle.loads(pickle.dumps(UNIT)) is UNIT
    check = OracleCheck(True, True, UNIT, True)
    assert dataclasses.asdict(check)["height"] is UNIT
    assert pickle.loads(pickle.dumps(check)).height is UNIT


def test_unit_trace_examples():
    # the trace is the unit ideal iff a minimal generator has degree 0
    def unit(g):
        return any(m.degree == 0 for m in pairwise_trace_generators(g))

    assert unit(K2) and unit(P3)
    assert not unit(PAW) and not unit(K3K1)


def perfect_graphs_up_to(max_n):
    """(name, graph) for every perfect graph on 1..max_n vertices, one per
    isomorphism class."""
    return [(f"n{n}#{k}", g) for n in range(1, max_n + 1)
            for k, g in enumerate(graphs_up_to_iso(n)) if is_perfect(g)]


def oracle_large_graphs():
    """The 20 graphs of the benchmark's oracle_large workload: hmp(a, b)
    for 4 <= a <= 7 and a < b <= 9, five unions of complete graphs and
    paths, and P7."""
    from gstab.posets import comparability_graph, hmp_poset

    out = [(f"hmp({a},{b})", comparability_graph(hmp_poset(a, b)))
           for a in range(4, 8) for b in range(a + 1, 10)]
    K, P = complete_graph, path_graph
    for name, parts in (("K5+K1", (K(5), K(1))), ("K5+K2", (K(5), K(2))),
                        ("K5+P3", (K(5), P(3))), ("K4+P3", (K(4), P(3))),
                        ("K3+K3+K1", (K(3), K(3), K(1))), ("P7", (P(7),))):
        g = parts[0]
        for h in parts[1:]:
            g = disjoint_union(g, h)
        out.append((name, g))
    return out


def test_local_height_matches_generator_route(corpus):
    """The face-by-face Gorenstein height against the height read off the
    canonical and anticanonical generators of whole degree slices."""
    graphs = kernel_corpus(corpus) + perfect_graphs_up_to(6) + oracle_large_graphs()
    assert len(graphs) == 69 + 199 + 20
    for name, g in graphs:
        assert _local_height(g) == generator_trace_height(g), name


def test_faces_within_match_face_lattice():
    """The bottom-up join walk against the top-down face lattice.  From
    every ray it lists the whole lattice but the apex; from the
    non-Gorenstein rays, exactly the lattice faces whose points all lie
    on them, each with the lattice's dimension.  The height is n + 1
    minus the largest lattice dimension of a non-Gorenstein face, as the
    generator route says."""
    for name, g in perfect_graphs_up_to(6) + oracle_large_graphs():
        cliques = maximal_cliques(g)
        masks, full = _zero_masks(g)
        dims = face_lattice(g)
        everything = [1 << k for k in range(full.bit_length())]
        assert _faces_within(masks, full, everything) == {f: d for f, d in dims.items() if f}, name
        bad = [r for r in everything if not _gorenstein(cliques, masks, r)]
        within = sum(bad)
        assert _faces_within(masks, full, bad) == \
            {f: d for f, d in dims.items() if f and f & within == f}, name
        height = _local_height(g)
        missed = [d for f, d in dims.items() if not _gorenstein(cliques, masks, f)]
        assert (height is UNIT) == (missed == []), name
        if missed:
            assert height == g.n + 1 - max(missed), name
        assert height == generator_trace_height(g), name


@pytest.fixture
def solves(monkeypatch):
    """Counts `_gorenstein` calls, the systems the height route solves."""
    count = [0]
    gorenstein = toric._gorenstein

    def counted(cliques, masks, face):
        count[0] += 1
        return gorenstein(cliques, masks, face)

    monkeypatch.setattr(toric, "_gorenstein", counted)
    return count


def test_height_solve_counts(solves, monkeypatch):
    """The work of the height route, pinned.  A Gorenstein ring needs the
    apex alone.  A GPS non-Gorenstein ring needs the apex and one solve
    per degree-one point, and lists no face beyond them.  hmp(4,9) lists
    the faces on its non-Gorenstein rays and solves them largest first."""
    from gstab.posets import comparability_graph, hmp_poset

    walks = []
    faces_within = toric._faces_within
    monkeypatch.setattr(toric, "_faces_within", lambda *a: walks.append(1) or faces_within(*a))
    for g in (K1, K2, K3, P3, disjoint_union(K2, K2)):
        solves[0] = 0
        assert trace_height(g) is UNIT
        assert solves[0] == 1
    k5p3 = disjoint_union(complete_graph(5), path_graph(3))
    for g in (K2K1, K3K1, k5p3):
        solves[0] = 0
        assert trace_height(g) == g.n + 1
        assert solves[0] == 1 + hilbert_function(g, 1)
    # so K5+P3 takes 31 solves
    assert hilbert_function(k5p3, 1) == 30
    assert walks == []
    solves[0] = 0
    assert trace_height(comparability_graph(hmp_poset(4, 9))) == 4
    # the apex, 11 rays and one listed face
    assert solves[0] == 13
    assert walks == [1]


def test_ray_stage_decides_m_primariness():
    """The apex and the rays alone (`_ray_stage`) against the full
    height: m-primary iff `trace_height` is UNIT or n + 1, and then the
    same value, on every perfect graph with at most seven vertices and on
    every 20th class on eight vertices; `is_m_primary` is that answer."""
    eights = [(f"n8#{20 * k}", g)
              for k, g in enumerate(islice(graphs_up_to_iso(8), 0, None, 20)) if is_perfect(g)]
    assert len(eights) == 450
    for name, g in perfect_graphs_up_to(7) + eights:
        height = trace_height(g)
        decided = _ray_stage(g)[0]
        assert (decided is not None) == (height is UNIT or height == g.n + 1), name
        assert decided in (None, height), name
        assert is_m_primary(g) == (decided is not None), name


def test_m_primariness_lists_no_face(monkeypatch):
    """`verify_equivalence` and `is_m_primary` solve the apex and the rays
    and list no face above them, even for hmp(4,9), whose height is found
    on a listed face (`test_height_solve_counts`)."""
    from gstab.posets import comparability_graph, hmp_poset

    walks = []
    faces_within = toric._faces_within
    monkeypatch.setattr(toric, "_faces_within", lambda *a: walks.append(1) or faces_within(*a))
    assert verify_equivalence(6) == {"graphs_checked": 208, "perfect": 199,
                                     "disagreements": 0, "details": []}
    g = comparability_graph(hmp_poset(4, 9))
    assert not is_m_primary(g)
    assert walks == []
    assert trace_height(g) == 4
    assert walks == [1]


def test_verify_equivalence_seven():
    """Every graph on at most seven vertices: 1252 classes (OEIS A000088),
    1105 perfect (A052431), and no disagreement."""
    assert verify_equivalence(7) == {"graphs_checked": 1252, "perfect": 1105,
                                     "disagreements": 0, "details": []}


def test_verify_equivalence_reports_disagreements(monkeypatch):
    """A trace-power oracle that always says no disagrees with the fast
    criterion on each of the three graphs on at most two vertices, all
    GPS and m-primary, and each is listed with the three verdicts."""
    monkeypatch.setattr(toric, "_trace_equals_power", lambda g, power: False)
    result = verify_equivalence(2)
    assert (result["graphs_checked"], result["perfect"], result["disagreements"]) == (3, 3, 3)
    assert result["details"] == [
        {"n": 1, "edges": [], "fast": True, "trace_power": False, "m_primary": True},
        {"n": 2, "edges": [], "fast": True, "trace_power": False, "m_primary": True},
        {"n": 2, "edges": [(1, 2)], "fast": True, "trace_power": False, "m_primary": True},
    ]


def test_height_found_above_the_rays(solves, monkeypatch):
    """A graph whose height is decided on a listed face above the rays.

    For this 7-vertex graph the two-clique bound on the height is 5, yet
    the height is 4: the stable sets {1,3}, {2,4}, {1,3,6} and {2,4,7}
    span a 4-dimensional face on which the cliques {1,2,5}, {2,3}, {3,4}
    and {1,4} and the vertex 5 are tight, and the alternating sum of those
    four clique rows leaves 0 = -1.  The height, the solves and the listed
    faces are pinned."""
    listed = []
    faces_within = toric._faces_within
    monkeypatch.setattr(toric, "_faces_within",
                        lambda *a: listed.append(faces_within(*a)) or listed[-1])
    g = Graph(7, frozenset({(1, 2), (1, 4), (1, 5), (1, 7), (2, 3), (2, 5), (2, 6), (3, 4)}))
    assert trace_height(g) == 4
    assert solves[0] == 66
    [dims] = listed
    assert len(dims) == 99
    span = {(1, 3), (2, 4), (1, 3, 6), (2, 4, 7)}
    face = sum(1 << k for k, p in enumerate(_slice(g, 0, 1))
               if tuple(v + 1 for v, x in enumerate(p) if x) in span)
    assert dims[face] == 4
    assert not _gorenstein(maximal_cliques(g), _zero_masks(g)[0], face)


def test_trace_height_guard_fires_before_any_solve(solves):
    """The cone-dimension guard of the library route fires before a
    system is solved."""
    with pytest.raises(SizeGuardError, match="cone dimension 9, got 10"):
        trace_height(empty_graph(9))
    assert solves[0] == 0


def rational_solvable(rows):
    """Is the system of (coefficients, right-hand side) rows solvable over
    Q?  Gauss-Jordan elimination in `Fraction`s: inconsistent iff some row
    ends as 0 = nonzero."""
    rows = [[Fraction(x) for x in coefficients] + [Fraction(rhs)] for coefficients, rhs in rows]
    for col in range(len(rows[0]) - 1 if rows else 0):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[x - r[col] / pivot[col] * y for x, y in zip(r, pivot)] if r[col] else r
                for r in rows]
    return not any(r[-1] for r in rows)


def test_integer_and_rational_solvability_agree():
    """On every face of every perfect graph on at most six vertices, the
    integer system `_gorenstein` decides is solvable iff it is solvable
    over Q, so a rank test would give the same heights there.

    The tight vertex rows x_j = 1 fix c_j = 1 over Z and Q alike, so the
    rational system here is the tight clique rows with those coordinates
    substituted, over all n + 1 coordinates.  Equal systems are solved
    once."""
    memo = {}
    faces = bad = 0
    for name, g in perfect_graphs_up_to(6):
        cliques = maximal_cliques(g)
        masks = _zero_masks(g)[0]
        n = g.n
        for face in face_lattice(g):
            fixed = [face & masks[j] == face for j in range(n)]
            rows = tuple(sorted(
                ((*(-int(i + 1 in c and not fixed[i]) for i in range(n)), 1),
                 1 + sum(fixed[i - 1] for i in c))
                for c, mask in zip(cliques, masks[n:]) if face & mask == face))
            if rows not in memo:
                memo[rows] = rational_solvable(rows)
            assert _gorenstein(cliques, masks, face) == memo[rows], (name, face)
            faces += 1
            bad += not memo[rows]
    assert (faces, bad) == (53398, 973)


def test_gorenstein_is_an_integer_test():
    """Systems solvable over Q but not over Z, built by hand, so that the
    divisibility test of `_gorenstein` is exercised: no face of a perfect
    graph on at most six vertices separates the two, and none of those
    faces or of the oracle_large graphs needs a Euclid step on a pivot
    that is no unit.  One vertex is fixed (its mask holds the face, bit
    0), the others are free, and the rows are q - sum_{i in C} c_i = 1 for
    the sets C below, of vertices 1..n as in `toric._cliques` (no graph has
    these as its maximal cliques, so they are passed to `_gorenstein`
    directly, with the masks).
    - Vertex 2 fixed: the row of (2,) gives q = 2, so the other three rows
      say c_1 + c_4, c_1 + c_3 and c_3 + c_4 are all 1:
      2(c_1 + c_3 + c_4) = 3, solved by halves only.
    - Vertex 5 fixed: the fifth row reaches the coefficients -2 and -3, so
      a Euclid step leaves a remainder, and the sixth row then ends as
      6y = -5 in the changed coordinates."""
    for fixed, cliques in ((2, ((1, 4), (1, 3), (2,), (3, 4))),
                           (5, ((1, 2, 4, 5), (1, 3, 5), (1, 6), (2,), (2, 3, 4, 5, 6), (6,)))):
        n = max(map(max, cliques))
        masks = tuple(int(v == fixed) for v in range(1, n + 1)) + (1,) * len(cliques)
        rows = [((*(-int(i in c and i != fixed) for i in range(1, n + 1)), 1), 1 + (fixed in c))
                for c in cliques]
        assert rational_solvable(rows)
        assert not _gorenstein(cliques, masks, 1)
        assert not gorenstein_by_basis(cliques, masks, 1)


def test_gorenstein_matches_basis_route():
    """The sparse row elimination of `_gorenstein` against the route that
    carries basis vectors of length n + 1, on every face of every perfect
    graph with at most six vertices and of the oracle_large graphs."""
    def check(graphs):
        faces = 0
        for name, g in graphs:
            cliques = maximal_cliques(g)
            masks = _zero_masks(g)[0]
            for face in face_lattice(g):
                assert _gorenstein(cliques, masks, face) == \
                    gorenstein_by_basis(cliques, masks, face), (name, face)
                faces += 1
        return faces

    assert check(perfect_graphs_up_to(6)) == 53398
    check(oracle_large_graphs())


def test_ray_gorenstein_closed_form():
    """The ray of a stable set S is Gorenstein iff every vertex of S lies
    only in maximal cliques of one size.

    The forms tight at S are x_j for j outside S and q - sum_{i in C} x_i
    for every clique C through a vertex of S, which meets C only there.
    Setting them to 1 forces c_j = 1 off S and c_s = q - |C| for every
    clique C through s in S, so the system is solvable iff each s has one
    clique size.  The library solves the systems instead, so this checks
    the solver against a rule it does not use."""
    rays = 0
    for name, g in perfect_graphs_up_to(6):
        cliques = maximal_cliques(g)
        masks = _zero_masks(g)[0]
        sizes = [{len(c) for c in cliques if v + 1 in c} for v in range(g.n)]
        for k, point in enumerate(_slice(g, 0, 1)):
            one_size = all(len(sizes[v]) == 1 for v in range(g.n) if point[v])
            assert _gorenstein(cliques, masks, 1 << k) == one_size, (name, point)
            rays += 1
    assert rays == 3265


def test_trace_height_prescribed_family_extra_pairs():
    from gstab.posets import comparability_graph, hmp_poset

    for a, b in [(4, 7), (5, 8), (6, 8)]:
        g = comparability_graph(hmp_poset(a, b))
        assert trace_height(g) == a
        assert g.n + 1 == b


def test_classify_oracle_matches_separate_calls(oracle_reports):
    # agreement is True: the criterion holds on every graph of the corpus
    for name, g, report in oracle_reports:
        dims = [clique_dim(component_graph(g, c)) for c in connected_components(g)]
        separate = OracleCheck(trace_equals_power(g, dims[0] - dims[-1]),
                               is_m_primary(g), trace_height(g), True)
        assert report.oracle == separate, name


def test_height_dim_iff_m_primary(oracle_reports):
    for name, g, report in oracle_reports:
        h = report.oracle.height
        if h is UNIT:
            assert report.gorenstein, name
        else:
            assert (h == g.n + 1) == report.oracle.m_primary, name


# -- classification ----------------------------------------------------------------

def test_classify_p3_gorenstein():
    r = classify(P3, oracle=True)
    assert r.classification == "Gorenstein"
    assert r.N == 0
    assert r.oracle.agreement


def test_classify_k2k1():
    r = classify(K2K1, oracle=True)
    assert r.classification == "NearlyGorensteinOnly"
    assert r.label() == "NearlyGorensteinOnly"
    assert r.N == 1
    assert r.nearly_gorenstein and not r.gorenstein
    assert r.oracle.agreement


def test_classify_k3k1():
    r = classify(K3K1, oracle=True)
    assert r.classification == "GPS"
    assert r.label() == "GPS(2)"
    assert r.N == 2
    assert not r.nearly_gorenstein
    assert r.oracle.agreement


def test_classify_paw():
    r = classify(PAW, oracle=True)
    assert r.classification == "NotGPS"
    assert r.N is None
    assert r.oracle.height == 4
    assert r.oracle.agreement


def test_classify_rejects_imperfect():
    with pytest.raises(NotPerfectError):
        classify(cycle_graph(5))


def test_classify_checks_perfection_once(monkeypatch):
    from gstab.posets import comparability_graph, hmp_poset

    calls = []

    def counting(g, *args, **kwargs):
        calls.append(g)
        return is_perfect(g, *args, **kwargs)

    monkeypatch.setattr(toric, "is_perfect", counting)
    for g in (K2, K3K1, PAW, comparability_graph(hmp_poset(4, 6))):
        calls.clear()
        classify(g, oracle=True)
        assert calls == [g]


def test_classify_rejects_empty_graph():
    with pytest.raises(ParameterError):
        classify(empty_graph(0))


@pytest.mark.parametrize("call", [
    lambda g: in_ring(g, Monomial((), 0)),
    lambda g: in_canonical(g, Monomial((), 0)),
    lambda g: in_anticanonical(g, Monomial((), 0)),
    lambda g: in_trace(g, Monomial((), 0)),
    lambda g: degree_monomials(g, 1),
    lambda g: degree_monomials(g, -1),
    lambda g: hilbert_function(g, 1),
    lambda g: hilbert_function(g, -1),
    lambda g: trace_equals_power(g, 0),
    is_m_primary,
    trace_height,
], ids=["in_ring", "in_canonical", "in_anticanonical", "in_trace", "degree_monomials",
        "degree_monomials_below_0", "hilbert_function", "hilbert_function_below_0",
        "trace_equals_power", "is_m_primary", "trace_height"])
def test_toric_entry_points_refuse_a_graph_without_vertices(call):
    """A graph with no vertices has no maximal clique to read the ring's
    inequalities from, so every entry point refuses it, below degree 0
    too; `classify` and its fields are checked by their own tests."""
    with pytest.raises(ParameterError, match="at least one vertex"):
        call(Graph(0, frozenset()))


@pytest.mark.parametrize("oracle", [lambda g: trace_equals_power(g, 1),
                                    is_m_primary, trace_height],
                         ids=["trace_equals_power", "is_m_primary", "trace_height"])
def test_oracles_refuse_imperfect_graphs(oracle):
    """C5's ring is not cut out by its clique inequalities, so the three
    oracles, which read nothing else, refuse it."""
    with pytest.raises(NotPerfectError):
        oracle(cycle_graph(5))


def test_membership_reads_the_clique_inequalities_of_any_graph():
    """The membership tests and slices test no perfection: on C5 they
    answer from its clique (edge) inequalities.  x^(1,1,1,1,1) t^2 meets
    every one, though the odd-cycle inequality x(C5) <= 2q of C5's stable
    set polytope cuts it off."""
    c5 = cycle_graph(5)
    assert in_ring(c5, Monomial((1,) * 5, 2))
    assert hilbert_function(c5, 1) == 11


def test_classify_perfection_guard_follows_size_limit(monkeypatch):
    monkeypatch.delenv("GSTAB_SIZE_LIMIT", raising=False)
    with pytest.raises(SizeGuardError):
        classify(empty_graph(13), oracle=False)
    monkeypatch.setenv("GSTAB_SIZE_LIMIT", "13")
    report = classify(empty_graph(13), oracle=False)
    assert report.classification == "Gorenstein"


GUARD_STEPS = ("perfection test", "family hmp", "enumeration", "face enumeration", "verify")


def test_size_limit_env_override(monkeypatch):
    """GSTAB_SIZE_LIMIT only ever raises a guard: the perfection guard to
    n, the cone guard to n + 1."""
    from gstab.config import size_limit

    monkeypatch.setenv("GSTAB_SIZE_LIMIT", "13")
    assert classify(empty_graph(13)).gorenstein
    assert [size_limit(step) for step in GUARD_STEPS] == [13, 13, 14, 14, 13]
    monkeypatch.setenv("GSTAB_SIZE_LIMIT", "8")
    assert [size_limit(step) for step in GUARD_STEPS] == [12, 12, 9, 9, 8]
    monkeypatch.setenv("GSTAB_SIZE_LIMIT", "4")
    assert [size_limit(step) for step in GUARD_STEPS] == [12, 12, 9, 9, 8]
    assert classify(path_graph(5)).gorenstein


@pytest.mark.parametrize("raw", ["abc", "-3", ""])
def test_malformed_size_limit_env(monkeypatch, raw):
    from gstab.config import check_size, size_limit

    monkeypatch.setenv("GSTAB_SIZE_LIMIT", raw)
    for step in GUARD_STEPS:
        with pytest.raises(ParameterError):
            size_limit(step)
        with pytest.raises(ParameterError):
            check_size(step, 1)
    with pytest.raises(ParameterError):
        classify(K2)


def test_gorenstein_iff_graph_itself_pure(corpus):
    for name, g in corpus:
        assert classify(g).gorenstein == is_pure(g), name


def test_nearly_gorenstein_helper(corpus):
    for name, g in corpus:
        assert is_nearly_gorenstein(g) == classify(g).nearly_gorenstein, name


@st.composite
def perfect_graphs(draw, max_n, min_n=1):
    """A perfect graph on min_n..max_n vertices."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [p for p, keep in zip(pairs, present) if keep])
    assume(is_perfect(g))
    return g


@st.composite
def relabelled_perfect_graphs(draw, max_n=6, min_n=1):
    """A perfect graph on min_n..max_n vertices and a relabelling of it."""
    g = draw(perfect_graphs(max_n, min_n))
    perm = draw(st.permutations(range(1, g.n + 1)))
    return g, Graph.from_edges(g.n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(relabelled_perfect_graphs())
def test_classify_invariant_under_relabelling(pair):
    g, h = pair
    assert classify(h, oracle=True) == classify(g, oracle=True)


@settings(derandomize=True, deadline=None, max_examples=15, database=None)
@given(relabelled_perfect_graphs(7, 7))
def test_classify_invariant_under_relabelling_on_seven_vertices(pair):
    g, h = pair
    assert classify(h, oracle=True) == classify(g, oracle=True)


def test_trace_height_invariant_under_relabelling_up_to_six_vertices():
    rng = random.Random(1003)
    for n in range(1, 7):
        for g in graphs_up_to_iso(n):
            if not is_perfect(g):
                continue
            perm = rng.sample(range(1, n + 1), n)
            h = Graph.from_edges(n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])
            assert trace_height(h) == trace_height(g), g


def test_trace_height_ignores_union_order():
    for a, b in [(PAW, K3), (P3, K2), (cycle_graph(4), PAW), (K3K1, path_graph(4))]:
        assert trace_height(disjoint_union(a, b)) == trace_height(disjoint_union(b, a))


def test_component_order_ignores_labels():
    # paw and K3 both have dimension 2; the impure paw comes first
    for g in (disjoint_union(PAW, K3), disjoint_union(K3, PAW)):
        report = classify(g)
        assert report.component_dims == (2, 2)
        assert report.component_pure == (False, True)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(perfect_graphs(5), perfect_graphs(5))
def test_classify_invariant_under_union_order(a, b):
    assert classify(disjoint_union(a, b)) == classify(disjoint_union(b, a))


def test_classify_holds_no_memory_per_graph(corpus):
    """What `classify(oracle=True)` leaves allocated must not grow with the
    number of graphs classified: faces and generators live for one call,
    and every cache it fills is bounded.  The bounded caches are emptied
    before each reading, so what remains is state that could grow."""
    caches = [value for module in (graphs, toric, posets)
              for value in vars(module).values() if hasattr(value, "cache_clear")]

    def held():
        for cache in caches:
            if cache.cache_parameters()["maxsize"] is not None:
                cache.cache_clear()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    # an unbounded cache already filled by an earlier test would not grow
    for cache in caches:
        cache.cache_clear()
    tracemalloc.start()
    try:
        for name, g in corpus[:10]:
            classify(g, oracle=True)
        prefix = held()
        for name, g in corpus[10:]:
            classify(g, oracle=True)
        grown = held() - prefix
    finally:
        tracemalloc.stop()
    # kept for every graph, the canonical generators of the other 56 corpus
    # graphs would take about 32 KB, their faces about 6.5 MB
    assert grown < 16 * 1024


def test_hot_paths_leave_no_cyclic_garbage():
    """The recursive searches (clique search, slice walk, trace search)
    are module-level functions, so no call leaves a reference cycle
    behind: with the cyclic collector off, the graph, toric, poset and
    semigroup paths leave nothing for it to free.  A
    nested recursive function refers to itself through its closure, and
    one classification pass over the graphs on six vertices left about
    100000 such objects."""
    rng = random.Random(23)
    ten = Graph.from_edges(10, [e for e in combinations(range(1, 11), 2)
                                if rng.random() < 0.5])
    hmp = posets.hmp_poset(4, 7)
    gc.collect()
    gc.disable()
    try:
        for n in range(1, 7):
            for g in graphs_up_to_iso(n):
                if is_perfect(g):
                    classify(g, oracle=True)
        is_perfect(ten)
        trace_height(posets.comparability_graph(hmp))
        verify_equivalence(4)
        h = numsgp.semigroup([5, 7, 9])
        numsgp.residue(h)
        numsgp.trace_ideal(h)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_verify_equivalence_small():
    result = verify_equivalence(3)
    assert result["graphs_checked"] == 7
    assert result["perfect"] == 7
    assert result["disagreements"] == 0


@pytest.mark.parametrize("max_n", [9, 40])
def test_verify_equivalence_size_guard(monkeypatch, no_layer_built, max_n):
    """The face oracle's cone has dimension n + 1, so verify stops one
    vertex below the cone guard, and refuses more before any layer is built
    (9 would otherwise enumerate 274668 classes first)."""
    monkeypatch.delenv("GSTAB_SIZE_LIMIT", raising=False)
    with pytest.raises(SizeGuardError, match=f"verify limited to 8 vertices, got {max_n}"):
        verify_equivalence(max_n)


@pytest.mark.parametrize("max_n", [0, -1])
def test_verify_equivalence_refuses_max_n_below_one(no_layer_built, max_n):
    with pytest.raises(ParameterError, match="max_n must be at least 1"):
        verify_equivalence(max_n)


@pytest.mark.parametrize("max_n", [2.5, "3"])
def test_verify_equivalence_refuses_non_integer_max_n(no_layer_built, max_n):
    with pytest.raises(ParameterError, match="vertex counts must be integers"):
        verify_equivalence(max_n)


def test_purity_matches_gps_per_component(corpus):
    for name, g in corpus:
        all_pure = all(is_pure(component_graph(g, c)) for c in connected_components(g))
        r = classify(g)
        assert all_pure == (r.classification != "NotGPS"), name
