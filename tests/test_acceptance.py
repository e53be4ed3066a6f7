"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run pytest
with -s to see them on success) and enforces its stated runtime budget.
The corpus is every perfect graph on up to five vertices (one per
isomorphism class) plus all two-component disjoint unions drawn from
{K1, K2, K3, P3, paw}.
"""

import time
from itertools import combinations, permutations

import numpy as np

from gstab.graphs import (
    complete_graph,
    connected_components,
    disjoint_union,
    maximal_cliques,
)
from gstab.posets import comparability_graph, hmp_poset, poset_from_covers
from gstab.toric import (
    _slice,
    a_invariant,
    hilbert_function,
    is_m_primary,
    trace_equals_power,
    trace_height,
)

from oracles import (
    clique_dim,
    component_graph,
    is_pure,
    omega_generators,
    polytope_point_count,
    trace_contains_maximal_ideal,
)


def dim_spread(g):
    dims = [clique_dim(component_graph(g, c)) for c in connected_components(g)]
    return dims[0] - dims[-1]


def all_components_pure(g):
    return all(is_pure(component_graph(g, c)) for c in connected_components(g))


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num}] {status}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")


def test_criterion_1_purity_power_primary_agree(corpus):
    started = time.perf_counter()
    disagreements = []
    for name, g in corpus:
        pure = all_components_pure(g)
        power = trace_equals_power(g, dim_spread(g))
        primary = is_m_primary(g)
        if not pure == power == primary:
            disagreements.append((name, pure, power, primary))
    elapsed = time.perf_counter() - started
    ok = not disagreements
    report(1, ok, f"purity/power/m-primary agree on {len(corpus)} graphs, "
                  f"{len(disagreements)} disagreements", elapsed, 300)
    assert ok, disagreements
    assert elapsed < 300


def test_criterion_2_trace_power_exact():
    started = time.perf_counter()
    k2k1 = disjoint_union(complete_graph(2), complete_graph(1))
    k3k1 = disjoint_union(complete_graph(3), complete_graph(1))
    checks = [
        trace_equals_power(k2k1, 1),
        not trace_equals_power(k2k1, 0),
        not trace_equals_power(k2k1, 2),
        trace_equals_power(k3k1, 2),
        not trace_equals_power(k3k1, 0),
        not trace_equals_power(k3k1, 1),
        not trace_equals_power(k3k1, 3),
    ]
    elapsed = time.perf_counter() - started
    ok = all(checks)
    report(2, ok, "trace power exact at N=1 (K2+K1) and N=2 (K3+K1)", elapsed, 60)
    assert ok
    assert elapsed < 60


def test_criterion_3_nearly_gorenstein(corpus):
    started = time.perf_counter()
    disagreements = []
    for name, g in corpus:
        flag = all_components_pure(g) and dim_spread(g) <= 1
        oracle = trace_contains_maximal_ideal(g)
        if flag != oracle:
            disagreements.append((name, flag, oracle))
    elapsed = time.perf_counter() - started
    ok = not disagreements
    report(3, ok, f"nearly-Gorenstein flag vs degree-one trace check on "
                  f"{len(corpus)} graphs, {len(disagreements)} disagreements",
           elapsed, 120)
    assert ok, disagreements
    assert elapsed < 120


def test_criterion_4_prescribed_height_and_dimension():
    started = time.perf_counter()
    failures = []
    for a, b in [(4, 5), (4, 6), (5, 6)]:
        g = comparability_graph(hmp_poset(a, b))
        height = trace_height(g)
        dim = g.n + 1
        if height != a or dim != b:
            failures.append((a, b, height, dim))
    elapsed = time.perf_counter() - started
    ok = not failures
    report(4, ok, "height=a and dim=b for (4,5), (4,6), (5,6)", elapsed, 600)
    assert ok, failures
    assert elapsed < 600


def test_criterion_5_prescribed_type_and_residue():
    from gstab.numsgp import cm_type, family, pseudo_frobenius, residue

    started = time.perf_counter()
    failures = []
    for a in range(2, 7):
        for b in range(1, 7):
            h = family(a, b)
            expected_pf = tuple(range((b - 1) * (a + 1) + 1, (b - 1) * (a + 1) + a + 1))
            if cm_type(h) != a or residue(h) != b or pseudo_frobenius(h) != expected_pf:
                failures.append((a, b, cm_type(h), residue(h), pseudo_frobenius(h)))
    elapsed = time.perf_counter() - started
    ok = not failures
    report(5, ok, "type=a, residue=b, exact pseudo-Frobenius set on the "
                  "2<=a<=6, 1<=b<=6 grid", elapsed, 10)
    assert ok, failures
    assert elapsed < 10


def test_criterion_6_a_invariant(corpus):
    started = time.perf_counter()
    failures = []
    for name, g in corpus:
        delta = clique_dim(g) + 1
        min_degree = next(q for q in range(0, delta + 2) if _slice(g, 1, q))
        if -min_degree != a_invariant(g) or min_degree != clique_dim(g) + 2:
            failures.append((name, min_degree, a_invariant(g)))
    elapsed = time.perf_counter() - started
    ok = not failures
    report(6, ok, f"canonical-module minimal degree matches the formula on "
                  f"{len(corpus)} graphs", elapsed, 120)
    assert ok, failures
    assert elapsed < 120


def test_criterion_7_segre_hilbert_identity(union_corpus):
    started = time.perf_counter()
    failures = []
    for name, g in union_corpus:
        parts = [component_graph(g, c) for c in connected_components(g)]
        for q in range(7):
            expected = 1
            for part in parts:
                expected *= hilbert_function(part, q)
            if hilbert_function(g, q) != expected:
                failures.append((name, q))
    elapsed = time.perf_counter() - started
    ok = not failures
    report(7, ok, f"Hilbert function factors over components for "
                  f"{len(union_corpus)} unions, q<=6", elapsed, 120)
    assert ok, failures
    assert elapsed < 120


def _anticanonical_box_mismatches(g) -> int:
    """Vectorized comparison of the two anticanonical routes over the box
    a_i in [-2,3], q in [-(delta+1), 8]."""
    cliques = maximal_cliques(g)
    n = g.n
    count = 6 ** n
    flat = np.arange(count, dtype=np.int64)
    pts = np.empty((count, n), dtype=np.int16)
    for j in range(n):
        pts[:, j] = ((flat // 6 ** j) % 6).astype(np.int16) - 2
    cmat = np.zeros((len(cliques), n), dtype=np.int16)
    for ci, c in enumerate(cliques):
        for v in c:
            cmat[ci, v - 1] = 1
    sums = pts @ cmat.T
    sums_max = sums.max(axis=1)
    pts_min = pts.min(axis=1)
    degrees = list(range(-(max(map(len, cliques)) + 1), 9))

    threshold = {q: (pts_min >= -1) & (sums_max <= q + 1) for q in degrees}
    definitional = {q: np.ones(count, dtype=bool) for q in degrees}
    for w in omega_generators(g):
        wexp = np.array(w.exponents, dtype=np.int16)
        shift_ok = (pts + wexp).min(axis=1) >= 0
        shifted_max = (sums + cmat @ wexp).max(axis=1)
        for q in degrees:
            definitional[q] &= shift_ok & (shifted_max <= q + w.degree)
    return sum(int((threshold[q] != definitional[q]).sum()) for q in degrees)


def test_criterion_8_anticanonical_double_check(corpus):
    started = time.perf_counter()
    mismatches = {}
    for name, g in corpus:
        bad = _anticanonical_box_mismatches(g)
        if bad:
            mismatches[name] = bad
    elapsed = time.perf_counter() - started
    ok = not mismatches
    report(8, ok, f"threshold route equals definitional route on the stated "
                  f"box for {len(corpus)} graphs", elapsed, 300)
    assert ok, mismatches
    assert elapsed < 300


def posets_up_to_iso(n):
    """Transitively closed strict orders inside the natural order of [n],
    one representative per isomorphism class."""
    pairs = list(combinations(range(n), 2))
    perms = list(permutations(range(n)))
    seen = set()
    reps = []
    for mask in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        if any(b == c and (a, d) not in rel
               for a, b in rel for c, d in rel):
            continue
        canon = min(tuple(sorted((p[i], p[j]) for i, j in rel)) for p in perms)
        if canon in seen:
            continue
        seen.add(canon)
        reps.append(rel)
    return reps


def test_criterion_9_ehrhart_equality():
    started = time.perf_counter()
    failures = []
    total = 0
    for n in range(1, 6):
        for rel in posets_up_to_iso(n):
            total += 1
            p = poset_from_covers(list(range(n)), sorted(rel))
            for q in range(6):
                if polytope_point_count(p, "order", q) != \
                        polytope_point_count(p, "chain", q):
                    failures.append((n, sorted(rel), q))
    elapsed = time.perf_counter() - started
    ok = not failures and total == 1 + 2 + 5 + 16 + 63
    report(9, ok, f"order and chain polytope counts agree for all {total} "
                  f"posets on <=5 elements, q<=5", elapsed, 60)
    assert not failures, failures
    assert total == 87
    assert elapsed < 60
