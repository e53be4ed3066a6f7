"""The four benchmark workloads: inputs, one pass of program calls, checks.

Every workload is a closed loop with one client: the next item starts only
after the previous one has returned.  An item is one graph, poset or
semigroup.  A workload provides

- ``build(gs, seed)``: the inputs, made only from the seed (this is set-up);
- ``steps(gs, inputs)``: a generator; each ``next()`` runs one item through
  the library and yields its raw result, so timing ``next()`` times exactly
  the program's work for that item (for ``sweep6`` that includes the lazy
  enumeration of the graph);
- ``check(gs, raw)``: ``(label, canonical, problems)``, where ``canonical``
  is a JSON-able record of the result and ``problems`` lists failed checks;
- ``expected``: the number of items in one pass;
- ``totals``: ``None`` or a pass-level check over the canonical records.

``gs`` is the imported ``gstab`` package.  Workloads call the library only
through its attributes, so the traced run sees every call.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import random
from collections import namedtuple

Workload = namedtuple("Workload", "name seeded build steps check expected totals")


def report_record(report) -> dict:
    """A TraceReport as plain JSON data (the ``Unit`` height becomes its repr)."""
    out = dataclasses.asdict(report)
    if out["oracle"] is not None and not isinstance(out["oracle"]["height"], int):
        out["oracle"]["height"] = repr(out["oracle"]["height"])
    return out


# ---------------------------------------------------------------------------
# sweep6: the paper's exhaustive evidence, every graph on 1..6 vertices

SWEEP_MAX_N = 6
SWEEP_GRAPHS = 208   # isomorphism classes on 1..6 vertices (OEIS A000088)
SWEEP_PERFECT = 199


def _sweep_build(gs, seed):
    return None


def _sweep_steps(gs, inputs):
    for n in range(1, SWEEP_MAX_N + 1):
        for g in gs.graphs_up_to_iso(n):
            perfect = gs.is_perfect(g)
            yield g, perfect, gs.classify(g, oracle=True) if perfect else None


def _sweep_check(gs, raw):
    g, perfect, report = raw
    label = f"n{g.n}:{g.sorted_edges()}"
    problems = []
    if report is not None:
        # the agreement rule of verify_equivalence
        fast = report.classification != "NotGPS"
        oc = report.oracle
        if not (fast == oc.trace_power == oc.m_primary and oc.agreement):
            problems.append(f"{label}: fast criterion and oracles disagree")
    record = {"n": g.n, "edges": g.sorted_edges(), "perfect": perfect,
              "report": report_record(report) if report is not None else None}
    return label, record, problems


def _sweep_totals(records: list[dict]) -> list[str]:
    """Pass-level check: 208 graphs, 199 of them perfect."""
    perfect = sum(1 for r in records if r["perfect"])
    if (len(records), perfect) != (SWEEP_GRAPHS, SWEEP_PERFECT):
        return [f"sweep6 saw {len(records)} graphs, {perfect} perfect; "
                f"expected {SWEEP_GRAPHS}, {SWEEP_PERFECT}"]
    return []


# ---------------------------------------------------------------------------
# oracle_large: few large inputs that share nothing, all under the oracle

HMP_PARAMS = [(a, b) for a in range(4, 8) for b in range(a + 1, 10)]
UNIONS = {
    "K5+K1": (("K", 5), ("K", 1)),
    "K5+K2": (("K", 5), ("K", 2)),
    "K5+P3": (("K", 5), ("P", 3)),
    "K4+P3": (("K", 4), ("P", 3)),
    "K3+K3+K1": (("K", 3), ("K", 3), ("K", 1)),
    "P7": (("P", 7),),
}


def _oracle_build(gs, seed):
    return [("hmp", ab) for ab in HMP_PARAMS] + [("union", name) for name in UNIONS]


def _oracle_steps(gs, inputs):
    for kind, spec in inputs:
        if kind == "hmp":
            g = gs.comparability_graph(gs.hmp_poset(*spec))
        else:
            parts = [gs.complete_graph(k) if shape == "K" else gs.path_graph(k)
                     for shape, k in UNIONS[spec]]
            g = parts[0]
            for h in parts[1:]:
                g = gs.disjoint_union(g, h)
        yield kind, spec, g, gs.classify(g, oracle=True)


def _oracle_check(gs, raw):
    kind, spec, g, report = raw
    label = f"hmp{spec}" if kind == "hmp" else spec
    problems = []
    if not report.oracle.agreement:
        problems.append(f"{label}: oracle disagrees with the fast criterion")
    if kind == "hmp":
        a, b = spec
        if report.oracle.height != a:
            problems.append(f"{label}: trace height {report.oracle.height!r}, expected {a}")
        if report.dim != b:
            problems.append(f"{label}: dimension {report.dim}, expected {b}")
    return label, {"item": label, "n": g.n, "report": report_record(report)}, problems


# ---------------------------------------------------------------------------
# fastpath: the fast criterion on seeded graphs beyond oracle reach
#
# Cost grows as 2^n and depends on density, so n and p are stratified
# rather than drawn freely: each kind gets 20 graphs per n in 8..12, with
# one p from each of 20 equal strata of [0.2, 0.8].  The seed picks p
# inside its stratum and every edge, which keeps the pass time steady
# across seeds without fixing the graphs.

FAST_NS = range(8, 13)
FAST_STRATA = 20
FAST_P = (0.2, 0.8)


def _strata(rng, k):
    lo, hi = FAST_P
    ps = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(ps)
    return ps


def _fast_build(gs, seed):
    from gstab.posets import poset_from_covers

    rng = random.Random(seed)
    ps = {(kind, n): _strata(rng, FAST_STRATA)
          for kind in ("gnp", "poset") for n in FAST_NS}
    items = []
    for j in range(FAST_STRATA):
        for n in FAST_NS:
            p = ps["gnp", n][j]
            edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                     if rng.random() < p]
            items.append(("gnp", gs.Graph.from_edges(n, edges)))
            q = ps["poset", n][j]
            rel = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < q]
            items.append(("poset", gs.comparability_graph(poset_from_covers(range(n), rel))))
    return items


def _fast_steps(gs, inputs):
    for kind, g in inputs:
        try:
            result = gs.classify(g)
        except gs.NotPerfectError as exc:
            result = exc
        yield kind, g, result


def _fast_check(gs, raw):
    kind, g, result = raw
    label = f"{kind}:n{g.n}:{len(g.edges)}e"
    problems = []
    if isinstance(result, gs.NotPerfectError):
        if kind == "poset":
            problems.append(f"{label}: comparability graph reported not perfect")
        outcome = "NotPerfectError"
    else:
        outcome = report_record(result)
    return label, {"kind": kind, "edges": g.sorted_edges(), "result": outcome}, problems


# ---------------------------------------------------------------------------
# numsgp: canonical and trace ideals of numerical semigroups
#
# Work grows with the square of the conductor, so each size's 20 seeded
# sets are spread over its conductor distribution, which keeps the pass
# time and the latency quantiles steady across seeds.  Two generators: the
# coprime pairs in 10..63, sorted by conductor, are cut into 20 blocks of
# equal count and the seed picks one of the pairs nearest each block's
# centre.  Three and four generators: the seed draws a pool of 200 sets
# with gcd 1, and the centre set of each block of 10 by conductor is kept.

FAMILY_PARAMS = [(a, b) for a in range(2, 17, 2) for b in range(1, 17, 3)] + [(60, 40), (40, 30)]
GEN_RANGE = range(10, 64)
SETS_PER_SIZE = 20
POOL_PER_SET = 10
CENTRE_SPREAD = 4   # pairs on each side of a block's centre


def conductor(gens) -> int:
    """Frobenius number plus one, from the Apery set of the smallest generator."""
    m = gens[0]
    dist = [0] + [math.inf] * (m - 1)
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > dist[r]:
            continue
        for g in gens[1:]:
            if d + g < dist[(d + g) % m]:
                dist[(d + g) % m] = d + g
                heapq.heappush(heap, (d + g, (d + g) % m))
    return max(dist) - m + 1


def _two_generator_sets(rng):
    pairs = sorted(((a - 1) * (b - 1), a, b) for a in GEN_RANGE for b in GEN_RANGE
                   if a < b and math.gcd(a, b) == 1)
    k = SETS_PER_SIZE
    return [pairs[(2 * i + 1) * len(pairs) // (2 * k)
                  + rng.randint(-CENTRE_SPREAD, CENTRE_SPREAD)][1:] for i in range(k)]


def _pooled_sets(rng, size):
    pool = []
    while len(pool) < SETS_PER_SIZE * POOL_PER_SET:
        gens = tuple(sorted(rng.sample(GEN_RANGE, size)))
        if math.gcd(*gens) == 1:
            pool.append((conductor(gens), gens))
    pool.sort()
    return [pool[i * POOL_PER_SET + POOL_PER_SET // 2][1] for i in range(SETS_PER_SIZE)]


def _num_build(gs, seed):
    rng = random.Random(seed)
    seeded = _two_generator_sets(rng) + _pooled_sets(rng, 3) + _pooled_sets(rng, 4)
    return [("family", ab) for ab in FAMILY_PARAMS] + [("gens", gens) for gens in seeded]


def _num_steps(gs, inputs):
    for kind, spec in inputs:
        h = gs.family(*spec) if kind == "family" else gs.semigroup(spec)
        yield (kind, spec, h, gs.cm_type(h), gs.residue(h),
               gs.pseudo_frobenius(h), gs.trace_ideal(h))


def _num_check(gs, raw):
    kind, spec, h, typ, res, pf, tr = raw
    label = f"{kind}{spec}"
    problems = []
    if kind == "family" and (typ, res) != spec:
        problems.append(f"{label}: type {typ}, residue {res}")
    if kind == "gens" and h.conductor != conductor(spec):
        problems.append(f"{label}: conductor {h.conductor}, expected {conductor(spec)}")
    record = {"generators": list(h.generators), "type": typ, "residue": res,
              "pseudo_frobenius": list(pf), "trace_min": tr.min,
              "trace_window": sorted(tr.window)}
    return label, record, problems


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep6", False, _sweep_build, _sweep_steps, _sweep_check, SWEEP_GRAPHS,
                 _sweep_totals),
        Workload("oracle_large", False, _oracle_build, _oracle_steps, _oracle_check,
                 len(HMP_PARAMS) + len(UNIONS), None),
        Workload("fastpath", True, _fast_build, _fast_steps, _fast_check,
                 2 * FAST_STRATA * len(FAST_NS), None),
        Workload("numsgp", True, _num_build, _num_steps, _num_check,
                 len(FAMILY_PARAMS) + 3 * SETS_PER_SIZE, None),
    )
}
