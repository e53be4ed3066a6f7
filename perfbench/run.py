"""Benchmark of the gstab library: four workloads through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One invocation runs one workload in its own process, so peak
memory and cache figures belong to that workload alone.  The workloads
(``sweep6``, ``oracle_large``, ``fastpath``, ``numsgp``) are defined in
``workloads.py``; ``BENCHMARK.json`` gives the reason for each and names
every metric this script prints.

A run repeats whole passes over the workload's items while the next pass
still fits in ``--seconds`` (at least two passes; one untraced/traced pair
with ``--trace 1``).  The library's caches are
cleared before each pass, since a user pays for filling them on every run.
Every result is checked; at the default seed (and at every seed for the
two workloads that ignore it) each item's canonical result must also
match the digest recorded in ``reference.json``.

Times are scaled to the machine's speed (see ``Clock``), because on a
shared machine that speed drifts by more than any bound worth setting.
The line before the result also gives the unscaled figures.

``--trace 0`` prints the end-to-end metrics: set-up time (median over
fresh interpreters that import gstab and build the inputs), and, from each
item's median time over the passes, items per second and the median and
tail per-item latency (Harrell-Davis estimates), plus peak RSS.  ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics of ``tracing.py``: self time, calls and
work counts per public function, cache figures, the share of the traced
time the layers account for, and the tracing overhead.

The last line of stdout is the result; the line before it holds details
(seed use, passes, tail percentile, and for traced runs the full
per-function table, the work counters and the slowest items by layer).
``--write-reference`` records the digests at the default seed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_RUNS = 7
MIN_PASSES = 2
TAIL_BEYOND = 10    # the tail percentile leaves at least this many items above it
PERCENTILES = (99.9, 99, 95, 90, 75, 50)
PROBE_EVERY = 0.1   # seconds between speed probes
PROBE_WINDOW = 0.5  # probes this close to an item set its speed
PROBE_LOOPS = 8000
PROBE_NOMINAL = 0.002

sys.path.insert(0, str(HERE))
from tracing import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

Item = namedtuple("Item", "label t0 t1 digest problems")


def digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def setup(name: str, seed: int):
    """Import gstab from the checkout and build the workload's inputs."""
    sys.path.insert(0, str(SRC))
    import gstab
    if Path(gstab.__file__).resolve().parent != SRC / "gstab":
        raise SystemExit(f"imported gstab from {gstab.__file__}, not from {SRC}")
    return gstab, WORKLOADS[name].build(gstab, seed)


def setup_seconds(name: str, seed: int) -> list[float]:
    """Scaled set-up time, one value per fresh interpreter."""
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def clear_caches():
    for name, module in list(sys.modules.items()):
        if name == "gstab" or name.startswith("gstab."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


class Clock:
    """Scales wall time to the machine's current speed.

    On a shared machine the speed of one process drifts by 15-30% within
    seconds, in the library and in a plain loop alike, and more passes do
    not average that away.  So while the clock is open, a timer signal
    interrupts the process every PROBE_EVERY seconds to time a fixed
    pure-Python loop.  An interval's scaled time is its wall time, less the
    probes inside it, times PROBE_NOMINAL over the median of the probes
    within PROBE_WINDOW of it: the time it would take on a machine where
    the loop takes PROBE_NOMINAL seconds.

    A probe allocates no object that the garbage collector tracks, so the
    number of probes, which depends on timing, hardly moves garbage
    collections from one item to another.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.probes: list[float] = []
        self._acc = {}

    def _probe(self, signum=None, frame=None):
        acc = self._acc
        acc.clear()
        t0 = perf_counter()
        for i in range(PROBE_LOOPS):
            key = (i & 255) * 7 + i % 7
            acc[key] = acc.get(key, 0) + i
        self.starts.append(t0)
        self.probes.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        for _ in range(3):
            self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(3):
            self._probe()
        return False

    def scale(self, t0: float, t1: float) -> float:
        """Scaled seconds of the interval [t0, t1]."""
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_left(self.starts, t1)
        inside = sum(self.probes[first:last])
        near = self.probes[bisect.bisect_left(self.starts, t0 - PROBE_WINDOW):
                           bisect.bisect_left(self.starts, t1 + PROBE_WINDOW)]
        return (t1 - t0 - inside) * PROBE_NOMINAL / statistics.median(near)


def run_pass(gs, wl, inputs, reference, tracer=None, breakdown=None) -> list[Item]:
    """One pass over the workload; only ``next(steps)`` is timed."""
    steps = wl.steps(gs, inputs)
    items, records = [], []
    gc.collect()  # every pass starts the collector from the same state
    while True:
        before = tracer.module_self() if tracer else None
        t0 = perf_counter()
        try:
            raw = next(steps)
        except StopIteration:
            break
        except Exception as exc:  # a crash fails the item and ends the pass
            items.append(Item(f"item {len(items)}", t0, perf_counter(), None,
                              [f"item {len(items)} raised {exc!r}"]))
            break
        t1 = perf_counter()
        label, record, problems = wl.check(gs, raw)
        d = digest(record)
        if reference is not None and (len(items) >= len(reference) or reference[len(items)] != d):
            problems = problems + [f"{label}: result differs from the reference"]
        if tracer:
            after = tracer.module_self()
            breakdown.append({"item": label, "seconds": t1 - t0,
                              "self_s": {m: after[m] - before[m] for m in after}})
        items.append(Item(label, t0, t1, d, problems))
        records.append(record)
    if wl.totals:
        extra = wl.totals(records)
        if extra and items:
            items[-1] = items[-1]._replace(problems=items[-1].problems + extra)
    return items


def tally(passes: list[list[Item]], expected: int):
    """(attempted, failed, problems) over all passes; missing items fail."""
    attempted = failed = 0
    problems = []
    for items in passes:
        missing = max(0, expected - len(items))
        attempted += len(items) + missing
        failed += sum(1 for it in items if it.problems) + missing
        problems += [p for it in items for p in it.problems]
        if missing:
            problems.append(f"{missing} items missing from a pass")
    return attempted, failed, problems


def percentile(sorted_values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of the order statistics; rank i gets the probability
    that a Beta(q(n+1), (1-q)(n+1)) variable, q = p/100, falls in
    [(i-1)/n, i/n].  Each item is timed only once or twice, and a single
    order statistic moves with the noise of that one timing; this estimate
    averages the ranks around the percentile instead.  With at least
    TAIL_BEYOND items on each side both Beta parameters exceed 1, so the
    density is bounded and Simpson's rule integrates it well.
    """
    n = len(sorted_values)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 8   # Simpson intervals per rank
    h = 1 / (n * steps)
    simpson = [1] + [4 if k % 2 else 2 for k in range(1, steps)] + [1]
    total = weights = 0.0
    for i, value in enumerate(sorted_values):
        w = h / 3 * sum(c * density(i / n + k * h) for k, c in enumerate(simpson))
        total += w * value
        weights += w
    return total / weights


def tail_percentile(count: int) -> float:
    """The highest percentile with at least TAIL_BEYOND items beyond it."""
    for p in PERCENTILES:
        if count * (100 - p) / 100 >= TAIL_BEYOND:
            return p
    return 50


def measure(gs, wl, inputs, reference, seconds: int, traced: bool):
    """Repeat passes (or untraced/traced pairs) while the next one fits.

    An untraced run makes at least MIN_PASSES passes: an item timed once
    carries the full noise of the machine, and the two workloads with the
    longest passes (about 14 s each) would otherwise often get only one.
    """
    minimum = 1 if traced else MIN_PASSES
    plain, traced_runs = [], []
    start = perf_counter()
    last = 0.0
    with Clock() as clock:
        while len(plain) < minimum or perf_counter() - start + last <= seconds:
            t0 = perf_counter()
            clear_caches()
            plain.append(run_pass(gs, wl, inputs, reference))
            if traced:
                clear_caches()
                breakdown = []
                with Tracer() as tracer:
                    items = run_pass(gs, wl, inputs, reference, tracer, breakdown)
                traced_runs.append((items, tracer, breakdown))
            last = perf_counter() - t0
    return plain, traced_runs, clock


def end_to_end(plain, clock, setup_runs) -> tuple[dict, dict]:
    tail_p = tail_percentile(len(plain[0]))

    def figures(seconds):
        per_item = sorted(map(statistics.median, zip(*seconds)))
        return (len(per_item) / sum(per_item),
                1000 * percentile(per_item, 50), 1000 * percentile(per_item, tail_p))

    raw = [[it.t1 - it.t0 for it in items] for items in plain]
    rate, p50, tail = figures([[clock.scale(it.t0, it.t1) for it in items] for items in plain])
    values = {
        "setup_s": statistics.median(setup_runs),
        "items_per_s": rate,
        "item_p50_ms": p50,
        "item_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "tail_percentile": tail_p, "item_count": len(plain[0]),
        "setup_runs_s": setup_runs,
        "pass_seconds": list(map(sum, raw)),
        "probe_median_s": statistics.median(clock.probes),
        "unscaled": dict(zip(("items_per_s", "item_p50_ms", "item_tail_ms"), figures(raw))),
    }
    return values, details


def per_layer(plain, traced_runs, clock) -> tuple[dict, dict]:
    """Layer figures of the traced passes.  Self times are scaled by each
    traced pass's own speed factor, so they add up to its scaled time."""
    def scaled(items):
        return sum(clock.scale(it.t0, it.t1) for it in items)

    tables = []
    for items, tracer, _ in traced_runs:
        table = tracer.table()
        factor = scaled(items) / sum(it.t1 - it.t0 for it in items)
        for row in table.values():
            row["self_s"] *= factor
        tables.append(table)
    traced_s = sum(scaled(items) for items, _, _ in traced_runs)
    plain_s = sum(map(scaled, plain))
    values = {"trace.overhead_ratio": traced_s / plain_s,
              "trace.layer_share": sum(row["self_s"] for table in tables
                                       for row in table.values()) / traced_s}
    last = tables[-1]
    for key, row in last.items():
        for stat, value in row.items():
            if stat == "self_s":
                value = statistics.mean(table[key]["self_s"] for table in tables)
            values[f"{key}.{stat}"] = value
        module = key.split(".", 1)[0]
        values[f"{module}.self_s"] = values.get(f"{module}.self_s", 0.0) + values[f"{key}.self_s"]
    counters = {name: value for name, value in values.items()
                if name.rsplit(".", 1)[-1] in ("calls", "kept", "faces", "yielded",
                                               "cache_entries")}
    slowest = sorted(traced_runs[-1][2], key=lambda b: -b["seconds"])[:TAIL_BEYOND]
    details = {"traced_passes": len(traced_runs),
               "bindings_patched": traced_runs[-1][1].bindings,
               "traced_s": traced_s, "untraced_s": plain_s,
               "functions": last, "counters": counters, "slowest_items": slowest}
    return values, details


def select(values: dict, specs: list[dict]) -> dict:
    """The metrics BENCHMARK.json names; a layer function that is gone reads 0."""
    out = {}
    for spec in specs:
        name = spec["name"]
        if name not in values and name.split(".", 1)[0] not in MODULES:
            raise SystemExit(f"benchmark cannot compute metric {name}")
        out[name] = {"value": values.get(name, 0), "unit": spec["unit"]}
    return out


def write_reference():
    out = {"default_seed": DEFAULT_SEED, "digests": {}}
    for name, wl in WORKLOADS.items():
        gs, inputs = setup(name, DEFAULT_SEED)
        clear_caches()
        items = run_pass(gs, wl, inputs, None)
        _, failed, problems = tally([items], wl.expected)
        if failed:
            raise SystemExit(f"{name}: checks failed, no reference written: {problems[:5]}")
        out["digests"][name] = [it.digest for it in items]
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the result digests at the default seed and exit")
    args = parser.parse_args(argv)
    if not (SRC / "gstab" / "__init__.py").is_file():
        print(f"no gstab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        with Clock() as clock:
            t0 = perf_counter()
            setup(args.workload, args.seed)
            t1 = perf_counter()
        print(repr(clock.scale(t0, t1)))
        return 0

    wl = WORKLOADS[args.workload]
    gs, inputs = setup(args.workload, args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads(REFERENCE.read_text())
    checked = not wl.seeded or args.seed == refs["default_seed"]
    reference = refs["digests"][wl.name] if checked else None
    plain, traced_runs, clock = measure(gs, wl, inputs, reference, args.seconds,
                                        bool(args.trace))
    attempted, failed, problems = tally([*plain, *(items for items, _, _ in traced_runs)],
                                        wl.expected)
    if args.trace:
        values, details = per_layer(plain, traced_runs, clock)
        metrics = select(values, spec["per_layer"])
    else:
        values, details = end_to_end(plain, clock, setup_seconds(args.workload, args.seed))
        metrics = select(values, spec["end_to_end"])
    print(json.dumps({"workload": wl.name, "seed": args.seed, "seed_used": wl.seeded,
                      "reference_checked": checked, "passes": len(plain),
                      "items_per_pass": wl.expected, "problems": problems[:20], **details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
