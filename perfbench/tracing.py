"""Outside-in tracing of gstab's public functions.

Every public function defined in ``gstab.graphs``, ``gstab.toric``,
``gstab.posets`` and ``gstab.numsgp`` is wrapped, and every module binding
of it is replaced, because ``toric``, ``cli`` and the package import
``graphs`` functions by name.  Each call is a span with a start, an end and
a parent (the enclosing traced call).  A span's self time is its duration
minus the time of its child spans.

A pass of ``sweep6`` makes about 1.6 million spans, so spans are folded
into per-function totals when they close instead of being kept one by
one; the runner snapshots the per-module totals at item boundaries, which
gives the self time of each layer for each item.

Besides calls and times, the tracer counts the work a function returns:
``toric.trace_generators.kept`` and ``toric.cone_faces.faces`` sum the
length of each computed result (cache hits are not counted again), and
``graphs.graphs_up_to_iso.yielded`` counts the graphs a generator yields;
each ``next()`` on it is timed as a span of its own.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

MODULES = ("graphs", "toric", "posets", "numsgp")

# function -> name of the counter that sums the lengths of its results
RESULT_SIZES = {"toric.trace_generators": "kept", "toric.cone_faces": "faces"}


def public_functions() -> dict[str, object]:
    """``"module.name"`` -> function, for every public function of the layers."""
    out = {}
    for mod in MODULES:
        module = sys.modules[f"gstab.{mod}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == module.__name__:
                out[f"{mod}.{name}"] = obj
    return out


class Tracer:
    """Patches the layers on ``__enter__`` and restores them on ``__exit__``."""

    def __init__(self):
        self.functions = public_functions()
        # per function: [calls, self seconds, counter]
        self.stats = {key: [0, 0.0, 0] for key in self.functions}
        self._stack = [0.0]   # child time accumulated by each open span
        self._patched = []
        self.bindings = 0     # module attributes replaced by wrappers

    def _wrap(self, key, fn):
        rec = self.stats[key]
        stack = self._stack

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    t0 = perf_counter()
                    stack.append(0.0)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        d = perf_counter() - t0
                        rec[0] += 1
                        rec[1] += d - stack.pop()
                        stack[-1] += d
                    rec[2] += 1
                    yield item
            return wrapper

        size_counter = key in RESULT_SIZES
        info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            if size_counter:
                misses = info().misses if info else None
            t0 = perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                rec[0] += 1
                rec[1] += d - stack.pop()
                stack[-1] += d
            if size_counter and (misses is None or info().misses > misses):
                rec[2] += len(result)
            return result
        return wrapper

    def __enter__(self):
        wrappers = {id(fn): self._wrap(key, fn) for key, fn in self.functions.items()}
        for name, module in list(sys.modules.items()):
            if name != "gstab" and not name.startswith("gstab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        self.bindings = len(self._patched)
        return self

    def __exit__(self, *exc):
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()
        return False

    def module_self(self) -> dict[str, float]:
        """Self seconds per layer so far."""
        out = dict.fromkeys(MODULES, 0.0)
        for key, (_, self_s, _) in self.stats.items():
            out[key.split(".", 1)[0]] += self_s
        return out

    def table(self) -> dict[str, dict]:
        """Per function: calls, self seconds, the result counter, cache figures."""
        out = {}
        for key, (calls, self_s, counter) in self.stats.items():
            row = {"calls": calls, "self_s": self_s}
            if key in RESULT_SIZES:
                row[RESULT_SIZES[key]] = counter
            elif inspect.isgeneratorfunction(self.functions[key]):
                row["yielded"] = counter
            info = getattr(self.functions[key], "cache_info", None)
            if info is not None:
                ci = info()
                lookups = ci.hits + ci.misses
                row["cache_entries"] = ci.currsize
                row["cache_hit_ratio"] = ci.hits / lookups if lookups else 0.0
            out[key] = row
        return out
