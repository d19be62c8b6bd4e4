"""Outside-in tracing of the library: one span per call of each public
module-level function.

``harness``, ``splittings``, ``aut`` and the others bind names imported
from sibling modules (``from .aut import compose``), so replacing a
function in its defining module alone would miss those calls.  The tracer
rebinds every name, in every loaded ``aperiodic_lab`` module, that refers
to a traced function, and restores them on ``uninstall``.

Spans live in flat arrays (name, start, end, parent) until the benchmark
writes them out; self time is derived from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Sequence

PACKAGE = "aperiodic_lab"
MODULES = ("words", "aut", "homology", "graphs", "subgroups", "splittings", "rtt", "harness", "cli")

# Hot leaves left unwrapped: they run inside every Word construction or
# matrix product, millions of times per unit, so a span on each would cost
# more than the work it measures.  Their time counts toward the caller.
UNTRACED = {"words.reduce_letters", "homology.mat_mul", "homology.identity_matrix"}

PROBES = ("subgroups.orbit_period", "subgroups.exact_word_orbit", "splittings.splitting_orbit_period")


def _probe_counts(outcome) -> Dict[str, int]:
    wasted = outcome.iterations if outcome.kind in ("NoPeriodWithin", "Blowup") else 0
    return {"iterations": outcome.iterations, "wasted_iterations": wasted}


# counts taken from return values, at the boundary where the work happens
RESULT_COUNTS: Dict[str, Callable[[object], Dict[str, int]]] = {
    "words.apply_endo": lambda r: {"letters_out": len(r)},
    "aut.is_inner": lambda r: {"hits": r is not None},
    "subgroups.fold_core": lambda r: {"edges_out": r.n_edges()},
    "subgroups.cores_conjugate": lambda r: {"true": bool(r)},
    "splittings.invariance_test": lambda r: {"hits": r is not None},
    "graphs.enumerate_automorphisms": lambda r: {"found": len(r)},
    **{name: _probe_counts for name in PROBES},
}


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> List[float]:
    """Self time of each span: its duration minus the part its child spans
    cover.  Spans of one thread nest, so the children of a span are disjoint
    intervals inside it and the covered part is the sum of their durations.

    >>> self_times([0.0, 1.0, 2.0, 2.5], [10.0, 4.0, 3.0, 6.0], [-1, 0, 1, 0])
    [3.5, 2.0, 1.0, 3.5]
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


class Tracer:
    """Records spans and result counts for the traced functions while
    installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.counts: Counter = Counter()
        self._patched: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts.clear()
        self._stack = [-1]

    # -- wrapping -------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        counter = RESULT_COUNTS.get(name)
        counts = self.counts

        if inspect.isgeneratorfunction(fn):
            # one span per resume of the generator, not one for its lifetime
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    counts[name + ".yielded"] += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                for key, value in counter(result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function defined in the traced modules and
        rebind each name that refers to one, in every loaded module of the
        package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {}
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, value in vars(module).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    originals[id(value)] = (value, self.wrap(name, value))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched = []

    # -- results ----------------------------------------------------------------

    def per_function(self) -> Dict[str, Dict[str, float]]:
        """Calls and self time per traced function that ran."""
        selfs = self_times(self.start, self.end, self.parent)
        table: Dict[str, Dict[str, float]] = {}
        for i, name_id in enumerate(self.name_id):
            row = table.setdefault(self.names[name_id], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[i]
        return table

    def durations(self, names: Sequence[str]) -> List[float]:
        wanted = {self._ids[n] for n in names if n in self._ids}
        return [
            self.end[i] - self.start[i]
            for i, name_id in enumerate(self.name_id)
            if name_id in wanted
        ]

    def as_json(self) -> dict:
        """The spans in columns: ``name`` indexes ``names``, ``parent`` is
        the index of the enclosing span or -1, and ``start``/``end`` are
        seconds since the first span opened, rounded to 0.1 us."""
        t0 = self.start[0] if self.start else 0.0
        return {
            "names": self.names,
            "name": list(self.name_id),
            "start": [round(t - t0, 7) for t in self.start],
            "end": [round(t - t0, 7) for t in self.end],
            "parent": list(self.parent),
        }


def percentile(values: Sequence[float], q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced unit (named ``module.function.stat``)."""
    table = tracer.per_function()
    counts = tracer.counts
    out: Dict[str, float] = {}

    def fn(name: str, stat: str) -> float:
        return table.get(name, {}).get(stat, 0)

    for name, row in table.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    for short in MODULES:
        out[f"{short}.self_s"] = sum(row["self_s"] for n, row in table.items() if n.split(".")[0] == short)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["words.apply_endo.letters_out"] = counts["words.apply_endo.letters_out"]
    out["aut.is_inner.hit_ratio"] = ratio(counts["aut.is_inner.hits"], fn("aut.is_inner", "calls"))
    out["subgroups.fold_core.edges_out"] = counts["subgroups.fold_core.edges_out"]
    out["subgroups.cores_conjugate.true_ratio"] = ratio(
        counts["subgroups.cores_conjugate.true"], fn("subgroups.cores_conjugate", "calls")
    )
    out["splittings.invariance_test.hit_ratio"] = ratio(
        counts["splittings.invariance_test.hits"], fn("splittings.invariance_test", "calls")
    )
    out["graphs.enumerate_automorphisms.found"] = counts["graphs.enumerate_automorphisms.found"]
    out["graphs.connected_multigraphs.yielded"] = counts["graphs.connected_multigraphs.yielded"]

    probe_ms = [d * 1000.0 for d in tracer.durations(PROBES)]
    out["harness.probe_ms.p50"] = percentile(probe_ms, 0.5)
    out["harness.probe_ms.p99"] = percentile(probe_ms, 0.99)
    out["harness.probe_ms.n"] = len(probe_ms)
    iterations = sum(counts[f"{p}.iterations"] for p in PROBES)
    wasted = sum(counts[f"{p}.wasted_iterations"] for p in PROBES)
    out["harness.probe_iterations"] = iterations
    out["harness.wasted_iter_frac"] = ratio(wasted, iterations)
    out["trace.wall_s"] = wall_s
    return out


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """Metric-wise median over traced units (counts repeat exactly)."""
    keys = set().union(*runs) if runs else set()
    return {k: statistics.median(r.get(k, 0) for r in runs) for k in sorted(keys)}
