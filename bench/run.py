#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload probes --seed 1 --seconds 55 --trace 0

Run from the repository root (the library is imported from ``src/``).  One
caller drives the workload closed-loop in this process with one worker:
it runs the workload's unit (every block once) again and again for
``--seconds`` seconds and reports the mean unit.  Before that, fresh
interpreters measure the set-up a CLI call pays.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced units and prints the per-layer metrics, from
spans around every public library function (see spans.py); the spans of
the last traced unit are written to ``bench/traces/``.  Every report is checked, and the digest of
the reports, timing stripped, must repeat across units and with tracing on.
The last line of output is one JSON object: ``correct``, ``attempted`` and
``failed`` count the checks, ``metrics`` holds the values with their units.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, layer_metrics, median_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPS = 5
MIN_UNITS = 3
# no unit starts once this much measuring time has passed, whatever
# --seconds asks, so that a run ends within three minutes
HARD_LIMIT_S = 120.0

SETUP_CODE = """\
import aperiodic_lab.cli
from aperiodic_lab.aut import standard_generators
for rank in (2, 3):
    for family in ("ia3", "nielsen"):
        standard_generators(rank, family)
"""


def measure_setup(reps: int) -> float:
    """Median wall time of a fresh interpreter importing the CLI and
    building the generator families, after one untimed warm-up that
    writes the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for i in range(reps + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Unit:
    """One pass over every block of a workload."""

    def __init__(self, workload, checks, tracer=None):
        self.reports = []
        self.block_s = []
        self.items = self.conclusive = self.inconclusive = 0
        self.raised = False
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            for block in workload.blocks:
                b0 = time.perf_counter()
                try:
                    self.reports.append(block.run())
                except Exception:
                    traceback.print_exc()
                    self.reports.append(None)
                    self.raised = True
                self.block_s.append(time.perf_counter() - b0)
        finally:
            self.wall_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        for block, report in zip(workload.blocks, self.reports):
            if report is None:
                checks.fail_all(block.n_checks, f"{block.name} raised")
                continue
            block.check(report, checks)
            items, conclusive, inconclusive = block.tally(report)
            self.items += items
            self.conclusive += conclusive
            self.inconclusive += inconclusive


def measure(workload, checks, seconds: float, trace: bool):
    """Run units until ``seconds`` have passed: at least MIN_UNITS untraced
    units, or, when tracing, at least one pair of an untraced and a traced
    unit.  Returns the untraced units, the traced units and their tracers."""
    from workloads import digest

    plain, traced, tracers = [], [], []
    t_start = time.perf_counter()
    while True:
        if trace:
            # alternate which side of the pair runs first
            for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
                if with_trace:
                    tracers.append(Tracer())
                    traced.append(Unit(workload, checks, tracers[-1]))
                else:
                    plain.append(Unit(workload, checks))
            step = max(u.wall_s for u in plain) + max(u.wall_s for u in traced)
        else:
            plain.append(Unit(workload, checks))
            step = max(u.wall_s for u in plain)
        if any(u.raised for u in plain + traced):
            break
        elapsed = time.perf_counter() - t_start
        if elapsed + step > HARD_LIMIT_S:
            break
        if elapsed + step > seconds and (trace or len(plain) >= MIN_UNITS):
            break
    digests = {digest(u.reports) for u in plain}
    checks.expect(len(digests) == 1, f"report digests differ across units: {sorted(digests)}")
    if trace:
        checks.expect({digest(u.reports) for u in traced} == digests, "tracing changed the reports")
    return plain, traced, tracers


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def end_to_end_metrics(plain, setup_s: float, checks):
    # the mean unit, i.e. measuring time / units: the machine's speed
    # switches between two levels every 10 to 60 s, and a median jumps
    # between them where the mean averages them (see README.md)
    wall_s = statistics.fmean(u.wall_s for u in plain)
    unit = plain[0]
    decided = unit.conclusive + unit.inconclusive
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items_per_s": unit.items / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "conclusive_frac": unit.conclusive / decided if decided else 1.0,
        "passed_frac": 1.0 - checks.failed / checks.attempted,
    }


def per_layer_metrics(plain, traced, tracers, checks):
    wall_plain = statistics.fmean(u.wall_s for u in plain)
    wall_traced = statistics.fmean(u.wall_s for u in traced)
    values = median_metrics([layer_metrics(t, u.wall_s) for t, u in zip(tracers, traced)])
    values["trace.overhead_frac"] = (wall_traced - wall_plain) / wall_plain
    values["failed_frac"] = checks.failed / checks.attempted
    return values


def select(values: dict, specs: list, default=None) -> dict:
    out = {}
    for spec in specs:
        value = values.get(spec["name"], default)
        if value is None:
            raise KeyError(f"benchmark computes no metric {spec['name']!r}")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def summary(workload, plain, traced) -> None:
    from workloads import digest

    unit = plain[0]
    print(f"workload {workload.name}: {len(plain)} untraced units, {len(traced)} traced")
    print("  unit s: " + " ".join(f"{u.wall_s:.3f}" for u in plain))
    if traced:
        print("  traced unit s: " + " ".join(f"{u.wall_s:.3f}" for u in traced))
    for i, block in enumerate(workload.blocks):
        block_s = statistics.median(u.block_s[i] for u in plain)
        print(f"  {block_s:8.3f} s  {block.name}")
    decided = unit.conclusive + unit.inconclusive
    print(f"  items {unit.items}, probes {decided}, inconclusive {unit.inconclusive}")
    print(f"digest {workload.name} {digest(unit.reports)}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="seed of the rtt cancellation trials")
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out", action="store_true",
        help="run the free-group experiments on the held-out seed set instead of the pinned one",
    )
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aperiodic_lab" / "__init__.py").is_file():
        print(f"bench: no library at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.pop("APERIODIC_LAB_THREADS", None)  # one worker
    import workloads
    import aperiodic_lab

    if Path(aperiodic_lab.__file__).resolve().parent != SRC / "aperiodic_lab":
        print(f"bench: imported {aperiodic_lab.__file__}, not the checkout's library", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choices: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec()

    # the traced run reports per-layer metrics only, so it skips set-up
    setup_s = None if args.trace else measure_setup(1 if args.tiny else SETUP_REPS)
    workload = workloads.build(args.workload, args.seed, held_out=args.held_out, tiny=args.tiny)
    checks = workloads.Checks()
    plain, traced, tracers = measure(workload, checks, args.seconds, bool(args.trace))
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    summary(workload, plain, traced)

    if args.trace:
        metrics = select(per_layer_metrics(plain, traced, tracers, checks), spec["per_layer"], default=0)
        out_dir = BENCH / "traces"
        out_dir.mkdir(exist_ok=True)
        # every traced unit does the same work, so the last one stands for
        # all (a unit of exact alone holds about 200 000 spans)
        with open(out_dir / f"{args.workload}.json", "w") as fh:
            json.dump(tracers[-1].as_json(), fh, separators=(",", ":"))
    else:
        metrics = select(end_to_end_metrics(plain, setup_s, checks), spec["end_to_end"])
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
