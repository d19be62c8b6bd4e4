"""Command-line front end.

Subcommands run the theorem-verification experiments, the exhaustive
integer-matrix scans, and the train track analyzer.  Every run writes a
JSON report (stdout by default) and exits 0 when no violations were found
and 1 when some were.  Input that is refused before a run starts exits 2
with argparse's usage and one error line.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Optional

from . import harness, homology, rtt
from .splittings import graph_map_from_words, rose_marked
from .words import Alphabet, parse_word


def _builtin_map(name: str, rank: int):
    words = {
        "fibonacci": ["ab", "a"],
        "period2": ["bb", "aa"],
        "two-strata": ["a", "ba"],
        "identity": ["a", "b"],
    }
    if name not in words:
        raise ValueError(f"unknown builtin map {name!r}; choices: {sorted(words)}")
    if rank != 2:
        raise ValueError(f"builtin map {name!r} is rank 2, not --rank {rank}; --rank is read with --file")
    alphabet = Alphabet(2)
    images = [parse_word(alphabet, w) for w in words[name]]
    return graph_map_from_words(rose_marked(alphabet), images)


def _write_report(report: dict, out: Optional[str], csv_path: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if csv_path:
        hist_keys = [k for k in report if k.startswith("outcomes")]
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["histogram", "outcome", "count"])
            for key in hist_keys:
                for outcome, count in sorted(report[key].items()):
                    writer.writerow([key, outcome, count])


def _experiment_config(args) -> harness.ExperimentConfig:
    # only conjugacy has the word-pool flags; the others keep the defaults
    pool = {k: v for k, v in vars(args).items() if k in ("pool_size", "pool_length")}
    return harness.ExperimentConfig(
        rank=args.rank,
        samples=args.samples,
        budget=args.budget,
        **pool,
        max_iter=args.max_iter,
        length_cap=args.length_cap,
        seed=args.seed,
    )


def _count(text: str) -> int:
    """A non-negative integer option, refused by argparse otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_experiment_args(parser, runner, rank=2, budget=5, max_iter=12, length_cap=10_000):
    parser.set_defaults(runner=runner)
    parser.add_argument("--rank", type=int, default=rank, help="ambient free-group rank N")
    parser.add_argument("--samples", type=int, default=100, help="number of sampled automorphisms")
    parser.add_argument(
        "--budget", type=int, default=budget,
        help=f"generators per sampled product, at most {harness.MAX_BUDGET}",
    )
    parser.add_argument("--max-iter", type=int, default=max_iter, dest="max_iter")
    parser.add_argument("--length-cap", type=int, default=length_cap, dest="length_cap")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--csv", help="also write outcome histograms as CSV")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aperiodic-lab",
        description="Desk-scale aperiodicity experiments for congruence subgroups of Out(F_N)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conjugacy", help="periodic conjugacy classes are fixed")
    _add_experiment_args(p, harness.run_conjugacy_experiment)
    p.add_argument("--pool-size", type=int, default=5, dest="pool_size", help="cyclic words per sample")
    p.add_argument("--pool-length", type=int, default=6, dest="pool_length", help="longest pool word")
    p = sub.add_parser("factors", help="periodic free factor classes are fixed")
    _add_experiment_args(p, harness.run_factor_experiment, rank=3, budget=4, length_cap=3000)
    p = sub.add_parser("torsion", help="no torsion in the congruence kernel")
    _add_experiment_args(p, harness.run_torsion_experiment, budget=4)
    p = sub.add_parser("splittings", help="periodic free splittings are fixed")
    _add_experiment_args(p, harness.run_splitting_experiment, budget=4, max_iter=8)

    p = sub.add_parser("minkowski", help="exhaustive finite-order scan of a congruence box")
    p.add_argument("--rank", type=int, default=2, help="matrix size n")
    p.add_argument("--bound", type=int, default=6, help="entry box half-width")
    p.add_argument("--level", type=int, default=3, help="congruence level")
    p.add_argument("--out")

    p = sub.add_parser("abelian", help="exhaustive Per = Fix scan of a congruence box")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--out")

    p = sub.add_parser("rtt-analyze", help="filtration, strata, turns, and cancellation of a graph map")
    p.add_argument("--file", help="graph-map file (marked graph plus edge -> path lines)")
    p.add_argument("--map", dest="builtin", help="builtin map name (fibonacci, period2, two-strata, identity)")
    p.add_argument("--rank", type=int, default=2, help="free-group rank of the --file map (builtin maps are rank 2)")
    p.add_argument("--trials", type=_count, default=1000, help="random splittings for the cancellation check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    args = parser.parse_args(argv)
    # only the input is checked inside the try: an error raised once the run
    # has started is no refusal, and keeps its traceback
    try:
        run = _validated_run(args)
    except ValueError as err:
        sub.choices[args.command].error(str(err))
    report = run()
    _write_report(report, args.out, getattr(args, "csv", None))
    return 1 if report["violations"] else 0


def _validated_run(args):
    """The run that ``args`` ask for, once their input is checked, as a
    function of no arguments; ``ValueError`` if the input is refused."""
    if args.command == "minkowski":
        homology._check_scan_args(args.rank, args.bound, args.level)
        return lambda: homology.minkowski_scan(args.rank, args.bound, args.level)
    if args.command == "abelian":
        homology._check_scan_args(args.rank, args.bound, 3)
        return lambda: homology.abelian_standing_assumptions_check(args.rank, args.bound)
    if args.command == "rtt-analyze":
        graph_map = _graph_map(args)
        return lambda: _analysis(graph_map, args.trials, args.seed)
    cfg = _experiment_config(args)
    if args.command == "splittings":
        harness._check_splitting_rank(cfg.rank)
    return lambda: args.runner(cfg)


def _graph_map(args):
    """The map that ``--file`` or ``--map`` names; ``ValueError`` if it
    cannot be read."""
    if args.file:
        try:
            with open(args.file) as fh:
                return rtt.parse_graph_map(Alphabet(args.rank), fh.read())
        except (OSError, ValueError) as err:
            raise ValueError(f"graph-map file {args.file}: {err}") from None
    if args.builtin:
        return _builtin_map(args.builtin, args.rank)
    raise ValueError("rtt-analyze needs --file or --map")


def analyze_graph_map(args) -> dict:
    """The ``rtt-analyze`` report for the map and trials that ``args`` name."""
    return _analysis(_graph_map(args), args.trials, args.seed)


def _analysis(graph_map, trials: int, seed: int) -> dict:
    start = time.perf_counter()
    filtration = rtt.filtration_of(graph_map)
    strata = []
    for stratum in filtration.strata:
        entry = {
            "edges": list(stratum.edges),
            "class": stratum.kind,
            "lambda": stratum.pf_eigenvalue,
            "matrix": [list(row) for row in stratum.matrix],
        }
        if stratum.kind != "Zero":
            partition = rtt.aperiodic_partition(graph_map, stratum)
            entry["period"] = partition["period"]
            entry["partition"] = partition["classes"]
        strata.append(entry)

    turn_report = rtt.illegal_turns(graph_map)
    rtt_report = rtt.verify_rtt(graph_map, filtration)
    c = rtt.bcc_bound(graph_map)
    return {
        "strata": strata,
        "turns": {
            "illegal": [list(t) for t in turn_report["illegal"]],
            "legal": [list(t) for t in turn_report["legal"]],
        },
        "rtt": rtt_report,
        "bcc": c,
        "bcc_trials": trials,
        "violations": rtt.cancellation_trials(graph_map, c, trials, seed) + [
            {"rtt_stratum": entry["stratum"]}
            for entry in rtt_report["strata"]
            if not entry["passed"]
        ],
        "elapsed": time.perf_counter() - start,
    }


if __name__ == "__main__":
    sys.exit(main())
