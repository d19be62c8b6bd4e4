"""The benchmark workloads: pinned configurations, the checks on their
reports, and the counts the end-to-end metrics are computed from.

Each workload is a list of blocks.  A block calls one public entry point of
the library and returns a JSON-ready report; the benchmark times whole
units (every block of a workload once) and never reaches inside a call.

Seeds.  The free-group experiments always run the pinned acceptance seeds
(or, with ``held_out``, a second fixed seed set kept for checking a claim
on inputs a change was not tuned on).  Their per-sample cost is heavy
tailed, so a run-sized batch drawn from an arbitrary seed would move the
timings by more than any bound the benchmark can hold; see README.md for
the measurement.  The benchmark's ``--seed`` seeds the bounded-cancellation
trials of ``exact``, whose cost does not depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from aperiodic_lab import cli, graphs, harness, homology  # noqa: E402

WORKLOADS = ("probes", "exact")

# acceptance seeds of criteria 4-8; the held-out set shifts every one of them
PINNED_SEEDS = {"conj2": 101, "conj3": 202, "factors": 303, "split": 404, "tors2": 505, "tors3": 506}
HELD_OUT_SHIFT = 10_000

BUILTIN_MAPS = ("fibonacci", "period2", "two-strata", "identity")

# (graphs, automorphisms) of the graph lemma over connected multigraphs with
# <= max_edges edges, as the library enumerates them at the time of writing
LEMMA_COUNTS = {3: (17, 122), 5: (142, 6706)}


class Checks:
    """Counts correctness checks attempted and failed, keeping the messages
    of the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def fail_all(self, count: int, message: str) -> None:
        self.attempted += count
        self.failed += count
        self.messages.append(message)


@dataclass
class Block:
    """One call into the library, the checks on its report and the report's
    contribution to the work and outcome counts.

    ``tally(report)`` returns (items, conclusive, inconclusive): items of
    work done, and the probes whose outcome was or was not decided.
    ``n_checks`` is the number of checks ``check`` makes, so that a block
    that raises can fail all of them.
    """

    name: str
    run: Callable[[], dict]
    check: Callable[[dict, Checks], None]
    tally: Callable[[dict], Tuple[int, int, int]]
    n_checks: int


@dataclass
class Workload:
    name: str
    blocks: List[Block] = field(default_factory=list)


# ---------------------------------------------------------------------------
# report checks


def _hist_total(hist: Dict[str, int]) -> int:
    return sum(hist.values())


def _inconclusive(hist: Dict[str, int]) -> int:
    return hist["NoPeriodWithin"] + hist["Blowup"]


def _check_conjugacy(cfg: harness.ExperimentConfig):
    def check(report: dict, checks: Checks) -> None:
        probes = cfg.samples * cfg.pool_size
        tag = f"conjugacy seed {cfg.seed}"
        checks.expect(report["violations"] == [], f"{tag}: violations {report['violations'][:3]}")
        for key in ("outcomes_outer", "outcomes_aut"):
            hist = report[key]
            checks.expect(hist["Period(>1)"] == 0, f"{tag}: {key} has Period(>1)")
            checks.expect(_hist_total(hist) == probes, f"{tag}: {key} total {_hist_total(hist)} != {probes}")
        checks.expect(report["control"]["nontrivial_periods"] >= 1, f"{tag}: swap control found no period")
        checks.expect(report["inner_sanity_period1"] is True, f"{tag}: inner sanity flag false")

    def tally(report: dict) -> Tuple[int, int, int]:
        hists = (report["outcomes_outer"], report["outcomes_aut"])
        items = sum(_hist_total(h) for h in hists)
        bad = sum(_inconclusive(h) for h in hists)
        return items, items - bad, bad

    return check, tally, 7


def _check_factors(cfg: harness.ExperimentConfig):
    def check(report: dict, checks: Checks) -> None:
        tag = f"factors seed {cfg.seed}"
        hist = report["outcomes"]
        total = _hist_total(hist)
        checks.expect(report["violations"] == [], f"{tag}: violations {report['violations'][:3]}")
        checks.expect(hist["Period(>1)"] == 0, f"{tag}: Period(>1)")
        # every trial probes the classes of one or two basis subsets
        checks.expect(cfg.samples <= total <= 2 * cfg.samples, f"{tag}: histogram total {total}")
        if cfg.rank >= 3:
            checks.expect(report["control"]["period"] == 3, f"{tag}: 3-cycle control period {report['control']['period']}")
        else:
            checks.expect(report["control"]["period"] is None, f"{tag}: unexpected control")
        checks.expect(report["identity_sanity_period1"] is True, f"{tag}: identity sanity flag false")

    def tally(report: dict) -> Tuple[int, int, int]:
        hist = report["outcomes"]
        items = _hist_total(hist)
        return items, items - _inconclusive(hist), _inconclusive(hist)

    return check, tally, 5


def _check_splittings(cfg: harness.ExperimentConfig):
    pool_size = 3 if cfg.rank == 2 else 2

    def check(report: dict, checks: Checks) -> None:
        tag = f"splittings seed {cfg.seed}"
        hist = report["outcomes"]
        probes = cfg.samples * pool_size
        checks.expect(report["violations"] == [], f"{tag}: violations {report['violations'][:3]}")
        checks.expect(hist["Period(>1)"] == 0, f"{tag}: Period(>1)")
        checks.expect(report["pool_size"] == pool_size, f"{tag}: pool size {report['pool_size']}")
        checks.expect(_hist_total(hist) == probes, f"{tag}: histogram total {_hist_total(hist)} != {probes}")
        checks.expect(report["control"]["outcomes"]["Period(>1)"] == 1, f"{tag}: swap control found no period")
        checks.expect(report["identity_sanity_period1"] is True, f"{tag}: identity sanity flag false")

    def tally(report: dict) -> Tuple[int, int, int]:
        hist = report["outcomes"]
        items = _hist_total(hist)
        return items, items - _inconclusive(hist), _inconclusive(hist)

    return check, tally, 6


def _check_torsion(cfg: harness.ExperimentConfig):
    def check(report: dict, checks: Checks) -> None:
        tag = f"torsion seed {cfg.seed}"
        clean = report["certified_by_homology"] + report["checked_by_iteration"]
        checks.expect(report["violations"] == [], f"{tag}: violations {report['violations'][:3]}")
        checks.expect(report["control"]["order"] == 2, f"{tag}: swap control order {report['control']['order']}")
        checks.expect(report["trials"] == clean == cfg.samples, f"{tag}: {report['trials']} clean trials")
        checks.expect(
            report["attempts"] == report["skipped_inner"] + report["blowups"] + clean,
            f"{tag}: attempts do not add up",
        )

    def tally(report: dict) -> Tuple[int, int, int]:
        # every sampled automorphism is one probe; only capped ones are undecided
        return report["attempts"], report["attempts"] - report["blowups"], report["blowups"]

    return check, tally, 4


def _experiment_block(runner: str, cfg: harness.ExperimentConfig, checker) -> Block:
    check, tally, n_checks = checker(cfg)
    # looked up at call time, so that tracing sees the call
    return Block(
        f"{runner}(rank={cfg.rank}, samples={cfg.samples}, seed={cfg.seed})",
        lambda: getattr(harness, runner)(cfg),
        check,
        tally,
        n_checks,
    )


# ---------------------------------------------------------------------------
# exact workload: scans, graph lemma, train tracks


def _det(m: Tuple[int, ...], n: int) -> int:
    if n == 1:
        return m[0]
    if n == 2:
        return m[0] * m[3] - m[1] * m[2]
    a, b, c, d, e, f, g, h, i = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def congruence_count(n: int, bound: int, level: int) -> int:
    """Matrices in GL_n(Z) with entries in [-bound, bound] and M = I mod
    level, counted independently of the library (n <= 3)."""
    diagonal = [x for x in range(-bound, bound + 1) if (x - 1) % level == 0]
    off = [x for x in range(-bound, bound + 1) if x % level == 0]
    choices = [diagonal if i == j else off for i in range(n) for j in range(n)]
    return sum(1 for m in itertools.product(*choices) if abs(_det(m, n)) == 1)


def _scan_block(kind: str, n: int, bound: int, level: int) -> Block:
    expected = congruence_count(n, bound, level)
    minus_identity = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]

    def run() -> dict:
        if kind == "minkowski":
            return homology.minkowski_scan(n, bound, level)
        return homology.abelian_standing_assumptions_check(n, bound)

    def check(report: dict, checks: Checks) -> None:
        tag = f"{kind} n={n} bound={bound} level={level}"
        checks.expect(report["enumerated"] == expected, f"{tag}: enumerated {report['enumerated']} != {expected}")
        if level == 3:
            checks.expect(report["violations"] == [], f"{tag}: violations {report['violations'][:3]}")
        else:
            found = any(v["matrix"] == minus_identity for v in report["violations"])
            checks.expect(found, f"{tag}: level-{level} control did not find -I")

    def tally(report: dict) -> Tuple[int, int, int]:
        return report["enumerated"], 0, 0

    return Block(f"{kind}(n={n}, bound={bound}, level={level})", run, check, tally, 2)


def _lemma_block(max_edges: int) -> Block:
    def run() -> dict:
        n_graphs = n_autos = 0
        kinds: Dict[str, int] = {}
        for graph in graphs.connected_multigraphs(max_edges):
            n_graphs += 1
            for f in graphs.enumerate_automorphisms(graph):
                n_autos += 1
                kind = graphs.ivanov_check(graph, f).name  # raises TheoremViolation
                kinds[kind] = kinds.get(kind, 0) + 1
        return {"max_edges": max_edges, "graphs": n_graphs, "automorphisms": n_autos, "outcomes": kinds}

    def check(report: dict, checks: Checks) -> None:
        want_graphs, want_autos = LEMMA_COUNTS[max_edges]
        checks.expect(report["graphs"] == want_graphs, f"graph lemma: {report['graphs']} graphs != {want_graphs}")
        checks.expect(
            report["automorphisms"] == want_autos,
            f"graph lemma: {report['automorphisms']} automorphisms != {want_autos}",
        )
        checks.expect(
            sum(report["outcomes"].values()) == report["automorphisms"],
            "graph lemma: unclassified automorphisms",
        )

    def tally(report: dict) -> Tuple[int, int, int]:
        return report["automorphisms"], 0, 0

    return Block(f"graph_lemma(max_edges={max_edges})", run, check, tally, 3)


def _rtt_block(name: str, trials: int, seed: int) -> Block:
    args = argparse.Namespace(file=None, builtin=name, rank=2, trials=trials, seed=seed, out=None, csv=None)

    def check(report: dict, checks: Checks) -> None:
        checks.expect(report["violations"] == [], f"rtt {name}: violations {report['violations'][:3]}")
        checks.expect(report["rtt"]["all_pass"] is True, f"rtt {name}: verify_rtt not all_pass")
        checks.expect(report["bcc_trials"] == trials, f"rtt {name}: {report['bcc_trials']} trials")

    def tally(report: dict) -> Tuple[int, int, int]:
        # condition 2 of an EG stratum is undecided when reported bounded
        strata = report["rtt"]["strata"]
        bounded = sum(1 for s in strata if s["condition2"]["bounded"])
        return report["bcc_trials"], len(strata) - bounded, bounded

    return Block(f"analyze_graph_map({name}, trials={trials})", lambda: cli.analyze_graph_map(args), check, tally, 3)


# ---------------------------------------------------------------------------
# workload construction


def seed_set(held_out: bool) -> Dict[str, int]:
    shift = HELD_OUT_SHIFT if held_out else 0
    return {key: seed + shift for key, seed in PINNED_SEEDS.items()}


def build(name: str, seed: int, held_out: bool = False, tiny: bool = False) -> Workload:
    """The workload ``name``; ``tiny`` shrinks every size for a smoke test."""
    seeds = seed_set(held_out)

    def samples(n: int) -> int:
        return 2 if tiny else n

    cfg = harness.ExperimentConfig
    w = Workload(name)
    if name == "probes":
        # conjugacy probes push single words toward the cap; splitting and
        # torsion probes feed many medium words from compose back through
        # apply_endo, beside is_inner and invariance_test; factor probes
        # spend their time folding Stallings cores
        w.blocks.append(_experiment_block("run_conjugacy_experiment", cfg(
            rank=2, samples=samples(10), budget=5, pool_size=4, pool_length=6,
            max_iter=12, length_cap=10_000, seed=seeds["conj2"]), _check_conjugacy))
        w.blocks.append(_experiment_block("run_conjugacy_experiment", cfg(
            rank=3, samples=samples(10), budget=4, pool_size=3, pool_length=6,
            max_iter=12, length_cap=10_000, seed=seeds["conj3"]), _check_conjugacy))
        w.blocks.append(_experiment_block("run_splitting_experiment", cfg(
            rank=2, samples=samples(20), budget=4, max_iter=8, length_cap=3000,
            seed=seeds["split"]), _check_splittings))
        w.blocks.append(_experiment_block("run_torsion_experiment", cfg(
            rank=2, samples=samples(200), budget=4, max_iter=12,
            length_cap=20_000, seed=seeds["tors2"]), _check_torsion))
        w.blocks.append(_experiment_block("run_torsion_experiment", cfg(
            rank=3, samples=samples(50), budget=4, max_iter=12,
            length_cap=20_000, seed=seeds["tors3"]), _check_torsion))
        w.blocks.append(_experiment_block("run_factor_experiment", cfg(
            rank=3, samples=samples(10), budget=4, max_iter=12, length_cap=3000,
            seed=seeds["factors"]), _check_factors))
    elif name == "exact":
        w.blocks.append(_scan_block("minkowski", 3, 2 if tiny else 5, 3))
        w.blocks.append(_scan_block("minkowski", 2, 2, 1))
        w.blocks.append(_scan_block("abelian", 3, 2 if tiny else 5, 3))
        w.blocks.append(_lemma_block(3 if tiny else 5))
        for map_name in BUILTIN_MAPS:
            w.blocks.append(_rtt_block(map_name, 20 if tiny else 1000, seed))
    else:
        raise ValueError(f"unknown workload {name!r}; choices: {', '.join(WORKLOADS)}")
    return w


# ---------------------------------------------------------------------------
# digests


def strip_timing(value):
    """The report with every ``elapsed`` field removed, recursively."""
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items() if k != "elapsed"}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def digest(reports: List[Optional[dict]]) -> str:
    text = json.dumps(strip_timing(reports), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
