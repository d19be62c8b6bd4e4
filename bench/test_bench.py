"""Self-tests of the benchmark: ``python3 -m pytest bench -q`` from the
repository root."""

from __future__ import annotations

import copy
import inspect
import json
import sys

import pytest

import run
import spans
import workloads
from aperiodic_lab import aut, harness, splittings

SPEC = run.load_spec()


def _result(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(capsys, name):
    result, lines = _result(capsys, ["--workload", name, "--seed", "3", "--seconds", "0", "--tiny"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        if spec["unit"] == "ratio":
            assert 0 <= metric["value"] <= 1
        else:
            assert metric["value"] > 0
    assert any(line.startswith(f"digest {name} ") for line in lines)


def test_tiny_traced_run_prints_every_per_layer_metric(capsys):
    result, _ = _result(capsys, ["--workload", "probes", "--seconds", "0", "--tiny", "--trace", "1"])
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["harness.run_splitting_experiment.self_s"] > 0
    assert metrics["aut.compose.calls"] > 0
    assert metrics["graphs.connected_multigraphs.yielded"] == 0


def test_run_without_library_fails_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "exact", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_unknown_workload_is_refused(capsys):
    assert run.main(["--workload", "nope", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# spans


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9] (which
    # holds e [6, 7] and f [7, 8.5]); g [11, 12] stands alone
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.5, 12.0]
    parent = [-1, 0, 1, 0, 3, 3, -1]
    assert spans.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 1.0])


def test_tracer_records_parents_and_self_time(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(clock)))
    tracer = spans.Tracer()

    def inner():
        next(clock)  # one tick of work of its own
        return "x"

    traced_inner = tracer.wrap("m.inner", inner)

    def outer():
        next(clock)
        return traced_inner() + traced_inner()

    assert tracer.wrap("m.outer", outer)() == "xx"
    assert list(tracer.parent) == [-1, 0, 0]
    table = tracer.per_function()
    assert table["m.inner"] == {"calls": 2, "self_s": 4.0}
    # outer spans ticks 0 -> 8, minus two inner spans of 2 ticks each
    assert table["m.outer"] == {"calls": 1, "self_s": 4.0}


def test_tracer_rebinds_every_imported_name_and_restores_them():
    import aperiodic_lab

    originals = (aut.compose, harness.compose, splittings.compose, aperiodic_lab.compose, aut.apply_endo)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = (aut.compose, harness.compose, splittings.compose, aperiodic_lab.compose, aut.apply_endo)
        for before, after in zip(originals, wrapped):
            assert after is not before and after.__wrapped__ is before
        assert harness.compose is aut.compose
        cfg = harness.ExperimentConfig(rank=2, samples=1, budget=2, max_iter=3, length_cap=500, seed=1)
        harness.run_splitting_experiment(cfg)
    finally:
        tracer.uninstall()
    assert (aut.compose, harness.compose, splittings.compose, aperiodic_lab.compose, aut.apply_endo) == originals
    table = tracer.per_function()
    # compose is reached through harness, splittings and aut bindings alike
    assert table["aut.compose"]["calls"] > 0
    assert table["harness.run_splitting_experiment"]["calls"] == 1
    assert "words.reduce_letters" not in table


def test_per_layer_names_resolve_to_library_functions():
    derived = {
        "words.apply_endo.letters_out", "aut.is_inner.hit_ratio", "subgroups.fold_core.edges_out",
        "subgroups.cores_conjugate.true_ratio", "splittings.invariance_test.hit_ratio",
        "graphs.enumerate_automorphisms.found", "graphs.connected_multigraphs.yielded",
        "harness.probe_ms.p50", "harness.probe_ms.p99", "harness.probe_ms.n",
        "harness.probe_iterations", "harness.wasted_iter_frac",
        "trace.wall_s", "trace.overhead_frac", "failed_frac",
    }
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        if name in derived:
            continue
        parts = name.split(".")
        assert parts[-1] in ("calls", "self_s"), name
        assert parts[0] in spans.MODULES, name
        if len(parts) == 3:
            fn = getattr(sys.modules[f"aperiodic_lab.{parts[0]}"], parts[1])
            assert inspect.isfunction(fn) and f"{parts[0]}.{parts[1]}" not in spans.UNTRACED, name


# ---------------------------------------------------------------------------
# checks and digests


def _tiny_block(name, index=0):
    block = workloads.build(name, 0, tiny=True).blocks[index]
    return block, block.run()


def _failed(block, report):
    checks = workloads.Checks()
    block.check(report, checks)
    return checks.failed


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_block_makes_the_checks_it_declares(name):
    for block in workloads.build(name, 0, tiny=True).blocks:
        checks = workloads.Checks()
        block.check(block.run(), checks)
        assert (checks.attempted, checks.failed) == (block.n_checks, 0), block.name


def test_doctored_reports_fail_checks():
    block, report = _tiny_block("probes")
    assert _failed(block, report) == 0

    fake_period = copy.deepcopy(report)
    fake_period["outcomes_outer"]["Period(>1)"] += 1
    fake_period["outcomes_outer"]["NoPeriodWithin"] -= 1
    assert _failed(block, fake_period) == 1

    wrong_total = copy.deepcopy(report)
    wrong_total["outcomes_aut"]["Blowup"] += 1
    assert _failed(block, wrong_total) == 1

    block, report = _tiny_block("probes", 3)
    no_control = copy.deepcopy(report)
    no_control["control"]["order"] = None
    assert _failed(block, no_control) == 1

    block, report = _tiny_block("exact", 1)
    no_minus_identity = copy.deepcopy(report)
    no_minus_identity["violations"] = [v for v in report["violations"] if v["matrix"] != [[-1, 0], [0, -1]]]
    assert _failed(block, no_minus_identity) == 1


def test_doctored_report_raises_failed_frac(monkeypatch, capsys):
    real = harness.run_factor_experiment

    def doctored(cfg):
        report = real(cfg)
        report["outcomes"]["Period(>1)"] += 1
        return report

    monkeypatch.setattr(harness, "run_factor_experiment", doctored)
    result, _ = _result(capsys, ["--workload", "probes", "--seconds", "0", "--tiny", "--trace", "1"])
    assert result["correct"] is False and result["failed"] >= 2
    assert result["metrics"]["failed_frac"]["value"] == pytest.approx(result["failed"] / result["attempted"])


def test_raising_block_fails_all_its_checks(monkeypatch, capsys):
    def boom(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "run_factor_experiment", boom)
    result, _ = _result(capsys, ["--workload", "probes", "--seconds", "0", "--tiny"])
    factor_block = workloads.build("probes", 0, tiny=True).blocks[5]
    assert factor_block.name.startswith("run_factor_experiment")
    assert result["correct"] is False
    assert result["failed"] == factor_block.n_checks


def test_congruence_count_matches_the_library_scan():
    from aperiodic_lab import homology

    for n, bound, level in ((2, 3, 3), (2, 2, 1), (3, 2, 3)):
        assert workloads.congruence_count(n, bound, level) == homology.minkowski_scan(n, bound, level)["enumerated"]


def test_digest_ignores_only_timing():
    block, report = _tiny_block("probes", 5)
    again = copy.deepcopy(report)
    again["elapsed"] += 1.0
    assert workloads.digest([report]) == workloads.digest([again])
    again["outcomes"]["Blowup"] += 1
    assert workloads.digest([report]) != workloads.digest([again])


def test_held_out_seeds_differ_from_pinned():
    pinned, held = workloads.seed_set(False), workloads.seed_set(True)
    assert pinned["conj2"] == 101 and pinned["tors3"] == 506
    assert not set(pinned.values()) & set(held.values())
