import json
import subprocess
import sys

import pytest

from aperiodic_lab.cli import main
from aperiodic_lab.harness import (
    ExperimentConfig,
    run_conjugacy_experiment,
    run_factor_experiment,
    run_splitting_experiment,
    run_torsion_experiment,
)

FAST = dict(samples=8, budget=3, pool_size=2, seed=1, max_iter=6, length_cap=1500)


def strip_elapsed(report):
    return {k: v for k, v in report.items() if k != "elapsed"}


class TestDeterminism:
    def test_conjugacy_reports_identical(self):
        cfg = ExperimentConfig(rank=2, **FAST)
        a = run_conjugacy_experiment(cfg)
        b = run_conjugacy_experiment(cfg)
        assert json.dumps(strip_elapsed(a), sort_keys=True) == json.dumps(
            strip_elapsed(b), sort_keys=True
        )

    def test_seed_changes_outcomes(self):
        base = dict(FAST)
        base["seed"] = 2
        a = run_conjugacy_experiment(ExperimentConfig(rank=2, **FAST))
        b = run_conjugacy_experiment(ExperimentConfig(rank=2, **base))
        assert strip_elapsed(a) != strip_elapsed(b)


class TestRunners:
    def test_conjugacy_small(self):
        report = run_conjugacy_experiment(ExperimentConfig(rank=2, **FAST))
        assert report["violations"] == []
        assert report["control"]["nontrivial_periods"] >= 1
        assert report["inner_sanity_period1"]
        total = sum(report["outcomes_outer"].values())
        assert total == FAST["samples"] * FAST["pool_size"]

    def test_factor_small(self):
        report = run_factor_experiment(ExperimentConfig(rank=3, **FAST))
        assert report["violations"] == []
        assert report["control"]["period"] == 3
        assert report["identity_sanity_period1"]

    def test_torsion_small(self):
        report = run_torsion_experiment(ExperimentConfig(rank=2, **FAST))
        assert report["violations"] == []
        assert report["control"]["order"] == 2
        assert report["trials"] == FAST["samples"]

    def test_splitting_small(self):
        report = run_splitting_experiment(ExperimentConfig(rank=2, **FAST))
        assert report["violations"] == []
        assert report["identity_sanity_period1"]
        assert report["control"]["outcomes"]["Period(>1)"] >= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rank=1)
        with pytest.raises(ValueError):
            ExperimentConfig(samples=0)

    def test_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = ExperimentConfig(rank=2, out=str(out), **FAST)
        run_torsion_experiment(cfg)
        data = json.loads(out.read_text())
        assert data["experiment"] == "torsion"


class TestCLI:
    def test_minkowski_exit_zero(self, capsys):
        assert main(["minkowski", "--rank", "2", "--bound", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == []

    def test_minkowski_level_one_exit_one(self, capsys):
        assert main(["minkowski", "--rank", "2", "--bound", "2", "--level", "1"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["violations"]

    def test_abelian(self, capsys):
        assert main(["abelian", "--rank", "2", "--bound", "3"]) == 0

    def test_torsion_roundtrip(self, tmp_path):
        out = tmp_path / "t.json"
        code = main(
            ["torsion", "--samples", "5", "--budget", "3", "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["experiment"] == "torsion"

    @pytest.mark.parametrize("command", ["factors", "torsion", "splittings"])
    def test_pool_flags_only_on_conjugacy(self, command, capsys):
        # only the conjugacy experiment reads the word pool
        for flag in ("--pool-size", "--pool-length"):
            with pytest.raises(SystemExit) as err:
                main([command, flag, "3"])
            assert err.value.code == 2
        assert "--pool-size" in capsys.readouterr().err

    def test_rtt_analyze_builtin(self, capsys):
        assert main(["rtt-analyze", "--map", "fibonacci", "--trials", "50"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bcc"] == 3
        assert report["strata"][0]["class"] == "EG"

    def test_rtt_analyze_file(self, tmp_path, capsys):
        from aperiodic_lab.rtt import graph_map_str
        from aperiodic_lab.splittings import graph_map_from_words, rose_marked
        from aperiodic_lab.words import Alphabet, parse_word

        a2 = Alphabet(2)
        fib = graph_map_from_words(
            rose_marked(a2), [parse_word(a2, "ab"), parse_word(a2, "a")]
        )
        path = tmp_path / "map.txt"
        path.write_text(graph_map_str(fib))
        assert main(["rtt-analyze", "--file", str(path), "--trials", "20"]) == 0

    def test_csv_output(self, tmp_path):
        out = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        main(
            [
                "conjugacy",
                "--samples", "4",
                "--budget", "2",
                "--pool-size", "2",
                "--out", str(out),
                "--csv", str(csv_path),
            ]
        )
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "histogram,outcome,count"
        assert len(lines) > 1

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aperiodic_lab.cli", "minkowski", "--rank", "1", "--bound", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["violations"] == []
