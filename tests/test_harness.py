import json
import random
import subprocess
import sys

import pytest

from aperiodic_lab.aut import is_inner, sample, standard_generators, swap
from aperiodic_lab.cli import main
from aperiodic_lab.harness import (
    ExperimentConfig,
    run_conjugacy_experiment,
    run_factor_experiment,
    run_splitting_experiment,
    run_torsion_experiment,
)
from aperiodic_lab.homology import abelianization, identity_matrix
from aperiodic_lab.words import Alphabet

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

    @pytest.mark.parametrize(
        "rank, budget, length_cap, seed",
        [(2, 3, 1500, 1), (3, 3, 40, 1), (3, 3, 40, 6), (3, 4, 1500, 2)],
    )
    def test_torsion_report_matches_power_oracle(self, rank, budget, length_cap, seed):
        # oracle: redraw the samples and test each phi^k, built from nothing,
        # for being inner, with the cap on every power from phi itself
        def first_inner_power(phi):
            for k in range(1, cfg.max_iter + 1):
                power = phi**k
                if power.max_image_length() > length_cap:
                    return "Blowup"
                if is_inner(power) is not None:
                    return k
            return None

        cfg = ExperimentConfig(
            rank=rank, samples=12, budget=budget, max_iter=6, length_cap=length_cap, seed=seed
        )
        gens = standard_generators(rank, cfg.family)
        rng = random.Random(seed)
        clean = blowups = checked = attempts = 0
        violations = []
        while clean < cfg.samples and attempts < cfg.samples * 20:
            attempts += 1
            phi = sample(gens, budget, rng.randrange(2**32))
            if is_inner(phi) is not None:
                continue
            if abelianization(phi) != identity_matrix(rank):
                clean += 1
                continue
            order = first_inner_power(phi)
            if order == "Blowup":
                blowups += 1
                continue
            checked += 1
            clean += 1
            if order is not None:
                violations.append({"attempt": attempts, "order": order})
        report = run_torsion_experiment(cfg)
        assert (report["attempts"], report["blowups"]) == (attempts, blowups)
        assert (report["checked_by_iteration"], report["violations"]) == (checked, violations)
        assert report["control"]["order"] == first_inner_power(swap(Alphabet(rank), 1, 2)) == 2
        if length_cap < 100:
            # small enough a cap to stop some samples, not all
            assert blowups > 0 and checked > 0

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
