"""Every demo script runs to completion against the library in ``src/``, so
a renamed or deleted public name that a demo still uses shows up here; the
graph lemma demo's exhaustive scan must also print its pinned totals."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demos_found():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr[-2000:]


def test_graph_lemma_scan_totals():
    # the symmetry listings above the scan may come in any order; the scan's
    # totals are the lemma's content
    result = run_demo(ROOT / "demos" / "04_graph_lemma.py")
    assert result.returncode == 0, result.stderr[-2000:]
    scan = result.stdout.split("== exhaustive scan")[1].splitlines()[1:]
    assert [line.strip() for line in scan] == [
        "142 connected multigraphs with <= 5 edges",
        "CircleRotation: 10",
        "HypothesisFails: 6554",
        "Identity: 142",
    ]
