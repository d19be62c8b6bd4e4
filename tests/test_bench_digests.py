"""The benchmark's reports, digested as ``bench/run.py`` prints them, stay
byte-identical: one ``probes`` unit and one ``exact`` unit, on the pinned
seeds and on the held-out ones.  A change that moves a digest on purpose
updates the constant here and says why."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

# (workload, held_out) -> digest of one unit's reports, timing stripped
DIGESTS = {
    ("probes", False): "6e6bc8d3266fd1ef",
    ("exact", False): "ed29330902c4eca1",
    ("probes", True): "357c083de8f439a5",
    ("exact", True): "ed29330902c4eca1",
}


@pytest.fixture(scope="module")
def workloads():
    name = "bench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize(
    "name, held_out",
    list(DIGESTS),
    ids=[f"{name}-{'held-out' if held_out else 'pinned'}" for name, held_out in DIGESTS],
)
def test_one_unit_keeps_its_digest(workloads, name, held_out):
    # the bench's default --seed, which seeds only the rtt trials of exact
    workload = workloads.build(name, 0, held_out=held_out)
    reports = [block.run() for block in workload.blocks]
    assert workloads.digest(reports) == DIGESTS[name, held_out]
