"""The benchmark's workloads (``perfbench/workloads.py``) construct package
objects and call package functions by name, so a deleted or renamed name
breaks ``perfbench/run.py``.  This test loads the workloads read-only and
runs one op of each at the sizes of ``perfbench/tests/test_smoke.py``."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

TINY = {
    "mc-ordinal": dict(trials=3, anchor_counts=(10,), noise_grid=(0.1,)),
    "large-n": dict(fields=2, n_anchors=40, n_targets=4),
    "localize-file": dict(files=2, n_anchors=15, n_targets=3),
}


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(TINY))
def test_one_op_of_each_workload_passes_its_check(name, tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    assert set(workloads.WORKLOADS) == set(TINY)
    workload = workloads.WORKLOADS[name](**TINY[name])
    inputs = workload.setup(3, tmp_path)
    out = workload.run(inputs[0])
    assert workload.check(inputs[0], out) == []
