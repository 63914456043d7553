"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (pins thread pools and imports the package from src/)
import tracing  # noqa: E402
import workloads  # noqa: E402
from ordinal_unloc import funclearn, pipeline  # noqa: E402

BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
TINY = {
    "mc-ordinal": lambda: workloads.McOrdinal(trials=3, anchor_counts=(10,), noise_grid=(0.1,)),
    "large-n": lambda: workloads.LargeN(fields=2, n_anchors=40, n_targets=4),
    "localize-file": lambda: workloads.LocalizeFile(files=2, n_anchors=15, n_targets=3),
}

pytestmark = pytest.mark.filterwarnings("ignore")


def fingerprint(inputs):
    h = hashlib.sha256()
    for inp in inputs:
        values = vars(inp).values() if hasattr(inp, "__dataclass_fields__") else inp
        for value in values:
            if isinstance(value, np.ndarray):
                h.update(value.tobytes())
            elif isinstance(value, Path):
                h.update(value.read_bytes() if value.is_file() else value.name.encode())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()


def test_every_workload_is_declared():
    declared = {w["name"] for w in BENCHMARK["workloads"]}
    assert declared == set(workloads.WORKLOADS) == set(TINY)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_metrics_match_benchmark_json(name, trace):
    result, record = run.run(TINY[name](), seed=3, seconds=0.2, trace=trace)
    assert result["correct"], record["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    if trace:
        shares = [v["value"] for k, v in result["metrics"].items() if k.endswith(".self_share")]
        assert 0 < sum(shares) <= 1 + 1e-9


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_gives_same_inputs(name, tmp_path):
    workload = TINY[name]()
    first = fingerprint(workload.setup(5, tmp_path / "a"))
    assert fingerprint(workload.setup(5, tmp_path / "b")) == first
    assert fingerprint(workload.setup(6, tmp_path / "c")) != first


def test_tracer_restores_the_package():
    before = (pipeline.estimate_distances, funclearn.fit_linear_map)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert pipeline.estimate_distances is not before[0]
        assert funclearn.fit_linear_map is not before[1]
    assert (pipeline.estimate_distances, funclearn.fit_linear_map) == before
