"""The benchmark's tracer (``perfbench/tracing.py``) wraps package functions
found by name and reads result fields in its hooks, so a renamed or moved
name breaks ``perfbench/run.py --trace 1``.  These tests load the tracer
read-only and check it against the package."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
from test_cli import _synthetic_measurement_file

from ordinal_unloc import cli, ingest, pipeline, unfold
from ordinal_unloc.core import DistanceMatrix, point_distances
from ordinal_unloc.ordinal import ComparisonNoiseModel, tensor_from_distances

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    tracing = _tracing()
    for layer, name in tracing.SPANS:
        module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        assert callable(getattr(module, name, None)), f"{layer}.{name} is gone"


def test_tracer_hooks_read_existing_fields(tmp_path):
    """A traced run through every hooked function records its counters."""
    tracing = _tracing()
    rng = np.random.default_rng(3)
    points = rng.uniform(0, 1, (8, 2))
    tensor = tensor_from_distances(
        DistanceMatrix(point_distances(points), 6), ComparisonNoiseModel(0.1), rng
    )
    log = tmp_path / "meas.csv"
    _synthetic_measurement_file(log)
    parsed = ingest.parse_measurements(log)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.op():
        pipeline.localize_from_tensor(tensor, points[:6])
        unfold.unloc_localize(points[:6], ((points[:6] - points[6]) ** 2).sum(axis=1))
        assert cli.main(["localize", str(log), "--out", str(tmp_path / "o")]) == 0
        # localize pools its records without it; the benchmark still hooks it
        ingest.measurement_signal_matrix(parsed)
    metrics = tracer.metrics()
    assert metrics["unfold.localize_all.calls"][0] == 1
    assert metrics["unfold.converged_frac"][0] == 1.0
    assert metrics["funclearn.fit_calls_per_estimate"][0] == 0.0
    assert tracer.counts["estimate_entries"] == 12
    assert tracer.counts["records_parsed"] == 60 and tracer.counts["records_kept"] > 0
    assert tracer.counts["links"] > 0
