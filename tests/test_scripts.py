"""The experiment scripts run end to end on a tiny configuration."""

import subprocess
import sys

import pytest

from conftest import ROOT, source_env


@pytest.mark.parametrize(
    "script", ["run_ordinal_sweep.py", "run_rss_comparison.py", "run_toa_comparison.py"]
)
def test_experiment_script_writes_its_results(script, tmp_path):
    out = tmp_path / "out"
    args = ["--trials", "2", "--anchors", "5", "--threads", "1", "--out", str(out)]
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=source_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in ("results.csv", "results.json", "manifest.json"):
        assert (out / name).is_file(), name
