import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from ordinal_unloc import __version__
from ordinal_unloc.cli import _int_list, build_parser, main
from ordinal_unloc.core import ConfigError, SensorField
from ordinal_unloc.ingest import MeasurementRecord, write_measurement_file

FAST = ["--trials", "4", "--threads", "1", "--restarts", "4", "--seed", "7"]


def _run(argv):
    return main(argv)


def test_int_list_forms():
    assert _int_list("5,10,20") == (5, 10, 20)
    assert _int_list("5:20:5") == (5, 10, 15, 20)
    assert _int_list("3:5") == (3, 4, 5)
    with pytest.raises(ConfigError):
        _int_list("5:10:0")
    with pytest.raises(ConfigError):
        _int_list("a,b")


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--version"])
    assert exc.value.code == 0


def test_console_script_installed(tmp_path):
    # Install a copy of this tree into a temporary prefix and run the script
    # that install made, so the check needs no prior install and never picks
    # up a stale `ordinal-unloc` from PATH.  setuptools' own `install` works
    # offline and builds the script from the same [project.scripts] as pip.
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parents[1]
    tree = tmp_path / "tree"
    shutil.copytree(
        root / "src",
        tree / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    shutil.copy2(root / "pyproject.toml", tree / "pyproject.toml")
    prefix = tmp_path / "prefix"
    install = subprocess.run(
        [
            sys.executable, "-c", "import setuptools; setuptools.setup()",
            "install", "--prefix", str(prefix),
            "--single-version-externally-managed",
            "--record", str(tmp_path / "record.txt"),
        ],
        cwd=tree, capture_output=True, text=True,
    )
    assert install.returncode == 0, install.stderr
    paths = {"base": str(prefix), "platbase": str(prefix)}
    script = Path(sysconfig.get_path("scripts", vars=paths)) / "ordinal-unloc"
    env = dict(os.environ, PYTHONPATH=sysconfig.get_path("purelib", vars=paths))
    out = subprocess.run(
        [str(script), "--version"], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0
    assert out.stdout.strip() == __version__


def test_usage_error_exit_code_1(capsys):
    assert _run(["simulate", "--no-such-flag"]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_kind_exit_code_1(capsys):
    assert _run(["simulate", "--kind", "rss"] + FAST) == 1
    assert _run(["benchmark", "--kind", "ordinal"] + FAST) == 1


def test_missing_measurement_file_exit_code_2(tmp_path, capsys):
    assert _run(["localize", str(tmp_path / "nope.csv")]) == 2
    assert "input error" in capsys.readouterr().err


def test_simulate_outputs(tmp_path):
    out = tmp_path / "run"
    code = _run(
        ["simulate", "--anchors", "5", "--sigma", "0.0,0.3", "--out", str(out)] + FAST
    )
    assert code == 0
    csv_text = (out / "results.csv").read_text()
    assert csv_text.startswith("m,noise,method,")
    assert len(csv_text.strip().split("\n")) == 3  # header + 2 grid rows
    payload = json.loads((out / "results.json").read_text())
    assert payload["kind"] == "ordinal"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["version"] == __version__
    assert str(out / "results.csv") in manifest["outputs"]
    assert "started" in manifest and "finished" in manifest


def test_simulate_seed_reproducibility(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run(["simulate", "--anchors", "5", "--sigma", "0.3", "--out", str(out)] + FAST) == 0
    assert (a / "results.csv").read_text() == (b / "results.csv").read_text()


def test_simulate_entropy_seed_recorded(tmp_path):
    out = tmp_path / "run"
    code = _run(
        [
            "simulate", "--anchors", "5", "--sigma", "0.0", "--out", str(out),
            "--trials", "2", "--threads", "1", "--restarts", "4",
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert isinstance(manifest["seed"], int)


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("anchors=5\nsigma=0.0,0.5\ntrials=3\nseed=11\n")
    out = tmp_path / "run"
    # --trials on the command line beats the file; anchors/sigma come from it
    code = _run(
        [
            "simulate", "--config", str(cfg), "--out", str(out),
            "--trials", "2", "--threads", "1", "--restarts", "4",
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["trials"] == 2
    assert manifest["config"]["anchor_counts"] == [5]
    assert manifest["config"]["noise_grid"] == [0.0, 0.5]
    assert manifest["seed"] == 11


@pytest.mark.parametrize("sigma", ["nan", "inf", "0.1,nan"])
def test_nonfinite_sigma_exit_code_1(tmp_path, capsys, sigma):
    out = tmp_path / "run"
    code = _run(["simulate", "--anchors", "5", "--sigma", sigma, "--out", str(out)] + FAST)
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "key, value", [("threads", "0"), ("restarts", "0"), ("trials", "0"), ("targets", "-1"), ("seed", "-5")]
)
def test_out_of_range_integers_exit_code_1(tmp_path, capsys, source, key, value):
    argv = ["simulate", "--anchors", "5", "--sigma", "0.0", "--out", str(tmp_path / "run")]
    if source == "flag":
        argv += [f"--{key}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        argv += ["--config", str(cfg)]
    assert _run(argv) == 1
    assert f"expected an integer >= {0 if key == 'seed' else 1}" in capsys.readouterr().err


def test_seed_zero_accepted(tmp_path):
    out = tmp_path / "run"
    argv = ["simulate", "--anchors", "5", "--sigma", "0.0", "--out", str(out)]
    assert _run(argv + ["--trials", "2", "--threads", "1", "--restarts", "4", "--seed", "0"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 0


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=1\n")
    assert _run(["simulate", "--config", str(cfg)]) == 1


def test_benchmark_rss(tmp_path):
    out = tmp_path / "rss"
    code = _run(["benchmark", "--kind", "rss", "--anchors", "5", "--out", str(out)] + FAST)
    assert code == 0
    payload = json.loads((out / "results.json").read_text())
    assert set(payload["curves"]) == {"ordinal_unloc", "unloc_fixed_g", "unloc_genie"}
    assert payload["config"]["field_side"] == 10.0


def test_benchmark_toa_default_grid(tmp_path):
    out = tmp_path / "toa"
    code = _run(
        ["benchmark", "--kind", "toa", "--anchors", "5", "--noise", "0.01,1.0", "--out", str(out)]
        + FAST
    )
    assert code == 0
    payload = json.loads((out / "results.json").read_text())
    assert set(payload["curves"]) == {"ordinal_unloc", "unloc"}
    assert payload["config"]["field_side"] == 200.0


def _synthetic_measurement_file(path, repeats=3, noise_db=0.0, seed=0):
    """4 anchors on a 4m x 5m rectangle, 1 interior target, power-law RSSI."""
    rng = np.random.default_rng(seed)
    anchors = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 5.0], [0.0, 5.0]])
    target = np.array([1.0, 2.0])
    field = SensorField(
        2, anchors, declared_targets=1,
        anchor_ids=("a1", "a2", "a3", "a4"), target_ids=("t1",),
    )
    pts = np.vstack([anchors, target])
    ids = field.anchor_ids + field.target_ids
    records = []
    line = 0
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            d = float(np.linalg.norm(pts[i] - pts[j]))
            rssi = -10.0 * 3.0 * np.log10(d)  # dBm-style log power, G = 3
            for k in range(repeats):
                records.append(
                    MeasurementRecord(
                        ids[i], ids[j], float(line), rssi + noise_db * rng.normal(), line
                    )
                )
                line += 1
    write_measurement_file(path, field, records)
    return target


def test_localize_median(tmp_path):
    path = tmp_path / "meas.csv"
    target = _synthetic_measurement_file(path)
    out = tmp_path / "loc"
    code = _run(
        [
            "localize", str(path), "--aggregator", "median", "--keep-fraction", "1.0",
            "--out", str(out), "--seed", "3", "--restarts", "8", "--threads", "1",
        ]
    )
    assert code == 0
    lines = (out / "positions.csv").read_text().strip().split("\n")
    assert lines[0] == "target_id,sample,x,y"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["median", "average"]
    est = np.array([float(rows[-1][2]), float(rows[-1][3])])
    # noiseless monotone channel: ordinal pipeline should land close
    assert np.linalg.norm(est - target) < 1.0


def test_localize_sample_mode_rows(tmp_path):
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path, repeats=3, noise_db=0.5, seed=4)
    out = tmp_path / "loc"
    code = _run(
        [
            "localize", str(path), "--keep-fraction", "1.0",
            "--out", str(out), "--seed", "3", "--restarts", "8", "--threads", "1",
        ]
    )
    assert code == 0
    lines = (out / "positions.csv").read_text().strip().split("\n")
    labels = [line.split(",")[1] for line in lines[1:]]
    # 6 pooled records per unordered pair (3 per direction), then the average
    assert labels == ["1", "2", "3", "4", "5", "6", "average"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "localize"
    assert manifest["config"]["aggregator"] == "sample"


def test_localize_nan_rssi_exit_code_2(tmp_path, capsys):
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path)
    lines = path.read_text().split("\n")
    first_record = lines.index("---") + 2  # past the separator and the record header
    lines[first_record] = lines[first_record].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines))
    code = _run(
        ["localize", str(path), "--aggregator", "median", "--keep-fraction", "1.0",
         "--out", str(tmp_path / "o"), "--seed", "3", "--threads", "1"]
    )
    assert code == 2
    assert "is not finite" in capsys.readouterr().err


def test_localize_field_override_mismatch(tmp_path, capsys):
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path)
    override = tmp_path / "field.csv"
    override.write_text("id,role,x,y\nb1,anchor,0,0\nb2,anchor,1,0\nb3,anchor,0,1\n")
    code = _run(["localize", str(path), "--field", str(override), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "anchor ids" in capsys.readouterr().err


def test_localize_reports_parse_errors(tmp_path, capsys):
    clean = tmp_path / "clean.csv"
    _synthetic_measurement_file(clean)
    lines = clean.read_text().split("\n")
    first_record = lines.index("---") + 2
    malformed = [
        "a1,zz,1,-40.0",  # unknown sensor id
        "a1,a1,2,-40.0",  # self link
        "a1,a2,banana,-40.0",  # non-numeric
        "a1,a2,3",  # wrong field count
        "a2,a3,4,-41.0,7",  # wrong field count
        "a3,a3,5,-40.0",  # self link
    ]
    dirty = tmp_path / "dirty.csv"
    dirty.write_text("\n".join(lines[:first_record] + malformed + lines[first_record:]))
    args = ["--aggregator", "median", "--keep-fraction", "1.0", "--seed", "3", "--threads", "1"]
    assert _run(["localize", str(clean), "--out", str(tmp_path / "a"), *args]) == 0
    capsys.readouterr()
    assert _run(["localize", str(dirty), "--out", str(tmp_path / "b"), *args]) == 0
    err = capsys.readouterr().err
    numbers = [first_record + 1 + k for k in range(6)]
    assert "6 malformed" in err
    assert ", ".join(str(n) for n in numbers[:5]) in err
    assert str(numbers[5]) not in err
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    record = manifest["diagnostics"]["parse_errors"]
    assert record["count"] == 6
    assert [e["line"] for e in record["first"]] == numbers[:5]
    assert "unknown sensor id" in record["first"][0]["message"]
    # malformed rows are skipped, so the positions do not change
    assert (tmp_path / "a" / "positions.csv").read_bytes() == (
        tmp_path / "b" / "positions.csv"
    ).read_bytes()
    clean_manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert clean_manifest["diagnostics"]["parse_errors"] == {"count": 0, "first": []}
