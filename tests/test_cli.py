import json
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_ingest import _HEADER, _LINE

from ordinal_unloc import __version__, bench, cli, ingest, ordinal, pipeline, unfold
from ordinal_unloc.cli import _int_list, build_parser, main
from ordinal_unloc.core import (
    ComparisonTensor,
    ConfigError,
    InputError,
    SensorField,
    parse_sensor_field,
)
from ordinal_unloc.ingest import (
    MeasurementRecord,
    measurement_signal_matrix,
    measurement_signals,
    parse_measurement_text,
    parse_measurements,
    select_strong_links,
    write_measurement_file,
)
from ordinal_unloc.ordinal import tensor_from_signals
from ordinal_unloc.pipeline import localize_from_tensor

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


@pytest.mark.parametrize("side", [bench.FIELD_SIDE_RANGE[0], 1.0])
def test_ordinal_noise_at_the_bound_runs_clean(tmp_path, side):
    """An ordinal noise level of 1e30, the largest field side, is a distance
    numpy scales without overflow, on the smallest field and on a unit one."""
    out = tmp_path / "run"
    argv = ["simulate", "--anchors", "5", "--sigma", "0,1e30", "--field-side", repr(side)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run(argv + ["--out", str(out)] + FAST) == 0
    assert (out / "results.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_ordinal_noise_above_the_bound_exit_code_1(tmp_path, capsys, monkeypatch, source):
    """The next double above 1e30 is a config error, raised before any
    trial runs."""
    value = repr(float(np.nextafter(bench.FIELD_SIDE_RANGE[1], np.inf)))

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_benchmark", no_trial)
    argv = ["simulate", "--anchors", "5", "--out", str(tmp_path / "run")] + FAST
    if source == "flag":
        argv += ["--sigma", f"0,{value}"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"sigma=0,{value}\n")
        argv += ["--config", str(cfg)]
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert f"config error: ordinal noise levels must be at most 1e+30, got {value}" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("noise, speed", [("1e60", "1.0"), ("1e50", "1e10")])
def test_toa_noise_at_the_bound_runs_clean(tmp_path, noise, speed):
    """A toa variance v at speed c with c * v = 1e60 gives the direct
    estimates noise of standard deviation 1e30, the largest field side,
    and the trials run without an overflow warning."""
    out = tmp_path / "run"
    argv = ["benchmark", "--kind", "toa", "--anchors", "5", "--noise", noise]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run(argv + ["--propagation-speed", speed, "--out", str(out)] + FAST) == 0
    assert (out / "results.csv").exists()


@pytest.mark.parametrize(
    "noise, speed",
    [(np.nextafter(1e60, np.inf), 1.0), (np.nextafter(1e50, np.inf), 1e10), (1e308, 1.0)],
)
def test_toa_noise_above_the_bound_exit_code_1(tmp_path, capsys, monkeypatch, noise, speed):
    """The next double above each bound, and 1e308, are config errors,
    raised before any trial runs and without an overflow warning."""

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_benchmark", no_trial)
    argv = ["benchmark", "--kind", "toa", "--anchors", "5", "--noise", repr(float(noise))]
    argv += ["--propagation-speed", repr(speed), "--out", str(tmp_path / "run")] + FAST
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run(argv) == 1
    err = capsys.readouterr().err
    assert "config error: normalized TOA variance times propagation speed must be at most" in err
    assert not (tmp_path / "run").exists()


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


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "command, key, value",
    [
        ("benchmark", "propagation-speed", "0"),
        ("benchmark", "propagation-speed", "inf"),
        ("simulate", "field-side", "inf"),
        ("simulate", "field-side", "nan"),
        ("simulate", "field-side", "abc"),
        ("benchmark", "g-range", "1,3"),
        ("benchmark", "g-range", "6,2"),
        ("benchmark", "g-range", "2,inf"),
        ("benchmark", "calibration-g", "0"),
        ("benchmark", "calibration-g", "nan"),
    ],
)
def test_bad_experiment_parameters_exit_code_1(tmp_path, capsys, source, command, key, value):
    argv = [command, "--anchors", "5", "--out", str(tmp_path / "run")] + FAST
    if command == "benchmark":
        argv += ["--kind", "toa" if key == "propagation-speed" else "rss"]
    if source == "flag":
        argv += [f"--{key}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key.replace('-', '_')}={value}\n")
        argv += ["--config", str(cfg)]
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "results.csv").exists()


_KIND_COMMANDS = {
    "ordinal": ["simulate"],
    "rss": ["benchmark", "--kind", "rss"],
    "toa": ["benchmark", "--kind", "toa"],
}


@pytest.mark.parametrize("side", bench.FIELD_SIDE_RANGE)
@pytest.mark.parametrize("kind", bench.EXPERIMENT_KINDS)
def test_field_side_at_either_end_runs_clean(tmp_path, kind, side):
    """Both ends of the range are inside it: every kind runs through, numpy
    warns of no overflow or underflow on the way, and no method's curve is
    unreliable."""
    out = tmp_path / "run"
    argv = _KIND_COMMANDS[kind] + ["--anchors", "5,20", "--field-side", repr(side)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run(argv + ["--out", str(out)] + FAST) == 0
    curves = json.loads((out / "results.json").read_text())["curves"]
    assert not any(any(curve["unreliable"]) for curve in curves.values())


@pytest.mark.parametrize("side", [1e3, 1e6])
def test_benchmark_noiseless_genie_solves_converge_on_large_fields(tmp_path, side):
    """The genie-aided inversions are exact, so their unfolding costs are
    roundoff that grows with the field side; the solver counts a root whose
    iterate stopped moving as converged, so none is flagged."""
    out = tmp_path / "run"
    argv = ["benchmark", "--kind", "rss", "--anchors", "5,20", "--field-side", repr(side)]
    assert _run(argv + ["--out", str(out)] + FAST) == 0
    curves = json.loads((out / "results.json").read_text())["curves"]
    assert curves["unloc_genie"]["flagged_fraction"] == [0.0, 0.0]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("outward", [0.0, np.inf])
@pytest.mark.parametrize("kind", bench.EXPERIMENT_KINDS)
def test_field_side_just_outside_the_range_exit_code_1(
    tmp_path, capsys, monkeypatch, kind, outward, source
):
    """The next double beyond either end is a config error, from a flag or
    from --config, raised before any trial runs."""
    end = bench.FIELD_SIDE_RANGE[outward > 0]
    value = repr(float(np.nextafter(end, outward)))

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_benchmark", no_trial)
    argv = _KIND_COMMANDS[kind] + ["--anchors", "5", "--out", str(tmp_path / "run")] + FAST
    if source == "flag":
        argv += ["--field-side", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"field_side={value}\n")
        argv += ["--config", str(cfg)]
    assert _run(argv) == 1
    assert f"config error: field_side must be in [1e-60, 1e+30], got {value}" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", [["simulate"], ["benchmark", "--kind", "rss"]])
@pytest.mark.parametrize("anchors", ["1", "5,1"])
def test_one_anchor_grid_is_a_config_error(tmp_path, capsys, monkeypatch, command, anchors):
    """A grid point with one anchor is refused before any trial is drawn."""

    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(bench, "run_trial", no_trial)
    argv = command + ["--anchors", anchors, "--out", str(tmp_path / "run")] + FAST
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "counts >= 2" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "command, flag, source",
    [
        ("simulate", "out", "flag"),
        ("simulate", "out", "config"),
        ("benchmark", "out", "flag"),
        ("localize", "out", "flag"),
        ("localize", "field", "flag"),
        ("localize", "field", "config"),
    ],
)
def test_empty_path_flags_exit_code_1(tmp_path, monkeypatch, capsys, command, flag, source):
    """An empty --out or --field would name the current directory: it is a
    config error naming the flag, and nothing is written there."""
    log = tmp_path / "meas.csv"
    _synthetic_measurement_file(log)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    argv = {
        "simulate": ["simulate", "--anchors", "5", "--sigma", "0.0"] + FAST,
        "benchmark": ["benchmark", "--kind", "rss", "--anchors", "5"] + FAST,
        "localize": ["localize", str(log), "--seed", "7"],
    }[command]
    if source == "flag":
        argv += [f"--{flag}", ""]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag}=\n")
        argv += ["--config", str(cfg)]
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert f"config error: --{flag} must not be empty" in err and "Traceback" not in err
    assert list(cwd.iterdir()) == []


def test_seed_zero_accepted(tmp_path):
    out = tmp_path / "run"
    argv = ["simulate", "--anchors", "5", "--sigma", "0.0", "--out", str(out)]
    assert _run(argv + ["--trials", "2", "--threads", "1", "--restarts", "4", "--seed", "0"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 0


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=1\n")
    assert _run(["simulate", "--config", str(cfg)]) == 1


@pytest.mark.parametrize(
    "entry", ["func=x", "command=simulate", "config=other.cfg", "help=1", "measurements=other.csv"]
)
def test_config_file_accepts_only_option_keys(tmp_path, capsys, entry):
    """Internal destinations, --config itself and the positional log file
    are not option keys: each is an unknown key (exit 1), not a traceback or
    a silently replaced input."""
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a comment\n\n{entry}\n")
    out = tmp_path / "o"
    assert _run(["localize", str(path), "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"run.cfg:3: unknown key {entry.split('=')[0]!r}" in err and "Traceback" not in err
    assert not out.exists()


def test_config_file_loses_to_an_abbreviated_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials=7\nanchors=5\nsigma=0.0\n")
    out = tmp_path / "run"
    argv = ["simulate", "--config", str(cfg), "--tri", "2", "--thr", "1", "--out", str(out)]
    assert _run(argv) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["trials"] == 2


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


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("rss", "noise", "5,6"),
        ("rss", "propagation-speed", "2"),
        ("toa", "g-range", "2,4"),
        ("toa", "calibration-g", "3"),
    ],
)
def test_benchmark_flag_of_the_other_kind_is_a_config_error(
    tmp_path, capsys, monkeypatch, source, kind, key, value
):
    """An option that the chosen kind's experiment cannot use is refused
    before any trial runs, rather than dropped from the results."""

    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(bench, "run_trial", no_trial)
    out = tmp_path / "run"
    argv = ["benchmark", "--kind", kind, "--anchors", "5", "--out", str(out)] + FAST
    if source == "flag":
        argv += [f"--{key}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key.replace('-', '_')}={value}\n")
        argv += ["--config", str(cfg)]
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert f"config error: --{key} does not apply to benchmark kind '{kind}'" in err
    assert not out.exists()


def test_benchmark_underflowed_power_is_a_numerical_failure(tmp_path, capsys):
    """On a field so large, and a path loss so steep, that received power
    underflows, the direct inversions are not finite: exit 3 with a
    message, and the inversions warn nothing."""
    out = tmp_path / "rss"
    argv = ["benchmark", "--kind", "rss", "--field-side", "1e30", "--g-range", "12,12"]
    argv += ["--anchors", "5"]
    with warnings.catch_warnings():
        warnings.filterwarnings("error", category=RuntimeWarning, module=r"ordinal_unloc\.bench")
        assert _run(argv + ["--out", str(out)] + FAST) == 3
    err = capsys.readouterr().err
    assert "numerical failure: received power underflowed" in err
    assert not (out / "results.csv").exists()


def test_benchmark_overflowed_fixed_exponent_estimates_are_a_numerical_failure(tmp_path, capsys):
    """With calibration exponent 1 the fixed-G estimates grow like d^G, so on
    the largest field their squares overflow: exit 3 naming the calibration
    exponent, not an input error, and numpy warns nothing."""
    out = tmp_path / "rss"
    argv = ["benchmark", "--kind", "rss", "--anchors", "5,20", "--calibration-g", "1"]
    argv += ["--field-side", "1e30", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run(argv + FAST) == 3
    err = capsys.readouterr().err
    assert "numerical failure: the squared fixed-calibration distance estimates overflow" in err
    assert "calibration exponent 1.0" in err
    assert not (out / "results.csv").exists()


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


def _drop_pair_reads(path, pair):
    """Remove every read of the unordered link ``pair`` from the log."""
    a, b = pair
    lines = path.read_text().split("\n")
    path.write_text("\n".join(x for x in lines if not x.startswith((f"{a},{b},", f"{b},{a},"))))


@pytest.mark.parametrize("dropped", [None, ("a1", "t1")], ids=["complete", "a1-t1-missing"])
def test_localize_builds_no_comparison_tensor(monkeypatch, tmp_path, dropped):
    """All samples are estimated in one stack from comparison row sums, and
    one solver batch gets the problems of each sample's tensor route, byte
    for byte, also when a link is missing from every sample."""
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path, repeats=3, noise_db=0.5, seed=4)
    if dropped is not None:
        _drop_pair_reads(path, dropped)
    parsed = parse_measurements(path)
    links = select_strong_links(parsed, 1.0)
    expected = []
    for k in range(1, len(measurement_signals(links, "sample")[0]) + 1):
        sig = measurement_signal_matrix(links, "sample", sample_index=k)
        assert sig.missing.sum() == sig.order + (0 if dropped is None else 2)
        _, d_hat = localize_from_tensor(tensor_from_signals(sig), parsed.field.anchors)
        expected += [d_hat.values[:, j] ** 2 for j in range(d_hat.n_targets)]
    batches = []
    solve = unfold.solve_unfolding_arrays

    def recording(anchors, delta, counts):
        batches.append(np.split(delta, np.cumsum(counts)[:-1]))
        return solve(anchors, delta, counts)

    def refuse(self):
        raise AssertionError("a comparison tensor was built")

    monkeypatch.setattr(unfold, "solve_unfolding_arrays", recording)
    monkeypatch.setattr(ComparisonTensor, "__post_init__", refuse)
    code = _run(["localize", str(path), "--keep-fraction", "1.0", "--out", str(tmp_path / "loc")])
    assert code == 0
    assert len(batches) == 1
    assert [delta.tobytes() for delta in batches[0]] == [delta.tobytes() for delta in expected]


def test_localize_checks_each_sample_once(monkeypatch, tmp_path):
    """The samples are checked once, as one stack."""
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path, repeats=3, noise_db=0.5, seed=4)
    checked = ordinal._checked_signals
    calls = []

    def counting(values, present):
        calls.append(len(values))
        return checked(values, present)

    monkeypatch.setattr(ordinal, "_checked_signals", counting)
    code = _run(["localize", str(path), "--keep-fraction", "1.0", "--out", str(tmp_path / "loc")])
    assert code == 0
    # 6 pooled records per unordered pair: one stack of 6 samples
    assert calls == [6]


def test_localize_pools_the_kept_records_once(monkeypatch, tmp_path):
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path, repeats=3, noise_db=0.5, seed=4)
    pool = ingest._pooled_links
    calls = []

    def counting(ms):
        calls.append(len(ms.records))
        return pool(ms)

    monkeypatch.setattr(ingest, "_pooled_links", counting)
    assert _run(_localize_args(path, tmp_path / "loc")) == 0
    assert calls == [60]


@pytest.mark.parametrize("aggregator", ["sample", "median", "mean"])
def test_localize_log_without_usable_records_exit_code_2(tmp_path, capsys, aggregator):
    """A log whose only record row is malformed has nothing to localize
    from, in every aggregator mode."""
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path)
    text = path.read_text()
    header = text.index("tx_id,")
    path.write_text(text[: text.index("\n", header) + 1] + "a1,zz,1,-40.0\n")
    assert _run(_localize_args(path, tmp_path / "o", "--aggregator", aggregator)) == 2
    err = capsys.readouterr().err
    assert "input error: measurement set has no records" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["log", "field", "config"])
def test_non_utf8_input_exit_code_2(tmp_path, capsys, kind):
    """A byte that is not UTF-8 in a measurement log, a --field roster or
    a --config file is an input error naming the file and the byte."""
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path)
    argv = _localize_args(path, tmp_path / "o")
    if kind == "log":
        bad = path
        data = path.read_bytes().replace(b"a2,anchor", b"a2\xe9,anchor")
    elif kind == "field":
        bad = tmp_path / "field.csv"
        data = "id,role,x,y\n# caf\u00e9\na1,anchor,0,0\n".encode("latin-1")
        argv += ["--field", str(bad)]
    else:
        bad = tmp_path / "run.cfg"
        data = b"seed=3\n# \xff\xfe\n"
        argv += ["--config", str(bad)]
    bad.write_bytes(data)
    assert _run(argv) == 2
    err = capsys.readouterr().err
    offset = next(k for k, byte in enumerate(data) if byte >= 0x80)
    assert f"input error: {bad}: byte {offset} is not valid UTF-8" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


_BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark spreadsheet tools write


def test_byte_order_marked_log_reads_as_the_plain_one(tmp_path):
    """A log saved with a leading byte-order mark gives the same columns,
    and localize the same positions, as the log without it."""
    plain = tmp_path / "plain.csv"
    _synthetic_measurement_file(plain, repeats=3, noise_db=0.5, seed=4)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(_BOM + plain.read_bytes())
    ms, ms_marked = parse_measurements(plain), parse_measurements(marked)
    assert ms_marked.sensor_ids == ms.sensor_ids
    for name in ("tx", "rx", "timestamp_ms", "rssi_dbm", "line"):
        assert getattr(ms_marked, name).tobytes() == getattr(ms, name).tobytes()
    assert _run(_localize_args(plain, tmp_path / "a")) == 0
    assert _run(_localize_args(marked, tmp_path / "b")) == 0
    assert (tmp_path / "b" / "positions.csv").read_bytes() == (
        tmp_path / "a" / "positions.csv"
    ).read_bytes()


@pytest.mark.parametrize("kind", ["field", "config"])
def test_byte_order_marked_field_and_config_files_are_read(tmp_path, kind):
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path)
    assert _run(_localize_args(path, tmp_path / "plain", "--aggregator", "median")) == 0
    if kind == "field":
        marked = tmp_path / "field.csv"
        content = path.read_text().split("\n---\n")[0] + "\n"
        extra = ["--aggregator", "median", "--field", str(marked)]
    else:
        marked = tmp_path / "run.cfg"
        content = "aggregator=median\n"
        extra = ["--config", str(marked)]
    marked.write_bytes(_BOM + content.encode())
    out = tmp_path / "marked"
    assert _run(_localize_args(path, out, *extra)) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["aggregator"] == "median"
    assert (out / "positions.csv").read_bytes() == (
        tmp_path / "plain" / "positions.csv"
    ).read_bytes()


def _two_under_linked_targets(path):
    """t1 keeps 2 of its 4 anchor links and a new target t2 has none."""
    _drop_pair_reads(path, ("a1", "t1"))
    _drop_pair_reads(path, ("a2", "t1"))
    path.write_text(path.read_text().replace("\nt1,target,\n", "\nt1,target,\nt2,target,\n"))


def _two_anchor_roster(path):
    lines = path.read_text().split("\n")
    path.write_text("\n".join(x for x in lines if "a3," not in x and "a4," not in x))


@pytest.mark.parametrize(
    "edit, refused",
    [
        (lambda path: _drop_pair_reads(path, ("a1", "t1")), None),  # exactly q + 1 anchors
        (_two_under_linked_targets, "t1 (2), t2 (0)"),
        (_two_anchor_roster, "t1 (2)"),
    ],
    ids=["q-plus-one", "two-targets-short", "two-anchor-roster"],
)
def test_localize_refuses_targets_linked_to_too_few_anchors(tmp_path, capsys, edit, refused):
    """A target linked to fewer than q + 1 anchors cannot be placed: the
    run exits 3 before it writes anything and names each such target with
    its count of linked anchors.  A target on exactly q + 1 is placed."""
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path)
    edit(path)
    out = tmp_path / "o"
    code = _run(_localize_args(path, out))
    if refused is None:
        assert code == 0
        assert "t1,average," in (out / "positions.csv").read_text()
    else:
        assert code == 3
        err = capsys.readouterr().err
        assert f"numerical failure: target(s) linked to fewer than 3 anchors: {refused}\n" in err
        assert not out.exists()


def test_localize_unsolved_column_keeps_sample_labels(monkeypatch, tmp_path):
    """A sample whose estimates for a target overflow when squared is left
    out of that target's rows; every other sample keeps its own label and
    position, the average is over the solved samples, and the run exits 3."""
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path, repeats=3, noise_db=0.5, seed=4)
    assert _run(_localize_args(path, tmp_path / "all")) == 0
    stack = pipeline.estimate_distances_stack

    def overflowing(psi, d_y):
        estimates, failed = stack(psi, d_y)
        estimates[0, :, 0] *= 1e160  # sample 1, target t1
        return estimates, failed

    monkeypatch.setattr(pipeline, "estimate_distances_stack", overflowing)
    assert _run(_localize_args(path, tmp_path / "one-unsolved")) == 3
    rows = {}
    for name in ("all", "one-unsolved"):
        lines = (tmp_path / name / "positions.csv").read_text().strip().split("\n")[1:]
        rows[name] = [line.split(",") for line in lines]
    assert [r[1] for r in rows["all"]] == ["1", "2", "3", "4", "5", "6", "average"]
    assert rows["one-unsolved"][:-1] == rows["all"][1:-1]
    solved = np.array([[float(c) for c in r[2:]] for r in rows["all"][1:-1]])
    average = [repr(float(c)) for c in np.mean(solved, axis=0)]
    assert rows["one-unsolved"][-1] == ["t1", "average", *average]


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


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_localize_non_finite_roster_coordinate_exit_code_2(tmp_path, capsys, cell):
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path)
    lines = path.read_text().split("\n")
    roster_line = next(k for k, line in enumerate(lines) if line.startswith("a4,"))
    lines[roster_line] = f"a4,anchor,{cell},1"
    path.write_text("\n".join(lines))
    code = _run(["localize", str(path), "--out", str(tmp_path / "o"), "--threads", "1"])
    assert code == 2
    assert f"line {roster_line + 1}: coordinate '{cell}' is not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header, refused",
    [
        ("id,role,x,y", False),
        (" ID , Role,x,Y,z", False),
        ("id,role,x,y,w", True),
        ("id,role,x,y,z,w", True),
        ("id,role,x,y,notes", True),
    ],
)
def test_measurement_roster_header_follows_the_field_file_rule(tmp_path, capsys, header, refused):
    """A log's roster is refused exactly when a --field file with the same
    header is, and localize then exits 2."""
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path)
    lines = path.read_text().split("\n")
    assert lines[0] == "id,role,x,y"
    lines[0] = header
    text = "\n".join(lines)

    def refusal(parse, text):
        try:
            parse(text)
        except InputError as exc:
            return str(exc)

    expected = "line 1: expected header id,role,x,y[,z]" if refused else None
    assert refusal(parse_sensor_field, text[: text.index("\n---\n")]) == expected
    assert refusal(parse_measurement_text, text) == expected
    path.write_text(text)
    code = _run(["localize", str(path), "--out", str(tmp_path / "o"), "--threads", "1"])
    assert code == (2 if refused else 0)
    if refused:
        assert f"input error: {expected}" in capsys.readouterr().err


def test_localize_non_finite_field_override_exit_code_2(tmp_path, capsys):
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path)
    override = tmp_path / "field.csv"
    override.write_text(
        "id,role,x,y\na1,anchor,0,0\na2,anchor,4,0\na3,anchor,4,5\na4,anchor,0,inf\n"
    )
    code = _run(["localize", str(path), "--field", str(override), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "line 5: coordinate 'inf' is not finite" in capsys.readouterr().err


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


def _localize_args(path, out, *extra):
    return [
        "localize", str(path), "--keep-fraction", "1.0", "--out", str(out),
        "--seed", "3", "--restarts", "8", "--threads", "1", *extra,
    ]


def test_localize_field_override_matched_by_id(tmp_path):
    # the same anchors listed in reverse order must not mirror the answer
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path)
    override = tmp_path / "field.csv"
    override.write_text(
        "id,role,x,y\na4,anchor,0,5\na3,anchor,4,5\na2,anchor,4,0\na1,anchor,0,0\nt1,target,,\n"
    )
    assert _run(_localize_args(path, tmp_path / "plain")) == 0
    assert _run(_localize_args(path, tmp_path / "over", "--field", str(override))) == 0
    assert (tmp_path / "plain" / "positions.csv").read_bytes() == (
        tmp_path / "over" / "positions.csv"
    ).read_bytes()


def test_localize_field_override_without_targets(tmp_path, capsys):
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path)
    override = tmp_path / "field.csv"
    override.write_text("id,role,x,y\na1,anchor,0,0\na2,anchor,4,0\na3,anchor,4,5\na4,anchor,0,5\n")
    code = _run(_localize_args(path, tmp_path / "o", "--field", str(override)))
    assert code == 2
    assert "target ids" in capsys.readouterr().err


def test_localize_threads_flag_is_inert(tmp_path):
    # localize runs in one process; --threads is validated and otherwise unused
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path, repeats=3, noise_db=0.5, seed=4)
    assert _run(_localize_args(path, tmp_path / "one", "--threads", "1")) == 0
    assert _run(_localize_args(path, tmp_path / "two", "--threads", "2")) == 0
    assert (tmp_path / "one" / "positions.csv").read_bytes() == (
        tmp_path / "two" / "positions.csv"
    ).read_bytes()
    (threads,) = [a for a in build_parser().commands["localize"]._actions if a.dest == "threads"]
    assert threads.help.startswith("validated but unused")


def test_localize_manifest_records_counts(tmp_path):
    path = tmp_path / "meas.csv"
    _synthetic_measurement_file(path, repeats=3, noise_db=0.5, seed=4)
    # drop every read of the a1-t1 pair: 54 of 60 records remain, 9 of 10 links
    _drop_pair_reads(path, ("a1", "t1"))
    out = tmp_path / "o"
    assert _run(_localize_args(path, out, "--keep-fraction", "0.5")) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # ceil(0.5 * 3) = 2 reads kept per directed link, so 4 samples per pair
    assert manifest["diagnostics"]["records"] == {
        "parsed": 54,
        "kept": 36,
        "pooled_links": 9,
        "missing_link_frac": 0.1,
        "samples": 4,
    }
    labels = [line.split(",")[1] for line in (out / "positions.csv").read_text().split("\n")[1:-1]]
    assert labels == ["1", "2", "3", "4", "average"]


_ROSTER_ROWS = ["a1,anchor,0,0", "a2,anchor,4,0", "a3,anchor,4,5", "t1,target,,", "t2,target,,"]
_ROSTER_MUTATIONS = [
    "a4,beacon,1,1",  # bad role
    "a1,anchor,1,1",  # duplicate id
    "t1,target,,",  # duplicate target
    "a4,anchor,,",  # anchor without coordinates
    "a4,anchor,x,1",  # non-numeric coordinate
    "a4,anchor,nan,1",  # non-finite coordinate
    "a4,anchor,1,2,3",  # inconsistent dimension
    "t3,target,1,1",  # coordinates on some targets only
    "a4",  # too few cells
    "a4,anchor,0,0",  # coincides with a1
    "a4,anchor,2,0",  # collinear with a1 and a2
]


@st.composite
def _rosters(draw):
    """The roster rows in any order, mostly whole, sometimes less a row
    and sometimes with a malformed or awkward row put in."""
    rows = list(draw(st.permutations(_ROSTER_ROWS)))
    if draw(st.integers(0, 3)) == 0:
        del rows[draw(st.integers(0, len(rows) - 1))]
    mutation = draw(st.sampled_from([None] * len(_ROSTER_MUTATIONS) + _ROSTER_MUTATIONS))
    if mutation is not None:
        rows.insert(draw(st.integers(0, len(rows))), mutation)
    return rows


@settings(max_examples=200, deadline=None)
@given(
    roster=_rosters(),
    roster_header=st.sampled_from(["id,role,x,y"] * 10 + ["id,role,x", "id,x,y,role"]),
    separator=st.sampled_from(["---"] * 10 + ["--", "# ---"]),  # missing separator
    header=_HEADER,
    body=st.lists(_LINE, max_size=60),
    keep=st.sampled_from(["1.0", "0.5", "0.2"]),
    aggregator=st.sampled_from(["sample", "median", "mean"]),
)
def test_localize_fuzzed_logs_exit_with_a_documented_code(
    roster, roster_header, separator, header, body, keep, aggregator
):
    """Whatever the log holds, ``localize`` ends in 0, 1, 2 or 3 and never
    in a traceback."""
    text = "\n".join([roster_header, *roster, separator, header, *body]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "meas.csv"
        path.write_text(text, encoding="utf-8")
        code = main(
            [
                "localize", str(path), "--keep-fraction", keep, "--aggregator", aggregator,
                "--seed", "1", "--threads", "1", "--out", str(Path(tmp) / "out"),
            ]
        )  # fmt: skip
    assert code in (0, 1, 2, 3)


_CONFIG_KEYS = st.sampled_from(
    [
        "anchors", "sigma", "targets", "field-side", "field_side", "trials", "seed", "threads",
        "restarts", "kind", "out", "keep-fraction", "keep_fraction", "aggregator", "field",
        "noise", "g_range", "func", "command", "config", "help", "measurements", "version",
    ]
) | st.text(alphabet="abcdefghijklmnopqrstuvwxyz_- ", max_size=12)  # fmt: skip
# small or malformed values only, so no run draws a large grid
_CONFIG_VALUES = st.sampled_from(
    [
        "1", "2", "0", "-1", "x", "", "nan", "inf", "0.5", "1,2", "2:3", "3:2", "0:2:0",
        "median", "mean", "sample", "ordinal", "rss", " 2 ", "a=b", "nonexistent.csv",
    ]
)  # fmt: skip


@st.composite
def _config_lines(draw):
    """Comment, blank, key=value and '='-less lines in any mix."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        form = draw(st.sampled_from(["pair"] * 6 + ["comment", "blank", "bare"]))
        if form == "pair":
            lines.append(f"{draw(_CONFIG_KEYS)}={draw(_CONFIG_VALUES)}")
        elif form == "comment":
            lines.append(f"# {draw(_CONFIG_KEYS)}={draw(_CONFIG_VALUES)}")
        elif form == "blank":
            lines.append("")
        else:
            lines.append(draw(_CONFIG_KEYS))
    return lines


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["simulate", "localize"]), lines=_config_lines())
@example(command="simulate", lines=["func=x"])
def test_fuzzed_config_files_exit_with_a_documented_code(command, lines):
    """Whatever a --config file holds, a run ends in 0, 1, 2 or 3 and never
    in a traceback.  The flags given here (one trial, one worker, the output
    directory) win over the file, so no run is large or writes elsewhere."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = [command, "--config", str(cfg), "--threads", "1", "--out", str(Path(tmp) / "o")]
        if command == "simulate":
            argv += ["--trials", "1"]
        else:
            log = Path(tmp) / "meas.csv"
            _synthetic_measurement_file(log)
            argv.insert(1, str(log))
        code = main(argv)
    assert code in (0, 1, 2, 3)
