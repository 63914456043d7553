import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(seed, pair, side, ops, sha="abc"):
    return {
        "seed": seed, "pair": pair, "side": side, "exit": 0,
        "record": {"output_sha256": sha},
        "result": {"metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                               "rmse": {"value": 0.1, "unit": "side"}}},
    }  # fmt: skip


def test_pair_order_swaps_every_pair():
    assert [bench_pairs.pair_order(p) for p in range(3)] == [
        ("parent", "change"),
        ("change", "parent"),
        ("parent", "change"),
    ]


def test_summarize_quartiles_and_pairs_won():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [2.0, 2.5, 3.5, 4.5, 4.0]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        value = {"parent": p, "change": c}
        runs += [_run(1, pair, side, value[side]) for side in bench_pairs.pair_order(pair)]
    # a second seed, and a pair the change never ran, which is not counted
    runs += [_run(7, 0, "parent", 9.0, "def"), _run(7, 0, "change", 8.0, "def")]
    runs += [_run(7, 1, "parent", 9.5, "def")]
    summary = bench_pairs.summarize(runs)
    assert set(summary) == {"seed_1", "seed_7"}
    ops = summary["seed_1"]["ops_per_s"]
    assert ops["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
    assert ops["change_q1_median_q3"] == [2.5, 3.5, 4.0]
    assert (ops["pairs_change_higher"], ops["pairs_change_lower"], ops["pairs"]) == (4, 1, 5)
    rmse = summary["seed_1"]["rmse"]
    # every pair ties, so the change reads neither higher nor lower
    assert rmse["parent_q1_median_q3"] == [0.1] * 3
    assert (rmse["pairs_change_higher"], rmse["pairs_change_lower"]) == (0, 0)
    assert summary["seed_1"]["output_sha256"] == {"parent": ["abc"], "change": ["abc"]}
    seed_7 = summary["seed_7"]["ops_per_s"]
    assert (seed_7["pairs_change_higher"], seed_7["pairs_change_lower"]) == (0, 1)
    assert seed_7["pairs"] == 1
    assert seed_7["parent_q1_median_q3"] == [9.125, 9.25, 9.375]
    assert seed_7["change_q1_median_q3"] == [8.0, 8.0, 8.0]


def test_summarize_counts_ties_in_neither_direction():
    """Pairs that fall, tie and rise are told apart: a lower-is-better
    metric that never rose may still never have fallen."""
    parent = [148.0, 148.0, 148.0, 148.0]
    change = [87.0, 148.0, 149.0, 87.0]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        value = {"parent": p, "change": c}
        runs += [_run(1, pair, side, value[side]) for side in bench_pairs.pair_order(pair)]
    ops = bench_pairs.summarize(runs)["seed_1"]["ops_per_s"]
    assert (ops["pairs_change_higher"], ops["pairs_change_lower"], ops["pairs"]) == (1, 2, 4)


def _series(name, parent, change, import_s=(0.1, 0.2)):
    """Alternating pairs of runs whose metric ``name`` reads ``parent`` and
    ``change``; each side's records carry its ``import_s``."""
    runs = []
    for pair, values in enumerate(zip(parent, change)):
        for side in bench_pairs.pair_order(pair):
            value = values[bench_pairs.SIDES.index(side)]
            runs.append({
                "seed": 1, "pair": pair, "side": side, "exit": 0,
                "record": {"output_sha256": "abc",
                           "import_s": import_s[bench_pairs.SIDES.index(side)]},
                "result": {"metrics": {name: {"value": value, "unit": ""}}},
            })  # fmt: skip
    return runs


def _verdicts(name, parent, change):
    entry = bench_pairs.summarize(_series(name, parent, change))["seed_1"][name]
    return entry["claim_met"], entry.get("within_bound")


PARENT = [10.0, 10.5, 11.0, 11.5, 12.0, 10.0, 10.5, 11.0, 11.5, 12.0]  # IQR 1.0


@pytest.mark.parametrize(
    "name, change, expected",
    [
        # higher is better: every pair won, median up 2.0 > IQR
        ("ops_per_s", [v + 2.0 for v in PARENT], (True, True)),
        # nine of ten pairs won is enough
        ("ops_per_s", [v + 2.0 for v in PARENT[:9]] + [9.0], (True, True)),
        # eight of ten is not, though the median moved as far
        ("ops_per_s", [v + 2.0 for v in PARENT[:8]] + [9.0, 9.0], (False, True)),
        # every pair won, but the medians differ by no more than the IQR
        ("ops_per_s", [v + 0.5 for v in PARENT], (False, True)),
        # 24 % slower is within the 0.25 bound, 30 % is not
        ("ops_per_s", [v * 0.76 for v in PARENT], (False, True)),
        ("ops_per_s", [v * 0.7 for v in PARENT], (False, False)),
        # lower is better: the same readings are a gain, and the rise a loss
        ("op_ms_p50", [v - 2.0 for v in PARENT], (True, True)),
        ("op_ms_p50", [v + 2.0 for v in PARENT], (False, True)),
        ("peak_rss_mb", [v * 1.15 for v in PARENT], (False, False)),
        # a per-layer metric has a direction but no bound
        ("bench.run_trial.us_per_call", [v - 2.0 for v in PARENT], (True, None)),
    ],
)
def test_summarize_verdicts_follow_benchmark_json(name, change, expected):
    assert _verdicts(name, PARENT, change) == expected


def test_ties_win_no_claim():
    """Pairs that tie count for neither side, so a change that ties every
    pair makes no claim and stays within its bound."""
    assert _verdicts("ops_per_s", PARENT, PARENT) == (False, True)


def test_metric_without_a_rule_gets_no_verdict():
    runs = _series("undeclared.metric", PARENT, PARENT)
    assert "undeclared.metric" not in bench_pairs.load_rules()
    entry = bench_pairs.summarize(runs)["seed_1"]["undeclared.metric"]
    assert "claim_met" not in entry and "within_bound" not in entry


def test_rules_come_from_benchmark_json():
    rules = bench_pairs.load_rules()
    assert (rules["ops_per_s"]["better"], rules["ops_per_s"]["bound"]) == ("higher", 0.25)
    assert rules["op_ms_p50"]["better"] == "lower"
    assert "bound" not in rules["unfold.converged_frac"]


def test_summarize_reports_each_sides_import_time():
    runs = _series("ops_per_s", PARENT, PARENT, import_s=(0.13, 0.45))
    runs[0]["record"].pop("import_s")  # a record without one is skipped
    summary = bench_pairs.summarize(runs)["seed_1"]["import_s"]
    assert summary == {"parent": [0.13] * 3, "change": [0.45] * 3}


def test_parent_dir_without_parent_is_an_error_before_any_run(monkeypatch, tmp_path, capsys):
    """A ``--parent-dir`` copy cannot name its own commit, so the record
    would carry ``HEAD~1`` whatever the copy holds."""

    def no_run(*args, **kwargs):
        raise AssertionError("nothing may run before the arguments are checked")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    monkeypatch.setattr(bench_pairs.subprocess, "run", no_run)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--workload", "large-n", "--label", "x", "--parent-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "--parent-dir needs --parent" in capsys.readouterr().err


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=repo, check=True, capture_output=True, text=True,
    ).stdout.strip()  # fmt: skip


def _two_commit_repo(tmp_path):
    """A repository of two commits, each writing ``src/a.py``, with a
    tracked ``NOTES.md`` beside it."""
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    _git(repo, "init", "-q")
    for k in range(2):
        (repo / "src" / "a.py").write_text(f"x = {k}\n")
        (repo / "NOTES.md").write_text(f"note {k}\n")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", f"commit {k}")
    return repo


def test_default_parent_is_head_only_while_src_differs(tmp_path):
    repo = _two_commit_repo(tmp_path)
    assert bench_pairs.default_parent(repo) == "HEAD~1"
    # a change outside src, such as a deleted NOTES.md, is not the change
    (repo / "NOTES.md").unlink()
    assert bench_pairs.default_parent(repo) == "HEAD~1"
    (repo / "src" / "a.py").write_text("x = 2\n")
    assert bench_pairs.default_parent(repo) == "HEAD"
    _git(repo, "add", "-A")  # staged but not committed still differs from HEAD
    assert bench_pairs.default_parent(repo) == "HEAD"


@pytest.mark.parametrize("src_changed", [False, True])
def test_record_names_the_default_parent(monkeypatch, tmp_path, src_changed):
    repo = _two_commit_repo(tmp_path)
    if src_changed:
        (repo / "src" / "a.py").write_text("x = 2\n")
    rules = bench_pairs.load_rules()
    monkeypatch.setattr(bench_pairs, "load_rules", lambda: rules)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: (0, {}, {}))
    assert bench_pairs.main(["--workload", "w", "--label", "x", "--pairs", "1"]) == 0
    record = json.loads((repo / "BENCH_x.json").read_text())
    expected = _git(repo, "rev-parse", "HEAD" if src_changed else "HEAD~1")
    assert record["parent_commit"] == expected


def test_record_keeps_the_given_parent_outside_a_checkout(monkeypatch, tmp_path):
    """With no ``.git`` to resolve ``--parent`` in, the record names the
    revision as given, not an empty string."""
    root, parent_dir = tmp_path / "copy", tmp_path / "parent"
    root.mkdir()
    parent_dir.mkdir()
    rules = bench_pairs.load_rules()
    monkeypatch.setattr(bench_pairs, "load_rules", lambda: rules)
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: (0, {}, {}))
    argv = ["--workload", "w", "--label", "x", "--pairs", "1",
            "--parent", "5151c1f", "--parent-dir", str(parent_dir)]  # fmt: skip
    assert bench_pairs.main(argv) == 0
    assert json.loads((root / "BENCH_x.json").read_text())["parent_commit"] == "5151c1f"
