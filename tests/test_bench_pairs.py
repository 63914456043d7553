import importlib.util
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
