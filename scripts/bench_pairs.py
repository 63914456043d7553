#!/usr/bin/env python3
"""Paired benchmark of a change against its parent commit.

    python3 scripts/bench_pairs.py --workload large-n --seeds 1,23 --pairs 10 \
        --label large-n --change "what the change does"

The change is this checkout's working tree.  The parent (default
``HEAD`` while ``src`` differs from it, as when the change is not yet
committed, else ``HEAD~1``; other files do not count) is checked out
with ``git worktree`` into a temporary directory, unless ``--parent-dir``
names an existing checkout; then ``--parent`` must name the commit that
checkout holds, because the script cannot tell it from a ``git archive``
copy.  For every seed, ``perfbench/run.py`` runs for the parent and the
change in alternating pairs, one run at a time; the order inside a pair
swaps every pair, so drift of the machine falls on both sides alike.
``--trace-pairs`` adds traced runs (``--trace 1``) for the per-layer
metrics of the first seed.

Writes ``BENCH_<label>.json`` at the repository root: every run's record
and result, and per seed and metric the parent's and the change's first
quartile, median and third quartile, with the number of pairs in which
the change read higher and the number in which it read lower; a tied
pair counts in neither.  Each metric that ``BENCHMARK.json`` declares
gets two verdicts from its ``better`` and ``bound``:

- ``claim_met``: the change is better in at least nine tenths of the
  pairs, and its median is better than the parent's by more than the
  parent's interquartile range;
- ``within_bound`` (metrics with a ``bound``): the change's median is
  worse than the parent's by at most ``bound`` times the parent's median.

Each side's interpreter and package import time (``import_s`` of the run
records) is summarized as well, since ``setup_s`` includes it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` run in ``checkout``; returns the exit code
    and the last two JSON lines of stdout (run record, result)."""
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    record, result = (json.loads(line) for line in lines[-2:]) if len(lines) >= 2 else ({}, {})
    return proc.returncode, record, result


def pair_order(pair):
    """Sides in run order: parent first in even pairs, change first in odd."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def _quartiles(values):
    if len(values) < 2:
        return [round(values[0], 6)] * 3 if values else []
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(median, 6), round(q3, 6)]


def default_parent(root):
    """``HEAD`` if ``git diff --quiet HEAD -- src`` in ``root`` reports
    changes, else ``HEAD~1``."""
    src_changed = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=root)
    return "HEAD" if src_changed.returncode == 1 else "HEAD~1"


def load_rules():
    """Metric name -> its ``BENCHMARK.json`` entry (``better``, and
    ``bound`` for the end-to-end metrics)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def verdicts(entry, rule):
    """``claim_met`` and, where ``rule`` has a bound, ``within_bound`` for
    one metric's summary ``entry``."""
    p_q1, p_median, p_q3 = entry["parent_q1_median_q3"]
    c_median = entry["change_q1_median_q3"][1]
    higher = rule["better"] == "higher"
    gain = c_median - p_median if higher else p_median - c_median
    wins = entry["pairs_change_higher"] if higher else entry["pairs_change_lower"]
    pairs = entry["pairs"]
    out = {"claim_met": pairs > 0 and 10 * wins >= 9 * pairs and gain > p_q3 - p_q1}
    if "bound" in rule:
        out["within_bound"] = -gain <= rule["bound"] * abs(p_median)
    return out


def summarize(runs):
    """Per seed (``seed_<s>``) and end-to-end metric: both sides' [q1,
    median, q3], and in how many complete pairs the change read higher
    and in how many lower (ties count in neither), with the verdicts of
    ``verdicts`` for each metric that ``BENCHMARK.json`` declares.
    ``output_sha256`` lists the distinct hashes each side printed, and
    ``import_s`` each side's import-time quartiles."""
    rules = load_rules()
    summary = {}
    for seed in sorted({r["seed"] for r in runs}):
        of_seed = [r for r in runs if r["seed"] == seed]
        pairs = {}
        for r in of_seed:
            pairs.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        names = []
        for r in of_seed:
            for name in r["result"].get("metrics", {}):
                if name not in names:
                    names.append(name)
        entry = {}
        for name in names:
            values = {
                side: [r["result"]["metrics"][name]["value"] for r in of_seed
                       if r["side"] == side and name in r["result"].get("metrics", {})]
                for side in SIDES
            }
            differences = [
                p["change"]["result"]["metrics"][name]["value"]
                - p["parent"]["result"]["metrics"][name]["value"]
                for p in complete
            ]
            entry[name] = {
                "parent_q1_median_q3": _quartiles(values["parent"]),
                "change_q1_median_q3": _quartiles(values["change"]),
                "pairs_change_higher": sum(d > 0 for d in differences),
                "pairs_change_lower": sum(d < 0 for d in differences),
                "pairs": len(complete),
            }
            if name in rules and all(values.values()):
                entry[name].update(verdicts(entry[name], rules[name]))
        entry["output_sha256"] = {
            side: sorted({r["record"].get("output_sha256") for r in of_seed if r["side"] == side})
            for side in SIDES
        }
        entry["import_s"] = {
            side: _quartiles([r["record"]["import_s"] for r in of_seed
                              if r["side"] == side and "import_s" in r["record"]])
            for side in SIDES
        }
        summary[f"seed_{seed}"] = entry
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1", help="comma-separated seeds")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace-pairs", type=int, default=0)
    ap.add_argument(
        "--parent", help="git revision of the parent (default HEAD if src has changes, else HEAD~1)"
    )
    ap.add_argument("--parent-dir", help="existing checkout of the parent; skips git worktree")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--change", default="", help="one line on what the change does")
    args = ap.parse_args(argv)
    if args.parent_dir and not args.parent:
        ap.error("--parent-dir needs --parent: the commit that checkout holds")
    args.parent = args.parent or default_parent(ROOT)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = f"{args.seconds:g}"

    with tempfile.TemporaryDirectory() as tmp:
        if args.parent_dir:
            parent_dir = Path(args.parent_dir).resolve()
        else:
            parent_dir = Path(tmp) / "parent"
            subprocess.run(["git", "worktree", "add", "--detach", str(parent_dir), args.parent],
                           cwd=ROOT, check=True, capture_output=True)
        dirs = {"parent": parent_dir, "change": ROOT}
        rev_parse = subprocess.run(
            ["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True, text=True
        )
        # outside a git checkout, as in a ``git archive`` copy, keep the name given
        parent_commit = rev_parse.stdout.strip() if rev_parse.returncode == 0 else args.parent
        try:
            runs, trace_runs = [], []
            for seed in seeds:
                for pair in range(args.pairs):
                    for side in pair_order(pair):
                        code, record, result = run_once(dirs[side], args.workload, seed, seconds, 0)
                        runs.append({"seed": seed, "pair": pair, "side": side, "exit": code,
                                     "record": record, "result": result})
                        ops = result.get("metrics", {}).get("ops_per_s", {}).get("value")
                        print(f"seed {seed} pair {pair} {side}: exit {code}, ops_per_s {ops}",
                              file=sys.stderr, flush=True)
            for pair in range(args.trace_pairs):
                for side in pair_order(pair):
                    code, record, result = run_once(dirs[side], args.workload, seeds[0], seconds, 1)
                    trace_runs.append({"seed": seeds[0], "side": side, "exit": code,
                                       "record": record, "result": result})
        finally:
            if not args.parent_dir:
                subprocess.run(["git", "worktree", "remove", "--force", str(parent_dir)], cwd=ROOT,
                               capture_output=True)

    out = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {seconds} --trace 0",
        "design": "alternating parent/change pairs (order swapped every pair), one run at a time",
        "parent_commit": parent_commit,
        "change": args.change,
        "summary": summarize(runs),
        "runs": runs,
        "trace_runs": trace_runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
