#!/usr/bin/env python3
"""Benchmark of ordinal-unloc: end-to-end metrics per workload, or
per-layer metrics from a traced run.

    python3 perfbench/run.py --workload mc-ordinal --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the package is imported from ``src/``.
One process, one thread: BLAS and OpenMP pools are pinned to one thread
before numpy loads, and nothing starts a process pool.  A closed loop
runs one op after another for ``--seconds``; with ``--trace 0`` it also
finishes every input once, so the accuracy metrics and the output hash
cover the same inputs on every run of a seed.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run record (platform, sample
counts, output hash, problems found).  The exit code is 1 when a check
failed.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import time  # noqa: E402

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    import ordinal_unloc
    import tracing
    from workloads import WORKLOADS
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the package from {SRC}: {exc}")
if not Path(ordinal_unloc.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: ordinal_unloc was imported from {ordinal_unloc.__file__}, not {SRC}")

IMPORT_S = time.perf_counter() - _START
SETUP_REPEATS = 3
END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "rmse": "side",
    "mean_tau": "1",
    "solved_frac": "1",
    "completed_frac": "1",
}


@dataclass
class Loop:
    """What one loop saw.  ``outputs`` keeps the first output of each input
    index; ``digests`` its hash, which every repeat must match."""

    elapsed: float = 0.0
    attempted: int = 0
    op_times: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ops_per_s(self):
        return len(self.op_times) / self.elapsed if self.elapsed else 0.0

    @property
    def failed(self):
        return self.attempted - len(self.op_times)


def step(workload, inputs, k, loop, tracer=None):
    """One timed op on input ``k``, checked into ``loop``."""
    loop.attempted += 1
    t0 = time.perf_counter()
    try:
        with tracer.op() if tracer else contextlib.nullcontext():
            out = workload.run(inputs[k])
    except Exception:  # an op that raises is counted and the run goes on
        if loop.failed == 1:
            traceback.print_exc()
        return
    loop.op_times.append(time.perf_counter() - t0)
    digest = hashlib.sha256(workload.output_bytes(out)).hexdigest()
    if k not in loop.digests:
        loop.outputs[k] = out
        loop.digests[k] = digest
        loop.problems += [f"input {k}: {p}" for p in workload.check(inputs[k], out)]
    elif digest != loop.digests[k]:
        loop.problems.append(f"input {k}: output changed on repeat")


def timed_loop(workload, inputs, seconds, min_ops):
    """Run ops, cycling through ``inputs``, until ``seconds`` have passed
    and at least ``min_ops`` were attempted."""
    loop = Loop()
    start = time.perf_counter()
    while loop.attempted < min_ops or time.perf_counter() - start < seconds:
        step(workload, inputs, loop.attempted % len(inputs), loop)
    loop.elapsed = time.perf_counter() - start
    return loop


def paired_loop(workload, inputs, seconds, tracer):
    """Run each input untraced and traced, back to back, so that both sides
    of the overhead ratio see the same machine state; which side goes first
    alternates.  Each side's rate is its ops over its own summed op time,
    and the traced outputs must match the untraced ones."""
    plain, traced = Loop(), Loop()

    def run_plain(k):
        step(workload, inputs, k, plain)

    def run_traced(k):
        with tracer.installed():
            step(workload, inputs, k, traced, tracer)

    pairs = 0
    start = time.perf_counter()
    while pairs < 1 or time.perf_counter() - start < seconds:
        k = pairs % len(inputs)
        for side in (run_plain, run_traced) if pairs % 2 == 0 else (run_traced, run_plain):
            side(k)
        pairs += 1
    for k in sorted(plain.digests.keys() & traced.digests.keys()):
        if plain.digests[k] != traced.digests[k]:
            traced.problems.append(f"input {k}: traced output differs from untraced")
    for loop in (plain, traced):
        loop.elapsed = sum(loop.op_times)
    return plain, traced


def end_to_end_metrics(workload, inputs, loop, setup_times):
    """The ``END_TO_END`` metrics of an untraced loop, and the problems
    found when its pooled accuracy leaves the workload's bands."""
    rows = np.vstack([workload.score(inputs[k], out) for k, out in sorted(loop.outputs.items())])
    rmse = float(np.sqrt(np.nanmean(rows[:, 0])))
    mean_tau = float(np.nanmean(rows[:, 1]))
    problems = []
    if not rmse <= workload.bands["rmse"]:
        problems.append(f"rmse {rmse} above {workload.bands['rmse']}")
    if not mean_tau >= workload.bands["mean_tau"]:
        problems.append(f"mean tau {mean_tau} below {workload.bands['mean_tau']}")
    values = {
        "ops_per_s": loop.ops_per_s,
        "op_ms_p50": statistics.median(loop.op_times) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": IMPORT_S + statistics.median(setup_times),
        "rmse": rmse,
        "mean_tau": mean_tau,
        "solved_frac": float(1.0 - rows[:, 2].mean()),
        "completed_frac": len(loop.op_times) / loop.attempted,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, problems


def trace_metrics(tracer, plain, traced):
    metrics = tracer.metrics()
    metrics["trace.untraced_ops_per_s"] = (plain.ops_per_s, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced.ops_per_s, "1/s")
    overhead = plain.ops_per_s / traced.ops_per_s - 1.0 if traced.op_times else 0.0
    metrics["trace.overhead_frac"] = (overhead, "1")
    return metrics


def percentile_tail(times):
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return None
    pct = 100.0 * (n - 10) / n
    return {"percentile": pct, "ms": float(np.percentile(times, pct)) * 1e3, "samples": n}


def platform_record():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result line, run record)."""
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    try:
        with warnings.catch_warnings():
            # the package warns on degenerate fits and sparse slices; the
            # benchmark scores outcomes instead of printing warnings
            warnings.simplefilter("ignore")
            setup_times = []
            for _ in range(SETUP_REPEATS):
                shutil.rmtree(workdir, ignore_errors=True)
                t0 = time.perf_counter()
                inputs = workload.setup(seed, workdir)
                setup_times.append(time.perf_counter() - t0)
            if trace:
                tracer = tracing.Tracer()
                plain, traced = paired_loop(workload, inputs, seconds, tracer)
                loops = [plain, traced]
            else:
                loops = [timed_loop(workload, inputs, seconds, len(inputs))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    first = loops[0]
    problems = [p for loop in loops for p in loop.problems]
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    if trace:
        metrics = trace_metrics(tracer, plain, traced)
    elif problems or not first.op_times:
        # outputs that failed a check may not parse, so nothing is scored
        metrics = {}
        problems.append("no op completed" if not first.op_times else "outputs not scored")
    else:
        metrics, band_problems = end_to_end_metrics(workload, inputs, first, setup_times)
        problems += band_problems
    digest = hashlib.sha256()
    for k in sorted(first.outputs):
        digest.update(workload.output_bytes(first.outputs[k]))
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": len(inputs),
        "ops_completed": [len(loop.op_times) for loop in loops],
        "op_ms_p50_samples": len(first.op_times),
        "op_ms_tail": percentile_tail(first.op_times),
        "import_s": IMPORT_S,
        "setup_runs_s": setup_times,
        "output_sha256": digest.hexdigest(),
        "output_inputs_hashed": len(first.outputs),
        "problems": problems[:20],
        **platform_record(),
    }
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, record


def run_all(args):
    """Each workload in its own process, one after another, so that peak
    memory stays per workload; prints one table."""
    ok = True
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]  # fmt: skip
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        results[name] = json.loads(lines[-1])
        ok &= proc.returncode == 0 and results[name]["correct"]
        print(f"{name}: correct={results[name]['correct']} attempted={results[name]['attempted']} "
              f"failed={results[name]['failed']}")  # fmt: skip
        for metric, m in results[name]["metrics"].items():
            print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    result, record = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
