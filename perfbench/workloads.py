"""The benchmark's workloads.

Each workload makes its inputs from a seed before timing starts and keeps
the ground truth back from the package.  One op runs the package on one
input.  Every call into the package goes through a module attribute
(``bench.run_trial``, ``pipeline.localize_from_tensor``, ...), so the
tracer in ``tracing.py`` sees it when it is installed.

A workload provides:

- ``setup(seed, workdir)``: make the inputs, run one warm-up op on a
  small input of the same kind, and return the inputs;
- ``run(inp)``: one op; raises on failure;
- ``output_bytes(out)``: the bytes hashed to compare outputs;
- ``check(inp, out)``: problems with one output, as strings;
- ``score(inp, out)``: one row per target solve: squared position error
  in field-side units, Kendall tau, and 1.0 if the solve was flagged;
- ``bands``: limits on the pooled rmse and mean tau that a correct
  program stays within on any seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ordinal_unloc import bench, cli, ordinal, pipeline
from ordinal_unloc.core import DistanceMatrix, SensorField
from ordinal_unloc.ingest import MeasurementRecord, write_measurement_file
from ordinal_unloc.unfold import SolverOptions

RESTARTS = 8


class OpFailed(Exception):
    """An op finished without a usable result."""


def distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def kendall_tau(u: np.ndarray, v: np.ndarray) -> float:
    """Tau-a; kept apart from ``bench.kendall_tau`` so the score does not
    depend on the code under test."""
    du = np.sign(u[:, None] - u[None, :])
    dv = np.sign(v[:, None] - v[None, :])
    n = u.size
    return float((du * dv).sum() / (n * (n - 1)))


def symmetric_exponents(rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-link path-loss exponents on [2, 6], one draw per unordered pair."""
    g = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    g[iu, ju] = g[ju, iu] = rng.uniform(2.0, 6.0, iu.size)
    return g


def _solve_rows(results, d_hat, targets, true_d, scale):
    """Score rows for one ``localize_from_tensor`` call; ``scale`` maps the
    solve's coordinates back to field-side units."""
    rows = []
    for j, res in enumerate(results):
        if res is None:
            rows.append((np.nan, np.nan, 1.0))
            continue
        err = float(((res.position / scale - targets[j]) ** 2).sum())
        tau = kendall_tau(d_hat.values[:, j], true_d[:, j])
        rows.append((err, tau, float(not res.converged)))
    return rows


class McOrdinal:
    """Fig. 3 Monte-Carlo trials: threshold-noise comparisons of true
    distances over anchors 5..20 and sigma 0..0.5, one target, on the unit
    square.  Comparison tensors are tiny (N <= 21), so unfold and funclearn
    dominate."""

    name = "mc-ordinal"
    bands = {"rmse": 0.3, "mean_tau": 0.6}

    def __init__(self, trials=300, anchor_counts=(5, 10, 15, 20), noise_grid=(0.0, 0.1, 0.3, 0.5)):
        self.trials = trials
        self.anchor_counts = anchor_counts
        self.noise_grid = noise_grid

    def setup(self, seed, workdir):
        config = bench.ExperimentConfig(
            kind="ordinal",
            anchor_counts=self.anchor_counts,
            noise_grid=self.noise_grid,
            n_targets=1,
            trials=self.trials,
            seed=seed,
            solver=SolverOptions(restarts=RESTARTS),
        )
        # the warm-up trial index lies outside the timed range
        self.run((config, self.trials))
        return [(config, t) for t in range(self.trials)]

    def run(self, inp):
        config, trial = inp
        return bench.run_trial(config, trial)

    def output_bytes(self, out):
        return out.sq_err.tobytes() + out.tau.tobytes() + out.flagged.tobytes()

    def check(self, inp, out):
        config, _ = inp
        shape = (len(config.grid()), 1)
        if not out.sq_err.shape == out.tau.shape == out.flagged.shape == shape:
            return [f"outcome arrays are not {shape}"]
        solved = ~np.isnan(out.sq_err)
        if not (np.all(out.sq_err[solved] >= 0) and np.all(np.abs(out.tau[solved]) <= 1)):
            return ["squared error negative or tau outside [-1, 1]"]
        return []

    def score(self, inp, out):
        return np.column_stack([out.sq_err.ravel(), out.tau.ravel(), out.flagged.ravel()])


@dataclass(frozen=True)
class Field:
    """One large-n input: a layout on the unit square, the exact distances
    for the threshold-noise path, and received powers for the same layout
    scaled to a room of side ``LargeN.room``."""

    anchors: np.ndarray
    targets: np.ndarray
    distances: np.ndarray
    power: np.ndarray
    noise_seed: int
    solver_seed: int


class LargeN:
    """One wide field per op, localized twice through
    ``localize_from_tensor``: from threshold-noise comparisons of true
    distances (sigma 0.1) and from RSS readings with per-link exponents on
    [2, 6] in a 10 m room, as in fig. 5.  Tensor building and rank
    aggregation are O(N^3) and dominate."""

    name = "large-n"
    bands = {"rmse": 0.25, "mean_tau": 0.5}
    sigma = 0.1
    room = 10.0

    def __init__(self, fields=8, n_anchors=380, n_targets=20):
        self.fields = fields
        self.n_anchors = n_anchors
        self.n_targets = n_targets

    def _field(self, seed_seq, m, n):
        rng = np.random.default_rng(seed_seq)
        points = rng.uniform(0.0, 1.0, (m + n, 2))
        d = distances(points)
        g = symmetric_exponents(rng, m + n)
        power = np.maximum(d * self.room, 1e-6) ** (-g)
        noise_seed, solver_seed = (int(s) for s in rng.integers(2**63, size=2))
        return Field(points[:m], points[m:], d, power, noise_seed, solver_seed)

    def setup(self, seed, workdir):
        warm_seq, *field_seqs = np.random.SeedSequence(seed).spawn(self.fields + 1)
        self.run(self._field(warm_seq, 30, 3))
        return [self._field(s, self.n_anchors, self.n_targets) for s in field_seqs]

    def run(self, f):
        m = f.anchors.shape[0]
        opts = SolverOptions(restarts=RESTARTS, seed=f.solver_seed)
        # each tensor is dropped before the next is built, as a caller
        # short of memory would do
        tensor = ordinal.tensor_from_distances(
            DistanceMatrix(f.distances, m),
            ordinal.ComparisonNoiseModel(self.sigma),
            np.random.default_rng(f.noise_seed),
        )
        threshold = pipeline.localize_from_tensor(tensor, f.anchors, opts)
        del tensor
        signals = ordinal.SignalMatrix(f.power, increasing_with_distance=False, n_anchors=m)
        signal = pipeline.localize_from_tensor(
            ordinal.tensor_from_signals(signals), f.anchors * self.room, opts
        )
        return threshold, signal

    def output_bytes(self, out):
        parts = []
        for results, d_hat in out:
            positions = [r.position if r is not None else np.full(2, np.nan) for r in results]
            parts += [np.array(positions).tobytes(), d_hat.values.tobytes()]
        return b"".join(parts)

    def check(self, f, out):
        problems = []
        for results, d_hat in out:
            shape = (len(f.anchors), len(f.targets))
            if len(results) != len(f.targets) or d_hat.values.shape != shape:
                problems.append("result count or estimate shape does not match the field")
            elif not all(r is None or np.all(np.isfinite(r.position)) for r in results):
                problems.append("non-finite position")
        return problems

    def score(self, f, out):
        m = f.anchors.shape[0]
        true_d = f.distances[:m, m:]
        (res_t, est_t), (res_s, est_s) = out
        rows = _solve_rows(res_t, est_t, f.targets, true_d, 1.0)
        rows += _solve_rows(res_s, est_s, f.targets, true_d, self.room)
        return np.array(rows)


@dataclass(frozen=True)
class Log:
    """One localize-file input: a measurement log on disk and the true
    layout it was generated from (room coordinates, anchors first)."""

    path: Path
    out_dir: Path
    points: np.ndarray
    n_anchors: int
    solver_seed: int


class LocalizeFile:
    """``cli.main(["localize", ...])`` in process on a generated RSSI log:
    per-link exponents on [2, 6] in a 10 m room, 1 dB read noise,
    ``reads`` reads per directed link, and ``--keep-fraction 0.2``, which
    leaves four samples per link.  Parsing the records dominates."""

    name = "localize-file"
    bands = {"rmse": 0.3, "mean_tau": 0.5}
    room = 10.0
    reads = 10
    noise_db = 1.0
    keep_fraction = 0.2

    def __init__(self, files=8, n_anchors=70, n_targets=30):
        self.files = files
        self.n_anchors = n_anchors
        self.n_targets = n_targets

    def _log(self, seed_seq, path, out_dir, m, n):
        rng = np.random.default_rng(seed_seq)
        points = rng.uniform(0.0, self.room, (m + n, 2))
        field = SensorField(2, points[:m], points[m:])
        ids = field.anchor_ids + field.target_ids
        g = symmetric_exponents(rng, m + n)
        mean_dbm = -40.0 - 10.0 * g * np.log10(np.maximum(distances(points), 1e-3))
        tx, rx = np.nonzero(~np.eye(m + n, dtype=bool))
        noise = self.noise_db * rng.standard_normal((tx.size, self.reads))
        rssi = mean_dbm[tx, rx][:, None] + noise
        records = []
        for i, j, row in zip(tx.tolist(), rx.tolist(), rssi.tolist()):
            for value in row:
                line = len(records)
                records.append(MeasurementRecord(ids[i], ids[j], float(line), value, line))
        path.parent.mkdir(parents=True, exist_ok=True)
        write_measurement_file(path, field, records)
        return Log(path, out_dir, points, m, int(rng.integers(2**31)))

    def setup(self, seed, workdir):
        warm_seq, *log_seqs = np.random.SeedSequence(seed).spawn(self.files + 1)
        out_dir = workdir / "out"
        self.run(self._log(warm_seq, workdir / "warm.csv", out_dir, 8, 2))
        return [
            self._log(s, workdir / f"log{k}.csv", out_dir, self.n_anchors, self.n_targets)
            for k, s in enumerate(log_seqs)
        ]

    def run(self, log):
        code = cli.main([
            "localize", str(log.path),
            "--keep-fraction", repr(self.keep_fraction),
            "--seed", str(log.solver_seed),
            "--restarts", str(RESTARTS),
            "--threads", "1",
            "--out", str(log.out_dir),
        ])  # fmt: skip
        if code != 0:
            raise OpFailed(f"localize exited with code {code}")
        return (log.out_dir / "positions.csv").read_bytes()

    def output_bytes(self, out):
        return out

    def _rows(self, out):
        lines = out.decode("utf-8").splitlines()
        if not lines or lines[0] != "target_id,sample,x,y":
            raise ValueError("positions.csv header is not target_id,sample,x,y")
        for line in lines[1:]:
            target_id, sample, x, y = line.split(",")
            yield target_id, sample, np.array([float(x), float(y)])

    def check(self, log, out):
        try:
            rows = list(self._rows(out))
        except ValueError as exc:
            return [f"positions.csv unreadable: {exc}"]
        expected = {f"t{j + 1}" for j in range(len(log.points) - log.n_anchors)}
        averaged = {t for t, sample, _ in rows if sample == "average"}
        problems = []
        if averaged != expected:
            problems.append("positions.csv lacks an average row for some target")
        if not all(np.all(np.isfinite(p)) for _, _, p in rows):
            problems.append("non-finite position in positions.csv")
        return problems

    def score(self, log, out):
        m = log.n_anchors
        anchors = log.points[:m]
        solves: dict[str, list[np.ndarray]] = {}
        for target_id, sample, position in self._rows(out):
            if sample != "average":
                solves.setdefault(target_id, []).append(position)
        per_target = max((len(v) for v in solves.values()), default=0)
        rows = []
        for j in range(len(log.points) - m):
            truth = log.points[m + j]
            found = solves.get(f"t{j + 1}", [])
            for p in found:
                # positions.csv holds no distance estimates, so tau compares
                # anchor distances from the estimated and the true position
                tau = kendall_tau(
                    np.linalg.norm(anchors - p, axis=1), np.linalg.norm(anchors - truth, axis=1)
                )
                rows.append((float((((p - truth) / self.room) ** 2).sum()), tau, 0.0))
            rows += [(np.nan, np.nan, 1.0)] * (per_target - len(found))
        return np.array(rows)


WORKLOADS = {w.name: w for w in (McOrdinal, LargeN, LocalizeFile)}
