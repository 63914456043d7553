"""Acceptance gate: the headline behaviors of the package, one criterion
per test, each ending in a single printed pass/fail line.

The heavy Monte-Carlo runs are shared via module-scoped fixtures; all
seeds are fixed so the suite is deterministic.
"""

import time
import warnings

import numpy as np
import pytest

from ordinal_unloc.bench import (
    ExperimentConfig,
    result_to_csv,
    run_benchmark,
)
from ordinal_unloc.cli import main
from ordinal_unloc.core import DistanceMatrix, SensorField
from ordinal_unloc.funclearn import DegenerateFitWarning
from ordinal_unloc.ingest import (
    MeasurementRecord,
    measurement_signal_matrix,
    measurement_signals,
    parse_measurements,
    select_strong_links,
    write_measurement_file,
)
from ordinal_unloc.ordinal import ComparisonNoiseModel, tensor_from_distances, tensor_from_signals
from ordinal_unloc.pipeline import localize_from_tensor
from ordinal_unloc.unfold import SolverOptions, unloc_localize
from reference_solvers import (
    enumerate_pairs,
    incidence_matrix,
    kendall_tau,
    ls_rank,
    ls_rank_pinv,
    unfolding_cost,
    unfolding_gradient,
)

MASTER_SEED = 20260823

# regression band for the sigma=0, m=20 RMSE floor, pinned from the first
# committed run of the fig3 configuration below (0.0427 +/- 0.0008)
FLOOR_LOW = 0.03
FLOOR_HIGH = 0.055


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _se2(a, b):
    return 2.0 * np.sqrt(a**2 + b**2)


@pytest.fixture(scope="module", autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateFitWarning)
        yield


@pytest.fixture(scope="module")
def fig3():
    cfg = ExperimentConfig(
        kind="ordinal",
        anchor_counts=(5, 10, 15, 20),
        noise_grid=(0.0, 0.1, 0.3, 0.5),
        trials=2000,
        seed=MASTER_SEED,
    )
    start = time.monotonic()
    result = run_benchmark(cfg)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def fig4():
    cfg = ExperimentConfig(
        kind="ordinal",
        anchor_counts=(10, 20),
        noise_grid=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
        trials=2000,
        seed=MASTER_SEED,
    )
    return run_benchmark(cfg)


@pytest.fixture(scope="module")
def fig5():
    cfg = ExperimentConfig(
        kind="rss",
        anchor_counts=(5, 10, 15, 20),
        noise_grid=(),
        trials=1000,
        seed=MASTER_SEED,
        field_side=10.0,
    )
    return run_benchmark(cfg)


@pytest.fixture(scope="module")
def fig6():
    grid = tuple(float(v) for v in np.logspace(-2, 2, 7))
    cfg = ExperimentConfig(
        kind="toa",
        anchor_counts=(20,),
        noise_grid=grid,
        trials=1000,
        seed=MASTER_SEED,
        field_side=200.0,
    )
    return run_benchmark(cfg), grid


def test_criterion_1_rmse_decreases_with_anchor_count(fig3):
    result, elapsed = fig3
    rmse = result.rmse[:, 0].reshape(4, 4)  # (m, sigma)
    se = result.rmse_se[:, 0].reshape(4, 4)
    adjacent_ok = bool(np.all(rmse[1:] < rmse[:-1] + _se2(se[1:], se[:-1])))
    endpoints_ok = bool(np.all(rmse[3] < rmse[0]))
    time_ok = elapsed < 300.0
    ok = adjacent_ok and endpoints_ok and time_ok
    _report(
        1,
        ok,
        f"RMSE decreasing in m at every sigma (adjacent within 2 SE: {adjacent_ok}, "
        f"m=20 < m=5 strictly: {endpoints_ok}), 2000 trials in {elapsed:.0f}s",
    )


def test_criterion_2_nonzero_noiseless_floor(fig3):
    result, _ = fig3
    rmse = result.rmse[:, 0].reshape(4, 4)
    floor = float(rmse[3, 0])
    ok = 0.0 < floor and floor < rmse[0, 0] and FLOOR_LOW < floor < FLOOR_HIGH
    _report(
        2,
        ok,
        f"sigma=0 floor at m=20 is {floor:.4f} (positive, below the m=5 value "
        f"{rmse[0, 0]:.4f}, inside the pinned band [{FLOOR_LOW}, {FLOOR_HIGH}])",
    )


def test_criterion_3_joint_noise_trend(fig4):
    rmse = fig4.rmse[:, 0].reshape(2, 6)
    se = fig4.rmse_se[:, 0].reshape(2, 6)
    tau = fig4.mean_tau[:, 0].reshape(2, 6)
    tse = fig4.tau_se[:, 0].reshape(2, 6)
    tau_ok = bool(np.all(tau[:, 1:] <= tau[:, :-1] + _se2(tse[:, 1:], tse[:, :-1])))
    rmse_ok = bool(np.all(rmse[:, 1:] >= rmse[:, :-1] - _se2(se[:, 1:], se[:, :-1])))
    anchors_ok = bool(np.all(rmse[1] <= rmse[0] + _se2(se[0], se[1])))
    ok = tau_ok and rmse_ok and anchors_ok
    _report(
        3,
        ok,
        f"tau non-increasing: {tau_ok}, RMSE non-decreasing: {rmse_ok}, "
        f"m=20 <= m=10 pointwise: {anchors_ok} (all within 2 SE)",
    )


def test_criterion_4_rss_method_ordering(fig5):
    methods = list(fig5.methods)
    ordinal = methods.index("ordinal_unloc")
    fixed = methods.index("unloc_fixed_g")
    genie = methods.index("unloc_genie")
    mse, se = fig5.mse, fig5.mse_se
    genie_ok = bool(
        np.all(mse[:, genie] <= mse[:, ordinal] + _se2(se[:, genie], se[:, ordinal]))
    )
    big_m = [g for g, (m, _) in enumerate(fig5.grid) if m >= 10]
    fixed_ok = bool(
        np.all(
            mse[big_m, ordinal]
            <= mse[big_m, fixed] + _se2(se[big_m, ordinal], se[big_m, fixed])
        )
    )
    ok = genie_ok and fixed_ok
    _report(
        4,
        ok,
        f"genie MSE <= ordinal at every m: {genie_ok}, "
        f"ordinal MSE <= fixed-G for m >= 10: {fixed_ok} (2 SE)",
    )


def test_criterion_5_toa_noise_sensitivity(fig6):
    result, grid = fig6
    unloc = list(result.methods).index("unloc")
    ordinal = list(result.methods).index("ordinal_unloc")
    log_noise = np.log(np.array(grid))
    slope_unloc = float(np.polyfit(log_noise, np.log(result.rmse[:, unloc]), 1)[0])
    slope_ordinal = float(np.polyfit(log_noise, np.log(result.rmse[:, ordinal]), 1)[0])
    ok = slope_unloc > slope_ordinal
    _report(
        5,
        ok,
        f"log-log RMSE slope vs normalized TOA variance: direct inversion "
        f"{slope_unloc:.3f} > ordinal {slope_ordinal:.3f}",
    )


def test_criterion_6_rank_aggregation_oracle():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        enum = enumerate_pairs(n)
        b = incidence_matrix(enum)
        z = rng.choice([-1.0, 0.0, 1.0], size=enum.n_pairs)
        worst = max(worst, float(np.abs(ls_rank(z, b) - ls_rank_pinv(z, b)).max()))
    gram_ok = True
    for n in range(2, 31):
        b = incidence_matrix(enumerate_pairs(n))
        gram_ok &= bool(np.allclose(b.T @ b, n * np.eye(n) - np.ones((n, n))))
    ok = worst < 1e-10 and gram_ok
    _report(
        6,
        ok,
        f"closed form vs pseudoinverse max deviation {worst:.2e} over 200 "
        f"instances (N <= 30); Gram identity holds: {gram_ok}",
    )


def test_criterion_7_solver_oracle():
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst_grad = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 12))
        anchors = rng.uniform(-2, 2, (m, 2))
        delta = rng.uniform(0, 5, m)
        x = rng.uniform(-2, 2, 2)
        g = unfolding_gradient(x, anchors, delta)
        eps = 1e-6
        for q in range(2):
            e = np.zeros(2)
            e[q] = eps
            fd = (
                unfolding_cost(x + e, anchors, delta)
                - unfolding_cost(x - e, anchors, delta)
            ) / (2 * eps)
            worst_grad = max(worst_grad, abs(g[q] - fd) / (1.0 + abs(fd)))
    worst_pos = 0.0
    for trial in range(50):
        while True:
            anchors = rng.uniform(0, 1, (int(rng.integers(3, 8)), 2))
            # reject nearly collinear layouts, they are genuinely ambiguous
            if np.linalg.matrix_rank(anchors - anchors.mean(axis=0), tol=1e-2) == 2:
                break
        x_true = rng.uniform(0, 1, 2)
        delta = ((x_true - anchors) ** 2).sum(axis=1)
        res = unloc_localize(anchors, delta)
        worst_pos = max(worst_pos, float(np.linalg.norm(res.position - x_true)))
    ok = worst_grad < 1e-5 and worst_pos < 1e-6
    _report(
        7,
        ok,
        f"gradient vs central differences worst relative error {worst_grad:.2e}; "
        f"zero-residual recovery worst position error {worst_pos:.2e}",
    )


def test_criterion_8_noiseless_end_to_end_tau():
    rng = np.random.default_rng(MASTER_SEED + 2)
    m = 20
    failures = 0
    for _ in range(200):
        anchors = rng.uniform(0, 1, (m, 2))
        target = rng.uniform(0, 1, (1, 2))
        pts = np.vstack([anchors, target])
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff**2).sum(axis=-1))
        np.fill_diagonal(d, 0.0)
        tensor = tensor_from_distances(DistanceMatrix(d, m), ComparisonNoiseModel(0.0))
        _, d_hat = localize_from_tensor(tensor, anchors, SolverOptions(seed=1))
        if np.unique(d[:m, m]).size < m:
            continue  # tied true distances carry no order information
        if kendall_tau(d_hat.values[:, 0], d[:m, m]) != 1.0:
            failures += 1
    ok = failures == 0
    _report(
        8,
        ok,
        f"noiseless sigma=0, m=20: perfect Kendall tau in all 200 trials "
        f"({failures} failures)",
    )


def _hardware_style_dataset(path, seed):
    """Synthetic RSSI log on a 4m x 5m rectangle: 4 corner anchors, one
    interior target, per-link exponent G ~ U[2, 6], repeated noisy reads."""
    rng = np.random.default_rng(seed)
    anchors = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 5.0], [0.0, 5.0]])
    target = np.array([1.2, 3.1])
    pts = np.vstack([anchors, target])
    field = SensorField(2, anchors, declared_targets=1)
    ids = field.anchor_ids + field.target_ids
    n = 5
    exponents = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    draws = rng.uniform(2.0, 6.0, iu.size)
    exponents[iu, ju] = draws
    exponents[ju, iu] = draws
    records = []
    line = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = float(np.linalg.norm(pts[i] - pts[j]))
            base = -10.0 * exponents[i, j] * np.log10(d)
            for _ in range(6):
                records.append(
                    MeasurementRecord(
                        ids[i], ids[j], float(line), base + 0.8 * rng.normal(), line
                    )
                )
                line += 1
    write_measurement_file(path, field, records)
    return target


def test_criterion_9_file_pipeline_consistency_and_averaging(tmp_path):
    meas = tmp_path / "meas.csv"
    target = _hardware_style_dataset(meas, seed=9)
    out = tmp_path / "out"
    code = main(
        [
            "localize", str(meas), "--keep-fraction", "1.0", "--out", str(out),
            "--seed", "17", "--restarts", "8", "--threads", "1",
        ]
    )
    rows = [
        line.split(",")
        for line in (out / "positions.csv").read_text().strip().split("\n")[1:]
    ]
    cli_samples = np.array(
        [[float(r[2]), float(r[3])] for r in rows if r[1] != "average"]
    )
    cli_average = np.array(
        [[float(r[2]), float(r[3])] for r in rows if r[1] == "average"][0]
    )

    ms = select_strong_links(parse_measurements(meas), 1.0)
    opts = SolverOptions(restarts=8, seed=17)
    estimates = []
    for k in range(1, len(measurement_signals(ms, "sample")[0]) + 1):
        sig = measurement_signal_matrix(ms, "sample", sample_index=k)
        (res,), _ = localize_from_tensor(tensor_from_signals(sig), ms.field.anchors, opts)
        estimates.append(res.position)
    estimates = np.array(estimates)

    cli_err = float(np.mean(np.linalg.norm(cli_samples - target, axis=1)))
    lib_err = float(np.mean(np.linalg.norm(estimates - target, axis=1)))
    consistency = abs(cli_err - lib_err)
    per_sample = np.linalg.norm(estimates - target, axis=1)
    avg_err = float(np.linalg.norm(estimates.mean(axis=0) - target))
    median_err = float(np.median(per_sample))
    avg_ok = avg_err <= median_err
    cli_avg_ok = bool(np.abs(cli_average - estimates.mean(axis=0)).max() <= 1e-9)
    ok = code == 0 and consistency <= 1e-9 and avg_ok and cli_avg_ok
    _report(
        9,
        ok,
        f"CLI vs in-process mean error differ by {consistency:.1e} (<= 1e-9); "
        f"averaged-estimate error {avg_err:.3f} m <= median per-sample "
        f"{median_err:.3f} m",
    )


def test_criterion_10_byte_identical_reruns():
    cfg = ExperimentConfig(
        kind="ordinal",
        anchor_counts=(5, 10),
        noise_grid=(0.1, 0.3),
        trials=50,
        seed=MASTER_SEED,
    )
    serial = result_to_csv(run_benchmark(cfg, threads=1))
    rerun = result_to_csv(run_benchmark(cfg, threads=1))
    threaded = result_to_csv(run_benchmark(cfg, threads=2))
    ok = serial == rerun == threaded
    _report(
        10,
        ok,
        "benchmark CSV byte-identical across reruns and for 1 vs 2 workers",
    )
