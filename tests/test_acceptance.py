"""
End-to-end acceptance checks.

Each test prints one PASS/FAIL line with its measured numbers and
enforces its runtime budget; run with `pytest tests/test_acceptance.py -s`
to watch the lines as they go by.
"""

import time

import numpy as np

from driftfield.flowfield import (
    AnalyticField,
    Grid,
    Vec2,
    divergence_fd,
    eval_field_many,
    random_gyre,
)
from driftfield.gp import GpModel
from driftfield.kernels import HyperParams, KernelKind, build_block_matrix, eval_kernel, eval_scalar_kernel
from driftfield.simulator import VehicleConfig, ingest_cycles, run_mission, write_cycles
from driftfield.estimator import EmConfig, m_step, process_mission
from driftfield.harness import RunConfig, emit_report, monte_carlo

HP = HyperParams(lengthscale=35000.0, current_variance=0.5, gps_noise_std=3.0)

# Frozen convergence-study configuration. The grid hugs the mission area
# (1 km pad around the waypoint tour): the estimator is only informed
# within a lengthscale of the track, and the study measures convergence
# where the survey actually took place. Thresholds were calibrated on a
# pilot of this exact config (observed drop 75%, final medians 0.21
# against 0.33) and hold with wide margin.
TOUR = (
    Vec2(5000.0, 0.0), Vec2(10000.0, 5000.0), Vec2(5000.0, 10000.0),
    Vec2(10000.0, 15000.0), Vec2(5000.0, 20000.0), Vec2(0.0, 15000.0),
    Vec2(5000.0, 10000.0), Vec2(0.0, 5000.0),
)
STUDY = RunConfig(
    hp=HP,
    vehicle=VehicleConfig(waypoints=TOUR, gps_noise_std=3.0),
    em=EmConfig(),
    grid=Grid(Vec2(-1000.0, -1000.0), 22000.0 / 19.0, 20, 20),
    trials=20,
    base_seed=1000,
)


def _report(num: int, slug: str, ok: bool, detail: str, elapsed: float, budget: float):
    in_budget = elapsed < budget
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    print(f"criterion {num} {slug}: {verdict} ({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {num} {slug}: {detail}"
    assert in_budget, f"criterion {num} {slug}: {elapsed:.2f}s exceeded {budget:.0f}s"


def test_1_kernel_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    h = 1e-4 * HP.lengthscale
    origin = Vec2(0.0, 0.0)

    def g(dx, dy):
        return eval_scalar_kernel(HP, Vec2(dx, dy), origin)

    worst = 0.0
    for _ in range(100):
        dx, dy = rng.uniform(-3.0 * HP.lengthscale, 3.0 * HP.lengthscale, size=2)
        k = eval_kernel(HP, KernelKind.INCOMPRESSIBLE, Vec2(dx, dy), origin)
        fd11 = -(g(dx, dy + h) - 2 * g(dx, dy) + g(dx, dy - h)) / h**2
        fd22 = -(g(dx + h, dy) - 2 * g(dx, dy) + g(dx - h, dy)) / h**2
        fd12 = (g(dx + h, dy + h) - g(dx + h, dy - h) - g(dx - h, dy + h) + g(dx - h, dy - h)) / (4 * h**2)
        fd = np.array([[fd11, fd12], [fd12, fd22]])
        worst = max(worst, np.abs(k - fd).max() / HP.current_variance)
    zero_lag = eval_kernel(HP, KernelKind.INCOMPRESSIBLE, Vec2(5.0, -9.0), Vec2(5.0, -9.0))
    exact = (
        zero_lag[0, 0] == HP.current_variance
        and zero_lag[1, 1] == HP.current_variance
        and zero_lag[0, 1] == 0.0
        and zero_lag[1, 0] == 0.0
    )
    _report(
        1, "kernel-fd-consistency",
        worst <= 1e-5 and exact,
        f"worst rel err {worst:.2e}, zero-lag exact {exact}",
        time.perf_counter() - t0, 1.0,
    )


def test_2_gram_matrices_psd():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    worst = np.inf
    for _ in range(20):
        pts = rng.uniform(-4.0 * HP.lengthscale, 4.0 * HP.lengthscale, size=(40, 2))
        gram = build_block_matrix(HP, KernelKind.INCOMPRESSIBLE, pts, pts)
        worst = min(worst, np.linalg.eigvalsh(gram).min())
    _report(
        2, "gram-psd",
        worst >= -1e-8 * HP.current_variance,
        f"min eigenvalue {worst:.2e}",
        time.perf_counter() - t0, 5.0,
    )


def test_3_gp_matches_dense_solve():
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(1, 21))
        pts = rng.uniform(-3.0 * HP.lengthscale, 3.0 * HP.lengthscale, size=(n, 2))
        ys = rng.normal(0.0, 0.5, size=(n, 2))
        query = rng.uniform(-3.0 * HP.lengthscale, 3.0 * HP.lengthscale, size=(m, 2))
        model = GpModel(HP, KernelKind.INCOMPRESSIBLE, pts, ys)
        pred = model.predict(query)

        k_dd = build_block_matrix(HP, model.kind, pts, pts)
        k_dd += model.target_noise_var * np.eye(2 * n)
        k_dq = build_block_matrix(HP, model.kind, pts, query)
        k_qq = build_block_matrix(HP, model.kind, query, query)
        inv = np.linalg.inv(k_dd)
        mean_o = (k_dq.T @ inv @ ys.reshape(-1)).reshape(-1, 2)
        cov_o = k_qq - k_dq.T @ inv @ k_dq

        rel_mean = np.linalg.norm(pred.mean - mean_o) / max(np.linalg.norm(mean_o), 1e-3)
        rel_cov = np.linalg.norm(pred.covariance - cov_o) / max(np.linalg.norm(cov_o), 1e-3)
        worst = max(worst, rel_mean, rel_cov)
    _report(
        3, "gp-dense-oracle",
        worst <= 1e-8,
        f"worst rel diff {worst:.2e} over 50 problems",
        time.perf_counter() - t0, 10.0,
    )


def test_4_posterior_mean_divergence_free():
    t0 = time.perf_counter()
    fld = random_gyre(41)
    rng = np.random.default_rng(400)
    pts = rng.uniform(-3e4, 3e4, size=(30, 2))
    model = GpModel(HP, KernelKind.INCOMPRESSIBLE, pts, eval_field_many(fld, pts))
    grid = Grid(Vec2(-3e4, -3e4), 6e4 / 14.0, 15, 15)
    speeds = np.linalg.norm(model.predict_mean(grid.points()), axis=1)
    h = HP.lengthscale / 100.0

    def est(p: Vec2) -> Vec2:
        return Vec2(*model.predict_mean([[p.x, p.y]])[0])

    worst = max(abs(divergence_fd(est, Vec2(x, y), h)) for x, y in grid.points())
    bound = 1e-3 * speeds.max() / HP.lengthscale
    _report(
        4, "divergence-free-posterior",
        worst <= bound,
        f"worst |div| {worst:.2e} vs bound {bound:.2e}",
        time.perf_counter() - t0, 5.0,
    )


def test_5_single_step_average_current():
    t0 = time.perf_counter()
    hp = HyperParams(35000.0, 0.5, 1e-6)
    drift = Vec2(30.0, -12.0)
    dt = 60.0
    w, _ = m_step(GpModel(hp), [Vec2(0.0, 0.0), Vec2(21.0, 0.0)], drift, dt)
    target = drift.as_array() / dt
    dev = np.abs(w[0] - target).max()
    _report(
        5, "average-current-recovery",
        dev <= 1e-6,
        f"max deviation {dev:.2e} m/s from drift/dt",
        time.perf_counter() - t0, 1.0,
    )


def test_6_em_drift_consistency_over_20_cycles():
    t0 = time.perf_counter()
    legs = []
    for i in range(20):
        x = 5000.0 if i % 2 == 0 else 0.0
        legs.append(Vec2(x, 2500.0 * (i + 1)))
    cfg = VehicleConfig(waypoints=tuple(legs), gps_noise_std=3.0)
    log = run_mission(cfg, random_gyre(61), seed=600)
    _, states = process_mission(log, HP, KernelKind.INCOMPRESSIBLE, EmConfig())
    bound = 3.0 * HP.gps_noise_std + 1.0
    worst = 0.0
    for cycle, state in zip(log.cycles, states):
        assert state.error is None
        w = state.currents
        resid = np.linalg.norm(cycle.dt * w.sum(axis=0) - cycle.drift.as_array())
        worst = max(worst, resid)
    _report(
        6, "em-drift-consistency",
        worst <= bound and len(states) == 20,
        f"worst residual {worst:.3f} m vs bound {bound:.1f} m over {len(states)} cycles",
        time.perf_counter() - t0, 30.0,
    )


def test_7_convergence_study():
    t0 = time.perf_counter()
    report = monte_carlo(STUDY, workers=1)
    s = report.summary()
    inc = np.array(s["incompressible"]["median"])
    std = np.array(s["standard_diagonal"]["median"])
    drop = (inc[0] - inc[-1]) / inc[0]
    ordering = inc[-1] <= std[-1]
    worst_uptick = max(
        (inc[k + 1] / inc[k] for k in range(len(inc) - 1) if inc[k + 1] > inc[k]),
        default=1.0,
    )
    ok = (
        len(report.kept_trial_indices) == STUDY.trials
        and drop >= 0.30
        and ordering
        and worst_uptick <= 1.10
    )
    _report(
        7, "convergence-study",
        ok,
        f"drop {drop:.1%} (floor 30%), final medians inc {inc[-1]:.3f} <= std {std[-1]:.3f}, "
        f"worst uptick x{worst_uptick:.3f}",
        time.perf_counter() - t0, 600.0,
    )


def test_8_convergence_csv_byte_identical(tmp_path):
    t0 = time.perf_counter()
    cfg = RunConfig(
        hp=HP,
        vehicle=VehicleConfig(waypoints=TOUR[:4], gps_noise_std=3.0),
        em=EmConfig(),
        grid=STUDY.grid,
        trials=5,
        base_seed=800,
    )
    emit_report(monte_carlo(cfg), tmp_path / "a")
    emit_report(monte_carlo(cfg), tmp_path / "b")
    same = (tmp_path / "a" / "convergence.csv").read_bytes() == (
        tmp_path / "b" / "convergence.csv"
    ).read_bytes()
    _report(
        8, "report-determinism",
        same,
        "convergence.csv byte-identical across two runs",
        time.perf_counter() - t0, 600.0,
    )


def test_9_ingestion_round_trip(tmp_path):
    t0 = time.perf_counter()
    cfg = VehicleConfig(waypoints=TOUR[:4], gps_noise_std=3.0)
    log = run_mission(cfg, random_gyre(91), seed=900)
    path = tmp_path / "cycles.jsonl"
    write_cycles(log, path)
    ingested = ingest_cycles(path)

    model_mem, states_mem = process_mission(log, HP, KernelKind.INCOMPRESSIBLE, EmConfig())
    model_ing, states_ing = process_mission(ingested, HP, KernelKind.INCOMPRESSIBLE, EmConfig())

    worst = 0.0
    for sm, si in zip(states_mem, states_ing):
        wm = sm.currents
        wi = si.currents
        worst = max(worst, np.linalg.norm(wm - wi) / max(np.linalg.norm(wm), 1e-12))
    probes = np.array([[2000.0, 1000.0], [8000.0, 4000.0], [5000.0, 12000.0]])
    pm = model_mem.predict_mean(probes)
    pi = model_ing.predict_mean(probes)
    worst = max(worst, np.linalg.norm(pm - pi) / max(np.linalg.norm(pm), 1e-12))
    _report(
        9, "ingestion-round-trip",
        worst <= 1e-10,
        f"worst rel diff {worst:.2e}",
        time.perf_counter() - t0, 30.0,
    )
