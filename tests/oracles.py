"""
Reference implementations the tests check the package against. Nothing
in the package runs them: each one computes what the package computes,
but plainly, from the defining formula.
"""

import math

import numpy as np

from driftfield.flowfield import Vec2
from driftfield.gp import DEFAULT_TARGET_NOISE_VAR
from driftfield.kernels import HyperParams, build_block_matrix


def eval_scalar_kernel(hp: HyperParams, p: Vec2, q: Vec2) -> float:
    """
    Squared-exponential streamfunction covariance g(p - q), in m^4/s^2,
    with the streamfunction variance sigma_phi^2 = sigma_w^2 l^2.
    """
    dx = p.x - q.x
    dy = p.y - q.y
    l2 = hp.lengthscale**2
    return hp.current_variance * l2 * math.exp(-(dx * dx + dy * dy) / (2.0 * l2))


def divergence_fd(f, p: Vec2, h: float) -> float:
    """
    Central-difference divergence of a vector field at p.

    `f` is any callable Vec2 -> Vec2; `h` is the step in metres. Returns
    (f_x(p+h*ex) - f_x(p-h*ex) + f_y(p+h*ey) - f_y(p-h*ey)) / (2h), in 1/s.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    fx_p = f(Vec2(p.x + h, p.y)).x
    fx_m = f(Vec2(p.x - h, p.y)).x
    fy_p = f(Vec2(p.x, p.y + h)).y
    fy_m = f(Vec2(p.x, p.y - h)).y
    return (fx_p - fx_m + fy_p - fy_m) / (2.0 * h)


def monomial_exponents(order: int):
    """
    The exponents (a, b) of the F = (K+1)(K+2)/2 monomials x^a y^b, a + b
    <= K = `order`, in the order of `kernels._series_rows`' rows: by
    degree a + b, and within a degree by falling a.
    """
    return [(d - j, j) for d in range(order + 1) for j in range(d + 1)]


def series_rows(x, y, order: int) -> np.ndarray:
    """
    `kernels._series_rows` from its defining formula: the (F, n) array
    whose row k at point i is w_i x_i^a y_i^b / sqrt(a! b!) for the k-th
    (a, b) of `monomial_exponents`, with w_i = e^(-(x_i^2 + y_i^2) / 2),
    each entry computed with `math` on Python floats.
    """
    exponents = monomial_exponents(order)
    rows = np.empty((len(exponents), len(x)))
    for i, (xi, yi) in enumerate(zip(np.asarray(x).tolist(), np.asarray(y).tolist())):
        w = math.exp(-0.5 * (xi * xi + yi * yi))
        for k, (a, b) in enumerate(exponents):
            rows[k, i] = w * xi**a * yi**b / math.sqrt(math.factorial(a) * math.factorial(b))
    return rows


def cumprod_series_rows(x, y, order: int) -> np.ndarray:
    """
    `kernels._series_rows` as an earlier version computed it: the power
    tables x^k / sqrt(k!) and w y^k / sqrt(k!) as cumulative products down
    a stacked array, then each row as one table row of each multiplied.
    The package's in-place row products round exactly as these do.
    """
    a, b = np.array(monomial_exponents(order)).T
    scale = np.sqrt(np.arange(1.0, order + 1))[:, None]
    xs = np.cumprod(np.vstack([np.ones_like(x), x / scale]), axis=0)
    ys = np.cumprod(np.vstack([np.exp(-0.5 * (x * x + y * y)), y / scale]), axis=0)
    return xs[a] * ys[b]


def dense_inverse_factor(model) -> np.ndarray:
    """
    A `GpModel`'s inverse factor R = L^-1 as one dense (2N, 2N) array,
    assembled from its row blocks R[i:j, :j] after checking that they
    tile the rows in order.
    """
    n = 2 * model.num_targets
    r = np.zeros((n, n))
    i = 0
    for block in model._blocks:
        rows, j = block.shape
        assert j - rows == i, f"a block of rows [{j - rows}, {j}) follows row {i}"
        r[i:j, :j] = block
        i = j
    assert i == n, f"the blocks end at row {i} of {n}"
    return r


def dense_m_step(hp, kind, pos, cur, trajectory, drift, dt):
    """
    `estimator.m_step` from dense linear algebra: the Kalman update of the
    currents at the trajectory's left endpoints on the drift, over their
    full (2n, 2n) predictive covariance under a GP with targets `pos` and
    currents `cur`, factored afresh by one dense Cholesky. Returns (W, S).
    """
    x = trajectory[:-1]
    gram = build_block_matrix(hp, kind, pos, pos) + DEFAULT_TARGET_NOISE_VAR * np.eye(2 * len(pos))
    chol = np.linalg.cholesky(gram)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, cur.reshape(-1)))
    c = dt * np.tile(np.eye(2), len(x))  # drift = C W
    k_dq = build_block_matrix(hp, kind, pos, x)
    v = np.linalg.solve(chol, k_dq)
    mu = k_dq.T @ alpha
    sigma = build_block_matrix(hp, kind, x, x) - v.T @ v
    s = c @ sigma @ c.T + hp.gps_noise_std**2 * np.eye(2)
    w = mu + sigma @ c.T @ np.linalg.solve(s, drift.as_array() - c @ mu)
    return w.reshape(-1, 2), s


def dense_process_mission(log, hp, kind, cfg):
    """
    `estimator.process_mission` from dense linear algebra, for missions
    where no cycle fails. Each EM iteration runs `dense_m_step` against the
    targets so far, and each cycle thins its converged currents with the
    plain greedy double loop. Returns (target positions, target currents,
    [(trajectory, currents) per cycle]).
    """
    pos, cur = np.empty((0, 2)), np.empty((0, 2))
    spacing = cfg.spacing_for(hp)
    states = []
    for cycle in log.cycles:
        dr, dt, n = cycle.dead_reckoned, cycle.dt, cycle.num_steps
        x = dr.copy()
        for _ in range(cfg.max_iters):
            w, _ = dense_m_step(hp, kind, pos, cur, x, cycle.drift, dt)
            x_new = dr + dt * np.vstack([np.zeros((1, 2)), np.cumsum(w, axis=0)])
            delta = np.linalg.norm(x_new - x, axis=1).max()
            x = x_new
            if delta < cfg.convergence_tol:
                break
        states.append((x, w))
        kept = []
        for i in range(n):
            if all(math.dist(x[i], x[j]) >= spacing for j in kept):
                kept.append(i)
        pos, cur = np.vstack([pos, x[kept]]), np.vstack([cur, w[kept]])
    return pos, cur, states
