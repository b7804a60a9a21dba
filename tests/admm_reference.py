"""Reference ADMM iteration: one array per edge endpoint.

The loop ``solver.solve_admm`` ran before it moved to stacked ``(2, m)``
endpoint arrays. It updates ``z_i``/``z_j`` and ``u_i``/``u_j`` with separate
calls, gathers ``x[idx_i]`` and ``x[idx_j]`` at every use, takes every norm
as two separate sums, and recomputes each trace row with ``objective``. The
stacked loop does the same arithmetic in the same order, so the two must
agree bit for bit.
"""

import warnings

import numpy as np

from netlasso.errors import DimensionMismatchError
from netlasso.graphs import Graph, Observations, as_signal, is_connected, tv
from netlasso.solver import SolverConfig, SolverResult, empirical_error, objective


def _shrink(v: np.ndarray, t) -> np.ndarray:
    """Soft threshold sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def reference_solve_admm(g: Graph, obs: Observations, cfg: SolverConfig) -> SolverResult:
    if obs.nodes[-1] >= g.node_count:
        raise DimensionMismatchError("observed node outside the graph")
    if not is_connected(g):
        warnings.warn("graph is disconnected; unsampled components are unconstrained")

    n = g.node_count
    m = g.edge_count
    idx_i, idx_j = g.endpoint_arrays()
    w = g.weights
    rho = cfg.rho
    lam = cfg.lam

    sampled = np.zeros(n, dtype=bool)
    sampled[list(obs.nodes)] = True
    y_full = np.zeros(n)
    y_full[list(obs.nodes)] = obs.y

    deg = np.bincount(idx_i, minlength=n) + np.bincount(idx_j, minlength=n)
    isolated = deg == 0
    safe_deg = np.where(isolated, 1, deg).astype(np.float64)
    # Sampled isolated nodes sit at their label; unsampled isolated at 0.
    isolated_value = np.where(sampled, y_full, 0.0)

    x = np.zeros(n)
    z_i = np.zeros(m)
    z_j = np.zeros(m)
    u_i = np.zeros(m)
    u_j = np.zeros(m)

    sqrt_dim = np.sqrt(2.0 * m)
    shrink_t = 1.0 / (rho * safe_deg)
    theta_cap = lam * w / rho
    trace: list[dict] = []

    iterations = 0
    converged = False
    r_norm = 0.0
    s_norm = 0.0
    for iterations in range(1, cfg.max_iters + 1):
        sums = np.bincount(idx_i, weights=z_i - u_i, minlength=n) + np.bincount(
            idx_j, weights=z_j - u_j, minlength=n
        )
        c = sums / safe_deg
        x = np.where(sampled, y_full + _shrink(c - y_full, shrink_t), c)
        if isolated.any():
            x = np.where(isolated, isolated_value, x)

        p = x[idx_i] + u_i
        q = x[idx_j] + u_j
        delta = p - q
        theta = np.minimum(theta_cap, np.abs(delta) / 2.0)
        step = theta * np.sign(delta)
        z_i_new = p - step
        z_j_new = q + step

        r_norm = float(
            np.sqrt(np.sum((x[idx_i] - z_i_new) ** 2) + np.sum((x[idx_j] - z_j_new) ** 2))
        )
        s_norm = rho * float(
            np.sqrt(np.sum((z_i_new - z_i) ** 2) + np.sum((z_j_new - z_j) ** 2))
        )
        z_i, z_j = z_i_new, z_j_new
        u_i = u_i + (x[idx_i] - z_i)
        u_j = u_j + (x[idx_j] - z_j)

        ax_norm = float(np.sqrt(np.sum(x[idx_i] ** 2) + np.sum(x[idx_j] ** 2)))
        z_norm = float(np.sqrt(np.sum(z_i**2) + np.sum(z_j**2)))
        u_norm = float(np.sqrt(np.sum(u_i**2) + np.sum(u_j**2)))
        eps_pri = sqrt_dim * cfg.eps_abs + cfg.eps_rel * max(ax_norm, z_norm)
        eps_dual = sqrt_dim * cfg.eps_abs + cfg.eps_rel * rho * u_norm

        if cfg.record_trace:
            trace.append(
                {
                    "iteration": iterations,
                    "primal_residual": r_norm,
                    "dual_residual": s_norm,
                    "eps_pri": eps_pri,
                    "eps_dual": eps_dual,
                    "objective": objective(g, x, obs, lam),
                }
            )

        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break

    x_hat = as_signal(g, x)
    emp = empirical_error(x_hat, obs)
    tv_term = tv(g, x_hat)
    return SolverResult(
        x_hat=x_hat,
        objective=emp + lam * tv_term,
        empirical_error=emp,
        tv_term=tv_term,
        lam=lam,
        iterations=iterations,
        converged=converged,
        primal_residual=r_norm,
        dual_residual=s_norm,
        config=cfg,
        trace=tuple(trace),
    )
