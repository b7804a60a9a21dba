"""Independent references the benchmark checks netlasso's outputs against.

Nothing here imports netlasso: the l1/TV optimum comes from a linear
program solved by HiGHS, objectives are recomputed from raw arrays, and the
generator's connectivity contract is re-checked with scipy.sparse.csgraph.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import connected_components

# Acceptance criterion 3 of the test suite: ADMM is within this relative
# distance of the exact optimum, measured as gap <= REL_TOL * (1 + opt).
REL_TOL = 1e-4


def l1tv_objective(edges, weights, nodes, y, lam, x) -> float:
    """sum_{i in M} |x_i - y_i| + lam * sum_e W_e |x_i - x_j|, from raw arrays."""
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    x = np.asarray(x, dtype=np.float64)
    fit = np.abs(x[np.asarray(nodes, dtype=np.intp)] - np.asarray(y, dtype=np.float64)).sum()
    tv = (np.asarray(weights, dtype=np.float64) * np.abs(x[edges[:, 0]] - x[edges[:, 1]])).sum()
    return float(fit + lam * tv)


def l1tv_lp_optimum(node_count, edges, weights, nodes, y, lam) -> float:
    """Exact optimum of the l1/TV problem as a linear program.

    Variables are x (free, one per node), t >= |x_i - y_i| per sample and
    s >= |x_i - x_j| per edge; the objective is sum t + lam * sum W s.
    """
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    nodes = np.asarray(nodes, dtype=np.intp)
    y = np.asarray(y, dtype=np.float64)
    n, m, e = int(node_count), len(nodes), len(edges)
    t_col = n + np.arange(m)
    s_col = n + m + np.arange(e)
    rows_m = np.arange(m)
    rows_e = np.arange(e)
    # +-(x_i - y_i) - t_i <= -+y_i, then +-(x_i - x_j) - s_e <= 0
    r = np.concatenate([rows_m, rows_m, m + rows_m, m + rows_m,
                        2 * m + rows_e, 2 * m + rows_e, 2 * m + rows_e,
                        2 * m + e + rows_e, 2 * m + e + rows_e, 2 * m + e + rows_e])
    c = np.concatenate([nodes, t_col, nodes, t_col,
                        edges[:, 0], edges[:, 1], s_col,
                        edges[:, 0], edges[:, 1], s_col])
    v = np.concatenate([np.ones(m), -np.ones(m), -np.ones(m), -np.ones(m),
                        np.ones(e), -np.ones(e), -np.ones(e),
                        -np.ones(e), np.ones(e), -np.ones(e)])
    a_ub = sp.csr_matrix((v, (r, c)), shape=(2 * m + 2 * e, n + m + e))
    b_ub = np.concatenate([y, -y, np.zeros(2 * e)])
    cost = np.concatenate([np.zeros(n), np.ones(m), lam * np.asarray(weights, dtype=np.float64)])
    bounds = [(None, None)] * n + [(0, None)] * (m + e)
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP did not solve: {res.message}")
    return float(res.fun)


def optimality_gap(objective: float, optimum: float) -> float:
    """Relative gap (objective - optimum) / (1 + optimum); REL_TOL bounds it."""
    return (objective - optimum) / (1.0 + abs(optimum))


def connectivity_violations(node_count, edges, clusters) -> list[str]:
    """Generator contract: the graph and every cluster are connected."""
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    ones = np.ones(len(edges))
    adj = sp.csr_matrix((ones, (edges[:, 0], edges[:, 1])), shape=(node_count, node_count))
    problems = []
    if connected_components(adj, directed=False, return_labels=False) != 1:
        problems.append("graph is disconnected")
    for k, members in enumerate(clusters):
        idx = np.asarray(sorted(members), dtype=np.intp)
        if connected_components(adj[idx][:, idx], directed=False, return_labels=False) != 1:
            problems.append(f"cluster {k} is disconnected")
    return problems
