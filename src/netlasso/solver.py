"""Solvers for TV-regularized l1 regression on graphs: an exact solver by
parametric min cut, the paper's ADMM, and an enumeration oracle for tiny
instances.

The problem: minimize over signals x

    sum_{i in M} |x[i] - y_i|  +  lam * sum_{{i,j} in E} W_ij |x[i] - x[j]|

``solve_exact`` returns an exact minimizer (see its docstring). ADMM
splitting: every edge {i,j} gets copies z_ij (of x_i) and z_ji (of x_j) with
scaled duals, giving closed-form node and edge updates. The copies and duals
are stacked ``(2, m)`` arrays, row 0 for the i ends and row 1 for the j ends,
so each update is one numpy call over both ends: x is gathered at the edge
ends once per iteration, and the five norms of the stopping rule come from
one row-wise sum of squares. A row sum over a contiguous last axis is the
same pairwise sum as ``np.sum`` of that row alone, and the two rows are
added as two separate sums would be, so the iterates do not depend on the
layout. All updates are vectorized over fixed arrays, so identical inputs
produce bit-identical iterates.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InstanceTooLargeError,
    InvalidConfigError,
)
from .flow import _Dinic, _scaled_distinct
from .graphs import Graph, Observations, as_signal, is_connected, tv

ORACLE_MAX_NODES = 8
ORACLE_MAX_SAMPLES = 4


def empirical_error(x, obs: Observations) -> float:
    """l1 deviation from the observed labels on the sampling set."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(np.abs(x[list(obs.nodes)] - obs.y)))


def objective(g: Graph, x, obs: Observations, lam: float) -> float:
    """Empirical error plus lam times total variation."""
    return empirical_error(x, obs) + lam * tv(g, x)


@dataclass(frozen=True)
class SolverConfig:
    """ADMM parameters; defaults are deliberately conservative."""

    lam: float
    rho: float = 1.0
    eps_abs: float = 1e-6
    eps_rel: float = 1e-5
    max_iters: int = 100_000
    record_trace: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise InvalidConfigError("lam must be finite and >= 0")
        if not (np.isfinite(self.rho) and self.rho > 0.0):
            raise InvalidConfigError("rho must be finite and positive")
        if not all(np.isfinite(t) and t > 0.0 for t in (self.eps_abs, self.eps_rel)):
            raise InvalidConfigError("tolerances must be finite and positive")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)):
            raise InvalidConfigError("max_iters must be an integer")
        if self.max_iters < 1:
            raise InvalidConfigError("max_iters must be at least 1")


@dataclass(frozen=True)
class SolverResult:
    x_hat: np.ndarray
    objective: float
    empirical_error: float
    tv_term: float
    lam: float
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    config: SolverConfig
    trace: tuple[dict, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class ExactResult:
    """Minimizer from ``solve_exact``, with the max flows it took (``cuts``),
    the distinct observed labels it chose from (``levels``) and the blocking
    flows its max flows ran (``phases``)."""

    x_hat: np.ndarray
    objective: float
    empirical_error: float
    tv_term: float
    lam: float
    cuts: int
    levels: int
    phases: int

    def to_json_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "x_hat"}


def solve_exact(g: Graph, obs: Observations, lam: float) -> ExactResult:
    """Exact minimizer by threshold decomposition and divide-and-conquer min cut.

    Some minimizer takes observed label values only. Between two consecutive
    labels, the set {x > t} of a minimizer is a minimum s-t cut (source side
    above t): a sample pays 1 on the wrong side of its label, an edge pays
    lam * W_e when it crosses. The minimal cuts are nested as t grows, so the
    nodes split at the median threshold and each side recurses on its half
    of the labels, with neighbours already placed above or below acting as
    terminal arcs (Hochbaum 2001; Chambolle & Darbon 2009). Each cut is one
    exact integer max flow whose source side is what the residual graph
    reaches from the source, the minimal minimum cut, so the result is the
    componentwise smallest minimizer. Nodes that no sample constrains, such
    as those of a component without a sample, take the smallest label.
    """
    if not (np.isfinite(lam) and lam >= 0.0):
        raise InvalidConfigError("lam must be finite and >= 0")
    with np.errstate(over="ignore"):
        pair_caps = lam * g.weights
    if not np.isfinite(pair_caps).all():
        k = int(np.argmin(np.isfinite(pair_caps)))
        raise InvalidConfigError(f"lam * W is not finite on edge {g.pairs([k])[0]}")
    if obs.nodes[-1] >= g.node_count:
        raise DimensionMismatchError("observed node outside the graph")
    if not is_connected(g):
        warnings.warn(
            "graph is disconnected; components with no sample take the smallest label"
        )

    n = g.node_count
    levels = sorted(set(obs.y.tolist()))
    rank = {v: r for r, v in enumerate(levels)}
    label_rank = [-1] * n
    for i, v in zip(obs.nodes, obs.y.tolist()):
        label_rank[i] = rank[v]
    caps, scale = _scaled_distinct(pair_caps, [1.0])
    ends = np.stack(g.endpoint_arrays())
    # Edges' arc pairs come by smaller end, then edge, and terminal arcs last:
    # every node lists its arcs in the order adding them node by node would.
    by_tail = np.argsort(ends[0], kind="stable")
    edges = by_tail[pair_caps[by_tail] > 0.0]

    # A group holds the nodes whose x lies in levels[lo..hi] and the edges within
    # them; a cut folds each edge it splits into its ends' terminal capacities.
    lowest = np.zeros(n, dtype=np.intp)
    pull = [0] * n
    cuts = phases = 0
    stack = [(np.arange(n), edges, 0, len(levels) - 1)]
    while stack:
        nodes, group_edges, lo, hi = stack.pop()
        if not nodes.size or lo == hi:
            continue
        mid = (lo + hi) // 2
        size = nodes.size
        source, sink = size, size + 1
        pairs = np.searchsorted(nodes, ends[:, group_edges])  # arc pair p: pairs[:, p]
        tails, heads = pairs.tolist()
        c = caps[group_edges].tolist()
        back = c.copy()
        for k, i in enumerate(nodes.tolist()):  # terminal arcs last
            r = label_rank[i]
            excess = pull[i] + (0 if r < 0 else (scale if r > mid else -scale))  # source - sink
            if excess:
                tails.append(source if excess > 0 else k)
                heads.append(k if excess > 0 else sink)
                c.append(abs(excess))
                back.append(0)
        net = _Dinic(size + 2, tails, heads, c, back)
        net.max_flow(source, sink)
        cuts += 1
        phases += net.phases
        upper = np.array(net.residual_reachable(source)[:size])
        lowest[nodes[upper]] = mid + 1
        up = upper[pairs]
        split = group_edges[up[0] != up[1]]
        below, above = np.where(up[0, up[0] != up[1]], ends[::-1, split], ends[:, split])
        for i, j, x in zip(below.tolist(), above.tolist(), caps[split].tolist()):
            pull[i] += x
            pull[j] -= x
        stack.append((nodes[~upper], group_edges[~(up[0] | up[1])], lo, mid))
        stack.append((nodes[upper], group_edges[up[0] & up[1]], mid + 1, hi))

    x_hat = np.array(levels)[lowest]
    emp = empirical_error(x_hat, obs)
    tv_term = tv(g, x_hat)
    return ExactResult(x_hat, emp + lam * tv_term, emp, tv_term, lam, cuts, len(levels), phases)


def _shrink(v: np.ndarray, t) -> np.ndarray:
    """Soft threshold sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def solve_admm(g: Graph, obs: Observations, cfg: SolverConfig) -> SolverResult:
    """Solve the graph l1/TV problem by ADMM.

    Returns the final iterate with the objective recomputed from scratch;
    ``converged`` is False when max_iters was exhausted before the residual
    criteria were met (the best iterate is still returned).
    """
    if obs.nodes[-1] >= g.node_count:
        raise DimensionMismatchError("observed node outside the graph")
    if not is_connected(g):
        warnings.warn("graph is disconnected; unsampled components are unconstrained")

    n = g.node_count
    m = g.edge_count
    ends = np.stack(g.endpoint_arrays())  # row 0: i, row 1: j
    # row j's endpoints shifted by n, so one bincount sums both rows apart
    ends_shifted = (ends + np.array([[0], [n]])).ravel()
    w = g.weights
    rho = cfg.rho
    lam = cfg.lam

    obs_nodes = np.array(obs.nodes)
    sampled = np.zeros(n, dtype=bool)
    sampled[obs_nodes] = True
    y_full = np.zeros(n)
    y_full[obs_nodes] = obs.y

    deg = np.bincount(ends_shifted, minlength=2 * n).reshape(2, n).sum(axis=0)
    isolated = deg == 0
    has_isolated = bool(isolated.any())
    safe_deg = np.where(isolated, 1, deg).astype(np.float64)
    # Sampled isolated nodes sit at their label; unsampled isolated at 0.
    isolated_value = np.where(sampled, y_full, 0.0)

    x = np.zeros(n)
    # Rows of a block: primal residual, change of z, x at the edge ends, z, u. An
    # iteration writes one block and reads the last z and u from the other.
    cur, prev, squares = np.zeros((5, 2, m)), np.zeros((5, 2, m)), np.empty((5, 2, m))
    row_signs = np.array([[1.0], [-1.0]])

    abs_tol = float(np.sqrt(2.0 * m)) * cfg.eps_abs
    shrink_t = 1.0 / (rho * safe_deg)
    theta_cap = lam * w / rho
    trace: list[dict] = []

    iterations = 0
    converged = False
    r_norm = 0.0
    s_norm = 0.0
    for iterations in range(1, cfg.max_iters + 1):
        cur, prev = prev, cur
        (r, dz, xe, z, u), (z_old, u_old) = cur, prev[3:]
        sums = np.bincount(ends_shifted, weights=(z_old - u_old).ravel(), minlength=2 * n)
        c = (sums[:n] + sums[n:]) / safe_deg
        x = np.where(sampled, y_full + _shrink(c - y_full, shrink_t), c)
        if has_isolated:
            x = np.where(isolated, isolated_value, x)

        np.take(x, ends, out=xe)
        pq = xe + u_old
        delta = pq[0] - pq[1]
        step = np.minimum(theta_cap, np.abs(delta) / 2.0) * np.sign(delta)
        # z_i = p - step and z_j = q + step, as q - (-step) is q + step exactly
        np.subtract(pq, step * row_signs, out=z)
        np.subtract(xe, z, out=r)
        np.subtract(z, z_old, out=dz)
        np.add(u_old, r, out=u)

        sq = np.sum(np.square(cur, out=squares), axis=-1)
        r_norm, dz_norm, ax_norm, z_norm, u_norm = np.sqrt(sq[:, 0] + sq[:, 1]).tolist()
        s_norm = rho * dz_norm
        eps_pri = abs_tol + cfg.eps_rel * max(ax_norm, z_norm)
        eps_dual = abs_tol + cfg.eps_rel * rho * u_norm

        if cfg.record_trace:
            # objective(g, x, obs, lam), from the arrays at hand
            emp = float(np.sum(np.abs(x[obs_nodes] - obs.y)))
            tv_x = float(np.sum(w * np.abs(xe[1] - xe[0]))) if m else 0.0
            trace.append(dict(
                iteration=iterations, primal_residual=r_norm, dual_residual=s_norm,
                eps_pri=eps_pri, eps_dual=eps_dual, objective=emp + lam * tv_x,
            ))

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


def solve_oracle(g: Graph, obs: Observations, lam: float) -> tuple[float, np.ndarray]:
    """Exact optimum on tiny instances by exhaustive vertex enumeration.

    The objective is piecewise linear and convex, and some optimal vertex
    assigns every node one of the observed label values, so enumerating all
    assignments from that value set finds the exact optimal objective.
    """
    if g.node_count > ORACLE_MAX_NODES or obs.sample_count > ORACLE_MAX_SAMPLES:
        raise InstanceTooLargeError(
            f"oracle accepts at most {ORACLE_MAX_NODES} nodes and "
            f"{ORACLE_MAX_SAMPLES} samples"
        )
    if obs.nodes[-1] >= g.node_count:
        raise DimensionMismatchError("observed node outside the graph")
    values = sorted(set(obs.y.tolist()))
    combos = np.array(
        list(itertools.product(values, repeat=g.node_count)), dtype=np.float64
    )
    sample_cols = combos[:, list(obs.nodes)]
    total = np.sum(np.abs(sample_cols - obs.y[np.newaxis, :]), axis=1)
    for i, j, w in zip(*g.endpoint_arrays(), g.weights):
        total += lam * w * np.abs(combos[:, i] - combos[:, j])
    best = int(np.argmin(total))
    return float(total[best]), combos[best].copy()
