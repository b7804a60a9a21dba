"""Solvers for TV-regularized l1 regression on graphs: an exact solver by
parametric min cut, the paper's ADMM, and an enumeration oracle for tiny
instances.

The problem: minimize over signals x

    sum_{i in M} |x[i] - y_i|  +  lam * sum_{{i,j} in E} W_ij |x[i] - x[j]|

``solve_exact`` returns an exact minimizer (see its docstring). It first pins
every sample i whose edges carry lam * W(delta i) < 1 at its label: moving x[i]
toward y_i by d lowers the data term by d and raises the TV term by at most
lam * W(delta i) * d < d, so every minimizer has x[i] = y_i. ADMM
splitting: every edge {i,j} gets copies z_ij (of x_i) and z_ji (of x_j) with
scaled duals, giving closed-form node and edge updates. The copies and duals
are stacked ``(2, m)`` arrays, row 0 for the i ends and row 1 for the j ends,
so each update is one numpy call over both ends: x is gathered at the edge
ends once per iteration, and the five norms of the stopping rule come from
one row-wise sum of squares. A row sum over a contiguous last axis is the
same pairwise sum as ``np.sum`` of that row alone, and the two rows are
added as two separate sums would be, so the iterates do not depend on the
layout. The views and buffers an iteration writes into are made once per
call: an iteration makes no array but bincount's result and the views of its
two halves. The soft threshold runs on the sampled nodes only. All updates
are vectorized over fixed arrays, so identical inputs produce bit-identical
iterates.
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
    _integer,
    _real,
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


def _lam(value) -> float:
    """The regularization weight as a float; it must be a finite real >= 0."""
    lam = _real(value, "lam")
    if not (np.isfinite(lam) and lam >= 0.0):
        raise InvalidConfigError("lam must be finite and >= 0")
    return lam


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
        object.__setattr__(self, "lam", _lam(self.lam))
        for name in ("rho", "eps_abs", "eps_rel"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not (np.isfinite(self.rho) and self.rho > 0.0):
            raise InvalidConfigError("rho must be finite and positive")
        if not all(np.isfinite(t) and t > 0.0 for t in (self.eps_abs, self.eps_rel)):
            raise InvalidConfigError("tolerances must be finite and positive")
        object.__setattr__(self, "max_iters", _integer(self.max_iters, "max_iters"))
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
    the distinct observed labels it chose from (``levels``), the blocking
    flows its max flows ran (``phases``), each max flow from its parent cut's
    flow and each phase labelled by distance from the excess, and the samples
    it pinned at their labels before the first cut (``pinned``)."""

    x_hat: np.ndarray
    objective: float
    empirical_error: float
    tv_term: float
    lam: float
    cuts: int
    levels: int
    phases: int
    pinned: int = 0

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
    node excess (Hochbaum 2001; Chambolle & Darbon 2009). Each cut is one
    exact integer max flow on its group's nodes, in one network built for the
    whole solve, started from the flow its parent cut left. Its upper side R,
    what the excess left reaches and so the set the kernel's last BFS
    returns, is the minimal minimum cut from any flow within the capacities:
    F(S) = cap(S->S') - e0(S), with e0 the excess at zero flow, equals
    res(S->S') - e(S) for any such flow. Once no positive excess P reaches a
    deficit, F(R) = -P <= F(S) for every S, and a set with F(S) = -P holds
    all of P with no residual arc out, so it contains R. Each pair from R to
    its complement is saturated downhill, so the flow it left in its ends'
    excess is the children's excess from the parent's side; the split zeroes
    those pairs from R's arcs. The result is the componentwise smallest
    minimizer. Nodes no sample constrains, such as a sample-free component's,
    take the smallest label.

    A sample whose edges' capacities sum below the unit weight of its label,
    lam * W(delta i) < 1, is pinned (``pinned`` counts them): moving x[i] toward
    y_i by d lowers the data term by d and raises the TV term by at most
    lam * W(delta i) * d < d, so every minimizer, the componentwise smallest
    included, has x[i] = y_i. The test sums the same integer capacities the
    network uses, fl(lam * W_e) at scale, so it is exact for the objective
    solved. A pinned sample joins no group, and each edge to it leaves the
    network as a label of weight cap_e at y_i on its other end. So every other
    node carries terms w * |x - level|, its own label at weight 1 if sampled,
    and a cut sets its excess from those terms alone. With no sample pinned,
    the network, cuts and phases are those of the unpinned solver.
    """
    lam = _lam(lam)
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
    label_rank = np.full(n, -1)
    label_rank[list(obs.nodes)] = np.searchsorted(levels, obs.y)
    rank = label_rank.tolist()
    caps, scale = _scaled_distinct(pair_caps, [1.0])
    ends = np.stack(g.endpoint_arrays())
    # Pin each sample whose edges' capacities sum below scale, lam * W(its edges) < 1.
    at = ends.ravel()
    at_sample = np.flatnonzero(label_rank[at] >= 0)
    load = np.zeros(n, dtype=object)
    np.add.at(load, at[at_sample], np.concatenate([caps, caps])[at_sample])
    # Every free node's terms (rank, w), each w * |x - levels[rank]| of the objective
    # at scale: a free sample's own label at weight scale, and each edge to a pinned
    # sample at its capacity. The excess starts with every term above (mid -1).
    lowest = [0] * n
    excess = [0] * n
    terms = [()] * n
    pin = []
    for i in obs.nodes:
        if load[i] < scale:
            pin.append(i)
            lowest[i] = rank[i]
        else:
            terms[i] = ((rank[i], scale),)
            excess[i] = scale
    pinned = np.zeros(n, dtype=bool)
    pinned[pin] = True
    at_pin = pinned[ends]
    live = pair_caps > 0.0
    cut_off = np.flatnonzero(live & (at_pin[0] != at_pin[1]))  # one end pinned
    held = np.where(at_pin[0, cut_off], ends[0, cut_off], ends[1, cut_off])
    free = ends[0, cut_off] + ends[1, cut_off] - held
    for p, j, c in zip(held.tolist(), free.tolist(), caps[cut_off].tolist()):
        terms[j] += ((rank[p], c),)
        excess[j] += c
    # One network for the whole solve, on the free nodes. Its arc pairs come by smaller
    # end, then edge: every node lists its arcs in the order adding them node by node would.
    by_tail = np.argsort(ends[0], kind="stable")
    edges = by_tail[(live & ~(at_pin[0] | at_pin[1]))[by_tail]]
    ii, jj = ends[:, edges].tolist()
    c = caps[edges].tolist()
    net = _Dinic(n, ii, jj, c, c)
    head, cap, adj = net.head, net.cap, net.adj

    # A group holds the nodes whose x lies in levels[lo..hi] (a lower group in its
    # parent's order, an upper one in the order the cut's BFS reached them) and the
    # mid its excess was set for (-1: every term above). A cut zeroes the pairs it
    # splits, so no arc of positive capacity leaves a group. A pinned sample sits at
    # its label and joins no group.
    cuts = 0
    stack = [(np.flatnonzero(~pinned).tolist(), 0, len(levels) - 1, -1)]
    while stack:
        nodes, lo, hi, prev = stack.pop()
        if not nodes or lo == hi:
            continue
        mid = (lo + hi) // 2
        for i in nodes:  # each term at mid less at prev: +w above, -w at or below
            for r, w in terms[i]:
                excess[i] += 2 * w * ((r > mid) - (r > prev))
        upper = net.route(nodes, excess)
        cuts += 1
        for i in upper:
            lowest[i] = mid + 1
        # Zero the pairs into the lower side; those leaving the group are zero already.
        for i in upper:
            for e in adj[i]:
                if lowest[head[e]] <= lo:
                    cap[e] = cap[e ^ 1] = 0
        stack.append(([i for i in nodes if lowest[i] == lo], lo, mid, mid))
        stack.append((upper, mid + 1, hi, mid))

    x_hat = np.array(levels)[lowest]
    emp = empirical_error(x_hat, obs)
    tv_term = tv(g, x_hat)
    return ExactResult(
        x_hat, emp + lam * tv_term, emp, tv_term, lam, cuts, len(levels), net.phases, len(pin)
    )


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
    # Isolated nodes sit at their label if sampled, else at 0.
    y_full = np.zeros(n)
    y_full[obs_nodes] = obs.y

    deg = np.bincount(ends_shifted, minlength=2 * n).reshape(2, n).sum(axis=0)
    isolated = deg == 0
    has_isolated = bool(isolated.any())
    safe_deg = np.where(isolated, 1, deg).astype(np.float64)

    abs_tol = float(np.sqrt(2.0 * m)) * cfg.eps_abs
    obs_t = 1.0 / (rho * safe_deg[obs_nodes])  # the soft threshold at each sample
    theta_cap = lam * w / rho
    trace: list[dict] = []

    # Rows of a block: primal residual, change of z, x at the edge ends, z, u. An
    # iteration writes one block and reads the last z and u from the other. A
    # state is a block, its five rows and the two rows of its z. Every update
    # writes into these views or the buffers below; only bincount returns a new
    # array. The loop is bound by call overhead, so the ufuncs are locals too.
    cur, prev = [(b, *b, *b[3]) for b in np.zeros((2, 5, 2, m))]
    x = np.zeros(n)
    y = obs.y
    v, a = np.empty(len(obs_nodes)), np.empty(len(obs_nodes))
    diff, pq, squares = np.empty((2, m)), np.empty((2, m)), np.empty((5, 2, m))
    diff_flat, (p, q) = diff.reshape(-1), pq
    delta, step = np.empty(m), np.empty(m)
    sq, norms = np.empty((5, 2)), np.empty(5)
    sq_i, sq_j = sq.T
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    absolute, sign, minimum, maximum = np.absolute, np.sign, np.minimum, np.maximum
    square, sqrt, bincount = np.square, np.sqrt, np.bincount

    iterations = 0
    converged = False
    r_norm = 0.0
    s_norm = 0.0
    for iterations in range(1, cfg.max_iters + 1):
        cur, prev = prev, cur
        block, r, dz, xe, z, u, z_i, z_j = cur
        z_old, u_old = prev[4], prev[5]
        subtract(z_old, u_old, out=diff)
        sums = bincount(ends_shifted, weights=diff_flat, minlength=2 * n)
        add(sums[:n], sums[n:], out=x)
        divide(x, safe_deg, out=x)
        # at the samples, x = y + sign(x - y) * max(|x - y| - t, 0); every index is in
        # range, and mode="clip" spares the copy that take makes for out= under "raise"
        x.take(obs_nodes, out=v, mode="clip")
        subtract(v, y, out=v)
        absolute(v, out=a)
        subtract(a, obs_t, out=a)
        maximum(a, 0.0, out=a)
        sign(v, out=v)
        multiply(v, a, out=v)
        add(y, v, out=v)
        x.put(obs_nodes, v)
        if has_isolated:
            np.copyto(x, y_full, where=isolated)

        x.take(ends, out=xe, mode="clip")
        add(xe, u_old, out=pq)
        subtract(p, q, out=delta)
        # step = min(theta_cap, |delta| / 2) * sign(delta), z_i = p - step, z_j = q + step
        absolute(delta, out=step)
        divide(step, 2.0, out=step)
        minimum(theta_cap, step, out=step)
        sign(delta, out=delta)
        multiply(step, delta, out=step)
        subtract(p, step, out=z_i)
        add(q, step, out=z_j)
        subtract(xe, z, out=r)
        subtract(z, z_old, out=dz)
        add(u_old, r, out=u)

        # each norm adds its two row sums, the same pairwise sums as np.sum of a row
        square(block, out=squares)
        add.reduce(squares, axis=-1, out=sq)
        add(sq_i, sq_j, out=norms)
        r_norm, dz_norm, ax_norm, z_norm, u_norm = sqrt(norms, out=norms).tolist()
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
