"""``solver.solve_exact`` as it was before its cut networks were built from
edge arrays.

Verbatim from that version: it scales every edge's capacity with its own
``scaled`` call, rescans every node's neighbour list at every level to sum
its terminal capacity, and adds the arcs one ``add_arc`` call at a time.
Tests require the array-built solver to give the same x_hat bytes and cuts;
its phases are those of cuts that each start from zero flow. Its max flows
run on the live kernel, through the test-side ``add_arc``.
"""

import warnings

import numpy as np

from netlasso.errors import DimensionMismatchError, InvalidConfigError
from conftest import AddArcDinic as _Dinic, st_max_flow
from netlasso.flow import exact_scale, scaled
from netlasso.graphs import Graph, Observations, is_connected, tv
from netlasso.solver import ExactResult, empirical_error


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
    pair_caps = [lam * w for w in g.weights.tolist()]
    scale = exact_scale([1.0, *pair_caps])
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (i, j), c in zip(g.edges, pair_caps):
        if c > 0.0:
            c = scaled(c, scale)
            neighbours[i].append((j, c))
            neighbours[j].append((i, c))

    # Every node's x lies in levels[lo..hi] of its group; the groups' ranges
    # partition the label ranks, so a group is known by its lo.
    lowest = [0] * n
    local = [0] * n
    cuts = phases = 0
    stack = [(list(range(n)), 0, len(levels) - 1)]
    while stack:
        nodes, lo, hi = stack.pop()
        if not nodes or lo == hi:
            continue
        mid = (lo + hi) // 2
        source, sink = len(nodes), len(nodes) + 1
        net = _Dinic(len(nodes) + 2)
        for k, i in enumerate(nodes):
            local[i] = k
        for k, i in enumerate(nodes):
            r = label_rank[i]
            excess = 0 if r < 0 else (scale if r > mid else -scale)  # source minus sink
            for j, c in neighbours[i]:
                if lowest[j] == lo:
                    if i < j:
                        net.add_arc(k, local[j], c, c)
                elif lowest[j] > lo:
                    excess += c
                else:
                    excess -= c
            if excess > 0:
                net.add_arc(source, k, excess)
            elif excess < 0:
                net.add_arc(k, sink, -excess)
        _, above = st_max_flow(net, source, sink)
        cuts += 1
        phases += net.phases
        upper = [i for k, i in enumerate(nodes) if k in above]
        for i in upper:
            lowest[i] = mid + 1
        stack.append(([i for k, i in enumerate(nodes) if k not in above], lo, mid))
        stack.append((upper, mid + 1, hi))

    x_hat = np.array(levels)[lowest]
    emp = empirical_error(x_hat, obs)
    tv_term = tv(g, x_hat)
    return ExactResult(x_hat, emp + lam * tv_term, emp, tv_term, lam, cuts, len(levels), phases)
