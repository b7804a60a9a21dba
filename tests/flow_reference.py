"""``flow._route`` as it was before its reservoir netted supply against demand.

Verbatim from that version: the reservoir node takes two terminal arcs, the
demand total in from the source and the supply total out to the sink, and
the flow is feasible iff its value is their sum. Tests require the live
``_route``, whose reservoir takes only their difference, to give the same
feasibility, cut nodes and kind on the same instance.
"""

import numpy as np

from conftest import st_max_flow
from netlasso.flow import _Dinic
from netlasso.graphs import Graph


def _route(g: Graph, instance):
    """Max flow on an instance: the flow on each kept edge, in id order, when
    every injection is met; otherwise None, the minimal cut's nodes and kind."""
    kept, caps, b, slack, k_scaled, _ = instance
    n = g.node_count
    reservoir, source, sink = n, n + 1, n + 2
    supply_total = sum(v for v in b if v > 0)
    demand_total = sum(-v for v in b if v < 0)

    # Kept edge number p, and after them the slack nodes paired with the
    # reservoir, become arc pair 2*p (u -> v) and 2*p + 1 (v -> u), with the
    # same capacity both ways. One arc per nonzero injection follows, from the
    # source or to the sink with no capacity back, the reservoir's two last.
    ii, jj = (ends[kept] for ends in g.endpoint_arrays())
    # numpy would turn two ints past int64 into floats; keep them Python ints
    injections = np.append(b, np.array([demand_total, -supply_total], dtype=object))
    at = np.flatnonzero(injections)
    node = np.minimum(at, reservoir)  # injections n and n + 1 are the reservoir's
    into = injections[at] > 0
    tails = np.concatenate([ii, slack, np.where(into, source, node)])
    heads = np.concatenate([jj, np.full(slack.size, reservoir), np.where(into, node, sink)])
    both = [*caps, *[k_scaled] * slack.size]
    arc_caps = both + abs(injections[at]).tolist()
    solver = _Dinic(n + 3, tails, heads, arc_caps, both + [0] * at.size)
    value, reached = st_max_flow(solver, source, sink)

    if value == supply_total + demand_total:
        cap, m = solver.cap, 2 * kept.size  # edge p with flow f: W - f at 2p, W + f at 2p + 1
        return tuple((up - down) // 2 for down, up in zip(cap[0:m:2], cap[1:m:2])), None, None

    reachable = np.isin(np.arange(n + 3), list(reached))
    # With the reservoir reached, take the complement side: the unreached
    # nodes must absorb more than can reach them.
    supply_side = not reachable[reservoir]
    nodes = np.flatnonzero(reachable[:n] == supply_side)
    return None, nodes, "supply-excess" if supply_side else "demand-excess"
