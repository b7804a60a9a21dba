"""Maximum flow and feasibility of flows with node demands.

All flow arithmetic happens on integers. Each call derives its scale from
its inputs: the smallest power of two that makes every capacity, injection
and slack bound an exact integer (every finite float is a dyadic rational,
so one always exists). Nothing is rounded, so results are exact for the real
inputs, and certificates carry their scale and re-verify with integer
arithmetic. Max flow is one pure-Python Dinic solver on Python ints, so
capacities of any size stay exact and parallel arcs stay distinct. Each phase
labels nodes by residual distance to the sink (BFS back from t, stopped once
the source's layer is complete), then a DFS from the source pushes a blocking
flow along arcs one label closer to t, so it enters only nodes that can still
reach t (Dinitz 1970; Ahuja & Orlin 1991). The residual graph it leaves gives
the minimal minimum cut, which is unique whichever maximum flow was found.

Undirected graph edges act as bidirectional capacity: each edge {i,j} may
carry up to W_ij in a direction of the solver's choosing. Feasibility of a
flow with prescribed node injections and bounded-slack nodes reduces to one
max-flow problem via a reservoir node plus the standard lower-bound
transform; infeasibility is certified by a node set whose required net
outflow exceeds the capacity leaving it.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidConfigError, InvalidDemandSpecError
from .graphs import Edge, Graph


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of a finite float or rational, exactly."""
    try:
        return value.as_integer_ratio()
    except AttributeError:  # numpy integers
        return operator.index(value), 1


def exact_scale(values: Iterable) -> int:
    """Smallest positive integer s that makes s * v an integer for every v.

    For floats s is a power of two; Python ints hold it at any size.
    """
    return math.lcm(*{_ratio(v)[1] for v in values})


def scaled(value: float, scale: int) -> int:
    """``value * scale`` as an exact integer; raises if it is not an integer."""
    p, q = _ratio(value)
    n, r = divmod(p * scale, q)
    if r:
        raise InvalidConfigError(f"scale {scale} does not make {value!r} an integer")
    return n


class _Dinic:
    """Dinic max flow on integer capacities (Python ints, no overflow).

    Arc 2k runs tails[k] -> heads[k] with capacity caps[k], and arc 2k + 1
    runs back with capacity back[k] (an undirected edge when both are equal).
    Each node lists its arcs in id order. ``phases`` counts the blocking
    flows that ``max_flow`` has run.
    """

    def __init__(self, n: int, tails, heads, caps: list[int], back: list[int]):
        pairs = np.array([tails, heads], dtype=np.intp)
        ends = pairs.T.ravel()  # the tail of arc e is ends[e]
        self.n = n
        self.phases = 0
        self.head = pairs[::-1].T.ravel().tolist()
        self.cap = [0] * ends.size
        self.cap[::2] = caps
        self.cap[1::2] = back
        arcs = np.argsort(ends, kind="stable").tolist()
        bounds = np.bincount(ends, minlength=n).cumsum().tolist()
        self.adj = [arcs[a:b] for a, b in zip([0, *bounds], bounds)]

    def max_flow(self, s: int, t: int) -> int:
        """Value of a maximum s-t flow, left pushed in the residual capacities."""
        total = 0
        n, head, cap, adj = self.n, self.head, self.cap, self.adj
        while True:
            # Label nodes by residual distance to t: BFS back from t over arcs
            # whose reverse still has capacity, until s's layer is complete.
            dist = [-1] * n
            dist[t] = 0
            layer = [t]
            d = 0
            while layer and dist[s] < 0:
                d += 1
                reached = []
                for v in layer:
                    for e in adj[v]:
                        u = head[e]
                        if dist[u] < 0 and cap[e ^ 1] > 0:
                            dist[u] = d
                            reached.append(u)
                layer = reached
            if dist[s] < 0:
                return total
            self.phases += 1
            # Blocking flow: a DFS from s that steps one label closer to t, so
            # it only enters nodes that could still reach t.
            it = [0] * n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    push = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= push
                        cap[e ^ 1] += push
                    total += push
                    # Back up to the tail of the first saturated arc.
                    del path[next(k for k, e in enumerate(path) if not cap[e]):]
                    u = head[path[-1]] if path else s
                    continue
                arcs, i, want = adj[u], it[u], dist[u] - 1
                m = len(arcs)
                while i < m:
                    e = arcs[i]
                    if cap[e] > 0 and dist[head[e]] == want:
                        break
                    i += 1
                it[u] = i
                if i < m:
                    path.append(arcs[i])
                    u = head[arcs[i]]
                elif u == s:
                    break
                else:
                    dist[u] = -1  # dead end in this phase
                    path.pop()
                    u = head[path[-1]] if path else s

    def residual_reachable(self, s: int) -> list[bool]:
        """Per node, whether s reaches it through positive residual capacity."""
        seen = [False] * self.n
        seen[s] = True
        queue = deque([s])
        head, cap, adj = self.head, self.cap, self.adj
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                v = head[e]
                if cap[e] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen


def _finite(value) -> bool:
    """Whether value is a finite number; strings, None and ints beyond the
    float range are not."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


@dataclass(frozen=True)
class DemandSpec:
    """Required net outflows plus a set of slack nodes.

    A node with injection b must have net outflow exactly b; a slack node
    may deviate from its injection by at most ``slack_bound`` in either
    direction. Injections default to zero; they may be floats or exact
    rationals such as ``fractions.Fraction``.
    """

    injections: Mapping[int, float] = field(default_factory=dict)
    slack_nodes: frozenset[int] = frozenset()
    slack_bound: float = 0.0

    def __post_init__(self):
        try:
            injections = {operator.index(i): b for i, b in self.injections.items()}
            slack_nodes = frozenset(map(operator.index, self.slack_nodes))
        except TypeError:
            raise InvalidDemandSpecError("a node id of the demand is not an integer") from None
        object.__setattr__(self, "injections", injections)
        object.__setattr__(self, "slack_nodes", slack_nodes)
        if not _finite(self.slack_bound) or self.slack_bound < 0.0:
            raise InvalidDemandSpecError("slack_bound must be a finite number >= 0")
        for i, b in self.injections.items():
            if not _finite(b):
                raise InvalidDemandSpecError(f"injection at node {i} is not a finite number")


@dataclass(frozen=True)
class DemandWitness:
    """Feasible flow on the kept edges, in scaled integer units.

    ``edge_flows[k]`` is the signed flow on ``edges[k]``: positive means the
    flow runs from the smaller endpoint to the larger one.
    """

    edges: tuple[Edge, ...]
    edge_flows: tuple[int, ...]
    node_net_outflow: tuple[int, ...]
    scale: int

    @classmethod
    def from_edge_flows(
        cls, node_count: int, edges: tuple[Edge, ...], edge_flows: tuple[int, ...], scale: int
    ) -> DemandWitness:
        """Witness whose per-node net outflows are summed from the edge flows."""
        net_out = [0] * node_count
        for (i, j), f in zip(edges, edge_flows):
            net_out[i] += f
            net_out[j] -= f
        return cls(tuple(edges), tuple(edge_flows), tuple(net_out), scale)


@dataclass(frozen=True)
class CutCertificate:
    """Hoffman-style infeasibility certificate.

    For kind 'supply-excess', the nodes' total required injection exceeds
    the capacity leaving the set plus its slack allowance; 'demand-excess'
    is the mirror statement for required absorption and entering capacity.
    """

    kind: str
    nodes: tuple[int, ...]
    demand_scaled: int
    capacity_scaled: int
    scale: int


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: DemandWitness | None
    cut: CutCertificate | None
    scale: int


def _scaled_distinct(values: np.ndarray, others: Iterable, scale: int | None = None):
    """``values * scale`` as an object array of exact ints, and the scale.

    Scales each distinct value once. Without a scale, takes the smallest that
    makes every value and every one of ``others`` an integer; returns None
    when a given scale does not.
    """
    distinct = np.unique(values)
    needed = exact_scale([*distinct.tolist(), *others])
    if scale is None:
        scale = needed
    elif scale <= 0 or scale % needed:
        return None
    ints = np.array([scaled(v, scale) for v in distinct.tolist()], dtype=object)
    return ints[np.searchsorted(distinct, values)], scale


def _instance(g: Graph, excluded: Iterable[Edge], spec: DemandSpec, scale: int | None = None):
    """The flow question (g minus ``excluded``, ``spec``) in exact integers:
    the kept edge ids, their capacities, every node's injection (the ints in
    object arrays), the slack bound and the scale (as in ``_scaled_distinct``).
    Raises for a spec node outside 0..N-1."""
    n = g.node_count
    for what, nodes in (("injection", spec.injections), ("slack", spec.slack_nodes)):
        for i in nodes:
            if not 0 <= i < n:
                raise InvalidDemandSpecError(f"{what} node {i} outside 0..{n - 1}")
    keep = np.ones(g.edge_count, dtype=bool)
    keep[[g.edge_id(*e) for e in excluded]] = False
    kept = np.flatnonzero(keep)
    instance = _scaled_distinct(
        g.weights[kept], [*spec.injections.values(), spec.slack_bound], scale
    )
    if instance is None:
        return None
    caps, scale = instance
    b = np.zeros(n, dtype=object)
    for i, v in spec.injections.items():
        b[i] = scaled(v, scale)
    return kept, caps, b, scaled(spec.slack_bound, scale), scale


def _cut_capacity(g: Graph, kept, caps, nodes, spec: DemandSpec, k: int) -> int:
    """Kept capacity leaving ``nodes`` plus slack bound ``k`` per slack node in it."""
    inside = np.zeros(g.node_count, dtype=bool)
    inside[list(nodes)] = True
    ii, jj = (ends[kept] for ends in g.endpoint_arrays())
    return sum(caps[inside[ii] != inside[jj]]) + k * len(spec.slack_nodes.intersection(nodes))


def feasible_flow(g: Graph, excluded: Iterable[Edge], spec: DemandSpec) -> FeasibilityResult:
    """Decide whether the graph minus ``excluded`` supports the demanded flow.

    Each kept edge {i,j} may carry up to W_ij in one direction of the
    solver's choosing. Returns a witness flow when feasible, otherwise a cut
    certificate proving infeasibility, both at the scale derived from the
    kept weights, the injections and the slack bound.
    """
    kept, caps, b, k_scaled, scale = _instance(g, excluded, spec)
    n = g.node_count
    reservoir, source, sink = n, n + 1, n + 2
    supply_total = sum(v for v in b if v > 0)
    demand_total = sum(-v for v in b if v < 0)

    # Kept edge number p, and after them the slack nodes paired with the
    # reservoir, become arc pairs 2*p (u -> v) and 2*p + 1 (v -> u), each with
    # no capacity back. One arc per nonzero injection follows, from the source
    # or to the sink, the reservoir's two last.
    ii, jj = (ends[kept] for ends in g.endpoint_arrays())
    slack = np.array(sorted(spec.slack_nodes), dtype=np.int64)
    u = np.concatenate([ii, slack])
    v = np.concatenate([jj, np.full(slack.size, reservoir)])
    injections = np.append(b, [demand_total, -supply_total])
    at = np.flatnonzero(injections)
    node = np.minimum(at, reservoir)  # injections n and n + 1 are the reservoir's
    into = injections[at] > 0
    tails = np.concatenate([np.stack([u, v], 1).ravel(), np.where(into, source, node)])
    heads = np.concatenate([np.stack([v, u], 1).ravel(), np.where(into, node, sink)])
    arc_caps = [*np.repeat(np.append(caps, [k_scaled] * slack.size), 2), *abs(injections[at])]

    solver = _Dinic(n + 3, tails, heads, arc_caps, [0] * len(arc_caps))
    value = solver.max_flow(source, sink)
    required = supply_total + demand_total

    if value == required:
        cap = solver.cap  # edge pos: i -> j is arc 4*pos, j -> i is arc 4*pos + 2
        m = 4 * kept.size
        flows = tuple(map(operator.sub, cap[2:m:4], cap[0:m:4]))
        witness = DemandWitness.from_edge_flows(n, g.pairs(kept), flows, scale)
        return FeasibilityResult(True, witness, None, scale)

    reachable = solver.residual_reachable(source)
    # With the reservoir reached, take the complement side: the unreached
    # nodes must absorb more than can reach them.
    supply_side = not reachable[reservoir]
    nodes = tuple(i for i in range(n) if reachable[i] == supply_side)
    demand = (1 if supply_side else -1) * sum(b[i] for i in nodes)
    kind = "supply-excess" if supply_side else "demand-excess"
    capacity = _cut_capacity(g, kept, caps, nodes, spec, k_scaled)
    cut = CutCertificate(kind, nodes, demand, capacity, scale)
    return FeasibilityResult(False, None, cut, scale)


def verify_demand_witness(
    g: Graph, excluded: Iterable[Edge], spec: DemandSpec, witness: DemandWitness
) -> bool:
    """Re-verify a witness against the raw instance with integer arithmetic."""
    instance = _instance(g, excluded, spec, witness.scale)
    if instance is None:
        return False
    kept, caps, b, k_scaled, scale = instance
    flows = witness.edge_flows
    if len(flows) != len(kept) or any(abs(f) > c for f, c in zip(flows, caps)):
        return False
    if DemandWitness.from_edge_flows(g.node_count, g.pairs(kept), flows, scale) != witness:
        return False
    return all(
        abs(net - v) <= (k_scaled if i in spec.slack_nodes else 0)
        for i, (net, v) in enumerate(zip(witness.node_net_outflow, b))
    )


def verify_cut_certificate(
    g: Graph, excluded: Iterable[Edge], spec: DemandSpec, cut: CutCertificate
) -> bool:
    """Re-verify that a cut certificate proves infeasibility; a cut node
    outside 0..N-1 fails it."""
    instance = _instance(g, excluded, spec, cut.scale)
    inside = set(cut.nodes)
    if instance is None or not inside.issubset(range(g.node_count)):
        return False
    kept, caps, b, k_scaled, _ = instance
    sign = 1 if cut.kind == "supply-excess" else -1
    demand = sign * sum(b[i] for i in inside)
    capacity = _cut_capacity(g, kept, caps, inside, spec, k_scaled)
    if demand != cut.demand_scaled or capacity != cut.capacity_scaled:
        return False
    return demand > capacity
