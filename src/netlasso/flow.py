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


def exact_at(scale: int, values: Iterable) -> bool:
    """Whether ``scale`` makes every value an exact integer."""
    return scale > 0 and scale % exact_scale(values) == 0


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
        object.__setattr__(self, "injections", dict(self.injections))
        object.__setattr__(self, "slack_nodes", frozenset(int(i) for i in self.slack_nodes))
        if not _finite(self.slack_bound) or self.slack_bound < 0.0:
            raise InvalidDemandSpecError("slack_bound must be a finite number >= 0")
        for i, b in self.injections.items():
            if not _finite(b):
                raise InvalidDemandSpecError(f"injection at node {i} is not a finite number")

    def validate_nodes(self, node_count: int) -> None:
        for i in self.injections:
            if not 0 <= int(i) < node_count:
                raise InvalidDemandSpecError(f"injection node {i} outside 0..{node_count - 1}")
        for i in self.slack_nodes:
            if not 0 <= i < node_count:
                raise InvalidDemandSpecError(f"slack node {i} outside 0..{node_count - 1}")


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


def _scaled_injections(g: Graph, spec: DemandSpec, scale: int) -> list[int]:
    b = [0] * g.node_count
    for i, v in spec.injections.items():
        b[int(i)] = scaled(v, scale)
    return b


def _kept_edges(g: Graph, excluded: Iterable[Edge]) -> list[int]:
    excluded_ids = {g.edge_id(*e) for e in excluded}
    return [k for k in range(g.edge_count) if k not in excluded_ids]


def _instance_values(weights: list[float], spec: DemandSpec) -> list:
    """Every number a demand instance scales: kept weights, injections, slack bound."""
    return [*weights, *spec.injections.values(), spec.slack_bound]


def feasible_flow(g: Graph, excluded: Iterable[Edge], spec: DemandSpec) -> FeasibilityResult:
    """Decide whether the graph minus ``excluded`` supports the demanded flow.

    Each kept edge {i,j} may carry up to W_ij in one direction of the
    solver's choosing. Returns a witness flow when feasible, otherwise a cut
    certificate proving infeasibility, both at the scale derived from the
    kept weights, the injections and the slack bound.
    """
    spec.validate_nodes(g.node_count)
    kept = _kept_edges(g, excluded)
    edges = [g.edges[k] for k in kept]
    values, inverse = np.unique(g.weights[kept], return_inverse=True)  # scale each weight once
    scale = exact_scale(_instance_values(values.tolist(), spec))
    b = _scaled_injections(g, spec, scale)
    k_scaled = scaled(spec.slack_bound, scale)
    caps = np.array([scaled(w, scale) for w in values.tolist()], dtype=object)[inverse].tolist()

    n = g.node_count
    reservoir, source, sink = n, n + 1, n + 2
    supply_total = sum(v for v in b if v > 0)
    demand_total = sum(-v for v in b if v < 0)

    # Kept edge number pos becomes arc pairs 2*pos (i -> j) and 2*pos + 1
    # (j -> i), each with no capacity back; slack, terminal and reservoir arcs follow.
    ii, jj = (ends[kept] for ends in g.endpoint_arrays())
    tails = np.stack([ii, jj], 1).ravel().tolist()
    heads = np.stack([jj, ii], 1).ravel().tolist()
    arc_caps = [c for c in caps for _ in range(2)]

    def arc(u: int, v: int, c: int) -> None:
        tails.append(u)
        heads.append(v)
        arc_caps.append(c)

    for i in sorted(spec.slack_nodes):
        arc(i, reservoir, k_scaled)
        arc(reservoir, i, k_scaled)
    for i in range(n):
        if b[i] > 0:
            arc(source, i, b[i])
        elif b[i] < 0:
            arc(i, sink, -b[i])
    if demand_total > 0:
        arc(source, reservoir, demand_total)
    if supply_total > 0:
        arc(reservoir, sink, supply_total)

    solver = _Dinic(n + 3, tails, heads, arc_caps, [0] * len(tails))
    value = solver.max_flow(source, sink)
    required = supply_total + demand_total

    if value == required:
        cap = solver.cap  # edge pos: i -> j is arc 4*pos, j -> i is arc 4*pos + 2
        flows = tuple(cap[a + 2] - cap[a] for a in range(0, 4 * len(kept), 4))
        witness = DemandWitness.from_edge_flows(n, tuple(edges), flows, scale)
        return FeasibilityResult(True, witness, None, scale)

    reachable = solver.residual_reachable(source)
    if reachable[reservoir]:
        # Complement side: the unreached nodes must absorb more than can reach them.
        nodes = tuple(i for i in range(n) if not reachable[i])
        demand = sum(-b[i] for i in nodes)
        kind = "demand-excess"
    else:
        nodes = tuple(i for i in range(n) if reachable[i])
        demand = sum(b[i] for i in nodes)
        kind = "supply-excess"
    inside = set(nodes)
    capacity = sum(c for (i, j), c in zip(edges, caps) if (i in inside) != (j in inside))
    capacity += k_scaled * sum(1 for i in spec.slack_nodes if i in inside)
    cut = CutCertificate(
        kind=kind,
        nodes=nodes,
        demand_scaled=demand,
        capacity_scaled=capacity,
        scale=scale,
    )
    return FeasibilityResult(False, None, cut, scale)


def verify_demand_witness(
    g: Graph, excluded: Iterable[Edge], spec: DemandSpec, witness: DemandWitness
) -> bool:
    """Re-verify a witness against the raw instance with integer arithmetic."""
    scale = witness.scale
    kept = _kept_edges(g, excluded)
    if tuple(g.edges[k] for k in kept) != witness.edges or len(witness.edge_flows) != len(kept):
        return False
    weights = g.weights[kept].tolist()
    if not exact_at(scale, _instance_values(weights, spec)):
        return False
    b = _scaled_injections(g, spec, scale)
    k_scaled = scaled(spec.slack_bound, scale)
    net = [0] * g.node_count
    for (i, j), f, w in zip(witness.edges, witness.edge_flows, weights):
        if abs(f) > scaled(w, scale):
            return False
        net[i] += f
        net[j] -= f
    if tuple(net) != witness.node_net_outflow:
        return False
    for i in range(g.node_count):
        if i in spec.slack_nodes:
            if abs(net[i] - b[i]) > k_scaled:
                return False
        elif net[i] != b[i]:
            return False
    return True


def verify_cut_certificate(
    g: Graph, excluded: Iterable[Edge], spec: DemandSpec, cut: CutCertificate
) -> bool:
    """Re-verify that a cut certificate proves infeasibility."""
    scale = cut.scale
    kept = _kept_edges(g, excluded)
    weights = g.weights[kept].tolist()
    if not exact_at(scale, _instance_values(weights, spec)):
        return False
    inside = set(cut.nodes)
    b = _scaled_injections(g, spec, scale)
    k_scaled = scaled(spec.slack_bound, scale)
    sign = 1 if cut.kind == "supply-excess" else -1
    demand = sum(sign * b[i] for i in inside)
    crossing = ((i in inside) != (j in inside) for i, j in map(g.edges.__getitem__, kept))
    capacity = sum(scaled(w, scale) for w, cross in zip(weights, crossing) if cross)
    capacity += k_scaled * sum(1 for i in spec.slack_nodes if i in inside)
    if demand != cut.demand_scaled or capacity != cut.capacity_scaled:
        return False
    return demand > capacity
