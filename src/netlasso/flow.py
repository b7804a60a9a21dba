"""Maximum flow and feasibility of flows with node demands.

All flow arithmetic happens on integers. Each question becomes one exact
instance: the kept edge ids and their capacities, every node's injection, the
slack nodes, the slack bound and the scale, the smallest that makes every
number an integer (every finite float is a dyadic rational, so one always
exists). ``_instance`` builds it from excluded pairs and a ``DemandSpec``;
``certify`` builds the NCC's straight from its boundary mask. One kernel
(``_route``) solves either, and one integer check per certificate kind
re-verifies either, at any scale that keeps its numbers integers. Nothing is
rounded, so results are exact for the real inputs.

Max flow is one pure-Python Dinic solver on Python ints, so capacities of any
size stay exact and parallel arcs stay distinct. It has no source or sink
node: it moves node excess to node deficits (``_Dinic.route``). Each phase
labels nodes by residual distance from the excess (BFS from the nodes with
excess in node order, stopped once a layer holds a node with a deficit left),
then from each node with a deficit at that distance, in node order, a DFS
back along arcs one label closer pulls a blocking flow, each push the least
of the end's excess, the path's residuals and the start's deficit (Dinitz
1970; Ahuja & Orlin 1991). That is step for step Dinic on the reversed s-t
network: each arc turned around, in node order an arc from a source to each
node with a deficit and one from each node with excess to a sink, so the
flows, phases and cuts are that network's. When no deficit is met, the last
BFS has labelled exactly the nodes the excess left reaches through positive
residual capacity: the minimal minimum cut's source side, whichever maximum
flow was found, and ``route`` returns it. Every capacity and excess times c
scales the flow by c and leaves the phases and cut as they are.

``_route`` gives the kernel one arc pair per kept edge, its capacity both ways
(the pair's flow is half the difference of its residual capacities): each
kept edge {i,j} may carry up to W_ij either way. Bounded-slack nodes reduce to
it by the lower-bound transform: each joins a reservoir node by an arc pair of
the slack bound, and the reservoir's excess is -sum(b), so the excesses sum to
zero and the reservoir nets the supply total against the demand total. A flow
meets every injection, with each slack node within its bound, iff it routes
all that excess, so the instance is feasible iff none is left. Otherwise the
set U the excess left reaches has saturated every arc out of it and holds no
deficit, so its required net outflow exceeds the capacity leaving it; if U
holds the reservoir, the complement's required inflow exceeds the capacity
entering it instead. Either way a node set of the graph certifies
infeasibility.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidConfigError, InvalidDemandSpecError, _real
from .graphs import Edge, Graph, _index_array


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
    """Dinic's algorithm on integer capacities (Python ints, no overflow),
    moving node excess rather than flow between a source and a sink.

    Arc 2k runs tails[k] -> heads[k] with capacity caps[k], and arc 2k + 1
    runs back with capacity back[k] (an undirected edge when both are equal).
    Each node lists its arcs in id order. ``phases`` counts the blocking
    flows that ``route`` has run. Phases label from the excess and search
    back from the deficits, so the BFS that finds no deficit is the cut.
    """

    def __init__(self, n: int, tails, heads, caps: list[int], back: list[int]):
        pairs = np.array([tails, heads], dtype=np.intp)
        ends = pairs.T.ravel()  # the tail of arc e is ends[e]
        self.phases = 0
        self.head = pairs[::-1].T.ravel().tolist()
        self.cap = [0] * ends.size
        self.cap[::2] = caps
        self.cap[1::2] = back
        arcs = np.argsort(ends, kind="stable").tolist()
        bounds = np.bincount(ends, minlength=n).cumsum().tolist()
        self.adj = [arcs[a:b] for a, b in zip([0, *bounds], bounds)]
        # per node: its label in a phase (-1 for none) and its next arc to try;
        # a phase resets them at the nodes it labelled
        self.dist = [-1] * n
        self.it = [0] * n

    def route(self, nodes, excess: list[int]) -> list[int]:
        """Move positive excess to negative excess over positive residual arcs
        until none can move, updating ``excess`` (one int per node id) in
        place, and return the nodes the positive excess left reaches through
        positive residual capacity, itself included, in BFS order: the source
        side of the minimal minimum cut. Only the excess of ``nodes`` counts,
        and no arc of positive capacity may leave them. It may start from any
        flow within the capacities, held in the residuals and matched in
        ``excess``."""
        head, cap, adj, dist, it = self.head, self.cap, self.adj, self.dist, self.it
        sources = [v for v in nodes if excess[v] > 0]
        sinks = [v for v in nodes if excess[v] < 0]
        while True:
            # Label nodes by residual distance from the excess: BFS from the
            # nodes with excess left over arcs with capacity, until a layer
            # holds a node with a deficit left.
            layer = [v for v in sources if excess[v] > 0]
            for v in layer:
                dist[v] = 1
            labelled = list(layer)
            d = 1
            found = False
            while layer and not found:
                d += 1
                reached = []
                for v in layer:
                    for e in adj[v]:
                        u = head[e]
                        if dist[u] < 0 and cap[e] > 0:
                            dist[u] = d
                            reached.append(u)
                            found = found or excess[u] < 0
                labelled += reached
                layer = reached
            if found:
                self.phases += 1
                # Blocking flow: from each node with a deficit at distance d, a
                # DFS back along arcs one label closer to the excess, so it
                # only enters nodes that some excess could still reach.
                for t in sinks:
                    if dist[t] == d and excess[t] < 0:
                        self._block(t, excess)
            for v in labelled:
                dist[v] = -1
                it[v] = 0
            if not found:
                return labelled

    def _block(self, t: int, excess: list[int]) -> None:
        """Pull into t along paths whose labels fall by one per step back from
        t until its deficit is gone or it is a dead end in this phase. A path
        holds the arcs out of its nodes, so the flow runs on their reverses."""
        head, cap, adj, dist, it = self.head, self.cap, self.adj, self.dist, self.it
        path: list[int] = []
        u = t
        while True:
            if dist[u] == 1:  # held excess when the phase began
                if excess[u] > 0:
                    push = min(-excess[t], excess[u], *(cap[e ^ 1] for e in path))
                    for e in path:
                        cap[e ^ 1] -= push
                        cap[e] += push
                    excess[t] += push
                    excess[u] -= push
                    if not excess[t]:
                        return
                    # Back up to the far end of the first saturated arc, if any.
                    for k, e in enumerate(path):
                        if not cap[e ^ 1]:
                            del path[k:]
                            u = head[path[-1]] if path else t
                            break
                    continue
            else:
                arcs, i, want = adj[u], it[u], dist[u] - 1
                m = len(arcs)
                while i < m:
                    e = arcs[i]
                    if cap[e ^ 1] > 0 and dist[head[e]] == want:
                        break
                    i += 1
                it[u] = i
                if i < m:
                    path.append(arcs[i])
                    u = head[arcs[i]]
                    continue
            dist[u] = -1  # dead end in this phase
            if u == t:
                return
            path.pop()
            u = head[path[-1]] if path else t


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
        bound = _real(self.slack_bound, "slack_bound", InvalidDemandSpecError)
        if not math.isfinite(bound) or self.slack_bound < 0.0:
            raise InvalidDemandSpecError("slack_bound must be a finite number >= 0")
        for i, b in self.injections.items():
            if not math.isfinite(_real(b, f"injection at node {i}", InvalidDemandSpecError)):
                raise InvalidDemandSpecError(f"injection at node {i} is not a finite number")


@dataclass(frozen=True)
class DemandWitness:
    """Feasible flow on the kept edges, in id order, in scaled integer units.

    ``edge_flows[k]`` is the signed flow on kept edge k: positive means the
    flow runs from the smaller endpoint to the larger one.
    """

    edge_flows: tuple[int, ...]
    scale: int


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


def _scaled_distinct(values: np.ndarray, others: Iterable):
    """``values * scale`` as an object array of exact ints, and the scale: the
    smallest that makes every value and every one of ``others`` an integer.
    Scales each distinct value once."""
    distinct = np.unique(values)
    scale = exact_scale([*distinct.tolist(), *others])
    ints = np.array([scaled(v, scale) for v in distinct.tolist()], dtype=object)
    return ints[np.searchsorted(distinct, values)], scale


def _instance(g: Graph, excluded: Iterable[Edge], spec: DemandSpec):
    """The flow question (g minus ``excluded``, ``spec``) in exact integers:
    the kept edge ids, their capacities, every node's injection (the ints in
    object arrays), the slack nodes' sorted ids, the slack bound and the
    smallest scale that makes every number an integer. Raises for a spec node
    outside 0..N-1."""
    n = g.node_count
    for what, nodes in (("injection", spec.injections), ("slack", spec.slack_nodes)):
        for i in nodes:
            if not 0 <= i < n:
                raise InvalidDemandSpecError(f"{what} node {i} outside 0..{n - 1}")
    keep = np.ones(g.edge_count, dtype=bool)
    keep[g.edge_ids(excluded)] = False
    kept = np.flatnonzero(keep)
    caps, scale = _scaled_distinct(g.weights[kept], [*spec.injections.values(), spec.slack_bound])
    b = np.zeros(n, dtype=object)
    for i, v in spec.injections.items():
        b[i] = scaled(v, scale)
    slack = np.array(sorted(spec.slack_nodes), dtype=np.int64)
    return kept, caps, b, slack, scaled(spec.slack_bound, scale), scale


def _at_scale(instance, scale):
    """An instance at another scale; None unless ``scale`` is a positive
    integer multiple of the smallest that makes all its numbers integers."""
    kept, caps, b, slack, k_scaled, own = instance
    try:
        scale = operator.index(scale)  # a float scale would make the checks float
    except TypeError:
        return None
    if scale == own:
        return instance
    needed = own // math.gcd(own, k_scaled, *set(caps.tolist()), *set(b.tolist()))
    if scale <= 0 or scale % needed:
        return None
    return kept, caps * scale // own, b * scale // own, slack, k_scaled * scale // own, scale


def _route(g: Graph, instance):
    """Max flow on an instance: the flow on each kept edge, in id order, when
    every injection is met; otherwise None, the minimal cut's nodes and kind."""
    kept, caps, b, slack, k_scaled, _ = instance
    n = g.node_count
    reservoir = n
    # Kept edge number p, and after them each slack node paired with the
    # reservoir, is arc pair p; the reservoir nets supply against demand.
    ii, jj = (ends[kept] for ends in g.endpoint_arrays())
    both = caps.tolist() + [k_scaled] * slack.size
    net = _Dinic(n + 1, np.concatenate([ii, slack]),
                 np.concatenate([jj, np.full(slack.size, reservoir)]), both, both)
    excess = b.tolist()
    excess.append(-sum(excess))
    reached = net.route(range(n + 1), excess)
    if not reached:  # no excess left
        cap, m = net.cap, 2 * kept.size  # edge p with flow f: W - f at 2p, W + f at 2p + 1
        return tuple((up - down) // 2 for down, up in zip(cap[0:m:2], cap[1:m:2])), None, None

    reachable = np.zeros(n + 1, dtype=bool)
    reachable[reached] = True
    # With the reservoir reached, take the complement side: the unreached
    # nodes must absorb more than can reach them.
    supply_side = not reachable[reservoir]
    nodes = np.flatnonzero(reachable[:n] == supply_side)
    return None, nodes, "supply-excess" if supply_side else "demand-excess"


def _cut(g: Graph, instance, nodes: np.ndarray, kind: str) -> CutCertificate:
    """The ``kind`` certificate of ``nodes`` (node ids in 0..N-1) on an
    instance: their total injection (negated for 'demand-excess'), and the
    kept capacity leaving them plus the slack bound per slack node in them."""
    kept, caps, b, slack, k_scaled, scale = instance
    inside = np.zeros(g.node_count, dtype=bool)
    inside[nodes] = True
    ii, jj = (ends[kept] for ends in g.endpoint_arrays())
    demand = (1 if kind == "supply-excess" else -1) * sum(b[inside])
    capacity = sum(caps[inside[ii] != inside[jj]]) + k_scaled * int(inside[slack].sum())
    return CutCertificate(kind, tuple(nodes.tolist()), demand, capacity, scale)


def _flow_verified(g: Graph, instance, edge_flows, scale) -> bool:
    """``verify_demand_witness`` on an instance: ``edge_flows`` at ``scale``."""
    instance = _at_scale(instance, scale)
    if instance is None:
        return False
    kept, caps, b, slack, k_scaled, _ = instance
    try:
        flows = list(map(operator.index, edge_flows))  # no float arithmetic
    except TypeError:
        return False
    if len(flows) != kept.size or any(abs(f) > c for f, c in zip(flows, caps)):
        return False
    rest = b.tolist()  # each node's injection minus its net outflow
    ii, jj = (ends[kept].tolist() for ends in g.endpoint_arrays())
    for i, j, f in zip(ii, jj, flows):
        rest[i] -= f
        rest[j] += f
    slack = set(slack.tolist())
    return all(abs(r) <= k_scaled if i in slack else r == 0 for i, r in enumerate(rest))


def _cut_verified(g: Graph, instance, cut: CutCertificate) -> bool:
    """``verify_cut_certificate`` on an instance."""
    instance = _at_scale(instance, cut.scale)
    nodes = _index_array(cut.nodes)  # None where an id is no integer
    if instance is None or nodes is None or ((nodes < 0) | (nodes >= g.node_count)).any():
        return False
    mine = _cut(g, instance, nodes, cut.kind)
    claimed = (cut.demand_scaled, cut.capacity_scaled)
    return claimed == (mine.demand_scaled, mine.capacity_scaled) and claimed[0] > claimed[1]


def feasible_flow(g: Graph, excluded: Iterable[Edge], spec: DemandSpec) -> FeasibilityResult:
    """Decide whether the graph minus ``excluded`` supports the demanded flow.

    Each kept edge {i,j} may carry up to W_ij in one direction of the
    solver's choosing. Returns a witness flow when feasible, otherwise a cut
    certificate proving infeasibility, both at the scale derived from the
    kept weights, the injections and the slack bound.
    """
    instance = _instance(g, excluded, spec)
    flows, nodes, kind = _route(g, instance)
    scale = instance[-1]
    if flows is not None:
        return FeasibilityResult(True, DemandWitness(flows, scale), None, scale)
    return FeasibilityResult(False, None, _cut(g, instance, nodes, kind), scale)


def verify_demand_witness(
    g: Graph, excluded: Iterable[Edge], spec: DemandSpec, witness: DemandWitness
) -> bool:
    """Re-verify a witness against the raw instance with integer arithmetic:
    a scale that makes every number of the instance an integer, one integer
    flow per kept edge within its capacity, and every node's net outflow equal
    to its injection, or within the slack bound of it at a slack node."""
    return _flow_verified(g, _instance(g, excluded, spec), witness.edge_flows, witness.scale)


def verify_cut_certificate(
    g: Graph, excluded: Iterable[Edge], spec: DemandSpec, cut: CutCertificate
) -> bool:
    """Re-verify that a cut certificate proves infeasibility, at a scale that
    makes every number of the instance an integer: the claimed demand and
    capacity are the nodes' own, and the demand exceeds the capacity. A cut
    node that is no integer in 0..N-1 fails it."""
    return _cut_verified(g, _instance(g, excluded, spec), cut)
