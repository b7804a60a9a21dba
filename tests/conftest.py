import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from netlasso.flow import _Dinic
from netlasso.graphs import Graph, Observations, Partition, validate_graph

# What no integer or real setting or query takes, each with its own error class;
# a real one also refuses 10**400, which no float holds.
NOT_NUMBERS = (True, False, "1", None)

# The benchmark's HiGHS LP for the l1/TV optimum; it imports nothing from netlasso.
_spec = importlib.util.spec_from_file_location(
    "perfbench_reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
)
_reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_reference)


def lp_optimum(g: Graph, obs: Observations, lam: float) -> float:
    """Optimal l1/TV objective of (g, obs, lam) by linear programming."""
    ii, jj = g.endpoint_arrays()
    return _reference.l1tv_lp_optimum(
        g.node_count, np.stack([ii, jj], 1), g.weights, obs.nodes, obs.y, lam
    )


@pytest.fixture
def path2() -> Graph:
    return validate_graph([(0, 1)], [1.0], 2)


@pytest.fixture
def path4() -> Graph:
    return validate_graph([(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0], 4)


@pytest.fixture
def triangle() -> Graph:
    return validate_graph([(0, 1), (0, 2), (1, 2)], [2.0, 1.0, 1.0], 3)


@pytest.fixture
def two_cluster_fixture():
    """Minimal two-cluster instance: samples m=0, n=3 flank one boundary edge.

    Nodes m=0, i=1, j=2, n=3; edges {0,1} w=4, {1,2} w=1 (the boundary),
    {2,3} w=4; clusters {0,1} and {2,3}.
    """
    g = validate_graph([(0, 1), (1, 2), (2, 3)], [4.0, 1.0, 4.0], 4)
    partition = Partition((frozenset({0, 1}), frozenset({2, 3})))
    samples = (0, 3)
    return g, partition, samples


def random_connected_graph(rng: np.random.Generator, n: int, extra_edge_prob: float = 0.4,
                           w_lo: float = 0.5, w_hi: float = 2.0) -> Graph:
    """Random spanning tree plus extra edges; weights uniform in [w_lo, w_hi]."""
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(w_lo, w_hi))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges[(i, j)] = float(rng.uniform(w_lo, w_hi))
    keys = sorted(edges)
    return validate_graph(keys, [edges[e] for e in keys], n)


@dataclass(frozen=True)
class Network:
    """Directed arcs (u, v, capacity) on nodes 0..node_count-1; parallel arcs permitted."""

    node_count: int
    arcs: tuple[tuple[int, int, float], ...]


class AddArcDinic(_Dinic):
    """The max-flow kernel, built one ``add_arc`` call at a time (the method
    its array constructor replaced, verbatim)."""

    def __init__(self, n: int):
        super().__init__(n, [], [], [], [])

    def add_arc(self, u: int, v: int, capacity: int, reverse: int = 0) -> int:
        """Arc u -> v paired with v -> u of capacity ``reverse`` (an undirected
        edge when both are equal); returns the forward arc's id."""
        arc_id = len(self.head)
        self.head.append(v)
        self.cap.append(capacity)
        self.head.append(u)
        self.cap.append(reverse)
        self.adj[u].append(arc_id)
        self.adj[v].append(arc_id + 1)
        return arc_id


def st_max_flow(net, s: int, t: int) -> tuple[int, set[int]]:
    """A maximum s-t flow on a kernel network, left in its residual capacities,
    by excess routing: s starts with one more excess than the capacity leaving
    it and t with one more deficit than the capacity entering it, so neither
    runs out and ``route`` moves exactly a maximum flow. Returns its value and
    the set ``route`` returns: the nodes s reaches through positive residual
    capacity, s included."""
    nodes = range(len(net.adj))
    excess = [0] * len(net.adj)
    excess[s] = start = sum(net.cap[e] for e in net.adj[s]) + 1
    excess[t] = -sum(net.cap[e ^ 1] for e in net.adj[t]) - 1
    reached = net.route(nodes, excess)
    return start - excess[s], set(reached)


def brute_force_min_cut(net: Network, s: int, t: int, scale: int) -> int:
    """Minimum s-t cut by enumerating every side assignment of the other nodes."""
    others = [v for v in range(net.node_count) if v not in (s, t)]
    best = None
    for mask in range(1 << len(others)):
        side = {s}
        for pos, v in enumerate(others):
            if mask >> pos & 1:
                side.add(v)
        cap = sum(
            int(round(c * scale))
            for u, v, c in net.arcs
            if u in side and v not in side
        )
        best = cap if best is None else min(best, cap)
    return best
