"""The graph core as it was before it moved to edge arrays.

``graphs.Graph`` verbatim from that version, with its per-edge validation
loop, tuple-of-tuples adjacency and edge-index dict, plus ``validate_graph``
(Python ``sorted``), ``boundary`` and the two BFS connectivity functions.
Tests pit the array-built graph against it.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from netlasso.errors import (
    DuplicateEdgeError,
    EdgeNotInGraphError,
    GraphError,
    NodeOutOfRangeError,
    NonPositiveWeightError,
    SelfLoopError,
)
from netlasso.graphs import Edge, Partition, canonical_edge, endpoint_sums


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with strictly positive edge weights.

    Nodes are the dense integers 0..node_count-1. Edges are stored
    canonically (smaller endpoint first) in sorted order; ``weights[k]`` is
    the weight of ``edges[k]``. Adjacency lists are precomputed for O(deg)
    neighbor iteration.
    """

    node_count: int
    edges: tuple[Edge, ...]
    weights: np.ndarray
    _adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    _edge_index: dict[Edge, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.node_count
        if n <= 0:
            raise GraphError("node_count must be positive")
        weights = np.array(self.weights, dtype=np.float64)  # own copy, frozen below
        if weights.shape != (len(self.edges),):
            raise GraphError("one weight per edge required")
        bad = ~((weights > 0.0) & (weights < np.inf))
        if bad.any():
            k = int(np.argmax(bad))
            raise NonPositiveWeightError(
                f"edge {self.edges[k]} needs a finite positive weight, got {weights[k]}", k
            )
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        index: dict[Edge, int] = {}
        for k, (i, j) in enumerate(self.edges):
            if not 0 <= i < j < n:
                if i == j:
                    raise SelfLoopError(f"self loop at node {i}", k)
                if not (0 <= i < n and 0 <= j < n):
                    raise NodeOutOfRangeError(f"edge ({i}, {j}) outside 0..{n - 1}", k)
                raise GraphError(f"edge ({i}, {j}) not in canonical order", k)
            e = (i, j)
            if e in index:
                raise DuplicateEdgeError(f"duplicate edge {e}", k)
            index[e] = k
            adj[i].append((j, k))
            adj[j].append((i, k))
        object.__setattr__(self, "_adjacency", tuple(tuple(a) for a in adj))
        object.__setattr__(self, "_edge_index", index)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, i: int) -> tuple[tuple[int, int], ...]:
        """Pairs (neighbor, edge_index) incident to node i."""
        return self._adjacency[i]

    def edge_id(self, i: int, j: int) -> int:
        e = canonical_edge(i, j)
        try:
            return self._edge_index[e]
        except KeyError:
            raise EdgeNotInGraphError(f"edge {e} not in graph") from None

    def weight(self, i: int, j: int) -> float:
        return float(self.weights[self.edge_id(i, j)])

    def degree(self, i: int) -> int:
        return len(self._adjacency[i])

    def weighted_degrees(self) -> np.ndarray:
        return endpoint_sums(self.node_count, *self.endpoint_arrays(), self.weights)

    def endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two int arrays (canonical i < j)."""
        if not self.edges:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty.copy()
        arr = np.asarray(self.edges, dtype=np.intp)
        return arr[:, 0], arr[:, 1]


def validate_graph(
    raw_edges: Iterable[Sequence[int]],
    raw_weights: Iterable[float],
    node_count: int,
) -> Graph:
    """Build a Graph from raw edge/weight lists, in any order and orientation.

    Each pair is put smaller endpoint first and the edges are stably sorted;
    the Graph checks them. Raises SelfLoopError, DuplicateEdgeError (also for
    a pair given in both orders), NonPositiveWeightError or
    NodeOutOfRangeError, whose ``index`` is the position in ``raw_edges`` of
    the offending edge (for a repeated pair, of the later copy).
    """
    raw_edges = list(raw_edges)
    raw_weights = list(raw_weights)
    if len(raw_edges) != len(raw_weights):
        raise GraphError("edge and weight counts differ")
    pairs = [(i, j) if i <= j else (j, i) for i, j in ((int(a), int(b)) for a, b in raw_edges)]
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    weights = np.array([raw_weights[k] for k in order], dtype=np.float64)
    try:
        return Graph(node_count, tuple(pairs[k] for k in order), weights)
    except GraphError as exc:
        if exc.index is not None:
            exc.index = order[exc.index]
        raise


def boundary(g: Graph, partition: Partition) -> tuple[Edge, ...]:
    """Edges whose endpoints lie in different clusters, in canonical order."""
    partition.check_against(g)
    lab = partition.labels
    return tuple((i, j) for i, j in g.edges if lab[i] != lab[j])


def connected_components(g: Graph) -> list[set[int]]:
    """Connected components via BFS, each returned as a set of nodes."""
    seen = [False] * g.node_count
    comps = []
    for start in range(g.node_count):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, _ in g.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    comp.add(v)
                    queue.append(v)
        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def subgraph_is_connected(g: Graph, nodes: set[int]) -> bool:
    """Whether the induced subgraph on ``nodes`` is connected (True if empty)."""
    if not nodes:
        return True
    start = next(iter(nodes))
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v, _ in g.neighbors(u):
            if v in nodes and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen == nodes
