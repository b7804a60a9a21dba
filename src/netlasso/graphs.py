"""Weighted undirected graphs, graph signals, partitions and the TV semi-norm.

A graph signal is represented as a plain float64 numpy array of length
``graph.node_count``; :func:`as_signal` validates and coerces arbitrary
array-likes. Graphs, partitions and observations are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CoefficientCountMismatchError,
    DimensionMismatchError,
    DuplicateEdgeError,
    EdgeNotInGraphError,
    EmptySamplingSetError,
    GraphError,
    InvalidPartitionError,
    NodeOutOfRangeError,
    NonPositiveWeightError,
    SelfLoopError,
)

Edge = tuple[int, int]


def canonical_edge(i: int, j: int) -> Edge:
    """Return the unordered pair {i, j} with the smaller endpoint first."""
    if i == j:
        raise SelfLoopError(f"self loop at node {i}")
    return (i, j) if i < j else (j, i)


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


def endpoint_sums(n: int, ii: np.ndarray, jj: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per node, the sum of w over the edges (ii, jj) it ends, added in edge
    order (interleaved endpoints), as a loop of ``d[i] += w; d[j] += w`` would."""
    return np.bincount(np.stack([ii, jj], 1).ravel(), np.repeat(w, 2), minlength=n)


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


def as_signal(g: Graph, values) -> np.ndarray:
    """Validate an array-like as a signal on g (length N, finite, float64)."""
    x = np.asarray(values, dtype=np.float64)
    if x.shape != (g.node_count,):
        raise DimensionMismatchError(
            f"signal has shape {x.shape}, expected ({g.node_count},)"
        )
    if not np.all(np.isfinite(x)):
        raise DimensionMismatchError("signal contains non-finite values")
    return x


def tv(g: Graph, x) -> float:
    """Total variation: sum over edges {i,j} of W_ij * |x[j] - x[i]|."""
    x = as_signal(g, x)
    if not g.edges:
        return 0.0
    ii, jj = g.endpoint_arrays()
    return float(np.sum(g.weights * np.abs(x[jj] - x[ii])))


def tv_restricted(g: Graph, x, edge_subset: Iterable[Edge]) -> float:
    """Total variation restricted to a subset of the graph's edges."""
    x = as_signal(g, x)
    total = 0.0
    for e in edge_subset:
        k = g.edge_id(*e)
        i, j = g.edges[k]
        total += g.weights[k] * abs(x[j] - x[i])
    return float(total)


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of the nodes 0..N-1 by non-empty clusters."""

    clusters: tuple[frozenset[int], ...]
    labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        clusters = tuple(frozenset(c) for c in self.clusters)
        object.__setattr__(self, "clusters", clusters)
        if not clusters:
            raise InvalidPartitionError("partition has no clusters")
        n = 0
        for c in clusters:
            if not c:
                raise InvalidPartitionError("empty cluster")
            n += len(c)
        nodes = set().union(*clusters)
        if len(nodes) != n:
            raise InvalidPartitionError("clusters are not disjoint")
        if nodes != set(range(n)):
            raise InvalidPartitionError("clusters must cover exactly 0..N-1")
        labels = np.empty(n, dtype=np.intp)
        for c_idx, c in enumerate(clusters):
            for i in c:
                labels[i] = c_idx
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        labels = list(int(c) for c in labels)
        if not labels:
            raise InvalidPartitionError("no nodes")
        if min(labels) < 0:
            raise InvalidPartitionError("negative cluster index")
        k = max(labels) + 1
        if k > len(labels):
            raise InvalidPartitionError(
                f"empty cluster: cluster index {k - 1} with only {len(labels)} nodes"
            )
        clusters: list[set[int]] = [set() for _ in range(k)]
        for node, c in enumerate(labels):
            clusters[c].add(node)
        return cls(tuple(frozenset(c) for c in clusters))

    def check_against(self, g: Graph) -> None:
        if self.node_count != g.node_count:
            raise InvalidPartitionError(
                f"partition covers {self.node_count} nodes, graph has {g.node_count}"
            )


def boundary(g: Graph, partition: Partition) -> tuple[Edge, ...]:
    """Edges whose endpoints lie in different clusters, in canonical order."""
    partition.check_against(g)
    lab = partition.labels
    return tuple((i, j) for i, j in g.edges if lab[i] != lab[j])


def clustered_signal(partition: Partition, coefficients: Sequence[float]) -> np.ndarray:
    """Signal taking the value coefficients[c] on every node of cluster c."""
    coeffs = np.asarray(coefficients, dtype=np.float64)
    if coeffs.shape != (partition.cluster_count,):
        raise CoefficientCountMismatchError(
            f"{coeffs.shape[0] if coeffs.ndim == 1 else 'bad'} coefficients "
            f"for {partition.cluster_count} clusters"
        )
    return coeffs[partition.labels].astype(np.float64)


@dataclass(frozen=True)
class OrientedEdge:
    """A directed version of an undirected edge: flow runs tail -> head."""

    tail: int
    head: int
    weight: float

    def __post_init__(self):
        if self.tail == self.head:
            raise SelfLoopError(f"oriented self loop at node {self.head}")

    @property
    def pair(self) -> Edge:
        return canonical_edge(self.tail, self.head)


def orient_edges(g: Graph, edge_subset: Sequence[Edge], bits: int) -> tuple[OrientedEdge, ...]:
    """Orient an edge subset by a bitmask.

    Bit k clear: edge (i, j) with i < j runs i -> j; bit set: j -> i.
    Weights are carried over from the graph unchanged.
    """
    oriented = []
    for k, e in enumerate(edge_subset):
        w = g.weights[g.edge_id(*e)]
        i, j = canonical_edge(*e)
        if bits >> k & 1:
            oriented.append(OrientedEdge(tail=j, head=i, weight=float(w)))
        else:
            oriented.append(OrientedEdge(tail=i, head=j, weight=float(w)))
    return tuple(oriented)


@dataclass(frozen=True)
class Observations:
    """Noisy labels y_i = x[i] + eps_i observed on a sampling set.

    ``nodes`` is sorted and duplicate-free; ``y`` and ``eps`` are aligned
    with it. ``eps`` holds the realized noise so the l1 noise mass used by
    the error bound is exactly computable: y - x_true == eps bit-for-bit.
    """

    nodes: tuple[int, ...]
    y: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        nodes = tuple(int(i) for i in self.nodes)
        if not nodes:
            raise EmptySamplingSetError("sampling set is empty")
        if len(set(nodes)) != len(nodes) or list(nodes) != sorted(nodes):
            raise EmptySamplingSetError("sampling nodes must be sorted and unique")
        if nodes[0] < 0:
            raise NodeOutOfRangeError(f"negative sampling node {nodes[0]}")
        object.__setattr__(self, "nodes", nodes)
        y = np.array(self.y, dtype=np.float64)
        eps = np.array(self.eps, dtype=np.float64)
        if y.shape != (len(nodes),) or eps.shape != (len(nodes),):
            raise DimensionMismatchError("labels/noise must align with sampling nodes")
        for arr, name in ((y, "y"), (eps, "eps")):
            if not np.all(np.isfinite(arr)):
                raise DimensionMismatchError(f"non-finite values in {name}")
            arr.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "eps", eps)

    @property
    def sample_count(self) -> int:
        return len(self.nodes)

    def noise_l1(self) -> float:
        """Realized l1 noise mass sum_i |eps_i|."""
        return float(np.sum(np.abs(self.eps)))


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
