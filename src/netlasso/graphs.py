"""Weighted undirected graphs, graph signals, partitions and the TV semi-norm.

A graph signal is represented as a plain float64 numpy array of length
``graph.node_count``; :func:`as_signal` validates and coerces arbitrary
array-likes. Graphs, partitions and observations are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain
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
    _integer,
)

Edge = tuple[int, int]


def canonical_edge(i: int, j: int) -> Edge:
    """Return the unordered pair {i, j} with the smaller endpoint first."""
    if i == j:
        raise SelfLoopError(f"self loop at node {i}")
    return (i, j) if i < j else (j, i)


class _ByValue:
    """Equality and hash over the dataclass fields, with arrays as their bytes."""

    def _key(self):
        values = (getattr(self, f.name) for f in fields(self) if f.compare)
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False, init=False)
class Graph(_ByValue):
    """Simple undirected graph with strictly positive edge weights.

    Nodes are the dense integers 0..node_count-1. Edges, given as pairs or
    as a ``(2, m)`` integer array, are stored canonically (smaller endpoint
    first; ``validate_graph`` sorts them) as one read-only ``(2, m)`` int
    array, from which the checks, connectivity and edge lookups derive;
    ``weights[k]`` is the weight of edge k. ``g.edges`` reads the edges as a
    tuple of Python-int pairs. Equal graphs have equal node counts, edges
    and weights.
    """

    node_count: int
    _ends: np.ndarray
    weights: np.ndarray

    def __init__(self, node_count: int, edges, weights):
        # as the generated __init__ would, with the edges as given in _ends
        self.__dict__.update(node_count=node_count, _ends=edges, weights=weights)
        self.__post_init__()

    def __post_init__(self):
        n = _integer(self.node_count, "node_count", GraphError)
        if n <= 0:
            raise GraphError("node_count must be positive")
        edges = self._ends
        edges = _edge_array(edges) if isinstance(edges, np.ndarray) else tuple(edges)
        m = edges.shape[1] if isinstance(edges, np.ndarray) else len(edges)
        weights = _float_weights(self.weights)  # own copy, frozen below
        if weights.shape != (m,):
            raise GraphError("one weight per edge required")
        bad = ~((weights > 0.0) & (weights < np.inf))
        if bad.any():
            k = int(np.argmax(bad))
            raise NonPositiveWeightError(
                f"edge {_edge_at(edges, k)} needs a finite positive weight, got {weights[k]}", k
            )
        ends = edges if isinstance(edges, np.ndarray) else _node_ids(edges)
        ii, jj = ends
        bad = (ii < 0) | (ii >= jj) | (jj >= n)
        keys, order = _pair_keys(ends.T), None  # order: the edge ids by key, if not 0..m-1
        if not _increasing(ends):
            order = np.argsort(keys, kind="stable")  # a repeated pair's later copies follow it
            keys = keys[order]
            bad[order[1:]] |= keys[1:] == keys[:-1]
        _raise_first(edges, bad, n)
        ends.flags.writeable = weights.flags.writeable = False
        self.__dict__.update(node_count=n, _ends=ends, weights=weights, _keys=keys, _order=order)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """All edges as a tuple of Python-int pairs, built on first read."""
        return self.pairs(slice(None))

    def pairs(self, which) -> tuple[Edge, ...]:
        """The edges ``which`` selects (a mask, ids or a slice) as Python-int pairs."""
        ii, jj = self._ends[:, which].tolist()
        return tuple(zip(ii, jj))

    @property
    def edge_count(self) -> int:
        return self._ends.shape[1]

    def edge_ids(self, pairs) -> np.ndarray:
        """Ids of the edges {i, j} in ``pairs``, by one binary search over the sorted keys.
        Raises SelfLoopError or EdgeNotInGraphError for the first pair that is no edge."""
        pairs = list(pairs)
        keys, wanted = self._keys, _pair_keys(np.sort(_node_ids(pairs).T, axis=1))
        at = np.searchsorted(keys, wanted, "right") - 1  # the last key <= each wanted one
        found = keys[at] == wanted if keys.size else np.zeros(at.shape, bool)
        if not found.all():
            e = canonical_edge(*pairs[int(np.argmin(found))])
            raise EdgeNotInGraphError(f"edge {e} not in graph")
        return at if self._order is None else self._order[at]

    def edge_id(self, i: int, j: int) -> int:
        return int(self.edge_ids([(i, j)])[0])

    def weight(self, i: int, j: int) -> float:
        return float(self.weights[self.edge_id(i, j)])

    def weighted_degrees(self) -> np.ndarray:
        return endpoint_sums(self.node_count, *self.endpoint_arrays(), self.weights)

    def endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two read-only int arrays (canonical i < j)."""
        return self._ends[0], self._ends[1]


def _float_weights(raw) -> np.ndarray:
    """A new float64 array of raw. An entry that is not a number (a string)
    becomes nan, and an int beyond the float range becomes +-inf, so the
    weight check rejects them at their position."""
    values = np.asarray(raw)
    if values.dtype.kind in "biuf":
        return np.array(values, np.float64)
    return np.array([_float(v) for v in np.asarray(raw, dtype=object).flat], np.float64)


def _float(v) -> float:
    try:
        return math.nan if isinstance(v, (str, bytes)) else float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf
    except (TypeError, ValueError):
        return math.nan


_NOT_AN_ID = np.iinfo(np.int64).min  # below every node id, so every check rejects it


def _node_id(v) -> int:
    v = operator.index(v) if hasattr(v, "__index__") else _NOT_AN_ID
    return v if _NOT_AN_ID < v < -_NOT_AN_ID else _NOT_AN_ID


def _index_array(values) -> np.ndarray | None:
    """``values`` as an int64 array, or None where ``operator.index`` rejects
    one or int64 cannot hold it."""
    try:
        return np.fromiter(map(operator.index, values), np.int64)
    except (TypeError, OverflowError):
        return None


def _node_ids(edges) -> np.ndarray:
    """Endpoints of ``edges`` as a ``(2, m)`` int64 array, with _NOT_AN_ID
    for an id that ``operator.index`` rejects or int64 cannot hold."""
    ids = _index_array(chain.from_iterable(edges)) if set(map(len, edges)) <= {2} else None
    if ids is None:
        ids = [[_node_id(i), _node_id(j)] for i, j in edges]
    return np.asarray(ids, np.int64).reshape(-1, 2).T.copy()


def _increasing(ends: np.ndarray) -> bool:
    """Whether the (i, j) pairs of a ``(2, m)`` array strictly increase."""
    ii, jj = ends
    return bool(((ii[1:] > ii[:-1]) | (ii[1:] == ii[:-1]) & (jj[1:] > jj[:-1])).all())


def _pair_keys(rows: np.ndarray) -> np.ndarray:
    """Each (i, j) row as 16 big-endian bytes, which sort as pairs of ids >= 0 do."""
    return np.ascontiguousarray(rows, ">i8").view("S16").ravel()


def _edge_array(edges: np.ndarray) -> np.ndarray:
    """A new int64 copy of a ``(2, m)`` array of integer node ids."""
    if edges.ndim != 2 or edges.shape[0] != 2 or not np.can_cast(edges.dtype, np.int64):
        raise GraphError(
            f"an edge array must be (2, m) with integer ids, got {edges.shape} {edges.dtype}"
        )
    return edges.astype(np.int64)


def _edge_at(edges, k: int):
    """Edge k of pairs or of a ``(2, m)`` array, as given."""
    return tuple(edges[:, k].tolist()) if isinstance(edges, np.ndarray) else edges[k]


def _raise_first(edges, bad: np.ndarray, n: int) -> None:
    """Raise the error of the first edge that ``bad`` marks, if any."""
    if not bad.any():
        return
    k = int(np.argmax(bad))
    i, j = edge = _edge_at(edges, k)
    if not (hasattr(i, "__index__") and hasattr(j, "__index__")):
        raise GraphError(f"edge {edge} has a node id that is not an integer", k)
    if i == j:
        raise SelfLoopError(f"self loop at node {i}", k)
    if not (0 <= i < n and 0 <= j < n):
        raise NodeOutOfRangeError(f"edge ({i}, {j}) outside 0..{n - 1}", k)
    if i > j:
        raise GraphError(f"edge ({i}, {j}) not in canonical order", k)
    raise DuplicateEdgeError(f"duplicate edge {(i, j)}", k)


def endpoint_sums(n: int, ii: np.ndarray, jj: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per node, the sum of w over the edges (ii, jj) it ends, added in edge
    order (interleaved endpoints), as a loop of ``d[i] += w; d[j] += w`` would."""
    return np.bincount(np.stack([ii, jj], 1).ravel(), np.repeat(w, 2), minlength=n)


def heaviest_edges(g: Graph, among: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Per node, the weight of its heaviest edge in ``among`` to a node in ``marked``, or -inf."""
    heaviest = np.full(g.node_count, -np.inf)
    for near, far in (g._ends, g._ends[::-1]):
        hit = among & marked[near]
        np.maximum.at(heaviest, far[hit], g.weights[hit])
    return heaviest


def validate_graph(
    raw_edges: Iterable[Sequence[int]],
    raw_weights: Iterable[float],
    node_count: int,
) -> Graph:
    """Build a Graph from raw edge/weight lists, in any order and orientation.

    The edges are pairs or, as ``Graph`` takes them, a ``(2, m)`` integer
    array. Each pair is put smaller endpoint first and the edges are stably
    sorted unless they already strictly increase; the Graph checks them.
    Raises SelfLoopError, DuplicateEdgeError (also for a pair given in both
    orders), NonPositiveWeightError or NodeOutOfRangeError, whose ``index``
    is the position in ``raw_edges`` of the offending edge (for a repeated
    pair, of the later copy). Ids that are not integers (GraphError) or
    exceed int64 (NodeOutOfRangeError) come first.
    """
    node_count = _integer(node_count, "node_count", GraphError)
    if isinstance(raw_edges, np.ndarray):
        ends = _edge_array(raw_edges)
        edge_count = ends.shape[1]
    else:
        raw_edges = list(raw_edges)
        edge_count = len(raw_edges)
    if not isinstance(raw_weights, np.ndarray):
        raw_weights = list(raw_weights)
    if edge_count != len(raw_weights):
        raise GraphError("edge and weight counts differ")
    if isinstance(raw_edges, list):
        ends = _node_ids(raw_edges)
        _raise_first(raw_edges, (ends == _NOT_AN_ID).any(axis=0), node_count)
    ends.sort(axis=0)
    if _increasing(ends):  # as every file write_graph writes
        return Graph(node_count, ends, raw_weights)
    order = np.lexsort(ends[::-1])
    weights = _float_weights(raw_weights)[order]
    try:
        return Graph(node_count, ends[:, order], weights)
    except GraphError as exc:
        if exc.index is not None:
            exc.index = int(order[exc.index])
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
    ii, jj = g.endpoint_arrays()
    return float(np.sum(g.weights * np.abs(x[jj] - x[ii])))


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
        sizes = [*map(len, clusters)]
        if not all(sizes):
            raise InvalidPartitionError("empty cluster")
        nodes = _index_array(chain(*clusters))
        if nodes is None:
            raise InvalidPartitionError("cluster node ids must be int64 integers")
        n = nodes.size
        if np.unique(nodes).size != n:
            raise InvalidPartitionError("clusters are not disjoint")
        if nodes.min() < 0 or nodes.max() >= n:
            raise InvalidPartitionError("clusters must cover exactly 0..N-1")
        labels = np.empty(n, dtype=np.intp)
        labels[nodes] = np.repeat(np.arange(len(clusters)), sizes)
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
        labels = _index_array(labels)
        if labels is None:
            raise InvalidPartitionError("cluster indices must be int64 integers")
        if not labels.size:
            raise InvalidPartitionError("no nodes")
        if labels.min() < 0:
            raise InvalidPartitionError("negative cluster index")
        k = int(labels.max()) + 1
        if k > labels.size:
            raise InvalidPartitionError(
                f"empty cluster: cluster index {k - 1} with only {labels.size} nodes"
            )
        nodes = np.argsort(labels, kind="stable").tolist()
        ends = np.bincount(labels, minlength=k).cumsum().tolist()
        return cls(tuple(frozenset(nodes[a:b]) for a, b in zip([0, *ends], ends)))

    def check_against(self, g: Graph) -> None:
        if self.node_count != g.node_count:
            raise InvalidPartitionError(
                f"partition covers {self.node_count} nodes, graph has {g.node_count}"
            )


def boundary_mask(g: Graph, partition: Partition) -> np.ndarray:
    """Per edge, whether its endpoints lie in different clusters."""
    partition.check_against(g)
    ii, jj = g.endpoint_arrays()
    return partition.labels[ii] != partition.labels[jj]


def boundary(g: Graph, partition: Partition) -> tuple[Edge, ...]:
    """Edges whose endpoints lie in different clusters, in canonical order."""
    return g.pairs(boundary_mask(g, partition))


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
    """Orient an edge subset by a bitmask: bit k clear runs edge k, (i, j) with
    i < j, as i -> j, bit set as j -> i. Weights are carried over unchanged."""
    ids = g.edge_ids(edge_subset)
    arcs = zip(*g._ends[:, ids].tolist(), g.weights[ids].tolist())
    return tuple(
        OrientedEdge(j, i, w) if bits >> k & 1 else OrientedEdge(i, j, w)
        for k, (i, j, w) in enumerate(arcs)
    )


@dataclass(frozen=True, eq=False)
class Observations(_ByValue):
    """Noisy labels y_i = x[i] + eps_i observed on a sampling set.

    ``nodes`` is sorted and duplicate-free; ``y`` and ``eps`` are aligned
    with it. ``eps`` holds the realized noise so the l1 noise mass used by
    the error bound is exactly computable: y - x_true == eps bit-for-bit.
    """

    nodes: tuple[int, ...]
    y: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        try:
            nodes = tuple(map(operator.index, self.nodes))
        except TypeError:
            raise NodeOutOfRangeError("a sampling node id is not an integer") from None
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


def component_roots(node_count: int, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Per node, the smallest node of its component in the graph with edges
    (ii, jj): hook every tree root under the smallest root it has an edge to,
    point every node at its root by pointer jumping, and repeat until no edge
    joins two trees (Shiloach & Vishkin 1982)."""
    root = np.arange(node_count)
    while True:
        ri, rj = root[ii], root[jj]
        cross = ri != rj
        if not cross.any():
            return root
        np.minimum.at(root, np.maximum(ri, rj)[cross], np.minimum(ri, rj)[cross])
        while not np.array_equal(up := root[root], root):
            root = up


def is_connected(g: Graph) -> bool:
    return not component_roots(g.node_count, *g.endpoint_arrays()).any()
