"""Sampling-set construction: boundary-aware greedy and uniform random."""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import BudgetExceedsNodesError, _integer, _seed
from .graphs import Graph, Partition, boundary_mask, endpoint_sums, heaviest_edges


def _check_budget(g: Graph, budget: int) -> int:
    budget = _integer(budget, "budget")
    if not 1 <= budget <= g.node_count:
        raise BudgetExceedsNodesError(
            f"budget {budget} outside 1..{g.node_count}"
        )
    return budget


# Per-pick discount applied to a node's boundary-incidence score for every
# sample its cluster already holds; spreads the budget across clusters in
# proportion to their boundary mass instead of exhausting one cluster first.
SATURATION_DISCOUNT = 0.5


def sample_boundary_aware(g: Graph, partition: Partition, budget: int) -> tuple[int, ...]:
    """Deterministically pick nodes that pin down cluster boundaries.

    Greedy: repeatedly take the node with the highest incident boundary
    weight, discounted by SATURATION_DISCOUNT for each sample its cluster
    already received. Ties fall back to the node's strongest in-cluster
    edge to a boundary endpoint (the support edge the sufficient
    certificate condition needs), then descending weighted degree, then
    smallest node id. Nodes touching no boundary therefore enter in
    support-weight order, and once the boundary is exhausted the remaining
    budget fills by weighted degree, so a single-cluster partition reduces
    to a pure weighted-degree ranking.

    A pick changes only its own cluster's discount, so a heap holds each
    cluster's best (score, rank) and a pick costs O(log clusters): the same
    picks as a first-minimum scan over every node, in O(N log N) in all.
    """
    budget = _check_budget(g, budget)
    cross = boundary_mask(g, partition)
    lab = partition.labels
    ii, jj = g.endpoint_arrays()
    cross_weight = endpoint_sums(g.node_count, ii[cross], jj[cross], g.weights[cross])
    # strongest in-cluster edge to a boundary endpoint (weights > 0: endpoints only)
    support = heaviest_edges(g, ~cross, cross_weight > 0.0)

    # Key: (-cross_weight * cluster discount, -support, -weighted degree, id). Nodes are
    # ranked once by the last three; a pick is the first minimum of the first by rank.
    order = np.lexsort((-g.weighted_degrees(), -support))
    neg_cross = -cross_weight[order]
    order_lab = lab[order]

    # Positions: the ranks by cluster, then by (neg_cross, rank). A cluster's discount
    # scales all its scores and rounding is monotone, so its first alive position has
    # its least score; only a later run of neg_cross whose score rounds to the same
    # value (subnormal, or a discount of 0.0) can hold a smaller rank.
    n = g.node_count
    by = np.lexsort((neg_cross, order_lab))
    nc, by_lab = neg_cross[by], order_lab[by]
    sizes = np.bincount(order_lab, minlength=partition.cluster_count)
    ends = np.cumsum(sizes)
    runs = np.ones(n, dtype=bool)
    runs[1:] = (by_lab[1:] != by_lab[:-1]) | (nc[1:] != nc[:-1])
    starts = np.flatnonzero(runs)
    after = np.append(starts[1:], n)[np.cumsum(runs) - 1]  # the next run's first position
    after[after == ends[by_lab]] = n  # past a cluster's last run: the sentinel below
    after, ranks, nodes, labels = after.tolist(), by.tolist(), order[by].tolist(), by_lab.tolist()
    scores = nc.tolist() + [math.inf]  # inf * discount ties no score
    alive = bytearray(b"\1") * n
    first = (ends - sizes).tolist()
    ends, sizes = ends.tolist(), sizes.tolist()

    def head(c: int, discount: float) -> tuple[float, int, int]:
        """(score, rank, position) of the pick that cluster c offers at discount."""
        p = first[c]
        while not alive[p]:
            p += 1
        first[c] = p
        v = scores[p] * discount
        if scores[after[p]] * discount == v:  # rounded to a tie with a later run
            seg = slice(p, ends[c])
            ties = np.flatnonzero(np.frombuffer(alive, bool)[seg] & (nc[seg] * discount == v))
            p += int(ties[np.argmin(by[seg][ties])])
        elif v != v:  # -inf * 0.0 is nan, which argmin takes first: key it below -inf
            return -math.inf, ranks[p] - n, p
        return v, ranks[p], p

    heap = [head(c, 1.0) for c in range(partition.cluster_count)]
    heapq.heapify(heap)
    cluster_counts = [0] * partition.cluster_count
    chosen: list[int] = []
    for _ in range(budget):
        p = heap[0][2]
        alive[p] = 0
        chosen.append(nodes[p])
        c = labels[p]
        cluster_counts[c] += 1
        if cluster_counts[c] == sizes[c]:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, head(c, SATURATION_DISCOUNT ** cluster_counts[c]))
    return tuple(sorted(chosen))


def sample_uniform(g: Graph, budget: int, seed: int) -> tuple[int, ...]:
    """Budget-many distinct nodes drawn uniformly without replacement."""
    budget = _check_budget(g, budget)
    rng = np.random.default_rng(_seed(seed))
    nodes = rng.choice(g.node_count, size=budget, replace=False)
    return tuple(sorted(int(i) for i in nodes))
