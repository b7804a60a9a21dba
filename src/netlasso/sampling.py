"""Sampling-set construction: boundary-aware greedy and uniform random."""

from __future__ import annotations

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
    alive = np.ones(g.node_count, dtype=bool)
    discount = np.ones(partition.cluster_count)
    cluster_counts = [0] * partition.cluster_count
    chosen: list[int] = []
    while len(chosen) < budget:
        k = int(np.argmin(np.where(alive, neg_cross * discount[order_lab], np.inf)))
        alive[k] = False
        chosen.append(int(order[k]))
        c = order_lab[k]
        cluster_counts[c] += 1
        discount[c] = SATURATION_DISCOUNT ** cluster_counts[c]
    return tuple(sorted(chosen))


def sample_uniform(g: Graph, budget: int, seed: int) -> tuple[int, ...]:
    """Budget-many distinct nodes drawn uniformly without replacement."""
    budget = _check_budget(g, budget)
    rng = np.random.default_rng(_seed(seed))
    nodes = rng.choice(g.node_count, size=budget, replace=False)
    return tuple(sorted(int(i) for i in nodes))
