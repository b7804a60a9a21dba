"""The boundary-aware sampler as it was before its pick loop kept a heap of
per-cluster heads: one numpy ``argmin`` over every node per pick, O(budget·N).

``sample_boundary_aware`` verbatim from that version, with its own
``SATURATION_DISCOUNT`` so a test can change both. Tests pit the heap-built
sampler against it.
"""

import numpy as np

from netlasso.graphs import Graph, Partition, boundary_mask, endpoint_sums, heaviest_edges
from netlasso.sampling import _check_budget

SATURATION_DISCOUNT = 0.5


def sample_boundary_aware(g: Graph, partition: Partition, budget: int) -> tuple[int, ...]:
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
