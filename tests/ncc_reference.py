"""Reference NCC verdict by enumerating every boundary orientation, and the
sufficient support condition as a loop over each boundary endpoint's neighbors.

Independent of ``certify.check_ncc``: each orientation is one exact
``feasible_flow`` query whose injections (+L*W at the head of a boundary
arc, -L*W at its tail) are built here as exact ``Fraction`` products, not
rounded float ones. Exponential in the boundary size, so only for small
instances.
"""

from collections import defaultdict
from fractions import Fraction

import graph_reference
from netlasso.certify import SupportConditionResult
from netlasso.flow import DemandSpec, feasible_flow
from netlasso.graphs import boundary, orient_edges


def orientation_spec(query, bits: int) -> DemandSpec:
    """The demand the interior edges must meet for orientation ``bits`` of the
    boundary: a boundary arc tail -> head carrying L*W leaves net outflow +L*W
    at its head and -L*W at its tail for the interior to carry back."""
    g = query.graph
    injections = defaultdict(Fraction)
    for arc in orient_edges(g, boundary(g, query.partition), bits):
        flow = Fraction(query.L) * Fraction(arc.weight)
        injections[arc.head] += flow
        injections[arc.tail] -= flow
    return DemandSpec(injections, frozenset(query.sample_nodes), query.K)


def supply_spec(query) -> DemandSpec:
    """The demand of all orientations at once: each boundary edge supplies
    L*W at both of its endpoints, for the interior to carry to the samples."""
    g = query.graph
    injections = defaultdict(Fraction)
    for arc in orient_edges(g, boundary(g, query.partition), 0):
        flow = Fraction(query.L) * Fraction(arc.weight)
        injections[arc.head] += flow
        injections[arc.tail] += flow
    return DemandSpec(injections, frozenset(query.sample_nodes), query.K)


def orientation_feasible(query, bits: int) -> bool:
    """Whether the interior can carry the boundary flow of orientation ``bits``."""
    g = query.graph
    return feasible_flow(g, boundary(g, query.partition), orientation_spec(query, bits)).feasible


def reference_verdict(query) -> tuple[str, int | None]:
    """("holds", None), or ("fails", the smallest infeasible orientation's bits)."""
    for bits in range(1 << len(boundary(query.graph, query.partition))):
        if not orientation_feasible(query, bits):
            return "fails", bits
    return "holds", None


def reference_support_condition(g, partition, sample_nodes, L) -> SupportConditionResult:
    """``certify.check_support_condition`` as it was before it went to arrays:
    a boundary edge is supported at an endpoint when a sampled neighbor in the
    endpoint's cluster joins it by an edge of weight >= L * W_e."""
    adjacency = graph_reference.Graph(g.node_count, g.edges, g.weights)  # neighbor lists
    sampled = set(sample_nodes)
    lab = partition.labels
    bnd = boundary(g, partition)
    if not bnd:
        return SupportConditionResult(satisfied=True, L=L, K=0.0, violations=(), degenerate=True)
    bnd_weights = [g.weight(i, j) for i, j in bnd]

    def supported(end: int, w: float) -> bool:  # by a sampled neighbour in end's cluster
        return any(
            v in sampled and lab[v] == lab[end] and g.weights[k] >= L * w
            for v, k in adjacency.neighbors(end)
        )

    violations = tuple(
        (i, j) for (i, j), w in zip(bnd, bnd_weights) if not (supported(i, w) and supported(j, w))
    )
    if violations:
        return SupportConditionResult(satisfied=False, L=L, K=None, violations=violations)
    return SupportConditionResult(satisfied=True, L=L, K=L * max(bnd_weights), violations=())
