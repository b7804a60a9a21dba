"""Reference NCC verdict by enumerating every boundary orientation.

Independent of ``certify.check_ncc``: each orientation is one exact
``feasible_flow`` query whose injections (+L*W at the head of a boundary
arc, -L*W at its tail) are built here as ``Fraction``s. Exponential in the
boundary size, so only for small instances.
"""

from collections import defaultdict
from fractions import Fraction

from netlasso.flow import DemandSpec, feasible_flow
from netlasso.graphs import boundary, orient_edges


def orientation_feasible(query, bits: int) -> bool:
    """Whether the interior can carry the boundary flow of orientation ``bits``."""
    g = query.graph
    bnd = boundary(g, query.partition)
    injections = defaultdict(Fraction)
    for arc in orient_edges(g, bnd, bits):
        flow = Fraction(query.L * arc.weight)
        injections[arc.head] += flow
        injections[arc.tail] -= flow
    spec = DemandSpec(injections, frozenset(query.sample_nodes), query.K)
    return feasible_flow(g, bnd, spec).feasible


def reference_verdict(query) -> tuple[str, int | None]:
    """("holds", None), or ("fails", the smallest infeasible orientation's bits)."""
    for bits in range(1 << len(boundary(query.graph, query.partition))):
        if not orientation_feasible(query, bits):
            return "fails", bits
    return "holds", None
