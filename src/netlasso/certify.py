"""Recoverability certificates for (sampling set, partition) pairs.

The compatibility condition (NCC) asks: for every orientation of the
boundary edges, can the prescribed boundary flow L*W_e be routed through the
interior edges, sourced and sunk only at sampled nodes with per-node
imbalance at most K? Boundary edges carry their prescribed flow exempt from
their own capacity (the condition is vacuous otherwise for L > 1); capacity
binds on the interior edges only.

One flow decides all 2^|boundary| orientations at once. Give every
boundary-edge endpoint a supply of sum L*W_e over its boundary edges, route
the supplies over the interior edges, and allow each sampled node an
imbalance of at most K. By Hoffman's circulation theorem that flow is
feasible iff every node set U has supply(U) <= W_int(dU) + K*|U & samples|.
Interior edges never join two clusters, so both sides add up over U's
per-cluster parts, and for a U inside one cluster supply(U) = L*W_bnd(dU),
which is exactly the worst orientation's demand on U: all of U's boundary
edges pointing in.

A ``holds`` certificate is that flow's nonzero scaled integers by edge id. A
``fails`` certificate is a violating single-cluster set U, a cut of the same
supply demand; the orientation pointing U's boundary edges into U follows
from it (``failed_bits``). The scale of a query is derived from its inputs:
the smallest integer (for floats, a power of two) that makes every weight,
K and every boundary flow L*W_e an exact integer. L*W_e is the exact product
of L and W_e, not the rounded float one, so a product beyond the float range
either way is still exact. The flow is built and solved once, in those ints.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidQueryError, LNotGreaterThanOneError, _real
from .flow import (
    CutCertificate,
    _cut,
    _cut_verified,
    _flow_verified,
    _ratio,
    _route,
    feasible_flow,  # noqa: F401  unused here; perfbench/tracing.py rebinds it
)
from .graphs import (
    Edge,
    Graph,
    Observations,
    Partition,
    _index_array,
    boundary_mask,
    heaviest_edges,
    tv,
)


def _check_positive(value, name: str) -> None:
    if not (math.isfinite(_real(value, name, InvalidQueryError)) and value > 0):
        raise InvalidQueryError(f"{name} must be a finite number > 0, got {value!r}")


def _sample_set(nodes, node_count: int) -> set[int]:
    """The sampled node ids, each an integer in 0..node_count-1."""
    try:
        sampled = set(map(operator.index, nodes))
    except TypeError:
        raise InvalidQueryError("sampling set has a node id that is not an integer") from None
    if sampled and (min(sampled) < 0 or max(sampled) >= node_count):
        raise InvalidQueryError("sampling set not within the graph's nodes")
    return sampled


@dataclass(frozen=True)
class NccQuery:
    """Inputs of a compatibility check: graph, partition, samples, K, L."""

    graph: Graph
    partition: Partition
    sample_nodes: tuple[int, ...]
    K: float
    L: float

    def __post_init__(self):
        self.partition.check_against(self.graph)
        nodes = _sample_set(self.sample_nodes, self.graph.node_count)
        if not nodes:
            raise InvalidQueryError("sampling set is empty")
        object.__setattr__(self, "sample_nodes", tuple(sorted(nodes)))
        _check_positive(self.K, "K")
        _check_positive(self.L, "L")


@dataclass(frozen=True)
class NccCertificate:
    """Verdict over all ``orientations_total`` = 2^|boundary| orientations.

    ``holds``: ``interior_flows`` holds the nonzero flows as ``(edge id, flow)``
    pairs by strictly increasing graph edge id (a ``write_graph`` file's line
    order), in integers at ``scale``, signed relative to the canonical
    (smaller, larger) direction. ``fails``: ``cut`` is the violated
    single-cluster set U; bit k of ``failed_bits`` runs boundary edge k,
    (i, j), as j -> i, into U.
    """

    verdict: str  # holds: interior_flows is a feasible supply flow | fails: failed_bits + cut
    K: float
    L: float
    scale: int
    boundary_edges: tuple[Edge, ...]
    orientations_total: int
    interior_flows: tuple[tuple[int, int], ...] | None = None
    failed_bits: int | None = None
    cut: CutCertificate | None = None

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "K": self.K,
            "L": self.L,
            "scale": self.scale,
            "boundary_edges": [list(e) for e in self.boundary_edges],
            "orientations_total": self.orientations_total,
        }
        if self.interior_flows is not None:
            out["interior_flows"] = [list(p) for p in self.interior_flows]
        if self.verdict == "fails":
            out["failed_bits"] = self.failed_bits
            if self.cut is not None:
                out["cut"] = asdict(self.cut)
        return out


def _supply_instance(query: NccQuery):
    """The boundary mask and the supply flow in exact integers: the interior
    edge ids, their capacities, each node's sum of L*W over its boundary edges,
    the samples, K and the scale, the smallest that makes every weight, L*W and
    K an integer. L*W is the exact product, never rounded, flushed or overflowed."""
    g = query.graph
    cross = boundary_mask(g, query.partition)
    weights, where = np.unique(g.weights, return_inverse=True)
    ratios = [_ratio(w) for w in weights.tolist()]
    (lp, lq), (kp, kq) = _ratio(query.L), _ratio(query.K)
    lw = {k: (lp * ratios[k][0], lq * ratios[k][1]) for k in set(where[cross].tolist())}
    scale = math.lcm(kq, *(q for _, q in ratios), *(q // math.gcd(p, q) for p, q in lw.values()))
    caps = np.array([p * scale // q for p, q in ratios], dtype=object)
    flows = np.array([lw[k][0] * scale // lw[k][1] for k in where[cross].tolist()], dtype=object)
    supply = np.zeros(g.node_count, dtype=object)
    np.add.at(supply, np.stack(g.endpoint_arrays())[:, cross], flows)  # at both ends
    interior = np.flatnonzero(~cross)
    samples = np.array(query.sample_nodes, dtype=np.int64)
    return cross, (interior, caps[where[interior]], supply, samples, kp * scale // kq, scale)


def _cluster_cut(query: NccQuery, instance, nodes: np.ndarray) -> CutCertificate:
    """The supply flow's minimal cut in its smallest cluster label. The
    reservoir is never on the cut's side (its deficit is the whole supply, so a
    failed flow leaves some of it, and the excess left reaches no deficit), and
    the clusters share no other node, so each cluster's part is its own
    minimal cut, and violated."""
    labels = query.partition.labels[nodes]
    return _cut(query.graph, instance, nodes[labels == labels.min()], "supply-excess")


def _failed_bits(g: Graph, cross: np.ndarray, nodes) -> int:
    """The orientation that points every boundary edge at ``nodes`` into them:
    bit k set runs boundary edge k, (i, j), as j -> i, for i among the nodes."""
    inside = np.zeros(g.node_count, dtype=bool)
    inside[list(nodes)] = True
    return sum(1 << k for k in np.flatnonzero(inside[g.endpoint_arrays()[0][cross]]).tolist())


def check_ncc(query: NccQuery) -> NccCertificate:
    """Decide the compatibility condition for all boundary orientations with one flow.

    The boundary supplies must reach the sampled nodes over the interior
    edges, with imbalance at most K at each sampled node. A feasible flow certifies
    ``holds``; otherwise the flow's minimal cut, restricted to its part U in
    the smallest cluster label, certifies ``fails`` for the orientation
    pointing U's boundary edges into U. Flows and cut are at the query's scale.
    """
    g = query.graph
    cross, instance = _supply_instance(query)
    flows, nodes, _ = _route(g, instance)
    bnd = g.pairs(cross)
    fields = dict(K=query.K, L=query.L, scale=instance[-1], boundary_edges=bnd,
                  orientations_total=1 << len(bnd))
    if flows is not None:
        # the flows are on the interior edges, in id order
        interior_flows = tuple((e, f) for e, f in zip(instance[0].tolist(), flows) if f != 0)
        return NccCertificate(verdict="holds", interior_flows=interior_flows, **fields)
    cut = _cluster_cut(query, instance, nodes)
    bits = _failed_bits(g, cross, cut.nodes)
    return NccCertificate(verdict="fails", failed_bits=bits, cut=cut, **fields)


def _dense_flows(pairs, interior: np.ndarray, edge_count: int) -> list[int] | None:
    """Sparse ``(edge id, flow)`` pairs as one flow per edge of ``interior``
    (ids), zero where no pair names it; None unless each id is one of them,
    the ids strictly increase and every flow is a nonzero integer."""
    try:
        ids, flows = [*zip(*pairs)] or [(), ()]
        flows = list(map(operator.index, flows))
    except (TypeError, ValueError):
        return None
    ids = _index_array(ids)
    if ids is None or 0 in flows or (np.diff(ids) <= 0).any() or not np.isin(ids, interior).all():
        return None
    dense = np.zeros(edge_count, dtype=object)
    dense[ids] = flows
    return dense[interior].tolist()


def verify_ncc_witnesses(query: NccQuery, cert: NccCertificate) -> bool:
    """Independent integer re-check of the interior flow in a ``holds`` certificate.

    Requires the query's boundary, a scale that makes every capacity, supply
    and K an integer, and nonzero integer flows on interior edge ids in
    strictly increasing order; expanded onto the interior edges, they must
    pass ``verify_demand_witness``'s checks on the boundary supply demand:
    capacity, exact conservation at unsampled nodes, imbalance at most K at samples.
    """
    if cert.verdict != "holds" or cert.interior_flows is None:
        return False
    g = query.graph
    cross, instance = _supply_instance(query)
    flows = _dense_flows(cert.interior_flows, instance[0], g.edge_count)
    if cert.boundary_edges != g.pairs(cross) or flows is None:
        return False
    return _flow_verified(g, instance, flows, cert.scale)


def verify_ncc_cut(query: NccQuery, cert: NccCertificate) -> bool:
    """Independent integer re-check of the cut U in a ``fails`` certificate.

    ``verify_cut_certificate``'s checks, at the cut's scale (which may be
    coarser than the query's if it makes every capacity, supply and K an
    integer), that U violates the boundary supply demand. U must also lie in
    one cluster, where its supply is the demand of the orientation pointing
    U's boundary edges into it, and ``failed_bits`` must name that orientation.
    """
    if cert.verdict != "fails" or cert.cut is None:
        return False
    g = query.graph
    cross, instance = _supply_instance(query)
    if cert.boundary_edges != g.pairs(cross) or not _cut_verified(g, instance, cert.cut):
        return False
    nodes = _index_array(cert.cut.nodes)  # ids in 0..N-1, as _cut_verified checked
    labels = query.partition.labels[nodes]
    return bool((labels == labels[0]).all()) and cert.failed_bits == _failed_bits(g, cross, nodes)


@dataclass(frozen=True)
class SupportConditionResult:
    satisfied: bool
    L: float
    K: float | None
    violations: tuple[Edge, ...]
    degenerate: bool = False  # empty boundary: vacuously satisfied, K = 0


def check_support_condition(
    g: Graph, partition: Partition, sample_nodes, L: float
) -> SupportConditionResult:
    """Sufficient condition: every boundary edge has sampled supports.

    A boundary edge {i,j} with i in cluster a and j in cluster b is
    supported if some sampled m in cluster a is adjacent to i with
    W_mi >= L*W_ij, and symmetrically on the j side. When all boundary
    edges are supported the certificate parameter is K = L * max boundary
    weight (over the boundary edge set).
    """
    _check_positive(L, "L")
    cross = boundary_mask(g, partition)
    sampled = np.isin(np.arange(g.node_count), list(_sample_set(sample_nodes, g.node_count)))
    if not cross.any():
        return SupportConditionResult(satisfied=True, L=L, K=0.0, violations=(), degenerate=True)
    # Interior edges join nodes of one cluster: per node, its best sampled support.
    support = heaviest_edges(g, ~cross, sampled)
    ends, w = np.stack(g.endpoint_arrays())[:, cross], g.weights[cross]
    with np.errstate(over="ignore"):  # an L*W beyond the float range is inf, still unsupported
        bad = np.flatnonzero(cross)[(support[ends] < float(L) * w).any(axis=0)]
    if bad.size:
        return SupportConditionResult(satisfied=False, L=L, K=None, violations=g.pairs(bad))
    return SupportConditionResult(satisfied=True, L=L, K=L * float(w.max()), violations=())


def recovery_error_bound(K: float, L: float, eps_l1: float) -> float:
    """Error-bound value (K + 4/(L-1)) * eps_l1; requires finite L > 1, K > 0
    and eps_l1 >= 0."""
    if not (math.isfinite(_real(L, "L", LNotGreaterThanOneError)) and L > 1.0):
        raise LNotGreaterThanOneError(f"L must be a finite number > 1, got {L!r}")
    _check_positive(K, "K")
    if not (math.isfinite(_real(eps_l1, "eps_l1", InvalidQueryError)) and eps_l1 >= 0.0):
        raise InvalidQueryError(f"eps_l1 must be a finite number >= 0, got {eps_l1!r}")
    return (K + 4.0 / (L - 1.0)) * eps_l1


@dataclass(frozen=True)
class ErrorBoundReport:
    K: float
    L: float
    eps_l1: float
    tv_error: float
    bound: float
    passed: bool
    slack: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def verify_error_bound(
    g: Graph,
    x_true,
    x_hat,
    obs: Observations,
    K: float,
    L: float,
    tolerance: float = 1e-6,
) -> ErrorBoundReport:
    """Compare the recovered signal's TV error against the certified bound,
    with a finite ``tolerance`` (a negative one makes the check stricter)."""
    if not math.isfinite(_real(tolerance, "tolerance", InvalidQueryError)):
        raise InvalidQueryError(f"tolerance must be a finite number, got {tolerance!r}")
    x_true = np.asarray(x_true, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    eps_l1 = obs.noise_l1()
    tv_error = tv(g, x_hat - x_true)
    bound = recovery_error_bound(K, L, eps_l1)
    return ErrorBoundReport(
        K=K,
        L=L,
        eps_l1=eps_l1,
        tv_error=tv_error,
        bound=bound,
        passed=tv_error <= bound + tolerance,
        slack=bound - tv_error,
    )
