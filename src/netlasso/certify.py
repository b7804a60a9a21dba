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

A ``holds`` certificate is that one interior flow (scaled integers). A
``fails`` certificate is the orientation that points every boundary edge of
a violating single-cluster set U into U, plus U as its cut. The scale of a
query is derived from its inputs: the smallest power of two that makes
every weight, every boundary flow L*W_e and K an exact integer.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidQueryError, LNotGreaterThanOneError
from .flow import (
    CutCertificate,
    DemandSpec,
    DemandWitness,
    _finite,
    _scaled_distinct,
    feasible_flow,
    scaled,
    verify_cut_certificate,
    verify_demand_witness,
)
from .graphs import (
    Edge,
    Graph,
    Observations,
    OrientedEdge,
    Partition,
    boundary_mask,
    orient_edges,
    tv,
)


def _check_positive(value, name: str) -> None:
    if not (_finite(value) and value > 0):
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

    ``interior_flows`` (``holds``) aligns with ``interior_edges``, in scaled
    integers at ``scale``; signs are relative to the canonical (smaller,
    larger) direction.
    """

    verdict: str  # holds: interior_flows is a feasible supply flow | fails: failed_bits + cut
    K: float
    L: float
    scale: int
    boundary_edges: tuple[Edge, ...]
    interior_edges: tuple[Edge, ...]
    orientations_total: int
    interior_flows: tuple[int, ...] | None = None
    failed_bits: int | None = None
    failed_orientation: tuple[OrientedEdge, ...] | None = None
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
            out["interior_edges"] = [list(e) for e in self.interior_edges]
            out["interior_flows"] = list(self.interior_flows)
        if self.verdict == "fails":
            out["failed_bits"] = self.failed_bits
            out["failed_orientation"] = [
                [a.tail, a.head, a.weight] for a in (self.failed_orientation or ())
            ]
            if self.cut is not None:
                out["cut"] = asdict(self.cut)
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _boundary_injections(
    oriented: tuple[OrientedEdge, ...], node_count: int, L: float, scale: int
) -> list[int]:
    """Net boundary inflow per node, as exact scaled integers.

    A boundary arc tail->head carrying L*W removes that much from the tail's
    balance and delivers it at the head, so the remaining edges must carry
    it back: the required net outflow on the interior is +h at the head and
    -h at the tail.
    """
    b = [0] * node_count
    for arc in oriented:
        h = scaled(L * arc.weight, scale)
        b[arc.head] += h
        b[arc.tail] -= h
    return b


def _boundary_flows(query: NccQuery, scale: int | None = None):
    """The boundary edges as a mask and as pairs, and ``_scaled_distinct`` of their
    flows L*W at the smallest scale that makes every weight, every L*W and K an
    integer (None where a given scale does not)."""
    g = query.graph
    cross = boundary_mask(g, query.partition)
    others = [*set(g.weights.tolist()), query.K]
    return cross, g.pairs(cross), _scaled_distinct(query.L * g.weights[cross], others, scale)


def _boundary_supplies(query: NccQuery, cross: np.ndarray, flows) -> list[int]:
    """Per node, the sum of the scaled flows L*W over its boundary edges."""
    s = [0] * query.graph.node_count
    ii, jj = (ends[cross].tolist() for ends in query.graph.endpoint_arrays())
    for i, j, h in zip(ii, jj, flows):
        s[i] += h
        s[j] += h
    return s


def _demand_spec(query: NccQuery, b: list[int], scale: int) -> DemandSpec:
    """Interior demand b / scale, with every sampled node's slack bounded by K."""
    return DemandSpec(
        injections={i: Fraction(v, scale) for i, v in enumerate(b) if v != 0},
        slack_nodes=frozenset(query.sample_nodes),
        slack_bound=query.K,
    )


def _orientation_spec(
    query: NccQuery, oriented: tuple[OrientedEdge, ...], scale: int
) -> DemandSpec:
    """Demand the interior edges must meet for one boundary orientation."""
    b = _boundary_injections(oriented, query.graph.node_count, query.L, scale)
    return _demand_spec(query, b, scale)


def _cluster_cut(
    query: NccQuery, interior: np.ndarray, supplies: list[int], nodes: tuple[int, ...], scale: int
) -> CutCertificate:
    """Restrict a violated supply cut to its first violated single-cluster part.

    Interior edges never join two clusters, so the cut's excess (supply
    minus interior capacity leaving it minus K per sampled node) is the sum
    of its cluster parts' excesses, and one of them is positive.
    """
    g, lab = query.graph, query.partition.labels
    inside = np.zeros(g.node_count, dtype=bool)
    inside[list(nodes)] = True
    ii, jj = g.endpoint_arrays()
    leaving = interior & (inside[ii] != inside[jj])
    caps = _scaled_distinct(g.weights[leaving], (), scale)[0]
    sampled = set(query.sample_nodes)
    k = scaled(query.K, scale)
    labels = lab.tolist()
    excess: Counter = Counter()
    for i in nodes:
        excess[labels[i]] += supplies[i] - (k if i in sampled else 0)
    for c, cap in zip(lab[ii[leaving]].tolist(), caps):
        excess[c] -= cap
    c = min(c for c, e in excess.items() if e > 0)
    part = tuple(i for i in nodes if labels[i] == c)
    demand = sum(supplies[i] for i in part)
    return CutCertificate("supply-excess", part, demand, demand - excess[c], scale)


def check_ncc(query: NccQuery) -> NccCertificate:
    """Decide the compatibility condition for all boundary orientations with one flow.

    The boundary supplies must reach the sampled nodes over the interior
    edges, with imbalance at most K at each sampled node. A feasible flow certifies
    ``holds``; otherwise the flow's cut, restricted to its first violated
    cluster part U, certifies ``fails`` for the orientation pointing U's
    boundary edges into U. Flows and cut are at the query's scale.
    """
    g = query.graph
    cross, bnd, (flows, scale) = _boundary_flows(query)
    supplies = _boundary_supplies(query, cross, flows)
    result = feasible_flow(g, bnd, _demand_spec(query, supplies, scale))
    fields = dict(
        K=query.K,
        L=query.L,
        scale=scale,
        boundary_edges=bnd,
        # the kept edges are the interior ones, and a witness lists them
        interior_edges=result.witness.edges if result.feasible else g.pairs(~cross),
        orientations_total=1 << len(bnd),
    )
    if result.feasible:
        factor = scale // result.scale  # the flow's scale divides the query's
        interior_flows = tuple(factor * f for f in result.witness.edge_flows)
        return NccCertificate(verdict="holds", interior_flows=interior_flows, **fields)
    cut = _cluster_cut(query, ~cross, supplies, result.cut.nodes, scale)
    inside = set(cut.nodes)
    # Bit k set orients (i, j) as j -> i: point every boundary edge at i in U into U.
    bits = sum(1 << k for k, (i, _) in enumerate(bnd) if i in inside)
    return NccCertificate(
        verdict="fails",
        failed_bits=bits,
        failed_orientation=orient_edges(g, bnd, bits),
        cut=cut,
        **fields,
    )


def verify_ncc_witnesses(query: NccQuery, cert: NccCertificate) -> bool:
    """Independent integer re-check of the interior flow in a ``holds`` certificate.

    Requires the query's boundary and a scale that makes every number of the
    query an exact integer, then ``verify_demand_witness`` on the boundary
    supplies: capacity on every interior edge, exact conservation at
    non-sampled nodes, and imbalance at most K at sampled nodes.
    """
    if cert.verdict != "holds" or cert.interior_flows is None:
        return False
    g = query.graph
    cross, bnd, scaled_flows = _boundary_flows(query, cert.scale)
    if cert.boundary_edges != bnd or scaled_flows is None:
        return False
    witness = DemandWitness.from_edge_flows(
        g.node_count, cert.interior_edges, cert.interior_flows, cert.scale
    )
    spec = _demand_spec(query, _boundary_supplies(query, cross, scaled_flows[0]), cert.scale)
    return verify_demand_witness(g, bnd, spec, witness)


def verify_ncc_cut(query: NccQuery, cert: NccCertificate) -> bool:
    """Independent integer re-check of the cut in a ``fails`` certificate.

    Rebuilds the failed orientation's demand from the query at the query's
    derived scale (the cut's own scale may be too coarse for a single
    boundary flow L*W even where every net injection is exact) and checks
    the cut with ``verify_cut_certificate`` at the cut's scale.
    """
    if cert.verdict != "fails" or cert.cut is None or cert.failed_bits is None:
        return False
    g = query.graph
    _, bnd, (_, scale) = _boundary_flows(query)
    if cert.boundary_edges != bnd or not 0 <= cert.failed_bits < 1 << len(bnd):
        return False
    oriented = orient_edges(g, bnd, cert.failed_bits)
    spec = _orientation_spec(query, oriented, scale)
    return verify_cut_certificate(g, bnd, spec, cert.cut)


@dataclass(frozen=True)
class SupportConditionResult:
    satisfied: bool
    L: float
    K: float | None
    violations: tuple[Edge, ...]
    degenerate: bool = False  # empty boundary: vacuously satisfied, K = 0

    def to_json_dict(self) -> dict:
        return asdict(self)


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
    sampled = _sample_set(sample_nodes, g.node_count)
    lab = partition.labels
    bnd = g.pairs(cross)
    if not bnd:
        return SupportConditionResult(satisfied=True, L=L, K=0.0, violations=(), degenerate=True)
    bnd_weights = g.weights[cross].tolist()

    def supported(end: int, w: float) -> bool:  # by a sampled neighbour in end's cluster
        return any(
            v in sampled and lab[v] == lab[end] and g.weights[k] >= L * w
            for v, k in g.neighbors(end)
        )

    violations = tuple(
        (i, j) for (i, j), w in zip(bnd, bnd_weights) if not (supported(i, w) and supported(j, w))
    )
    if violations:
        return SupportConditionResult(satisfied=False, L=L, K=None, violations=violations)
    return SupportConditionResult(satisfied=True, L=L, K=L * max(bnd_weights), violations=())


def recovery_error_bound(K: float, L: float, eps_l1: float) -> float:
    """Error-bound value (K + 4/(L-1)) * eps_l1; requires L > 1 and K > 0."""
    if not L > 1.0:
        raise LNotGreaterThanOneError(f"L must exceed 1, got {L}")
    if not K > 0.0:
        raise InvalidQueryError(f"K must be strictly positive, got {K}")
    if eps_l1 < 0.0:
        raise InvalidQueryError("eps_l1 must be nonnegative")
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
    """Compare the recovered signal's TV error against the certified bound."""
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
