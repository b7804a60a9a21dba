"""Recoverability certificates for (sampling set, partition) pairs.

The compatibility check asks: for every orientation of the boundary edges,
can the prescribed boundary flow L*W_e be routed through the remaining
edges, sourced and sunk only at sampled nodes with per-node imbalance at
most K? Each orientation reduces to one flow-feasibility query; the verdict
is ``holds`` only if all of them are feasible. Boundary edges carry their
prescribed flow exempt from their own capacity (the condition is vacuous
otherwise for L > 1); capacity binds on the remaining edges only.

Certificates carry per-orientation witness flows (scaled integers) that
re-verify independently, or the violating orientation plus a cut. The scale
of a query is derived from its inputs: the smallest power of two that makes
every weight, every boundary flow L*W_e and K an exact integer.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidQueryError, LNotGreaterThanOneError
from .flow import (
    CutCertificate,
    DemandSpec,
    DemandWitness,
    FeasibilityResult,
    exact_at,
    exact_scale,
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
    boundary,
    orient_edges,
    tv,
)

DEFAULT_MAX_BOUNDARY = 16


@dataclass(frozen=True)
class NccQuery:
    """Inputs of a compatibility check: graph, partition, samples, K, L."""

    graph: Graph
    partition: Partition
    sample_nodes: tuple[int, ...]
    K: float
    L: float

    def __post_init__(self):
        object.__setattr__(
            self, "sample_nodes", tuple(sorted(set(int(i) for i in self.sample_nodes)))
        )
        self.partition.check_against(self.graph)
        if not self.sample_nodes:
            raise InvalidQueryError("sampling set is empty")
        if self.sample_nodes[0] < 0 or self.sample_nodes[-1] >= self.graph.node_count:
            raise InvalidQueryError("sampling set not within the graph's nodes")
        if not (self.K > 0.0 and np.isfinite(self.K)):
            raise InvalidQueryError("K must be strictly positive")
        if not (self.L > 0.0 and np.isfinite(self.L)):
            raise InvalidQueryError("L must be strictly positive")


@dataclass(frozen=True)
class OrientationWitness:
    """Feasible flow for one boundary orientation, in scaled integers.

    ``interior_flows`` aligns with the certificate's interior_edges; signs
    are relative to the canonical (smaller, larger) direction. Boundary arcs
    are listed as (tail, head, prescribed_flow_scaled).
    """

    bits: int
    boundary_arcs: tuple[tuple[int, int, int], ...]
    interior_flows: tuple[int, ...]


@dataclass(frozen=True)
class NccCertificate:
    verdict: str  # holds | fails | indeterminate
    K: float
    L: float
    scale: int
    boundary_edges: tuple[Edge, ...]
    interior_edges: tuple[Edge, ...]
    orientations_total: int
    witnesses: tuple[OrientationWitness, ...] | None = None
    failed_bits: int | None = None
    failed_orientation: tuple[OrientedEdge, ...] | None = None
    cut: CutCertificate | None = None
    reason: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "K": self.K,
            "L": self.L,
            "scale": self.scale,
            "boundary_edges": [list(e) for e in self.boundary_edges],
            "orientations_total": self.orientations_total,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        if self.verdict == "holds" and self.witnesses is not None:
            out["interior_edges"] = [list(e) for e in self.interior_edges]
            out["witnesses"] = [
                {
                    "bits": w.bits,
                    "boundary_arcs": [list(a) for a in w.boundary_arcs],
                    "interior_flows": list(w.interior_flows),
                }
                for w in self.witnesses
            ]
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


def _boundary_arcs(
    oriented: tuple[OrientedEdge, ...], L: float, scale: int
) -> tuple[tuple[int, int, int], ...]:
    """(tail, head, prescribed scaled flow L*W) for each oriented boundary edge."""
    return tuple((a.tail, a.head, scaled(L * a.weight, scale)) for a in oriented)


def _orientation_spec(
    query: NccQuery, oriented: tuple[OrientedEdge, ...], scale: int
) -> DemandSpec:
    """Demand the interior edges must meet for one boundary orientation."""
    b = _boundary_injections(oriented, query.graph.node_count, query.L, scale)
    return DemandSpec(
        injections={i: Fraction(v, scale) for i, v in enumerate(b) if v != 0},
        slack_nodes=frozenset(query.sample_nodes),
        slack_bound=query.K,
    )


def _query_values(query: NccQuery, bnd: tuple[Edge, ...]) -> list[float]:
    """Every number a query scales: all weights, L*W of each boundary edge, and K."""
    g = query.graph
    return [*g.weights.tolist(), *(query.L * g.weight(*e) for e in bnd), query.K]


def check_ncc(query: NccQuery, max_boundary: int = DEFAULT_MAX_BOUNDARY) -> NccCertificate:
    """Enumerate all boundary orientations and test flow feasibility for each.

    Returns verdict ``indeterminate`` without solving when the boundary has
    more than ``max_boundary`` edges (2^|boundary| orientations otherwise).
    Witness flows are at the query's scale; a cut keeps the scale of its
    orientation's feasibility query, which divides the query's scale.
    """
    g = query.graph
    bnd = boundary(g, query.partition)
    scale = exact_scale(_query_values(query, bnd))
    bnd_set = set(bnd)
    interior = tuple(e for e in g.edges if e not in bnd_set)
    if len(bnd) > max_boundary:
        return NccCertificate(
            verdict="indeterminate",
            K=query.K,
            L=query.L,
            scale=scale,
            boundary_edges=bnd,
            interior_edges=interior,
            orientations_total=0,
            reason=(
                f"boundary has {len(bnd)} edges; enumerating 2^{len(bnd)} "
                f"orientations exceeds the cap of 2^{max_boundary}"
            ),
        )
    witnesses = []
    total = 1 << len(bnd)
    for bits in range(total):
        oriented = orient_edges(g, bnd, bits)
        spec = _orientation_spec(query, oriented, scale)
        result: FeasibilityResult = feasible_flow(g, bnd, spec)
        if not result.feasible:
            return NccCertificate(
                verdict="fails",
                K=query.K,
                L=query.L,
                scale=scale,
                boundary_edges=bnd,
                interior_edges=interior,
                orientations_total=total,
                failed_bits=bits,
                failed_orientation=oriented,
                cut=result.cut,
            )
        assert result.witness is not None and result.witness.edges == interior
        factor = scale // result.scale  # the orientation's scale divides the query's
        witnesses.append(
            OrientationWitness(
                bits=bits,
                boundary_arcs=_boundary_arcs(oriented, query.L, scale),
                interior_flows=tuple(factor * f for f in result.witness.edge_flows),
            )
        )
    return NccCertificate(
        verdict="holds",
        K=query.K,
        L=query.L,
        scale=scale,
        boundary_edges=bnd,
        interior_edges=interior,
        orientations_total=total,
        witnesses=tuple(witnesses),
    )


def verify_ncc_witnesses(query: NccQuery, cert: NccCertificate) -> bool:
    """Independent integer re-check of every witness in a ``holds`` certificate.

    Requires a scale that makes every number of the query an exact integer,
    and one witness per orientation, in order. For each: the prescribed
    flow on every boundary arc, then ``verify_demand_witness`` on the interior
    flows (capacity on every interior edge, exact conservation at non-sampled
    nodes, imbalance at most K at sampled nodes).
    """
    if cert.verdict != "holds" or cert.witnesses is None:
        return False
    g = query.graph
    scale = cert.scale
    bnd = boundary(g, query.partition)
    if cert.boundary_edges != bnd or not exact_at(scale, _query_values(query, bnd)):
        return False
    if [w.bits for w in cert.witnesses] != list(range(1 << len(bnd))):
        return False
    for witness in cert.witnesses:
        oriented = orient_edges(g, bnd, witness.bits)
        if witness.boundary_arcs != _boundary_arcs(oriented, query.L, scale):
            return False
        interior = DemandWitness.from_edge_flows(
            g.node_count, cert.interior_edges, witness.interior_flows, scale
        )
        if not verify_demand_witness(g, bnd, _orientation_spec(query, oriented, scale), interior):
            return False
    return True


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
    bnd = boundary(g, query.partition)
    if cert.boundary_edges != bnd or not 0 <= cert.failed_bits < 1 << len(bnd):
        return False
    oriented = orient_edges(g, bnd, cert.failed_bits)
    spec = _orientation_spec(query, oriented, exact_scale(_query_values(query, bnd)))
    return verify_cut_certificate(g, bnd, spec, cert.cut)


@dataclass(frozen=True)
class SupportConditionResult:
    satisfied: bool
    L: float
    K: float | None
    violations: tuple[Edge, ...]
    degenerate: bool = False  # empty boundary: vacuously satisfied, K = 0

    def to_json_dict(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "L": self.L,
            "K": self.K,
            "violations": [list(e) for e in self.violations],
            "degenerate": self.degenerate,
        }


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
    if not (L > 0.0 and np.isfinite(L)):
        raise InvalidQueryError("L must be strictly positive")
    partition.check_against(g)
    sampled = set(int(i) for i in sample_nodes)
    if sampled and (min(sampled) < 0 or max(sampled) >= g.node_count):
        raise InvalidQueryError("sampling set not within the graph's nodes")
    lab = partition.labels
    bnd = boundary(g, partition)
    if not bnd:
        return SupportConditionResult(satisfied=True, L=L, K=0.0, violations=(), degenerate=True)
    violations = []
    for i, j in bnd:
        w_b = g.weight(i, j)
        ok = True
        for endpoint in (i, j):
            cluster = lab[endpoint]
            if not any(
                v in sampled and lab[v] == cluster and g.weights[k] >= L * w_b
                for v, k in g.neighbors(endpoint)
            ):
                ok = False
                break
        if not ok:
            violations.append((i, j))
    if violations:
        return SupportConditionResult(satisfied=False, L=L, K=None, violations=tuple(violations))
    k_value = L * max(g.weight(i, j) for i, j in bnd)
    return SupportConditionResult(satisfied=True, L=L, K=k_value, violations=())


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
