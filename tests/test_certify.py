"""Compatibility condition, sufficient condition, and the error bound."""

import dataclasses
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncc_reference import orientation_feasible, reference_verdict
from netlasso import certify
from netlasso.certify import (
    NccQuery,
    ErrorBoundReport,
    check_support_condition,
    check_ncc,
    recovery_error_bound,
    verify_ncc_cut,
    verify_ncc_witnesses,
    verify_error_bound,
)
from netlasso.errors import InvalidQueryError, LNotGreaterThanOneError
from netlasso.flow import CutCertificate, feasible_flow, verify_cut_certificate
from netlasso.generate import (
    PlantedPartitionConfig,
    generate_planted_partition,
    paper_like_config,
)
from netlasso.graphs import (
    Observations,
    Partition,
    boundary,
    clustered_signal,
    orient_edges,
    validate_graph,
)
from netlasso.sampling import sample_boundary_aware


@st.composite
def ncc_queries(draw):
    """Two small clusters joined by one to three boundary edges; integer
    weights, K a multiple of 1/2 and L in {1, 1.5, 2}."""
    a_size, b_size = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    n = a_size + b_size
    clusters = (list(range(a_size)), list(range(a_size, n)))
    edges = set()
    for nodes in clusters:
        for pos in range(1, len(nodes)):
            edges.add((nodes[draw(st.integers(0, pos - 1))], nodes[pos]))
    cross = st.tuples(st.sampled_from(clusters[0]), st.sampled_from(clusters[1]))
    edges |= draw(st.sets(cross, min_size=1, max_size=3))
    edges = sorted(edges)
    weights = draw(st.lists(st.integers(1, 4), min_size=len(edges), max_size=len(edges)))
    g = validate_graph(edges, [float(w) for w in weights], n)
    partition = Partition(tuple(frozenset(c) for c in clusters))
    samples = tuple(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    K = draw(st.integers(1, 8)) / 2
    L = draw(st.sampled_from([1.0, 1.5, 2.0]))
    return g, partition, samples, K, L


@st.composite
def clustered_queries(draw):
    """Two to four clusters, each a random tree plus extra edges, joined by
    1 to 12 boundary edges; at least half the nodes sampled. Weights all 1,
    all 4096, or dyadic in 0.25..3; L in [1, 3] and K in [0.5, 40] times
    the weight unit."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    labels = [c for c, size in enumerate(sizes) for _ in range(size)]
    n = len(labels)
    edges = set()
    for c in range(len(sizes)):
        nodes = [i for i in range(n) if labels[i] == c]
        for pos in range(1, len(nodes)):
            edges.add((nodes[draw(st.integers(0, pos - 1))], nodes[pos]))
        pairs = [(i, j) for i in nodes for j in nodes if i < j]
        if pairs:
            edges |= draw(st.sets(st.sampled_from(pairs), max_size=3))
    cross = [(i, j) for i in range(n) for j in range(i + 1, n) if labels[i] != labels[j]]
    edges = sorted(edges | draw(st.sets(st.sampled_from(cross), min_size=1, max_size=12)))
    unit = draw(st.sampled_from([1.0, 4096.0, None]))
    if unit is None:
        quarters = st.lists(st.integers(1, 12), min_size=len(edges), max_size=len(edges))
        weights = [q / 4 for q in draw(quarters)]
    else:
        weights = [unit] * len(edges)
    samples = draw(st.sets(st.integers(0, n - 1), min_size=(n + 1) // 2))
    K = draw(st.floats(0.5, 40.0)) * (unit or 1.0)
    L = draw(st.floats(1.0, 3.0))
    g = validate_graph(edges, weights, n)
    return NccQuery(g, Partition.from_labels(labels), tuple(samples), K=K, L=L)


class TestNccQueryValidation:
    def test_empty_sampling_set(self, two_cluster_fixture):
        g, p, _ = two_cluster_fixture
        with pytest.raises(InvalidQueryError):
            NccQuery(g, p, (), K=1.0, L=1.0)

    @pytest.mark.parametrize("m", [(0.5, 3), ("1", 3), (None,)])
    def test_rejects_non_integer_sample_node(self, two_cluster_fixture, m):
        g, p, _ = two_cluster_fixture
        with pytest.raises(InvalidQueryError):
            NccQuery(g, p, m, K=1.0, L=1.0)

    def test_takes_index_like_sample_nodes(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        query = NccQuery(g, p, np.array(m), K=1.0, L=1.0)
        assert query.sample_nodes == tuple(sorted(m))
        assert all(type(i) is int for i in query.sample_nodes)

    def test_nonpositive_parameters(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        with pytest.raises(InvalidQueryError):
            NccQuery(g, p, m, K=0.0, L=1.0)
        with pytest.raises(InvalidQueryError):
            NccQuery(g, p, m, K=1.0, L=-2.0)

    @pytest.mark.parametrize(
        "K,L",
        [(None, 1.0), ("2", 1.0), (10**400, 1.0), (1.0, "2"), (1.0, None), (1.0, -(10**400))],
        ids=["K=None", "K='2'", "K=10**400", "L='2'", "L=None", "L=-10**400"],
    )
    def test_parameters_that_are_no_finite_number(self, two_cluster_fixture, K, L):
        g, p, m = two_cluster_fixture
        with pytest.raises(InvalidQueryError):
            NccQuery(g, p, m, K=K, L=L)

    def test_takes_int_and_rational_parameters(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        assert check_ncc(NccQuery(g, p, m, K=2, L=Fraction(1, 2))).verdict == "holds"


class TestCheckNcc:
    def test_fixture_holds_at_k4_l4(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        query = NccQuery(g, p, m, K=4.0, L=4.0)
        cert = check_ncc(query)
        assert cert.verdict == "holds"
        assert cert.orientations_total == 2
        assert cert.interior_edges == ((0, 1), (2, 3))
        assert verify_ncc_witnesses(query, cert)
        # i and j each supply L*W = 4 units, absorbed by m and n
        flows = dict(zip(cert.interior_edges, cert.interior_flows))
        assert flows[(0, 1)] == -4 * cert.scale  # i -> m (canonical 0 -> 1)
        assert flows[(2, 3)] == 4 * cert.scale  # j -> n (canonical 2 -> 3)

    def test_fixture_fails_at_k1(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        cert = check_ncc(NccQuery(g, p, m, K=1.0, L=4.0))
        assert cert.verdict == "fails"
        assert cert.cut is not None

    def test_empty_boundary_holds_vacuously(self, path4):
        p = Partition((frozenset({0, 1, 2, 3}),))
        cert = check_ncc(NccQuery(path4, p, (0,), K=0.5, L=9.0))
        assert cert.verdict == "holds"
        assert cert.orientations_total == 1
        assert cert.boundary_edges == ()

    def test_preset_decided_with_one_flow(self, monkeypatch):
        # The paper-like preset has 50 boundary edges, far beyond enumeration;
        # its smallest certifying K at budget 15 and L = 1 is 28/3.
        g, p = generate_planted_partition(paper_like_config(seed=3))
        m = sample_boundary_aware(g, p, 15)
        assert len(boundary(g, p)) == 50
        calls = []

        def counted(*args):
            calls.append(args)
            return feasible_flow(*args)

        monkeypatch.setattr(certify, "feasible_flow", counted)
        for K, expected in ((1.0, "fails"), (5.0, "fails"), (9.0, "fails"),
                            (10.0, "holds"), (20.0, "holds")):
            calls.clear()
            query = NccQuery(g, p, m, K=K, L=1.0)
            cert = check_ncc(query)
            assert len(calls) == 1, K
            assert (cert.verdict, cert.orientations_total) == (expected, 2**50), K
            if expected == "holds":
                assert verify_ncc_witnesses(query, cert)
            else:
                assert verify_ncc_cut(query, cert)

    def test_verdict_invariant_under_relabeling(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        # relabel nodes by the permutation (0123) -> (3210)
        perm = {0: 3, 1: 2, 2: 1, 3: 0}
        edges = [(perm[i], perm[j]) for i, j in g.edges]
        g2 = validate_graph(edges, list(g.weights), 4)
        p2 = Partition((frozenset({2, 3}), frozenset({0, 1})))
        m2 = tuple(sorted(perm[i] for i in m))
        for k, expected in ((4.0, "holds"), (1.0, "fails")):
            assert check_ncc(NccQuery(g, p, m, K=k, L=4.0)).verdict == expected
            assert check_ncc(NccQuery(g2, p2, m2, K=k, L=4.0)).verdict == expected

    def test_k_monotonicity(self):
        rng = np.random.default_rng(21)
        checked = 0
        for seed in range(30):
            cfg = PlantedPartitionConfig(sizes=(4, 5), p_in=0.9, p_out=0.08, seed=seed)
            try:
                g, p = generate_planted_partition(cfg)
            except Exception:
                continue
            if len(boundary(g, p)) > 6:
                continue
            m = tuple(sorted(rng.choice(g.node_count, size=5, replace=False).tolist()))
            k = float(rng.uniform(0.5, 2.0))
            cert = check_ncc(NccQuery(g, p, m, K=k, L=1.0))
            if cert.verdict == "holds":
                for factor in (1.5, 4.0):
                    assert check_ncc(NccQuery(g, p, m, K=k * factor, L=1.0)).verdict == "holds"
                checked += 1
        assert checked >= 3

    def test_failed_cut_reverifies(self, two_cluster_fixture):
        from netlasso.certify import _boundary_injections
        from netlasso.flow import DemandSpec
        from netlasso.graphs import orient_edges

        g, p, m = two_cluster_fixture
        query = NccQuery(g, p, m, K=1.0, L=4.0)
        cert = check_ncc(query)
        assert cert.verdict == "fails"
        bnd = boundary(g, p)
        oriented = orient_edges(g, bnd, cert.failed_bits)
        b = _boundary_injections(oriented, g.node_count, query.L, cert.scale)
        spec = DemandSpec(
            injections={i: v / cert.scale for i, v in enumerate(b) if v},
            slack_nodes=frozenset(m),
            slack_bound=query.K,
        )
        assert verify_cut_certificate(g, bnd, spec, cert.cut)

    def test_weight_4096_copy_repeats_unit_verdict(self):
        # At weight 4096 the scaled capacities pass 2^31; scaling every weight
        # and K by the same factor must leave verdict and certificate unchanged.
        from netlasso.certify import _orientation_spec

        verdicts = set()
        for seed in range(12):
            instances = [
                generate_planted_partition(PlantedPartitionConfig((5, 5, 5), 1.0, 0.06, w, seed))
                for w in (1.0, 4096.0)
            ]
            g1, p = instances[0]
            if len(boundary(g1, p)) > 6:
                continue
            m = sample_boundary_aware(g1, p, 6)
            for factor in (1.0, 2.0, 4.0):
                certs = []
                for (g, p), w in zip(instances, (1.0, 4096.0)):
                    query = NccQuery(g, p, m, K=factor * w, L=2.0)
                    cert = check_ncc(query)
                    if cert.verdict == "holds":
                        assert verify_ncc_witnesses(query, cert)
                    else:
                        bnd = boundary(g, p)
                        oriented = orient_edges(g, bnd, cert.failed_bits)
                        spec = _orientation_spec(query, oriented, cert.scale)
                        assert verify_cut_certificate(g, bnd, spec, cert.cut)
                    certs.append(cert)
                unit, heavy = certs
                assert heavy.verdict == unit.verdict
                assert heavy.failed_bits == unit.failed_bits
                if unit.cut is not None:
                    assert (heavy.cut.kind, heavy.cut.nodes) == (unit.cut.kind, unit.cut.nodes)
                    assert heavy.cut.demand_scaled == 4096 * unit.cut.demand_scaled
                verdicts.add(unit.verdict)
        assert verdicts == {"holds", "fails"}

    @settings(max_examples=100, deadline=None)
    @given(ncc_queries(), st.integers(0, 60))
    def test_verdict_invariant_under_power_of_two_scaling(self, instance, k):
        g, p, m, K, L = instance
        f = 2.0**-k
        small_g = validate_graph(g.edges, g.weights * f, g.node_count)
        small = NccQuery(small_g, p, m, K=K * f, L=L)
        cert, small_cert = check_ncc(NccQuery(g, p, m, K=K, L=L)), check_ncc(small)
        assert (small_cert.verdict, small_cert.failed_bits) == (cert.verdict, cert.failed_bits)
        if small_cert.verdict == "holds":
            assert verify_ncc_witnesses(small, small_cert)

    def test_boundary_injection_exact_below_float_resolution(self):
        # Node 1 meets boundary edges of weight 1 and 2**-60; its injection of
        # 1 + 2**-60 has no float, so it must reach the flow solver exactly.
        from netlasso.certify import _orientation_spec

        g = validate_graph([(0, 1), (1, 2), (1, 3), (2, 3)], [2.0, 1.0, 2.0**-60, 2.0], 4)
        p = Partition((frozenset({0, 1}), frozenset({2, 3})))
        query = NccQuery(g, p, (0, 2, 3), K=2.0, L=1.0)
        cert = check_ncc(query)
        assert cert.verdict == "holds" and cert.scale == 2**60
        assert verify_ncc_witnesses(query, cert)
        both_in = orient_edges(g, cert.boundary_edges, 0b11)  # 2 -> 1 and 3 -> 1
        assert _orientation_spec(query, both_in, cert.scale).injections[1] == 1 + Fraction(
            1, 2**60
        )
        flows = dict(zip(cert.interior_edges, cert.interior_flows))
        assert flows[(0, 1)] == -(2**60 + 1)  # node 1 sends it all to node 0

    def test_certificate_serializes(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        cert = check_ncc(NccQuery(g, p, m, K=4.0, L=4.0))
        payload = json.loads(cert.to_json())
        assert payload["verdict"] == "holds"
        assert payload["interior_edges"] == [[0, 1], [2, 3]]
        assert len(payload["interior_flows"]) == 2
        assert "witnesses" not in payload


class TestCheckNccMatchesEnumeration:
    @settings(max_examples=300, deadline=None)
    @given(clustered_queries())
    def test_one_flow_equals_orientation_enumeration(self, query):
        cert = check_ncc(query)
        assert cert.verdict == reference_verdict(query)[0]
        if cert.verdict == "holds":
            assert verify_ncc_witnesses(query, cert)
        else:
            assert verify_ncc_cut(query, cert)
            assert not orientation_feasible(query, cert.failed_bits)


def pinned_queries(family: str):
    """check_ncc queries on the preset, on (8,8,8,8) planted partitions at
    weights 1 and 4096, the latter also with several distinct weights, and on
    the N=1e3 rung (10 clusters of 100, seed 21, boundary budget 100)."""
    if family == "preset":
        for seed in range(4):
            g, p = generate_planted_partition(paper_like_config(seed=seed))
            nodes = sample_boundary_aware(g, p, 15)
            for K in (1.0, 5.0, 10.0, 20.0):
                yield NccQuery(g, p, nodes, K=K, L=1.0)
        return
    if family == "n1e3":
        g, p = generate_planted_partition(PlantedPartitionConfig((100,) * 10, 0.1, 5e-4, seed=21))
        nodes = sample_boundary_aware(g, p, 100)
        for K in (1.0, 10.0):
            yield NccQuery(g, p, nodes, K=K, L=1.0)
        return
    rng = np.random.default_rng(12)
    for seed in range(6):
        for w in (1.0, 4096.0):
            cfg = PlantedPartitionConfig((8, 8, 8, 8), 1.0, 0.03, weight=w, seed=seed)
            g, p = generate_planted_partition(cfg)
            if family == "mixed-weights":
                weights = rng.choice([w, 0.5 * w, 3.0, 2.0**-20], size=g.edge_count)
                g = validate_graph(g.edges, weights, g.node_count)
            nodes = sample_boundary_aware(g, p, 12)
            for factor in (2, 4, 8):
                yield NccQuery(g, p, nodes, K=factor * w, L=2.0)


@pytest.mark.parametrize(
    "family, count, expected",
    [
        ("preset", 16, "087b91d5a5a45eb562d2d642dcbe3593ca069710bf9177a0e37c0e9aec5a1360"),
        ("8x4", 36, "3e868388a77cf9f0868b7390a8c0976719f7c25e0f0ca0eb220ea63202cd305f"),
        ("mixed-weights", 36, "79f539462be2caf0add068cb593e8319c254c0430788c92ef92b90235e62eff7"),
        ("n1e3", 2, "edae78db9f7dd6a7ec7a5382df4a75d1166d1d2dc632aa1ba3b5c31cfebd0915"),
    ],
)
def test_certificates_are_pinned(family, count, expected):
    """Byte-identical certificates (flows, cuts, scales) to those recorded
    before feasible_flow scaled each distinct weight once."""
    certs = [check_ncc(q) for q in pinned_queries(family)]
    assert len(certs) == count
    assert {c.verdict for c in certs} == {"holds", "fails"}
    data = "".join(repr(c) for c in certs).encode()
    assert hashlib.sha256(data).hexdigest() == expected


class TestVerifyNccCut:
    @staticmethod
    def fine_injection_query():
        # Node 1 supplies 1 + 2^-60, which a float rounds.
        g = validate_graph([(0, 1), (1, 2), (1, 3), (2, 3)], [1.0, 1.0, 2.0**-60, 2.0], 4)
        p = Partition((frozenset({0, 1}), frozenset({2, 3})))
        return NccQuery(g, p, (0, 2, 3), K=0.5, L=1.0)

    def test_accepts_cut_below_float_resolution(self):
        query = self.fine_injection_query()
        cert = check_ncc(query)
        # Both boundary edges point into the violated part {0, 1}.
        assert cert.verdict == "fails" and cert.failed_bits == 0b11
        assert cert.cut.nodes == (0, 1)
        assert verify_ncc_cut(query, cert)

    def test_accepts_cut_at_a_coarser_scale_than_a_boundary_flow(self):
        # The failed orientation's boundary arcs 1->0, 2->0 and 1->2 of flow
        # 0.5 leave net injections of +-1 only, so that orientation's own
        # feasibility query cuts at scale 1 while 0.5 needs 2.
        from netlasso.certify import _orientation_spec

        g = validate_graph(
            [(0, 1), (1, 2), (0, 2), (3, 4), (0, 3), (2, 4)], [0.5, 0.5, 0.5, 1.0, 1.0, 1.0], 5
        )
        p = Partition((frozenset({0, 3}), frozenset({1}), frozenset({2, 4})))
        query = NccQuery(g, p, (1,), K=1.0, L=1.0)
        cert = check_ncc(query)
        assert cert.verdict == "fails" and cert.scale == 2
        bnd = cert.boundary_edges
        oriented = orient_edges(g, bnd, cert.failed_bits)
        own = feasible_flow(g, bnd, _orientation_spec(query, oriented, cert.scale))
        assert not own.feasible and own.cut.scale == 1
        assert verify_ncc_cut(query, cert)
        assert verify_ncc_cut(query, dataclasses.replace(cert, cut=own.cut))

    @pytest.mark.parametrize(
        "change",
        [
            {"nodes": (0,)},
            {"nodes": (0, 1, 2, 3)},
            {"kind": "demand-excess"},
            {"demand_scaled": 0},
            {"capacity_scaled": 0},
            {"scale": 1},
        ],
    )
    def test_rejects_tampered_cut(self, change):
        query = self.fine_injection_query()
        cert = check_ncc(query)
        tampered = dataclasses.replace(cert, cut=dataclasses.replace(cert.cut, **change))
        assert not verify_ncc_cut(query, tampered)

    def test_rejects_other_orientation_and_other_verdicts(self, two_cluster_fixture):
        query = self.fine_injection_query()
        cert = check_ncc(query)
        for bits in (1, 2, -1, None):
            assert not verify_ncc_cut(query, dataclasses.replace(cert, failed_bits=bits))
        g, p, m = two_cluster_fixture
        holds_query = NccQuery(g, p, m, K=4.0, L=4.0)
        assert not verify_ncc_cut(holds_query, check_ncc(holds_query))


    def test_rejects_cut_with_out_of_range_node(self):
        # Preset seed 3 holds at K = 20. With no boundary edge flipped node 29
        # absorbs three boundary flows; read as node 29, node -1 would be a
        # violated cut with no edge leaving it.
        g, p = generate_planted_partition(paper_like_config(seed=3))
        query = NccQuery(g, p, sample_boundary_aware(g, p, 15), K=20.0, L=1.0)
        cert = check_ncc(query)
        assert cert.verdict == "holds" and g.node_count == 30
        demand = sum(cert.scale for e in cert.boundary_edges if e[1] == 29)
        assert demand == 3 * cert.scale
        for nodes in ((-1,), (30,)):
            forged = dataclasses.replace(
                cert, verdict="fails", interior_flows=None, failed_bits=0,
                cut=CutCertificate("supply-excess", nodes, demand, 0, cert.scale),
            )
            assert not verify_ncc_cut(query, forged)


class TestVerifyNccWitnesses:
    @pytest.fixture
    def holds(self):
        """Clusters {0,1,4} and {2,3} joined by boundary edge {1,2}; node 4 is
        a sampled neighbour of sampled node 0, so edge {0,4} moves imbalance
        between two sampled nodes only."""
        g = validate_graph([(0, 1), (0, 4), (1, 2), (2, 3)], [4.0, 4.0, 1.0, 4.0], 5)
        p = Partition((frozenset({0, 1, 4}), frozenset({2, 3})))
        query = NccQuery(g, p, (0, 3, 4), K=4.0, L=4.0)
        cert = check_ncc(query)
        assert cert.verdict == "holds"
        assert verify_ncc_witnesses(query, cert)
        return query, cert

    @staticmethod
    def with_flow(cert, edge, flow):
        """Certificate whose interior flow on ``edge`` is replaced."""
        flows = dict(zip(cert.interior_edges, cert.interior_flows))
        flows[edge] = flow
        return dataclasses.replace(cert, interior_flows=tuple(flows.values()))

    def test_rejects_corrupt_interior_flow(self, holds):
        query, cert = holds
        flow = dict(zip(cert.interior_edges, cert.interior_flows))[(0, 1)]
        for delta in (-1, 1):  # unbalances non-sampled node 1
            assert not verify_ncc_witnesses(query, self.with_flow(cert, (0, 1), flow + delta))

    def test_rejects_wrong_boundary_edges(self, holds):
        query, cert = holds
        for bnd in ((), ((1, 2), (2, 3)), ((0, 1),)):
            assert not verify_ncc_witnesses(query, dataclasses.replace(cert, boundary_edges=bnd))

    def test_rejects_sampled_imbalance_above_k(self, holds):
        query, cert = holds
        # Node 1 forces 4 units over {1,0}; 4 more over {4,0} leaves node 0
        # absorbing 8 > K while every edge stays within capacity.
        assert not verify_ncc_witnesses(query, self.with_flow(cert, (0, 4), -4 * cert.scale))

    def test_rejects_flow_above_capacity(self):
        # A circulation of 3 around the unit triangle 0 -> 1 -> 2 -> 0 keeps
        # every node balanced and puts at least 2 on each triangle edge.
        g = validate_graph([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], [1.0] * 5, 5)
        p = Partition((frozenset({0, 1, 2}), frozenset({3, 4})))
        query = NccQuery(g, p, (0, 4), K=2.0, L=1.0)
        cert = check_ncc(query)
        assert cert.verdict == "holds" and verify_ncc_witnesses(query, cert)
        flows = dict(zip(cert.interior_edges, cert.interior_flows))
        for edge, sign in (((0, 1), 1), ((1, 2), 1), ((0, 2), -1)):
            cert = self.with_flow(cert, edge, flows[edge] + sign * 3 * cert.scale)
        assert not verify_ncc_witnesses(query, cert)

    def test_rejects_coarse_scale(self, two_cluster_fixture):
        # On a 1e-6 grid K = 3.6e-6 rounds to 4e-6, and this failing query
        # passes for the unit query that holds at K = 4.
        g, p, m = two_cluster_fixture
        unit = check_ncc(NccQuery(g, p, m, K=4.0, L=4.0))
        tiny = NccQuery(validate_graph(g.edges, g.weights * 1e-6, 4), p, m, K=3.6e-6, L=4.0)
        assert check_ncc(tiny).verdict == "fails"
        coarse = dataclasses.replace(unit, K=tiny.K, scale=10**6)
        assert not verify_ncc_witnesses(tiny, coarse)

    def test_rejects_fails_certificate(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        query = NccQuery(g, p, m, K=1.0, L=4.0)
        cert = check_ncc(query)
        assert cert.verdict == "fails"
        assert not verify_ncc_witnesses(query, cert)
        assert not verify_ncc_witnesses(query, dataclasses.replace(cert, verdict="holds"))


class TestCheckSupportCondition:
    @pytest.mark.parametrize(
        "L", ["1", None, 10**400, float("nan"), 0.0], ids=["'1'", "None", "10**400", "nan", "0"]
    )
    def test_rejects_l_that_is_no_positive_number(self, two_cluster_fixture, L):
        g, p, m = two_cluster_fixture
        with pytest.raises(InvalidQueryError):
            check_support_condition(g, p, m, L)

    def test_fixture_satisfied_at_l4(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        res = check_support_condition(g, p, m, 4.0)
        assert res.satisfied
        assert res.K == 4.0
        assert not res.degenerate

    def test_fixture_violated_at_l5(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        res = check_support_condition(g, p, m, 5.0)
        assert not res.satisfied
        assert res.K is None
        assert res.violations == ((1, 2),)

    def test_empty_boundary_degenerate(self, path4):
        p = Partition((frozenset({0, 1, 2, 3}),))
        res = check_support_condition(path4, p, (0,), 3.0)
        assert res.satisfied and res.degenerate and res.K == 0.0

    @pytest.mark.parametrize("m", [(10**6, -5), (0, 4), (-1, 3)])
    def test_rejects_nodes_outside_graph(self, two_cluster_fixture, m):
        g, p, _ = two_cluster_fixture
        with pytest.raises(InvalidQueryError):
            check_support_condition(g, p, m, 1.0)

    @pytest.mark.parametrize("m", [(0.5, 3), ("1", 3)])
    def test_rejects_non_integer_nodes(self, two_cluster_fixture, m):
        g, p, _ = two_cluster_fixture
        with pytest.raises(InvalidQueryError):
            check_support_condition(g, p, m, 1.0)

    def test_endpoint_itself_not_a_support(self):
        # sampling only the boundary endpoints leaves no in-cluster neighbor support
        g = validate_graph([(0, 1), (1, 2), (2, 3)], [4.0, 1.0, 4.0], 4)
        p = Partition((frozenset({0, 1}), frozenset({2, 3})))
        res = check_support_condition(g, p, (1, 2), 1.0)
        assert not res.satisfied

    def test_support_condition_implies_ncc_on_absorption_sufficient_instances(self):
        # Needs enough sampled capacity per cluster: the all-inward boundary
        # orientation concentrates |boundary| * L * W units of flux inside
        # one cluster, and sampled nodes absorb at most K each.
        held = 0
        accepted = 0
        seed = 0
        while accepted < 15 and seed < 200:
            seed += 1
            cfg = PlantedPartitionConfig(sizes=(8, 9), p_in=0.9, p_out=0.03, seed=seed)
            try:
                g, p = generate_planted_partition(cfg)
            except Exception:
                continue
            bnd = boundary(g, p)
            if not 1 <= len(bnd) <= 6:
                continue
            m = sample_boundary_aware(g, p, int(g.node_count * 0.8))
            ms = set(m)
            lab = p.labels
            if any(
                len(ms & cl) < sum(1 for i, j in bnd if lab[i] == c or lab[j] == c)
                for c, cl in enumerate(p.clusters)
            ):
                continue
            res = check_support_condition(g, p, m, 1.0)
            if not res.satisfied or not res.K:
                continue
            accepted += 1
            cert = check_ncc(NccQuery(g, p, m, K=res.K, L=1.0))
            if cert.verdict == "holds":
                held += 1
        assert accepted == 15 and held == 15


class TestRecoveryErrorBound:
    def test_zero_noise(self):
        assert recovery_error_bound(3.0, 2.0, 0.0) == 0.0

    def test_direct_arithmetic(self):
        assert recovery_error_bound(4.0, 5.0, 0.1) == pytest.approx(0.5)

    def test_l_not_greater_than_one(self):
        with pytest.raises(LNotGreaterThanOneError):
            recovery_error_bound(4.0, 1.0, 0.1)

    def test_k_positive_required(self):
        with pytest.raises(InvalidQueryError):
            recovery_error_bound(0.0, 2.0, 0.1)


class TestVerifyErrorBound:
    def test_exact_recovery_passes_any_bound(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        x = clustered_signal(p, [1.0, 2.0])
        obs = Observations(nodes=m, y=x[list(m)], eps=np.zeros(2))
        report = verify_error_bound(g, x, x, obs, K=4.0, L=4.0)
        assert isinstance(report, ErrorBoundReport)
        assert report.passed and report.tv_error == 0.0 and report.bound == 0.0

    def test_violation_detected(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        x = clustered_signal(p, [1.0, 2.0])
        obs = Observations(nodes=m, y=x[list(m)], eps=np.zeros(2))
        x_bad = x + np.array([0.0, 1.0, 0.0, 0.0])
        report = verify_error_bound(g, x, x_bad, obs, K=4.0, L=4.0)
        assert not report.passed and report.slack < 0
