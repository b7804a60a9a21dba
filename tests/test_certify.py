"""Compatibility condition, sufficient condition, and the error bound."""

import dataclasses
import hashlib
import json
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import NOT_NUMBERS
from ncc_reference import (
    orientation_feasible,
    orientation_spec,
    reference_support_condition,
    reference_verdict,
    supply_spec,
)
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
from netlasso.flow import (
    CutCertificate,
    DemandSpec,
    _Dinic,
    feasible_flow,
    verify_cut_certificate,
)
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
        [(None, 1.0), ("2", 1.0), (10**400, 1.0), (1.0, "2"), (1.0, None), (1.0, -(10**400)),
         *((bad, 1.0) for bad in NOT_NUMBERS), *((1.0, bad) for bad in NOT_NUMBERS),
         (1.0, 10**400), (Decimal(1), 1.0), (1.0, Decimal(2))],
        ids=["K=None", "K='2'", "K=10**400", "L='2'", "L=None", "L=-10**400",
             *(f"K={bad!r}" for bad in NOT_NUMBERS), *(f"L={bad!r}" for bad in NOT_NUMBERS),
             "L=10**400", "K=Decimal", "L=Decimal"],
    )
    def test_parameters_that_are_no_finite_number(self, two_cluster_fixture, K, L):
        g, p, m = two_cluster_fixture
        with pytest.raises(InvalidQueryError):
            NccQuery(g, p, m, K=K, L=L)

    def test_takes_int_and_rational_parameters(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        assert check_ncc(NccQuery(g, p, m, K=2, L=Fraction(1, 2))).verdict == "holds"

    @pytest.mark.parametrize("K, L", [
        (np.float64(4.0), np.int64(4)), (np.int32(4), np.float32(4.0)), (4, 4.0),
    ])
    def test_takes_numpy_scalar_parameters(self, two_cluster_fixture, K, L):
        g, p, m = two_cluster_fixture
        cert = check_ncc(NccQuery(g, p, m, K=K, L=L))
        assert cert.verdict == "holds" and cert.scale == 1 and (cert.K, cert.L) == (4, 4)

    def test_rational_k_keeps_its_exact_scale(self):
        # K = 1/3 is no float: the flow is solved in thirds, and K is kept as given
        g = validate_graph([(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0], 4)
        query = NccQuery(g, Partition.from_labels([0, 0, 1, 1]), (0, 3), K=Fraction(1, 3), L=2)
        cert = check_ncc(query)
        assert cert.scale == 3 and cert.K == Fraction(1, 3) and verify_ncc_cut(query, cert)


class TestCheckNcc:
    def test_fixture_holds_at_k4_l4(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        query = NccQuery(g, p, m, K=4.0, L=4.0)
        cert = check_ncc(query)
        assert cert.verdict == "holds"
        assert cert.orientations_total == 2
        assert verify_ncc_witnesses(query, cert)
        # i and j each supply L*W = 4 units, absorbed by m and n, over the
        # interior edges 0 = (0, 1) and 2 = (2, 3)
        assert g.pairs([0, 2]) == ((0, 1), (2, 3))
        # i -> m (canonical 0 -> 1), j -> n (canonical 2 -> 3)
        assert cert.interior_flows == ((0, -4 * cert.scale), (2, 4 * cert.scale))

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
        route = _Dinic.route

        def counted(net, nodes, excess):
            calls.append(nodes)
            return route(net, nodes, excess)

        monkeypatch.setattr(_Dinic, "route", counted)
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
        g, p, m = two_cluster_fixture
        query = NccQuery(g, p, m, K=1.0, L=4.0)
        cert = check_ncc(query)
        assert cert.verdict == "fails"
        spec = orientation_spec(query, cert.failed_bits)
        assert verify_cut_certificate(g, boundary(g, p), spec, cert.cut)

    def test_weight_4096_copy_repeats_unit_verdict(self):
        # At weight 4096 the scaled capacities pass 2^31; scaling every weight
        # and K by the same factor must leave verdict and certificate unchanged.
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
                        spec = orientation_spec(query, cert.failed_bits)
                        assert verify_cut_certificate(g, boundary(g, p), spec, cert.cut)
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
        g = validate_graph([(0, 1), (1, 2), (1, 3), (2, 3)], [2.0, 1.0, 2.0**-60, 2.0], 4)
        p = Partition((frozenset({0, 1}), frozenset({2, 3})))
        query = NccQuery(g, p, (0, 2, 3), K=2.0, L=1.0)
        cert = check_ncc(query)
        assert cert.verdict == "holds" and cert.scale == 2**60
        assert verify_ncc_witnesses(query, cert)
        both_in = orientation_spec(query, 0b11)  # 2 -> 1 and 3 -> 1
        assert both_in.injections[1] == 1 + Fraction(1, 2**60)
        flows = dict(cert.interior_flows)
        assert flows[g.edge_id(0, 1)] == -(2**60 + 1)  # node 1 sends it all to node 0

    @staticmethod
    def path_query(boundary_weight, L):
        """Path 0-1-2-3 with clusters {0,1} and {2,3}, node 3 the only sample
        and K = 1: the boundary edge's supply L*W at node 1 has nowhere to go."""
        g = validate_graph([(0, 1), (1, 2), (2, 3)], [1.0, boundary_weight, 1.0], 4)
        p = Partition((frozenset({0, 1}), frozenset({2, 3})))
        return NccQuery(g, p, (3,), K=1.0, L=L)

    def test_boundary_flow_below_float_range_is_exact(self):
        # 0.5 * 5e-324 is 0 in floats, which would make the NCC hold.
        query = self.path_query(5e-324, 0.5)
        cert = check_ncc(query)
        assert cert.verdict == "fails" and cert.scale == 2**1075
        assert cert.cut == CutCertificate("supply-excess", (0, 1), 1, 0, 2**1075)
        assert verify_ncc_cut(query, cert)

    def test_boundary_flow_above_float_range_is_exact(self):
        # 2 * 1.5e308 is inf in floats.
        query = self.path_query(1.5e308, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = check_ncc(query)
        assert cert.verdict == "fails" and cert.cut.nodes == (0, 1)
        assert cert.cut.demand_scaled == 2 * int(1.5e308)
        assert verify_ncc_cut(query, cert)

    def test_certificate_serializes(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        cert = check_ncc(NccQuery(g, p, m, K=4.0, L=4.0))
        payload = json.loads(json.dumps(cert.to_json_dict()))
        assert payload["verdict"] == "holds"
        assert payload["interior_flows"] == [[0, -4 * cert.scale], [2, 4 * cert.scale]]
        assert "interior_edges" not in payload and "witnesses" not in payload


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


class TestNccCutIsOneClusterPart:
    @settings(max_examples=300, deadline=None)
    @given(clustered_queries())
    def test_every_cluster_part_of_the_supply_cut_is_violated(self, query):
        cert = check_ncc(query)
        if cert.verdict == "holds":
            return
        g, labels, s = query.graph, query.partition.labels, cert.scale
        spec = supply_spec(query)
        supply = feasible_flow(g, cert.boundary_edges, spec)
        assert not supply.feasible and supply.cut.kind == "supply-excess"
        interior = [(i, j, Fraction(w)) for (i, j), w in zip(g.edges, g.weights.tolist())
                    if labels[i] == labels[j]]
        parts = sorted({labels[i] for i in supply.cut.nodes})
        for c in parts:
            nodes = tuple(i for i in supply.cut.nodes if labels[i] == c)
            inside = set(nodes)
            demand = sum(spec.injections.get(i, 0) for i in nodes)
            capacity = sum(w for i, j, w in interior if (i in inside) != (j in inside))
            capacity += Fraction(query.K) * len(inside.intersection(query.sample_nodes))
            cut = CutCertificate("supply-excess", nodes, int(demand * s), int(capacity * s), s)
            bits = sum(1 << k for k, (i, _) in enumerate(cert.boundary_edges) if i in inside)
            assert verify_ncc_cut(query, dataclasses.replace(cert, cut=cut, failed_bits=bits))
            if c == parts[0]:
                assert (cert.cut, cert.failed_bits) == (cut, bits)


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
        ("preset", 16, "f099418b707c61c86abb0b8521e6edf5aa9faf4b0776b5988b877aabf20df98a"),
        ("8x4", 36, "c870634a1336ebc503add46a916b6acf35364c59fe0129dcc877c5d7c27ec013"),
        ("mixed-weights", 36, "5c7dbcaf7d3cb895e1b98b611d45708bb7619c941fdd253257d6b29cff52efcb"),
        ("n1e3", 2, "0965a6737099efdf57451e187cd692f68b7bc0d31f306778327fef7d6dd89757"),
    ],
    ids=["preset", "8x4", "mixed-weights", "n1e3"],
)
def test_certificates_are_pinned(family, count, expected):
    """Byte-identical certificates (flows, cuts, scales). Recorded when the
    certificate went sparse, after every query's nonzero flows by edge id,
    cut, failed_bits and scale were checked equal to the earlier form's.
    n1e3 was re-recorded when the kernel's phases began labelling from the
    excess: its K=10 flow changed and re-verifies, and every verdict, cut,
    failed_bits and scale stayed as they were."""
    certs = [check_ncc(q) for q in pinned_queries(family)]
    assert len(certs) == count
    assert {c.verdict for c in certs} == {"holds", "fails"}
    data = "".join(repr(c) for c in certs).encode()
    assert hashlib.sha256(data).hexdigest() == expected


class TestCheckNccMatchesPublicFlow:
    """``check_ncc``'s integer instance against ``feasible_flow`` on the
    reference supply demand: the same network, at the query's scale."""

    @staticmethod
    def assert_matches_public_flow(query):
        cert = check_ncc(query)
        g, labels = query.graph, query.partition.labels
        public = feasible_flow(g, cert.boundary_edges, supply_spec(query))
        assert cert.verdict == ("holds" if public.feasible else "fails")
        if public.feasible:
            factor, rest = divmod(cert.scale, public.scale)
            assert rest == 0
            ii, jj = g.endpoint_arrays()
            interior = np.flatnonzero(labels[ii] == labels[jj]).tolist()
            flows = zip(interior, public.witness.edge_flows)
            assert cert.interior_flows == tuple((e, factor * f) for e, f in flows if f != 0)
            assert verify_ncc_witnesses(query, cert)
        else:
            nodes = np.array(public.cut.nodes)
            part = nodes[labels[nodes] == labels[nodes].min()]
            assert cert.cut.nodes == tuple(part.tolist())
            assert verify_ncc_cut(query, cert)

    @settings(max_examples=300, deadline=None)
    @given(clustered_queries())
    def test_clustered_queries(self, query):
        self.assert_matches_public_flow(query)

    @pytest.mark.parametrize("family", ["preset", "8x4", "mixed-weights", "n1e3"])
    def test_pinned_families(self, family):
        for query in pinned_queries(family):
            self.assert_matches_public_flow(query)


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
        g = validate_graph(
            [(0, 1), (1, 2), (0, 2), (3, 4), (0, 3), (2, 4)], [0.5, 0.5, 0.5, 1.0, 1.0, 1.0], 5
        )
        p = Partition((frozenset({0, 3}), frozenset({1}), frozenset({2, 4})))
        query = NccQuery(g, p, (1,), K=1.0, L=1.0)
        cert = check_ncc(query)
        assert cert.verdict == "fails" and cert.scale == 2
        own = feasible_flow(g, cert.boundary_edges, orientation_spec(query, cert.failed_bits))
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

    def test_rejects_cut_spanning_two_clusters(self):
        # U = all four nodes supplies 2 + 2^-59 against the 1.5 its three
        # samples may absorb, and bits 0b11 point U's boundary edges into it;
        # but the edges join two parts of U, so no orientation has that demand.
        query = self.fine_injection_query()
        cert = check_ncc(query)
        s = cert.scale
        spans = CutCertificate("supply-excess", (0, 1, 2, 3), 2 * s + 2, 3 * s // 2, s)
        supply = DemandSpec(
            {1: 1 + Fraction(1, 2**60), 2: 1, 3: Fraction(1, 2**60)},
            frozenset(query.sample_nodes),
            query.K,
        )
        assert verify_cut_certificate(query.graph, cert.boundary_edges, supply, spans)
        assert cert.failed_bits == 0b11
        assert not verify_ncc_cut(query, dataclasses.replace(cert, cut=spans))

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
    def with_flow(query, cert, edge, flow):
        """Certificate whose interior flow on ``edge`` is replaced."""
        flows = dict(cert.interior_flows)
        flows[query.graph.edge_id(*edge)] = flow
        kept = tuple(sorted((e, f) for e, f in flows.items() if f != 0))
        return dataclasses.replace(cert, interior_flows=kept)

    def test_rejects_corrupt_interior_flow(self, holds):
        query, cert = holds
        flow = dict(cert.interior_flows)[query.graph.edge_id(0, 1)]
        for delta in (-1, 1):  # unbalances non-sampled node 1
            forged = self.with_flow(query, cert, (0, 1), flow + delta)
            assert not verify_ncc_witnesses(query, forged)

    # Forgeries of the sparse list ((0, -4s), (3, 4s)): edge 0 is (0, 1), edge 1
    # (0, 4) carries nothing, edge 2 is the boundary edge (1, 2) and edge 3,
    # (2, 3), is the last of the m = 4 edges.
    FORGED = {
        "id -1 for the last edge": lambda fl: sorted((-1 if e == 3 else e, f) for e, f in fl),
        "id m": lambda fl: [*fl, (4, 1)],
        "id beyond int64": lambda fl: [*fl, (2**64, 1)],
        "boundary id": lambda fl: sorted([*fl, (2, 1)]),
        "repeated id": lambda fl: [fl[0], (3, fl[1][1] // 2), (3, fl[1][1] // 2)],
        "ids out of order": lambda fl: fl[::-1],
        "explicit zero flow": lambda fl: sorted([*fl, (1, 0)]),
        "float id": lambda fl: [(float(e), f) for e, f in fl],
        "string id": lambda fl: [(str(e), f) for e, f in fl],
        "float flow": lambda fl: [(e, float(f)) for e, f in fl],
        "no pair": lambda fl: [(*p, 0) for p in fl],
    }

    @pytest.mark.parametrize("forgery", FORGED)
    def test_rejects_forged_sparse_flows(self, holds, forgery):
        query, cert = holds
        s = cert.scale
        assert cert.interior_flows == ((0, -4 * s), (3, 4 * s))
        forged = tuple(self.FORGED[forgery](list(cert.interior_flows)))
        assert not verify_ncc_witnesses(query, dataclasses.replace(cert, interior_flows=forged))

    def test_rejects_wrong_boundary_edges(self, holds):
        query, cert = holds
        for bnd in ((), ((1, 2), (2, 3)), ((0, 1),)):
            assert not verify_ncc_witnesses(query, dataclasses.replace(cert, boundary_edges=bnd))

    def test_rejects_sampled_imbalance_above_k(self, holds):
        query, cert = holds
        # Node 1 forces 4 units over {1,0}; 4 more over {4,0} leaves node 0
        # absorbing 8 > K while every edge stays within capacity.
        forged = self.with_flow(query, cert, (0, 4), -4 * cert.scale)
        assert not verify_ncc_witnesses(query, forged)

    def test_rejects_flow_above_capacity(self):
        # A circulation of 3 around the unit triangle 0 -> 1 -> 2 -> 0 keeps
        # every node balanced and puts at least 2 on each triangle edge.
        g = validate_graph([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], [1.0] * 5, 5)
        p = Partition((frozenset({0, 1, 2}), frozenset({3, 4})))
        query = NccQuery(g, p, (0, 4), K=2.0, L=1.0)
        cert = check_ncc(query)
        assert cert.verdict == "holds" and verify_ncc_witnesses(query, cert)
        flows = dict(cert.interior_flows)
        for edge, sign in (((0, 1), 1), ((1, 2), 1), ((0, 2), -1)):
            flow = flows.get(g.edge_id(*edge), 0) + sign * 3 * cert.scale
            cert = self.with_flow(query, cert, edge, flow)
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

    def test_boundary_flow_beyond_float_range_warns_nothing(self):
        # L*W = 2 * 1.5e308 is inf in floats: no support reaches it, and no overflow warning
        g = validate_graph([(0, 1), (1, 2), (2, 3)], [1.0, 1.5e308, 1.0], 4)
        p = Partition((frozenset({0, 1}), frozenset({2, 3})))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = check_support_condition(g, p, (3,), 2)
        assert not res.satisfied and res.K is None and res.violations == ((1, 2),)

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

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_loop_reference(self, data):
        # few distinct weights, so equal weights and exact L*W >= W ties occur
        n = data.draw(st.integers(2, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
        weights = [data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])) for _ in edges]
        g = validate_graph(edges, weights, n)
        labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        p = Partition.from_labels(np.unique(labels, return_inverse=True)[1])
        m = data.draw(st.sets(st.integers(0, n - 1)))
        L = data.draw(st.sampled_from([0.5, 1, 1.5, 2.0]))
        res = check_support_condition(g, p, m, L)
        assert res == reference_support_condition(g, p, m, L)

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

    @pytest.mark.parametrize("K, L, eps_l1", [
        (4, 5, 1), (Fraction(4), Fraction(5), Fraction(1)),
        (np.int64(4), np.float32(5.0), np.float64(1.0)),
    ])
    def test_takes_ints_rationals_and_numpy_scalars(self, K, L, eps_l1):
        assert recovery_error_bound(K, L, eps_l1) == 5.0

    def test_l_not_greater_than_one(self):
        with pytest.raises(LNotGreaterThanOneError):
            recovery_error_bound(4.0, 1.0, 0.1)

    def test_k_positive_required(self):
        with pytest.raises(InvalidQueryError):
            recovery_error_bound(0.0, 2.0, 0.1)

    @pytest.mark.parametrize("K, L, eps_l1, error", [
        (math.inf, 2.0, 1.0, InvalidQueryError),
        (math.nan, 2.0, 1.0, InvalidQueryError),
        (10.0, math.inf, 1.0, LNotGreaterThanOneError),
        (10.0, math.nan, 1.0, LNotGreaterThanOneError),
        (10.0, 2.0, math.nan, InvalidQueryError),
        (10.0, 2.0, math.inf, InvalidQueryError),
        *((bad, 2.0, 1.0, InvalidQueryError) for bad in (*NOT_NUMBERS, 10**400)),
        *((10.0, bad, 1.0, LNotGreaterThanOneError) for bad in (*NOT_NUMBERS, 10**400)),
        *((10.0, 2.0, bad, InvalidQueryError) for bad in (*NOT_NUMBERS, 10**400)),
    ])
    def test_non_finite_inputs_rejected(self, K, L, eps_l1, error):
        with pytest.raises(error):
            recovery_error_bound(K, L, eps_l1)


class TestVerifyErrorBound:
    def test_exact_recovery_passes_any_bound(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        x = clustered_signal(p, [1.0, 2.0])
        obs = Observations(nodes=m, y=x[list(m)], eps=np.zeros(2))
        report = verify_error_bound(g, x, x, obs, K=4.0, L=4.0)
        assert isinstance(report, ErrorBoundReport)
        assert report.passed and report.tv_error == 0.0 and report.bound == 0.0

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, *NOT_NUMBERS, 10**400])
    def test_non_finite_tolerance_rejected(self, two_cluster_fixture, tolerance):
        g, p, m = two_cluster_fixture
        x = clustered_signal(p, [1.0, 2.0])
        obs = Observations(nodes=m, y=x[list(m)], eps=np.zeros(2))
        with pytest.raises(InvalidQueryError):
            verify_error_bound(g, x, x, obs, K=4.0, L=4.0, tolerance=tolerance)

    def test_violation_detected(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        x = clustered_signal(p, [1.0, 2.0])
        obs = Observations(nodes=m, y=x[list(m)], eps=np.zeros(2))
        x_bad = x + np.array([0.0, 1.0, 0.0, 0.0])
        report = verify_error_bound(g, x, x_bad, obs, K=4.0, L=4.0)
        assert not report.passed and report.slack < 0
