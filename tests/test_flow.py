"""The max-flow kernel against a brute-force min-cut oracle and scipy's max
flow; demand feasibility against Hoffman's cut condition."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow as scipy_maximum_flow

from conftest import Network, brute_force_min_cut, random_connected_graph
from netlasso.errors import InvalidDemandSpecError
from netlasso.flow import (
    CutCertificate,
    DemandSpec,
    DemandWitness,
    _Dinic,
    feasible_flow,
    scaled,
    verify_cut_certificate,
    verify_demand_witness,
)
from netlasso.graphs import validate_graph


def scipy_max_flow_value(net: Network, s: int, t: int, scale: int) -> int:
    """Reference max-flow value from scipy, which sums parallel arcs and needs int32."""
    rows, cols, data = [], [], []
    for u, v, c in net.arcs:
        if scaled(c, scale) > 0:
            rows.append(u)
            cols.append(v)
            data.append(scaled(c, scale))
    assert sum(data) < 2**31, "reference only valid on int32 capacities"
    if not data:
        return 0
    matrix = csr_matrix(
        (np.asarray(data, dtype=np.int32), (rows, cols)), shape=(net.node_count,) * 2
    )
    return int(scipy_maximum_flow(matrix, s, t).flow_value)


def kernel_max_flow(net: Network, s: int, t: int) -> tuple[int, list[int]]:
    """The kernel's max-flow value on a network of integer capacities, and
    the flow it leaves on each arc."""
    caps = [scaled(c, 1) for _, _, c in net.arcs]
    tails, heads = [u for u, _, _ in net.arcs], [v for _, v, _ in net.arcs]
    kernel = _Dinic(net.node_count, tails, heads, caps, [0] * len(caps))
    value = kernel.max_flow(s, t)
    return value, [c - kernel.cap[2 * a] for a, c in enumerate(caps)]


def is_flow(net: Network, s: int, t: int, flows: list[int], value: int) -> bool:
    """Independent check: capacity bounds, and conservation away from s and t."""
    balance = [0] * net.node_count
    for (u, v, c), f in zip(net.arcs, flows):
        if not 0 <= f <= c:
            return False
        balance[u] -= f
        balance[v] += f
    others = (b for i, b in enumerate(balance) if i not in (s, t))
    return not any(others) and balance[t] == value == -balance[s]


def hoffman_feasible(g, excluded, spec: DemandSpec, scale: int) -> bool:
    """Feasibility by Hoffman's condition, enumerating every node set U.

    The demand is feasible iff each U has |b(U)| <= W(edges leaving U) +
    K * |U intersect slack nodes|, with b the required net outflows.
    """
    n = g.node_count
    b = [scaled(spec.injections.get(i, 0.0), scale) for i in range(n)]
    k = scaled(spec.slack_bound, scale)
    excluded = set(excluded)
    kept = [(e, scaled(float(w), scale)) for e, w in zip(g.edges, g.weights) if e not in excluded]
    for mask in range(1, 1 << n):
        inside = [mask >> i & 1 for i in range(n)]
        demand = sum(b[i] for i in range(n) if inside[i])
        capacity = sum(c for (i, j), c in kept if inside[i] != inside[j])
        capacity += k * sum(1 for i in spec.slack_nodes if inside[i])
        if abs(demand) > capacity:
            return False
    return True


@st.composite
def networks(draw, max_nodes: int = 7):
    n = draw(st.integers(2, max_nodes))
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node, st.integers(0, 1000)), max_size=3 * n))
    return Network(n, tuple((u, v, float(c)) for u, v, c in arcs if u != v))


@st.composite
def demand_instances(draw, max_nodes: int = 6):
    """Connected graph with integer weights plus a demand spec, exact at scale 1."""
    n = draw(st.integers(2, max_nodes))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= {e for e in draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
              if e[0] < e[1]}
    edges = sorted(edges)
    weights = draw(st.lists(st.integers(1, 4), min_size=len(edges), max_size=len(edges)))
    g = validate_graph(edges, [float(w) for w in weights], n)
    injections = draw(st.dictionaries(st.integers(0, n - 1), st.integers(-4, 4)))
    spec = DemandSpec(
        injections={i: float(v) for i, v in injections.items()},
        slack_nodes=frozenset(draw(st.sets(st.integers(0, n - 1)))),
        slack_bound=float(draw(st.integers(0, 3))),
    )
    return g, spec


def random_network(rng: np.random.Generator, max_nodes: int = 8) -> Network:
    n = int(rng.integers(2, max_nodes + 1))
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.45:
                arcs.append((u, v, float(rng.integers(0, 11))))
    # occasional parallel arcs
    if arcs and rng.random() < 0.5:
        u, v, _ = arcs[int(rng.integers(0, len(arcs)))]
        arcs.append((u, v, float(rng.integers(1, 5))))
    return Network(n, tuple(arcs))


class TestMaxFlow:
    def test_single_arc(self):
        value, flows = kernel_max_flow(Network(2, ((0, 1, 5.0),)), 0, 1)
        assert value == 5
        assert flows == [5]

    def test_two_path_with_cross_arc(self):
        # min cut {s, a} has capacity 2 + 1 + 1 = 4
        net = Network(4, ((0, 1, 3.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 3.0), (1, 2, 1.0)))
        value, flows = kernel_max_flow(net, 0, 3)
        assert value == 4
        assert is_flow(net, 0, 3, flows, value)

    def test_zero_capacity_network(self):
        value, _ = kernel_max_flow(Network(3, ((0, 1, 0.0), (1, 2, 0.0))), 0, 2)
        assert value == 0

    def test_matches_brute_force_min_cut(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            net = random_network(rng)
            s, t = 0, net.node_count - 1
            value, flows = kernel_max_flow(net, s, t)
            assert value == brute_force_min_cut(net, s, t, scale=1)
            assert is_flow(net, s, t, flows, value)

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            net = random_network(rng)
            t = net.node_count - 1
            value, _ = kernel_max_flow(net, 0, t)
            assert value == scipy_max_flow_value(net, 0, t, scale=1)

    @settings(max_examples=200, deadline=None)
    @given(networks(), st.data())
    def test_matches_scipy_reference_on_random_networks(self, net, data):
        s = data.draw(st.integers(0, net.node_count - 1))
        t = data.draw(st.integers(0, net.node_count - 1).filter(lambda v: v != s))
        value, flows = kernel_max_flow(net, s, t)
        assert value == scipy_max_flow_value(net, s, t, scale=1)
        assert is_flow(net, s, t, flows, value)

    # Exactness through feasible_flow on a path 0-1-2: a demand from 0 to 2 is
    # feasible exactly up to the max flow, and the witness carries it exactly.

    def test_capacities_beyond_int32_exact(self):
        g = validate_graph([(0, 1), (1, 2)], [3e10, 5e9], 3)
        spec = DemandSpec(injections={0: 5e9, 2: -5e9})
        res = feasible_flow(g, [], spec)
        assert res.feasible and res.scale == 1
        assert res.witness.edge_flows == (5 * 10**9, 5 * 10**9)
        assert verify_demand_witness(g, [], spec, res.witness)
        more = DemandSpec(injections={0: 5e9 + 1, 2: -5e9 - 1})
        cut = feasible_flow(g, [], more).cut
        assert (cut.demand_scaled, cut.capacity_scaled) == (5 * 10**9 + 1, 5 * 10**9)
        assert verify_cut_certificate(g, [], more, cut)

    def test_extreme_capacities_exact(self):
        g = validate_graph([(0, 1), (1, 2)], [1e300, 5e-324], 3)
        spec = DemandSpec(injections={0: 5e-324, 2: -5e-324})
        res = feasible_flow(g, [], spec)
        assert res.feasible and res.scale == 2**1074
        assert res.witness.edge_flows == (1, 1)
        assert verify_demand_witness(g, [], spec, res.witness)
        more = DemandSpec(injections={0: 1e-323, 2: -1e-323})
        cut = feasible_flow(g, [], more).cut
        assert (cut.demand_scaled, cut.capacity_scaled) == (2, 1)
        assert verify_cut_certificate(g, [], more, cut)

    def test_big_int_capacities_keep_their_value(self):
        # float(2**60 + 1) is 2**60
        g = validate_graph([(0, 1), (1, 2)], [2.0**61, 2.0**61], 3)
        spec = DemandSpec(injections={0: 2**60 + 1, 2: -(2**60 + 1)})
        res = feasible_flow(g, [], spec)
        assert res.feasible and res.scale == 1
        assert res.witness.edge_flows == (2**60 + 1, 2**60 + 1)
        assert verify_demand_witness(g, [], spec, res.witness)

    def test_rational_capacities_exact(self):
        g = validate_graph([(0, 1), (1, 2)], [1.0, 0.25], 3)
        spec = DemandSpec(injections={0: Fraction(1, 3), 1: Fraction(-1, 12), 2: -0.25})
        res = feasible_flow(g, [], spec)
        assert res.feasible and res.scale == 12
        assert res.witness.edge_flows == (4, 3)
        assert verify_demand_witness(g, [], spec, res.witness)

    def test_coarse_scale_assignment_rejected(self):
        # On a 1e-6 grid both capacities of 1.5e-6 round to 2, so a flow of
        # 2e-6 would pass as feasible there.
        g = validate_graph([(0, 1), (1, 2)], [1.5e-6, 1.5e-6], 3)
        spec = DemandSpec(injections={0: 1.5e-6, 2: -1.5e-6})
        res = feasible_flow(g, [], spec)
        assert res.feasible
        assert verify_demand_witness(g, [], spec, res.witness)
        more = DemandSpec(injections={0: 2e-6, 2: -2e-6})
        assert not feasible_flow(g, [], more).feasible
        coarse = DemandWitness(g.edges, (2, 2), (2, 0, -2), scale=10**6)
        assert not verify_demand_witness(g, [], more, coarse)

    def test_integrality_with_integer_capacities(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            net = random_network(rng)
            value, flows = kernel_max_flow(net, 0, net.node_count - 1)
            assert all(isinstance(f, int) for f in flows)
            assert isinstance(value, int)


class TestFeasibleFlow:
    def test_path_exact_capacity(self, path2):
        spec = DemandSpec(injections={0: 1.0, 1: -1.0})
        res = feasible_flow(path2, [], spec)
        assert res.feasible
        assert res.witness.edge_flows == (res.witness.scale,)
        assert verify_demand_witness(path2, [], spec, res.witness)

    def test_path_over_capacity_yields_cut(self, path2):
        spec = DemandSpec(injections={0: 2.0, 1: -2.0})
        res = feasible_flow(path2, [], spec)
        assert not res.feasible
        assert res.cut.nodes == (0,)
        assert res.cut.demand_scaled == 2 * res.scale
        assert res.cut.capacity_scaled == 1 * res.scale
        assert verify_cut_certificate(path2, [], spec, res.cut)

    def test_star_routes_through_center(self):
        star = validate_graph([(0, 1), (0, 2), (0, 3)], [2.0] * 3, 4)
        spec = DemandSpec(injections={1: 2.0, 2: -2.0, 3: 0.0})
        res = feasible_flow(star, [], spec)
        assert res.feasible
        assert verify_demand_witness(star, [], spec, res.witness)
        flows = dict(zip(res.witness.edges, res.witness.edge_flows))
        assert flows[(0, 1)] == -2 * res.scale  # leaf 1 -> center
        assert flows[(0, 2)] == 2 * res.scale  # center -> leaf 2

    def test_slack_absorbs_imbalance(self, path4):
        spec = DemandSpec(injections={0: 1.0}, slack_nodes=frozenset({3}), slack_bound=1.0)
        res = feasible_flow(path4, [], spec)
        assert res.feasible
        net_out = res.witness.node_net_outflow
        assert net_out[0] == res.scale
        assert net_out[3] == -res.scale

    def test_slack_bound_binds(self, path4):
        spec = DemandSpec(injections={0: 1.0}, slack_nodes=frozenset({3}), slack_bound=0.25)
        res = feasible_flow(path4, [], spec)
        assert not res.feasible
        assert verify_cut_certificate(path4, [], spec, res.cut)

    def test_rational_demands_exact(self, path4):
        third = Fraction(1, 3)
        spec = DemandSpec(injections={0: third}, slack_nodes=frozenset({3}), slack_bound=third)
        res = feasible_flow(path4, [], spec)
        assert res.feasible and res.scale == 3
        assert verify_demand_witness(path4, [], spec, res.witness)

    def test_excluded_edges_removed(self, path4):
        spec = DemandSpec(injections={0: 1.0, 3: -1.0})
        res = feasible_flow(path4, [(1, 2)], spec)
        assert not res.feasible
        assert verify_cut_certificate(path4, [(1, 2)], spec, res.cut)

    @pytest.fixture
    def two_routes(self):
        """Routes 0-1-3 and 0-2-3 of edges of weight 1.4e-6: capacity 2.8e-6."""
        return validate_graph([(0, 1), (0, 2), (1, 3), (2, 3)], [1.4e-6] * 4, 4)

    def test_two_routes_below_a_coarse_grid_feasible(self, two_routes):
        spec = DemandSpec(injections={0: 2.6e-6, 3: -2.6e-6})
        res = feasible_flow(two_routes, [], spec)
        assert res.feasible
        assert verify_demand_witness(two_routes, [], spec, res.witness)

    def test_coarse_scale_cut_rejected(self, two_routes):
        # On a 1e-6 grid the routes round to capacity 2 against a demand of 3.
        spec = DemandSpec(injections={0: 2.6e-6, 3: -2.6e-6})
        cut = CutCertificate("supply-excess", (0,), demand_scaled=3, capacity_scaled=2, scale=10**6)
        assert not verify_cut_certificate(two_routes, [], spec, cut)

    def test_extreme_weights_exact(self):
        g = validate_graph([(0, 1), (1, 2)], [1e300, 5e-324], 3)
        tiny = DemandSpec(injections={0: 5e-324, 2: -5e-324})
        res = feasible_flow(g, [], tiny)
        assert res.feasible and res.scale == 2**1074
        assert res.witness.edge_flows == (1, 1)
        assert verify_demand_witness(g, [], tiny, res.witness)
        huge = DemandSpec(injections={0: 1e300, 2: -1e300})
        res = feasible_flow(g, [], huge)
        assert not res.feasible
        assert res.cut.nodes == (0, 1)
        assert res.cut.demand_scaled == int(1e300) * 2**1074
        assert res.cut.capacity_scaled == 1
        assert verify_cut_certificate(g, [], huge, res.cut)

    def test_invalid_demand_spec(self, path2):
        with pytest.raises(InvalidDemandSpecError):
            DemandSpec(slack_bound=-1.0)
        with pytest.raises(InvalidDemandSpecError):
            feasible_flow(path2, [], DemandSpec(injections={9: 1.0}))

    def test_out_of_range_spec_node_raises_in_every_function(self, path2):
        # Node -1 must not alias node 1, or the witness for {0: 1, 1: -1}
        # would pass for the first spec.
        witness = feasible_flow(path2, [], DemandSpec(injections={0: 1.0, 1: -1.0})).witness
        cut = CutCertificate("supply-excess", (0,), 1, 0, 1)
        for spec in (
            DemandSpec(injections={0: 1.0, -1: -1.0}),
            DemandSpec(injections={0: 1.0, 2: -1.0}),
            DemandSpec(slack_nodes=frozenset({-1}), slack_bound=1.0),
        ):
            with pytest.raises(InvalidDemandSpecError):
                feasible_flow(path2, [], spec)
            with pytest.raises(InvalidDemandSpecError):
                verify_demand_witness(path2, [], spec, witness)
            with pytest.raises(InvalidDemandSpecError):
                verify_cut_certificate(path2, [], spec, cut)

    def test_cut_with_out_of_range_node_rejected(self):
        # Feasible on the path 0-1-2; read as node 2, node -1 would supply 1
        # with no edge leaving it.
        path = validate_graph([(0, 1), (1, 2)], [1.0, 1.0], 3)
        spec = DemandSpec(injections={2: 1, 0: -1})
        assert feasible_flow(path, [], spec).feasible
        for nodes in ((-1,), (3,), (0, 1, 3)):
            cut = CutCertificate("supply-excess", nodes, 1, 0, 1)
            assert not verify_cut_certificate(path, [], spec, cut)
        # A true cut with one more node outside the graph proves nothing.
        spec = DemandSpec(injections={0: 2, 2: -2})
        cut = feasible_flow(path, [], spec).cut
        assert verify_cut_certificate(path, [], spec, cut)
        for extra in (-1, 3):
            padded = replace(cut, nodes=(*cut.nodes, extra))
            assert not verify_cut_certificate(path, [], spec, padded)

    @pytest.mark.parametrize(
        "kwargs",
        [{"injections": {1.5: 1.0}}, {"injections": {"1": 1.0}}, {"slack_nodes": {2.7}},
         {"slack_nodes": {"2"}}, {"injections": {None: 1.0}}],
        ids=["float-injection-node", "string-injection-node", "float-slack-node",
             "string-slack-node", "none-injection-node"],
    )
    def test_demand_spec_rejects_non_integer_node(self, kwargs):
        with pytest.raises(InvalidDemandSpecError):
            DemandSpec(**kwargs)

    def test_demand_spec_takes_index_like_nodes(self):
        spec = DemandSpec(injections={np.int64(1): 1.0}, slack_nodes={np.int32(2)})
        assert spec.injections == {1: 1.0} and spec.slack_nodes == {2}
        assert all(type(i) is int for i in (*spec.injections, *spec.slack_nodes))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slack_bound": -(10**400)},
            {"slack_bound": "3"},
            {"slack_bound": None},
            {"injections": {0: "1"}},
            {"injections": {0: 10**400}},
        ],
        ids=["huge-negative-bound", "string-bound", "none-bound", "string-injection",
             "huge-injection"],
    )
    def test_demand_spec_rejects_no_finite_number(self, kwargs):
        with pytest.raises(InvalidDemandSpecError):
            DemandSpec(**kwargs)

    def test_integrality_and_witness_reverification_random(self):
        rng = np.random.default_rng(10)
        feasible_seen = infeasible_seen = 0
        for _ in range(120):
            n = int(rng.integers(2, 8))
            g = random_connected_graph(rng, n, w_lo=1.0, w_hi=4.0)
            # integer weights for exact scale-1 arithmetic
            g = validate_graph(g.edges, np.round(g.weights), n)
            b = {}
            total = 0
            for i in range(n - 1):
                v = int(rng.integers(-2, 3))
                if v:
                    b[i] = float(v)
                    total += v
            b[n - 1] = float(-total)  # balance so zero-slack instances can be feasible
            slack = frozenset(
                int(i) for i in rng.choice(n, size=int(rng.integers(0, n)), replace=False)
            )
            spec = DemandSpec(injections=b, slack_nodes=slack, slack_bound=float(rng.integers(0, 3)))
            res = feasible_flow(g, [], spec)
            if res.feasible:
                feasible_seen += 1
                assert all(isinstance(f, int) for f in res.witness.edge_flows)
                assert verify_demand_witness(g, [], spec, res.witness)
            else:
                infeasible_seen += 1
                assert verify_cut_certificate(g, [], spec, res.cut)
        assert feasible_seen > 10 and infeasible_seen > 10

    def test_feasibility_monotone_in_capacity_scaling(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            g = random_connected_graph(rng, n, w_lo=0.5, w_hi=1.5)
            b = {0: 2.0, n - 1: -2.0}
            spec = DemandSpec(injections=b)
            res1 = feasible_flow(g, [], spec)
            if not res1.feasible:
                continue
            scaled_up = validate_graph(g.edges, g.weights * 3.0, n)
            res2 = feasible_flow(scaled_up, [], spec)
            assert res2.feasible

    def test_feasibility_matches_hoffman_condition(self):
        rng = np.random.default_rng(12)
        verdicts = set()
        for _ in range(40):
            n = int(rng.integers(2, 7))
            g = random_connected_graph(rng, n)
            spec = DemandSpec(
                injections={0: float(rng.integers(1, 4)), n - 1: -1.0},
                slack_nodes=frozenset({n - 1}),
                slack_bound=float(rng.integers(0, 4)),
            )
            res = feasible_flow(g, [], spec)
            assert res.feasible == hoffman_feasible(g, [], spec, res.scale)
            verdicts.add(res.feasible)
        assert verdicts == {True, False}

    @settings(max_examples=200, deadline=None)
    @given(demand_instances(), st.data())
    def test_certificate_reverifies_exactly_when_decided(self, instance, data):
        g, spec = instance
        excluded = data.draw(st.sets(st.sampled_from(g.edges)))
        res = feasible_flow(g, excluded, spec)
        assert res.feasible == hoffman_feasible(g, excluded, spec, scale=1)
        if res.feasible:
            assert res.cut is None
            assert verify_demand_witness(g, excluded, spec, res.witness)
        else:
            assert res.witness is None
            assert verify_cut_certificate(g, excluded, spec, res.cut)

    @settings(max_examples=200, deadline=None)
    @given(demand_instances(), st.integers(0, 60))
    def test_feasibility_invariant_under_power_of_two_scaling(self, instance, k):
        g, spec = instance
        f = 2.0**-k
        small_g = validate_graph(g.edges, g.weights * f, g.node_count)
        small_spec = DemandSpec(
            injections={i: v * f for i, v in spec.injections.items()},
            slack_nodes=spec.slack_nodes,
            slack_bound=spec.slack_bound * f,
        )
        res, small = feasible_flow(g, [], spec), feasible_flow(small_g, [], small_spec)
        assert small.feasible == res.feasible
        if small.feasible:
            assert verify_demand_witness(small_g, [], small_spec, small.witness)
            # The same real flows, exactly.
            assert [Fraction(v, small.scale) for v in small.witness.edge_flows] == [
                Fraction(v, res.scale) * Fraction(1, 2**k) for v in res.witness.edge_flows
            ]
        else:
            assert verify_cut_certificate(small_g, [], small_spec, small.cut)

    def test_weight_3e9_path_feasible(self):
        # Capacities of 3e9 exceed int32 at the derived scale of 1; the answer
        # must stay exact.
        g = validate_graph([(0, 1), (1, 2)], [3e9, 3e9], 3)
        spec = DemandSpec(injections={0: 3e9, 2: -3e9})
        res = feasible_flow(g, [], spec)
        assert res.feasible and res.scale == 1
        assert res.witness.edge_flows == (3 * 10**9, 3 * 10**9)
        assert verify_demand_witness(g, [], spec, res.witness)
