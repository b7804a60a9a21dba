"""Graph construction, TV semi-norm, partitions, boundaries, clustered signals."""

import numpy as np
import pytest

import graph_reference
from conftest import NOT_NUMBERS, random_connected_graph
from netlasso.errors import (
    CoefficientCountMismatchError,
    DimensionMismatchError,
    DuplicateEdgeError,
    EdgeNotInGraphError,
    GraphError,
    InvalidPartitionError,
    NodeOutOfRangeError,
    NonPositiveWeightError,
    SelfLoopError,
)
from netlasso.graphs import (
    Graph,
    Observations,
    Partition,
    boundary,
    clustered_signal,
    orient_edges,
    tv,
    validate_graph,
)


class TestValidateGraph:
    def test_minimal_graph(self):
        g = validate_graph([(0, 1)], [1.0], 2)
        assert g.node_count == 2
        assert g.edges == ((0, 1),)
        assert g.weight(1, 0) == 1.0

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            validate_graph([(0, 0)], [1.0], 2)

    @pytest.mark.parametrize("n", [2.5, 4.0, np.float64(4.0), *NOT_NUMBERS])
    def test_node_count_that_is_no_integer_rejected(self, n):
        # 2.5 built a graph that solve_exact failed on with numpy's IndexError,
        # and "1" leaked a TypeError
        for build in (lambda: Graph(n, [(0, 1)], [1.0]),
                      lambda: validate_graph([(0, 1)], [1.0], n),
                      lambda: validate_graph([(0, 2**70)], [1.0], n)):
            with pytest.raises(GraphError, match="node_count must be an integer"):
                build()

    def test_node_count_beyond_int64_rejected(self):
        # 10**400 built a graph whose weighted_degrees raised numpy's OverflowError
        for n in (10**400, 2**63):
            for build in (lambda: Graph(n, [], []), lambda: validate_graph([(0, 1)], [1.0], n)):
                with pytest.raises(GraphError, match="node_count must be at most"):
                    build()

    @pytest.mark.parametrize("weights,index", [
        ([True], 0), ([True, 2.0], 0), ([2.0, np.True_], 1), ([1.0, False], 1),
        (np.array([True, True]), 0), (np.array([1.0, True], dtype=object), 1),
    ])
    def test_bool_weight_rejected_with_index(self, weights, index):
        # [True] and [True, 2.0] built graphs with weight 1.0
        edges = [(0, 1), (1, 2)][: len(weights)]
        for build in (lambda: validate_graph(edges, weights, 3),
                      lambda: validate_graph(edges[::-1], weights, 3),
                      lambda: Graph(3, edges, weights)):
            with pytest.raises(NonPositiveWeightError, match="must be a real number") as err:
                build()
            assert err.value.index == index

    def test_node_count_is_kept_as_an_int(self):
        for g in (Graph(np.int64(3), [(0, 1)], [1.0]), validate_graph([(0, 1)], [1.0], np.int32(3))):
            assert g.node_count == 3 and type(g.node_count) is int

    def test_non_positive_weight_rejected(self):
        with pytest.raises(NonPositiveWeightError):
            validate_graph([(0, 1)], [-1.0], 2)
        with pytest.raises(NonPositiveWeightError):
            validate_graph([(0, 1)], [0.0], 2)

    @pytest.mark.parametrize(
        "weight", ["3", b"3", -(10**400), 10**400], ids=["str", "bytes", "-10**400", "10**400"]
    )
    def test_weight_that_is_no_finite_float_rejected_with_index(self, weight):
        # a string is not parsed as a number; an int beyond the float range is not finite
        with pytest.raises(NonPositiveWeightError) as err:
            validate_graph([(0, 1)], [weight], 2)
        assert err.value.index == 0
        with pytest.raises(NonPositiveWeightError) as err:
            validate_graph([(2, 3), (0, 1)], [1.0, weight], 4)
        assert err.value.index == 1
        with pytest.raises(NonPositiveWeightError) as err:
            Graph(4, ((0, 1), (2, 3)), [1.0, weight])
        assert err.value.index == 1

    def test_duplicate_edge_rejected_either_order(self):
        with pytest.raises(DuplicateEdgeError):
            validate_graph([(0, 1), (1, 0)], [1.0, 2.0], 2)

    def test_node_out_of_range(self):
        with pytest.raises(NodeOutOfRangeError):
            validate_graph([(0, 5)], [1.0], 3)

    @pytest.mark.parametrize(
        "edges,weights,error,index",
        [
            ([(2, 3), (3, 2), (0, 1)], [1.0, 1.0, 1.0], DuplicateEdgeError, 1),
            ([(2, 3), (0, 1), (1, 1)], [1.0, 1.0, 1.0], SelfLoopError, 2),
            ([(2, 3), (0, 1), (1, 2)], [1.0, 1.0, float("nan")], NonPositiveWeightError, 2),
            ([(3, 1), (0, 9)], [1.0, 1.0], NodeOutOfRangeError, 1),
        ],
    )
    def test_error_index_is_raw_position(self, edges, weights, error, index):
        # each bad edge sorts to a position other than its input position
        with pytest.raises(error) as err:
            validate_graph(edges, weights, 4)
        assert err.value.index == index

    def test_graph_rejects_non_canonical_edge_with_index(self):
        with pytest.raises(GraphError) as err:
            Graph(3, ((0, 1), (2, 1)), np.ones(2))
        assert err.value.index == 1

    def test_canonicalizes_and_sorts(self):
        g = validate_graph([(2, 1), (1, 0)], [3.0, 1.0], 3)
        assert g.edges == ((0, 1), (1, 2))
        assert list(g.weights) == [1.0, 3.0]

    def test_adjacency(self):
        g = validate_graph([(0, 1), (0, 2)], [1.0, 2.0], 3)
        assert g.edge_ids([(2, 0), (0, 1)]).tolist() == [1, 0]
        with pytest.raises(EdgeNotInGraphError):
            g.edge_id(1, 2)
        assert list(g.weighted_degrees()) == [3.0, 1.0, 2.0]


class TestTv:
    def test_constant_signal_zero(self, triangle):
        assert tv(triangle, [7.0, 7.0, 7.0]) == 0.0

    def test_path_unit(self, path2):
        assert tv(path2, [0.0, 1.0]) == 1.0

    def test_triangle_value(self, triangle):
        assert tv(triangle, [0.0, 0.0, 5.0]) == 10.0

    def test_dimension_mismatch(self, triangle):
        with pytest.raises(DimensionMismatchError):
            tv(triangle, [0.0, 1.0])

    def test_nonfinite_rejected(self, path2):
        with pytest.raises(DimensionMismatchError):
            tv(path2, [0.0, np.inf])


class TestTvProperties:
    def test_homogeneity_and_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            g = random_connected_graph(rng, n)
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            c = float(rng.normal())
            assert tv(g, c * x) == pytest.approx(abs(c) * tv(g, x), rel=1e-12)
            assert tv(g, x + y) <= tv(g, x) + tv(g, y) + 1e-12

    def test_zero_iff_constant_per_component(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            # two islands, no connecting edge
            g1 = random_connected_graph(rng, 4)
            edges = list(g1.edges) + [(4, 5)]
            weights = list(g1.weights) + [1.0]
            g = validate_graph(edges, weights, 6)
            comps = graph_reference.connected_components(graph_reference.Graph(6, edges, g.weights))
            assert len(comps) == 2
            x = np.zeros(6)
            for value, comp in zip((1.5, -2.0), comps):
                for i in comp:
                    x[i] = value
            assert tv(g, x) == 0.0
            x[next(iter(comps[0]))] += 0.25  # break constancy
            assert tv(g, x) > 0.0


class TestPartition:
    def test_from_labels_roundtrip(self):
        p = Partition.from_labels([0, 0, 1, 1, 2])
        assert p.cluster_count == 3
        assert p.clusters[1] == frozenset({2, 3})

    def test_from_labels_rejects_cluster_index_beyond_node_count(self):
        # rejected before one set per cluster index is allocated
        with pytest.raises(InvalidPartitionError):
            Partition.from_labels([0, 10**12])

    @pytest.mark.parametrize(
        "labels",
        [[0, 0.5, 1.9, 1], ["0", "1"], [0, 1.0], [None], [0, 10**20], np.array([0.0, 1.0])],
        ids=["fractions", "strings", "float", "None", "beyond int64", "float array"],
    )
    def test_from_labels_rejects_labels_that_are_no_integers(self, labels):
        # [0, 0.5, 1.9, 1] used to read as [0, 0, 1, 1] and ["0", "1"] as [0, 1]
        with pytest.raises(InvalidPartitionError):
            Partition.from_labels(labels)

    def test_from_labels_takes_index_like_labels(self):
        p = Partition.from_labels(np.array([1, 0, 1], np.uint8))
        assert p.clusters == (frozenset({1}), frozenset({0, 2}))
        assert p == Partition.from_labels([True, False, True])
        assert p.labels.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("clusters", [({0, 1.0},), ({0}, {1.5}), ({0}, {"1"}), ({0, 10**20},)])
    def test_rejects_cluster_nodes_that_are_no_integers(self, clusters):
        # frozenset({0, 1.0}) used to raise a bare IndexError
        with pytest.raises(InvalidPartitionError):
            Partition(tuple(map(frozenset, clusters)))

    def test_rejects_overlap(self):
        with pytest.raises(InvalidPartitionError):
            Partition((frozenset({0, 1}), frozenset({1, 2})))

    def test_rejects_gap(self):
        with pytest.raises(InvalidPartitionError):
            Partition((frozenset({0}), frozenset({2})))

    def test_rejects_empty_cluster(self):
        with pytest.raises(InvalidPartitionError):
            Partition((frozenset({0, 1}), frozenset()))


class TestBoundary:
    def test_single_cluster_empty(self, path4):
        p = Partition((frozenset({0, 1, 2, 3}),))
        assert boundary(path4, p) == ()

    def test_path_split(self, path4):
        p = Partition((frozenset({0, 1}), frozenset({2, 3})))
        assert boundary(path4, p) == ((1, 2),)

    def test_two_cliques_one_bridge(self):
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
        g = validate_graph(edges, [1.0] * len(edges), 6)
        p = Partition((frozenset({0, 1, 2}), frozenset({3, 4, 5})))
        assert boundary(g, p) == ((2, 3),)

    def test_invariant_under_cluster_reordering(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_connected_graph(rng, 7)
            labels = rng.integers(0, 3, size=7)
            labels[:3] = [0, 1, 2]  # ensure all clusters non-empty
            p1 = Partition.from_labels(labels)
            reorder = [2, 0, 1]
            p2 = Partition(tuple(p1.clusters[c] for c in reorder))
            assert boundary(g, p1) == boundary(g, p2)

    def test_wrong_node_count(self, path4):
        with pytest.raises(InvalidPartitionError):
            boundary(path4, Partition((frozenset({0, 1, 2}),)))


class TestClusteredSignal:
    def test_single_cluster_constant(self):
        p = Partition((frozenset({0, 1, 2}),))
        assert list(clustered_signal(p, [3.0])) == [3.0, 3.0, 3.0]

    def test_two_clusters(self):
        p = Partition((frozenset({0, 1}), frozenset({2, 3})))
        assert list(clustered_signal(p, [1.0, 2.0])) == [1.0, 1.0, 2.0, 2.0]

    def test_four_clusters_indexed_coefficients(self):
        p = Partition.from_labels([0] * 7 + [1] * 7 + [2] * 8 + [3] * 8)
        x = clustered_signal(p, [1.0, 2.0, 3.0, 4.0])
        for node, label in enumerate(p.labels):
            assert x[node] == label + 1

    def test_coefficient_count_mismatch(self):
        p = Partition((frozenset({0}), frozenset({1})))
        with pytest.raises(CoefficientCountMismatchError):
            clustered_signal(p, [1.0])

    def test_clustered_tv_concentrates_on_boundary(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(4, 10))
            g = random_connected_graph(rng, n)
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1
            p = Partition.from_labels(labels)
            x = clustered_signal(p, rng.normal(size=p.cluster_count))
            bnd_tv = sum(g.weight(i, j) * abs(x[j] - x[i]) for i, j in boundary(g, p))
            assert tv(g, x) == pytest.approx(bnd_tv, abs=1e-12)


class TestOrientEdges:
    def test_bitmask_controls_direction(self, path4):
        edges = [(0, 1), (2, 3)]
        oriented = orient_edges(path4, edges, 0b10)
        assert (oriented[0].tail, oriented[0].head) == (0, 1)
        assert (oriented[1].tail, oriented[1].head) == (3, 2)
        assert oriented[1].weight == 1.0
        assert oriented[1].pair == (2, 3)


class TestObservations:
    def test_rejects_negative_node(self):
        # A negative id would index from the end of a signal: node N-1.
        with pytest.raises(NodeOutOfRangeError):
            Observations(nodes=(-1, 0), y=np.array([1.0, 0.0]), eps=np.zeros(2))

    @pytest.mark.parametrize("nodes", [(0.5, 3), ("2", 3), (None, 3)])
    def test_rejects_non_integer_node(self, nodes):
        with pytest.raises(NodeOutOfRangeError):
            Observations(nodes=nodes, y=np.array([1.0, 0.0]), eps=np.zeros(2))

    def test_takes_index_like_nodes(self):
        obs = Observations(nodes=np.array([0, 3]), y=np.array([1.0, 0.0]), eps=np.zeros(2))
        assert obs.nodes == (0, 3) and all(type(i) is int for i in obs.nodes)
