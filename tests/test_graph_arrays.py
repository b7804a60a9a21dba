"""The array-built graph core against the loop-built one it replaced
(``graph_reference``): construction errors, edge lookups, connectivity and
boundaries, plus node-id checks and equality by value."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graph_reference as ref
from test_dinic import within
from netlasso import fileio
from netlasso.certify import (
    NccQuery,
    check_ncc,
    check_support_condition,
    verify_ncc_cut,
    verify_ncc_witnesses,
)
from netlasso.errors import (
    DuplicateEdgeError,
    EdgeNotInGraphError,
    FileFormatError,
    GraphError,
    NodeOutOfRangeError,
    SelfLoopError,
)
from netlasso.flow import DemandSpec, feasible_flow, verify_cut_certificate, verify_demand_witness
from netlasso.generate import PlantedPartitionConfig, generate_planted_partition
from netlasso.graphs import (
    Graph,
    Observations,
    Partition,
    boundary,
    component_roots,
    is_connected,
    validate_graph,
)
from netlasso.sampling import sample_boundary_aware, sample_uniform
from netlasso.solver import SolverConfig, solve_admm, solve_exact

BIG = 10**20  # beyond int64


@st.composite
def edge_lists(draw, max_nodes=12):
    """Node count, edges and weights. Half the lists are valid graphs (distinct
    canonical pairs in any order, often few of them, so many nodes are
    isolated); the rest mix in self loops, repeats, reversed pairs, negative
    and out-of-range ids and 10**20."""
    n = draw(st.integers(1, max_nodes))
    if draw(st.booleans()):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        edges = draw(st.permutations(edges))
    else:
        node = st.one_of(st.integers(0, n - 1), st.integers(-3, n + 2), st.just(BIG))
        edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    weights = [draw(st.sampled_from([0.5, 1.0, 3.0])) for _ in edges]
    return n, edges, weights


def built(make):
    """(graph, None) or (None, (error type, index))."""
    try:
        return make(), None
    except GraphError as exc:
        return None, (type(exc), exc.index)


def assert_lookups(g, index, absent):
    """``g``'s edge lookups against ``index``, which maps each edge's canonical
    pair to its id: every pair in one call, in either orientation, and each
    pair alone; each ``absent`` pair raises EdgeNotInGraphError alone, in
    either orientation, and about 60 of them after all the edges; a self loop
    raises SelfLoopError, alone and in a call, as the first pair that is no
    edge."""
    pairs, ids = list(index), list(index.values())
    assert g.edge_ids(pairs).tolist() == ids
    assert g.edge_ids([(j, i) for i, j in pairs]).tolist() == ids
    for (i, j), k in index.items():
        assert g.edge_id(j, i) == k and g.weight(i, j) == g.weights[k]
    for i, j in absent:
        for e in ((i, j), (j, i)):
            with pytest.raises(EdgeNotInGraphError):
                g.edge_id(*e)
    for e in absent[:: len(absent) // 60 + 1]:  # each of these calls searches all m edges
        with pytest.raises(EdgeNotInGraphError):
            g.edge_ids([*pairs, e])
    nodes = sorted({i for e in (*pairs, *absent) for i in e})
    for i in nodes:
        with pytest.raises(SelfLoopError):
            g.edge_id(i, i)
    if nodes:
        i = nodes[-1]
        with pytest.raises(SelfLoopError):
            g.edge_ids([*pairs, (i, i), *absent])
        if absent:
            with pytest.raises(EdgeNotInGraphError):
                g.edge_ids([*pairs, absent[0], (i, i)])


def components(g, nodes) -> list[set[int]]:
    """The components of the subgraph that ``nodes`` induce, by ``component_roots``,
    ordered by their smallest node."""
    inside = np.zeros(g.node_count, dtype=bool)
    inside[list(nodes)] = True
    ii, jj = g.endpoint_arrays()
    both = inside[ii] & inside[jj]
    roots = component_roots(g.node_count, ii[both], jj[both])[inside]
    at = np.flatnonzero(inside)
    return [set(at[roots == root].tolist()) for root in np.unique(roots).tolist()]


def assert_same_graph(g, r):
    n = g.node_count
    assert g.edges == r.edges
    assert g.weights.tobytes() == r.weights.tobytes()
    present = set(r.edges)
    absent = [(j, i) for i in range(n) for j in range(i) if (j, i) not in present]
    assert_lookups(g, {e: r.edge_id(*e) for e in r.edges}, absent)
    # a labelling that never settles fails instead of hanging the suite
    assert within(5, components, g, range(n)) == ref.connected_components(r)
    assert within(5, is_connected, g) == ref.is_connected(r)


@settings(max_examples=400, deadline=None)
@given(edge_lists(), st.data())
def test_graph_matches_loop_reference(case, data):
    n, edges, weights = case
    g, error = built(lambda: Graph(n, tuple(edges), np.array(weights)))
    r, ref_error = built(lambda: ref.Graph(n, tuple(edges), np.array(weights)))
    assert error == ref_error
    if g is None:
        return
    assert_same_graph(g, r)
    nodes = data.draw(st.sets(st.integers(0, n - 1)))
    assert (len(within(5, components, g, nodes)) <= 1) == ref.subgraph_is_connected(r, nodes)
    labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    partition = Partition.from_labels(np.unique(labels, return_inverse=True)[1])
    assert boundary(g, partition) == ref.boundary(r, partition)


@settings(max_examples=400, deadline=None)
@given(edge_lists())
def test_validate_graph_matches_sorted_reference(case):
    n, edges, weights = case
    g, error = built(lambda: validate_graph(edges, weights, n))
    if any(BIG in e for e in edges):
        # ids beyond int64 are reported first, at their first edge
        k = next(k for k, e in enumerate(edges) if BIG in e)
        _, single = built(lambda: ref.validate_graph([edges[k]], [1.0], n))
        assert error == (single[0], k)
        return
    r, ref_error = built(lambda: ref.validate_graph(edges, weights, n))
    assert error == ref_error
    if g is not None:
        assert_same_graph(g, r)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_validate_graph_takes_sorted_and_shuffled_edges_alike(data):
    # sorted canonical edges, as write_graph writes them, skip the sort; a
    # shuffled, partly reversed copy is sorted first; both build one graph,
    # and a repeated pair is reported at its later copy either way
    n = data.draw(st.integers(2, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = sorted(data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1)))
    weights = [data.draw(st.sampled_from([0.5, 1.0, 3.0])) for _ in edges]
    order = data.draw(st.permutations(range(len(edges))))
    flips = [data.draw(st.booleans()) for _ in edges]
    shuffled = [edges[k][::-1] if flip else edges[k] for k, flip in zip(order, flips)]
    g = validate_graph(edges, weights, n)
    assert validate_graph(shuffled, [weights[k] for k in order], n) == g
    assert validate_graph(np.array(edges).T, weights, n) == g

    k = data.draw(st.integers(0, len(edges) - 1))
    at = data.draw(st.integers(0, len(edges)))
    for raw, first, copy_at in ((edges, k, k + 1), (shuffled, order.index(k), at)):
        repeated = [*raw[:copy_at], edges[k], *raw[copy_at:]]
        later = max(copy_at, first + (first >= copy_at))
        with pytest.raises(DuplicateEdgeError) as error:
            validate_graph(repeated, [1.0] * len(repeated), n)
        assert error.value.index == later


def edge_array(edges):
    """The ``(2, m)`` int64 form of a list of pairs."""
    return np.array(edges, np.int64).reshape(-1, 2).T


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_edge_array_builds_the_same_graph(case):
    # ids beyond int64 have no array form; every other list must give the
    # graph of its pairs, or the same error at the same index
    n, edges, weights = case
    if any(BIG in e for e in edges):
        return
    w = np.array(weights)
    for build in (lambda e: Graph(n, e, w), lambda e: validate_graph(e, w, n)):
        g, error = built(lambda: build(tuple(edges)))
        a, array_error = built(lambda: build(edge_array(edges)))
        assert array_error == error
        if g is not None:
            assert a == g and hash(a) == hash(g)
            assert type(a.edges) is tuple and a.edges == g.edges
            assert all(type(i) is int for e in a.edges for i in e)
            for h in (a, g):  # the pair tuple is read from the array, whichever form built it
                assert h.edges == tuple(zip(*(ends.tolist() for ends in h.endpoint_arrays())))


def test_no_layer_reads_the_pair_tuple(tmp_path, monkeypatch):
    # every layer works from the edge array, so none builds the pairs of g.edges
    def no_pairs(self):
        raise AssertionError("Graph.edges was read")

    monkeypatch.setattr(Graph, "edges", property(no_pairs))
    g, p = generate_planted_partition(PlantedPartitionConfig((8, 8, 8, 8), 1.0, 0.05, 1.0, 2))
    path = tmp_path / "g.txt"
    fileio.write_graph(path, g)
    assert fileio.read_graph(path) == g
    path.write_text("# a comment sends the file to the line parser\n" + path.read_text())
    assert fileio.read_graph(path) == g
    ii, jj = g.endpoint_arrays()
    assert validate_graph(np.stack([jj, ii]), g.weights, g.node_count) == g
    assert validate_graph(list(zip(ii.tolist(), jj.tolist())), g.weights, g.node_count) == g

    nodes = sample_boundary_aware(g, p, 12)
    assert len(sample_uniform(g, 12, seed=1)) == 12
    check_support_condition(g, p, nodes, 1.0)
    verdicts = []
    for K in (0.5, 8.0):
        query = NccQuery(g, p, nodes, K=K, L=2.0)
        cert = check_ncc(query)
        verdicts.append(cert.verdict)
        verify = verify_ncc_witnesses if cert.verdict == "holds" else verify_ncc_cut
        assert verify(query, cert)
    assert verdicts == ["fails", "holds"]

    bnd = boundary(g, p)
    results = []
    for b in (1.0, 100.0):  # within one cluster, which its clique can carry or not
        spec = DemandSpec({0: b, 5: -b}, frozenset({3}), 0.5)
        result = feasible_flow(g, bnd, spec)
        results.append(result.feasible)
        if result.feasible:
            assert verify_demand_witness(g, bnd, spec, result.witness)
        else:
            assert verify_cut_certificate(g, bnd, spec, result.cut)
    assert results == [True, False]

    obs = Observations(nodes, np.arange(12.0), np.zeros(12))
    assert solve_exact(g, obs, 0.5).cuts > 0
    assert solve_admm(g, obs, SolverConfig(lam=0.5, max_iters=20)).iterations == 20


def test_edge_array_is_copied():
    ends = np.array([[0, 1], [1, 2]], np.int32)
    g = Graph(3, ends, np.ones(2))
    ends[1, 0] = 2
    assert g.edges == ((0, 1), (1, 2)) and g.endpoint_arrays()[0].dtype == np.int64


@pytest.mark.parametrize(
    "ends",
    [
        np.array([[0, 1, 2], [1, 2, 3]]).T,  # pairs as rows: (3, 2)
        np.array([0, 1]),
        np.array([[0.0, 1.0], [1.0, 2.0]]),
        np.array([[0, 1], [1, 2]], np.uint64),  # may not fit int64
    ],
)
def test_edge_array_must_be_two_rows_of_integers(ends):
    for build in (lambda: Graph(4, ends, np.ones(2)), lambda: validate_graph(ends, [1.0] * 2, 4)):
        with pytest.raises(GraphError) as err:
            build()
        assert type(err.value) is GraphError and "(2, m)" in str(err.value)


def random_graph(rng, n, m, components=1):
    """Random edges inside ``components`` blocks of nodes, in shuffled order."""
    block = rng.integers(0, components, n)
    pairs = set()
    while len(pairs) < m:
        i, j = sorted(rng.integers(0, n, 2).tolist())
        if i != j and block[i] == block[j]:
            pairs.add((i, j))
    edges = list(pairs)
    rng.shuffle(edges)
    return tuple(edges), np.ones(len(edges))


@pytest.mark.parametrize("seed", range(6))
def test_larger_graphs_match_reference(seed):
    # up to 300 nodes with several edges each, given in random order
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 300))
    edges, weights = random_graph(rng, n, int(rng.integers(n, 6 * n)), int(rng.integers(1, 5)))
    assert_same_graph(Graph(n, edges, weights), ref.Graph(n, edges, weights))


@pytest.mark.parametrize("build", [Graph, lambda n, e, w: validate_graph(e, w, n)])
def test_lookups_with_ids_beyond_two_to_the_32(build):
    # i * N + j would overflow int64 here; the edges go in unsorted
    n = 2**62
    ids = [0, 1, 2**31, 2**32 + 5, 2**40, 2**61, n - 2, n - 1]
    pairs = [(ids[k], ids[k + 1]) for k in range(7)] + [(0, n - 1), (1, 2**40)]
    edges = [pairs[k] for k in (4, 8, 0, 6, 2, 7, 1, 5, 3)]
    g = build(n, edges, np.arange(1.0, 10.0))
    index = {e: g.edges.index(e) for e in pairs}
    absent = [(0, 2**31), (1, n - 1), (2**32 + 5, 2**61), (2**40 + 1, 2**61), (3, 4),
              (-1, 0), (n - 1, n), (0, BIG)]
    assert_lookups(g, index, absent)


def test_shuffled_long_path_is_one_component():
    # deep hook trees: every hook round needs several pointer jumps
    rng = np.random.default_rng(7)
    order = rng.permutation(2000).tolist()
    edges = [tuple(sorted(p)) for p in zip(order, order[1:])]
    g = validate_graph(edges, np.ones(len(edges)), 2000)
    assert within(5, is_connected, g)
    assert within(5, components, g, range(2000)) == [set(range(2000))]
    assert len(within(5, components, g, order[:10] + order[20:30])) > 1
    assert len(within(5, components, g, order[100:300])) == 1


@pytest.mark.parametrize(
    "edges,error,index",
    [
        (((0, 1), (1, 2), (1, 2)), DuplicateEdgeError, 2),  # repeat sorts last
        (((1, 2), (0, 1), (1, 2)), DuplicateEdgeError, 2),
        (((0, 1), (0, 2), (1, 2), (0, 2)), DuplicateEdgeError, 3),
        (((0, 1), (2, 2), (0, 1)), SelfLoopError, 1),  # first bad edge wins
        (((0, 1), (0, 1), (2, 2)), DuplicateEdgeError, 1),
        (((5, 5),), SelfLoopError, 0),  # a self loop outside the range is a self loop
        (((0, BIG),), NodeOutOfRangeError, 0),
        (((BIG, BIG),), SelfLoopError, 0),
        (((-1, 2),), NodeOutOfRangeError, 0),
        (((2, 1),), GraphError, 0),
    ],
)
def test_graph_errors(edges, error, index):
    with pytest.raises(error) as err:
        Graph(3, edges, np.ones(len(edges)))
    assert type(err.value) is error and err.value.index == index


@pytest.mark.parametrize("bad_id", [1.5, 2.0, np.float64(1.0), "1", None])
def test_graph_rejects_non_integer_ids(bad_id):
    with pytest.raises(GraphError) as err:
        Graph(3, ((0, 1), (0, bad_id)), np.ones(2))
    assert type(err.value) is GraphError and err.value.index == 1


def test_graph_checks_earlier_edges_before_a_non_integer_id():
    with pytest.raises(SelfLoopError) as err:
        Graph(3, ((1, 1), (0, 1.5)), np.ones(2))
    assert err.value.index == 0


def test_graph_accepts_numpy_and_bool_ids():
    g = Graph(3, ((np.int32(0), np.int64(2)), (True, 2)), np.ones(2))
    assert g.edge_id(0, 2) == 0 and g.edge_id(1, 2) == 1


def test_validate_graph_rejects_non_integer_ids():
    with pytest.raises(GraphError) as err:
        validate_graph([(0, 1.7), (1, 2)], [1.0, 1.0], 3)
    assert type(err.value) is GraphError and err.value.index == 0


@pytest.mark.parametrize("edges", [[(0, BIG)], [(BIG, 0)], [(1, 2), (0, -BIG)]])
def test_validate_graph_ids_beyond_int64_are_out_of_range(edges):
    with pytest.raises(NodeOutOfRangeError) as err:
        validate_graph(edges, [1.0] * len(edges), 3)
    assert err.value.index == len(edges) - 1


def test_read_graph_reports_id_beyond_int64_on_its_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(f"N 3\n0 1 1.0\n# c\n0 {BIG} 1.0\n1 2 1.0\n")
    with pytest.raises(FileFormatError) as err:
        fileio.read_graph(path)
    assert err.value.line == 4


def test_endpoint_arrays_are_read_only():
    ii, jj = validate_graph([(0, 1), (1, 2)], [1.0, 1.0], 3).endpoint_arrays()
    with pytest.raises(ValueError):
        ii[0] = 2


class TestEquality:
    def graph(self, weights=(1.0, 1.0), n=3):
        return Graph(n, ((0, 1), (1, 2)), np.array(weights))

    def test_equal_graphs(self):
        assert self.graph() == self.graph()
        assert hash(self.graph()) == hash(self.graph())
        assert len({self.graph(), self.graph()}) == 1

    def test_one_weight_differs(self):
        assert self.graph() != self.graph((1.0, 2.0))
        assert self.graph() != self.graph(n=4)
        assert self.graph() != ((0, 1), (1, 2))

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        edges, _ = random_graph(rng, 50, 120)
        g = validate_graph(edges, rng.uniform(0.1, 10.0, len(edges)), 50)
        fileio.write_graph(tmp_path / "g.txt", g)
        assert fileio.read_graph(tmp_path / "g.txt") == g

    def test_observations(self):
        def obs(eps=0.0):
            return Observations((0, 2), np.array([1.0, 2.0]), np.array([0.0, eps]))
        assert obs() == obs() and hash(obs()) == hash(obs())
        assert obs() != obs(0.5)
        assert obs() != obs(-0.0)  # compared by bytes
