"""Seeded generator and sampler outputs: differential tests against the
straightforward loop implementations, and golden hashes of fixed configs.

The reference functions below are the O(N^2)-memory pair-list generator and
the O(budget * N) ``min``-based sampler that the vectorized code replaced;
both must give the same graphs and sampling sets bit for bit.
"""

import hashlib

import numpy as np
import pytest

import graph_reference
import netlasso.generate as generate
from netlasso.errors import DisconnectedAfterRetriesError
from netlasso.generate import (
    MAX_CONNECTIVITY_RETRIES,
    PlantedPartitionConfig,
    generate_planted_partition,
    paper_like_config,
)
from netlasso.graphs import (
    Graph,
    Partition,
    boundary,
    is_connected,
    validate_graph,
)
from netlasso.sampling import SATURATION_DISCOUNT, sample_boundary_aware, sample_uniform


def reference_generate(cfg: PlantedPartitionConfig):
    """Pair-list generator: one rng.random call per attempt. Returns the
    graph, the partition and the number of attempts."""
    partition = generate._block_partition(cfg.sizes)
    n = cfg.node_count
    labels = partition.labels
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    probs = np.where(
        labels[[i for i, _ in pairs]] == labels[[j for _, j in pairs]],
        cfg.p_in,
        cfg.p_out,
    )
    rng = np.random.default_rng(cfg.seed)
    for attempt in range(1, MAX_CONNECTIVITY_RETRIES + 1):
        u = rng.random(len(pairs))
        keep = u < probs
        edges = tuple(p for p, k in zip(pairs, keep) if k)
        g = Graph(n, edges, np.full(len(edges), cfg.weight))
        reference = graph_reference.Graph(n, edges, g.weights)
        if is_connected(g) and all(
            graph_reference.subgraph_is_connected(reference, set(c)) for c in partition.clusters
        ):
            return g, partition, attempt
    raise DisconnectedAfterRetriesError("no connected instance")


def reference_weighted_degrees(g: Graph) -> np.ndarray:
    d = np.zeros(g.node_count)
    for (i, j), w in zip(g.edges, g.weights):
        d[i] += w
        d[j] += w
    return d


def reference_sample_boundary_aware(g: Graph, partition: Partition, budget: int):
    """Greedy with a Python ``min`` over every remaining node per pick."""
    lab = partition.labels
    bnd = boundary(g, partition)
    cross_weight = np.zeros(g.node_count)
    endpoints = set()
    for i, j in bnd:
        w = g.weight(i, j)
        cross_weight[i] += w
        cross_weight[j] += w
        endpoints.update((i, j))
    support = np.zeros(g.node_count)
    adjacency = graph_reference.Graph(g.node_count, g.edges, g.weights)  # neighbor lists
    for u in endpoints:
        cluster = lab[u]
        for v, k in adjacency.neighbors(u):
            if lab[v] == cluster:
                support[v] = max(support[v], float(g.weights[k]))
    wdeg = reference_weighted_degrees(g)

    chosen = []
    cluster_counts = [0] * partition.cluster_count
    remaining = set(range(g.node_count))
    while len(chosen) < budget:
        best = min(
            remaining,
            key=lambda v: (
                -cross_weight[v] * SATURATION_DISCOUNT ** cluster_counts[lab[v]],
                -support[v],
                -wdeg[v],
                v,
            ),
        )
        chosen.append(best)
        cluster_counts[lab[best]] += 1
        remaining.discard(best)
    return tuple(sorted(chosen))


@pytest.fixture
def attempts(monkeypatch):
    """Counts generate_planted_partition's attempts (one is_connected call each)."""
    calls = []
    monkeypatch.setattr(generate, "is_connected", lambda g: calls.append(g) or is_connected(g))
    return calls


def random_configs(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for k in range(count):
        sizes = tuple(int(s) for s in rng.integers(1, 9, size=rng.integers(1, 5)))
        yield PlantedPartitionConfig(
            sizes=sizes,
            p_in=float(rng.uniform(0.1, 1.0)),
            p_out=float(rng.uniform(0.0, 0.4)),
            weight=float(rng.choice([1.0, 0.75, 4096.0, 1e-300])),
            seed=k,
        )


FIXED_CONFIGS = [
    PlantedPartitionConfig(sizes=(1,), p_in=0.5, p_out=0.5, seed=0),  # 1-node graph
    PlantedPartitionConfig(sizes=(1, 4), p_in=1.0, p_out=0.5, seed=2),  # 1-node cluster
    PlantedPartitionConfig(sizes=(4, 1, 3), p_in=0.6, p_out=0.15, weight=0.75, seed=5),
    PlantedPartitionConfig(sizes=(3, 3), p_in=1.0, p_out=0.0, seed=0),  # never connected
    PlantedPartitionConfig(sizes=(60, 70), p_in=0.2, p_out=0.01, seed=9),  # one draw group
    paper_like_config(seed=3),
]


def draw_groups(cfg: PlantedPartitionConfig) -> int:
    """Number of row groups the generator draws one attempt in."""
    n = cfg.node_count
    return -(-(n - 1) // max(1, generate._PAIRS_PER_DRAW // n))


def chunk_edges(cfg: PlantedPartitionConfig, workers: int) -> list[int]:
    """The first rows of all but the first chunk of an attempt on `workers` threads."""
    n = cfg.node_count
    chunks = generate._row_chunks(n, max(1, generate._PAIRS_PER_DRAW // n), workers)
    return [int(rows[0]) for _, rows in chunks[1:]]


@pytest.fixture(params=[1, 2, 3, 7])
def workers(request, monkeypatch):
    """Draws every attempt of two or more pairs on this many threads, whatever
    the CPUs; tests that also lower _PAIRS_PER_DRAW fan small graphs out."""
    monkeypatch.setattr(generate, "_usable_cpus", lambda: request.param)
    monkeypatch.setattr(generate, "_PAIRS_PER_WORKER", 1)
    return request.param


# With 16 pairs per draw and 2, 3 or 7 threads, these put chunk edges next to
# 1-node clusters: between rows 4 | 5, 5 | 6 or 6 | 7 of the first and 2 | 3 to
# 7 | 8 of the second, a 1-node cluster sits on one or both sides
EDGE_CONFIGS = [
    PlantedPartitionConfig(sizes=(5, 1, 1, 4, 1, 1, 3), p_in=0.9, p_out=0.3, seed=3),
    PlantedPartitionConfig(sizes=(3, 1, 1, 1, 1, 1, 1, 4), p_in=1.0, p_out=0.4, seed=1),
]


# (config, draw groups, attempts or None if it never connects)
MULTI_GROUP_CONFIGS = [
    (PlantedPartitionConfig(sizes=(150, 170), p_in=0.2, p_out=0.01, seed=1), 2, 1),
    (  # 1-node clusters on both sides of every group boundary (rows 108 | 109, 217 | 218, ...)
        PlantedPartitionConfig(
            sizes=(108, *(1, 1, 107) * 4, 1, 1, 54), p_in=0.3, p_out=0.01, seed=6
        ),
        6, 1,
    ),
    # p_in < p_out
    (PlantedPartitionConfig(sizes=(90, 100, 110), p_in=0.1, p_out=0.3, seed=4), 2, 1),
    # p_in = 0: no in-cluster cell, then a 2-node cluster that never connects
    (PlantedPartitionConfig(sizes=(1,) * 300, p_in=0.0, p_out=0.05, seed=8), 2, 1),
    (PlantedPartitionConfig(sizes=(2,) + (1,) * 258, p_in=0.0, p_out=0.5, seed=0), 2, None),
    # p_out = 1
    (PlantedPartitionConfig(sizes=(150, 170), p_in=0.05, p_out=1.0, weight=0.5, seed=3), 2, 1),
    # retries: the first two attempts fail a connectivity test
    (PlantedPartitionConfig(sizes=(150, 168, 2), p_in=0.2, p_out=0.01, seed=2), 2, 3),
]


def assert_same_graph_or_same_failure(cfg: PlantedPartitionConfig, attempts: list):
    try:
        ref_g, ref_p, ref_attempts = reference_generate(cfg)
    except DisconnectedAfterRetriesError:
        with pytest.raises(DisconnectedAfterRetriesError):
            generate_planted_partition(cfg)
        assert len(attempts) == MAX_CONNECTIVITY_RETRIES
        return None
    g, p = generate_planted_partition(cfg)
    assert g.edges == ref_g.edges
    assert g.weights.tobytes() == ref_g.weights.tobytes()
    assert p == ref_p
    assert len(attempts) == ref_attempts
    return ref_attempts


class TestGeneratorMatchesReference:
    @pytest.mark.parametrize("cfg", [*FIXED_CONFIGS, *random_configs(120, seed=2024)])
    def test_same_graph_or_same_failure(self, cfg, attempts):
        assert_same_graph_or_same_failure(cfg, attempts)

    @pytest.mark.parametrize("cfg, groups, expected_attempts", MULTI_GROUP_CONFIGS)
    def test_across_draw_groups(self, cfg, groups, expected_attempts, attempts, monkeypatch):
        monkeypatch.setattr(generate, "_PAIRS_PER_DRAW", 1 << 16)  # the groups the configs are for
        assert draw_groups(cfg) == groups
        assert assert_same_graph_or_same_failure(cfg, attempts) == expected_attempts

    @pytest.mark.parametrize(
        "cfg", [*FIXED_CONFIGS, *EDGE_CONFIGS, *random_configs(120, seed=2024)]
    )
    def test_same_graph_on_any_worker_count(self, cfg, workers, attempts, monkeypatch):
        monkeypatch.setattr(generate, "_PAIRS_PER_DRAW", 16)  # a few rows per group
        assert_same_graph_or_same_failure(cfg, attempts)

    @pytest.mark.parametrize("cfg, groups, expected_attempts", MULTI_GROUP_CONFIGS)
    def test_across_draw_groups_on_any_worker_count(
        self, cfg, groups, expected_attempts, workers, attempts, monkeypatch
    ):
        monkeypatch.setattr(generate, "_PAIRS_PER_DRAW", 1 << 16)  # the groups the configs are for
        assert draw_groups(cfg) == groups
        edges = chunk_edges(cfg, workers)
        assert (workers == 1) == (edges == []) and len(edges) < min(workers, groups)
        assert assert_same_graph_or_same_failure(cfg, attempts) == expected_attempts

    @pytest.mark.parametrize("count", [2, 3, 7])
    def test_chunk_edges_fall_inside_and_between_1_node_clusters(self, count, monkeypatch):
        monkeypatch.setattr(generate, "_PAIRS_PER_DRAW", 16)
        seen = set()
        for cfg in [*FIXED_CONFIGS, *EDGE_CONFIGS]:
            size = np.repeat(cfg.sizes, cfg.sizes)
            label = generate._block_partition(cfg.sizes).labels
            for row in chunk_edges(cfg, count):
                seen |= {
                    ("inside", label[row - 1] == label[row]),
                    ("1-node cluster before", size[row - 1] == 1),
                    ("1-node cluster after", size[row] == 1),
                }
        assert {("inside", True), ("1-node cluster before", True), ("1-node cluster after", True)} <= seen

    def test_retries_continue_the_stream_on_any_worker_count(self, workers, attempts, monkeypatch):
        monkeypatch.setattr(generate, "_PAIRS_PER_DRAW", 16)
        cfg = PlantedPartitionConfig(sizes=(4, 1, 3), p_in=0.6, p_out=0.15, weight=0.75, seed=5)
        assert len(chunk_edges(cfg, workers)) == min(workers, 4) - 1  # 4 row groups
        ref_g, _, ref_attempts = reference_generate(cfg)
        g, _ = generate_planted_partition(cfg)
        assert ref_attempts == len(attempts) == 4
        assert g.edges == ref_g.edges

    def test_retries_continue_the_stream(self, attempts):
        cfg = PlantedPartitionConfig(sizes=(4, 1, 3), p_in=0.6, p_out=0.15, weight=0.75, seed=5)
        ref_g, _, ref_attempts = reference_generate(cfg)
        g, _ = generate_planted_partition(cfg)
        assert ref_attempts == len(attempts) == 4
        assert g.edges == ref_g.edges

    def test_some_random_configs_retry_and_some_fail(self):
        outcomes = []
        for cfg in random_configs(120, seed=2024):
            try:
                outcomes.append(reference_generate(cfg)[2])
            except DisconnectedAfterRetriesError:
                outcomes.append(None)
        assert any(a is not None and a > 1 for a in outcomes)
        assert None in outcomes


def random_weighted_instance(rng: np.random.Generator, weights: str):
    n = int(rng.integers(1, 13))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
    if weights == "ties":
        w = rng.choice([1.0, 2.0, 0.5, 3.0], size=len(pairs))
    elif weights == "extreme":
        w = rng.choice([1e-300, 2.0**-60, 1.0, 1e300], size=len(pairs))
    else:
        w = 10.0 ** rng.uniform(-300, 300, size=len(pairs))
    g = validate_graph(pairs, w, n)
    clusters = int(rng.integers(1, min(n, 4) + 1))
    labels = np.concatenate([np.arange(clusters), rng.integers(0, clusters, n - clusters)])
    return g, Partition.from_labels(rng.permutation(labels))


def test_weighted_degrees_match_loop():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        g = validate_graph(pairs, 10.0 ** rng.uniform(-5, 5, size=len(pairs)), n)
        assert g.weighted_degrees().tobytes() == reference_weighted_degrees(g).tobytes()


class TestSamplerMatchesReference:
    @pytest.mark.parametrize("weights", ["ties", "extreme", "log-uniform"])
    def test_random_weighted_graphs(self, weights):
        rng = np.random.default_rng(77)
        for _ in range(100):
            g, p = random_weighted_instance(rng, weights)
            for budget in {1, int(rng.integers(1, g.node_count + 1)), g.node_count}:
                assert sample_boundary_aware(g, p, budget) == reference_sample_boundary_aware(
                    g, p, budget
                )

    def test_single_cluster_partition(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g, _ = random_weighted_instance(rng, "ties")
            p = Partition((frozenset(range(g.node_count)),))
            for budget in range(1, g.node_count + 1):
                assert sample_boundary_aware(g, p, budget) == reference_sample_boundary_aware(
                    g, p, budget
                )

    def test_discounted_scores_underflow_into_ties(self):
        # 1e-300 * 0.5**k turns subnormal after ~25 picks in one cluster and
        # reaches zero near 77, merging scores the undiscounted weights keep apart.
        rng = np.random.default_rng(11)
        n = 90
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1]
        w = rng.choice([1e-300, 3e-300, 1.0], size=len(pairs))
        g = validate_graph(pairs, w, n)
        p = Partition((frozenset(range(85)), frozenset(range(85, n))))
        assert sample_boundary_aware(g, p, n) == reference_sample_boundary_aware(g, p, n)
        assert sample_boundary_aware(g, p, 80) == reference_sample_boundary_aware(g, p, 80)

    def test_generated_instances(self):
        for cfg in [paper_like_config(seed=s) for s in range(5)] + [FIXED_CONFIGS[4]]:
            g, p = generate_planted_partition(cfg)
            for budget in (1, 15, g.node_count):
                assert sample_boundary_aware(g, p, budget) == reference_sample_boundary_aware(
                    g, p, budget
                )


def output_digest(cfg: PlantedPartitionConfig, budget: int, seed: int) -> str:
    g, p = generate_planted_partition(cfg)
    m_boundary = sample_boundary_aware(g, p, budget)
    m_uniform = sample_uniform(g, budget, seed=seed)
    data = repr((g.edges, g.weights.tobytes(), m_boundary, m_uniform)).encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "cfg, budget, seed, expected",
    [
        (
            paper_like_config(seed=1), 15, 1,
            "cb9739e718c2efe4f7b897d46ccbb9cd9d46512b96dc497928a7f9344ace0a62",
        ),
        (
            PlantedPartitionConfig(sizes=(100,) * 10, p_in=0.1, p_out=5e-4, seed=3), 100, 3,
            "eaeee2864c72d6bb340a5f1f7322074fe0a7eb08db5b38956eb10422b7b85dd3",
        ),
        (  # four attempts
            PlantedPartitionConfig(sizes=(4, 1, 3), p_in=0.6, p_out=0.15, weight=0.75, seed=5),
            4, 5,
            "677df8e35eccb4601db632e36c91fe8c68f973588b34068e537f275e91269760",
        ),
    ],
    ids=["preset", "cli-1e3", "retry"],
)
def test_golden_output_hash(cfg, budget, seed, expected):
    assert output_digest(cfg, budget, seed) == expected
