"""Sampling-set construction: determinism, spread, uniformity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sampling_reference as ref
from netlasso import sampling
from netlasso.certify import check_support_condition
from netlasso.errors import BudgetExceedsNodesError, InvalidConfigError
from netlasso.generate import PlantedPartitionConfig, paper_like_config, generate_planted_partition
from netlasso.graphs import Partition, validate_graph
from netlasso.sampling import sample_boundary_aware, sample_uniform


class TestBoundaryAware:
    def test_path_picks_boundary_endpoints(self, path4):
        p = Partition((frozenset({0, 1}), frozenset({2, 3})))
        assert sample_boundary_aware(path4, p, 2) == (1, 2)

    def test_single_cluster_falls_back_to_weighted_degree(self):
        g = validate_graph([(0, 1), (1, 2), (1, 3), (2, 3)], [1.0, 1.0, 5.0, 1.0], 4)
        p = Partition((frozenset({0, 1, 2, 3}),))
        # weighted degrees: 1, 7, 2, 6
        assert sample_boundary_aware(g, p, 2) == (1, 3)

    def test_budget_equals_node_count(self, path4):
        p = Partition((frozenset({0, 1}), frozenset({2, 3})))
        assert sample_boundary_aware(path4, p, 4) == (0, 1, 2, 3)

    def test_budget_bounds(self, path4):
        p = Partition((frozenset({0, 1}), frozenset({2, 3})))
        with pytest.raises(BudgetExceedsNodesError):
            sample_boundary_aware(path4, p, 0)
        with pytest.raises(BudgetExceedsNodesError):
            sample_boundary_aware(path4, p, 5)

    def test_supports_follow_endpoints(self, two_cluster_fixture):
        g, p, _ = two_cluster_fixture
        # endpoints 1, 2 first; then the heavy-support nodes 0 and 3
        assert sample_boundary_aware(g, p, 2) == (1, 2)
        assert sample_boundary_aware(g, p, 4) == (0, 1, 2, 3)

    def test_pure_function_of_inputs(self):
        cfg = paper_like_config(seed=5)
        g, p = generate_planted_partition(cfg)
        a = sample_boundary_aware(g, p, 15)
        b = sample_boundary_aware(g, p, 15)
        assert a == b
        assert len(a) == 15 and len(set(a)) == 15

    def test_spreads_across_clusters_on_preset(self):
        for seed in range(10):
            g, p = generate_planted_partition(paper_like_config(seed=seed))
            m = sample_boundary_aware(g, p, 15)
            lab = p.labels
            counts = [sum(1 for v in m if lab[v] == c) for c in range(4)]
            assert min(counts) >= 2

    def test_support_condition_satisfied_on_most_preset_seeds(self):
        # half-budget boundary-aware sampling should certify at L = 1 on
        # at least 90% of seeds (uniform weights: adjacency suffices)
        satisfied = 0
        seeds = range(40)
        for seed in seeds:
            g, p = generate_planted_partition(paper_like_config(seed=seed))
            m = sample_boundary_aware(g, p, g.node_count // 2)
            if check_support_condition(g, p, m, 1.0).satisfied:
                satisfied += 1
        assert satisfied >= 0.9 * len(seeds)


# Tied scores, subnormal cross weights whose discounted scores round together,
# and 1e308, whose sums overflow to inf.
WEIGHTS = (0.5, 1.0, 2.0, 5e-324, 1e-323, 1.5e-323, 1e-300, 1e308)


@st.composite
def partitioned_graphs(draw, weights=WEIGHTS):
    """A graph on 1..9 nodes (any edges, possibly none) and a partition into
    1..n clusters, often one."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = validate_graph(edges, [draw(st.sampled_from(weights)) for _ in edges], n)
    raw = draw(st.lists(st.integers(0, draw(st.integers(0, n - 1))), min_size=n, max_size=n))
    dense = {c: k for k, c in enumerate(dict.fromkeys(raw))}
    return g, Partition.from_labels([dense[c] for c in raw])


def same_sets_as_reference(g, p, budgets):
    for budget in budgets:
        assert sample_boundary_aware(g, p, budget) == ref.sample_boundary_aware(g, p, budget)


class TestAgainstReference:
    """The per-cluster heap against the argmin over every node per pick."""

    @settings(max_examples=300, deadline=None)
    @given(partitioned_graphs())
    def test_same_sets_at_every_budget(self, instance):
        g, p = instance
        same_sets_as_reference(g, p, range(1, g.node_count + 1))

    @settings(max_examples=150, deadline=None)
    @given(partitioned_graphs(weights=(1.0, 2.0, 3.0)))
    def test_same_sets_when_discounted_scores_round_to_zero(self, instance):
        # at 2**-600 a cluster's second discount is 0.0, so all its scores tie
        with pytest.MonkeyPatch.context() as mp:
            for module in (sampling, ref):
                mp.setattr(module, "SATURATION_DISCOUNT", 2.0**-600)
            g, p = instance
            same_sets_as_reference(g, p, range(1, g.node_count + 1))

    def test_rounded_tie_goes_to_the_smaller_rank(self, monkeypatch):
        for module in (sampling, ref):
            monkeypatch.setattr(module, "SATURATION_DISCOUNT", 2.0**-600)
        g = validate_graph([(0, 3), (0, 4), (3, 4), (2, 4), (0, 1)], [2.0, 2.0, 3.0, 1.0, 1.0], 5)
        p = Partition.from_labels([1, 1, 1, 1, 0])
        # picks 4, 3, 0; then node 2's cross weight (1.0) beats node 1's (0.0), but
        # cluster 1's discount is 0.0, both score -0.0, and node 1's support edge
        # ranks it first. The first alive node by cross weight would give (0, 2, 3, 4).
        assert sample_boundary_aware(g, p, 4) == ref.sample_boundary_aware(g, p, 4) == (0, 1, 3, 4)

    def test_subnormal_scores_round_to_a_tie(self):
        # picks 1, 2; then node 0's cross weight 5e-324, halved, rounds to 0.0 and
        # ties node 3's, whose support edge ranks it first
        g = validate_graph([(2, 3), (0, 1), (1, 2), (0, 3), (0, 2)],
                           [2e-323, 5e-324, 1.5e-323, 1e-323, 1e-323], 4)
        p = Partition.from_labels([0, 1, 0, 0])
        assert sample_boundary_aware(g, p, 3) == ref.sample_boundary_aware(g, p, 3) == (1, 2, 3)

    def test_infinite_cross_weight_past_the_last_discount(self):
        # Nodes 0..1099 (cluster 0) each have two boundary edges of weight 1e308, so
        # their cross weight is inf; past 1,074 picks the discount is 0.0 and their
        # score -inf * 0.0 is nan, which numpy's argmin takes before any number. So
        # cluster 0 fills before the hub 1100 and the leaves 1101.. of cluster 2.
        a = 1100
        edges = ([(i, i + 1) for i in range(a - 1)] + [(i, a) for i in range(a)]
                 + [(i, a + 1 + i) for i in range(a)])
        g = validate_graph(edges, [1.0] * (a - 1) + [1e308] * (2 * a), 2 * a + 1)
        p = Partition.from_labels([0] * a + [1] + [2] * a)
        with np.errstate(invalid="ignore"):  # the reference's -inf * 0.0
            same_sets_as_reference(g, p, (1074, 1075, 1076, a, a + 1, a + 2))
        assert sample_boundary_aware(g, p, a + 1) == tuple(range(a + 1))

    @pytest.mark.parametrize("seed", range(3))
    def test_same_sets_at_n_5e3(self, seed):
        cfg = PlantedPartitionConfig((100,) * 50, 0.1, 2e-4, 1.0, seed)
        g, p = generate_planted_partition(cfg)
        same_sets_as_reference(g, p, (1, 50, 500, 2_000))

    def test_same_sets_on_preset_seeds(self):
        for seed in range(60):
            g, p = generate_planted_partition(paper_like_config(seed=seed))
            same_sets_as_reference(g, p, (1, 5, 15, 30))


class TestUniform:
    def test_full_budget_returns_all_nodes(self, path4):
        assert sample_uniform(path4, 4, seed=123) == (0, 1, 2, 3)

    def test_deterministic_given_seed(self, path4):
        assert sample_uniform(path4, 2, seed=9) == sample_uniform(path4, 2, seed=9)

    def test_negative_seed_rejected(self, path4):
        with pytest.raises(InvalidConfigError, match="seed must be >= 0"):
            sample_uniform(path4, 2, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, "3", None, 2.0, True, False])
    def test_seed_that_is_no_integer_rejected(self, path4, seed):
        with pytest.raises(InvalidConfigError, match="seed must be an integer"):
            sample_uniform(path4, 2, seed=seed)

    def test_index_like_budget_and_seed(self, path4):
        assert sample_uniform(path4, np.int64(2), seed=np.uint8(9)) == sample_uniform(
            path4, 2, seed=9
        )

    def test_no_duplicates(self):
        g, _ = generate_planted_partition(paper_like_config(seed=0))
        for seed in range(20):
            m = sample_uniform(g, 15, seed=seed)
            assert len(m) == 15 and len(set(m)) == 15

    def test_inclusion_frequency_uniform(self):
        g, _ = generate_planted_partition(paper_like_config(seed=0))
        trials = 10_000
        counts = np.zeros(30)
        for seed in range(trials):
            for v in sample_uniform(g, 15, seed=seed):
                counts[v] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.5) <= 0.05)


@pytest.mark.parametrize("budget", [2.7, 2.0, "3", None, np.float64(2.0), True, False])
def test_budget_that_is_no_integer_rejected(path4, budget):
    # used to be truncated (2.7 drew 2 nodes) or parsed ("3" drew 3)
    p = Partition((frozenset({0, 1}), frozenset({2, 3})))
    for sample in (lambda: sample_uniform(path4, budget, seed=1),
                   lambda: sample_boundary_aware(path4, p, budget)):
        with pytest.raises(InvalidConfigError, match="budget must be an integer"):
            sample()
