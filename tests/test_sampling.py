"""Sampling-set construction: determinism, spread, uniformity."""

import numpy as np
import pytest

from netlasso.certify import check_support_condition
from netlasso.errors import BudgetExceedsNodesError, InvalidConfigError
from netlasso.generate import paper_like_config, generate_planted_partition
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


class TestUniform:
    def test_full_budget_returns_all_nodes(self, path4):
        assert sample_uniform(path4, 4, seed=123) == (0, 1, 2, 3)

    def test_deterministic_given_seed(self, path4):
        assert sample_uniform(path4, 2, seed=9) == sample_uniform(path4, 2, seed=9)

    def test_negative_seed_rejected(self, path4):
        with pytest.raises(InvalidConfigError, match="seed must be >= 0"):
            sample_uniform(path4, 2, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, "3", None, 2.0])
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


@pytest.mark.parametrize("budget", [2.7, 2.0, "3", None, np.float64(2.0)])
def test_budget_that_is_no_integer_rejected(path4, budget):
    # used to be truncated (2.7 drew 2 nodes) or parsed ("3" drew 3)
    p = Partition((frozenset({0, 1}), frozenset({2, 3})))
    for sample in (lambda: sample_uniform(path4, budget, seed=1),
                   lambda: sample_boundary_aware(path4, p, budget)):
        with pytest.raises(InvalidConfigError, match="budget must be an integer"):
            sample()
