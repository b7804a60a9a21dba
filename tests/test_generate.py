"""Planted-partition generator and noisy observation sampling."""

import os
import threading

import numpy as np
import pytest

from conftest import NOT_NUMBERS
from netlasso.errors import (
    DimensionMismatchError,
    DisconnectedAfterRetriesError,
    EmptySamplingSetError,
    InvalidConfigError,
    NodeOutOfRangeError,
)
from netlasso import generate
from netlasso.generate import (
    NoiseConfig,
    PlantedPartitionConfig,
    generate_planted_partition,
    noise_field,
    observe,
    paper_like_config,
)
from netlasso.graphs import boundary, is_connected


class TestConfigValidation:
    def test_probability_range(self):
        with pytest.raises(InvalidConfigError):
            PlantedPartitionConfig(sizes=(3, 3), p_in=1.5, p_out=0.0)

    def test_sizes_positive(self):
        with pytest.raises(InvalidConfigError):
            PlantedPartitionConfig(sizes=(3, 0), p_in=0.5, p_out=0.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidConfigError, match="seed must be >= 0"):
            PlantedPartitionConfig(sizes=(3, 3), p_in=0.5, p_out=0.5, seed=-1)
        with pytest.raises(InvalidConfigError, match="seed must be >= 0"):
            NoiseConfig(distribution="gaussian", sigma=0.1, seed=-1)

    @pytest.mark.parametrize(
        "sizes", [(7.9, 3), ("7", 3), (3, None), *((bad, 2) for bad in NOT_NUMBERS)]
    )
    def test_sizes_must_be_integers(self, sizes):
        # 7.9 was truncated to 7 and "7" parsed
        with pytest.raises(InvalidConfigError, match="cluster size must be an integer"):
            PlantedPartitionConfig(sizes=sizes, p_in=0.5, p_out=0.5)

    def test_index_like_sizes_accepted(self):
        cfg = PlantedPartitionConfig(sizes=(np.int64(3), 2), p_in=0.5, p_out=0.5, seed=np.int32(1))
        assert cfg.sizes == (3, 2) and all(type(s) is int for s in cfg.sizes)

    @pytest.mark.parametrize("seed", [1.5, "3", None, True, False])
    def test_seed_must_be_an_integer(self, seed):
        # numpy's generator raised a bare TypeError for these
        with pytest.raises(InvalidConfigError, match="seed must be an integer"):
            PlantedPartitionConfig(sizes=(3, 3), p_in=0.5, p_out=0.5, seed=seed)
        with pytest.raises(InvalidConfigError, match="seed must be an integer"):
            NoiseConfig(distribution="gaussian", sigma=0.1, seed=seed)

    @pytest.mark.parametrize("weight", [float("inf"), -float("inf"), float("nan"), 0.0, -1.0])
    def test_weight_must_be_positive_and_finite(self, weight):
        # inf passed and failed only after a whole attempt, naming edge (0, 1)
        with pytest.raises(InvalidConfigError, match="edge weight must be positive and finite"):
            PlantedPartitionConfig(sizes=(3, 3), p_in=0.5, p_out=0.5, weight=weight)

    @pytest.mark.parametrize("field, value", [
        ("p_in", "0.5"),  # a bare TypeError
        ("p_out", None),
        ("weight", "1"),
        ("weight", 1j),
        ("p_in", True),  # bools were taken as 1 and 0
        ("p_out", False),
        ("weight", True),
        ("weight", np.bool_(True)),
        ("p_in", False),
        ("p_in", None),
        ("p_out", True),
        ("p_out", "0.5"),
        ("weight", False),
        ("weight", None),
    ])
    def test_probabilities_and_weight_must_be_real_numbers(self, field, value):
        kwargs = {"sizes": (3, 3), "p_in": 0.5, "p_out": 0.5, field: value}
        with pytest.raises(InvalidConfigError, match=f"{field} must be a real number"):
            PlantedPartitionConfig(**kwargs)

    def test_weight_too_large_for_a_float(self):
        with pytest.raises(InvalidConfigError, match="weight is not finite"):
            PlantedPartitionConfig(sizes=(3, 3), p_in=0.5, p_out=0.5, weight=10**400)

    def test_numpy_reals_accepted_as_floats(self):
        cfg = PlantedPartitionConfig(
            sizes=(3, 3), p_in=1, p_out=np.float32(0.25), weight=np.int64(2)
        )
        assert (cfg.p_in, cfg.p_out, cfg.weight) == (1.0, 0.25, 2.0)
        assert all(type(v) is float for v in (cfg.p_in, cfg.p_out, cfg.weight))

    def test_noise_distribution_names(self):
        with pytest.raises(InvalidConfigError):
            NoiseConfig(distribution="cauchy", sigma=1.0)
        with pytest.raises(InvalidConfigError):
            NoiseConfig(distribution="gaussian", sigma=-0.1)

    @pytest.mark.parametrize("sigma", [True, "0.1", None, 1e400, -np.inf, np.nan, False, 10**400])
    def test_noise_sigma_must_be_a_finite_real(self, sigma):
        with pytest.raises(InvalidConfigError, match="sigma"):
            NoiseConfig("gaussian", sigma)

    def test_noise_sigma_is_stored_as_a_float(self):
        cfg = NoiseConfig("laplace", np.float32(0.5))
        assert cfg.sigma == 0.5 and type(cfg.sigma) is float
        assert type(NoiseConfig("gaussian", 1).sigma) is float


class TestGeneratePlantedPartition:
    def test_disconnected_when_p_out_zero(self):
        cfg = PlantedPartitionConfig(sizes=(3, 3), p_in=1.0, p_out=0.0, seed=0)
        with pytest.raises(DisconnectedAfterRetriesError):
            generate_planted_partition(cfg)

    def test_complete_graph_when_both_probs_one(self):
        cfg = PlantedPartitionConfig(sizes=(3, 3), p_in=1.0, p_out=1.0, seed=0)
        g, p = generate_planted_partition(cfg)
        assert g.edge_count == 15
        assert len(boundary(g, p)) == 9

    def test_deterministic_given_seed(self):
        cfg = PlantedPartitionConfig(sizes=(5, 5), p_in=0.9, p_out=0.3, seed=11)
        g1, _ = generate_planted_partition(cfg)
        g2, _ = generate_planted_partition(cfg)
        assert g1.edges == g2.edges
        assert np.array_equal(g1.weights, g2.weights)

    def test_connected_and_clusters_internally_connected(self):
        for seed in range(10):
            cfg = PlantedPartitionConfig(sizes=(4, 5), p_in=0.8, p_out=0.2, seed=seed)
            g, p = generate_planted_partition(cfg)
            assert is_connected(g)

    def test_block_partition_layout(self):
        cfg = PlantedPartitionConfig(sizes=(2, 3), p_in=1.0, p_out=1.0, seed=0)
        _, p = generate_planted_partition(cfg)
        assert p.clusters == (frozenset({0, 1}), frozenset({2, 3, 4}))

    def test_no_self_loops_and_weights_uniform(self):
        cfg = PlantedPartitionConfig(sizes=(4, 4), p_in=0.9, p_out=0.4, weight=2.5, seed=3)
        g, _ = generate_planted_partition(cfg)
        for i, j in g.edges:
            assert i < j
        assert set(g.weights.tolist()) == {2.5}

    def test_empirical_edge_count_matches_expectation(self):
        # Connectivity conditioning is negligible at these densities.
        expected = 0.7 * (6 + 10) + 0.2 * 4 * 5  # intra-cluster pairs p_in, the rest p_out
        counts = []
        for seed in range(1000):
            cfg = PlantedPartitionConfig(sizes=(4, 5), p_in=0.7, p_out=0.2, seed=seed)
            g, _ = generate_planted_partition(cfg)
            counts.append(g.edge_count)
        assert abs(np.mean(counts) - expected) <= 0.05 * expected

    def test_paper_like_preset_shape(self):
        cfg = paper_like_config(seed=1)
        intra = sum(s * (s - 1) // 2 for s in cfg.sizes)
        inter = 30 * 29 // 2 - intra
        assert cfg.p_in * intra + cfg.p_out * inter == pytest.approx(156.0)
        g, p = generate_planted_partition(cfg)
        assert g.node_count == 30
        assert sorted(len(c) for c in p.clusters) == [7, 7, 8, 8]
        assert set(g.weights.tolist()) == {1.0}


class TestThreadedAttempts:
    """An attempt drawn on three threads: 3 chunks of row groups."""

    CFG = PlantedPartitionConfig(sizes=(40, 1, 1, 38), p_in=0.3, p_out=0.05, seed=3)

    @pytest.fixture(autouse=True)
    def three_threads(self, monkeypatch):
        monkeypatch.setattr(generate, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(generate, "_PAIRS_PER_WORKER", 1)
        monkeypatch.setattr(generate, "_PAIRS_PER_DRAW", 256)  # 3 rows per group
        n = self.CFG.node_count
        self.chunk_rows = [int(rows[0]) for _, rows in generate._row_chunks(n, 3, 3)]
        assert self.chunk_rows == [0, 15, 36]

    def spy(self, monkeypatch, fail_from_row=None):
        """Records (first row, thread, threads alive) per row group drawn."""
        seen = []
        draw_rows = generate._draw_rows

        def spied(rng, rows, *args):
            seen.append((int(rows[0]), threading.get_ident(), threading.active_count()))
            if fail_from_row is not None and rows[0] >= fail_from_row:
                raise FloatingPointError(f"row {rows[0]}")
            return draw_rows(rng, rows, *args)

        monkeypatch.setattr(generate, "_draw_rows", spied)
        return seen

    def test_threads_end_with_the_call(self, monkeypatch):
        seen = self.spy(monkeypatch)
        tested_in = []
        monkeypatch.setattr(
            generate, "is_connected",
            lambda g: tested_in.append(threading.get_ident()) or is_connected(g),
        )
        alive = threading.active_count()
        affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        g, _ = generate_planted_partition(self.CFG)
        assert threading.active_count() == alive
        assert (os.sched_getaffinity(0) if affinity is not None else None) == affinity
        assert tested_in == [threading.get_ident()]  # one attempt, tested here
        drawn_by = {row: ident for row, ident, _ in seen}
        assert drawn_by[0] == threading.get_ident() != drawn_by[15]  # the first chunk here
        assert max(count for _, _, count in seen) <= alive + 2  # at most 2 threads started
        assert g.edge_count > 0

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_a_failing_chunk_raises_here(self, chunk, monkeypatch):
        seen = self.spy(monkeypatch, fail_from_row=self.chunk_rows[chunk])
        alive = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"row {self.chunk_rows[chunk]}"):
            generate_planted_partition(self.CFG)
        assert threading.active_count() == alive
        assert any(ident != threading.get_ident() for _, ident, _ in seen)


class TestSampleObservations:
    """Observing a sampling set through noise_field + observe."""

    def test_noiseless_exact(self):
        x = np.array([1.0, 2.0, 3.0])
        obs = observe(x, (0, 2), noise_field(3, NoiseConfig()))
        assert np.array_equal(obs.y, [1.0, 3.0])
        assert obs.noise_l1() == 0.0

    def test_seeded_noise_reproducible(self):
        x = np.zeros(5)
        cfg = NoiseConfig(distribution="laplace", sigma=0.1, seed=9)
        a = observe(x, (0, 1, 4), noise_field(5, cfg))
        b = observe(x, (0, 1, 4), noise_field(5, cfg))
        assert np.array_equal(a.eps, b.eps)
        assert np.any(a.eps != 0.0)

    def test_zero_sigma_gaussian_equals_none(self):
        x = np.arange(4.0)
        a = observe(x, (1, 3), noise_field(4, NoiseConfig("gaussian", 0.0, seed=5)))
        b = observe(x, (1, 3), noise_field(4, NoiseConfig()))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.eps, b.eps)

    def test_recorded_noise_bit_exact(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=20)
        cfg = NoiseConfig(distribution="gaussian", sigma=0.3, seed=2)
        obs = observe(x, tuple(range(0, 20, 3)), noise_field(20, cfg))
        assert np.array_equal(obs.y - x[list(obs.nodes)], obs.eps)

    def test_empty_sampling_set_rejected(self):
        with pytest.raises(EmptySamplingSetError):
            observe(np.zeros(3), (), noise_field(3, NoiseConfig()))

    @pytest.mark.parametrize("nodes", [(0, 3), (-1, 0)])
    def test_node_outside_signal_rejected(self, nodes):
        with pytest.raises(NodeOutOfRangeError):
            observe(np.zeros(3), nodes, noise_field(3, NoiseConfig()))

    @pytest.mark.parametrize("length", [2, 4])
    def test_noise_length_must_match_signal(self, length):
        with pytest.raises(DimensionMismatchError):
            observe(np.zeros(3), (0, 2), np.zeros(length))
