"""ADMM solver versus the exhaustive oracle, plus objective bookkeeping."""

import numpy as np
import pytest

from conftest import random_connected_graph
from netlasso.errors import InstanceTooLargeError, InvalidConfigError, NodeOutOfRangeError
from netlasso.graphs import Observations, clustered_signal, tv, validate_graph
from netlasso.solver import (
    SolverConfig,
    empirical_error,
    objective,
    solve_admm,
    solve_oracle,
)


def obs_of(nodes, y):
    y = np.asarray(y, dtype=np.float64)
    return Observations(nodes=tuple(nodes), y=y, eps=np.zeros(len(y)))


def random_tiny_instance(rng, max_nodes=6, max_samples=3):
    n = int(rng.integers(2, max_nodes + 1))
    g = random_connected_graph(rng, n, w_lo=0.5, w_hi=2.0)
    m = int(rng.integers(1, min(max_samples, n) + 1))
    nodes = tuple(sorted(rng.choice(n, size=m, replace=False).tolist()))
    y = rng.normal(size=m) * 2.0
    return g, obs_of(nodes, y)


class TestEmpiricalErrorAndObjective:
    def test_zero_on_agreement(self):
        obs = obs_of((0, 1), [2.0, -1.0])
        assert empirical_error([2.0, -1.0, 5.0], obs) == 0.0

    def test_single_term(self):
        obs = obs_of((0,), [1.0])
        assert empirical_error([3.0, 0.0], obs) == 2.0

    def test_additive_over_disjoint_sample_sets(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        whole = empirical_error(x, obs_of(range(6), y))
        part1 = empirical_error(x, obs_of((0, 1, 2), y[:3]))
        part2 = empirical_error(x, obs_of((3, 4, 5), y[3:]))
        assert whole == pytest.approx(part1 + part2)

    def test_objective_lambda_zero(self, path2):
        obs = obs_of((0, 1), [0.0, 1.0])
        assert objective(path2, [0.5, 0.5], obs, 0.0) == empirical_error([0.5, 0.5], obs)

    def test_objective_two_node_example(self, path2):
        obs = obs_of((0, 1), [0.0, 1.0])
        assert objective(path2, [0.0, 1.0], obs, 0.5) == pytest.approx(0.5)


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidConfigError):
            SolverConfig(lam=-0.1)
        with pytest.raises(InvalidConfigError):
            SolverConfig(lam=1.0, rho=0.0)
        with pytest.raises(InvalidConfigError):
            SolverConfig(lam=1.0, max_iters=0)

    @pytest.mark.parametrize("bad", [
        {"rho": np.inf}, {"rho": np.nan}, {"rho": -np.inf},
        {"eps_abs": np.inf}, {"eps_abs": np.nan}, {"eps_rel": np.inf}, {"eps_rel": np.nan},
        {"max_iters": 2.5}, {"max_iters": 100.0}, {"max_iters": True}, {"max_iters": "10"},
        # no real number: a config error, not numpy's TypeError from isfinite
        {"lam": "0.1"}, {"lam": None}, {"lam": True}, {"rho": "1"}, {"eps_abs": None},
        {"eps_rel": "1e-5"},
        {"lam": False}, {"lam": 10**400}, {"rho": True}, {"eps_abs": False}, {"eps_rel": 10**400},
        {"max_iters": False}, {"max_iters": None}, {"max_iters": np.float64(10.0)},
    ])
    def test_rejects_non_finite_and_non_integer(self, bad):
        with pytest.raises(InvalidConfigError):
            SolverConfig(**{"lam": 1.0, **bad})

    def test_keeps_settings_as_floats(self):
        cfg = SolverConfig(lam=np.float64(0.5), rho=2, eps_abs=np.float32(0.25))
        assert [type(v) for v in (cfg.lam, cfg.rho, cfg.eps_abs)] == [float] * 3
        assert (cfg.lam, cfg.rho, cfg.eps_abs) == (0.5, 2.0, 0.25)

    def test_keeps_max_iters_as_an_int(self):
        assert type(SolverConfig(lam=1.0, max_iters=np.int64(3)).max_iters) is int

    def test_accepts_numpy_integer_max_iters(self, path2):
        res = solve_admm(path2, obs_of((0,), [1.0]), SolverConfig(lam=1.0, max_iters=np.int64(3)))
        assert res.iterations <= 3


class TestSolveAdmm:
    def test_two_node_unfused_regime(self, path2):
        obs = obs_of((0, 1), [0.0, 1.0])
        res = solve_admm(path2, obs, SolverConfig(lam=0.5))
        assert res.converged
        assert res.objective == pytest.approx(0.5, abs=1e-5)
        assert np.allclose(res.x_hat, [0.0, 1.0], atol=1e-4)

    def test_two_node_fused_regime_objective_only(self, path2):
        # solution set is any fused constant in [0, 1]; compare objectives
        obs = obs_of((0, 1), [0.0, 1.0])
        res = solve_admm(path2, obs, SolverConfig(lam=2.0))
        assert res.objective == pytest.approx(1.0, abs=1e-5)

    def test_fixture_noiseless_exact_recovery(self, two_cluster_fixture):
        g, p, m = two_cluster_fixture
        x_true = clustered_signal(p, [1.0, 2.0])
        obs = obs_of(m, x_true[list(m)])
        res = solve_admm(g, obs, SolverConfig(lam=0.25, eps_abs=1e-10, eps_rel=1e-9))
        assert res.converged
        assert np.max(np.abs(res.x_hat - x_true)) <= 1e-6

    def test_result_parts_identity(self):
        rng = np.random.default_rng(1)
        g, obs = random_tiny_instance(rng)
        res = solve_admm(g, obs, SolverConfig(lam=0.7))
        assert res.objective == res.empirical_error + res.lam * res.tv_term

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(2)
        g, obs = random_tiny_instance(rng)
        cfg = SolverConfig(lam=0.3)
        r1 = solve_admm(g, obs, cfg)
        r2 = solve_admm(g, obs, cfg)
        assert np.array_equal(r1.x_hat, r2.x_hat)
        assert r1.iterations == r2.iterations
        assert r1.objective == r2.objective

    def test_x_hat_owns_its_memory(self):
        # no view into the loop's blocks, which would keep them alive
        rng = np.random.default_rng(2)
        g, obs = random_tiny_instance(rng)
        x_hat = solve_admm(g, obs, SolverConfig(lam=0.3)).x_hat
        assert x_hat.flags.owndata and x_hat.shape == (g.node_count,)

    def test_trace_recorded_and_objective_bounded(self, path4):
        obs = obs_of((0, 3), [0.0, 3.0])
        cfg = SolverConfig(lam=0.5, record_trace=True, max_iters=500)
        res = solve_admm(path4, obs, cfg)
        assert len(res.trace) == res.iterations
        objs = [row["objective"] for row in res.trace]
        assert np.all(np.isfinite(objs))
        assert max(objs) <= objs[0] + 10.0  # bounded, no blow-up

    def test_nonconvergence_flag(self, path4):
        obs = obs_of((0, 3), [0.0, 3.0])
        res = solve_admm(path4, obs, SolverConfig(lam=0.5, max_iters=2))
        assert not res.converged
        assert res.iterations == 2

    def test_disconnected_graph_warns(self):
        g = validate_graph([(0, 1)], [1.0], 3)
        obs = obs_of((0, 2), [1.0, 5.0])
        with pytest.warns(UserWarning):
            res = solve_admm(g, obs, SolverConfig(lam=1.0))
        # isolated sampled node pinned to its label
        assert res.x_hat[2] == pytest.approx(5.0, abs=1e-6)

    def test_matches_oracle_on_random_tiny_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            g, obs = random_tiny_instance(rng)
            lam = float(rng.choice([0.1, 0.5, 1.0, 2.0]))
            res = solve_admm(g, obs, SolverConfig(lam=lam, eps_abs=1e-8, eps_rel=1e-7))
            opt, _ = solve_oracle(g, obs, lam)
            assert res.objective >= opt - 1e-9
            assert res.objective <= opt + 1e-4 * (1.0 + opt)

    def test_lambda_monotone_tv_term(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g, obs = random_tiny_instance(rng)
            tvs = []
            for lam in (0.05, 0.1, 0.3, 0.7, 1.5, 3.0):
                res = solve_admm(g, obs, SolverConfig(lam=lam, eps_abs=1e-8, eps_rel=1e-7))
                tvs.append(res.tv_term)
            for a, b in zip(tvs, tvs[1:]):
                assert b <= a + 1e-5 * (1.0 + a)  # slack covers solver tolerance

    def test_rejects_negative_observed_node(self, path2):
        with pytest.raises(NodeOutOfRangeError):
            solve_admm(path2, obs_of((-1, 0), [1.0, 0.0]), SolverConfig(lam=0.5))


class TestSolveOracle:
    def test_two_node_example(self, path2):
        obs = obs_of((0, 1), [0.0, 1.0])
        value, x = solve_oracle(path2, obs, 0.5)
        assert value == pytest.approx(0.5)
        assert list(x) == [0.0, 1.0]

    def test_lambda_zero_perfect_fit(self, path4):
        obs = obs_of((0, 2), [4.0, -1.0])
        value, _ = solve_oracle(path4, obs, 0.0)
        assert value == 0.0

    def test_single_node(self):
        g = validate_graph([], [], 1)
        obs = obs_of((0,), [5.0])
        value, x = solve_oracle(g, obs, 3.0)
        assert value == 0.0 and x[0] == 5.0

    def test_size_cap(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, 9)
        obs = obs_of((0,), [1.0])
        with pytest.raises(InstanceTooLargeError):
            solve_oracle(g, obs, 1.0)

    def test_rejects_negative_observed_node(self, path2):
        with pytest.raises(NodeOutOfRangeError):
            solve_oracle(path2, obs_of((-1, 0), [1.0, 0.0]), 0.5)

    def test_scaling_invariance_of_objective(self):
        # positive homogeneity: scaling labels scales the optimum
        rng = np.random.default_rng(6)
        for _ in range(15):
            g, obs = random_tiny_instance(rng)
            lam = 0.4
            v1, _ = solve_oracle(g, obs, lam)
            c = float(rng.uniform(0.5, 3.0))
            obs_scaled = Observations(nodes=obs.nodes, y=c * obs.y, eps=obs.eps * 0.0)
            v2, _ = solve_oracle(g, obs_scaled, lam)
            assert v2 == pytest.approx(c * v1, rel=1e-9, abs=1e-12)

    def test_oracle_lambda_monotone_tv_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g, obs = random_tiny_instance(rng)
            prev_tv = None
            for lam in (0.1, 0.5, 1.0, 2.0):
                _, x = solve_oracle(g, obs, lam)
                cur = tv(g, x)
                if prev_tv is not None:
                    assert cur <= prev_tv + 1e-12
                prev_tv = cur
