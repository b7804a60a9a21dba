"""``solve_admm`` on stacked (2, m) endpoint arrays against the reference loop
with one array per edge endpoint: results and trace rows equal bit for bit."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from admm_reference import reference_solve_admm
from conftest import random_connected_graph
from netlasso import experiments
from netlasso.graphs import Observations, validate_graph
from netlasso.solver import SolverConfig, solve_admm


def bits(v) -> str:
    return float(v).hex()


def run_both(g, obs, cfg):
    """Both solvers' results, and the warnings each raised."""
    out = []
    for solve in (solve_admm, reference_solve_admm):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = solve(g, obs, cfg)
        out.append((result, [str(w.message) for w in caught]))
    return out


def assert_identical(g, obs, cfg):
    (got, got_warnings), (ref, ref_warnings) = run_both(g, obs, cfg)
    assert got_warnings == ref_warnings
    assert got.x_hat.dtype == ref.x_hat.dtype and got.x_hat.tobytes() == ref.x_hat.tobytes()
    assert got.iterations == ref.iterations
    assert got.converged is ref.converged
    for name in ("primal_residual", "dual_residual", "objective", "empirical_error", "tv_term"):
        assert bits(getattr(got, name)) == bits(getattr(ref, name)), name
    assert len(got.trace) == len(ref.trace) == (ref.iterations if cfg.record_trace else 0)
    for row, ref_row in zip(got.trace, ref.trace):
        assert row.keys() == ref_row.keys()
        assert row["iteration"] == ref_row["iteration"]
        for key in row.keys() - {"iteration"}:
            assert bits(row[key]) == bits(ref_row[key]), (row["iteration"], key)
    return got


def obs_of(nodes, y):
    y = np.asarray(y, dtype=np.float64)
    return Observations(nodes=tuple(nodes), y=y, eps=np.zeros(len(y)))


@pytest.fixture(scope="module")
def preset_solves():
    """The solves of two trials of each experiment regime, as run_trial makes them."""
    solves = []
    solve = experiments.solve_admm

    def capture(g, obs, cfg):
        solves.append((g, obs, cfg))
        return solve(g, obs, cfg)

    experiments.solve_admm = capture
    try:
        for lam, noise in ((0.05, "gaussian"), ("auto", "none")):
            cfg = experiments.ExperimentConfig(noise=noise, sigma=0.1, lam=lam, master_seed=7)
            for trial in range(2):
                experiments.run_trial(cfg, trial)
    finally:
        experiments.solve_admm = solve
    return solves


def test_preset_solves_of_both_regimes(preset_solves):
    lams = {cfg.lam for _, _, cfg in preset_solves}
    assert len(preset_solves) == 8 and 0.05 in lams and len(lams) > 1
    for g, obs, cfg in preset_solves:
        assert assert_identical(g, obs, cfg).converged


def test_preset_traces(preset_solves):
    for g, obs, cfg in preset_solves[::3]:
        assert_identical(g, obs, replace(cfg, record_trace=True))


def test_zero_edge_graph():
    g = validate_graph([], [], 3)
    for cfg in (SolverConfig(lam=1.0), SolverConfig(lam=0.5, record_trace=True)):
        res = assert_identical(g, obs_of((0, 1), [1.5, -0.0]), cfg)
        assert res.iterations == 1 and [bits(v) for v in res.x_hat] == [
            bits(1.5), bits(-0.0), bits(0.0)
        ]


def test_weights_across_ten_decades():
    rng = np.random.default_rng(11)
    g0 = random_connected_graph(rng, 12, extra_edge_prob=0.3)
    weights = 10.0 ** rng.uniform(-5.0, 5.0, size=g0.edge_count)
    weights[:2] = (1e-5, 1e5)
    g = validate_graph(g0.edges, weights, g0.node_count)
    obs = obs_of((1, 4, 9), rng.normal(size=3))
    for lam in (0.01, 1.0):
        assert_identical(g, obs, SolverConfig(lam=lam, max_iters=3_000, record_trace=True))


def test_rho_other_than_one():
    rng = np.random.default_rng(12)
    g = random_connected_graph(rng, 10)
    obs = obs_of((0, 3, 7), rng.normal(size=3))
    for rho in (0.3, 2.5):
        assert assert_identical(g, obs, SolverConfig(lam=0.4, rho=rho, record_trace=True)).converged


def test_max_iters_cut_off():
    rng = np.random.default_rng(13)
    g = random_connected_graph(rng, 10)
    obs = obs_of((2, 5), [1.0, -1.0])
    res = assert_identical(g, obs, SolverConfig(lam=0.2, max_iters=7, record_trace=True))
    assert res.iterations == 7 and not res.converged


def test_label_minus_zero_inside_the_threshold():
    # Node 0 is sampled at -0.0 and its average c lies in [-t, 0): the shrink gives
    # sign(c) * 0 = -0.0, and -0.0 + -0.0 keeps x[0] at -0.0.
    g = validate_graph([(0, 1), (1, 2)], [1.0, 1.0], 3)
    for lam in (0.05, 1.0):
        cfg = SolverConfig(lam=lam, record_trace=True)
        res = assert_identical(g, obs_of((0, 2), [-0.0, -0.5]), cfg)
        if lam == 0.05:
            assert bits(res.x_hat[0]) == bits(-0.0)


def test_lam_zero_with_negative_edge_difference():
    # theta_cap is 0, so the step is min(0, |delta| / 2) * sign(delta) = 0 * -1 = -0.0
    g = validate_graph([(0, 1), (1, 2)], [1.0, 1.0], 3)
    for y in ([-1.0, 1.0], [-0.0, 2.0], [0.0, -0.0]):
        res = assert_identical(g, obs_of((0, 1), y), SolverConfig(lam=0.0, record_trace=True))
        assert res.converged


def test_edge_difference_of_minus_zero():
    # Samples at +0.0 and -0.0 both pulled below zero end at x = +0.0 and -0.0, so
    # edge (0, 1) differs by -0.0 - 0.0 = -0.0 in the trace's total variation. (The
    # edge step's p - q is never -0.0: from zero duals, u and z never hold -0.0.)
    g = validate_graph([(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0], 4)
    for lam in (0.05, 1.0):
        cfg = SolverConfig(lam=lam, record_trace=True)
        res = assert_identical(g, obs_of((0, 1, 3), [0.0, -0.0, -0.5]), cfg)
        assert [bits(v) for v in res.x_hat[:2]] == [bits(0.0), bits(-0.0)]


@st.composite
def instances(draw):
    """Graphs on up to 9 nodes, with isolated sampled and unsampled nodes likely."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = [10.0 ** draw(st.floats(-5.0, 5.0)) for _ in edges]
    g = validate_graph(edges, weights, n)
    nodes = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    y = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(nodes), max_size=len(nodes)))
    cfg = SolverConfig(
        lam=draw(st.sampled_from([0.0, 0.05, 0.5, 3.0])),
        rho=draw(st.sampled_from([0.5, 1.0, 4.0])),
        max_iters=draw(st.integers(1, 400)),
        record_trace=draw(st.booleans()),
    )
    return g, obs_of(nodes, y), cfg


@settings(max_examples=150, deadline=None)
@given(instances())
def test_hypothesis_instances(instance):
    assert_identical(*instance)
