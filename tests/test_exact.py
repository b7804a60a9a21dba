"""``solve_exact`` against an LP, the enumeration oracle and ADMM, plus its
tie-breaking (the componentwise smallest minimizer) and input checks."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import graph_reference
from conftest import lp_optimum
from netlasso import cli, experiments
from netlasso.errors import DimensionMismatchError, InvalidConfigError, NodeOutOfRangeError
from netlasso.flow import DemandSpec, feasible_flow, verify_demand_witness
from netlasso.graphs import Observations, validate_graph
from netlasso.solver import SolverConfig, solve_exact, solve_oracle

LAMS = (0.0, 0.05, 1.0, 7.0)


def obs_of(nodes, y):
    y = np.asarray(y, dtype=np.float64)
    return Observations(nodes=tuple(nodes), y=y, eps=np.zeros(len(y)))


def quiet_solve(g, obs, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve_exact(g, obs, lam)


@st.composite
def instances(draw, max_nodes=9, max_samples=9):
    """Random edge subsets (isolated nodes and sample-free components occur),
    weights 1e-3..1e3, labels from a small set (repeats) or free floats."""
    n = draw(st.integers(1, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges.sort()
    weights = [10.0 ** draw(st.floats(-3.0, 3.0)) for _ in edges]
    nodes = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=max_samples)))
    label = (st.sampled_from([-1.5, 0.0, 0.25, 2.0]) if draw(st.booleans())
             else st.floats(-10.0, 10.0, allow_nan=False))
    y = [draw(label) for _ in nodes]
    return validate_graph(edges, weights, n), obs_of(nodes, y), draw(st.sampled_from(LAMS))


def check_minimizer(g, obs, lam, result):
    """Shape, bookkeeping, values drawn from the labels, smallest label where unconstrained."""
    x = result.x_hat
    assert x.shape == (g.node_count,)
    assert set(x.tolist()) <= set(obs.y.tolist())
    assert result.levels == len(set(obs.y.tolist()))
    assert result.cuts <= result.levels - 1  # one cut per split of the label range
    assert result.objective == result.empirical_error + lam * result.tv_term
    sampled = set(obs.nodes)
    reference = graph_reference.Graph(g.node_count, g.edges, g.weights)
    for comp in graph_reference.connected_components(reference):
        if not comp & sampled or lam == 0.0:
            free = sorted(comp - sampled)
            assert np.all(x[free] == obs.y.min())


def certified_optimum(g, obs, lam, x) -> Fraction | None:
    """The exact objective at x if a flow proves x optimal, else None.

    By LP duality (the KKT conditions of l1/TV), x is optimal if and only if
    some flow, in units of lam, carries at most W_e on every edge inside a
    level set of x and exactly W_e from the higher end to the lower on every
    other edge, and leaves each sample with net outflow -sign(x_i - y_i) / lam,
    or anything in [-1/lam, 1/lam] where x_i = y_i. The edges across levels
    are fixed, so one ``feasible_flow`` on the rest decides it, exactly.
    """
    x = [Fraction(v) for v in x.tolist()]
    y = {i: Fraction(v) for i, v in zip(obs.nodes, obs.y.tolist())}
    weights = [Fraction(w) for w in g.weights.tolist()]
    tv_x = sum(w * abs(x[i] - x[j]) for (i, j), w in zip(g.edges, weights))
    objective = sum(abs(x[i] - v) for i, v in y.items()) + Fraction(lam) * tv_x
    if lam == 0.0:
        return objective if all(x[i] == v for i, v in y.items()) else None
    b = [Fraction(0)] * g.node_count  # required net outflow on the edges within levels
    across = []
    for (i, j), w in zip(g.edges, weights):
        if x[i] != x[j]:
            across.append((i, j))
            high, low = (i, j) if x[i] > x[j] else (j, i)
            b[high] -= w
            b[low] += w
    for i, v in y.items():
        if x[i] != v:
            b[i] -= (1 if x[i] > v else -1) / Fraction(lam)
    on_label = {i for i, v in y.items() if x[i] == v}
    spec = DemandSpec(dict(enumerate(b)), frozenset(on_label), 1 / Fraction(lam))
    res = feasible_flow(g, across, spec)
    if not (res.feasible and verify_demand_witness(g, across, spec, res.witness)):
        return None
    return objective


# HiGHS reports 0.0 for this instance, whose optimum is 1.4278769e-08.
BELOW_HIGHS_TOLERANCE = (
    validate_graph([(0, 1)], [1.0], 3), obs_of((0, 1), [0.0, 1.4278769e-08]), 1.0
)


@example(BELOW_HIGHS_TOLERANCE)
@settings(max_examples=200, deadline=None)
@given(instances())
def test_matches_lp_optimum(inst):
    g, obs, lam = inst
    result = quiet_solve(g, obs, lam)
    opt = lp_optimum(g, obs, lam)
    if abs(result.objective - opt) > 1e-9 * (1.0 + opt):
        # HiGHS's 1e-7 feasibility tolerance can hide an optimum near zero; the
        # optimum that x_hat's certificate proves decides such instances exactly.
        exact = certified_optimum(g, obs, lam, result.x_hat)
        assert exact is not None, f"x_hat is not optimal; HiGHS reports {opt!r}"
        opt = float(exact)
    assert abs(result.objective - opt) <= 1e-9 * (1.0 + opt)
    check_minimizer(g, obs, lam, result)


def test_certificate_decides_an_optimum_below_highs_tolerance():
    g, obs, lam = BELOW_HIGHS_TOLERANCE
    result = quiet_solve(g, obs, lam)
    assert certified_optimum(g, obs, lam, result.x_hat) == Fraction(1.4278769e-08)
    assert result.objective == 1.4278769e-08
    # At lam 0.05 the optimum is 0.05 * 1.4e-8 (x_1 on its label); the fused
    # signal costs 1.4e-8 and no flow certifies it.
    assert certified_optimum(g, obs, 0.05, np.zeros(3)) is None
    assert certified_optimum(g, obs, 0.05, quiet_solve(g, obs, 0.05).x_hat) == (
        Fraction(0.05) * Fraction(1.4278769e-08)
    )


@settings(max_examples=200, deadline=None)
@given(instances())
def test_certificate_holds_for_every_exact_solve(inst):
    g, obs, lam = inst
    result = quiet_solve(g, obs, lam)
    exact = certified_optimum(g, obs, lam, result.x_hat)
    assert exact is not None
    assert abs(result.objective - exact) <= 1e-9 * (1 + exact)
    # a certified signal is a minimizer, so a shifted one certifies only at a tie
    shifted = result.x_hat.copy()
    shifted[0] += 1.0
    assert certified_optimum(g, obs, lam, shifted) in (None, exact)


@settings(max_examples=150, deadline=None)
@given(instances(max_nodes=7, max_samples=4))
def test_matches_oracle_on_tiny_instances(inst):
    g, obs, lam = inst
    result = quiet_solve(g, obs, lam)
    optimum, _ = solve_oracle(g, obs, lam)
    assert abs(result.objective - optimum) <= 1e-12 * (1.0 + optimum)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_smallest_minimizer(inst):
    # -solve_exact(g, -y) is the largest minimizer; the smallest lies below it
    # everywhere, and a solver returning any other minimizer fails on some tie.
    g, obs, lam = inst
    low = quiet_solve(g, obs, lam).x_hat
    high = -quiet_solve(g, obs_of(obs.nodes, -obs.y), lam).x_hat
    assert np.all(low <= high)


def test_ties_go_to_the_smallest_signal(path2):
    # lam = 2 fuses both nodes; every constant in [0, 1] is optimal
    result = solve_exact(path2, obs_of((0, 1), [0.0, 1.0]), 2.0)
    assert result.x_hat.tolist() == [0.0, 0.0]
    assert result.objective == 1.0 and result.cuts == 1 and result.levels == 2


def test_a_sample_loaded_with_exactly_one_is_not_pinned(path2):
    # lam * W = 1 at both samples, so [0, 1] ties with every constant in [0, 1] and
    # neither sample is pinned; pinning at a load of 1 as well would return [0, 1]
    result = solve_exact(path2, obs_of((0, 1), [0.0, 1.0]), 1.0)
    assert result.x_hat.tolist() == [0.0, 0.0] and result.pinned == 0


def test_samples_loaded_below_one_are_pinned(path4):
    # lam * W(edges) is 1/3 at the ends and 2/3 inside: every sample keeps its label
    result = solve_exact(path4, obs_of((0, 1, 2, 3), [3.0, 0.0, 2.0, 1.0]), 1 / 3)
    assert result.x_hat.tolist() == [3.0, 0.0, 2.0, 1.0]
    assert result.pinned == 4 and result.cuts == 0 and result.levels == 4
    # node 1 is free, between labels 0 and 1 at weight 1/3 each, and takes the smaller
    result = solve_exact(path4, obs_of((0, 2, 3), [0.0, 1.0, 5.0]), 1 / 3)
    assert result.x_hat.tolist() == [0.0, 0.0, 1.0, 5.0] and result.pinned == 3


def test_two_cluster_fixture_recovered_exactly(two_cluster_fixture):
    g, _, m = two_cluster_fixture
    result = solve_exact(g, obs_of(m, [1.0, 2.0]), 0.25)
    assert result.x_hat.tolist() == [1.0, 1.0, 2.0, 2.0]
    assert result.objective == 0.25 and result.tv_term == 1.0 and result.empirical_error == 0.0
    assert result.to_json_dict() == {
        "objective": 0.25, "empirical_error": 0.0, "tv_term": 1.0, "lam": 0.25,
        "cuts": 1, "levels": 2, "phases": 1, "pinned": 0,
    }


def test_zero_edge_graph_repeated_labels():
    g = validate_graph([], [], 5)
    with pytest.warns(UserWarning, match="smallest label"):
        result = solve_exact(g, obs_of((0, 2, 3), [3.0, -1.0, 3.0]), 1.0)
    assert result.x_hat.tolist() == [3.0, -1.0, -1.0, 3.0, -1.0]
    assert result.objective == 0.0 and result.levels == 2


def test_single_label_needs_no_cut(path4):
    result = solve_exact(path4, obs_of((1, 3), [2.5, 2.5]), 1.0)
    assert result.x_hat.tolist() == [2.5] * 4 and result.cuts == 0 and result.levels == 1


def test_disconnected_graph_warns_and_pins_unsampled_component():
    g = validate_graph([(0, 1), (2, 3)], [1.0, 1.0], 4)
    with pytest.warns(UserWarning, match="disconnected"):
        result = solve_exact(g, obs_of((0, 1), [4.0, 6.0]), 0.5)
    assert result.x_hat.tolist() == [4.0, 6.0, 4.0, 4.0]


def test_connected_graph_does_not_warn(path4):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_exact(path4, obs_of((0, 3), [0.0, 3.0]), 0.5)


def test_deterministic():
    g = validate_graph([(0, 1), (1, 2), (0, 2), (2, 3)], [1.0, 0.5, 2.0, 1e-3], 4)
    obs = obs_of((0, 1, 3), [1.0, -2.0, 0.5])
    first = solve_exact(g, obs, 1.0)
    again = solve_exact(g, obs, 1.0)
    assert first.x_hat.tobytes() == again.x_hat.tobytes() and first.cuts == again.cuts


@pytest.mark.parametrize("lam", [-0.1, -np.inf, np.inf, np.nan, "0.1", None, True])
def test_rejects_bad_lam(path2, lam):
    # SolverConfig's rule: a config error, not numpy's TypeError on a string or None
    with pytest.raises(InvalidConfigError, match="lam"):
        solve_exact(path2, obs_of((0,), [1.0]), lam)
    with pytest.raises(InvalidConfigError, match="lam"):
        SolverConfig(lam=lam)


def test_rejects_lam_times_weight_beyond_float(path4):
    g = validate_graph([(0, 1), (1, 2), (2, 3)], [1.0, 2.0, 2.0], 4)
    with pytest.raises(InvalidConfigError, match=r"not finite on edge \(1, 2\)"):
        solve_exact(g, obs_of((0, 3), [0.0, 1.0]), 1e308)
    assert solve_exact(path4, obs_of((0, 3), [0.0, 1.0]), 1e308).x_hat.tolist() == [0.0] * 4


def test_rejects_observed_node_outside_graph(path2):
    with pytest.raises(DimensionMismatchError):
        solve_exact(path2, obs_of((0, 2), [1.0, 0.0]), 0.5)
    with pytest.raises(NodeOutOfRangeError):
        solve_exact(path2, obs_of((-1, 0), [1.0, 0.0]), 0.5)


@pytest.mark.parametrize("lam, obs, message", [
    ("-1", "0 1.0\n", "lam"), ("nan", "0 1.0\n", "lam"), ("inf", "0 1.0\n", "lam"),
    ("1", "0 1.0\n2 0.0\n", "outside the graph"),
    ("1e308", "0 1.0\n", "not finite on edge (0, 1)"),
])
def test_cli_solve_rejects_bad_input(tmp_path, capsys, lam, obs, message):
    (tmp_path / "g.txt").write_text("N 2\n0 1 2.0\n")
    (tmp_path / "obs.txt").write_text(obs)
    code = cli.main(["solve", "--graph", str(tmp_path / "g.txt"),
                     "--observations", str(tmp_path / "obs.txt"), "--lam", lam,
                     "--out", str(tmp_path / "x.txt"), "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists() and not (tmp_path / "r.json").exists()


@pytest.fixture(scope="module")
def readme_regime_solves():
    """ADMM's solves in six trials of the README regime (lam 0.05, sigma 0.1)."""
    solves = []
    solve = experiments.solve_admm

    def capture(g, obs, cfg):
        result = solve(g, obs, cfg)
        solves.append((g, obs, cfg.lam, result))
        return result

    experiments.solve_admm = capture
    try:
        cfg = experiments.ExperimentConfig(noise="gaussian", sigma=0.1, lam=0.05, master_seed=11)
        for trial in range(6):
            experiments.run_trial(cfg, trial)
    finally:
        experiments.solve_admm = solve
    return solves


def test_admm_within_criterion_3_of_exact(readme_regime_solves):
    assert len(readme_regime_solves) == 12
    for g, obs, lam, admm in readme_regime_solves:
        assert lam == 0.05 and admm.converged
        exact = solve_exact(g, obs, lam)
        assert exact.objective <= admm.objective + 1e-12 * (1.0 + exact.objective)
        assert admm.objective - exact.objective <= 1e-4 * (1.0 + exact.objective)
