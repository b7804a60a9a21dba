"""``solve_exact`` against the loop-built solver it replaced (``exact_reference``):
the same x_hat bytes, levels, objective and terms, and no more cuts. ``solve_exact``
pins the samples that lam * W cannot move, which the reference does not; with none
pinned, the cuts are the same too. ``phases`` differ: each cut of ``solve_exact``
starts from its parent cut's flow, and each of the reference's starts from zero, so
the at-scale counts are pinned on their own."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import exact_reference
from test_dinic import noisy_observations, preset
from test_exact import LAMS, instances, obs_of
from netlasso.generate import PlantedPartitionConfig, generate_planted_partition
from netlasso.graphs import validate_graph
from netlasso.sampling import sample_boundary_aware
from netlasso.solver import solve_exact


def assert_same_solve(g, obs, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = solve_exact(g, obs, lam)
        reference = exact_reference.solve_exact(g, obs, lam)
    assert result.x_hat.tobytes() == reference.x_hat.tobytes()
    mine, theirs = result.to_json_dict(), reference.to_json_dict()
    pinned, cuts, phases = (mine.pop(k) for k in ("pinned", "cuts", "phases"))
    their_pinned, their_cuts, their_phases = (theirs.pop(k) for k in ("pinned", "cuts", "phases"))
    # pinned samples join no group, so a group of nothing else takes no cut
    assert their_pinned == 0 and cuts <= their_cuts
    if pinned == 0:
        # the flow stays zero, and both solvers run the same cuts, until the first phase
        assert cuts == their_cuts and (phases > 0) == (their_phases > 0)
    assert mine == theirs
    return result


@settings(max_examples=200, deadline=None)
@given(instances())
def test_matches_reference_on_small_instances(inst):
    assert_same_solve(*inst)


@st.composite
def unit_weight_instances(draw, max_nodes=9):
    """Unit weights at lam 1/4, 1/2 or 1, so a sample's load lam * degree lands
    on exactly 1 at degree 4, 2 or 1, the edge of the pinning rule."""
    n = draw(st.integers(1, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    nodes = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    y = [draw(st.sampled_from([-1.5, 0.0, 0.25, 2.0])) for _ in nodes]
    g = validate_graph(edges, [1.0] * len(edges), n)
    return g, obs_of(nodes, y), draw(st.sampled_from([0.25, 0.5, 1.0]))


@settings(max_examples=300, deadline=None)
@given(unit_weight_instances())
def test_pins_samples_loaded_below_one(inst):
    g, obs, lam = inst
    result = assert_same_solve(g, obs, lam)
    degree = np.bincount(np.concatenate(g.endpoint_arrays()), minlength=g.node_count)
    assert result.pinned == sum(lam * degree[i] < 1.0 for i in obs.nodes)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("lam", LAMS)
def test_matches_reference_on_preset(seed, lam):
    g, partition, nodes = preset(seed)
    assert_same_solve(g, noisy_observations(g, partition, nodes, seed), lam)


# (cuts, phases, pinned) by (clusters, seed), with the samples that lam * W cannot
# move pinned; with none pinned, 99 cuts at N=1e3 and 999 at N=1e4, and phases
# 145, 142, 151, 143 and 1382 labelled from the excess; labelled toward the
# deficits: 147, 136, 151, 143 and 1404; from zero flow at every cut as well:
# 163, 163, 157, 154 and 1554
PINS = {
    (10, 21): (52, 79, 97), (10, 22): (45, 85, 98), (10, 23): (46, 86, 95),
    (10, 24): (40, 81, 99), (100, 21): (445, 721, 992),
}


@pytest.mark.parametrize(
    "clusters,p_out,seed",
    [(10, 5e-4, 21), (10, 5e-4, 22), (10, 5e-4, 23), (10, 5e-4, 24), (100, 2e-5, 21)],
)
def test_matches_reference_at_scale(clusters, p_out, seed):
    # the N=1e3 rung of cli-1e3 and the N=1e4 rung of the CI's LP check
    g, partition = generate_planted_partition(
        PlantedPartitionConfig((100,) * clusters, 0.1, p_out, 1.0, seed)
    )
    nodes = sample_boundary_aware(g, partition, clusters * 10)
    result = assert_same_solve(g, noisy_observations(g, partition, nodes, seed), 0.05)
    assert (result.cuts, result.phases, result.pinned) == PINS[clusters, seed]
