"""``solve_exact`` against the loop-built solver it replaced (``exact_reference``):
the same x_hat bytes, cuts, levels, objective and terms. ``phases`` differ: each
cut of ``solve_exact`` starts from its parent cut's flow, and each of the
reference's starts from zero, so the at-scale counts are pinned on their own."""

import warnings

import pytest
from hypothesis import given, settings

import exact_reference
from test_dinic import noisy_observations, preset
from test_exact import LAMS, instances
from netlasso.generate import PlantedPartitionConfig, generate_planted_partition
from netlasso.sampling import sample_boundary_aware
from netlasso.solver import solve_exact


def assert_same_solve(g, obs, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = solve_exact(g, obs, lam)
        reference = exact_reference.solve_exact(g, obs, lam)
    assert result.x_hat.tobytes() == reference.x_hat.tobytes()
    mine, theirs = result.to_json_dict(), reference.to_json_dict()
    # the flow stays zero, and both solvers run the same cuts, until the first phase
    assert (mine.pop("phases") > 0) == (theirs.pop("phases") > 0)
    assert mine == theirs
    return result


@settings(max_examples=200, deadline=None)
@given(instances())
def test_matches_reference_on_small_instances(inst):
    assert_same_solve(*inst)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("lam", LAMS)
def test_matches_reference_on_preset(seed, lam):
    g, partition, nodes = preset(seed)
    assert_same_solve(g, noisy_observations(g, partition, nodes, seed), lam)


# phases by (clusters, seed), each phase labelled from the excess; labelled
# toward the deficits: 147, 136, 151, 143 and 1404; from zero flow at every cut
# as well: 163, 163, 157, 154 and 1554
PHASES = {(10, 21): 145, (10, 22): 142, (10, 23): 151, (10, 24): 143, (100, 21): 1382}


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
    assert result.phases == PHASES[clusters, seed]
