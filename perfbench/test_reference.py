"""Checks of the benchmark's own references against netlasso's exact oracle.

    python3 -m pytest perfbench/test_reference.py
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from netlasso.graphs import Observations, validate_graph  # noqa: E402
from netlasso.solver import objective, solve_oracle  # noqa: E402

import reference  # noqa: E402


def _tiny_instance(rng):
    n = int(rng.integers(2, 8))
    edges = {(int(rng.integers(0, v)), v): float(rng.uniform(0.5, 2.0)) for v in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.setdefault((i, j), float(rng.uniform(0.5, 2.0)))
    keys = sorted(edges)
    g = validate_graph(keys, [edges[e] for e in keys], n)
    nodes = tuple(sorted(rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False)))
    y = rng.normal(0.0, 1.0, size=len(nodes)).round(3)
    obs = Observations(nodes=nodes, y=y, eps=np.zeros(len(nodes)))
    return g, obs, float(rng.choice([0.05, 0.3, 1.0, 3.0]))


@pytest.mark.parametrize("seed", range(60))
def test_lp_optimum_matches_oracle(seed):
    g, obs, lam = _tiny_instance(np.random.default_rng(seed))
    expected, _ = solve_oracle(g, obs, lam)
    got = reference.l1tv_lp_optimum(g.node_count, g.edges, g.weights, obs.nodes, obs.y, lam)
    assert abs(got - expected) <= 1e-7 * (1.0 + expected)


def test_objective_matches_solver_objective():
    rng = np.random.default_rng(7)
    g, obs, lam = _tiny_instance(rng)
    x = rng.normal(size=g.node_count)
    got = reference.l1tv_objective(g.edges, g.weights, obs.nodes, obs.y, lam, x)
    assert got == pytest.approx(objective(g, x, obs, lam), rel=1e-12)


def test_connectivity_violations():
    edges = [(0, 1), (1, 2), (2, 3)]
    assert reference.connectivity_violations(4, edges, [{0, 1}, {2, 3}]) == []
    assert reference.connectivity_violations(4, edges, [{0, 2}, {1, 3}]) == [
        "cluster 0 is disconnected",
        "cluster 1 is disconnected",
    ]
    assert reference.connectivity_violations(4, [(0, 1)], [{0, 1}, {2, 3}]) == [
        "graph is disconnected",
        "cluster 1 is disconnected",
    ]
