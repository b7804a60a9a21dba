"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s; the
assertion message carries the same information on failure). Random content
is seeded, so every run checks the identical instances.
"""

import time

import numpy as np
import pytest

from conftest import random_connected_graph
from ncc_reference import reference_verdict
from netlasso.certify import NccQuery, check_support_condition, check_ncc, recovery_error_bound, verify_ncc_witnesses
from netlasso.errors import DisconnectedAfterRetriesError
from netlasso.experiments import ExperimentConfig, run_experiment, summarize
from netlasso.flow import (
    DemandSpec,
    feasible_flow,
    max_flow,
    verify_cut_certificate,
    verify_demand_witness,
    verify_max_flow_assignment,
)
from netlasso.generate import (
    PlantedPartitionConfig,
    generate_planted_partition,
    paper_like_config,
)
from netlasso.graphs import (
    Observations,
    Partition,
    boundary,
    clustered_signal,
    connected_components,
    tv,
    tv_restricted,
    validate_graph,
)
from netlasso.sampling import sample_boundary_aware
from netlasso.solver import SolverConfig, solve_admm, solve_oracle
from test_flow import brute_force_min_cut, random_network, scipy_max_flow_value


def report(criterion: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert passed, line


def two_cluster_instance():
    g = validate_graph([(0, 1), (1, 2), (2, 3)], [4.0, 1.0, 4.0], 4)
    partition = Partition((frozenset({0, 1}), frozenset({2, 3})))
    return g, partition, (0, 3)


def test_criterion_1_noiseless_exact_recovery():
    """Certified instance, zero noise: the solver recovers the signal exactly."""
    t0 = time.perf_counter()
    g, partition, samples = two_cluster_instance()
    cert = check_ncc(NccQuery(g, partition, samples, K=4.0, L=4.0))
    assert cert.verdict == "holds"
    x_true = clustered_signal(partition, [1.0, 2.0])
    obs = Observations(nodes=samples, y=x_true[list(samples)], eps=np.zeros(2))
    result = solve_admm(
        g, obs, SolverConfig(lam=1.0 / 4.0, eps_abs=1e-10, eps_rel=1e-9)
    )
    elapsed = time.perf_counter() - t0
    max_dev = float(np.max(np.abs(result.x_hat - x_true)))
    tv_err = tv(g, result.x_hat - x_true)
    report(
        "criterion 1 (noiseless exact recovery)",
        max_dev <= 1e-6 and tv_err <= 1e-6 and elapsed < 1.0,
        f"max deviation {max_dev:.2e} <= 1e-6, tv error {tv_err:.2e} <= 1e-6, "
        f"{elapsed:.2f}s < 1s",
    )


def reweight_for_certificate(g, partition, samples, L=2.0, heavy_weight=20.0):
    """Reweight sampled-adjacent edges so the sufficient condition certifies at L.

    One sampled-incident boundary edge is upweighted so K = L * max boundary
    weight is large (and lam = 1/K small enough that sampling fidelity wins);
    every boundary edge then gets one sampled in-cluster support edge raised
    to L times its weight.
    """
    lab = partition.labels
    bnd = boundary(g, partition)
    sampled = set(samples)
    new_w = {e: float(g.weights[k]) for k, e in enumerate(g.edges)}
    heavy_edge = next((e for e in bnd if e[0] in sampled or e[1] in sampled), bnd[0])
    new_w[heavy_edge] = heavy_weight
    for e in bnd:
        wb = new_w[e]
        for u in e:
            cands = [
                (v, k)
                for v, k in g.neighbors(u)
                if v in sampled and lab[v] == lab[u]
            ]
            if not cands:
                return None
            v, k = max(cands, key=lambda t: (float(g.weights[t[1]]), -t[0]))
            key = (min(u, v), max(u, v))
            new_w[key] = max(new_w[key], L * wb)
    edges = sorted(new_w)
    return validate_graph(edges, [new_w[e] for e in edges], g.node_count)


def test_criterion_2_error_bound_never_violated():
    """100 noisy trials with certified (K, L): tv error within the bound."""
    t0 = time.perf_counter()
    L = 2.0
    worst_ratio = 0.0
    for trial in range(100):
        sigma = 0.01 if trial % 2 == 0 else 0.1
        ss = np.random.SeedSequence(entropy=20260810, spawn_key=(trial,))
        seed_graph, seed_noise = (int(s) for s in ss.generate_state(2, dtype=np.uint64))
        g, partition = generate_planted_partition(paper_like_config(seed=seed_graph))
        x_true = clustered_signal(partition, [1.0, 2.0, 3.0, 4.0])
        samples = sample_boundary_aware(g, partition, g.node_count // 2)
        g2 = reweight_for_certificate(g, partition, samples, L=L)
        assert g2 is not None
        lem = check_support_condition(g2, partition, samples, L)
        assert lem.satisfied and lem.K and lem.K > 0
        rng = np.random.default_rng(seed_noise)
        eps_full = rng.laplace(0.0, sigma, size=g.node_count)
        idx = list(samples)
        y = x_true[idx] + eps_full[idx]
        obs = Observations(nodes=samples, y=y, eps=y - x_true[idx])
        result = solve_admm(g2, obs, SolverConfig(lam=1.0 / lem.K))
        tv_err = tv(g2, result.x_hat - x_true)
        bound = recovery_error_bound(lem.K, L, obs.noise_l1())
        assert tv_err <= bound + 1e-6, f"trial {trial}: {tv_err} > {bound}"
        worst_ratio = max(worst_ratio, tv_err / bound if bound > 0 else 0.0)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2 (error bound never violated)",
        elapsed < 60.0,
        f"100/100 trials within bound (worst ratio {worst_ratio:.3f}), "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_3_solver_oracle_equivalence():
    """ADMM objective matches exhaustive enumeration on 200 tiny instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    lams = (0.1, 0.5, 1.0, 2.0)
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(2, 7))
        g = random_connected_graph(rng, n, w_lo=0.5, w_hi=2.0)
        m = int(rng.integers(1, min(3, n) + 1))
        nodes = tuple(sorted(rng.choice(n, size=m, replace=False).tolist()))
        y = rng.normal(size=m) * 2.0
        obs = Observations(nodes=nodes, y=y, eps=np.zeros(m))
        lam = lams[i % 4]
        result = solve_admm(g, obs, SolverConfig(lam=lam, eps_abs=1e-8, eps_rel=1e-7))
        optimum, _ = solve_oracle(g, obs, lam)
        gap = abs(result.objective - optimum)
        tol = 1e-4 * (1.0 + optimum)
        assert gap <= tol, f"instance {i}: gap {gap} > {tol}"
        worst = max(worst, gap / tol)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3 (solver-oracle equivalence)",
        elapsed < 30.0,
        f"200/200 within 1e-4*(1+opt) (worst fraction {worst:.3f}), "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_4_flow_correctness():
    """Max flow equals enumerated min cut and scipy's value; feasibility
    witnesses re-verify."""
    rng = np.random.default_rng(41)
    for i in range(100):
        net = random_network(rng)
        s, t = 0, net.node_count - 1
        value, assignment = max_flow(net, s, t)
        assert assignment.value_scaled == brute_force_min_cut(net, s, t, scale=1)
        assert assignment.value_scaled == scipy_max_flow_value(net, s, t, scale=1)
        assert verify_max_flow_assignment(net, s, t, assignment)
    witnesses = cuts = 0
    for i in range(120):
        n = int(rng.integers(2, 8))
        g = random_connected_graph(rng, n, w_lo=1.0, w_hi=4.0)
        g = validate_graph(g.edges, np.round(g.weights), n)
        injections = {}
        total = 0
        for node in range(n - 1):
            v = int(rng.integers(-2, 3))
            if v:
                injections[node] = float(v)
                total += v
        injections[n - 1] = float(-total)
        slack = frozenset(
            int(v) for v in rng.choice(n, size=int(rng.integers(0, n)), replace=False)
        )
        spec = DemandSpec(
            injections=injections, slack_nodes=slack, slack_bound=float(rng.integers(0, 3))
        )
        res = feasible_flow(g, [], spec)
        if res.feasible:
            assert verify_demand_witness(g, [], spec, res.witness)
            witnesses += 1
        else:
            assert verify_cut_certificate(g, [], spec, res.cut)
            cuts += 1
    report(
        "criterion 4 (flow correctness)",
        witnesses > 0 and cuts > 0,
        f"100/100 max-flow values equal brute-force min cuts and scipy's values; "
        f"{witnesses} witnesses and {cuts} cut certificates re-verified",
    )


def test_criterion_5_support_condition_implies_ncc():
    """Sufficient condition implies the compatibility verdict.

    Each verdict must also equal the reference that enumerates every
    boundary orientation, and a ``holds`` must carry a flow that re-verifies.

    Instances are drawn so every cluster holds at least as many samples as
    boundary edges: the all-inward boundary orientation concentrates
    |boundary| * L * W units inside one cluster while sampled nodes absorb
    at most K = L * max W each, so lighter sampling provably breaks the
    implication (see the cut counterexample in the flow tests).
    """
    t0 = time.perf_counter()
    L = 1.0
    accepted = 0
    held = 0
    seed = 0
    while accepted < 50:
        seed += 1
        assert seed < 1000, "instance generation exhausted"
        cfg = PlantedPartitionConfig(sizes=(10, 12), p_in=0.9, p_out=0.02, seed=seed)
        try:
            g, partition = generate_planted_partition(cfg)
        except DisconnectedAfterRetriesError:
            continue
        bnd = boundary(g, partition)
        if not 1 <= len(bnd) <= 12:
            continue
        samples = sample_boundary_aware(g, partition, (g.node_count * 4) // 5)
        sampled = set(samples)
        lab = partition.labels
        if any(
            len(sampled & cluster) < sum(1 for i, j in bnd if lab[i] == c or lab[j] == c)
            for c, cluster in enumerate(partition.clusters)
        ):
            continue
        support = check_support_condition(g, partition, samples, L)
        if not support.satisfied or not support.K:
            continue
        accepted += 1
        query = NccQuery(g, partition, samples, K=support.K, L=L)
        cert = check_ncc(query)
        assert cert.verdict == reference_verdict(query)[0], f"seed {seed}"
        if cert.verdict == "holds" and verify_ncc_witnesses(query, cert):
            held += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 5 (sufficient condition implies compatibility)",
        held == 50,
        f"{held}/50 certified instances hold, as the orientation enumeration does, {elapsed:.1f}s",
    )


def test_criterion_6_boundary_sampling_beats_uniform():
    """Qualitative reproduction: boundary-aware sampling wins on the preset."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(lam=0.05, trials=20, master_seed=1)
    trials = run_experiment(cfg)
    summary = summarize(trials)
    elapsed = time.perf_counter() - t0
    wins = summary["boundary_wins_tv"]
    med_b = summary["median_mad_boundary"]
    med_u = summary["median_mad_uniform"]
    report(
        "criterion 6 (boundary-aware sampling beats uniform)",
        wins >= 18 and med_b <= 0.5 * med_u and elapsed < 60.0,
        f"strictly lower tv error in {wins}/20 trials (need >= 18); "
        f"median MAD {med_b:.2e} <= half of {med_u:.2e}; {elapsed:.1f}s < 60s",
    )


def test_criterion_7_invariant_suites():
    """Property sweeps: TV norm laws, boundary identity, monotonicities."""
    rng = np.random.default_rng(71)
    # TV: homogeneity, triangle inequality, zero iff component-constant
    for _ in range(40):
        n = int(rng.integers(2, 10))
        g = random_connected_graph(rng, n)
        x, y = rng.normal(size=n), rng.normal(size=n)
        c = float(rng.normal())
        assert abs(tv(g, c * x) - abs(c) * tv(g, x)) <= 1e-10 * (1 + tv(g, x))
        assert tv(g, x + y) <= tv(g, x) + tv(g, y) + 1e-10
        constant = np.full(n, float(rng.normal()))
        assert tv(g, constant) == 0.0
    for comps in range(5):
        g1 = random_connected_graph(rng, 4)
        edges = list(g1.edges) + [(4, 5)]
        g = validate_graph(edges, list(g1.weights) + [1.0], 6)
        x = np.zeros(6)
        for value, comp in zip(rng.normal(size=2), connected_components(g)):
            for node in comp:
                x[node] = value
        assert tv(g, x) == 0.0

    # clustered signals: all variation sits on the boundary
    for _ in range(25):
        n = int(rng.integers(4, 10))
        g = random_connected_graph(rng, n)
        labels = rng.integers(0, 3, size=n)
        labels[:3] = [0, 1, 2]
        partition = Partition.from_labels(labels)
        x = clustered_signal(partition, rng.normal(size=partition.cluster_count))
        bnd = boundary(g, partition)
        assert abs(tv(g, x) - tv_restricted(g, x, bnd)) <= 1e-12

    # compatibility verdict monotone in K
    checked = 0
    for seed in range(40):
        cfg = PlantedPartitionConfig(sizes=(4, 5), p_in=0.9, p_out=0.08, seed=seed)
        try:
            g, partition = generate_planted_partition(cfg)
        except DisconnectedAfterRetriesError:
            continue
        if len(boundary(g, partition)) > 6:
            continue
        samples = tuple(sorted(rng.choice(g.node_count, size=5, replace=False).tolist()))
        base = float(rng.uniform(0.5, 2.0))
        if check_ncc(NccQuery(g, partition, samples, K=base, L=1.0)).verdict == "holds":
            checked += 1
            for factor in (2.0, 8.0):
                verdict = check_ncc(
                    NccQuery(g, partition, samples, K=base * factor, L=1.0)
                ).verdict
                assert verdict == "holds"
    assert checked >= 3

    # tv term of the solution non-increasing in lam (exact via the oracle)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        g = random_connected_graph(rng, n)
        m = int(rng.integers(1, min(3, n) + 1))
        nodes = tuple(sorted(rng.choice(n, size=m, replace=False).tolist()))
        obs = Observations(nodes=nodes, y=rng.normal(size=m), eps=np.zeros(m))
        prev = None
        for lam in (0.1, 0.5, 1.0, 2.0):
            admm_tv = solve_admm(
                g, obs, SolverConfig(lam=lam, eps_abs=1e-8, eps_rel=1e-7)
            ).tv_term
            _, x_opt = solve_oracle(g, obs, lam)
            exact_tv = tv(g, x_opt)
            if prev is not None:
                assert exact_tv <= prev[0] + 1e-12
                assert admm_tv <= prev[1] + 1e-5 * (1 + prev[1])
            prev = (exact_tv, admm_tv)
    report(
        "criterion 7 (invariant suites)",
        True,
        "TV norm laws, boundary identity, K-monotonicity and "
        "lam-monotonicity all hold on seeded random instances",
    )
