"""End-to-end experiment harness: generate, sample, observe, solve, report.

Each trial is reproducible from (master_seed, trial index) alone: per-trial
seeds for the graph, the noise field and the uniform sampler are derived
through numpy's SeedSequence spawning. The noise field is drawn once per
trial over all nodes, so both sampling strategies see identical noise at
shared nodes.

Outputs: a results CSV (one row per trial and strategy), a per-node signals
CSV, and a self-contained SVG plot comparing the true signal with both
recoveries for one trial. The CSV is the ground truth; the SVG embeds the
same numeric values.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .certify import check_support_condition, recovery_error_bound
from .errors import InvalidConfigError, _integer, _real, _seed
from .generate import (
    NoiseConfig,
    PlantedPartitionConfig,
    generate_planted_partition,
    noise_field,
    observe,
    paper_like_config,
)
from .graphs import Graph, Partition, boundary_mask, clustered_signal, tv
from .sampling import sample_boundary_aware, sample_uniform
from .solver import SolverConfig, SolverResult, solve_admm

STRATEGY_BOUNDARY = "boundary"
STRATEGY_UNIFORM = "uniform"
# The SolverConfig fields an experiment may override; lam is the experiment's own.
SOLVER_SETTINGS = ("rho", "eps_abs", "eps_rel", "max_iters")


@dataclass(frozen=True)
class ExperimentConfig:
    generator: PlantedPartitionConfig | None = None  # None -> paper-like preset
    budget: int | None = None  # None -> N // 2
    noise: str = "none"
    sigma: float = 0.0
    lam: float | str = "auto"
    cert_l: float = 1.0
    trials: int = 1
    master_seed: int = 0
    solver: dict = field(default_factory=dict)  # overrides of SOLVER_SETTINGS

    def __post_init__(self):
        if _integer(self.trials, "trial count") < 1:
            raise InvalidConfigError("trial count must be at least 1")
        _seed(self.master_seed, "master seed")
        if self.budget is not None and _integer(self.budget, "budget") < 1:
            raise InvalidConfigError("budget must be at least 1")
        NoiseConfig(self.noise, self.sigma)  # each trial builds it with its own seed
        cert_l = _real(self.cert_l, "cert_l")  # only lam='auto' uses it
        if not (0.0 < cert_l < np.inf if self.lam == "auto" else cert_l == 1.0):
            raise InvalidConfigError("cert_l must be 1.0 or, with lam='auto', finite and > 0")
        unknown = sorted(set(self.solver) - set(SOLVER_SETTINGS))
        if unknown:
            raise InvalidConfigError(f"unknown solver setting {unknown[0]!r}")
        # a number lam and the settings' values, checked before any trial runs
        SolverConfig(lam=0.0 if self.lam == "auto" else self.lam, **self.solver)


@dataclass(frozen=True)
class StrategyOutcome:
    strategy: str
    sample_nodes: tuple[int, ...]
    result: SolverResult
    tv_error: float
    mad: float
    noise_l1: float
    bound: float | None
    bound_ok: bool | None


@dataclass(frozen=True)
class TrialResult:
    trial: int
    graph: Graph
    partition: Partition
    x_true: np.ndarray
    budget: int
    lam: float
    cert_K: float | None
    cert_L: float | None
    outcomes: tuple[StrategyOutcome, StrategyOutcome]

    @property
    def converged(self) -> bool:
        return all(o.result.converged for o in self.outcomes)


def trial_seeds(master_seed: int, trial: int) -> tuple[int, int, int]:
    """Derived (graph, noise, uniform-sampler) seeds for one trial."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial,))
    a, b, c = ss.generate_state(3, dtype=np.uint64)
    return int(a), int(b), int(c)


def resolve_lambda(
    cfg: ExperimentConfig, g: Graph, partition: Partition, sample_nodes
) -> tuple[float, float | None, float | None]:
    """Return (lam, cert_K, cert_L); 'auto' derives lam = 1/K from a certificate."""
    if cfg.lam != "auto":
        return float(cfg.lam), None, None
    support = check_support_condition(g, partition, sample_nodes, cfg.cert_l)
    if not support.satisfied or not support.K:
        raise InvalidConfigError(
            "lam='auto' needs a certifiable (K, L): the sufficient condition "
            f"failed at L={cfg.cert_l} ({len(support.violations)} violated boundary "
            "edges); pass an explicit lam"
        )
    return 1.0 / support.K, support.K, support.L


def run_trial(cfg: ExperimentConfig, trial: int) -> TrialResult:
    seed_graph, seed_noise, seed_uniform = trial_seeds(cfg.master_seed, trial)
    gen_cfg = replace(cfg.generator or paper_like_config(), seed=seed_graph)
    g, partition = generate_planted_partition(gen_cfg)
    x_true = clustered_signal(partition, [float(c + 1) for c in range(partition.cluster_count)])
    budget = cfg.budget if cfg.budget is not None else g.node_count // 2

    m_boundary = sample_boundary_aware(g, partition, budget)
    m_uniform = sample_uniform(g, budget, seed=seed_uniform)
    eps_full = noise_field(
        g.node_count, NoiseConfig(distribution=cfg.noise, sigma=cfg.sigma, seed=seed_noise)
    )
    # one lam for both strategies; 'auto' certifies against the boundary-aware set
    lam, cert_k, cert_l = resolve_lambda(cfg, g, partition, m_boundary)
    solver_cfg = SolverConfig(lam=lam, **cfg.solver)

    outcomes = []
    for strategy, nodes in (
        (STRATEGY_BOUNDARY, m_boundary),
        (STRATEGY_UNIFORM, m_uniform),
    ):
        obs = observe(x_true, nodes, eps_full)
        result = solve_admm(g, obs, solver_cfg)
        tv_error = tv(g, result.x_hat - x_true)
        mad = float(np.mean(np.abs(result.x_hat - x_true)))
        bound = None
        bound_ok = None
        if cert_k is not None and cert_l is not None and cert_l > 1.0:
            bound = recovery_error_bound(cert_k, cert_l, obs.noise_l1())
            bound_ok = tv_error <= bound + 1e-6
        outcomes.append(
            StrategyOutcome(
                strategy=strategy,
                sample_nodes=nodes,
                result=result,
                tv_error=tv_error,
                mad=mad,
                noise_l1=obs.noise_l1(),
                bound=bound,
                bound_ok=bound_ok,
            )
        )
    return TrialResult(
        trial=trial,
        graph=g,
        partition=partition,
        x_true=x_true,
        budget=budget,
        lam=lam,
        cert_K=cert_k,
        cert_L=cert_l,
        outcomes=(outcomes[0], outcomes[1]),
    )


def run_experiment(cfg: ExperimentConfig) -> list[TrialResult]:
    return [run_trial(cfg, t) for t in range(cfg.trials)]


def results_rows(trials: list[TrialResult]) -> list[dict]:
    rows = []
    for tr in trials:
        for o in tr.outcomes:
            rows.append(
                {
                    "trial": tr.trial,
                    "strategy": o.strategy,
                    "nodes": tr.graph.node_count,
                    "edges": tr.graph.edge_count,
                    "boundary_edges": int(boundary_mask(tr.graph, tr.partition).sum()),
                    "budget": tr.budget,
                    "lam": repr(tr.lam),
                    "tv_error": repr(o.tv_error),
                    "mad": repr(o.mad),
                    "objective": repr(o.result.objective),
                    "empirical_error": repr(o.result.empirical_error),
                    "tv_term": repr(o.result.tv_term),
                    "iterations": o.result.iterations,
                    "converged": o.result.converged,
                    "noise_l1": repr(o.noise_l1),
                    "cert_K": "" if tr.cert_K is None else repr(tr.cert_K),
                    "cert_L": "" if tr.cert_L is None else repr(tr.cert_L),
                    "bound": "" if o.bound is None else repr(o.bound),
                    "bound_ok": "" if o.bound_ok is None else o.bound_ok,
                }
            )
    return rows


def write_results_csv(path, trials: list[TrialResult]) -> None:
    """One row per trial and strategy; the header is the keys of the first
    row, so this needs at least one trial."""
    rows = results_rows(trials)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def write_signals_csv(path, trials: list[TrialResult]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "node", "x_true", "xhat_boundary", "xhat_uniform"])
        for tr in trials:
            xb = tr.outcomes[0].result.x_hat
            xu = tr.outcomes[1].result.x_hat
            for i in range(tr.graph.node_count):
                writer.writerow(
                    [tr.trial, i, repr(float(tr.x_true[i])), repr(float(xb[i])), repr(float(xu[i]))]
                )


SVG_SERIES = (
    ("true", "#555555", "true signal"),
    ("boundary", "#1f77b4", "boundary-aware recovery"),
    ("uniform", "#d62728", "uniform-random recovery"),
)


def write_recovery_svg(path, trial: TrialResult) -> None:
    """Per-node comparison plot: exactly one series per signal, values embedded.

    Every polyline carries its full-precision values in a data-values
    attribute so the plot can be reconciled against the CSV.
    """
    series = {
        "true": trial.x_true.tolist(),
        "boundary": trial.outcomes[0].result.x_hat.tolist(),
        "uniform": trial.outcomes[1].result.x_hat.tolist(),
    }
    n = trial.graph.node_count
    width, height, margin = 900, 420, 55
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    all_vals = [v for vals in series.values() for v in vals]
    lo, hi = min(all_vals), max(all_vals)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def sx(i):
        return margin + (plot_w * i / max(n - 1, 1))

    def sy(v):
        return margin + plot_h * (1.0 - (v - lo) / (hi - lo))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">node index (trial {trial.trial})</text>',
        f'<text x="16" y="{height / 2:.1f}" font-size="13" '
        f'transform="rotate(-90 16 {height / 2:.1f})" text-anchor="middle">signal value</text>',
    ]
    for pos, (key, color, label) in enumerate(SVG_SERIES):
        vals = series[key]
        pts = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(vals))
        data = ",".join(repr(v) for v in vals)
        lines.append(
            f'<polyline class="series series-{key}" fill="none" stroke="{color}" '
            f'stroke-width="{2.5 if key == "true" else 1.5}" points="{pts}" '
            f'data-values="{data}"/>'
        )
        ly = margin + 8 + 18 * pos
        lines.append(
            f'<line x1="{width - margin - 190}" y1="{ly}" x2="{width - margin - 160}" '
            f'y2="{ly}" stroke="{color}" stroke-width="3"/>'
        )
        lines.append(
            f'<text x="{width - margin - 152}" y="{ly + 4}" font-size="12">{label}</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_outputs(out_dir, trials: list[TrialResult], plot_trial: int = 0) -> dict[str, str]:
    if not 0 <= _integer(plot_trial, "plot trial") < len(trials):
        raise InvalidConfigError(f"plot trial {plot_trial} outside 0..{len(trials) - 1}")
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "results": os.path.join(out_dir, "results.csv"),
        "signals": os.path.join(out_dir, "signals.csv"),
        "plot": os.path.join(out_dir, "recovery.svg"),
    }
    write_results_csv(paths["results"], trials)
    write_signals_csv(paths["signals"], trials)
    write_recovery_svg(paths["plot"], trials[plot_trial])
    return paths


def summarize(trials: list[TrialResult]) -> dict:
    """Aggregate comparison of the two strategies across trials."""
    b_tv = [t.outcomes[0].tv_error for t in trials]
    u_tv = [t.outcomes[1].tv_error for t in trials]
    b_mad = [t.outcomes[0].mad for t in trials]
    u_mad = [t.outcomes[1].mad for t in trials]
    wins = sum(1 for b, u in zip(b_tv, u_tv) if b < u)
    return {
        "trials": len(trials),
        "boundary_wins_tv": wins,
        "mean_tv_error_boundary": float(np.mean(b_tv)),
        "mean_tv_error_uniform": float(np.mean(u_tv)),
        "median_mad_boundary": float(np.median(b_mad)),
        "median_mad_uniform": float(np.median(u_mad)),
        "all_converged": all(t.converged for t in trials),
    }
