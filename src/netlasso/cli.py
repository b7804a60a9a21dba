"""Command-line interface.

Subcommands: generate, sample, certify, solve, experiment, verify-bound.
Exit codes: 0 success, 1 usage/config error, 2 infeasible or failed
certificate, 3 ADMM non-convergence in ``experiment`` (``solve`` is exact).
The default output directory is taken from $NETLASSO_OUT_DIR when set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import fileio
from .certify import NccQuery, check_ncc, verify_error_bound
from .errors import NetlassoError
from .experiments import SOLVER_SETTINGS, ExperimentConfig, run_experiment, summarize, write_outputs
from .generate import (
    PlantedPartitionConfig,
    generate_planted_partition,
    paper_like_config,
)
from .graphs import boundary_mask, clustered_signal, tv
from .sampling import sample_boundary_aware, sample_uniform
from .solver import SolverConfig, solve_exact
from .solver import solve_admm  # noqa: F401  unused here; perfbench/tracing.py rebinds it

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE = 2
EXIT_NONCONVERGENCE = 3


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cluster sizes {text!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("empty cluster sizes")
    return sizes


def _parse_lam(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"lam must be a number or 'auto', got {text!r}")


# The custom generator's flags and defaults; the paper-like preset fixes them all.
_CUSTOM_FIELDS = {"sizes": None, "p_in": 1.0, "p_out": 0.2, "weight": 1.0}


def _generator_config(args, seed: int) -> PlantedPartitionConfig:
    given = {k: getattr(args, k) for k in _CUSTOM_FIELDS if getattr(args, k) is not None}
    if args.preset == "paper-like":
        if given:
            flag = "--" + next(iter(given)).replace("_", "-")
            raise NetlassoError(f"{flag} needs --preset custom: the paper-like preset fixes it")
        return paper_like_config(seed=seed)
    if "sizes" not in given:
        raise NetlassoError("custom generation requires --sizes")
    return PlantedPartitionConfig(**{**_CUSTOM_FIELDS, **given}, seed=seed)


def _add_generator_args(sub, with_seed=True):
    sub.add_argument("--preset", choices=["paper-like", "custom"], default="paper-like")
    sub.add_argument("--sizes", type=_parse_sizes, help="e.g. 7,7,8,8")
    for name in ("p_in", "p_out", "weight"):
        sub.add_argument("--" + name.replace("_", "-"), type=float)
    if with_seed:
        sub.add_argument("--seed", type=int, default=0)


def cmd_generate(args) -> int:
    cfg = _generator_config(args, args.seed)
    g, partition = generate_planted_partition(cfg)
    coeffs = tuple(float(c + 1) for c in range(partition.cluster_count))
    signal = clustered_signal(partition, coeffs)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    fileio.write_graph(os.path.join(out, "graph.txt"), g)
    fileio.write_partition(os.path.join(out, "partition.txt"), partition)
    fileio.write_value_map(os.path.join(out, "signal.txt"), signal)
    sizes = [len(c) for c in partition.clusters]
    print(
        f"generated graph: N={g.node_count} edges={g.edge_count} "
        f"clusters={sizes} boundary={int(boundary_mask(g, partition).sum())} -> {out}"
    )
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.strategy == "boundary" and args.partition is None:
        raise NetlassoError("--strategy boundary requires --partition")
    if args.strategy == "boundary" and args.seed is not None:
        raise NetlassoError("--seed needs --strategy uniform; boundary sampling would ignore it")
    if args.strategy == "uniform" and args.partition is not None:
        raise NetlassoError(
            "--partition needs --strategy boundary; uniform sampling would ignore it"
        )
    g = fileio.read_graph(args.graph)
    if args.strategy == "boundary":
        partition = fileio.read_partition(args.partition, g)
        nodes = sample_boundary_aware(g, partition, args.budget)
    else:
        nodes = sample_uniform(g, args.budget, seed=args.seed or 0)
    fileio.write_node_set(args.out, nodes)
    print(f"sampled {len(nodes)} nodes ({args.strategy}) -> {args.out}")
    return EXIT_OK


def cmd_certify(args) -> int:
    g = fileio.read_graph(args.graph)
    partition = fileio.read_partition(args.partition, g)
    samples = fileio.read_node_set(args.samples)
    cert = check_ncc(NccQuery(g, partition, samples, K=args.K, L=args.L))
    print(f"compatibility condition at K={args.K}, L={args.L}: {cert.verdict}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            # one line: a report can hold 1e5 flows
            json.dump(cert.to_json_dict(), fh, separators=(",", ":"))
        print(f"report -> {args.report}")
    return EXIT_OK if cert.verdict == "holds" else EXIT_CERTIFICATE


def cmd_solve(args) -> int:
    g = fileio.read_graph(args.graph)
    x_true = fileio.read_signal(args.true_signal, g) if args.true_signal else None
    obs = fileio.read_observations(args.observations, x_true)
    result = solve_exact(g, obs, args.lam)
    fileio.write_value_map(args.out, result.x_hat)
    report = result.to_json_dict()
    if x_true is not None:
        report["tv_error_vs_true"] = tv(g, result.x_hat - x_true)
        report["mad_vs_true"] = float(np.mean(np.abs(result.x_hat - x_true)))
    print(json.dumps(report, indent=2))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    print(f"recovered signal -> {args.out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    if args.noise == "none" and args.sigma > 0.0:
        raise NetlassoError(
            "--sigma needs --noise gaussian or laplace; --noise none would ignore it"
        )
    if args.noise != "none" and args.sigma == 0.0:
        raise NetlassoError(f"--noise {args.noise} needs --sigma > 0")
    cfg = ExperimentConfig(
        generator=_generator_config(args, seed=0),  # run_trial sets each trial's seed
        budget=args.budget,
        noise=args.noise,
        sigma=args.sigma,
        lam=args.lam,
        cert_l=args.cert_L,
        trials=args.trials,
        master_seed=args.master_seed,
        solver={name: getattr(args, name) for name in SOLVER_SETTINGS},
    )
    trials = run_experiment(cfg)
    paths = write_outputs(args.out_dir, trials, plot_trial=args.plot_trial)
    summary = summarize(trials)
    print(json.dumps(summary, indent=2))
    for name, path in paths.items():
        print(f"{name} -> {path}")
    return EXIT_OK if summary["all_converged"] else EXIT_NONCONVERGENCE


def cmd_verify_bound(args) -> int:
    g = fileio.read_graph(args.graph)
    x_true = fileio.read_signal(args.true_signal, g)
    x_hat = fileio.read_signal(args.recovered, g)
    obs = fileio.read_observations(args.observations, x_true)
    report = verify_error_bound(
        g, x_true, x_hat, obs, K=args.K, L=args.L, tolerance=args.tolerance
    )
    print(json.dumps(report.to_json_dict(), indent=2))
    return EXIT_OK if report.passed else EXIT_CERTIFICATE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``main`` fills in ``--out-dir``."""
    parser = argparse.ArgumentParser(
        prog="netlasso",
        description=(
            "Learn clustered graph signals from few noisy samples by "
            "TV-regularized l1 regression, and certify recoverability of a "
            "(sampling set, partition) pair via flow feasibility."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic clustered graph")
    _add_generator_args(p_gen)
    p_gen.add_argument("--out-dir")
    p_gen.set_defaults(func=cmd_generate)

    p_sample = sub.add_parser("sample", help="construct a sampling set")
    p_sample.add_argument("--graph", required=True)
    p_sample.add_argument("--partition")
    p_sample.add_argument("--strategy", choices=["boundary", "uniform"], required=True)
    p_sample.add_argument("--budget", type=int, required=True)
    p_sample.add_argument("--seed", type=int, help="uniform only; default 0")
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(func=cmd_sample)

    p_cert = sub.add_parser("certify", help="check the compatibility condition")
    p_cert.add_argument("--graph", required=True)
    p_cert.add_argument("--partition", required=True)
    p_cert.add_argument("--samples", required=True)
    p_cert.add_argument("--K", type=float, required=True)
    p_cert.add_argument("--L", type=float, required=True)
    p_cert.add_argument("--report")
    p_cert.set_defaults(func=cmd_certify)

    p_solve = sub.add_parser("solve", help="recover a signal from observations, exactly")
    p_solve.add_argument("--graph", required=True)
    p_solve.add_argument("--observations", required=True)
    p_solve.add_argument("--true-signal")
    p_solve.add_argument("--lam", type=float, required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--report")
    p_solve.set_defaults(func=cmd_solve)

    p_exp = sub.add_parser("experiment", help="boundary vs uniform sampling comparison")
    _add_generator_args(p_exp, with_seed=False)
    p_exp.add_argument("--budget", type=int, default=None, help="default: N // 2")
    p_exp.add_argument("--noise", choices=["none", "gaussian", "laplace"], default="none")
    p_exp.add_argument("--sigma", type=float, default=0.0)
    p_exp.add_argument("--lam", type=_parse_lam, default="auto")
    p_exp.add_argument("--cert-L", type=float, default=1.0)
    p_exp.add_argument("--trials", type=int, default=1)
    p_exp.add_argument("--master-seed", type=int, default=0)
    p_exp.add_argument("--plot-trial", type=int, default=0)
    for name in SOLVER_SETTINGS:  # one flag each, with SolverConfig's type and default
        default = SolverConfig.__dataclass_fields__[name].default
        p_exp.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    p_exp.add_argument("--out-dir")
    p_exp.set_defaults(func=cmd_experiment)

    p_vb = sub.add_parser("verify-bound", help="check a recovery against the error bound")
    p_vb.add_argument("--graph", required=True)
    p_vb.add_argument("--true-signal", required=True)
    p_vb.add_argument("--recovered", required=True)
    p_vb.add_argument("--observations", required=True)
    p_vb.add_argument("--K", type=float, required=True)
    p_vb.add_argument("--L", type=float, required=True)
    p_vb.add_argument("--tolerance", type=float, default=1e-6)
    p_vb.set_defaults(func=cmd_verify_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EXIT_USAGE if exc.code else EXIT_OK
    if getattr(args, "out_dir", "") is None:
        args.out_dir = os.environ.get("NETLASSO_OUT_DIR", ".")
    try:
        return args.func(args)
    except NetlassoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
