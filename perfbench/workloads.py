"""The benchmark's four seeded workloads.

Each workload turns the run seed into inputs, drives netlasso through its
public functions or ``netlasso.cli.main`` one step at a time, and checks
every output against an independent reference right after the step, outside
the timed region. A step is the unit the run loop stops on; it holds one or
more ops (a trial, a query, a command or an instance), each with the work it
did and the reasons it failed its checks, if any.

Two kinds of check are kept apart. A failed op is a wrong or refused answer:
a solve above the LP optimum by more than the tolerance, a certificate that
does not re-verify, a command that exits non-zero. An integrity problem
means the run's numbers cannot be trusted at all: the generator broke its
connectivity contract, a sampling set is malformed, or a report is missing
rows. Only integrity problems make a run incorrect.

A workload may name known defects of netlasso: a slice and the causes its
ops fail by. Such failed ops still count in ``ok_share`` and
``failed_share``, but not in the result line's ``failed``, which counts
only failures nobody has accounted for. The same cause on another slice,
or any other cause on that slice, is an unexpected failure.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from netlasso import certify, cli, experiments, generate, sampling
from netlasso.errors import NetlassoError
from netlasso.flow import DemandSpec, scaled, verify_cut_certificate
from netlasso.graphs import boundary, orient_edges

import reference
from tracing import orientations_decided


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed determined by the run seed and a path of keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class Op:
    slice: str  # the part of the workload it belongs to, for the report
    seconds: float
    units: int  # work the op completed, in the workload's unit
    causes: list[str] = field(default_factory=list)  # empty when every check passed


class Timed:
    """Times a block; while it runs, the tracer (if any) records spans.

    A calibration, if given, samples its kernel around the block and sets
    ``ref_seconds``.
    """

    def __init__(self, tracer, calibration):
        self.tracer = tracer
        self.calibration = calibration
        self.seconds = 0.0
        self.ref_seconds = 0.0

    def __enter__(self):
        if self.calibration is not None:
            self.calibration.before()
        if self.tracer is not None:
            self.tracer.enabled = True
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.enabled = False
        if self.calibration is not None:
            self.calibration.after(self)
        return False


class Workload:
    name = ""
    unit = ""  # the work ops_per_s counts
    rate_name = None  # the workload's own name for ops_per_s, if it has one
    digest_steps = 1  # steps the digest covers; every run completes at least these
    # slice -> (causes, the defect behind them); see the module docstring
    known_defects: dict[str, tuple[frozenset[str], str]] = {}

    def __init__(self, seed: int, out_dir: str, tracer=None, calibration=None):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.calibration = calibration
        self.clocks: list[Timed] = []  # every timed block, in order
        self.ops: list[Op] = []
        self.problems: list[str] = []
        self.gaps: list[float] = []
        self._digest = hashlib.sha256()
        os.makedirs(out_dir, exist_ok=True)

    def timed(self) -> Timed:
        clock = Timed(self.tracer, self.calibration)
        self.clocks.append(clock)
        return clock

    def step(self, i: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Work the run does once after its steps."""

    def report(self) -> list[str]:
        return []

    def digest(self) -> str:
        return self._digest.hexdigest()

    def _feed(self, *items) -> None:
        for item in items:
            data = item if isinstance(item, bytes) else repr(item).encode()
            self._digest.update(len(data).to_bytes(8, "little") + data)

    def _check_contract(self, node_count, edges, clusters) -> None:
        for problem in reference.connectivity_violations(node_count, edges, clusters):
            self.problems.append(f"generator contract: {problem}")

    def _check_sample(self, nodes, node_count, budget) -> None:
        nodes = [int(v) for v in nodes]
        if len(nodes) != budget or len(set(nodes)) != budget or not all(
            0 <= v < node_count for v in nodes
        ):
            self.problems.append(f"malformed sampling set of {len(nodes)} nodes")

    def _solve_causes(self, node_count, edges, weights, nodes, y, lam, x_hat) -> list[str]:
        """Compare a solution's objective with the LP optimum."""
        opt = reference.l1tv_lp_optimum(node_count, edges, weights, nodes, y, lam)
        obj = reference.l1tv_objective(edges, weights, nodes, y, lam, x_hat)
        gap = reference.optimality_gap(obj, opt)
        self.gaps.append(gap)
        if gap > reference.REL_TOL:
            return ["above_lp_optimum"]
        if gap < -reference.REL_TOL:
            return ["below_lp_optimum"]
        return []

    def is_known_defect(self, op: Op) -> bool:
        causes, _ = self.known_defects.get(op.slice, (frozenset(), ""))
        return bool(op.causes) and set(op.causes) <= causes

    def unexpected_failures(self) -> int:
        return sum(1 for op in self.ops if op.causes and not self.is_known_defect(op))

    def failure_lines(self) -> list[str]:
        lines = []
        for name in sorted({op.slice for op in self.ops}):
            ops = [op for op in self.ops if op.slice == name]
            passed = sum(1 for op in ops if not op.causes)
            causes = dict(sorted(Counter(c for op in ops for c in op.causes).items()))
            lines.append(
                f"check {name}: {passed}/{len(ops)} ops passed"
                + (f"; failures by cause {causes}" if causes else "")
            )
            known = sum(1 for op in ops if self.is_known_defect(op))
            if known:
                lines.append(f"  {known} of them by the known defect: "
                             f"{self.known_defects[name][1]}")
        return lines


def _percentile_lines(name: str, seconds: list[float]) -> list[str]:
    ms = [1000.0 * s for s in seconds]
    if len(ms) < 2:
        return []
    p90 = statistics.quantiles(ms, n=10)[8]
    return [
        f"{name}_p50 = {statistics.median(ms)!r} ms (n={len(ms)})",
        f"{name}_p90 = {p90!r} ms (n={len(ms)}, {sum(1 for v in ms if v > p90)} above)",
    ]


class PresetExperiment(Workload):
    """One trial of ``netlasso experiment`` per op, alternating two CLI regimes."""

    name = "preset-experiment"
    unit = "trials"
    digest_steps = 16
    # The README's example regime, then the experiment command's defaults.
    REGIMES = {
        "readme": ["--noise", "gaussian", "--sigma", "0.1", "--lam", "0.05"],
        "defaults": [],
    }
    known_defects = {
        "defaults": (frozenset({"above_lp_optimum"}),
                     "at lam=auto (λ=1) ADMM stops above the LP optimum (ROADMAP item 3)"),
    }

    def __init__(self, seed, out_dir, tracer=None, calibration=None):
        super().__init__(seed, out_dir, tracer, calibration)
        parser = cli.build_parser()
        self.configs = {}
        for tag, extra in self.REGIMES.items():
            args = parser.parse_args(
                ["experiment", "--master-seed", str(derive_seed(seed, 0)), *extra]
            )
            self.configs[tag] = experiments.ExperimentConfig(
                budget=args.budget,
                noise=args.noise,
                sigma=args.sigma,
                lam=args.lam,
                cert_l=args.cert_L,
                master_seed=args.master_seed,
                solver={
                    "rho": args.rho,
                    "eps_abs": args.eps_abs,
                    "eps_rel": args.eps_rel,
                    "max_iters": args.max_iters,
                },
            )
        self.trials = {tag: [] for tag in self.REGIMES}
        self._solves = []  # (graph, observations, lam, result) of the current trial

    def step(self, i):
        tag = tuple(self.REGIMES)[i % 2]
        trial_index = i // 2
        self._solves.clear()
        causes = []
        solve_admm = experiments.solve_admm

        def capture(g, obs, cfg):
            # the LP check needs each solve's inputs exactly as the solver got them
            result = solve_admm(g, obs, cfg)
            self._solves.append((g, obs, cfg.lam, result))
            return result

        experiments.solve_admm = capture
        try:
            with self.timed() as clock:
                trial = experiments.run_trial(self.configs[tag], trial_index)
        except NetlassoError as exc:
            trial = None
            causes.append(type(exc).__name__)
        finally:
            experiments.solve_admm = solve_admm
        if trial is not None:
            self.trials[tag].append(trial)
            g = trial.graph
            self._check_contract(g.node_count, g.edges, trial.partition.clusters)
            for outcome in trial.outcomes:
                self._check_sample(outcome.sample_nodes, g.node_count, trial.budget)
            if i < self.digest_steps:
                self._feed(tag, trial_index, *(o.sample_nodes for o in trial.outcomes))
        for g, obs, lam, result in self._solves:
            if not result.converged:
                causes.append("not_converged")
            causes += self._solve_causes(
                g.node_count, g.edges, g.weights, obs.nodes, obs.y, lam, result.x_hat
            )
        self.ops.append(Op(tag, clock.seconds, 1, causes))

    def finish(self):
        digest_trials = self.digest_steps // len(self.REGIMES)
        for tag, trials in self.trials.items():
            if not trials:
                continue
            with self.timed():
                paths = experiments.write_outputs(os.path.join(self.out_dir, tag), trials)
            for key in ("results", "signals"):
                with open(paths[key], newline="", encoding="utf-8") as fh:
                    rows = list(csv.reader(fh))
                if key == "results" and len(rows) != 1 + 2 * len(trials):
                    self.problems.append(f"{paths[key]} has {len(rows) - 1} rows")
                self._feed(rows[0], [r for r in rows[1:] if int(r[0]) < digest_trials])

    def report(self):
        return _percentile_lines("op_ms", [op.seconds for op in self.ops])


class CertifyEnum(Workload):
    """``check_ncc`` queries on small planted partitions, in two weight slices."""

    name = "certify-enum"
    unit = "orientations"
    rate_name = "orientations_per_s"
    SIZES = (8, 8, 8, 8)
    P_IN, P_OUT = 1.0, 0.03
    BUDGET = 12
    L = 2.0
    K_FACTORS = (2, 4, 8)
    # Unit weight is the preset's; at 4096 the quantized capacities pass 2^31.
    WEIGHTS = (1.0, 4096.0)
    known_defects = {
        "weight-4096": (frozenset({"cut_unverified"}),
                        "the scipy max-flow backend overflows int32 capacities (ROADMAP item 2)"),
    }
    MAX_BOUNDARY = 11  # at most 2^11 orientations per query

    def __init__(self, seed, out_dir, tracer=None, calibration=None):
        super().__init__(seed, out_dir, tracer, calibration)
        self._candidate = 0
        self.verdicts: Counter = Counter()

    def _instances(self):
        """Next planted partition with a small enough boundary, at each weight."""
        while True:
            seed = derive_seed(self.seed, 1, self._candidate)
            self._candidate += 1
            configs = [
                generate.PlantedPartitionConfig(self.SIZES, self.P_IN, self.P_OUT, w, seed)
                for w in self.WEIGHTS
            ]
            g, partition = generate.generate_planted_partition(configs[0])
            if len(boundary(g, partition)) <= self.MAX_BOUNDARY:
                rest = [generate.generate_planted_partition(c) for c in configs[1:]]
                return seed, [(g, partition), *rest]

    def step(self, i):
        seed, instances = self._instances()
        queries = []
        for (g, partition), w in zip(instances, self.WEIGHTS):
            self._check_contract(g.node_count, g.edges, partition.clusters)
            nodes = sampling.sample_boundary_aware(g, partition, self.BUDGET)
            self._check_sample(nodes, g.node_count, self.BUDGET)
            queries.append((g, partition, nodes, w, boundary(g, partition)))
            if i < self.digest_steps:
                self._feed(seed, w, g.edges, nodes)
        for factor in self.K_FACTORS:
            for g, partition, nodes, w, bnd in queries:
                query = certify.NccQuery(g, partition, nodes, K=factor * w, L=self.L)
                with self.timed() as clock:
                    cert = certify.check_ncc(query)
                slice_name = f"weight-{w:g}"
                self.verdicts[(slice_name, cert.verdict)] += 1
                if i < self.digest_steps:
                    self._feed(w, factor, cert.verdict, cert.failed_bits, cert.orientations_total)
                self.ops.append(Op(
                    slice_name, clock.seconds, orientations_decided(cert),
                    self._verify(query, cert, bnd),
                ))

    @staticmethod
    def _verify(query, cert, bnd) -> list[str]:
        """Re-verify the certificate behind a verdict, in integer arithmetic."""
        if cert.verdict == "holds":
            return [] if certify.verify_ncc_witnesses(query, cert) else ["witness_unverified"]
        if cert.verdict != "fails":
            return [f"verdict_{cert.verdict}"]
        g = query.graph
        injections = [0] * g.node_count
        for arc in orient_edges(g, bnd, cert.failed_bits):
            h = scaled(query.L * arc.weight, cert.scale)
            injections[arc.head] += h
            injections[arc.tail] -= h
        spec = DemandSpec(
            injections={v: b / cert.scale for v, b in enumerate(injections) if b},
            slack_nodes=frozenset(query.sample_nodes),
            slack_bound=query.K,
        )
        if cert.cut is not None and verify_cut_certificate(g, bnd, spec, cert.cut):
            return []
        return ["cut_unverified"]

    def report(self):
        verdicts = {f"{s} {v}": n for (s, v), n in sorted(self.verdicts.items())}
        return [f"{len(self.ops)} queries, verdicts {verdicts}"]


def _read_table(path) -> np.ndarray:
    return np.loadtxt(path, ndmin=2)


def _read_graph(path) -> tuple[int, np.ndarray, np.ndarray]:
    """Node count, edge endpoints and weights of a ``N <count>`` + ``i j w`` file."""
    with open(path, encoding="utf-8") as fh:
        n = int(fh.readline().split()[1])
        rows = np.loadtxt(fh, ndmin=2)
    return n, rows[:, :2].astype(np.intp), rows[:, 2]


class Cli1e3(Workload):
    """Five ``netlasso`` commands per step on an N=1e3 graph, in-process."""

    name = "cli-1e3"
    unit = "commands"
    SIZES = (100,) * 10
    P_IN, P_OUT = 0.1, 5e-4
    BUDGET = 100
    LAM = 0.05
    SIGMA = 0.1  # label noise of the README regime

    def _command(self, label, argv) -> Op:
        with contextlib.redirect_stdout(io.StringIO()), self.timed() as clock:
            code = cli.main(argv)
        return Op(label, clock.seconds, 1, [] if code == 0 else [f"exit_{code}"])

    def step(self, i):
        d = os.path.join(self.out_dir, f"step{i}")
        path = lambda name: os.path.join(d, name)  # noqa: E731
        ops = {
            "generate": self._command("generate", [
                "generate", "--preset", "custom",
                "--sizes", ",".join(str(s) for s in self.SIZES),
                "--p-in", repr(self.P_IN), "--p-out", repr(self.P_OUT),
                "--seed", str(derive_seed(self.seed, 2, i)), "--out-dir", d,
            ]),
            "sample-boundary": self._command("sample-boundary", [
                "sample", "--graph", path("graph.txt"), "--partition", path("partition.txt"),
                "--strategy", "boundary", "--budget", str(self.BUDGET),
                "--out", path("m_boundary.txt"),
            ]),
            "sample-uniform": self._command("sample-uniform", [
                "sample", "--graph", path("graph.txt"), "--strategy", "uniform",
                "--budget", str(self.BUDGET), "--seed", str(derive_seed(self.seed, 3, i)),
                "--out", path("m_uniform.txt"),
            ]),
        }
        n, edges, weights = _read_graph(path("graph.txt"))
        labels = _read_table(path("partition.txt"))[:, 1].astype(int)
        self._check_contract(n, edges, [np.flatnonzero(labels == c) for c in range(labels.max() + 1)])
        x_true = _read_table(path("signal.txt"))[:, 1]
        noise = np.random.default_rng(derive_seed(self.seed, 4, i)).normal(0.0, self.SIGMA, n)
        for strategy in ("boundary", "uniform"):
            nodes = np.loadtxt(path(f"m_{strategy}.txt"), dtype=np.intp, ndmin=1)
            self._check_sample(nodes, n, self.BUDGET)
            y = x_true[nodes] + noise[nodes]
            with open(path(f"obs_{strategy}.txt"), "w", encoding="utf-8") as fh:
                fh.writelines(f"{v} {float(label)!r}\n" for v, label in zip(nodes, y))
            op = self._command(f"solve-{strategy}", [
                "solve", "--graph", path("graph.txt"),
                "--observations", path(f"obs_{strategy}.txt"),
                "--lam", repr(self.LAM), "--out", path(f"xhat_{strategy}.txt"),
            ])
            x_hat = _read_table(path(f"xhat_{strategy}.txt"))[:, 1]
            op.causes += self._solve_causes(n, edges, weights, nodes, y, self.LAM, x_hat)
            ops[f"solve-{strategy}"] = op
        self.ops.extend(ops.values())
        if i < self.digest_steps:
            for name in ("graph.txt", "partition.txt", "signal.txt", "m_boundary.txt",
                         "m_uniform.txt", "xhat_boundary.txt", "xhat_uniform.txt"):
                with open(path(name), "rb") as fh:
                    self._feed(name, fh.read())

    def report(self):
        lines = []
        for label in dict.fromkeys(op.slice for op in self.ops):
            seconds = [op.seconds for op in self.ops if op.slice == label]
            lines.append(f"command {label}: median {statistics.median(seconds)!r} s (n={len(seconds)})")
        return lines


class Build5e3(Workload):
    """Generate an N=5e3 instance and run both samplers on it, in memory."""

    name = "build-5e3"
    unit = "instances"
    SIZES = (100,) * 50
    P_IN, P_OUT = 0.1, 2e-4
    BUDGET = 500

    def step(self, i):
        cfg = generate.PlantedPartitionConfig(
            self.SIZES, self.P_IN, self.P_OUT, 1.0, derive_seed(self.seed, 5, i)
        )
        causes = []
        with self.timed() as clock:
            try:
                g, partition = generate.generate_planted_partition(cfg)
                sets = (
                    sampling.sample_boundary_aware(g, partition, self.BUDGET),
                    sampling.sample_uniform(g, self.BUDGET, seed=derive_seed(self.seed, 6, i)),
                )
            except NetlassoError as exc:
                causes.append(type(exc).__name__)
        if not causes:
            self._check_contract(g.node_count, g.edges, partition.clusters)
            for nodes in sets:
                self._check_sample(nodes, g.node_count, self.BUDGET)
            if i < self.digest_steps:
                self._feed(g.edges, g.weights.tobytes(), *sets)
        self.ops.append(Op("instance", clock.seconds, 1, causes))


WORKLOADS = {w.name: w for w in (PresetExperiment, CertifyEnum, Cli1e3, Build5e3)}
