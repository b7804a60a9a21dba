"""Benchmark for netlasso: one seeded workload per run, checked outputs, JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a netlasso source tree; the package is imported from
its ``src/`` directory. The load is a closed loop: one client in this
process runs one step at a time, each step starting when the previous one
has been checked. Steps run until the run is at the step boundary nearest
``--seconds``. Every line but the last is a human-readable report; the last
line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``failed`` leaves out ops that fail only by a known defect of
netlasso (see workloads.py), which ``ok_share`` still counts.

``--trace 0`` reports the end-to-end metrics, with times rescaled to a
reference machine speed (see speed.py). ``--trace 1`` instead runs every
step twice, once while recording spans around netlasso's layer boundaries
and once untraced, and reports per-layer metrics plus the tracing overhead
(traced minus untraced op time). Outputs go to ``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5


def run_steps(step, min_steps: int, seconds: float) -> int:
    """Call ``step(0), step(1), ...`` until the wall clock is at the step
    boundary nearest ``seconds``; returns the number of steps run."""
    start = time.perf_counter()
    n = 0
    while True:
        step(n)
        n += 1
        if n >= min_steps:
            wall = time.perf_counter() - start
            if wall + 0.5 * wall / n >= seconds:
                return n


def op_seconds(workload) -> float:
    return sum(clock.seconds for clock in workload.clocks)


def measure_setup(make, calibration) -> list:
    """Time SETUP_REPEATS set-ups: a fresh interpreter imports netlasso, then
    the workload prepares itself. Returns their timed blocks."""
    from workloads import Timed

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    clocks = []
    for _ in range(SETUP_REPEATS):
        with Timed(None, calibration) as clock:
            subprocess.run(
                [sys.executable, "-c", "import netlasso.cli"],
                env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            )
            make()
        clocks.append(clock)
    return clocks


def untraced_run(make, seconds: float):
    from speed import Calibration

    calibration = Calibration()
    setup = measure_setup(make, calibration)
    workload = make(calibration=calibration)
    peak_rss_kb = []

    def step(i):
        workload.step(i)
        if i + 1 == workload.digest_steps:  # every run does these steps, whatever its length
            peak_rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    steps = run_steps(step, workload.digest_steps, seconds)
    workload.finish()
    busy = op_seconds(workload)
    busy_ref = sum(clock.ref_seconds for clock in workload.clocks)
    units = sum(op.units for op in workload.ops)
    attempted = len(workload.ops)
    failed = sum(1 for op in workload.ops if op.causes)
    metrics = {
        "setup_s": (statistics.median(c.ref_seconds for c in setup), "s"),
        "ops_per_s": (units / busy_ref, "1/s"),
        "ok_share": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (peak_rss_kb[0] / 1024.0, "MB"),
    }
    lines = [
        f"ops_per_s counts {workload.unit}: {units} in {busy_ref!r} s of op time at "
        f"reference speed, {steps} steps",
        f"wall clock: ops_per_s {units / busy!r} 1/s, "
        f"setup_s {statistics.median(c.seconds for c in setup)!r} s; calibration kernel "
        f"median {statistics.median(calibration.samples)!r} s over "
        f"{len(calibration.samples)} samples",
        f"failed_share = {failed / attempted!r} ({failed}/{attempted} ops, "
        f"{failed - workload.unexpected_failures()} of them by known defects)",
        *workload.report(),
    ]
    if workload.rate_name:
        lines.insert(0, f"{workload.rate_name} = {units / busy_ref!r} 1/s (ops_per_s here)")
    return workload, metrics, lines


def traced_run(make, seconds: float, out_dir: str):
    """Run each step twice, traced and untraced, alternating which goes first."""
    from tracing import Tracer

    tracer = Tracer()
    traced = make(os.path.join(out_dir, "traced"), tracer)
    plain = make(os.path.join(out_dir, "untraced"))

    def with_tracer(fn, *args):
        tracer.install()
        try:
            fn(*args)
        finally:
            tracer.uninstall()

    def pair(i):
        for side in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            if side is traced:
                with_tracer(traced.step, i)
            else:
                plain.step(i)

    steps = run_steps(pair, traced.digest_steps, seconds)
    with_tracer(traced.finish)
    plain.finish()
    tracer.write(os.path.join(out_dir, "spans.jsonl"))
    traced.problems += plain.problems
    if plain.digest() != traced.digest():
        traced.problems.append("traced and untraced passes of the same steps differ")

    traced_s, plain_s = op_seconds(traced), op_seconds(plain)
    metrics = tracer.layer_metrics(traced_s)
    metrics["solver.rel_gap_max"] = (max(traced.gaps, default=0.0), "share")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "share")
    lines = [f"{steps} steps traced in {traced_s!r} s of op time, untraced in {plain_s!r} s"]
    return traced, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "netlasso", "__init__.py")):
        print(f"error: netlasso sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    out_dir = os.path.join(OUT, cls.name)
    shutil.rmtree(out_dir, ignore_errors=True)

    def make(path=out_dir, tracer=None, calibration=None):
        return cls(args.seed, path, tracer, calibration)

    if args.trace:
        workload, metrics, lines = traced_run(make, args.seconds, out_dir)
    else:
        workload, metrics, lines = untraced_run(make, args.seconds)

    attempted = len(workload.ops)
    failed = workload.unexpected_failures()
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for line in lines + workload.failure_lines():
        print(line)
    print("check generator contract and sampling sets: "
          + ("ok" if not workload.problems else "; ".join(workload.problems[:5])))
    print(f"digest sha256 of the first {workload.digest_steps} steps' outputs: "
          f"{workload.digest()}")
    print(json.dumps({
        "correct": not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
