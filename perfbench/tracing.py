"""Span recording around netlasso's layer boundaries, from outside the package.

``Tracer.install`` rebinds public names in the modules that call them (for
example ``netlasso.certify.feasible_flow``, the name ``check_ncc`` looks up
on every orientation) to wrappers that record a span per call. Spans live in
memory as ``[name, start, end, parent]`` rows and are written out once, at
the end of a run. The first dotted component of a span name is its layer; a
layer's self time is its spans' durations minus the time their child spans
cover.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

LAYERS = ("cli", "experiments", "fileio", "generate", "sampling", "certify", "flow", "solver")

_FILEIO_CALLS = (
    "read_graph", "read_partition", "read_observations",
    "write_graph", "write_partition", "write_value_map", "write_node_set",
)

# (module, attribute, span name): every call site the benchmark's workloads reach.
TARGETS = (
    ("netlasso.cli", "main", "cli.main"),
    ("netlasso.cli", "generate_planted_partition", "generate.planted_partition"),
    ("netlasso.cli", "sample_boundary_aware", "sampling.boundary"),
    ("netlasso.cli", "sample_uniform", "sampling.uniform"),
    ("netlasso.cli", "solve_admm", "solver.admm"),
    *(("netlasso.fileio", name, f"fileio.{name}") for name in _FILEIO_CALLS),
    ("netlasso.experiments", "run_trial", "experiments.trial"),
    ("netlasso.experiments", "write_outputs", "experiments.write_outputs"),
    ("netlasso.experiments", "generate_planted_partition", "generate.planted_partition"),
    ("netlasso.experiments", "sample_boundary_aware", "sampling.boundary"),
    ("netlasso.experiments", "sample_uniform", "sampling.uniform"),
    ("netlasso.experiments", "check_support_condition", "certify.support"),
    ("netlasso.experiments", "solve_admm", "solver.admm"),
    ("netlasso.certify", "check_ncc", "certify.ncc"),
    ("netlasso.certify", "feasible_flow", "flow.feasible"),
    ("netlasso.generate", "generate_planted_partition", "generate.planted_partition"),
    ("netlasso.generate", "is_connected", "generate.is_connected"),
    ("netlasso.sampling", "sample_boundary_aware", "sampling.boundary"),
    ("netlasso.sampling", "sample_uniform", "sampling.uniform"),
)


def orientations_decided(cert) -> int:
    """Orientations an NCC enumeration settled before returning its verdict."""
    if cert.verdict == "holds":
        return cert.orientations_total
    if cert.verdict == "fails":
        return cert.failed_bits + 1
    return 0


def _flow_arcs(args) -> int:
    """Arcs of the max-flow network ``feasible_flow`` builds, from its inputs."""
    g, excluded, spec = args[:3]  # check_ncc passes them positionally
    nonzero = sum(1 for v in spec.injections.values() if v != 0)
    kept = g.edge_count - len(set(excluded))
    return 2 * kept + 2 * len(spec.slack_nodes) + nonzero + (2 if nonzero else 0)


def _count(counters, name, args, result) -> None:
    if name == "solver.admm":
        counters["solver.iterations"] += result.iterations
        counters["solver.converged"] += bool(result.converged)
    elif name == "certify.ncc":
        counters["certify.orientations"] += orientations_decided(result)
    elif name == "flow.feasible":
        counters["flow.feasible"] += bool(result.feasible)
        counters["flow.arcs"] += _flow_arcs(args)
    elif name == "fileio.read_graph":
        counters["fileio.edge_lines"] += result.edge_count


class Tracer:
    """Records spans while ``enabled``; wrappers call straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            row = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(row)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                row[2] = time.perf_counter()
            _count(self.counters, name, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def layer_metrics(self, op_seconds: float) -> dict[str, tuple[float, str]]:
        """Per-layer counts and times; shares are of ``op_seconds``, the traced op time."""
        count = defaultdict(int)
        busy = defaultdict(float)  # outermost spans of a name only, so nesting counts once
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            count[name] += 1
            if parent < 0 or self.spans[parent][0] != name:
                busy[name] += dur
            self_s[name] += dur - child_s[idx]
            layer_self[name.split(".")[0]] += dur - child_s[idx]

        c = self.counters
        solver_calls = count["solver.admm"]
        flow_calls = count["flow.feasible"]
        write_s = sum(
            end - start for name, start, end, parent in self.spans
            if name.startswith("fileio.write")
            and (parent < 0 or not self.spans[parent][0].startswith("fileio.write"))
        )
        m = {
            "solver.calls": (solver_calls, "count"),
            "solver.busy_s": (busy["solver.admm"], "s"),
            "solver.iterations": (c["solver.iterations"], "count"),
            "solver.us_per_iter": (_ratio(1e6 * busy["solver.admm"], c["solver.iterations"]), "us"),
            "solver.converged_share": (_ratio(c["solver.converged"], solver_calls), "share"),
            "certify.ncc_calls": (count["certify.ncc"], "count"),
            "certify.ncc_self_s": (self_s["certify.ncc"], "s"),
            "certify.orientations": (c["certify.orientations"], "count"),
            "certify.support_busy_s": (busy["certify.support"], "s"),
            "flow.feasible_calls": (flow_calls, "count"),
            "flow.feasible_busy_s": (busy["flow.feasible"], "s"),
            "flow.us_per_call": (_ratio(1e6 * busy["flow.feasible"], flow_calls), "us"),
            "flow.arcs_per_call": (_ratio(c["flow.arcs"], flow_calls), "arcs"),
            "flow.feasible_share": (_ratio(c["flow.feasible"], flow_calls), "share"),
            "fileio.read_graph_calls": (count["fileio.read_graph"], "count"),
            "fileio.read_graph_busy_s": (busy["fileio.read_graph"], "s"),
            "fileio.us_per_edge_line": (
                _ratio(1e6 * busy["fileio.read_graph"], c["fileio.edge_lines"]), "us"),
            "fileio.write_busy_s": (write_s, "s"),
            "cli.self_s": (self_s["cli.main"], "s"),
            "generate.calls": (count["generate.planted_partition"], "count"),
            "generate.busy_s": (busy["generate.planted_partition"], "s"),
            "generate.attempts": (count["generate.is_connected"], "count"),
            "sampling.boundary_busy_s": (busy["sampling.boundary"], "s"),
            "sampling.uniform_busy_s": (busy["sampling.uniform"], "s"),
            "experiments.trials": (count["experiments.trial"], "count"),
            "experiments.self_s": (self_s["experiments.trial"], "s"),
            "experiments.write_s": (busy["experiments.write_outputs"], "s"),
        }
        traced_total = 0.0
        for layer in LAYERS:
            m[f"{layer}.wall_share"] = (_ratio(layer_self[layer], op_seconds), "share")
            traced_total += layer_self[layer]
        m["bench.wall_share"] = (_ratio(op_seconds - traced_total, op_seconds), "share")
        m["trace.spans"] = (len(self.spans), "count")
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
