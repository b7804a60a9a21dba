"""Synthetic clustered graphs (planted partition) and noisy node observations.

Randomness is drawn from numpy's PCG64 generator seeded explicitly, and the
draw order is fixed: for each attempt, one uniform variate per unordered node
pair in lexicographic order. Outputs are therefore reproducible from the
config alone. They are drawn a few rows of the pair triangle at a time, as
one flat vector of the cells (i, j > i) in row-major order; as ``random()``
takes one 64-bit output per double, the row draws together equal one draw per
attempt, and a retry continues the same stream. Clusters are contiguous runs
of node ids, so the in-cluster cells of row i are its first ones, up to the
end of i's cluster: each cell is tested against p_out, then that prefix of
each row against p_in.

Row s's cells start s(N-1) - s(s-1)/2 outputs into the attempt's stream, and
PCG64 advances by any stride in O(log stride) steps. So an attempt of at
least twice _PAIRS_PER_WORKER pairs is split into contiguous chunks of rows,
one per usable CPU and per _PAIRS_PER_WORKER pairs at most, and each chunk is
drawn on its own thread from a copy of the stream advanced to its first row.
The threads are started for the attempt and joined before its graph is built;
outputs never depend on the CPU count.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatchError,
    DisconnectedAfterRetriesError,
    InvalidConfigError,
    NodeOutOfRangeError,
    _integer,
    _real,
    _seed,
)
from .graphs import Graph, Observations, Partition, component_roots, is_connected

MAX_CONNECTIVITY_RETRIES = 100
# Rows of the pair triangle are drawn in groups of about this many pairs: one
# numpy call for a small graph, O(N) memory per attempt for a large one.
_PAIRS_PER_DRAW = 1 << 17
# An attempt is drawn on one thread per this many pairs, up to the usable CPUs.
_PAIRS_PER_WORKER = 1 << 20


@dataclass(frozen=True)
class PlantedPartitionConfig:
    """Planted-partition random graph: dense inside clusters, sparse across.

    Every intra-cluster pair becomes an edge independently with probability
    p_in, every inter-cluster pair with p_out; all edges get the same weight.
    """

    sizes: tuple[int, ...]
    p_in: float
    p_out: float
    weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(_integer(s, "cluster size") for s in self.sizes))
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise InvalidConfigError("need at least one cluster, all sizes >= 1")
        for name in ("p_in", "p_out", "weight"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        for name, p in (("p_in", self.p_in), ("p_out", self.p_out)):
            if not 0.0 <= p <= 1.0:
                raise InvalidConfigError(f"{name}={p} outside [0, 1]")
        if not 0.0 < self.weight < math.inf:
            raise InvalidConfigError(f"edge weight must be positive and finite, got {self.weight}")
        _seed(self.seed)

    @property
    def node_count(self) -> int:
        return sum(self.sizes)


# The preset mirrors the scale of the reference experiment: 30 nodes in four
# clusters with ~156 unit-weight edges on average. With sizes (7,7,8,8) there
# are 98 intra pairs, so p_in=1 and p_out=58/337 is the unique maximally
# clustered split with that expected edge count.
PAPER_LIKE_SIZES = (7, 7, 8, 8)
PAPER_LIKE_P_IN = 1.0
PAPER_LIKE_P_OUT = float(Fraction(58, 337))


def paper_like_config(seed: int = 0) -> PlantedPartitionConfig:
    """30 nodes, 4 clusters, expected edge count 156, unit weights."""
    return PlantedPartitionConfig(
        sizes=PAPER_LIKE_SIZES,
        p_in=PAPER_LIKE_P_IN,
        p_out=PAPER_LIKE_P_OUT,
        weight=1.0,
        seed=seed,
    )


def _block_partition(sizes: tuple[int, ...]) -> Partition:
    clusters = []
    offset = 0
    for s in sizes:
        clusters.append(frozenset(range(offset, offset + s)))
        offset += s
    return Partition(tuple(clusters))


def _cpu_set() -> set[int]:
    try:
        return os.sched_getaffinity(0)
    except AttributeError:  # no CPU affinity on this platform
        return set(range(os.cpu_count() or 1))


def _usable_cpus() -> int:
    return len(_cpu_set())


def _pin(cpus: set[int]) -> None:
    """Let the calling thread run on `cpus` only: a hint, skipped where refused."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass


def _pinned(cpu: int, task):
    _pin({cpu})
    return task()


def _in_threads(tasks: list) -> list:
    """Run tasks[0] here and the others on len(tasks) - 1 new threads, task k
    pinned to the k-th usable CPU (modulo their count): a kernel that does
    not balance load would otherwise keep every thread on this one's CPU.
    Returns the results in order, or raises the first task's error, once
    every thread has ended; this thread gets its CPU set back."""
    from concurrent.futures import ThreadPoolExecutor  # loaded by the first graph this large

    mask = _cpu_set()
    cpus = sorted(mask)
    with ThreadPoolExecutor(len(tasks) - 1) as pool:
        rest = [pool.submit(_pinned, cpus[k % len(cpus)], t) for k, t in enumerate(tasks[1:], 1)]
        try:
            first = _pinned(cpus[0], tasks[0])
        finally:
            _pin(mask)
        return [first, *(future.result() for future in rest)]


def _stream(state: dict, offset: int) -> np.random.Generator:
    """A generator `offset` 64-bit outputs past `state`, a PCG64 state."""
    bits = np.random.PCG64()
    bits.state = state
    return np.random.Generator(bits.advance(offset))


def _draw_rows(rng: np.random.Generator, rows: np.ndarray, n: int, run: np.ndarray,
               p_in: float, p_out: float) -> np.ndarray:
    """The edges (2, m) among the cells of consecutive `rows`, one draw each."""
    ends = np.cumsum(n - 1 - rows)  # cell c < ends[r] of row rows[r] is j = c - ends[r] + n
    u = rng.random(ends[-1])
    hit = u < p_out
    k = run[rows]  # the in-cluster cells of row rows[r] are its first k[r]
    kc = np.cumsum(k)
    inside = np.arange(kc[-1]) + np.repeat(ends - (n - 1 - rows) - kc + k, k)
    hit[inside] = u[inside] < p_in
    cells = np.flatnonzero(hit)
    r = np.searchsorted(ends, cells, side="right")
    return np.stack([rows[r], cells - ends[r] + n])


def _row_chunks(n: int, step: int, workers: int) -> list[tuple[int, np.ndarray]]:
    """The row groups, by first row, split into at most `workers` contiguous
    chunks of about equal cell count, each with the cells in the rows above it."""
    starts = np.arange(0, n - 1, step)
    above = starts * (n - 1) - starts * (starts - 1) // 2
    first = np.unique(np.searchsorted(above, n * (n - 1) // 2 * np.arange(workers) // workers))
    first = first[first < starts.size]  # no chunk starts past the last group
    return [(int(above[f]), chunk) for f, chunk in zip(first, np.split(starts, first[1:]))]


def generate_planted_partition(cfg: PlantedPartitionConfig) -> tuple[Graph, Partition]:
    """Draw a planted-partition graph; retry until connected.

    Requires the whole graph connected and every cluster internally
    connected; raises DisconnectedAfterRetriesError after
    MAX_CONNECTIVITY_RETRIES failed attempts.

    An attempt of C = N(N-1)/2 cells runs on W = min(usable CPUs,
    C // _PAIRS_PER_WORKER) threads: this one and W - 1 started for the
    attempt and joined before it is tested, so graphs below 2^21 pairs
    (N < 2049) draw here alone. With W > 1 the row groups are split into W
    contiguous chunks of about C / W cells; the chunk whose first row is s
    draws from a copy of the attempt's starting PCG64 state advanced by the
    s(N-1) - s(s-1)/2 cells of the rows before it, and the seeded generator
    is then advanced by C, as if it had drawn them all. Every cell gets the
    same uniform variate whatever W is, so the graph never depends on the
    CPU count. Each chunk's thread, this one included, is pinned to its own
    CPU while it draws, and this thread gets its CPU set back. A worker's
    exception is raised here, after every thread has ended. The Graph and
    both connectivity tests are built in this thread.
    """
    partition = _block_partition(cfg.sizes)
    n = cfg.node_count
    labels = partition.labels
    step = max(1, _PAIRS_PER_DRAW // n)
    run = np.repeat(np.cumsum(cfg.sizes), cfg.sizes) - 1 - np.arange(n)  # in-cluster cells of row i
    cells = n * (n - 1) // 2
    workers = min(_usable_cpus(), cells // _PAIRS_PER_WORKER)
    chunks = _row_chunks(n, step, workers) if workers > 1 else []

    def draw(rng, starts):  # the edges of the row groups that begin at starts, in order
        return [
            _draw_rows(rng, np.arange(s, min(s + step, n - 1)), n, run, cfg.p_in, cfg.p_out)
            for s in starts.tolist()
        ]

    rng = np.random.default_rng(cfg.seed)
    for _ in range(MAX_CONNECTIVITY_RETRIES):
        if len(chunks) > 1:
            state = rng.bit_generator.state
            tasks = [functools.partial(draw, _stream(state, skip), chunk) for skip, chunk in chunks]
            parts = [p for chunk_parts in _in_threads(tasks) for p in chunk_parts]
            rng.bit_generator.advance(cells)
        else:
            parts = draw(rng, np.arange(0, n - 1, step))
        edges = np.concatenate([np.empty((2, 0), np.int64), *parts], axis=1)  # no rows if n == 1
        g = Graph(n, edges, np.full(edges.shape[1], cfg.weight))
        ii, jj = g.endpoint_arrays()
        same = labels[ii] == labels[jj]  # as many components as clusters iff each is connected
        roots = component_roots(n, ii[same], jj[same])
        if is_connected(g) and np.unique(roots).size == len(cfg.sizes):
            return g, partition
    raise DisconnectedAfterRetriesError(
        f"no connected instance in {MAX_CONNECTIVITY_RETRIES} attempts "
        f"(sizes={cfg.sizes}, p_in={cfg.p_in}, p_out={cfg.p_out}, seed={cfg.seed})"
    )


@dataclass(frozen=True)
class NoiseConfig:
    """Additive observation noise: none, gaussian or laplace with scale sigma."""

    distribution: str = "none"
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.distribution not in ("none", "gaussian", "laplace"):
            raise InvalidConfigError(f"unknown noise distribution {self.distribution!r}")
        object.__setattr__(self, "sigma", _real(self.sigma, "sigma"))
        if not 0.0 <= self.sigma < math.inf:
            raise InvalidConfigError("sigma must be finite and >= 0")
        _seed(self.seed)


def noise_field(node_count: int, noise: NoiseConfig) -> np.ndarray:
    """Noise on every node, drawn in node order from a generator seeded by
    noise.seed; any sampling set indexes into the same field."""
    if noise.distribution == "none" or noise.sigma == 0.0:
        return np.zeros(node_count)
    rng = np.random.default_rng(noise.seed)
    if noise.distribution == "gaussian":
        return rng.normal(0.0, noise.sigma, size=node_count)
    return rng.laplace(0.0, noise.sigma, size=node_count)


def observe(x_true: np.ndarray, nodes: tuple[int, ...], eps_full: np.ndarray) -> Observations:
    """Observe y_i = x_true[i] + eps_full[i] on the sorted, unique sampling nodes.

    The stored eps is recomputed as y - x_true so the recorded noise matches
    the labels bit-exactly.
    """
    if len(eps_full) != len(x_true):
        raise DimensionMismatchError(
            f"noise field has {len(eps_full)} entries for a signal of {len(x_true)}"
        )
    if nodes and max(nodes) >= len(x_true):
        raise NodeOutOfRangeError(
            f"sampling node {max(nodes)} outside 0..{len(x_true) - 1}"
        )
    idx = list(nodes)
    y = x_true[idx] + eps_full[idx]
    return Observations(nodes=nodes, y=y, eps=y - x_true[idx])
