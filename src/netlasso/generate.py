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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatchError,
    DisconnectedAfterRetriesError,
    InvalidConfigError,
    NodeOutOfRangeError,
)
from .graphs import Graph, Observations, Partition, component_roots, is_connected
from .sampling import _integer, _seed

MAX_CONNECTIVITY_RETRIES = 100
# Rows of the pair triangle are drawn in groups of about this many pairs: one
# numpy call for a small graph, O(N) memory per attempt for a large one.
_PAIRS_PER_DRAW = 1 << 16


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
        for name, p in (("p_in", self.p_in), ("p_out", self.p_out)):
            if not 0.0 <= p <= 1.0:
                raise InvalidConfigError(f"{name}={p} outside [0, 1]")
        if not self.weight > 0.0:
            raise InvalidConfigError("edge weight must be positive")
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


def generate_planted_partition(cfg: PlantedPartitionConfig) -> tuple[Graph, Partition]:
    """Draw a planted-partition graph; retry until connected.

    Requires the whole graph connected and every cluster internally
    connected; raises DisconnectedAfterRetriesError after
    MAX_CONNECTIVITY_RETRIES failed attempts.
    """
    partition = _block_partition(cfg.sizes)
    n = cfg.node_count
    labels = partition.labels
    step = max(1, _PAIRS_PER_DRAW // n)
    run = np.repeat(np.cumsum(cfg.sizes), cfg.sizes) - 1 - np.arange(n)  # in-cluster cells of row i
    rng = np.random.default_rng(cfg.seed)
    for _ in range(MAX_CONNECTIVITY_RETRIES):
        parts = [np.empty((2, 0), np.int64)]  # no rows to draw when n == 1
        for start in range(0, n - 1, step):
            rows = np.arange(start, min(start + step, n - 1))
            ends = np.cumsum(n - 1 - rows)  # cell c < ends[r] of row rows[r] is j = c - ends[r] + n
            u = rng.random(ends[-1])
            hit = u < cfg.p_out
            k = run[rows]  # the in-cluster cells of row rows[r] are its first k[r]
            kc = np.cumsum(k)
            inside = np.arange(kc[-1]) + np.repeat(ends - (n - 1 - rows) - kc + k, k)
            hit[inside] = u[inside] < cfg.p_in
            cells = np.flatnonzero(hit)
            r = np.searchsorted(ends, cells, side="right")
            parts.append(np.stack([rows[r], cells - ends[r] + n]))
        edges = np.concatenate(parts, axis=1)
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
        if self.sigma < 0.0 or not np.isfinite(self.sigma):
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
