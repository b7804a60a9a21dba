"""The file readers as they were before they parsed into arrays.

``fileio._content_lines``, ``read_graph``, ``read_value_map`` and
``read_node_set`` verbatim from that version: one Python pass per line, with
``int``/``float`` on each token. Tests pit the array-path readers against
them on mutated files.
"""

import os

import numpy as np

from netlasso.errors import FileFormatError, GraphError
from netlasso.graphs import Graph, validate_graph


def _content_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def read_graph(path: str | os.PathLike) -> Graph:
    node_count = None
    edges = []
    weights = []
    linenos = []
    for lineno, line in _content_lines(path):
        parts = line.split()
        if node_count is None:
            if len(parts) != 2 or parts[0] != "N":
                raise FileFormatError("expected header 'N <node_count>'", path, lineno)
            try:
                node_count = int(parts[1])
            except ValueError:
                raise FileFormatError(f"bad node count {parts[1]!r}", path, lineno) from None
            if node_count <= 0:
                raise FileFormatError("node count must be positive", path, lineno)
            continue
        if len(parts) != 3:
            raise FileFormatError("expected edge line 'i j w'", path, lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise FileFormatError(f"unparsable edge line {line!r}", path, lineno) from None
        edges.append((i, j))
        weights.append(w)
        linenos.append(lineno)
    if node_count is None:
        raise FileFormatError("missing header 'N <node_count>'", path, 1)
    try:
        return validate_graph(edges, weights, node_count)
    except GraphError as exc:
        raise FileFormatError(str(exc), path, linenos[exc.index]) from exc


def read_value_map(path: str | os.PathLike) -> dict[int, float]:
    """Parse ``i v`` lines into a node -> value mapping."""
    values: dict[int, float] = {}
    for lineno, line in _content_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise FileFormatError("expected line 'i v'", path, lineno)
        try:
            i = int(parts[0])
            v = float(parts[1])
        except ValueError:
            raise FileFormatError(f"unparsable line {line!r}", path, lineno) from None
        if i < 0:
            raise FileFormatError(f"negative node id {i}", path, lineno)
        if i in values:
            raise FileFormatError(f"duplicate entry for node {i}", path, lineno)
        if not np.isfinite(v):
            raise FileFormatError(f"non-finite value for node {i}", path, lineno)
        values[i] = v
    return values


def read_node_set(path: str | os.PathLike) -> tuple[int, ...]:
    nodes = []
    seen = set()
    for lineno, line in _content_lines(path):
        try:
            i = int(line)
        except ValueError:
            raise FileFormatError(f"expected a node id, got {line!r}", path, lineno) from None
        if i < 0:
            raise FileFormatError(f"negative node id {i}", path, lineno)
        if i in seen:
            raise FileFormatError(f"duplicate node {i}", path, lineno)
        seen.add(i)
        nodes.append(i)
    return tuple(sorted(nodes))
