"""Line-oriented text formats for graphs, signals, partitions and node sets.

Graph files: a header line ``N <node_count>`` followed by one ``i j w`` line
per edge (0-based endpoints, decimal weight). Signals and observation label
files: ``i v`` per line. Partitions: ``i c`` per line mapping node to cluster
index. Node sets: one integer per line. Blank lines and whole-line ``#``
comments are ignored everywhere (``0 1 1.0 # note`` is an error). Parsers
raise FileFormatError with the offending line number on any invariant
violation; errors about the whole file (a signal or partition that does not
cover exactly its nodes, an empty cluster, a partition or graph of another
size) carry no line.

Every reader first tries the array path, which reads the file in one pass:
when the file is plain (printable ASCII, tabs and ``\n`` line ends, no ``#``)
and a graph's header is its first line, numpy's C parser reads all rows at
once into int64 ids and float64 values, and the checks run as array masks.
The array path declines any other file (comments, CR line ends, non-ASCII
text) and any file that the C parser rejects or that fails a check. The line
parser then reads it again line by line: one tokenizer, ``_rows``, splits and
parses each line for all three readers, as Python's ``int`` and ``float`` do
(so ``1_000``, ``+5`` and non-ASCII digits still read), and raises the error
of the first bad line. The two paths agree on every file, because the array
path only takes what it reads exactly as the line parser would. Errors
found after parsing (a fractional or negative cluster index, an observed node
outside the true signal) recover their line by scanning the file again.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from .errors import FileFormatError, GraphError, NetlassoError
from .graphs import Graph, Observations, Partition, as_signal, validate_graph

_EDGE_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
_VALUE_ROW = np.dtype([("i", np.int64), ("v", np.float64)])
_NODE_ROW = np.dtype([("i", np.int64)])
# The bytes of plain text: tab, newline and printable ASCII other than '#'.
# In plain text, numpy and the line parser break lines at the same places and
# split them into the same tokens.
_PLAIN = bytes(range(0x20, 0x7F)).replace(b"#", b"") + b"\t\n"


def _table(path, row: np.dtype, header: bool = False):
    """``(first line or None, rows)`` of a plain file as a structured array of
    ``row``, or None where the line parser must read the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.translate(None, _PLAIN):  # a byte that is not plain is left
        return None
    text = data.decode("ascii")
    head = None
    if header:
        head, _, text = text.partition("\n")
        if not head.strip():
            return None  # a blank first line: the header comes later, if at all
    lines = text.split("\n")
    if not any(line.strip() for line in lines):  # loadtxt warns on a file without rows
        return head, np.empty(0, row)
    try:
        return head, np.loadtxt(lines, dtype=row, comments=None, ndmin=1)
    except ValueError:
        return None


def _content_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _line_of(path, node: int) -> int:
    """The line of ``node``'s entry in a file that read_value_map accepted."""
    return next(lineno for lineno, line in _content_lines(path) if int(line.split()[0]) == node)


def _rows(lines, path, width: int, parse, expected: str, unparsable: str):
    """``(line number, parse(tokens))`` for each ``(line number, line)`` of
    ``lines``. A line of other than ``width`` tokens raises ``expected``, one
    that ``parse`` rejects (ValueError) ``unparsable``, each formatted with
    ``line=`` the line."""
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != width:
            raise FileFormatError(expected.format(line=line), path, lineno)
        try:
            row = parse(parts)
        except ValueError:
            raise FileFormatError(unparsable.format(line=line), path, lineno) from None
        yield lineno, row


def _node_count(line: str, path, lineno: int) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != "N":
        raise FileFormatError("expected header 'N <node_count>'", path, lineno)
    try:
        node_count = int(parts[1])
    except ValueError:
        raise FileFormatError(f"bad node count {parts[1]!r}", path, lineno) from None
    if node_count <= 0:
        raise FileFormatError("node count must be positive", path, lineno)
    return node_count


def read_graph(path: str | os.PathLike) -> Graph:
    table = _table(path, _EDGE_ROW, header=True)
    if table is not None:
        head, rows = table
        node_count = _node_count(head, path, 1)  # the first line the line parser reads
        try:
            return validate_graph(np.stack([rows["i"], rows["j"]]), rows["w"], node_count)
        except GraphError:
            pass
    return _read_graph_lines(path)


def _read_graph_lines(path) -> Graph:
    lines = _content_lines(path)
    first = next(lines, None)
    if first is None:
        raise FileFormatError("missing header 'N <node_count>'", path, 1)
    node_count = _node_count(first[1], path, first[0])
    rows = _rows(lines, path, 3, lambda p: ((int(p[0]), int(p[1])), float(p[2])),
                 "expected edge line 'i j w'", "unparsable edge line {line!r}")
    linenos, edges, weights = [], [], []  # flat lists: a list of row tuples costs GC time
    for lineno, (ends, w) in rows:
        linenos.append(lineno)
        edges.append(ends)
        weights.append(w)
    try:
        return validate_graph(edges, weights, node_count)
    except GraphError as exc:
        raise FileFormatError(str(exc), path, linenos[exc.index]) from exc


def write_graph(path: str | os.PathLike, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"N {g.node_count}\n")
        ii, jj = (ends.tolist() for ends in g.endpoint_arrays())
        for i, j, w in zip(ii, jj, g.weights.tolist()):
            fh.write(f"{i} {j} {w!r}\n")


def read_value_map(path: str | os.PathLike) -> dict[int, float]:
    """Parse ``i v`` lines into a node -> value mapping, in file order."""
    table = _table(path, _VALUE_ROW)
    if table is not None:
        ids, values = table[1]["i"], table[1]["v"]
        if not ids.size or (ids.min() >= 0 and np.isfinite(values).all()):
            result = dict(zip(ids.tolist(), values.tolist()))
            if len(result) == ids.size:  # no node twice
                return result
    return _read_value_map_lines(path)


def _read_value_map_lines(path) -> dict[int, float]:
    values: dict[int, float] = {}
    rows = _rows(_content_lines(path), path, 2, lambda p: (int(p[0]), float(p[1])),
                 "expected line 'i v'", "unparsable line {line!r}")
    for lineno, (i, v) in rows:
        if i < 0:
            raise FileFormatError(f"negative node id {i}", path, lineno)
        if i in values:
            raise FileFormatError(f"duplicate entry for node {i}", path, lineno)
        if not np.isfinite(v):
            raise FileFormatError(f"non-finite value for node {i}", path, lineno)
        values[i] = v
    return values


def read_signal(path: str | os.PathLike, g: Graph) -> np.ndarray:
    """Read a full signal on g; every node must be assigned exactly once."""
    values = read_value_map(path)
    missing = set(range(g.node_count)) - set(values)
    extra = set(values) - set(range(g.node_count))
    if missing or extra:
        raise FileFormatError(
            f"signal must cover exactly nodes 0..{g.node_count - 1} "
            f"(missing {sorted(missing)[:5]}, extra {sorted(extra)[:5]})",
            path,
        )
    return as_signal(g, [values[i] for i in range(g.node_count)])


def write_value_map(path: str | os.PathLike, values) -> None:
    """Write ``i v`` lines for a signal array (node i, value) or ``(i, v)`` pairs."""
    items = enumerate(values.tolist()) if isinstance(values, np.ndarray) else values
    with open(path, "w", encoding="utf-8") as fh:
        for i, v in items:
            fh.write(f"{i} {float(v)!r}\n")


def read_partition(path: str | os.PathLike, g: Graph | None = None) -> Partition:
    assignment = read_value_map(path)
    labels: dict[int, int] = {}
    for i, c in assignment.items():
        if c != int(c):
            raise FileFormatError(
                f"cluster index for node {i} must be an integer", path, _line_of(path, i)
            )
        if c < 0:
            raise FileFormatError(f"negative cluster index for node {i}", path, _line_of(path, i))
        labels[i] = int(c)
    n = len(labels)
    # node ids are distinct and nonnegative, so they are 0..n-1 iff the largest is n-1
    if n and max(labels) != n - 1:
        raise FileFormatError("partition lines must cover exactly nodes 0..N-1", path)
    try:
        part = Partition.from_labels([labels[i] for i in range(n)])
    except NetlassoError as exc:
        raise FileFormatError(str(exc), path) from exc
    if g is not None and part.node_count != g.node_count:
        raise FileFormatError(
            f"partition covers {part.node_count} nodes, graph has {g.node_count}", path
        )
    return part


def write_partition(path: str | os.PathLike, partition: Partition) -> None:
    write_value_map(path, list(enumerate(partition.labels.tolist())))


def read_node_set(path: str | os.PathLike) -> tuple[int, ...]:
    table = _table(path, _NODE_ROW)
    if table is not None:
        ids = np.sort(table[1]["i"])
        if not ids.size or (ids[0] >= 0 and np.diff(ids).all()):
            return tuple(ids.tolist())
    return _read_node_set_lines(path)


def _read_node_set_lines(path) -> tuple[int, ...]:
    nodes = set()
    expected = "expected a node id, got {line!r}"
    for lineno, i in _rows(_content_lines(path), path, 1, lambda p: int(p[0]), expected, expected):
        if i < 0:
            raise FileFormatError(f"negative node id {i}", path, lineno)
        if i in nodes:
            raise FileFormatError(f"duplicate node {i}", path, lineno)
        nodes.add(i)
    return tuple(sorted(nodes))


def write_node_set(path: str | os.PathLike, nodes: Iterable[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in sorted(int(i) for i in nodes):
            fh.write(f"{i}\n")


def read_observations(path: str | os.PathLike, x_true: np.ndarray | None = None) -> Observations:
    """Read labels ``i y`` into Observations.

    Realized noise is recovered as y - x_true when the true signal is given,
    otherwise recorded as zero (unknown).
    """
    values = read_value_map(path)
    nodes = tuple(sorted(values))
    y = np.array([values[i] for i in nodes], dtype=np.float64)
    if x_true is not None:
        if nodes and nodes[-1] >= len(x_true):
            raise FileFormatError(
                f"observed node {nodes[-1]} outside the true signal's graph",
                path,
                _line_of(path, nodes[-1]),
            )
        eps = y - np.asarray(x_true, dtype=np.float64)[list(nodes)]
    else:
        eps = np.zeros(len(nodes))
    return Observations(nodes=nodes, y=y, eps=eps)


def write_observations(path: str | os.PathLike, obs: Observations) -> None:
    write_value_map(path, list(zip(obs.nodes, obs.y.tolist())))
