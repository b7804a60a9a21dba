"""The array-path file readers against the line-by-line readers they replaced
(``fileio_reference``): files written by the package writers, then mutated,
must read to the same graph, value map or node set, or fail with the same
error type, message and line. Plain files must never reach the line parser."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fileio_reference as ref
from netlasso import fileio
from netlasso.errors import FileFormatError, NetlassoError
from netlasso.generate import PlantedPartitionConfig, generate_planted_partition
from netlasso.graphs import Observations, validate_graph

READERS = {
    "graph": (fileio.read_graph, ref.read_graph),
    "values": (fileio.read_value_map, ref.read_value_map),
    "nodes": (fileio.read_node_set, ref.read_node_set),
}
TOKENS = [
    "+{}", "{}.0", "00{}", "-{}", "1_{}", "{}_0", "{}e0", "0x{}", "{}#",
    "nan", "-nan", "inf", "-inf", "infinity", "1e309", "1e-400", "5e-324", "0x1p3",
    ".5", "5.", "+0", "-0", "+.5e+3", "1,5", "", "x", str(2**63), str(-(2**63)), str(10**20),
]
SPACES = ["\t", "  ", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", " "]
NON_ASCII_DIGITS = [
    str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"),
    str.maketrans("0123456789", "０１２３４５６７８９"),
]


def outcome(read, path):
    """What a reader makes of a file: its result, with every float as its
    bits and dict order kept, or its error type, message and line."""
    try:
        result = read(path)
    except NetlassoError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(result, dict):
        return [(type(i), i, v.hex()) for i, v in result.items()]
    return result


def assert_same(kind, path):
    new, old = READERS[kind]
    assert outcome(new, path) == outcome(old, path)


@st.composite
def written_lines(draw, kind, tmp):
    """The lines of a file that the package writer makes for ``kind``."""
    path = tmp / "written.txt"
    n = draw(st.integers(1, 8))
    if kind == "graph":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        weight = st.one_of(st.floats(1e-300, 1e300), st.sampled_from([1.0, 2.0**-60, 5e-324]))
        fileio.write_graph(path, validate_graph(edges, [draw(weight) for _ in edges], n))
    elif kind == "values":
        ids = draw(st.lists(st.one_of(st.integers(0, 3 * n), st.just(2**62)), unique=True))
        value = st.floats(allow_nan=False, allow_infinity=False)
        fileio.write_value_map(path, [(i, draw(value)) for i in ids])
    else:
        fileio.write_node_set(path, draw(st.sets(st.integers(0, 3 * n))))
    return path.read_text().splitlines()


def mutate(data, lines):
    """Apply a few drawn edits: comments, blank lines, odd whitespace, odd
    tokens, repeated, reversed, self-loop or shuffled lines, missing and
    extra tokens, and truncation."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(0, 4))):
        op = data.draw(st.sampled_from([
            "comment", "comment inline", "blank", "space", "token", "digits", "repeat",
            "reverse", "loop", "drop", "extra", "swap", "truncate",
        ]))
        if op in ("comment", "blank", "truncate") or not lines:
            at = data.draw(st.integers(0, len(lines)))
            if op == "comment":
                lines.insert(at, "# note")
            elif op == "truncate":
                lines = lines[:at]
            else:
                lines.insert(at, data.draw(st.sampled_from(["", " ", "\t", " \t "])))
            continue
        k = data.draw(st.integers(0, len(lines) - 1))
        tokens = lines[k].split(" ")
        t = data.draw(st.integers(0, len(tokens) - 1))
        if op == "comment inline":
            lines[k] += data.draw(st.sampled_from([" # note", "#", " #1 2"]))
        elif op == "space":
            lines[k] = data.draw(st.sampled_from(SPACES)).join(tokens)
        elif op == "token":
            tokens[t] = data.draw(st.sampled_from(TOKENS)).format(tokens[t])
        elif op == "digits":
            tokens[t] = tokens[t].translate(data.draw(st.sampled_from(NON_ASCII_DIGITS)))
        elif op == "repeat":
            lines.insert(data.draw(st.integers(0, len(lines))), lines[k])
        elif op == "reverse" and len(tokens) > 1:
            tokens[0], tokens[1] = tokens[1], tokens[0]
        elif op == "loop" and len(tokens) > 1:
            tokens[1] = tokens[0]
        elif op == "drop":
            tokens.pop()
        elif op == "extra":
            tokens.append(data.draw(st.sampled_from(["7", "1.0", "x"])))
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        if op not in ("space", "repeat", "swap"):
            lines[k] = " ".join(tokens)
    return lines


@pytest.mark.parametrize("kind", list(READERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_files_read_as_the_line_parser_reads_them(tmp_path_factory, kind, data):
    tmp = tmp_path_factory.mktemp(kind)
    lines = mutate(data, data.draw(written_lines(kind, tmp)))
    end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + data.draw(st.sampled_from([end, ""]))
    path = tmp / "mutated.txt"
    path.write_bytes(text.encode("utf-8"))
    assert_same(kind, path)


@pytest.mark.parametrize(
    "content",
    [
        "N 3\r\n0 1 1.0\r\n1 2 2.0\r\n",
        "N 3\n0\t1\t1.0\n1 2  2.0\n",
        "N 3\n0 1\x0b1.0\n1\x0c2 2.0\n",
        "N 3\n0 1\x1c1.0\n1 2\x852.0\n",
        "N 3\n+0 1 1.0\n",
        "N 3\n0 1 1_0\n",
        "N 3\n1_0 1 1.0\n",
        "N 3\n0 1 0x1p3\n",
        "N 3\n0 1 1e309\n",
        "N 3\n0 1 infinity\n",
        "N 3\n0 1 .5\n1 2 5.\n",
        "N 3\n0 1 1.0 # mid-line comment\n",
        "N 3\n0 12345678901234567890 1.0\n",
        "N 3\n0 1 1e-400\n",
        "N 3\n0 1.0 1.0\n",
        "N 3\n0 ١ 1.0\n",
        "N 3\n",
        "N 3",
        "N 3\n0 1 1.0",
        "\nN 3\n0 1 1.0\n",
        "N 1_000\n0 1 1.0\n",
        "N 3\n\n \t\n",
        "",
        "N 3\n0 1 1.0\n1 2 2.0\n2 1 3.0\n",
        "N 3\n0 1 1.0\n1 2\n",
        "N 3\n0 1 1.0 2\n",
    ],
)
def test_edge_case_graph_files(tmp_path, content):
    path = tmp_path / "g.txt"
    path.write_bytes(content.encode("utf-8"))
    assert_same("graph", path)


@pytest.mark.parametrize(
    "content",
    ["", "\n\n", "0 1.5\r\n1 -0.0\r\n", "3 1.0\n1 2.0\n3 3.0\n", "0 nan\n", "-1 1.0\n",
     "0 1e309\n", "0 1\n1\n", "0 1 2\n", "1_0 1\n", "١ 1\n", f"{2**70} 1.0\n", "0 1.0 # c\n"],
)
def test_edge_case_value_files(tmp_path, content):
    path = tmp_path / "v.txt"
    path.write_bytes(content.encode("utf-8"))
    assert_same("values", path)


@pytest.mark.parametrize(
    "content",
    ["", "1\n1\n", "3\n1\n2", "-1\n", "1 2\n", "+1\n1\n", "1.0\n", f"{2**70}\n", "1\r\n2\r\n"],
)
def test_edge_case_node_files(tmp_path, content):
    path = tmp_path / "m.txt"
    path.write_bytes(content.encode("utf-8"))
    assert_same("nodes", path)


def test_plain_files_take_the_array_path(tmp_path, monkeypatch):
    # a change that sent every file to the line parser would pass every other
    # test here and lose the array path's speed
    g, partition = generate_planted_partition(
        PlantedPartitionConfig((100,) * 10, 0.1, 5e-4, 1.0, seed=21)
    )
    x = np.random.default_rng(0).normal(size=g.node_count)
    nodes = tuple(range(0, g.node_count, 10))
    y = x[list(nodes)] + 0.5
    obs = Observations(nodes, y, y - x[list(nodes)])
    fileio.write_graph(tmp_path / "graph.txt", g)
    fileio.write_partition(tmp_path / "partition.txt", partition)
    fileio.write_value_map(tmp_path / "signal.txt", x)
    fileio.write_node_set(tmp_path / "m.txt", nodes)
    fileio.write_observations(tmp_path / "obs.txt", obs)

    def no_line_parser(path):
        raise AssertionError(f"{path} went to the line parser")

    monkeypatch.setattr(fileio, "_content_lines", no_line_parser)
    assert fileio.read_graph(tmp_path / "graph.txt") == g
    assert fileio.read_partition(tmp_path / "partition.txt", g) == partition
    assert np.array_equal(fileio.read_signal(tmp_path / "signal.txt", g), x)
    assert fileio.read_node_set(tmp_path / "m.txt") == nodes
    assert fileio.read_observations(tmp_path / "obs.txt", x) == obs


def test_line_parser_still_reports_array_path_rejections(tmp_path):
    # a duplicate far down the file: the array path finds it and the line
    # parser names its line
    g, _ = generate_planted_partition(PlantedPartitionConfig((100,) * 10, 0.1, 5e-4, 1.0, seed=21))
    path = tmp_path / "graph.txt"
    fileio.write_graph(path, g)
    lines = path.read_text().splitlines()
    lines.append(lines[5])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        fileio.read_graph(path)
    assert err.value.line == len(lines) and str(err.value).endswith(f"duplicate edge {g.edges[4]}")
