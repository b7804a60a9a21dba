"""Text file formats: round trips and line-numbered rejection of bad input."""

import numpy as np
import pytest

from netlasso import fileio
from netlasso.errors import FileFormatError
from netlasso.graphs import Graph, Observations, Partition, validate_graph


@pytest.fixture
def g():
    return validate_graph([(0, 1), (1, 2)], [1.5, 2.0], 3)


def test_graph_roundtrip(tmp_path, g):
    path = tmp_path / "g.txt"
    fileio.write_graph(path, g)
    g2 = fileio.read_graph(path)
    assert g2.node_count == g.node_count
    assert g2.edges == g.edges
    assert np.array_equal(g2.weights, g.weights)


def test_graph_comments_and_blank_lines(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\n\nN 2\n0 1 1.0\n")
    assert fileio.read_graph(path).edge_count == 1


@pytest.mark.parametrize(
    "content,bad_line",
    [
        ("0 1 1.0\n", 1),  # missing header
        ("N 2\n0 1\n", 2),  # malformed edge line
        ("N 2\n0 0 1.0\n", 2),  # self loop
        ("N 2\n0 1 -3\n", 2),  # non-positive weight
        ("N 2\n0 1 1.0\n1 0 2.0\n", 3),  # duplicate edge, reversed order
        ("N 2\n0 5 1.0\n", 2),  # node out of range
        ("N 0\n", 1),  # bad node count
        ("N 1" + "0" * 400 + "\n0 1 1.0\n", 1),  # node count beyond int64
        ("# c\nN 9223372036854775808\n0 1 1.0\n", 2),  # node count beyond int64
        ("N 2\n0 1 nan\n", 2),  # non-finite weight
        ("N 2\n0 1 inf\n", 2),  # non-finite weight
        ("N 5\n3 4 1.0\n# c\n0 1 1.0\n\n1 2 1.0\n2 3 1.0\n4 3 2.0\n", 8),  # late duplicate
        ("N 5\n3 4 1.0\n0 1 1.0\n1 2 1.0\n0 2 0\n", 5),  # bad weight after good lines
        ("N 5\n3 4 1.0\n0 1 1.0\n1 2 1.0\n2 2 1.0\n", 5),  # self loop after good lines
    ],
)
def test_graph_errors_carry_line_numbers(tmp_path, content, bad_line):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(FileFormatError) as err:
        fileio.read_graph(path)
    assert err.value.line == bad_line


def test_read_graph_builds_one_graph(tmp_path, monkeypatch):
    post_init = Graph.__post_init__
    built = []

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Graph, "__post_init__", counting)
    path = tmp_path / "g.txt"
    path.write_text("N 4\n2 3 3.0\n0 1 1.0\n1 2 2.0\n")
    g = fileio.read_graph(path)
    assert len(built) == 1 and built[0] is g


def test_signal_roundtrip(tmp_path, g):
    path = tmp_path / "x.txt"
    x = np.array([0.25, -1.0, 3.5])
    fileio.write_value_map(path, x)
    assert np.array_equal(fileio.read_signal(path, g), x)


def test_signal_must_cover_all_nodes(tmp_path, g):
    path = tmp_path / "x.txt"
    path.write_text("0 1.0\n1 2.0\n")
    with pytest.raises(FileFormatError):
        fileio.read_signal(path, g)


def test_value_map_rejects_duplicates(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("0 1.0\n0 2.0\n")
    with pytest.raises(FileFormatError) as err:
        fileio.read_value_map(path)
    assert err.value.line == 2


def test_partition_roundtrip(tmp_path, g):
    path = tmp_path / "p.txt"
    p = Partition((frozenset({0, 1}), frozenset({2})))
    fileio.write_partition(path, p)
    p2 = fileio.read_partition(path, g)
    assert p2.clusters == p.clusters


def test_partition_rejects_fractional_cluster(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("0 0.5\n1 1\n")
    with pytest.raises(FileFormatError) as err:
        fileio.read_partition(path)
    assert err.value.line == 1


@pytest.mark.parametrize(
    "content,bad_line",
    [
        ("0 0\n# c\n\n1 1.5\n", 4),  # the line parser's path
        ("1 0\n0 -1\n", 2),  # negative cluster index
    ],
)
def test_partition_cluster_errors_carry_line_numbers(tmp_path, content, bad_line):
    path = tmp_path / "p.txt"
    path.write_text(content)
    with pytest.raises(FileFormatError) as err:
        fileio.read_partition(path)
    assert err.value.line == bad_line


@pytest.mark.parametrize(
    "content",
    [
        "0 0\n1000000000000 1\n",  # node id far beyond the node count
        "0 0\n1 1000000000000\n",  # cluster index far beyond the node count
    ],
)
def test_partition_rejects_huge_ids_without_allocating(tmp_path, content):
    path = tmp_path / "p.txt"
    path.write_text(content)
    with pytest.raises(FileFormatError):
        fileio.read_partition(path)


def test_node_set_roundtrip(tmp_path):
    path = tmp_path / "m.txt"
    fileio.write_node_set(path, [4, 1, 2])
    assert fileio.read_node_set(path) == (1, 2, 4)


def test_node_set_rejects_duplicates(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1\n1\n")
    with pytest.raises(FileFormatError) as err:
        fileio.read_node_set(path)
    assert err.value.line == 2


def test_observations_roundtrip_with_truth(tmp_path):
    path = tmp_path / "obs.txt"
    obs = Observations(nodes=(0, 2), y=np.array([1.5, -0.5]), eps=np.array([0.5, -0.5]))
    fileio.write_observations(path, obs)
    x_true = np.array([1.0, 9.9, 0.0])
    obs2 = fileio.read_observations(path, x_true)
    assert obs2.nodes == (0, 2)
    assert np.array_equal(obs2.y, obs.y)
    assert np.array_equal(obs2.eps, obs.eps)


def test_observations_reject_negative_node(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("0 1.0\n-1 2.0\n")
    with pytest.raises(FileFormatError) as err:
        fileio.read_observations(path, np.array([1.0, 2.0]))
    assert err.value.line == 2


@pytest.mark.parametrize("content,bad_line", [("0 1.0\n5 2.0\n", 2), ("# c\n3 1.0\n\n0 2.0\n", 2)])
def test_observations_reject_node_outside_true_signal(tmp_path, content, bad_line):
    path = tmp_path / "obs.txt"
    path.write_text(content)
    with pytest.raises(FileFormatError) as err:
        fileio.read_observations(path, np.array([1.0, 2.0]))
    assert err.value.line == bad_line and "outside the true signal" in str(err.value)
