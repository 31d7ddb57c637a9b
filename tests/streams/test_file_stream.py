"""FileEdgeStream: disk-backed arbitrary-order streaming."""

import pytest

from repro import obs
from repro.core import TriangleRandomOrder
from repro.graphs import erdos_renyi, triangle_count, write_edge_list
from repro.streams import POLICY_STRICT, FileEdgeStream, StreamFaultError


@pytest.fixture
def graph_file(tmp_path):
    graph = erdos_renyi(60, 0.2, seed=9)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return graph, path


class TestFileEdgeStream:
    def test_counts(self, graph_file):
        graph, path = graph_file
        stream = FileEdgeStream(path)
        assert stream.num_edges == graph.num_edges
        # isolated vertices are not representable in an edge list
        assert stream.num_vertices <= graph.num_vertices

    def test_tokens_match_file_graph(self, graph_file):
        graph, path = graph_file
        stream = FileEdgeStream(path)
        assert sorted(stream.edges()) == sorted(graph.edges())

    def test_deduplication(self, tmp_path):
        path = tmp_path / "dups.txt"
        path.write_text("0 1\n1 0\n1 2\n0 0\n")
        stream = FileEdgeStream(path, deduplicate=True)
        assert stream.num_edges == 2
        assert sorted(stream.edges()) == [(0, 1), (1, 2)]

    def test_no_dedup_passthrough(self, tmp_path):
        path = tmp_path / "dups.txt"
        path.write_text("0 1\n1 0\n1 2\n")
        stream = FileEdgeStream(path, deduplicate=False)
        assert stream.num_edges == 3
        assert list(stream.edges()) == [(0, 1), (0, 1), (1, 2)]

    def test_precounted_skips_counting_pass(self, graph_file):
        graph, path = graph_file
        stream = FileEdgeStream(path, precounted=(graph.num_vertices, graph.num_edges))
        assert stream.num_edges == graph.num_edges
        assert sorted(stream.edges()) == sorted(graph.edges())

    def test_multi_pass_replay(self, graph_file):
        _, path = graph_file
        stream = FileEdgeStream(path)
        first = list(stream.edges())
        second = list(stream.edges())
        assert first == second
        assert stream.passes_taken == 2

    def test_algorithm_runs_from_disk(self, graph_file):
        """An end-to-end check: stream a file through Theorem 2.1."""
        graph, path = graph_file
        truth = triangle_count(graph)
        stream = FileEdgeStream(path)
        result = TriangleRandomOrder(t_guess=max(1, truth), epsilon=0.5, seed=1).run(
            stream
        )
        assert result.estimate >= 0
        assert result.passes == 1


class TestFaultHandling:
    def _faults(self, telemetry):
        counters = telemetry.metrics.snapshot()["counters"]
        return {k: v for k, v in counters.items() if k.startswith("stream.faults.")}

    def test_counts_once_per_pass_and_not_at_construction(self, tmp_path):
        path = tmp_path / "faulty.txt"
        path.write_text("0 1\n1 0\n1 2\n0 0\n2 2\n")
        with obs.session(collect_env=False) as telemetry:
            stream = FileEdgeStream(path)
            assert stream.num_edges == 2
            assert self._faults(telemetry) == {}
            list(stream.edges())
            assert self._faults(telemetry) == {
                "stream.faults.self_loop": 2,
                "stream.faults.duplicate": 1,
            }
            list(stream.edges())
            assert self._faults(telemetry) == {
                "stream.faults.self_loop": 4,
                "stream.faults.duplicate": 2,
            }

    def test_strict_raises_at_construction(self, tmp_path):
        loop = tmp_path / "loop.txt"
        loop.write_text("0 1\n2 2\n")
        with pytest.raises(StreamFaultError, match="self loop"):
            FileEdgeStream(loop, policy=POLICY_STRICT)
        dup = tmp_path / "dup.txt"
        dup.write_text("0 1\n1 0\n")
        with pytest.raises(StreamFaultError, match="duplicate"):
            FileEdgeStream(dup, policy=POLICY_STRICT)
        assert FileEdgeStream(dup, deduplicate=False, policy=POLICY_STRICT).num_edges == 2
