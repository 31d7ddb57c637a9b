"""The numpy exact counter vs the reference counters: exact equivalence."""

import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    book_graph,
    complete_bipartite,
    complete_graph,
    erdos_renyi,
    four_cycle_count,
    star_graph,
    triangle_count,
    wedge_counts,
)
from repro.graphs import fast
from repro.graphs.fast import fast_counts

SRC = Path(__file__).resolve().parents[2] / "src"

# Vertex labels are opaque to the counter; the oracle runs on 0..n-1.
LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "mixed": lambda i: (i, "t") if i % 3 == 0 else (str(i) if i % 3 == 1 else i),
}

edge_strategy = st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(
    lambda e: e[0] != e[1]
)
base_strategy = st.one_of(
    st.lists(edge_strategy, max_size=45).map(Graph.from_edges),
    st.integers(0, 9).map(star_graph),
    st.tuples(st.integers(1, 5), st.integers(1, 5)).map(
        lambda ab: complete_bipartite(*ab)
    ),
    st.integers(0, 8).map(complete_graph),
)


@st.composite
def graph_pairs(draw):
    """``(labelled graph, the same graph on 0..n-1)``, with isolated vertices."""
    graph = draw(base_strategy)
    for extra in range(draw(st.integers(0, 3))):
        graph.add_vertex(100 + extra)
    oracle = graph.relabeled({v: i for i, v in enumerate(graph.vertices())})
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    return oracle.relabeled({v: label(v) for v in oracle.vertices()}), oracle


def _wedge_f2(graph):
    return sum(x * x for x in wedge_counts(graph).values())


class TestEquivalence:
    @given(graph_pairs())
    @settings(max_examples=60, deadline=None)
    def test_triangles(self, pair):
        g, oracle = pair
        assert fast_counts(g)["triangles"] == triangle_count(oracle)

    @given(graph_pairs())
    @settings(max_examples=60, deadline=None)
    def test_four_cycles(self, pair):
        g, oracle = pair
        assert fast_counts(g)["four_cycles"] == four_cycle_count(oracle)

    @given(graph_pairs())
    @settings(max_examples=60, deadline=None)
    def test_wedge_f2(self, pair):
        g, oracle = pair
        assert fast_counts(g)["wedge_f2"] == _wedge_f2(oracle)

    @given(graph_pairs())
    @settings(max_examples=40, deadline=None)
    def test_combined(self, pair):
        g, oracle = pair
        assert fast_counts(g) == {
            "triangles": triangle_count(oracle),
            "four_cycles": four_cycle_count(oracle),
            "wedge_f2": _wedge_f2(oracle),
        }

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_many_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(fast, "_CHUNK_PATHS", chunk)
        for g in (erdos_renyi(60, 0.25, seed=4), book_graph(9), complete_graph(9)):
            assert fast_counts(g) == {
                "triangles": triangle_count(g),
                "four_cycles": four_cycle_count(g),
                "wedge_f2": _wedge_f2(g),
            }

    def test_without_scipy(self):
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from repro.graphs import erdos_renyi, four_cycle_count, triangle_count\n"
            "from repro.graphs.fast import fast_counts\n"
            "g = erdos_renyi(40, 0.3, seed=2)\n"
            "counts = fast_counts(g)\n"
            "assert counts['triangles'] == triangle_count(g), counts\n"
            "assert counts['four_cycles'] == four_cycle_count(g), counts\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", script], env=env, check=True)


class TestClosedForms:
    def test_complete_graph(self):
        counts = fast_counts(complete_graph(12))
        assert counts["triangles"] == comb(12, 3)
        assert counts["four_cycles"] == 3 * comb(12, 4)

    def test_bipartite(self):
        counts = fast_counts(complete_bipartite(5, 7))
        assert counts["triangles"] == 0
        assert counts["four_cycles"] == comb(5, 2) * comb(7, 2)

    def test_empty(self):
        assert fast_counts(Graph()) == {
            "triangles": 0,
            "four_cycles": 0,
            "wedge_f2": 0,
        }

    def test_medium_random_graph(self):
        g = erdos_renyi(120, 0.15, seed=9)
        counts = fast_counts(g)
        assert counts["triangles"] == triangle_count(g)
        assert counts["four_cycles"] == four_cycle_count(g)
