"""Performance benchmark: reference vs numpy exact counters.

Not a paper experiment — an engineering benchmark guarding the two
exact-counting implementations: the transparent pure-Python reference
(``repro.graphs.exact``) and the degree-ordered numpy counter
``fast_counts`` (``repro.graphs.fast``).  Both must agree (the property
tests enforce that); this file tracks their speed so workload builders
know which to reach for.
"""

import pytest

from repro.graphs import erdos_renyi, fast_counts, four_cycle_count, triangle_count


@pytest.fixture(scope="module")
def perf_graph():
    return erdos_renyi(300, 0.08, seed=5)


@pytest.mark.benchmark(group="perf-triangles")
def test_perf_reference_triangles(benchmark, perf_graph):
    result = benchmark(triangle_count, perf_graph)
    assert result == fast_counts(perf_graph)["triangles"]


@pytest.mark.benchmark(group="perf-fourcycles")
def test_perf_reference_four_cycles(benchmark, perf_graph):
    result = benchmark(four_cycle_count, perf_graph)
    assert result == fast_counts(perf_graph)["four_cycles"]


@pytest.mark.benchmark(group="perf-exact")
def test_perf_numpy_counts(benchmark, perf_graph):
    result = benchmark(fast_counts, perf_graph)
    assert result["triangles"] >= 0


def test_agreement_on_perf_graph(perf_graph):
    counts = fast_counts(perf_graph)
    assert triangle_count(perf_graph) == counts["triangles"]
    assert four_cycle_count(perf_graph) == counts["four_cycles"]
