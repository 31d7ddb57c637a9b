"""Moderate-scale smoke runs: the algorithms at 10x the unit-test sizes.

Not a performance suite — a guard that nothing in the pipeline is
accidentally quadratic in the wrong place and that accuracy holds as
the workloads grow.
"""

import statistics

import pytest

from repro.core import FourCycleArbitraryThreePass, TriangleRandomOrder
from repro.graphs import fast_counts, planted_diamonds, planted_triangles
from repro.streams import RandomOrderStream


@pytest.mark.parametrize("n,planted,noise", [(8000, 1200, 4000)])
def test_triangle_at_scale(n, planted, noise):
    graph = planted_triangles(n, planted, extra_edges=noise, seed=5)
    truth = fast_counts(graph)["triangles"]
    # c = 1 (no log factor): dense enough for accuracy at this T
    # (c = 0.05 is the space-sweep setting, far too thin to estimate)
    estimates = [
        TriangleRandomOrder(
            t_guess=truth, epsilon=0.3, c=1.0, use_log_factor=False, seed=seed
        )
        .run(RandomOrderStream(graph, seed=700 + seed))
        .estimate
        for seed in range(3)
    ]
    median = statistics.median(estimates)
    assert abs(median - truth) / truth < 0.35


def test_threepass_at_scale():
    graph = planted_diamonds(9000, [12] * 180, extra_edges=1500, seed=6)
    truth = fast_counts(graph)["four_cycles"]
    result = FourCycleArbitraryThreePass(
        t_guess=truth, epsilon=0.3, eta=2.0, c=0.5, use_log_factor=False, seed=2
    ).run(RandomOrderStream(graph, seed=9))
    assert result.relative_error(truth) < 0.3
    # genuinely sub-sampled, and sub-linear in m on the sampling side
    assert result.details["p"] < 1.0
