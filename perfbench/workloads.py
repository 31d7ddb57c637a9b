"""The three benchmark workloads: a graph, a stream model and the algorithms run on it.

Each workload fixes its graph (the generator seed is part of the
workload, so every run measures the same graph); the ``--seed``
argument only picks the trial seeds, i.e. each trial's stream order
and algorithm seed.  Baseline parameters come from the public budget
solvers of :mod:`repro.verify.budgets` at (eps, delta) = (0.3, 1/3), so
every algorithm is configured for the same target accuracy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Tuple

from repro.baselines import (
    BeraChakrabartiFourCycles,
    CormodeJowhariTriangles,
    EdgeSamplingFourCycles,
    EdgeSamplingTriangles,
    TriestImpr,
    TwoPassTriangles,
    WedgePairSamplingFourCycles,
)
from repro.core import (
    FourCycleAdjacencyDiamond,
    FourCycleArbitraryOnePass,
    FourCycleArbitraryThreePass,
    FourCycleDistinguisher,
    FourCycleL2Sampling,
    FourCycleMoment,
    TriangleRandomOrder,
)
from repro.graphs import exact
from repro.graphs.generators import power_law_graph
from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list
from repro.streams import AdjacencyListStream, FileEdgeStream, RandomOrderStream
from repro.streams.models import StreamSource
from repro.verify import budgets

EPSILON = 0.3
DELTA = 1.0 / 3.0
GRAPH_SEED = 1
SAMPLE_FILE = Path("data") / "sample_collaboration.txt"

PAPER = "paper"
BASELINES = "baselines"


@dataclass(frozen=True)
class Fixture:
    """A built workload graph with its exact counts."""

    graph: Graph
    counts: Dict[str, int]

    @property
    def m(self) -> int:
        return self.graph.num_edges

    @property
    def n(self) -> int:
        return self.graph.num_vertices


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm of a workload.

    ``max_median_error`` is the correctness gate: a run fails every
    trial of the algorithm when the median relative error of its trials
    exceeds it.  The bounds are loose on purpose: 1.5-3x the largest
    median of three trials' errors seen over 40 seeds (12 for A5) at the
    seed commit, and below 1 where that allows, so all-zero estimates
    fail.  They catch broken output, not (eps, delta) violations, which
    ``repro verify`` certifies.
    """

    label: str
    group: str
    problem: str  # "triangles" or "four_cycles": the count it estimates
    passes: int  # the pass count its theorem (or paper) states
    make: Callable[[Fixture, int], object]
    max_median_error: float


@dataclass(frozen=True)
class Workload:
    """A graph, its stream model and its algorithms.

    ``lead`` names the paper algorithm the workload is built around; its
    per-token cost is reported on its own as ``lead.ns_per_token``.
    """

    name: str
    lead: str
    build_graph: Callable[[Path], Graph]
    stream: Callable[[Fixture, Path, int], StreamSource]
    algorithms: Tuple[AlgorithmSpec, ...]
    # Pure-Python oracle cross-checks of the counts the algorithms use.
    oracle: Tuple[Tuple[str, Callable[[Graph], int]], ...]
    header_counts: Callable[[Path], Dict[str, int]] = lambda root: {}


def _budget(solver, fixture: Fixture, problem: str) -> Dict[str, float]:
    return solver(fixture.counts[problem], fixture.m, fixture.n, EPSILON, DELTA).params


MVV_TWOPASS = AlgorithmSpec(
    "mvv-twopass", BASELINES, "triangles", 2,
    lambda f, s: TwoPassTriangles(
        seed=s, **_budget(budgets.mvv_twopass_budget, f, "triangles")
    ),
    max_median_error=2.0,
)


TRIANGLE_ORACLE = (("triangles", exact.triangle_count),)
FOUR_CYCLE_ORACLE = (("four_cycles", exact.four_cycle_count),)


def _sample_header(root: Path) -> Dict[str, int]:
    """The exact counts the sample file states in its ``#`` header."""
    counts: Dict[str, int] = {}
    with open(root / SAMPLE_FILE, encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("#"):
                break
            for key in ("triangles", "four_cycles"):
                found = re.search(rf"\b{key}=(\d+)", line)
                if found:
                    counts[key] = int(found.group(1))
    return counts


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="tri-powerlaw-random",
            lead="A1",
            build_graph=lambda root: power_law_graph(
                3000, exponent=2.3, min_weight=6, seed=GRAPH_SEED
            ),
            stream=lambda f, root, s: RandomOrderStream(f.graph, seed=s),
            algorithms=(
                AlgorithmSpec(
                    "A1", PAPER, "triangles", 1,
                    lambda f, s: TriangleRandomOrder(
                        t_guess=f.counts["triangles"], epsilon=EPSILON, seed=s
                    ),
                    max_median_error=0.9,
                ),
                MVV_TWOPASS,
                AlgorithmSpec(
                    "triest-impr", BASELINES, "triangles", 1,
                    lambda f, s: TriestImpr(
                        seed=s, **_budget(budgets.triest_impr_budget, f, "triangles")
                    ),
                    max_median_error=0.9,
                ),
                AlgorithmSpec(
                    "edge-sampling-triangles", BASELINES, "triangles", 1,
                    lambda f, s: EdgeSamplingTriangles(
                        seed=s,
                        **_budget(budgets.edge_sampling_triangle_budget, f, "triangles"),
                    ),
                    max_median_error=2.0,
                ),
                AlgorithmSpec(
                    "cormode-jowhari", BASELINES, "triangles", 1,
                    # Deterministic given the stream: its randomness is the order.
                    lambda f, s: CormodeJowhariTriangles(
                        **_budget(budgets.cormode_jowhari_budget, f, "triangles")
                    ),
                    max_median_error=2.0,
                ),
            ),
            oracle=TRIANGLE_ORACLE,
        ),
        Workload(
            name="c4-adjacency-tiny",
            lead="A5",
            build_graph=lambda root: power_law_graph(
                100, exponent=2.3, min_weight=3, seed=GRAPH_SEED
            ),
            stream=lambda f, root, s: AdjacencyListStream(f.graph, seed=s),
            algorithms=(
                AlgorithmSpec(
                    "A3", PAPER, "four_cycles", 2,
                    lambda f, s: FourCycleAdjacencyDiamond(
                        t_guess=f.counts["four_cycles"], epsilon=EPSILON, seed=s
                    ),
                    max_median_error=0.5,
                ),
                AlgorithmSpec(
                    "A4", PAPER, "four_cycles", 1,
                    lambda f, s: FourCycleMoment(
                        t_guess=f.counts["four_cycles"], epsilon=EPSILON, seed=s
                    ),
                    max_median_error=2.0,
                ),
                AlgorithmSpec(
                    "A5", PAPER, "four_cycles", 1,
                    lambda f, s: FourCycleL2Sampling(
                        t_guess=f.counts["four_cycles"], epsilon=EPSILON, seed=s
                    ),
                    max_median_error=1.5,
                ),
                AlgorithmSpec(
                    "wedge-pair-sampling", BASELINES, "four_cycles", 1,
                    lambda f, s: WedgePairSamplingFourCycles(
                        seed=s, **_budget(budgets.wedge_pair_budget, f, "four_cycles")
                    ),
                    max_median_error=3.5,
                ),
            ),
            oracle=FOUR_CYCLE_ORACLE,
        ),
        Workload(
            name="c4-file-arbitrary",
            lead="A6",
            build_graph=lambda root: read_edge_list(root / SAMPLE_FILE)[0],
            stream=lambda f, root, s: FileEdgeStream(root / SAMPLE_FILE),
            algorithms=(
                AlgorithmSpec(
                    "A6", PAPER, "four_cycles", 3,
                    lambda f, s: FourCycleArbitraryThreePass(
                        t_guess=f.counts["four_cycles"], epsilon=EPSILON, seed=s
                    ),
                    max_median_error=0.5,
                ),
                AlgorithmSpec(
                    # Outside its dense regime here (T4 << n^2), so its
                    # bound only rules out nonsense, e.g. a median of 0.
                    "A7", PAPER, "four_cycles", 1,
                    lambda f, s: FourCycleArbitraryOnePass(
                        t_guess=f.counts["four_cycles"], epsilon=EPSILON, seed=s
                    ),
                    max_median_error=2.0,
                ),
                AlgorithmSpec(
                    # A distinguisher: estimate is t_guess when it finds a
                    # four-cycle and 0 otherwise, so its relative error is
                    # 0 or 1 and the median is below 1/2 iff most trials
                    # decide "T > 0" correctly.
                    "A8", PAPER, "four_cycles", 2,
                    lambda f, s: FourCycleDistinguisher(
                        t_guess=f.counts["four_cycles"], seed=s
                    ),
                    max_median_error=0.5,
                ),
                AlgorithmSpec(
                    "edge-sampling-fourcycles", BASELINES, "four_cycles", 1,
                    lambda f, s: EdgeSamplingFourCycles(
                        seed=s,
                        **_budget(budgets.edge_sampling_c4_budget, f, "four_cycles"),
                    ),
                    max_median_error=3.0,
                ),
                AlgorithmSpec(
                    "bera-chakrabarti", BASELINES, "four_cycles", 2,
                    lambda f, s: BeraChakrabartiFourCycles(
                        t_guess=f.counts["four_cycles"], epsilon=EPSILON, seed=s
                    ),
                    max_median_error=0.9,
                ),
                MVV_TWOPASS,
            ),
            oracle=TRIANGLE_ORACLE + FOUR_CYCLE_ORACLE,
            header_counts=_sample_header,
        ),
    )
}
