"""Theorem 2.1's block-batched single pass.

``TriangleRandomOrder`` reads its stream in blocks: level membership is
hashed for a whole block through the stacked kernel (and not at all for
levels whose ``p_i`` admits every hash value), the closed levels and the
prefix ``S`` are probed with set-disjointness tests, and the meter is
updated once per category per block.  The reference below is the
token-by-token loop that pass replaces: one scalar ``KWiseHash.bernoulli``
call per vertex and level, one ``meter.add`` per stored item.
Estimates, details, peak words and per-category peaks must agree exactly.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Set

import pytest

from repro import obs
from repro.core import TriangleRandomOrder
from repro.core.result import EstimateResult
from repro.core.triangle_random_order import _BLOCK_TOKENS, _adj_add, _common_neighbors
from repro.graphs import Graph
from repro.graphs.generators import power_law_graph
from repro.graphs.graph import normalize_edge
from repro.resilience import FaultPlan, FaultyStream
from repro.sketches.hashing import KWiseHash
from repro.streams import ArbitraryOrderStream, RandomOrderStream, ValidatedStream
from repro.streams.meter import SpaceMeter

SRC = Path(__file__).resolve().parents[2] / "src"

def reference_run(algorithm: TriangleRandomOrder, stream) -> EstimateResult:
    """The token-by-token pass, with the same post-processing."""
    n = max(2, stream.num_vertices)
    m = stream.num_edges
    meter = SpaceMeter()
    if m == 0:
        return EstimateResult(0.0, 1, meter, algorithm.name, {"empty": True})

    sqrt_t = math.sqrt(algorithm.t_guess)
    num_levels = max(0, math.ceil(math.log2(sqrt_t))) if sqrt_t > 1 else 0
    levels = [] if algorithm.disable_heavy_path else list(range(num_levels + 1))

    log_factor = math.log2(n) if algorithm.use_log_factor else 1.0
    sample_const = 10.0 * algorithm.c * log_factor / (algorithm.epsilon**2)
    level_prob = [min(1.0, sample_const / (2**i)) for i in levels]
    prefix_len = [min(m, math.floor(m * (2**i) / sqrt_t)) for i in levels]
    if levels:
        prefix_len[-1] = m
        oracle_prob = level_prob[-1]
    else:
        oracle_prob = 1.0

    level_hash = [
        KWiseHash(k=8, seed=algorithm.seed, namespace=f"triangle-random-order.level[{i}]")
        for i in levels
    ]
    level_adj: List[Dict] = [dict() for _ in levels]

    r = min(1.0, algorithm.c / (algorithm.epsilon * sqrt_t))
    s_len = max(1, math.ceil(r * m))
    r_effective = s_len / m

    s_adj: Dict = {}
    s_edges = []
    candidates_c: Set = set()
    potential_p: Set = set()

    for pos, (u, v) in enumerate(stream.edges(), start=1):
        edge = normalize_edge(u, v)
        for i in levels:
            if pos <= prefix_len[i]:
                if level_hash[i].bernoulli(u, level_prob[i]) or level_hash[i].bernoulli(
                    v, level_prob[i]
                ):
                    _adj_add(level_adj[i], u, v)
                    meter.add(f"level_{i}_edges")
            elif edge not in potential_p and _common_neighbors(level_adj[i], u, v):
                potential_p.add(edge)
                meter.add("potential_heavy_P")
        if pos <= s_len:
            _adj_add(s_adj, u, v)
            s_edges.append(edge)
            meter.add("prefix_S")
        elif edge not in candidates_c and _common_neighbors(s_adj, u, v):
            candidates_c.add(edge)
            meter.add("candidates_C")
    for u, v in s_edges:
        edge = (u, v)
        if edge not in candidates_c and _common_neighbors(s_adj, u, v):
            candidates_c.add(edge)
            meter.add("candidates_C")

    oracle_adj = level_adj[-1] if level_adj else {}
    heavy_threshold = oracle_prob * sqrt_t
    heavy_cache: Dict = {}

    def is_heavy(u, v):
        edge = normalize_edge(u, v)
        if edge not in heavy_cache:
            heavy_cache[edge] = len(_common_neighbors(oracle_adj, u, v)) >= heavy_threshold
        return heavy_cache[edge]

    light_wedge_pairs = 0
    for u, v in candidates_c:
        if is_heavy(u, v):
            continue
        for w in _common_neighbors(s_adj, u, v):
            if not is_heavy(u, w) and not is_heavy(v, w):
                light_wedge_pairs += 1
    t0_hat = light_wedge_pairs / (3.0 * r_effective**2)

    by_other_heavy = [0, 0, 0]
    heavy_caught = 0
    for u, v in potential_p:
        if not is_heavy(u, v):
            continue
        heavy_caught += 1
        for w in _common_neighbors(oracle_adj, u, v):
            by_other_heavy[int(is_heavy(u, w)) + int(is_heavy(v, w))] += 1
    n0, n1, n2 = by_other_heavy
    heavy_hat = (n0 + n1 / 2 + n2 / 3) / oracle_prob

    details = {
        "t0_hat": t0_hat,
        "heavy_hat": heavy_hat,
        "num_levels": len(levels),
        "oracle_prob": oracle_prob,
        "heavy_threshold": heavy_threshold,
        "prefix_fraction_r": r_effective,
        "size_S": len(s_edges),
        "size_C": len(candidates_c),
        "size_P": len(potential_p),
        "heavy_edges_caught": heavy_caught,
        "level_edge_counts": [
            sum(len(neigh) for neigh in adj.values()) // 2 for adj in level_adj
        ],
    }
    return EstimateResult(t0_hat + heavy_hat, stream.passes_taken, meter, algorithm.name, details)


def _outcome(result):
    return (
        repr(result.estimate),
        result.details,
        result.space.peak,
        result.space.breakdown(),
    )


def assert_matches_reference(make_stream, **kwargs):
    """Run both passes on fresh copies of the stream; return the batched result."""
    batched = TriangleRandomOrder(**kwargs).run(make_stream())
    reference = reference_run(TriangleRandomOrder(**kwargs), make_stream())
    assert _outcome(batched) == _outcome(reference)
    return batched


def _base_graph():
    return power_law_graph(800, exponent=2.3, min_weight=8, seed=3)  # m = 9365


def _shuffled_prefix(m, seed=0):
    """The first ``m`` edges of the base graph in a seeded order."""
    edges = sorted(_base_graph().edges())
    random.Random(seed).shuffle(edges)
    assert len(edges) > m
    return edges[:m]


def _relabelled(graph):
    relabelled = Graph()
    for u, v in graph.edges():
        relabelled.add_edge(f"v{u}", f"v{v}")
    return relabelled


def _small_graph():
    return power_law_graph(400, exponent=2.3, min_weight=4, seed=2)  # m = 2505


class TestAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_level_exact(self, seed):
        """At the paper's constants every p_i is 1."""
        result = assert_matches_reference(
            lambda: RandomOrderStream(_small_graph(), seed=seed),
            t_guess=5501, epsilon=0.3, seed=seed,
        )
        assert result.details["oracle_prob"] == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hashed_levels(self, seed):
        """p_i < 1 from some level on: membership comes from the kernel."""
        result = assert_matches_reference(
            lambda: RandomOrderStream(_base_graph(), seed=seed),
            t_guess=31989, epsilon=0.3, c=0.02, seed=seed,
        )
        assert result.details["oracle_prob"] < 0.1
        assert result.details["size_P"] > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_log_factor(self, seed):
        result = assert_matches_reference(
            lambda: RandomOrderStream(_base_graph(), seed=seed),
            t_guess=5000, epsilon=0.3, c=0.05, use_log_factor=False, seed=seed,
        )
        assert result.details["oracle_prob"] < 1.0

    @pytest.mark.parametrize("c", [1.0, 0.1])
    def test_string_labels(self, c):
        result = assert_matches_reference(
            lambda: RandomOrderStream(_relabelled(_small_graph()), seed=4),
            t_guess=5501, epsilon=0.3, c=c, seed=4,
        )
        assert result.details["size_P"] > 0

    @pytest.mark.parametrize(
        "label",
        [lambda u: 2**63 + u, lambda u: True if u == 0 else u + 2],
        ids=["at-least-2**63", "true-among-ints"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_labels_numpy_misreads(self, label, seed):
        """Hashed levels over labels numpy would misread as integers: all
        at or above 2**63 (uint64), or a True among small ints (read as 1,
        where stable_key folds it to 7)."""
        graph = Graph()
        for u, v in _small_graph().edges():
            graph.add_edge(label(u), label(v))
        result = assert_matches_reference(
            lambda: RandomOrderStream(graph, seed=seed),
            t_guess=5501, epsilon=0.3, c=0.02, seed=seed,
        )
        assert result.details["oracle_prob"] < 1.0

    def test_heavy_path_disabled(self):
        result = assert_matches_reference(
            lambda: RandomOrderStream(_base_graph(), seed=1),
            t_guess=31989, epsilon=0.3, seed=1, disable_heavy_path=True,
        )
        assert result.details["num_levels"] == 0

    @pytest.mark.parametrize(
        "m",
        [0, 1, 2, 100, _BLOCK_TOKENS - 1, _BLOCK_TOKENS, _BLOCK_TOKENS + 1,
         2 * _BLOCK_TOKENS - 1, 2 * _BLOCK_TOKENS, 2 * _BLOCK_TOKENS + 1],
    )
    @pytest.mark.parametrize("c", [1.0, 0.05])
    def test_stream_lengths(self, m, c):
        edges = _shuffled_prefix(m, seed=m)
        assert_matches_reference(
            lambda: ArbitraryOrderStream(edges),
            t_guess=400, epsilon=0.3, c=c, use_log_factor=False, seed=m,
        )

    def test_boundaries_inside_and_on_block_edges(self):
        """m = 4 blocks and sqrt(T) = 16: the level prefixes end at 512 and
        1024 (inside the first block) and at 2048 and 4096 (block edges);
        levels 3 and 4 are hashed, and S ends inside the first block."""
        m = 4 * _BLOCK_TOKENS
        edges = _shuffled_prefix(m, seed=5)
        result = assert_matches_reference(
            lambda: ArbitraryOrderStream(edges),
            t_guess=256, epsilon=0.3, c=0.05, use_log_factor=False, seed=5,
        )
        assert result.details["level_edge_counts"][:3] == [512, 1024, 2048]
        assert result.details["size_S"] == 86
        assert result.details["oracle_prob"] < 1.0

    def test_prefix_s_ends_on_a_block_edge(self):
        m = 4 * _BLOCK_TOKENS
        edges = _shuffled_prefix(m, seed=6)
        result = assert_matches_reference(
            lambda: ArbitraryOrderStream(edges),
            t_guess=256, epsilon=0.25, c=1.0, use_log_factor=False, seed=6,
        )
        assert result.details["size_S"] == _BLOCK_TOKENS
        assert result.details["size_C"] > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_faulty_stream(self, seed):
        """Duplicates, drops, reversals and a cut suffix: the tokens read
        disagree with the declared m, and the passes still agree."""
        plan = FaultPlan(
            duplicate_rate=0.05, reverse_rate=0.2, drop_rate=0.05, truncate_fraction=0.1
        )
        graph = _base_graph()
        assert_matches_reference(
            lambda: FaultyStream(RandomOrderStream(graph, seed=seed), plan, seed=seed),
            t_guess=31989, epsilon=0.3, c=0.02, seed=seed,
        )

    def test_validated_stream(self):
        plan = FaultPlan(duplicate_rate=0.05, self_loop_rate=0.05, drop_rate=0.02)
        graph = _small_graph()
        assert_matches_reference(
            lambda: ValidatedStream(FaultyStream(RandomOrderStream(graph, seed=3), plan, seed=3)),
            t_guess=5501, epsilon=0.3, c=0.1, seed=3,
        )

    def test_self_loop_raises_like_the_reference(self):
        plan = FaultPlan(self_loop_rate=0.05)
        graph = _small_graph()
        with pytest.raises(ValueError):
            reference_run(
                TriangleRandomOrder(t_guess=5501, epsilon=0.3),
                FaultyStream(RandomOrderStream(graph, seed=3), plan, seed=3),
            )
        with pytest.raises(ValueError):
            TriangleRandomOrder(t_guess=5501, epsilon=0.3).run(
                FaultyStream(RandomOrderStream(graph, seed=3), plan, seed=3)
            )


class TestMeterFlush:
    def test_one_update_per_category_per_block(self):
        graph = _base_graph()
        algorithm = TriangleRandomOrder(t_guess=31989, epsilon=0.3, c=0.02, seed=0)
        result = algorithm.run(RandomOrderStream(graph, seed=0))
        reference = reference_run(algorithm, RandomOrderStream(graph, seed=0))
        blocks = -(-graph.num_edges // _BLOCK_TOKENS)
        categories = len(result.space.breakdown())
        # every block flushes each category at most once, and the closing
        # scan of S adds one more candidates_C update
        assert result.space.mutations <= blocks * categories + 1
        assert reference.space.mutations == sum(reference.space.breakdown().values())


# Computed on the token-by-token implementation: the benchmark graph
# (power-law n=3000, m=28,828, T=87,142) in random order, epsilon = 0.3.
# Seed 3 moved in the last place when the heavy sum became an integer
# count per number of other heavy edges (it was 65107.79314865696 at
# c = 1 and 62579.642115842435 at c = 0.02); nothing else changed.
BENCHMARK_T = 87142
GOLDENS = {
    # c: {seed: (estimate, peak words, size_C, size_P, heavy edges caught)}
    1.0: {
        0: (58747.359234446165, 92273, 19, 13200, 19),
        1: (108109.71846889233, 92130, 38, 13038, 18),
        2: (82882.4943104119, 91818, 29, 12735, 20),
        3: (65107.793148656965, 92148, 37, 13057, 16),
    },
    0.02: {
        0: (6542.538019760825, 34623, 0, 10601, 12),
        1: (14966.720612278064, 27219, 0, 6243, 27),
        2: (15279.21988761217, 30718, 0, 7298, 29),
        3: (62579.64211584236, 34180, 0, 8473, 67),
    },
}


@pytest.fixture(scope="module")
def benchmark_graph():
    return power_law_graph(3000, exponent=2.3, min_weight=6, seed=1)


class TestGoldens:
    @pytest.mark.parametrize("c", sorted(GOLDENS))
    @pytest.mark.parametrize("seed", range(4))
    def test_benchmark_graph(self, benchmark_graph, c, seed):
        result = TriangleRandomOrder(t_guess=BENCHMARK_T, epsilon=0.3, c=c, seed=seed).run(
            RandomOrderStream(benchmark_graph, seed=seed)
        )
        estimate, peak, size_c, size_p, caught = GOLDENS[c][seed]
        assert result.estimate == estimate
        assert result.space.peak == peak
        details = result.details
        assert (details["size_C"], details["size_P"], details["heavy_edges_caught"]) == (
            size_c,
            size_p,
            caught,
        )


class TestHashSeed:
    def test_string_labels_ignore_hash_seed(self):
        """Set iteration order over strings follows PYTHONHASHSEED; the
        estimate, including the last bits of heavy_hat, must not."""
        script = (
            "import json\n"
            "from repro.core import TriangleRandomOrder\n"
            "from repro.graphs import Graph\n"
            "from repro.graphs.generators import power_law_graph\n"
            "from repro.streams import RandomOrderStream\n"
            "g = Graph()\n"
            "for u, v in power_law_graph(400, exponent=2.3, min_weight=4, seed=2).edges():\n"
            "    g.add_edge(f'v{u}', f'v{v}')\n"
            "out = []\n"
            "for seed in range(3):\n"
            "    r = TriangleRandomOrder(t_guess=2000, epsilon=0.3, c=0.1, seed=seed).run(\n"
            "        RandomOrderStream(g, seed=seed))\n"
            "    out.append([repr(r.estimate), r.space.peak, r.space.breakdown(), r.details])\n"
            "print(json.dumps(out))\n"
        )
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
            completed = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            outputs.append(json.loads(completed.stdout))
        assert outputs[0] == outputs[1]
        assert [row[3]["heavy_hat"] for row in outputs[0]] == [832.6666666666666, 943.0, 839.0]


class TestWorkCounters:
    def _counters(self, **kwargs):
        graph = _small_graph()
        with obs.session(collect_env=False) as telemetry:
            result = TriangleRandomOrder(**kwargs).run(RandomOrderStream(graph, seed=1))
        counters = telemetry.metrics.snapshot()["counters"]
        name = "mv-triangle-random-order"
        return (
            result,
            counters[f"{name}.pass1.level_hash_evals"],
            counters[f"{name}.pass1.exact_levels"],
        )

    def test_default_config_hashes_nothing(self):
        result, evals, exact = self._counters(t_guess=5501, epsilon=0.3, seed=1)
        assert evals == 0
        assert exact == result.details["num_levels"]

    def test_hashed_levels_are_counted(self):
        """m = 2505 is two blocks: each hashed level whose prefix reaches
        into a block hashes both endpoints of every token of the block."""
        result, evals, exact = self._counters(t_guess=5501, epsilon=0.3, c=0.02, seed=1)
        stream = RandomOrderStream(_small_graph(), seed=1)
        n, m = stream.num_vertices, stream.num_edges
        sample_const = 10.0 * 0.02 * math.log2(n) / 0.09
        levels = result.details["num_levels"]
        probs = [min(1.0, sample_const / 2**i) for i in range(levels)]
        prefix = [min(m, math.floor(m * 2**i / math.sqrt(5501))) for i in range(levels)]
        prefix[-1] = m
        expected = 0
        for lo in range(0, m, _BLOCK_TOKENS):
            size = min(_BLOCK_TOKENS, m - lo)
            hashed = sum(1 for p, end in zip(probs, prefix) if p < 1.0 and end > lo)
            expected += hashed * 2 * size
        assert exact == sum(1 for p in probs if p >= 1.0)
        assert 0 < exact < levels
        assert evals == expected > 0
