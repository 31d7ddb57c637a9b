"""Theorem 5.3's batched H_e selection and endpoint-indexed pass 3.

``FourCycleArbitraryThreePass`` draws every oracle's samples ``R1(e),
R2(e)`` in one array pass (:func:`select_samples`) and lets each pass-3
edge visit only the oracles it touches, through per-endpoint lists.
The reference below is the scalar path those replace: one
``KWiseHash.bernoulli``/``choice4`` call per candidate key, and a scan
of the whole of ``R`` per pass-3 edge.  Samples, estimates, details and
space must agree exactly.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.core.fourcycle_arbitrary_threepass import (
    FourCycleArbitraryThreePass,
    _EdgeOracle,
    select_samples,
    subsample_q,
)
from repro.core.useful import UsefulAlgorithm
from repro.graphs import Graph, complete_bipartite, disjoint_union, planted_four_cycles
from repro.graphs.generators import power_law_graph
from repro.graphs.graph import normalize_edge
from repro.sketches.hashing import KWiseHash
from repro.streams import RandomOrderStream
from repro.streams.meter import SpaceMeter
from repro.streams.models import ArbitraryOrderStream

SRC = Path(__file__).resolve().parents[2] / "src"


class ReferenceEdgeOracle:
    """The scalar oracle: per-key hash calls and a linear pass-3 scan."""

    def __init__(self, edge, q1, q2, s1_adj, s2_adj, p, m_bound, seed):
        self.edge = edge
        self._s_adj = (s1_adj, s2_adj)
        self._select_hash = [
            KWiseHash(k=2, seed=seed, namespace="threepass.select[0]"),
            KWiseHash(k=2, seed=seed, namespace="threepass.select[1]"),
        ]
        if 0.0 < p < 0.5:
            q = subsample_q(p)
            self._mode = "paper"
            self._include_both_prob = q
            effective_p = p * (0.4 + q)
        else:
            self._mode = "direct"
            self._include_both_prob = 0.0
            effective_p = 0.4 * min(1.0, p)
        self.effective_p = effective_p
        self._r = [self._build_sample(copy, q1 if copy == 0 else q2) for copy in (0, 1)]
        self.useful = UsefulAlgorithm(
            r1=self._r[0], r2=self._r[1], p=effective_p, m_bound=m_bound
        )

    def _build_sample(self, copy, q_set):
        a, b = self.edge
        selected = set()
        adj = self._s_adj[copy]
        candidates = set()
        for x in (a, b):
            candidates.update(d for d in adj.get(x, ()) if d in q_set)
        candidates.discard(a)
        candidates.discard(b)
        hash_fn = self._select_hash[copy]
        for d in candidates:
            has_to_a = a in adj.get(d, ())
            has_to_b = b in adj.get(d, ())
            edges_present = [x for x, has in ((a, has_to_a), (b, has_to_b)) if has]
            if not edges_present:
                continue
            if self._mode == "direct":
                for x in edges_present:
                    if hash_fn.bernoulli((d, x, self.edge), 0.4):
                        selected.add(normalize_edge(d, x))
                continue
            q = self._include_both_prob
            if len(edges_present) == 2:
                choice = hash_fn.choice4((d, self.edge), 0.4, 0.4, q)
                if choice in (0, 2):
                    selected.add(normalize_edge(d, edges_present[0]))
                if choice in (1, 2):
                    selected.add(normalize_edge(d, edges_present[1]))
            else:
                if hash_fn.bernoulli((d, self.edge), 0.4 + q):
                    selected.add(normalize_edge(d, edges_present[0]))
        return selected

    def process_stream_edge(self, f):
        a, b = self.edge
        fu, fv = f
        if fu in (a, b):
            shared, outer = fu, fv
        else:
            shared, outer = fv, fu
        opposite = b if shared == a else a
        weights = {}
        for copy in (0, 1):
            adj = self._s_adj[copy]
            for g in self._r[copy]:
                gu, gv = g
                if opposite == gu:
                    d = gv
                elif opposite == gv:
                    d = gu
                else:
                    continue
                if d in (a, b, outer, shared) or outer in (opposite, d):
                    continue
                if outer in adj.get(d, ()):
                    weights[g] = 1.0
        self.useful.process_vertex(f, weights)


def reference_run(algorithm, stream):
    """``algorithm.run(stream)`` through the scalar oracles.

    Returns ``(estimate, details, meter, inputs)``; ``inputs`` holds what
    the selection consumed (oracle edges, Q and S samples, ``p``, seeds)
    and the reference oracles in creation order.
    """
    n = max(2, stream.num_vertices)
    meter = SpaceMeter()
    log_factor = math.log2(n) if algorithm.use_log_factor else 1.0
    p = min(1.0, algorithm.c * log_factor / (algorithm.epsilon**2 * algorithm.t_guess**0.25))
    edge_hash = KWiseHash(k=2, seed=algorithm.seed, namespace="threepass.edge")
    q_hashes = [
        KWiseHash(k=2, seed=algorithm.seed, namespace="threepass.q1"),
        KWiseHash(k=2, seed=algorithm.seed, namespace="threepass.q2"),
    ]
    s0_adj, q_sets, s_adjs = {}, (set(), set()), ({}, {})
    for u, v in stream.edges():
        if edge_hash.bernoulli(normalize_edge(u, v), p):
            s0_adj.setdefault(u, set()).add(v)
            s0_adj.setdefault(v, set()).add(u)
            meter.add("S0_edges")
        for q_set, s_adj, q_hash in zip(q_sets, s_adjs, q_hashes):
            hit = False
            for w in (u, v):
                if q_hash.bernoulli(w, p):
                    q_set.add(w)
                    hit = True
            if hit:
                s_adj.setdefault(u, set()).add(v)
                s_adj.setdefault(v, set()).add(u)
                meter.add("S1_S2_edges")
    stored = []
    for a, b in stream.edges():
        for cycle in algorithm._completions(s0_adj, a, b):
            stored.append(((a, b), cycle))
            meter.add("stored_cycles")

    eta_sqrt_t = algorithm.eta * math.sqrt(algorithm.t_guess)
    oracles, edge_index, seeds = {}, {}, []
    for _, (a, b, c_v, d_v) in stored:
        for e in (
            normalize_edge(a, b),
            normalize_edge(b, c_v),
            normalize_edge(c_v, d_v),
            normalize_edge(d_v, a),
        ):
            if e in oracles:
                continue
            seeds.append(algorithm.seed * 100_003 + len(oracles))
            oracle = ReferenceEdgeOracle(
                e, q_sets[0], q_sets[1], s_adjs[0], s_adjs[1], p, eta_sqrt_t, seeds[-1]
            )
            oracles[e] = oracle
            for w in e:
                edge_index.setdefault(w, []).append(oracle)
    if oracles:
        for u, v in stream.edges():
            f = normalize_edge(u, v)
            seen = set()
            for w in (u, v):
                for oracle in edge_index.get(w, ()):
                    if oracle.edge == f or oracle.edge in seen:
                        continue
                    seen.add(oracle.edge)
                    a, b = oracle.edge
                    if (u in (a, b)) + (v in (a, b)) == 1:
                        oracle.process_stream_edge(f)
    heavy = {e: oracle.useful.estimate() >= eta_sqrt_t for e, oracle in oracles.items()}
    for oracle in oracles.values():
        meter.add("oracle_counters", oracle.useful.heavy_counter_count + 3)

    a0 = a1 = 0
    for e_raw, (a, b, c_v, d_v) in stored:
        e = normalize_edge(*e_raw)
        cycle_edges = [
            normalize_edge(a, b),
            normalize_edge(b, c_v),
            normalize_edge(c_v, d_v),
            normalize_edge(d_v, a),
        ]
        e_heavy = heavy.get(e, False)
        others_heavy = sum(1 for g in cycle_edges if g != e and heavy.get(g, False))
        if not e_heavy and others_heavy == 0:
            a0 += 1
        elif e_heavy and others_heavy == 0:
            a1 += 1
    details = {
        "p": p,
        "eta_sqrt_t": eta_sqrt_t,
        "stored_pairs": len(stored),
        "a0": a0,
        "a1": a1,
        "num_oracles": len(oracles),
        "num_heavy_edges": sum(heavy.values()),
    }
    inputs = {
        "edges": list(oracles),
        "q_sets": q_sets,
        "s_adjs": s_adjs,
        "p": p,
        "seeds": seeds,
        "oracles": list(oracles.values()),
    }
    return a0 / (4.0 * p**3) + a1 / (p**3), details, meter, inputs


def _relabel(graph, label):
    return Graph.from_edges([(label(u), label(v)) for u, v in graph.edges()])


def _power_law():
    return power_law_graph(150, exponent=2.3, min_weight=4, seed=3)


def _heavy_direct():
    return disjoint_union([complete_bipartite(2, 60), planted_four_cycles(600, 80, seed=3)])


# (graph factory, algorithm keyword arguments): direct mode (p = 1),
# paper mode at p ~ 0.2, and paper mode with 80-220 oracles at p ~ 0.15
CONFIGS = {
    "direct": (_heavy_direct, dict(t_guess=500, epsilon=0.3, eta=2.0)),
    "paper-p0.2": (
        _power_law,
        dict(t_guess=200, epsilon=0.3, c=0.068, use_log_factor=False),
    ),
    "paper-heavy": (
        _power_law,
        dict(t_guess=200, epsilon=0.3, c=0.05, use_log_factor=False),
    ),
}
LABELS = {"int": int, "str": lambda v: f"v{v}"}


def _config_run(config, label, seed):
    build, kwargs = CONFIGS[config]
    graph = build() if label == "int" else _relabel(build(), LABELS[label])
    algorithm = FourCycleArbitraryThreePass(seed=seed, **kwargs)
    return algorithm, graph


def _assert_selection_matches(edges, q_sets, s_adjs, p, seeds, oracles):
    selection = select_samples(edges, q_sets, s_adjs, p, seeds)
    assert len(selection.samples) == len(oracles)
    for samples, oracle in zip(selection.samples, oracles):
        assert samples[0] == oracle._r[0]
        assert samples[1] == oracle._r[1]
    assert selection.mode == oracles[0]._mode
    assert selection.effective_p == oracles[0].effective_p
    return selection


class TestMatchesScalarReference:
    @pytest.mark.parametrize("label", sorted(LABELS))
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_samples_and_result(self, config, label, seed):
        algorithm, graph = _config_run(config, label, seed)
        stream = RandomOrderStream(graph, seed=seed)
        estimate, details, meter, inputs = reference_run(algorithm, stream)
        assert inputs["oracles"], "every config must build oracles"
        selection = _assert_selection_matches(
            inputs["edges"],
            inputs["q_sets"],
            inputs["s_adjs"],
            inputs["p"],
            inputs["seeds"],
            inputs["oracles"],
        )
        assert selection.mode == ("direct" if config == "direct" else "paper")

        result = algorithm.run(RandomOrderStream(graph, seed=seed))
        assert result.estimate == estimate
        assert result.details == details
        assert result.space.peak == meter.peak
        for category in ("S0_edges", "S1_S2_edges", "stored_cycles", "oracle_counters"):
            assert result.space.peak_of(category) == meter.peak_of(category)

    def test_paper_configs_use_choice4(self):
        """The paper-mode configs reach the two-endpoint branch."""
        algorithm, graph = _config_run("paper-heavy", "int", 0)
        _, _, _, inputs = reference_run(algorithm, ArbitraryOrderStream.from_graph(graph))
        adj = inputs["s_adjs"][0]
        assert any(
            a in adj.get(d, ()) and b in adj.get(d, ())
            for a, b in inputs["edges"]
            for d in inputs["q_sets"][0] - {a, b}
        )


def _reference_oracles(edges, q_sets, s_adjs, p, seeds):
    return [
        ReferenceEdgeOracle(e, q_sets[0], q_sets[1], s_adjs[0], s_adjs[1], p, 10.0, s)
        for e, s in zip(edges, seeds)
    ]


def _symmetric(pairs):
    adj = {}
    for u, v in pairs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


class TestSelectionEdgeCases:
    @pytest.mark.parametrize("p", [1.0, 0.7, 0.2, 0.05])
    def test_handcrafted(self, p):
        """Empty candidate sets, endpoints with no S edges, d joined to
        both endpoints, d outside Q, and an endpoint that is itself in Q."""
        s1 = _symmetric(
            [("a", "d1"), ("b", "d1"), ("a", "d2"), ("b", "d3"), ("a", "b"), ("a", "z")]
            + [("c", f"w{i}") for i in range(30)]
            + [(f"w{i}", "e") for i in range(30)]
        )
        s2 = _symmetric([("a", "d1"), ("b", "d1"), ("c", "d2")])
        q1 = {"d1", "d2", "d3", "b"} | {f"w{i}" for i in range(0, 30, 2)}
        q2 = {"d1", "d2", "a"}
        edges = [("a", "b"), ("c", "e"), ("x", "y"), ("b", "x"), ("a", "c")]
        seeds = [11, 12, 13, 14, 15]
        oracles = _reference_oracles(edges, (q1, q2), (s1, s2), p, seeds)
        _assert_selection_matches(edges, (q1, q2), (s1, s2), p, seeds, oracles)
        assert select_samples(edges, (q1, q2), (s1, s2), p, seeds).samples[2] == (set(), set())

    @pytest.mark.parametrize("p", [1.0, 0.3, 0.1])
    @pytest.mark.parametrize("trial", range(4))
    def test_random_inputs(self, p, trial):
        rng = random.Random(trial)
        label = (lambda v: f"n{v}") if trial % 2 else int
        pairs = {
            normalize_edge(label(u), label(v))
            for u, v in ((rng.randrange(40), rng.randrange(40)) for _ in range(300))
            if u != v
        }
        s_adjs = tuple(_symmetric(rng.sample(sorted(pairs, key=repr), 150)) for _ in range(2))
        q_sets = tuple({label(v) for v in range(40) if rng.random() < 0.5} for _ in range(2))
        edges = rng.sample(sorted(pairs, key=repr), 60)
        seeds = [rng.randrange(10**6) for _ in edges]
        oracles = _reference_oracles(edges, q_sets, s_adjs, p, seeds)
        assert any(oracle._r[0] or oracle._r[1] for oracle in oracles)
        _assert_selection_matches(edges, q_sets, s_adjs, p, seeds, oracles)

    def test_no_edges(self):
        selection = select_samples([], (set(), set()), ({}, {}), 0.2, [])
        assert selection.samples == []
        assert selection.hash_evals == 0


class TestEndpointIndex:
    def test_observe_matches_linear_scan(self):
        """Per pass-3 edge, the endpoint lists give the scan's weights."""
        rng = random.Random(5)
        pairs = sorted(
            {
                normalize_edge(u, v)
                for u, v in ((rng.randrange(30), rng.randrange(30)) for _ in range(200))
                if u != v
            }
        )
        s_adjs = (_symmetric(pairs[:120]), _symmetric(pairs[60:]))
        q_sets = ({v for v in range(30) if v % 2}, {v for v in range(30) if v % 3})
        edges = pairs[::7]
        seeds = list(range(len(edges)))
        reference = _reference_oracles(edges, q_sets, s_adjs, 0.2, seeds)
        selection = select_samples(edges, q_sets, s_adjs, 0.2, seeds)
        for e, samples, ref in zip(edges, selection.samples, reference):
            oracle = _EdgeOracle(e, samples, s_adjs, selection.effective_p, 10.0)
            calls = []
            ref.useful.process_vertex = lambda f, w: calls.append((f, dict(w)))
            oracle.useful.process_vertex = lambda f, w: calls.append((f, dict(w)))
            a, b = e
            for f in pairs:
                shared = set(f) & {a, b}
                if len(shared) != 1:
                    continue
                (s,) = shared
                outer = f[1] if f[0] == s else f[0]
                ref.process_stream_edge(f)
                oracle.observe(f, b if s == a else a, outer)
                assert calls[-2] == calls[-1]


# Computed by the scalar implementation this module's reference keeps:
# power_law_graph(150, exponent=2.3, min_weight=4, seed=3) in sorted edge
# order, t_guess=200, epsilon=0.3, c=0.05, use_log_factor=False (p ~ 0.148).
GOLDENS = {
    0: (1783.4373460815318, 1278, 165, 3, 5, 158, 72),
    1: (1860.9781002589896, 1112, 116, 8, 4, 145, 74),
    2: (1783.4373460815318, 847, 148, 3, 5, 82, 35),
    3: (8296.860696987995, 1446, 272, 19, 22, 221, 87),
}


class TestGoldens:
    @pytest.mark.parametrize("seed", sorted(GOLDENS))
    def test_paper_mode_goldens(self, seed):
        result = FourCycleArbitraryThreePass(
            t_guess=200, epsilon=0.3, c=0.05, seed=seed, use_log_factor=False
        ).run(ArbitraryOrderStream.from_graph(_power_law()))
        estimate, peak, stored, a0, a1, num_oracles, num_heavy = GOLDENS[seed]
        assert result.estimate == estimate
        assert result.space.peak == peak
        assert result.details == {
            "p": 0.14773044158180526,
            "eta_sqrt_t": 113.13708498984761,
            "stored_pairs": stored,
            "a0": a0,
            "a1": a1,
            "num_oracles": num_oracles,
            "num_heavy_edges": num_heavy,
        }

    def test_integer_labels_ignore_hash_seed(self):
        script = (
            "import json\n"
            "from repro.core import FourCycleArbitraryThreePass\n"
            "from repro.graphs.generators import power_law_graph\n"
            "from repro.streams.models import ArbitraryOrderStream\n"
            "g = power_law_graph(150, exponent=2.3, min_weight=4, seed=3)\n"
            "out = []\n"
            "for seed in range(3):\n"
            "    r = FourCycleArbitraryThreePass(t_guess=200, epsilon=0.3, c=0.05,\n"
            "        seed=seed, use_log_factor=False).run(ArbitraryOrderStream.from_graph(g))\n"
            "    out.append([r.estimate, r.space.peak, r.details])\n"
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
        assert [row[0] for row in outputs[0]] == [GOLDENS[s][0] for s in range(3)]


class TestWorkCounters:
    def test_pass3_counters(self):
        """At p = 1 every S edge is sampled and Q holds every vertex, so
        oracle ``(a, b)`` hashes ``deg(a) + deg(b) - 2`` candidates per
        copy and observes as many stream edges."""
        graph = planted_four_cycles(60, 8, extra_edges=20, seed=4)
        with obs.session(collect_env=False) as telemetry:
            result = FourCycleArbitraryThreePass(t_guess=30, epsilon=0.3, seed=2).run(
                RandomOrderStream(graph, seed=2)
            )
        assert result.details["p"] == 1.0
        counters = telemetry.metrics.snapshot()["counters"]
        _, _, _, inputs = reference_run(
            FourCycleArbitraryThreePass(t_guess=30, epsilon=0.3, seed=2),
            RandomOrderStream(graph, seed=2),
        )
        assert inputs["edges"]
        touching = sum(graph.degree(a) + graph.degree(b) - 2 for a, b in inputs["edges"])
        name = "mv-fourcycle-threepass"
        assert counters[f"{name}.pass3.select_hash_evals"] == 2 * touching
        assert counters[f"{name}.pass3.oracle_observations"] == touching
