"""Theorem 4.3b: the one-pass l2-sampling adjacency-list counter."""

import random
import statistics

import pytest

from repro import obs
from repro.core import FourCycleL2Sampling
from repro.graphs import Graph, erdos_renyi, four_cycle_count
from repro.graphs.graph import normalize_edge
from repro.seeding import component_rng, derive_seed
from repro.sketches import L2Sampler
from repro.sketches.wedge_f2 import WedgeF2Estimator
from repro.streams import AdjacencyListStream, ArbitraryOrderStream


def _scalar_oracle(algorithm, stream):
    """A5 as a per-pair x per-copy loop of scalar L2Sampler updates, with
    the bank's derived seeds: the reference the batched bank must match."""
    f2_estimator = WedgeF2Estimator(
        groups=algorithm.groups, group_size=algorithm.group_size, seed=algorithm.seed
    )
    samplers = [
        L2Sampler(
            seed=derive_seed("sketch:l2-sampler-bank", j, seed=algorithm.seed),
            rows=algorithm.sampler_rows,
            width=algorithm.sampler_width,
            accept_scale=algorithm.accept_scale,
        )
        for j in range(algorithm.num_samplers)
    ]
    vertices = set()
    for vertex, neighbors in stream.adjacency_lists():
        vertices.add(vertex)
        vertices.update(neighbors)
        f2_estimator.process_adjacency_list(vertex, neighbors)
        ordered = sorted(neighbors, key=repr)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1 :]:
                for sampler in samplers:
                    sampler.update(normalize_edge(u, v))
    f2_hat = f2_estimator.estimate()
    ordered_vertices = sorted(vertices, key=repr)
    candidates = [
        normalize_edge(u, v)
        for i, u in enumerate(ordered_vertices)
        for v in ordered_vertices[i + 1 :]
    ]
    drawn = [sampler.sample(candidates, f2_hat) for sampler in samplers]
    samples = [d for d in drawn if d is not None]
    rng = component_rng("fourcycle-l2.coin", seed=algorithm.seed)
    successes = 0
    values = []
    for _pair, f_estimate in samples:
        x_value = max(1, round(abs(f_estimate)))
        values.append(x_value)
        if rng.random() < (x_value - 1) / (4.0 * x_value):
            successes += 1
    ratio = successes / len(samples) if samples else 0.0
    return ratio * f2_hat, f2_hat, values, successes, len(candidates)


def _oracle_graph(labels):
    """95 vertices (C(95, 2) > 4096 candidate pairs), a 70-leaf hub whose
    block holds more pairs than one stacked batch, a sparse random part,
    degree-1 leaves and isolated (degree-0) vertices."""
    rng = random.Random(17)
    graph = Graph()
    for v in range(95):
        graph.add_vertex(labels(v))
    for leaf in range(1, 71):
        graph.add_edge(labels(0), labels(leaf))
    for _ in range(60):
        u, v = rng.sample(range(1, 90), 2)
        graph.add_edge(labels(u), labels(v))
    return graph


class TestValidation:
    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            FourCycleL2Sampling(t_guess=0)
        with pytest.raises(ValueError):
            FourCycleL2Sampling(t_guess=10, num_samplers=0)

    def test_requires_adjacency_stream(self):
        with pytest.raises(TypeError):
            FourCycleL2Sampling(t_guess=5).run(ArbitraryOrderStream([(0, 1)]))


class TestBatchedBankMatchesScalarOracle:
    @pytest.mark.parametrize(
        "labels, seed",
        [(int, 0), (int, 1), (int, 2), (lambda v: f"v{v}", 3)],
        ids=["int-0", "int-1", "int-2", "str-3"],
    )
    def test_bit_identical(self, labels, seed):
        graph = _oracle_graph(labels)
        assert any(graph.degree(v) == 0 for v in graph.vertices())
        assert any(graph.degree(v) == 1 for v in graph.vertices())
        algorithm = FourCycleL2Sampling(
            t_guess=50, num_samplers=8, sampler_width=64, seed=seed
        )
        result = algorithm.run(AdjacencyListStream(graph, seed=seed))
        estimate, f2_hat, values, successes, candidates = _scalar_oracle(
            algorithm, AdjacencyListStream(graph, seed=seed)
        )
        assert candidates > 4096
        assert result.details["num_samples"] > 0
        assert result.estimate == estimate
        assert result.details["f2_hat"] == f2_hat
        assert result.details["sampled_values"] == values
        assert result.details["bernoulli_successes"] == successes
        assert result.details["num_candidate_pairs"] == candidates
        assert result.space.peak_of("sampler_cells") == 8 * 5 * 64


class TestWorkCounters:
    def test_per_pass_counters(self):
        graph = erdos_renyi(20, 0.4, seed=2)
        wedges = sum(d * (d - 1) // 2 for d in (graph.degree(v) for v in graph.vertices()))
        with obs.session(collect_env=False) as telemetry:
            result = FourCycleL2Sampling(t_guess=50, num_samplers=3, seed=1).run(
                AdjacencyListStream(graph, seed=1)
            )
        counters = telemetry.metrics.snapshot()["counters"]
        name = "mv-fourcycle-l2"
        candidates = result.details["num_candidate_pairs"]
        per_key = 3 * (1 + 2 * 5)  # uniform + 5 bucket + 5 sign hashes per copy
        assert counters[f"{name}.pass1.hash_evals"] == wedges * per_key
        assert counters[f"{name}.pass1.sketch_cell_updates"] == wedges * 3 * 5
        assert counters[f"{name}.post.hash_evals"] == candidates * per_key
        assert counters[f"{name}.post.candidate_pairs"] == candidates


class TestAccuracy:
    def test_dense_graph_median(self):
        graph = erdos_renyi(40, 0.5, seed=3)
        truth = four_cycle_count(graph)
        estimates = []
        for seed in range(3):
            algorithm = FourCycleL2Sampling(
                t_guess=truth,
                epsilon=0.2,
                num_samplers=60,
                groups=7,
                group_size=40,
                seed=seed,
            )
            stream = AdjacencyListStream(graph, seed=700 + seed)
            estimates.append(algorithm.run(stream).estimate)
        median = statistics.median(estimates)
        assert abs(median - truth) / truth < 0.4

    def test_sampled_values_are_wedge_counts(self):
        """Recovered x values must be genuine wedge-vector entries."""
        from repro.graphs import wedge_counts

        graph = erdos_renyi(30, 0.4, seed=4)
        legal = set(wedge_counts(graph).values())
        algorithm = FourCycleL2Sampling(
            t_guess=four_cycle_count(graph), num_samplers=40, seed=1
        )
        result = algorithm.run(AdjacencyListStream(graph, seed=5))
        assert result.details["num_samples"] > 0
        for value in result.details["sampled_values"]:
            assert value in legal

    def test_space_reports_delta_buffer(self):
        graph = erdos_renyi(30, 0.4, seed=4)
        algorithm = FourCycleL2Sampling(t_guess=100, num_samplers=4, seed=1)
        result = algorithm.run(AdjacencyListStream(graph, seed=5))
        assert result.space.peak_of("adjacency_buffer") == result.details["max_degree"]

    def test_single_pass(self):
        graph = erdos_renyi(25, 0.4, seed=6)
        stream = AdjacencyListStream(graph, seed=1)
        result = FourCycleL2Sampling(t_guess=100, num_samplers=4, seed=0).run(stream)
        assert result.passes == 1
