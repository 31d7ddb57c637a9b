"""Theorem 4.3b: one-pass four-cycle counting in the adjacency list
model via l2 sampling, using Õ(Delta + eps^-2 n^2 / T) space.

With ``x`` the wedge vector, draw pairs ``uv`` with probability
``x_uv^2 / F2(x)`` and let the indicator ``X`` be 1 with probability
``(x_uv - 1) / (4 x_uv)``.  Then

    E[X] = sum_uv (x_uv^2 / F2) * (x_uv - 1)/(4 x_uv)
         = (sum_uv C(x_uv, 2) / 2) / F2  =  T / F2(x),

so ``mean(X) * F2_hat`` estimates ``T``.  Since ``F2(x) <= n^2 + 6T``,
``O(eps^-2 (n^2 + T)/T log n)`` samples suffice (paper Section 4.2.4).

Implementation: each adjacency block of length ``d`` is expanded into
its ``C(d, 2)`` wedge updates (this is the O(Delta) working-space step
the paper describes), folded from the block's ``d`` vertex folds, and
fed as one batch to

* a :class:`~repro.sketches.wedge_f2.WedgeF2Estimator` for ``F2(x)``
  (the paper's own basic estimator — an "existing frequency moment
  algorithm" in its terms), and
* an :class:`~repro.sketches.l2_sampler.L2SamplerBank` whose successful
  extractions provide the ``(uv, x_uv)`` samples.  The returned value
  estimate is rounded to the nearest positive integer — the wedge
  vector is integral, so CountSketch recovery is typically exact.
"""

from __future__ import annotations

from typing import List, Sequence, Set

import numpy as np

from .. import obs as _obs
from ..graphs.graph import Vertex, normalize_edge
from ..seeding import component_rng
from ..sketches.hashing import stable_key_array, stable_tuple_key_array
from ..sketches.l2_sampler import L2SamplerBank
from ..sketches.wedge_f2 import WedgeF2Estimator
from ..streams.meter import SpaceMeter
from ..streams.models import AdjacencyListStream
from .result import EstimateResult


def _wedge_pair_keys(ordered: Sequence[Vertex]) -> np.ndarray:
    """``stable_key(normalize_edge(u, v))`` of every pair ``i < j`` of one
    adjacency block, in the nested-loop order ``(0, 1), (0, 2), ...``.

    Each vertex is folded once; the pair keys are combined from those
    folds, with the endpoints swapped wherever ``normalize_edge`` would.
    """
    folds = stable_key_array(list(ordered))
    first, second = np.triu_indices(len(ordered), k=1)
    swap = np.fromiter(
        (
            normalize_edge(ordered[i], ordered[j])[0] is not ordered[i]
            for i, j in zip(first.tolist(), second.tolist())
        ),
        dtype=bool,
        count=first.size,
    )
    first, second = np.where(swap, second, first), np.where(swap, first, second)
    return stable_tuple_key_array(folds[first], folds[second])


class FourCycleL2Sampling:
    """One-pass adjacency-list C4 counter via l2 samples of ``x``.

    Args:
        t_guess: the parameter ``T`` (reporting only; sample count and
            sketch width are explicit knobs).
        epsilon: target accuracy.
        num_samplers: size of the l2-sampler bank (the paper's ``r``).
        sampler_width / sampler_rows: CountSketch geometry per sampler.
        accept_scale: precision-sampling acceptance scale.  With exact
            ``F2`` one sampler fails with probability at most
            ``exp(-accept_scale)``, so it succeeds with probability about
            ``1 - exp(-accept_scale)`` (0.98 at the default 4).
        groups / group_size: F2 estimator layout.
        seed: seeds all hashes and the Bernoulli coin.
    """

    name = "mv-fourcycle-l2"

    def __init__(
        self,
        t_guess: float,
        epsilon: float = 0.2,
        num_samplers: int = 48,
        sampler_width: int = 512,
        sampler_rows: int = 5,
        accept_scale: float = 4.0,
        groups: int = 5,
        group_size: int = 8,
        seed: int = 0,
    ) -> None:
        if t_guess < 1:
            raise ValueError(f"t_guess must be >= 1, got {t_guess}")
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        if num_samplers < 1:
            raise ValueError("need at least one l2 sampler")
        self.t_guess = float(t_guess)
        self.epsilon = epsilon
        self.num_samplers = num_samplers
        self.sampler_width = sampler_width
        self.sampler_rows = sampler_rows
        self.accept_scale = accept_scale
        self.groups = groups
        self.group_size = group_size
        self.seed = seed

    # ------------------------------------------------------------------
    def run(self, stream: AdjacencyListStream) -> EstimateResult:
        if not getattr(stream, "provides_adjacency", False):
            raise TypeError("FourCycleL2Sampling requires an adjacency-list stream")
        meter = SpaceMeter()
        telemetry = _obs.current()
        f2_estimator = WedgeF2Estimator(
            groups=self.groups, group_size=self.group_size, seed=self.seed
        )
        bank = L2SamplerBank(
            count=self.num_samplers,
            seed=self.seed,
            rows=self.sampler_rows,
            width=self.sampler_width,
            accept_scale=self.accept_scale,
        )
        meter.set("sampler_cells", bank.space_items)
        meter.set("f2_copies", f2_estimator.num_copies)

        vertices: Set[Vertex] = set()
        max_degree = 0
        with telemetry.tracer.span("pass1:sketch", kind="pass") as span:
            for vertex, neighbors in stream.adjacency_lists():
                vertices.add(vertex)
                vertices.update(neighbors)
                max_degree = max(max_degree, len(neighbors))
                meter.set("adjacency_buffer", len(neighbors))  # the O(Delta) buffer
                f2_estimator.process_adjacency_list(vertex, neighbors)
                bank.update_batch(_wedge_pair_keys(sorted(neighbors, key=repr)))
            span.set("space_peak", meter.peak)
        pass1_hash_evals = bank.hash_evals

        with telemetry.tracer.span("post:extract", kind="phase") as span:
            f2_hat = f2_estimator.estimate()
            ordered_vertices = sorted(vertices, key=repr)
            candidates = [
                normalize_edge(u, v)
                for i, u in enumerate(ordered_vertices)
                for v in ordered_vertices[i + 1 :]
            ]
            samples = bank.samples(candidates, f2_hat)

            rng = component_rng("fourcycle-l2.coin", seed=self.seed)
            successes = 0
            values: List[int] = []
            for _pair, f_estimate in samples:
                x_value = max(1, round(abs(f_estimate)))
                values.append(x_value)
                if rng.random() < (x_value - 1) / (4.0 * x_value):
                    successes += 1
            ratio = successes / len(samples) if samples else 0.0
            estimate = ratio * f2_hat
            span.set("num_samples", len(samples))

        if telemetry.enabled:
            metrics = telemetry.metrics
            metrics.inc(f"{self.name}.l2_samples", len(samples))
            metrics.inc(f"{self.name}.bernoulli_successes", successes)
            metrics.set_gauge(f"{self.name}.sketch_saturation", bank.saturation)
            metrics.inc(f"{self.name}.pass1.hash_evals", pass1_hash_evals)
            metrics.inc(f"{self.name}.pass1.sketch_cell_updates", bank.cell_updates)
            metrics.inc(f"{self.name}.post.hash_evals", bank.hash_evals - pass1_hash_evals)
            metrics.inc(f"{self.name}.post.candidate_pairs", len(candidates))

        details = {
            "f2_hat": f2_hat,
            "num_samples": len(samples),
            "bernoulli_successes": successes,
            "sampled_values": values,
            "max_degree": max_degree,
            "num_candidate_pairs": len(candidates),
        }
        return EstimateResult(estimate, stream.passes_taken, meter, self.name, details)
