"""The traced run and its per-layer metrics.

The traced run pairs every untraced round with a traced round of the
same trial seeds.  The untraced trial gives the time; the traced one,
run with the counting wrappers installed and a ``repro.obs`` session
active, gives the counts.  Shares are count x isolated unit cost /
untraced trial time, so they sum with ``logic_share`` to 1.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro import obs
from repro.sketches.countsketch import CountSketch

import tracing as tr
from harness import Round, Speedometer, Trial, run_trial, trial_seed
from workloads import BASELINES, PAPER, AlgorithmSpec, Fixture, Workload

GROUPS = (PAPER, BASELINES)
SHARES = ("fold", "hash", "sketch", "meter", "ingest")
INGEST = (tr.EDGES, tr.ADJACENCY)


@dataclass
class TracedRun:
    untraced: List[Round]
    traced: List[Round]
    probe: tr.Probe


def traced_trial(
    probe: tr.Probe,
    spec: AlgorithmSpec,
    workload: Workload,
    fixture: Fixture,
    root: Path,
    seed: int,
    speedometer: Speedometer,
) -> Trial:
    """A trial with the counting wrappers installed and a repro.obs session active."""
    probe.select(spec.label)
    before = sum(probe.units(entry) for entry in INGEST)
    with probe.installed(), obs.session(collect_env=False) as telemetry:
        trial = run_trial(spec, workload, fixture, root, seed, speedometer)
    counted = sum(probe.units(entry) for entry in INGEST) - before
    consumed = telemetry.metrics.counter("stream.edges_consumed").value
    if trial.error is None and counted != consumed:
        trial.error = f"traced {counted} tokens but telemetry counted {consumed}"
    return trial


def run_traced(
    workload: Workload,
    fixture: Fixture,
    root: Path,
    seed: int,
    seconds: float,
    speedometer: Speedometer,
) -> TracedRun:
    """Untraced/traced round pairs until half the budget is spent (at least one).

    The other half is left for the isolation replays.
    """
    probe = tr.Probe()
    untraced: List[Round] = []
    traced: List[Round] = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds / 2:
        s = trial_seed(workload.name, seed, len(untraced))
        plain, shadow = [], []
        for spec in workload.algorithms:
            reference = run_trial(spec, workload, fixture, root, s, speedometer)
            trial = traced_trial(probe, spec, workload, fixture, root, s, speedometer)
            if trial.error is None and reference.error is None and (
                trial.estimate != reference.estimate or trial.space != reference.space
            ):
                trial.error = (
                    f"traced trial returned ({trial.estimate!r}, {trial.space}), "
                    f"untraced ({reference.estimate!r}, {reference.space})"
                )
            plain.append(reference)
            shadow.append(trial)
        untraced.append(plain)
        traced.append(shadow)
    return TracedRun(untraced, traced, probe)


@dataclass
class Attribution:
    """One algorithm's traced counts and the wall time they account for."""

    label: str
    group: str
    seconds: float  # untraced trial time, summed over the traced rounds
    tokens: int
    passes: int
    peak_words: int
    counts: Dict[str, int]
    layer_s: Dict[str, float]
    costs: tr.UnitCosts

    def share(self, layer: str) -> float:
        return self.layer_s[layer] / self.seconds

    @property
    def logic_share(self) -> float:
        return 1.0 - sum(self.share(layer) for layer in SHARES)


def attribute(
    run: TracedRun, workload: Workload, iterate: Dict[str, float], speedometer: Speedometer
) -> List[Attribution]:
    out = []
    for spec in workload.algorithms:
        plain = [t for r in run.untraced for t in r if t.label == spec.label and t.error is None]
        if not plain:
            continue
        tallies = run.probe.tallies.get(spec.label, {})
        costs = tr.unit_costs(speedometer, run.probe, spec.label)

        def units(entry: str) -> int:
            return tallies[entry].units if entry in tallies else 0

        layer_ns = {
            "fold": units(tr.FOLD) * costs.fold,
            "hash": units(tr.HASH) * costs.hash + units(tr.HASH_ARRAY) * costs.hash_array,
            "sketch": sum(units(kind) * ns for kind, ns in costs.sketch.items()),
            "meter": units(tr.METER) * costs.meter,
            "ingest": sum(t.build_s * t.scale for t in plain) * 1e9
            + sum(units(entry) * iterate.get(entry, 0.0) for entry in INGEST),
        }
        out.append(
            Attribution(
                label=spec.label,
                group=spec.group,
                seconds=sum(t.seconds for t in plain),
                tokens=sum(t.tokens for t in plain),
                passes=plain[0].passes,
                peak_words=max(t.space for t in plain),
                counts={
                    "key_folds": units(tr.FOLD),
                    "hash_evals": units(tr.HASH) + units(tr.HASH_ARRAY),
                    "sketch_updates": sum(
                        units(kind) for kind in tr.SKETCH_KINDS if kind not in tr.SKETCH_QUERIES
                    ),
                    "meter_mutations": units(tr.METER),
                },
                layer_s={k: v / 1e9 for k, v in layer_ns.items()},
                costs=costs,
            )
        )
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _weighted(parts: List[Tuple[float, float]]) -> float:
    """Count-weighted mean of (count, unit cost) pairs."""
    return _ratio(sum(c * u for c, u in parts), sum(c for c, _ in parts))


def _countsketch_on_tokens(
    speedometer: Speedometer,
    probe: tr.Probe,
    workload: Workload,
    fixture: Fixture,
    root: Path,
    seed: int,
) -> float:
    """CountSketch.update unit cost where the workload updates no CountSketch:
    its stream tokens as keys, replayed on a default-sized sketch whose memo
    already holds them, so the replay does no hashing."""
    tally = tr.Tally()
    for edge in workload.stream(fixture, root, seed).edges():
        tally.record(1, ((edge, 1.0), {}))
    sketch = CountSketch(rows=5, width=512, seed=seed, max_cache_entries=len(tally.sample))
    for (key, delta), _ in tally.sample:
        sketch.update(key, delta)
    tally.proto = sketch
    return tr.sketch_unit_ns(speedometer, probe, tally, "CountSketch.update", tr.UnitCosts())


def per_layer_metrics(
    run: TracedRun,
    workload: Workload,
    fixture: Fixture,
    root: Path,
    generate_s: List[float],
    exact_count_s: List[float],
    speedometer: Speedometer,
) -> Tuple[Dict[str, Dict[str, float]], List[Attribution]]:
    """The per-layer metrics (times at the reference speed) and the rows behind them."""
    seed0 = run.untraced[0][0].seed
    tallies = run.probe.tallies
    used = sorted({entry for t in tallies.values() for entry in INGEST if entry in t})
    iterate = {
        entry: tr.iterate_ns(speedometer, workload.stream(fixture, root, seed0), entry)
        for entry in used
    }
    rows = attribute(run, workload, iterate, speedometer)

    cs_parts = [
        (
            tallies[a.label][tr.CS_KEYS].calls,
            tr.countsketch_update_ns(speedometer, run.probe, a.label, a.costs),
        )
        for a in rows if tr.CS_KEYS in tallies.get(a.label, {})
    ]
    if not cs_parts:
        cs_parts = [
            (1, _countsketch_on_tokens(speedometer, run.probe, workload, fixture, root, seed0))
        ]

    def pooled(entry: str) -> Tuple[int, int]:
        """(units, calls) of an entry over all algorithms."""
        found = [t[entry] for t in tallies.values() if entry in t]
        return sum(f.units for f in found), sum(f.calls for f in found)

    def ns(value: float) -> Dict[str, float]:
        return {"value": value, "unit": "ns"}

    memo_hits, memo_lookups = pooled(tr.MEMO)
    draws, attempts = pooled(tr.L2_DRAWS)
    plain = [t for r in run.untraced for t in r if t.error is None]
    shadow = [t for r in run.traced for t in r if t.error is None]
    metrics: Dict[str, Dict[str, float]] = {
        "graphs.generate_s": {"value": statistics.median(generate_s), "unit": "s"},
        "graphs.exact_count_s": {"value": statistics.median(exact_count_s), "unit": "s"},
        "streams.build_ns_per_token": ns(
            statistics.median(t.build_s * t.scale * 1e9 / t.stream_length for t in plain)
        ),
        "streams.iterate_ns_per_token": ns(
            _weighted([(pooled(entry)[0], cost) for entry, cost in iterate.items()])
        ),
        "hashing.key_fold_ns": ns(_weighted([(a.counts["key_folds"], a.costs.fold) for a in rows])),
        "hashing.hash_eval_ns": ns(
            _weighted([(tallies[a.label][tr.HASH].units, a.costs.hash)
                       for a in rows if tr.HASH in tallies[a.label]])
        ),
        "countsketch.update_ns": ns(_weighted(cs_parts)),
        "meter.add_ns": ns(_weighted([(a.counts["meter_mutations"], a.costs.meter) for a in rows])),
        "obs.trace_overhead_frac": {
            "value": sum(t.seconds for t in shadow) / sum(t.seconds for t in plain) - 1.0,
            "unit": "frac",
        },
        "countsketch.memo_hit_frac": {"value": _ratio(memo_hits, memo_lookups), "unit": "frac"},
        "l2.sample_success_frac": {"value": _ratio(draws, attempts), "unit": "frac"},
    }
    for group in GROUPS:
        members = [a for a in rows if a.group == group]
        seconds = sum(a.seconds for a in members)
        tokens = sum(a.tokens for a in members)
        for name in ("key_folds", "hash_evals", "sketch_updates", "meter_mutations"):
            metrics[f"{group}.{name}_per_token"] = {
                "value": _ratio(sum(a.counts[name] for a in members), tokens),
                "unit": "1/token",
            }
        metrics[f"{group}.passes"] = {"value": sum(a.passes for a in members), "unit": "count"}
        metrics[f"{group}.peak_words"] = {
            "value": sum(a.peak_words for a in members),
            "unit": "words",
        }
        attributed = 0.0
        for layer in SHARES:
            share = _ratio(sum(a.layer_s[layer] for a in members), seconds)
            attributed += share
            metrics[f"{group}.{layer}_share"] = {"value": share, "unit": "frac"}
        metrics[f"{group}.logic_share"] = {"value": 1.0 - attributed, "unit": "frac"}
    return metrics, rows


def algorithm_rows(rows: List[Attribution]) -> Dict[str, Dict[str, object]]:
    """The per-algorithm breakdown printed in the report (unit costs at the
    reference speed)."""
    out: Dict[str, Dict[str, object]] = {}
    for a in rows:
        entry: Dict[str, object] = {
            f"{name}_per_token": a.counts[name] / a.tokens for name in a.counts
        }
        entry.update({f"{layer}_share": a.share(layer) for layer in SHARES})
        entry["logic_share"] = a.logic_share
        entry["passes"] = a.passes
        entry["peak_words"] = a.peak_words
        entry["unit_ns"] = {
            name: cost
            for name, cost in (
                ("key_fold", a.costs.fold),
                ("hash_eval", a.costs.hash),
                ("hash_array_element", a.costs.hash_array),
                ("meter", a.costs.meter),
                *a.costs.sketch.items(),
            )
        }
        out[a.label] = entry
    return out
