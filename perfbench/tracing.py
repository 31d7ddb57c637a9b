"""Counting wrappers around each layer's exported entry points, and the
isolation replays that turn their counts into time.

While installed, the wrappers count calls into

* ``hashing``: ``stable_key`` (outermost calls only, so a tuple key is
  one fold) and ``KWiseHash.value`` / ``values_array`` (elements);
* ``sketches``: ``CountSketch.update``/``update_batch``,
  ``L2Sampler.update``/``sample``, ``WedgeF2Estimator`` and
  ``AmsF2Sketch`` updates (outermost sketch call only, so an l2 update
  is not also counted as the CountSketch update inside it);
* ``meter``: ``SpaceMeter.add``/``set``;
* ``streams``: tokens yielded by ``StreamSource.edges`` and
  ``AdjacencyListStream.adjacency_lists``;

and keep an evenly strided sample of each one's arguments.  After the
traced trials the wrappers are removed and each sample is replayed
through the same public function on its own to get a unit cost.  A
layer's time in a trial is its count times its unit cost; the sketch
replays subtract the folds and hash evaluations they trigger, so no
work is attributed to two layers.  What no layer accounts for is
algorithm logic.
"""

from __future__ import annotations

import copy
import sys
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.sketches import hashing
from repro.sketches.ams import AmsF2Sketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.hashing import KWiseHash
from repro.sketches.l2_sampler import L2Sampler
from repro.sketches.wedge_f2 import WedgeF2Estimator
from repro.streams.meter import SpaceMeter
from repro.streams.models import AdjacencyListStream, StreamSource

from harness import Speedometer

SAMPLE_CAP = 1024
REPEATS = 5
REPEAT_SECONDS = 0.01

FOLD = "fold"
HASH = "hash"
HASH_ARRAY = "hash.array"
METER = "meter"
EDGES = "ingest.edges"
ADJACENCY = "ingest.adjacency"
CS_KEYS = "countsketch.keys"  # every CountSketch.update, nested or not
MEMO = "countsketch.memo"  # calls: update lookups; units: memo hits
L2_DRAWS = "l2.draws"  # calls: sample attempts; units: successes

# (owner, method, units per call) of the sketch layer's entry points.
SKETCH_ENTRIES: Tuple[Tuple[type, str, Callable[..., int]], ...] = (
    (CountSketch, "update", lambda key, delta=1.0: 1),
    (CountSketch, "update_batch", lambda keys, deltas=None: len(keys)),
    (L2Sampler, "update", lambda key, delta=1.0: 1),
    (L2Sampler, "sample", lambda candidates, f2_estimate: len(candidates)),
    (WedgeF2Estimator, "process_adjacency_list", lambda vertex, neighbors: len(neighbors)),
    (WedgeF2Estimator, "process_edge", lambda u, v, delta=1: 1),
    (AmsF2Sketch, "update", lambda key, delta=1.0: 1),
    (AmsF2Sketch, "update_batch", lambda keys, deltas=None: len(keys)),
)


def sketch_kind(owner: type, method: str) -> str:
    return f"{owner.__name__}.{method}"


SKETCH_KINDS = tuple(sketch_kind(owner, method) for owner, method, _ in SKETCH_ENTRIES)
SKETCH_QUERIES = {"L2Sampler.sample"}


class Tally:
    """Calls and units of one entry point, with an evenly strided sample
    of its arguments.

    The sample keeps every ``stride``-th call; at twice the cap it is
    thinned to every other entry and the stride doubles, so it always
    spans the whole run (the SpaceMeter timeline uses the same scheme).
    ``proto`` is a copy of the object the first call was made on, for
    the replay.
    """

    __slots__ = ("calls", "units", "sample", "stride", "proto")

    def __init__(self) -> None:
        self.calls = 0
        self.units = 0
        self.sample: List[Any] = []
        self.stride = 1
        self.proto: Any = None

    def record(self, units: int, item: Any) -> None:
        self.calls += 1
        self.units += units
        if self.calls % self.stride == 0:
            self.sample.append(item)
            if len(self.sample) >= 2 * SAMPLE_CAP:
                self.sample = self.sample[1::2]
                self.stride *= 2


class Probe:
    """Counting wrappers, routed to the tallies of the selected algorithm."""

    def __init__(self) -> None:
        self.tallies: Dict[str, Dict[str, Tally]] = {}
        self._active: Dict[str, Tally] = {}
        self._fold_depth = 0
        self._sketch_depth = 0
        self._memo: "weakref.WeakKeyDictionary[CountSketch, set]" = weakref.WeakKeyDictionary()
        self._restore: List[Tuple[Any, str, Any]] = []

    def select(self, label: str) -> None:
        self._active = self.tallies.setdefault(label, {})

    def units(self, entry: str) -> int:
        """Units counted so far for the selected algorithm."""
        found = self._active.get(entry)
        return found.units if found is not None else 0

    def tally(self, entry: str) -> Tally:
        found = self._active.get(entry)
        if found is None:
            found = self._active[entry] = Tally()
        return found

    # -- wrappers ---------------------------------------------------------
    def _fold(self, original):
        def stable_key(value):
            if self._fold_depth:
                return original(value)
            self.tally(FOLD).record(1, value)
            self._fold_depth += 1
            try:
                return original(value)
            finally:
                self._fold_depth -= 1

        return stable_key

    def _hash_value(self, original):
        def value(hash_fn, key):
            self.tally(HASH).record(1, (hash_fn, key))
            return original(hash_fn, key)

        return value

    def _hash_array(self, original):
        def values_array(hash_fn, stable_keys):
            self.tally(HASH_ARRAY).record(len(stable_keys), (hash_fn, len(stable_keys)))
            return original(hash_fn, stable_keys)

        return values_array

    def _sketch(self, kind: str, original, units_of):
        def entry(obj, *args, **kwargs):
            if self._sketch_depth:
                return original(obj, *args, **kwargs)
            tally = self.tally(kind)
            if tally.proto is None:
                tally.proto = copy.deepcopy(obj)
            tally.record(units_of(*args, **kwargs), (args, kwargs))
            self._sketch_depth += 1
            try:
                result = original(obj, *args, **kwargs)
            finally:
                self._sketch_depth -= 1
            if kind in SKETCH_QUERIES:
                self.tally(L2_DRAWS).record(int(result is not None), None)
            return result

        return entry

    def _countsketch_keys(self, inner):
        """Memo emulation and key sample for every CountSketch.update."""

        def update(sketch, key, delta=1.0):
            keys = self.tally(CS_KEYS)
            if keys.proto is None:
                keys.proto = copy.deepcopy(sketch)
            keys.record(1, ((key, delta), {}))
            seen = self._memo.setdefault(sketch, set())
            hit = key in seen
            if not hit and len(seen) < sketch.max_cache_entries:
                seen.add(key)
            self.tally(MEMO).record(int(hit), None)
            return inner(sketch, key, delta)

        return update

    def _edges(self, original):
        def edges(stream):
            tally = self.tally(EDGES)
            tally.calls += 1

            def counted(tokens):
                for token in tokens:
                    tally.units += 1
                    yield token

            return counted(original(stream))

        return edges

    def _adjacency(self, original):
        def adjacency_lists(stream):
            tally = self.tally(ADJACENCY)
            tally.calls += 1
            for vertex, neighbors in original(stream):
                tally.units += len(neighbors)
                yield vertex, neighbors

        return adjacency_lists

    def _meter(self, name: str, original):
        def mutate(meter, category, count=1):
            self.tally(METER).record(1, (name, category, count))
            return original(meter, category, count)

        return mutate

    # -- install ----------------------------------------------------------
    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        original_fold = hashing.stable_key
        fold = self._fold(original_fold)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, "stable_key", None) is original_fold
            ):
                self._patch(module, "stable_key", fold)
        self._patch(KWiseHash, "value", self._hash_value(KWiseHash.value))
        self._patch(KWiseHash, "values_array", self._hash_array(KWiseHash.values_array))
        for owner, method, units_of in SKETCH_ENTRIES:
            wrapped = self._sketch(sketch_kind(owner, method), getattr(owner, method), units_of)
            if (owner, method) == (CountSketch, "update"):
                wrapped = self._countsketch_keys(wrapped)
            self._patch(owner, method, wrapped)
        self._patch(SpaceMeter, "add", self._meter("add", SpaceMeter.add))
        self._patch(SpaceMeter, "set", self._meter("set", SpaceMeter.set))
        self._patch(StreamSource, "edges", self._edges(StreamSource.edges))
        self._patch(
            AdjacencyListStream,
            "adjacency_lists",
            self._adjacency(AdjacencyListStream.adjacency_lists),
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self) -> Iterator["Probe"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# -- isolation replays -----------------------------------------------------
#
# Every replay is timed in REPEATS short repeats, each bracketed by
# calibration samples and scaled to the reference speed on its own (the
# host's speed flips within a second, so only adjacent samples describe
# a repeat).  A unit cost is the fastest repeat, as with ``timeit``: the
# error of a replay should not attribute more to a layer than it cost.


def _reference_seconds(
    speedometer: Speedometer, run: Callable[[Any], Any], prepare: Callable[[], Any]
) -> float:
    """Fastest of REPEATS calls ``run(prepare())``, at the reference speed."""
    times = []
    for _ in range(REPEATS):
        argument = prepare()
        with speedometer.measure(tick=False) as reading:
            t0 = time.perf_counter()
            run(argument)
            elapsed = time.perf_counter() - t0
        times.append(elapsed * reading.scale)
    return min(times)


def _loop_ns(speedometer: Speedometer, run: Callable[[], Any], units: int) -> float:
    """Fastest of REPEATS ns per unit of ``run``, which does ``units``
    units per call; a repeat calls it for at least REPEAT_SECONDS."""
    per_repeat = []
    for _ in range(REPEATS):
        calls = 0
        with speedometer.measure(tick=False) as reading:
            start = time.perf_counter()
            while not calls or time.perf_counter() - start < REPEAT_SECONDS:
                run()
                calls += 1
            elapsed = time.perf_counter() - start
        per_repeat.append(elapsed * reading.scale * 1e9 / (calls * units))
    return min(per_repeat)


def fold_ns(speedometer: Speedometer, keys: List[Any]) -> float:
    fold = hashing.stable_key

    def run():
        for key in keys:
            fold(key)

    return _loop_ns(speedometer, run, len(keys))


def hash_eval_ns(speedometer: Speedometer, items: List[Tuple[KWiseHash, Any]]) -> float:
    """``KWiseHash.value`` on pre-folded keys, less the (integer) fold it repeats."""
    fold = hashing.stable_key
    folded = [(h, fold(key)) for h, key in items]

    def evaluate():
        for h, x in folded:
            h.value(x)

    def refold():
        for _, x in folded:
            fold(x)

    return max(
        0.0, _loop_ns(speedometer, evaluate, len(folded)) - _loop_ns(speedometer, refold, len(folded))
    )


def hash_array_ns(speedometer: Speedometer, items: List[Tuple[KWiseHash, int]]) -> float:
    arrays = [(h, np.arange(size, dtype=np.uint64)) for h, size in items]

    def run():
        for h, keys in arrays:
            h.values_array(keys)

    return _loop_ns(speedometer, run, sum(size for _, size in items))


def meter_ns(speedometer: Speedometer, items: List[Tuple[str, str, int]]) -> float:
    """SpaceMeter mutations on a fresh meter (``add`` replayed with
    ``|count|`` so a strided sample of evictions cannot go negative)."""

    def run():
        meter = SpaceMeter()
        for name, category, count in items:
            if name == "add":
                meter.add(category, abs(count))
            else:
                meter.set(category, count)

    return _loop_ns(speedometer, run, len(items))


def iterate_ns(speedometer: Speedometer, stream: StreamSource, entry: str) -> float:
    """Passes over an already built stream, per token."""
    if entry == ADJACENCY:
        tokens = sum(len(neighbors) for _, neighbors in stream.adjacency_lists())

        def run():
            for _ in stream.adjacency_lists():
                pass
    else:
        tokens = sum(1 for _ in stream.edges())

        def run():
            for _ in stream.edges():
                pass

    return _loop_ns(speedometer, run, tokens)


@dataclass
class UnitCosts:
    """Isolated per-unit costs (ns at the reference speed) of one algorithm's work."""

    fold: float = 0.0
    hash: float = 0.0
    hash_array: float = 0.0
    meter: float = 0.0
    sketch: Dict[str, float] = field(default_factory=dict)


def sketch_unit_ns(
    speedometer: Speedometer, probe: Probe, tally: Tally, kind: str, costs: UnitCosts
) -> float:
    """Exclusive cost of one unit of a sketch entry point.

    The sampled calls (as many as fit in REPEAT_SECONDS) are replayed on
    copies of the first object the algorithm called, each copy warmed by
    one untimed replay so its memo and scale caches hold the keys: timed,
    and once more counted, so the folds and hash evaluations the replay
    still triggers are subtracted at their own unit costs.  A memo miss's
    own bookkeeping is therefore left to algorithm logic.
    """
    owner_name, method = kind.split(".", 1)
    units_of = next(
        u for o, m, u in SKETCH_ENTRIES if o.__name__ == owner_name and m == method
    )
    call = getattr(copy.deepcopy(tally.proto), method)
    covered = 0
    start = time.perf_counter()
    for args, kwargs in tally.sample:
        call(*args, **kwargs)
        covered += 1
        if time.perf_counter() - start >= REPEAT_SECONDS:
            break
    calls = tally.sample[:covered]
    units = sum(units_of(*args, **kwargs) for args, kwargs in calls)

    def replay(target):
        call = getattr(target, method)
        for args, kwargs in calls:
            call(*args, **kwargs)

    def warmed():
        target = copy.deepcopy(tally.proto)
        replay(target)
        return target

    seconds = _reference_seconds(speedometer, replay, warmed)
    probe.tallies.pop("replay", None)
    probe.select("replay")
    counted = warmed()
    with probe.installed():
        replay(counted)
    inner = probe.tallies.pop("replay")
    inner_ns = sum(
        inner[name].units * cost
        for name, cost in ((FOLD, costs.fold), (HASH, costs.hash), (HASH_ARRAY, costs.hash_array))
        if name in inner
    )
    return max(0.0, seconds * 1e9 - inner_ns) / max(units, 1)


def unit_costs(speedometer: Speedometer, probe: Probe, label: str) -> UnitCosts:
    tallies = probe.tallies[label]
    costs = UnitCosts()
    if FOLD in tallies:
        costs.fold = fold_ns(speedometer, tallies[FOLD].sample)
    if HASH in tallies:
        costs.hash = hash_eval_ns(speedometer, tallies[HASH].sample)
    if HASH_ARRAY in tallies:
        costs.hash_array = hash_array_ns(speedometer, tallies[HASH_ARRAY].sample)
    if METER in tallies:
        costs.meter = meter_ns(speedometer, tallies[METER].sample)
    for kind in SKETCH_KINDS:
        if kind in tallies:
            costs.sketch[kind] = sketch_unit_ns(speedometer, probe, tallies[kind], kind, costs)
    return costs


def countsketch_update_ns(
    speedometer: Speedometer, probe: Probe, label: str, costs: UnitCosts
) -> float:
    """CountSketch.update on its own, over every key the algorithm's
    sketches received (also those updated from inside an l2 sampler)."""
    return sketch_unit_ns(
        speedometer, probe, probe.tallies[label][CS_KEYS], "CountSketch.update", costs
    )
