"""Set-up, trials, the correctness gate and the end-to-end metrics.

A trial builds its stream, constructs the algorithm and calls its
public ``run(stream)``; its time runs from building the stream to
``run()`` returning.  Trials run in rounds: one trial of every
algorithm of the workload, all with the round's trial seed, so the
algorithms of a round see the same stream order.
"""

from __future__ import annotations

import gc
import hashlib
import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from repro.experiments import groundtruth
from repro.graphs.fast import fast_counts_auto

from workloads import BASELINES, PAPER, AlgorithmSpec, Fixture, Workload

# Rounds every run completes whatever its time budget.  The digest and
# peak_words cover exactly these rounds, so both are fixed by the seed.
MIN_ROUNDS = 3
MIN_TRIALS = 10
CHEAP_SHARE = 0.01
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 50
SETUP_SECONDS = 1.0

# The host's speed need not be steady: on the 2-vCPU VM of RESULTS.md
# a fixed loop's time flips between two levels about 1.6x apart several
# times a second, and drifts further over minutes, with no steal time
# visible to the guest.  Every time is therefore also reported at a
# reference speed: multiplied by CALIBRATION_REF_S over the mean time of
# a fixed pure-Python loop, sampled right before and after the timed
# work and every TICK_S during it (from SIGALRM, between bytecodes of
# the main thread; the samples' own time is excluded from the work).
CALIBRATION_REF_S = 0.004
CALIBRATION_ITERATIONS = 20_000
TICK_S = 0.1


def _calibration_loop() -> int:
    # Dict lookups and modular integer work, the interpreter operations
    # the program's inner loops are made of, with none of its code and
    # no memory growth (fresh pages would time the allocator instead).
    table = dict.fromkeys(range(512), 0)
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        table[i & 511] += 1
        acc = (acc * 31 + i) % 1_000_003
    return acc


@dataclass
class Reading:
    """The speed around one piece of timed work."""

    samples: List[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Reference seconds per wall second during the work."""
        return CALIBRATION_REF_S / statistics.fmean(self.samples)


class Speedometer:
    """Calibration-loop samples around (and, ticking, during) timed work."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._paused = 0.0
        self._reading: Optional[Reading] = None

    def _sample(self) -> float:
        t0 = time.perf_counter()
        _calibration_loop()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        if self._reading is not None:
            self._reading.samples.append(elapsed)
        return elapsed

    def _tick(self, signum, frame) -> None:
        self._paused += self._sample()

    def clock(self) -> float:
        """perf_counter less the time spent in calibration ticks."""
        return time.perf_counter() - self._paused

    @contextmanager
    def measure(self, tick: bool = True) -> Iterator[Reading]:
        """Sample the speed around the block, and every TICK_S inside it
        when ``tick``; time the block with :meth:`clock`."""
        reading = self._reading = Reading()
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._tick) if tick else None
        if tick:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield reading
        finally:
            if tick:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self._sample()
            self._reading = None


def trial_seed(workload: str, seed: int, round_index: int) -> int:
    """The benchmark's own trial-seed derivation (independent of the program's)."""
    digest = hashlib.sha256(f"perfbench:{workload}:{seed}:{round_index}".encode())
    return int.from_bytes(digest.digest()[:4], "big") & 0x7FFFFFFF


@dataclass
class Setup:
    fixture: Fixture
    generate_s: List[float]  # at the reference speed, like every time below
    exact_count_s: List[float]
    wall_s: List[float]

    @property
    def seconds(self) -> List[float]:
        return [g + e for g, e in zip(self.generate_s, self.exact_count_s)]


def build(workload: Workload, root: Path, speedometer: Speedometer) -> Setup:
    """Build the workload repeatedly, timing graph and exact counts apart.

    At least SETUP_REPEATS times and until SETUP_SECONDS are spent (at
    most SETUP_MAX_REPEATS), so a millisecond set-up is still a median of
    many.  The first build also pays lazy imports; the median drops it.
    """
    generate_s: List[float] = []
    exact_count_s: List[float] = []
    wall_s: List[float] = []
    fixture: Optional[Fixture] = None
    while len(wall_s) < SETUP_REPEATS or (
        sum(wall_s) < SETUP_SECONDS and len(wall_s) < SETUP_MAX_REPEATS
    ):
        groundtruth.clear_cache()
        gc.collect()
        with speedometer.measure() as reading:
            t0 = speedometer.clock()
            graph = workload.build_graph(root)
            t1 = speedometer.clock()
            counts = fast_counts_auto(graph)
            t2 = speedometer.clock()
        generate_s.append((t1 - t0) * reading.scale)
        exact_count_s.append((t2 - t1) * reading.scale)
        wall_s.append(t2 - t0)
        fixture = Fixture(graph, counts)
    assert fixture is not None
    return Setup(fixture, generate_s, exact_count_s, wall_s)


def check_fixture(workload: Workload, fixture: Fixture, root: Path) -> List[str]:
    """Cross-check the fast exact counts against the oracle and the file header."""
    problems = []
    for key, oracle in workload.oracle:
        expected = oracle(fixture.graph)
        if fixture.counts[key] != expected:
            problems.append(
                f"fast_counts_auto {key}={fixture.counts[key]} but graphs.exact "
                f"gives {expected}"
            )
    for key, expected in workload.header_counts(root).items():
        if fixture.counts[key] != expected:
            problems.append(
                f"fast_counts_auto {key}={fixture.counts[key]} but the file "
                f"header states {expected}"
            )
    return problems


@dataclass
class Trial:
    label: str
    seed: int
    build_s: float = 0.0  # wall seconds
    run_s: float = 0.0
    stream_length: int = 0
    passes: int = 0
    estimate: float = float("nan")
    space: int = 0
    error: Optional[str] = None
    scale: float = 1.0  # Reading.scale around the trial

    @property
    def wall_s(self) -> float:
        return self.build_s + self.run_s

    @property
    def seconds(self) -> float:
        """Trial time at the reference speed."""
        return self.wall_s * self.scale

    @property
    def tokens(self) -> int:
        """Tokens read: one pass's length times the passes taken."""
        return self.stream_length * self.passes

    @property
    def ns_per_token(self) -> float:
        return self.seconds * 1e9 / self.tokens


def run_trial(
    spec: AlgorithmSpec,
    workload: Workload,
    fixture: Fixture,
    root: Path,
    seed: int,
    speedometer: Speedometer,
) -> Trial:
    """One timed trial through the algorithm's public ``run(stream)``."""
    trial = Trial(spec.label, seed)
    gc.collect()
    try:
        with speedometer.measure() as reading:
            t0 = speedometer.clock()
            stream = workload.stream(fixture, root, seed)
            t1 = speedometer.clock()
            result = spec.make(fixture, seed).run(stream)
            t2 = speedometer.clock()
    except Exception as exc:  # a trial that raises is a failed trial
        trial.error = f"raised {type(exc).__name__}: {exc}"
        return trial
    trial.build_s, trial.run_s, trial.scale = t1 - t0, t2 - t1, reading.scale
    trial.stream_length = stream.stream_length
    trial.passes = stream.passes_taken
    trial.estimate = float(result.estimate)
    trial.space = int(result.space_items)
    if not math.isfinite(trial.estimate) or trial.estimate < 0:
        trial.error = f"estimate {trial.estimate!r} is not a finite non-negative count"
    elif trial.passes != spec.passes or result.passes != spec.passes:
        trial.error = (
            f"took {trial.passes} passes (reported {result.passes}); "
            f"its theorem states {spec.passes}"
        )
    return trial


Round = List[Trial]


def run_rounds(
    workload: Workload,
    fixture: Fixture,
    root: Path,
    seed: int,
    seconds: float,
    speedometer: Speedometer,
) -> List[Round]:
    """Rounds of trials until ``seconds`` of trial time are spent.

    The first MIN_ROUNDS rounds run every algorithm.  After them a round
    runs the algorithms whose median trial time still fits in what is
    left of the budget, so cheap algorithms fill the end of the run.
    An algorithm whose median trial takes under CHEAP_SHARE of the budget
    also runs, past the budget, until it has MIN_TRIALS trials, so its
    median never rests on three trials only.
    """
    rounds: List[Round] = []
    spent = 0.0
    while True:
        chosen = list(workload.algorithms)
        if len(rounds) >= MIN_ROUNDS:
            left = seconds - spent
            chosen = []
            for spec in workload.algorithms:
                times = [t.seconds for r in rounds for t in r if t.label == spec.label]
                typical = statistics.median(times)
                cheap = typical <= CHEAP_SHARE * seconds and len(times) < MIN_TRIALS
                if typical <= left or cheap:
                    chosen.append(spec)
            if not chosen:
                return rounds
        s = trial_seed(workload.name, seed, len(rounds))
        trials = [run_trial(spec, workload, fixture, root, s, speedometer) for spec in chosen]
        rounds.append(trials)
        spent += sum(t.seconds for t in trials)


def relative_error(spec: AlgorithmSpec, fixture: Fixture, trial: Trial) -> float:
    truth = fixture.counts[spec.problem]
    return abs(trial.estimate - truth) / truth


def gate_errors(
    workload: Workload, fixture: Fixture, trials: Sequence[Trial]
) -> Dict[str, float]:
    """Fail every trial of an algorithm whose median relative error is out of bounds.

    Applied only to algorithms with at least MIN_ROUNDS good trials: the
    median of fewer is one trial's error, which the bound is not set for.
    Returns each algorithm's median relative error.
    """
    medians: Dict[str, float] = {}
    for spec in workload.algorithms:
        good = [t for t in trials if t.label == spec.label and t.error is None]
        if not good:
            continue
        medians[spec.label] = statistics.median(
            relative_error(spec, fixture, t) for t in good
        )
        if len(good) >= MIN_ROUNDS and medians[spec.label] > spec.max_median_error:
            for t in good:
                t.error = (
                    f"median relative error {medians[spec.label]:.3f} over "
                    f"{len(good)} trials exceeds {spec.max_median_error}"
                )
    return medians


def digest(trials: Sequence[Trial]) -> str:
    """sha256 over (algorithm, seed, estimate, peak words) of the given trials."""
    h = hashlib.sha256()
    for t in sorted(trials, key=lambda t: (t.label, t.seed)):
        h.update(f"{t.label}\t{t.seed}\t{t.estimate!r}\t{t.space}\n".encode())
    return h.hexdigest()


def geometric_mean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count; plus the highest of p75/p90/p99
    that has at least ten samples beyond it."""
    ordered = sorted(values)
    out: Dict[str, float] = {"n": len(ordered), "median": statistics.median(ordered)}
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    for q in (99, 90, 75):
        if len(ordered) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(ordered, n=100)[q - 1]
            break
    return out


@dataclass
class EndToEnd:
    """The end-to-end figures of one untraced run."""

    metrics: Dict[str, Dict[str, float]]
    wall_metrics: Dict[str, float]
    per_algorithm: Dict[str, Dict[str, object]] = field(default_factory=dict)


def end_to_end(
    workload: Workload,
    setup: Setup,
    rounds: List[Round],
    median_errors: Dict[str, float],
) -> EndToEnd:
    """The end-to-end metrics, at the reference speed; ``wall_metrics``
    holds the same figures from wall-clock times."""
    # Timing covers every trial that returned, including those the
    # correctness gate failed afterwards: their time was spent all the same.
    good = [t for r in rounds for t in r if t.tokens]
    first_rounds = {id(t) for r in rounds[:MIN_ROUNDS] for t in r}
    per_algorithm: Dict[str, Dict[str, object]] = {}
    reference: Dict[str, Dict[str, float]] = {"ns_per_token": {}, "trial_s": {}}
    wall: Dict[str, Dict[str, float]] = {"ns_per_token": {}, "trial_s": {}}
    for spec in workload.algorithms:
        own = [t for t in good if t.label == spec.label]
        if not own:
            continue
        for figures, seconds in ((reference, lambda t: t.seconds), (wall, lambda t: t.wall_s)):
            figures["ns_per_token"][spec.label] = statistics.median(
                seconds(t) * 1e9 / t.tokens for t in own
            )
            figures["trial_s"][spec.label] = statistics.median(seconds(t) for t in own)
        per_algorithm[spec.label] = {
            "group": spec.group,
            "ns_per_token": summarize([t.ns_per_token for t in own]),
            "wall_ns_per_token": summarize([t.wall_s * 1e9 / t.tokens for t in own]),
            "trial_s": summarize([t.seconds for t in own]),
            "speed": summarize([t.scale for t in own]),
            "tokens_per_trial": own[0].tokens,
            "passes": own[0].passes,
            "peak_words": max((t.space for t in own if id(t) in first_rounds), default=0),
            "median_relative_error": median_errors.get(spec.label),
        }

    def figures_of(figures: Dict[str, Dict[str, float]], setup_s: List[float]) -> Dict[str, float]:
        def group_mean(group: str) -> float:
            values = [
                figures["ns_per_token"][s.label] for s in workload.algorithms
                if s.group == group and s.label in figures["ns_per_token"]
            ]
            return geometric_mean(values) if values else float("nan")

        return {
            "setup_s": statistics.median(setup_s),
            "job_s": sum(figures["trial_s"].values()),
            "lead.ns_per_token": figures["ns_per_token"].get(workload.lead, float("nan")),
            "paper.ns_per_token": group_mean(PAPER),
            "baselines.ns_per_token": group_mean(BASELINES),
        }

    units = {"setup_s": "s", "job_s": "s"}
    metrics = {
        name: {"value": value, "unit": units.get(name, "ns")}
        for name, value in figures_of(reference, setup.seconds).items()
    }
    metrics["peak_words"] = {
        "value": sum(a["peak_words"] for a in per_algorithm.values()),
        "unit": "words",
    }
    return EndToEnd(metrics, figures_of(wall, setup.wall_s), per_algorithm)


def source_digest(root: Path) -> str:
    """sha256 over the program's sources: identifies the code measured when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, thread_vars: Dict[str, str]) -> Dict[str, object]:
    """The run manifest (python, numpy, cpu count, git SHA) plus thread pins."""
    from repro.obs import collect_manifest

    record = collect_manifest().as_record()
    return {
        "nproc": record["cpu_count"],
        "python": record["python"],
        "numpy": record["numpy"],
        "platform": record["platform"],
        "git_sha": record["git_sha"],
        "source_sha256": source_digest(root),
        "threads": thread_vars,
    }
