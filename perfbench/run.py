"""Per-token cost of the paper's streaming algorithms, end to end and per layer.

    python3 perfbench/run.py --workload tri-powerlaw-random --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` is the separate traced run that splits the
time across layers.  The second-to-last line of standard output is the
full report (per-algorithm figures, output digest, environment); the
last line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def untraced(workload, setup, args, speedometer):
    import harness

    rounds = harness.run_rounds(workload, setup.fixture, ROOT, args.seed, args.seconds, speedometer)
    trials = [t for r in rounds for t in r]
    median_errors = harness.gate_errors(workload, setup.fixture, trials)
    result = harness.end_to_end(workload, setup, rounds, median_errors)
    report = {
        "rounds": len(rounds),
        "digest": harness.digest([t for r in rounds[: harness.MIN_ROUNDS] for t in r]),
        "wall_metrics": result.wall_metrics,
        "algorithms": result.per_algorithm,
    }
    return trials, result.metrics, report


def traced(workload, setup, args, speedometer):
    import harness
    import layers

    run = layers.run_traced(workload, setup.fixture, ROOT, args.seed, args.seconds, speedometer)
    trials = [t for r in run.untraced + run.traced for t in r]
    harness.gate_errors(workload, setup.fixture, [t for r in run.untraced for t in r])
    metrics, rows = layers.per_layer_metrics(
        run, workload, setup.fixture, ROOT, setup.generate_s, setup.exact_count_s, speedometer
    )
    report = {
        "rounds": len(run.untraced),
        "algorithms": layers.algorithm_rows(rows),
    }
    return trials, metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    from workloads import SAMPLE_FILE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / SAMPLE_FILE).is_file():
        print(f"perfbench: missing {SAMPLE_FILE}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    speedometer = harness.Speedometer()
    setup = harness.build(workload, ROOT, speedometer)
    problems = harness.check_fixture(workload, setup.fixture, ROOT)
    trials, metrics, report = (traced if args.trace else untraced)(workload, setup, args, speedometer)
    failures = [f"{t.label} seed {t.seed}: {t.error}" for t in trials if t.error]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(ROOT, {v: os.environ[v] for v in THREAD_VARS}),
        "counts": setup.fixture.counts,
        "setup_wall_s": setup.wall_s,
        "calibration_s": harness.summarize(speedometer.samples),
        "fixture_problems": problems,
        "failed_frac": len(failures) / len(trials),
        "failures": failures[:10],
        **report,
        "metrics": metrics,
    }
    for metric in metrics.values():
        if not math.isfinite(metric["value"]):  # e.g. every trial of a group raised
            metric["value"] = None
    print(json.dumps(report, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": not problems and not failures,
                "attempted": len(trials),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
