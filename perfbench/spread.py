"""Run the benchmark once per seed and summarize each metric across runs.

    python3 perfbench/spread.py --workload c4-file-arbitrary --seeds 1-10 --seconds 30

For each metric it prints the median over the runs, the quartiles, and
the spread: (q3 - q1) / median, with the quartiles from
``statistics.quantiles(values, n=4)``.  Every run's result line is
printed as it finishes, so the output is also the raw record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)
    values = {}
    ok = True
    for seed in args.seeds:
        command = [
            sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
            "--seconds", args.seconds, "--trace", args.trace,
        ]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        print(f"seed {seed}: {json.dumps(result)}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) < 2:
            print(f"{name:36s} median {median:14.6g}")
            continue
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:36s} median {median:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
