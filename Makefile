# Convenience targets; everything is plain pytest underneath.

.PHONY: install test bench bench-smoke perfbench-smoke bench-tables examples verify-smoke all

install:
	pip install -e '.[test]' --no-build-isolation || \
	  echo "$$(pwd)/src" > "$$(python -c 'import site; print(site.getsitepackages()[0])')/repro-editable.pth"

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Quick sanity pass of the perf-engine benchmark: small sizes, relaxed
# speedup floor, no pytest-benchmark storage, baseline left untouched.
bench-smoke:
	REPRO_BENCH_QUICK=1 pytest benchmarks/bench_perf_engine.py -s --benchmark-disable

# One short run of each repo-benchmark workload: tri-powerlaw-random (A1
# and four triangle baselines), c4-adjacency-tiny (A3, A4, A5 and the
# wedge-pair baseline) and c4-file-arbitrary (A6, A7, A8 and three
# baselines).  Each fails unless its result line (the last line printed)
# reports correct output and no failed trials.
perfbench-smoke:
	for workload in tri-powerlaw-random c4-adjacency-tiny c4-file-arbitrary; do \
	  python3 perfbench/run.py --workload $$workload --seed 1 --seconds 5 --trace 0 \
	    | tail -n 1 | python3 -c 'import json, sys; r = json.load(sys.stdin); print(r); \
	    sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' || exit 1; \
	done

bench-tables:
	pytest benchmarks/ -s --benchmark-disable

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f; done

# Guarantee-certification smoke: seed audit over the whole tree, then a
# quick paper-budget certification of two representative estimators.
verify-smoke:
	python -m repro verify seeds
	python -m repro verify guarantee --algorithm edge-sampling-triangles \
	  --algorithm mvv-twopass-triangles --budget-from-paper --quick \
	  --batch 25 --max-trials 50

all: test bench-tables bench
