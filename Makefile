# Development entry points.  Everything runs against src/ directly —
# there is no build step.  `make test` is the tier-1 gate; `make
# docs-check` enforces the docstring bar described in docs/architecture.md.

PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

.PHONY: test unit bench bench-store serve-bench attack-bench defense-bench obs-bench cluster-bench durable-bench grind-bench perfbench examples docs-check check

## Full tier-1 run: tests + benchmark reproduction gates.
test:
	$(PYTHON) -m pytest -x -q

## Unit tests only (fast inner loop; skips the benchmark suites).
unit:
	$(PYTHON) -m pytest tests -x -q

## Benchmarks only, with timing tables and archived reports.
bench:
	$(PYTHON) -m pytest benchmarks -q

## Store/serving throughput gate only (>=10x batched-service floor).
bench-store:
	$(PYTHON) -m pytest benchmarks/test_bench_store.py -q

## Async serving gate only; regenerates benchmarks/reports/serving_throughput.txt.
serve-bench:
	$(PYTHON) -m pytest benchmarks/test_bench_serving.py -q

## Parallel attack gate only; regenerates benchmarks/reports/attack_throughput.txt.
attack-bench:
	$(PYTHON) -m pytest benchmarks/test_bench_attacks.py -q

## Defense-layer gate (neutral cell < 5% serving cost); regenerates
## benchmarks/reports/defense_matrix.txt with the full defense/attack matrix.
defense-bench:
	$(PYTHON) -m pytest benchmarks/test_bench_defense.py -q

## Telemetry overhead gate (instrumented serving >= 95% of the no-op
## registry) plus the metrics wire round-trip; regenerates
## benchmarks/reports/obs_overhead.txt.
obs-bench:
	$(PYTHON) -m pytest benchmarks/test_bench_obs.py -q

## Million-user soak of the shard-per-process serving cluster: parallel
## enrollment across workers, 64-connection pipelined flood through the
## router, then the 4->8 live reshard drill; regenerates
## benchmarks/reports/cluster_throughput.txt.
cluster-bench:
	CLUSTER_USERS=1000000 CLUSTER_ATTEMPTS=200000 \
		$(PYTHON) -m pytest benchmarks/test_bench_cluster.py -q

## Group-commit write-path gate on a durable backend: sqlite-backed async
## serving flood >=3x the forced per-record-commit path, plus the bulk
## enrollment (enroll_many) gate; regenerates
## benchmarks/reports/durable_throughput.txt (+ .json).
durable-bench:
	DURABLE_ATTEMPTS=8000 DURABLE_ENROLL_ACCOUNTS=500 \
		$(PYTHON) -m pytest benchmarks/test_bench_durable.py -q

## Million-account stolen-file grind through the work-stealing queue;
## appends its throughput/straggler section to
## benchmarks/reports/attack_throughput.txt.
grind-bench:
	GRIND_ACCOUNTS=1000000 GRIND_BUDGET=64 GRIND_REPORT=1 \
		$(PYTHON) examples/grind_million.py

## The repo benchmark (BENCHMARK.json): one untraced 20 s run per workload
## (seed 1), end-to-end metrics printed, every decision checked against a
## reference.
perfbench:
	@set -e; for workload in login-storm login-cluster grind; do \
		echo "== $$workload"; \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 1 --seconds 20 \
			--trace 0; \
	done

## Execute every example end-to-end.
examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null; \
	done; echo "all examples ok"

## Fail when any public symbol lacks a docstring.
docs-check:
	$(PYTHON) tools/check_docstrings.py src/repro tools

## Everything a PR must pass.
check: docs-check test
