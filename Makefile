# Development shortcuts.  The tier-1 gate is `make test`.
#
# Performance: `make throughput` runs the search-hot-path microbenchmark
# (predicted states/sec), `make measure-throughput` the measurement-pipeline
# benchmark (measured trials/sec: parallel builder vs the serial builder, and
# the async-session stage: one-round-lookahead overlap vs the sync
# breed|measure schedule, gated >= 1.3x when device latency dominates),
# `make model-bench` the cost-model training stage (windowed vs full
# retraining at 5k records, gated >= 3x with best-cost parity) —
# all write into BENCH_search_throughput.json — and `make profile` runs a
# small evolution under cProfile (top-25 cumulative).

PYTEST = PYTHONPATH=src python -m pytest

.PHONY: test test-fast bench examples throughput measure-throughput store-bench fleet-bench model-bench variant-bench profile install help

install:
	pip install -e .

# Tier-1 verify: the full suite, stopping at the first failure.
test:
	$(PYTEST) -x -q

# Quick loop: skip the long-running integration/search/benchmark tests.
test-fast:
	$(PYTEST) -x -q -m "not slow"

# Only the paper-figure benchmarks (all marked slow).
bench:
	$(PYTEST) -q benchmarks

# Run all six examples end to end; the conv2d and network examples get a
# 32-trial budget.
examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/tune_conv2d.py 32
	PYTHONPATH=src python examples/tune_network.py mobilenet-v2 32
	PYTHONPATH=src python examples/custom_sketch_rule.py
	PYTHONPATH=src python examples/persistent_cost_model.py
	PYTHONPATH=src python examples/tune_with_store.py

# Search-throughput perf baseline: batched vs seed per-row scoring (fast).
throughput:
	$(PYTEST) -q -s benchmarks/test_search_throughput.py

# Measurement-throughput baseline: parallel builder vs the serial builder, and
# the async session overlap vs the synchronous round schedule.
measure-throughput:
	$(PYTEST) -q -s benchmarks/test_measure_throughput.py

# Schedule-store baseline: indexed lookup vs full-log rescan (>= 100x) and
# store-seeded warm-start vs cold search (median <= 0.5x trials to the cold
# best over a seed panel).
store-bench:
	$(PYTEST) -q -s benchmarks/test_store_lookup.py

# Fleet-resilience baseline: breaker-on vs breaker-off throughput under a
# 50%-faulty board (>= 2x, best cost within 5% of a healthy pool), fault-rate
# estimation convergence (within 20% after 100 trials), and no-fault parity.
fleet-bench:
	$(PYTEST) -q -s benchmarks/test_fleet_resilience.py

# Cost-model training baseline: windowed vs full retraining at 1k/5k
# accumulated records (windowed >= 3x faster per update at 5k, session best
# cost within 5% of the full-retrain path).
model-bench:
	$(PYTEST) -q -s benchmarks/test_search_throughput.py::test_training_throughput

# Algorithm-variant search baseline: arbitrated conv2d variant groups
# (direct vs im2col vs tiled-gemm) within 1.1x of exhaustive per-variant
# tuning at <= 0.6x the trials, and the winning variant flipping across
# hardware targets on at least one shape.
variant-bench:
	$(PYTEST) -q -s benchmarks/test_variant_search.py

# Profile the search hot path: a small evolution run under cProfile.
profile:
	PYTHONPATH=src python benchmarks/profile_search.py

help:
	@echo "make test        - tier-1 gate: full suite, stop at first failure"
	@echo "make test-fast   - quick loop, skips tests marked slow"
	@echo "make bench       - paper-figure benchmarks (slow)"
	@echo "make examples    - run all six examples end to end (short budgets)"
	@echo "make throughput  - search states/sec baseline -> BENCH_search_throughput.json"
	@echo "make measure-throughput - measured trials/sec: parallel vs serial, async overlap vs sync"
	@echo "make store-bench - schedule store: indexed lookup vs log rescan, warm-start vs cold search"
	@echo "make fleet-bench - device fleet: breaker vs fault storm, estimate convergence, no-fault parity"
	@echo "make model-bench - cost model: windowed vs full retraining at 5k records (>= 3x, best-cost parity)"
	@echo "make variant-bench - variant search: arbitrated groups vs exhaustive tuning + per-target winner flips"
	@echo "make profile     - cProfile a small evolution run (top-25 cumulative)"
	@echo "make install     - pip install -e ."
