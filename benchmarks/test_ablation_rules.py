"""Ablation: individual sketch derivation rules (DESIGN.md design choices).

Two targeted experiments on the rules that create *new nodes*:

* the cache-write rule (Table 1, rule 5) on a plain matmul whose output has
  no fusible consumer, and
* the rfactor rule (Table 1, rule 6) on the matrix 2-norm workload whose
  spatial extent is tiny (the paper's NRM speedup is attributed to
  parallelizing the reduction loop).
"""

import pytest

from repro import SearchTask, Tuner, TuningOptions, intel_cpu
from repro.hardware import MeasurePipeline
from repro.search import SketchPolicy
from repro.search.space import SearchSpaceOptions
from repro.workloads import matmul, matrix_norm

from harness import BENCH_TRIALS


def _tune(task, space, seed=0, trials=None):
    trials = trials or BENCH_TRIALS
    policy = SketchPolicy(task, space=space, seed=seed)
    Tuner(task, policy=policy,
          options=TuningOptions(num_measure_trials=trials, num_measures_per_round=16),
          measurer=MeasurePipeline(task.hardware_params, seed=seed)).tune()
    return policy.best_throughput()


def run_rule_ablation():
    results = {}
    matmul_task = SearchTask(matmul(512, 512, 512), intel_cpu(), desc="matmul512")
    results["matmul / full rules"] = _tune(matmul_task, SearchSpaceOptions())
    results["matmul / no cache-write"] = _tune(
        matmul_task, SearchSpaceOptions(enable_cache_write=False)
    )
    norm_task = SearchTask(matrix_norm(1, 1024, 1024), intel_cpu(), desc="NRM 1024")
    results["norm / full rules"] = _tune(norm_task, SearchSpaceOptions())
    results["norm / no rfactor"] = _tune(norm_task, SearchSpaceOptions(enable_rfactor=False))
    return results


@pytest.mark.slow
@pytest.mark.benchmark(group="ablation-rules")
def test_sketch_rule_ablation(benchmark):
    results = benchmark.pedantic(run_rule_ablation, rounds=1, iterations=1)
    print("\n=== Ablation: sketch derivation rules (GFLOP/s) ===")
    for name, throughput in results.items():
        print(f"{name:<28s} {throughput / 1e9:10.2f}")
    # Removing rfactor must hurt the reduction-dominated NRM workload: without
    # it the reduction cannot be parallelized (§7.1, the NRM speedup).
    assert results["norm / full rules"] >= results["norm / no rfactor"] * 2.0
    # The cache-write rule enlarges the space; at small budgets the extra
    # sketches dilute the sampling, so only require the full space to stay in
    # the same ballpark (the per-rule value is workload dependent).
    assert results["matmul / full rules"] >= results["matmul / no cache-write"] * 0.4
