"""Ablation: evolutionary search operators (§5.1).

Compares, on one conv2d task and a fixed measurement budget:

* full evolution (mutation + node-based crossover) guided by the learned
  cost model,
* mutation-only evolution (crossover disabled),
* no evolution at all (random sampling, the "No fine-tuning" variant).
"""

import pytest

from repro import SearchTask, Tuner, TuningOptions, intel_cpu
from repro.hardware import MeasurePipeline
from repro.search import SketchPolicy, random_search_policy
from repro.workloads import conv2d

from harness import BENCH_TRIALS


def run_evolution_ablation(trials=None, seed=0):
    trials = trials or BENCH_TRIALS
    task = SearchTask(conv2d(1, 128, 28, 28, 128, 3, 1, 1), intel_cpu(), desc="conv2d 128x28")
    budget = TuningOptions(num_measure_trials=trials, num_measures_per_round=16)

    results = {}
    full = SketchPolicy(task, seed=seed)
    Tuner(task, policy=full, options=budget,
          measurer=MeasurePipeline(task.hardware_params, seed=seed)).tune()
    results["mutation + crossover"] = full.best_throughput()

    mutation_only = SketchPolicy(task, seed=seed)
    mutation_only_evo_prob = 1.0  # crossover disabled via mutation_prob=1.0
    # Rebuild with mutation probability forced to 1.0 inside the evolution.
    from repro.search.evolutionary import EvolutionarySearch

    original_init = EvolutionarySearch.__init__

    def patched_init(self, *args, **kwargs):
        kwargs["mutation_prob"] = mutation_only_evo_prob
        original_init(self, *args, **kwargs)

    EvolutionarySearch.__init__ = patched_init
    try:
        Tuner(task, policy=mutation_only, options=budget,
              measurer=MeasurePipeline(task.hardware_params, seed=seed)).tune()
    finally:
        EvolutionarySearch.__init__ = original_init
    results["mutation only"] = mutation_only.best_throughput()

    random_only = random_search_policy(task, seed=seed)
    Tuner(task, policy=random_only, options=budget,
          measurer=MeasurePipeline(task.hardware_params, seed=seed)).tune()
    results["no evolution (random)"] = random_only.best_throughput()
    return results


@pytest.mark.slow
@pytest.mark.benchmark(group="ablation-evolution")
def test_evolution_operator_ablation(benchmark):
    results = benchmark.pedantic(run_evolution_ablation, rounds=1, iterations=1)
    print("\n=== Ablation: evolution operators (GFLOP/s) ===")
    for name, throughput in results.items():
        print(f"{name:<24s} {throughput / 1e9:10.2f}")
    # Evolution (with or without crossover) must not lose to pure random
    # sampling under the same budget.
    assert results["mutation + crossover"] >= results["no evolution (random)"] * 0.9
