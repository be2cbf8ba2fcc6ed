"""§7.3 "Search time": Ansor matches AutoTVM's final performance with fewer
measurement trials (the paper reports up to a 10x reduction).

Protocol: tune the same MobileNet-V2 task subset with the AutoTVM stand-in
(limited space, round-robin, a full budget), record its final end-to-end
latency, then run Ansor and report the number of trials at which it first
matches that latency.
"""

import pytest

from repro.hardware import MeasurePipeline, intel_cpu
from repro.scheduler import TaskScheduler
from repro.search import SketchPolicy, limited_space_policy
from repro.workloads import extract_tasks

from harness import BENCH_NETWORK_TASKS, BENCH_TRIALS


def run_search_time(trials=None):
    trials = trials or max(BENCH_TRIALS, 64)
    tasks, weights, dnn = extract_tasks(
        ["mobilenet-v2"], batch=1, hardware=intel_cpu(), max_tasks_per_network=BENCH_NETWORK_TASKS
    )

    autotvm = TaskScheduler(
        tasks, task_weights=weights, task_to_dnn=dnn,
        policy_factory=lambda t, m, s: limited_space_policy(t, cost_model=m, seed=s),
        strategy="round_robin", seed=0,
    )
    autotvm.tune(trials, num_measures_per_round=8, measurer=MeasurePipeline(intel_cpu(), seed=0))
    reference = autotvm.dnn_latency(0)

    ansor = TaskScheduler(
        tasks, task_weights=weights, task_to_dnn=dnn,
        policy_factory=lambda t, m, s: SketchPolicy(t, cost_model=m, seed=s), seed=0,
    )
    ansor.tune(trials, num_measures_per_round=8, measurer=MeasurePipeline(intel_cpu(), seed=0))

    match_trials = None
    for record in ansor.records:
        latency = sum(
            w * (c if c != float("inf") else 1.0) for w, c in zip(weights, record.best_costs)
        )
        if latency <= reference:
            match_trials = record.total_trials
            break
    return {
        "autotvm_trials": autotvm.total_trials,
        "autotvm_latency": reference,
        "ansor_latency": ansor.dnn_latency(0),
        "ansor_match_trials": match_trials,
    }


@pytest.mark.slow
@pytest.mark.benchmark(group="search-time")
def test_search_time_comparison(benchmark):
    result = benchmark.pedantic(run_search_time, rounds=1, iterations=1)
    print("\n=== §7.3 search time: trials needed to match AutoTVM ===")
    print(f"AutoTVM trials        : {result['autotvm_trials']}")
    print(f"AutoTVM latency       : {result['autotvm_latency'] * 1e3:.3f} ms")
    print(f"Ansor final latency   : {result['ansor_latency'] * 1e3:.3f} ms")
    if result["ansor_match_trials"] is not None:
        ratio = result["autotvm_trials"] / result["ansor_match_trials"]
        print(f"Ansor matched AutoTVM after {result['ansor_match_trials']} trials "
              f"({ratio:.1f}x fewer measurements)")
    else:
        print("Ansor did not match AutoTVM within the scaled-down budget")
    # Shape check: Ansor's final latency is at least competitive.
    assert result["ansor_latency"] <= result["autotvm_latency"] * 1.2
