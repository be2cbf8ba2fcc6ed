"""Figure 10: network tuning curves (MobileNet-V2, and MobileNet-V2 + ResNet-50).

Variants, as in the paper's ablation:

* "Ansor (ours)"      — full system with the gradient-descent task scheduler,
* "No task scheduler" — round-robin allocation across subgraphs,
* "No fine-tuning"    — random sampling only,
* "Limited space"     — template-like restricted space,
* "AutoTVM"           — limited space + round-robin (the paper's reference line).

The y-axis of the paper is the speedup relative to AutoTVM; the table below
reports the same quantity at the end of the (scaled-down) budget and the
objective trajectory over trials.
"""

import os

import pytest

from repro.hardware import MeasurePipeline, intel_cpu
from repro.scheduler import TaskScheduler
from repro.search import SketchPolicy, limited_space_policy, random_search_policy
from repro.workloads import extract_tasks

from harness import BENCH_NETWORK_TASKS, BENCH_TRIALS

# The left plot of Figure 10 (MobileNet-V2 alone) runs by default; set
# REPRO_BENCH_FIG10_FULL=1 to also run the right plot (MobileNet-V2 +
# ResNet-50), which takes several times longer.
NETWORK_SETS = [("Mobilenet V2", ["mobilenet-v2"])]
if os.environ.get("REPRO_BENCH_FIG10_FULL", "0") == "1":
    NETWORK_SETS.append(("Mobilenet V2 + ResNet-50", ["mobilenet-v2", "resnet-50"]))

VARIANTS = {
    "Ansor (ours)": dict(
        policy=lambda t, m, s: SketchPolicy(t, cost_model=m, seed=s), strategy="gradient"
    ),
    "No task scheduler": dict(
        policy=lambda t, m, s: SketchPolicy(t, cost_model=m, seed=s), strategy="round_robin"
    ),
    "No fine-tuning": dict(
        policy=lambda t, m, s: random_search_policy(t, seed=s), strategy="gradient"
    ),
    "Limited space": dict(
        policy=lambda t, m, s: limited_space_policy(t, cost_model=m, seed=s), strategy="gradient"
    ),
    "AutoTVM": dict(
        policy=lambda t, m, s: limited_space_policy(t, cost_model=m, seed=s), strategy="round_robin"
    ),
}


def _run_variant(networks, variant, trials):
    tasks, weights, dnn = extract_tasks(
        networks, batch=1, hardware=intel_cpu(), max_tasks_per_network=BENCH_NETWORK_TASKS
    )
    scheduler = TaskScheduler(
        tasks, task_weights=weights, task_to_dnn=dnn,
        policy_factory=variant["policy"], strategy=variant["strategy"], seed=0,
    )
    scheduler.tune(num_measure_trials=trials, num_measures_per_round=8,
                   measurer=MeasurePipeline(intel_cpu(), seed=0))
    curve = [(r.total_trials, r.objective_value) for r in scheduler.records]
    total_latency = sum(scheduler.dnn_latency(i) for i in range(len(networks)))
    return total_latency, curve


def run_figure10(trials=None):
    trials = trials or max(BENCH_TRIALS, 64)
    output = {}
    for label, networks in NETWORK_SETS:
        results = {}
        for name, variant in VARIANTS.items():
            results[name] = _run_variant(networks, variant, trials)
        output[label] = results
    return output


@pytest.mark.slow
@pytest.mark.benchmark(group="fig10")
def test_fig10_network_tuning_curves(benchmark):
    output = benchmark.pedantic(run_figure10, rounds=1, iterations=1)
    for label, results in output.items():
        autotvm_latency = results["AutoTVM"][0]
        print(f"\n=== Figure 10: {label} (speedup relative to AutoTVM) ===")
        print(f"{'variant':<20s} {'latency (ms)':>14s} {'speedup vs AutoTVM':>20s}")
        for name, (latency, curve) in results.items():
            print(f"{name:<20s} {latency * 1e3:>14.3f} {autotvm_latency / latency:>20.2f}")
        ansor = results["Ansor (ours)"][0]
        # Paper shape: the full system ends at or above the AutoTVM reference
        # (within a tolerance at the scaled-down default budget).
        assert ansor <= autotvm_latency * 1.25
