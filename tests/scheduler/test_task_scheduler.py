"""Tests for the gradient-descent task scheduler (§6, Appendix A)."""

import math

import numpy as np
import pytest

from repro.hardware import MeasurePipeline, MeasureResult, arm_cpu, intel_cpu
from repro.scheduler import GeomeanSpeedup, TaskScheduler, WeightedSumLatency
from repro.search.policy import SearchPolicy
from repro.task import SearchTask

from ..conftest import make_matmul_dag, make_matmul_relu_dag, make_norm_dag


class FakePolicy(SearchPolicy):
    """A deterministic policy whose best latency improves as 1/t.

    Task i starts at ``initial`` seconds and converges towards
    ``initial * floor_fraction`` — a controllable stand-in that lets the
    scheduler's allocation behaviour be tested without running real search:
    it proposes the naive program and ingests its scripted cost in place of
    what the pipeline measured.
    """

    def __init__(self, task, initial: float, floor_fraction: float = 0.1, seed: int = 0):
        super().__init__(task, seed=seed)
        self.initial = initial
        self.floor_fraction = floor_fraction
        self.rounds = 0

    def propose_candidates(self, num_measures):
        return [self.task.compute_dag.init_state() for _ in range(num_measures)]

    def ingest_results(self, inputs, results):
        self.rounds += 1
        floor = self.initial * self.floor_fraction
        cost = floor + (self.initial - floor) / self.rounds
        super().ingest_results(inputs, [MeasureResult(costs=[cost]) for _ in inputs])


def _make_tasks():
    return [
        SearchTask(make_matmul_relu_dag(64, 64, 64), intel_cpu(), desc="small"),
        SearchTask(make_matmul_relu_dag(128, 128, 128), intel_cpu(), desc="medium"),
        SearchTask(make_matmul_dag(256, 256, 256), intel_cpu(), desc="large"),
    ]


def _fake_factory(initials):
    def factory(task, cost_model, seed):
        index = len(factory.created)
        policy = FakePolicy(task, initials[index], seed=seed)
        factory.created.append(policy)
        return policy

    factory.created = []
    return factory


def test_round_robin_allocates_evenly():
    tasks = _make_tasks()
    factory = _fake_factory([0.1, 0.1, 0.1])
    scheduler = TaskScheduler(tasks, strategy="round_robin", policy_factory=factory)
    scheduler.tune(num_measure_trials=60, num_measures_per_round=10)
    assert scheduler.allocations == [2, 2, 2]


def test_warm_up_visits_every_task_once():
    tasks = _make_tasks()
    factory = _fake_factory([0.1, 0.2, 0.3])
    scheduler = TaskScheduler(tasks, policy_factory=factory, eps_greedy=0.0)
    scheduler.tune(num_measure_trials=30, num_measures_per_round=10)
    assert all(a >= 1 for a in scheduler.allocations)


def test_gradient_scheduler_prioritizes_heavy_task():
    """A task with 100x the latency should receive most of the allocations
    (the paper's 'prioritize a subgraph that has a high initial latency')."""
    tasks = _make_tasks()
    factory = _fake_factory([0.001, 0.001, 0.1])
    scheduler = TaskScheduler(tasks, policy_factory=factory, eps_greedy=0.0, seed=0)
    scheduler.tune(num_measure_trials=200, num_measures_per_round=10)
    assert scheduler.allocations[2] > scheduler.allocations[0]
    assert scheduler.allocations[2] > scheduler.allocations[1]
    assert scheduler.allocations[2] >= sum(scheduler.allocations) * 0.5


def test_task_weights_affect_allocation():
    tasks = _make_tasks()
    factory = _fake_factory([0.01, 0.01, 0.01])
    scheduler = TaskScheduler(
        tasks, task_weights=[50.0, 1.0, 1.0], policy_factory=factory, eps_greedy=0.0
    )
    scheduler.tune(num_measure_trials=200, num_measures_per_round=10)
    assert scheduler.allocations[0] >= max(scheduler.allocations[1], scheduler.allocations[2])


def test_objective_value_and_latency_reporting():
    tasks = _make_tasks()
    factory = _fake_factory([0.02, 0.03, 0.04])
    scheduler = TaskScheduler(tasks, policy_factory=factory)
    scheduler.tune(num_measure_trials=60, num_measures_per_round=10)
    assert math.isfinite(scheduler.objective_value())
    assert scheduler.dnn_latency(0) > 0
    assert len(scheduler.records) == 6
    assert scheduler.records[-1].total_trials == 60


def test_records_track_selected_tasks():
    tasks = _make_tasks()
    factory = _fake_factory([0.02, 0.03, 0.04])
    scheduler = TaskScheduler(tasks, policy_factory=factory)
    scheduler.tune(num_measure_trials=50, num_measures_per_round=10)
    selected = {r.selected_task for r in scheduler.records}
    assert selected <= {0, 1, 2}


def test_similar_tasks_grouping():
    tasks = _make_tasks()
    scheduler = TaskScheduler(tasks, policy_factory=_fake_factory([0.1] * 3))
    # the two matmul+relu tasks share a signature; the plain matmul does not
    assert 1 in scheduler.similar_tasks(0)
    assert 2 not in scheduler.similar_tasks(0)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        TaskScheduler(_make_tasks(), strategy="random")


def test_empty_task_list_rejected():
    with pytest.raises(ValueError):
        TaskScheduler([])


def test_heterogeneous_tasks_measured_on_their_own_hardware():
    """Regression: the scheduler used to default every task's measurer to
    tasks[0].hardware_params, measuring ARM tasks on the Intel model."""
    tasks = [
        SearchTask(make_matmul_relu_dag(64, 64, 64), intel_cpu(), desc="intel-a"),
        SearchTask(make_matmul_relu_dag(64, 64, 64), arm_cpu(), desc="arm"),
        SearchTask(make_matmul_dag(64, 64, 64), intel_cpu(), desc="intel-b"),
    ]
    factory = _fake_factory([0.1, 0.1, 0.1])
    scheduler = TaskScheduler(tasks, strategy="round_robin", policy_factory=factory)
    scheduler.tune(num_measure_trials=30, num_measures_per_round=10)
    assert [m.hardware.name for m in scheduler.measurers] == [
        "intel-20c", "arm-4c", "intel-20c",
    ]
    # Tasks sharing a hardware description share one pipeline.
    assert scheduler.measurers[0] is scheduler.measurers[2]
    assert scheduler.measurers[0] is not scheduler.measurers[1]


def test_supplied_measurer_validated_against_task_hardware():
    tasks = [
        SearchTask(make_matmul_relu_dag(64, 64, 64), intel_cpu(), desc="intel"),
        SearchTask(make_matmul_relu_dag(64, 64, 64), arm_cpu(), desc="arm"),
    ]
    factory = _fake_factory([0.1, 0.1])
    scheduler = TaskScheduler(tasks, policy_factory=factory)
    with pytest.raises(ValueError, match="different hardware"):
        scheduler.tune(
            num_measure_trials=10,
            measurer=MeasurePipeline(intel_cpu()),
        )


def test_same_name_different_params_get_distinct_pipelines():
    """Hardware dedup keys on the full params, not the name: two targets
    named alike but differing in core count must not share a machine model."""
    import dataclasses

    hw_a = intel_cpu()
    hw_b = dataclasses.replace(intel_cpu(), num_cores=4)
    tasks = [
        SearchTask(make_matmul_relu_dag(64, 64, 64), hw_a, desc="20c"),
        SearchTask(make_matmul_relu_dag(64, 64, 64), hw_b, desc="4c"),
    ]
    factory = _fake_factory([0.1, 0.1])
    scheduler = TaskScheduler(tasks, strategy="round_robin", policy_factory=factory)
    scheduler.tune(num_measure_trials=20, num_measures_per_round=10)
    assert scheduler.measurers[0] is not scheduler.measurers[1]
    assert scheduler.measurers[0].hardware.num_cores == 20
    assert scheduler.measurers[1].hardware.num_cores == 4


def test_measurer_factory_builds_per_hardware_pipelines():
    """Tuner threads options knobs through tune(measurer_factory=...); the
    factory is called once per distinct hardware target."""
    tasks = [
        SearchTask(make_matmul_relu_dag(64, 64, 64), intel_cpu(), desc="intel-a"),
        SearchTask(make_matmul_relu_dag(64, 64, 64), arm_cpu(), desc="arm"),
        SearchTask(make_matmul_dag(64, 64, 64), intel_cpu(), desc="intel-b"),
    ]
    factory = _fake_factory([0.1, 0.1, 0.1])
    scheduler = TaskScheduler(tasks, strategy="round_robin", policy_factory=factory)
    built = []

    def measurer_factory(hw):
        pipeline = MeasurePipeline(hw, n_parallel=4, seed=0)
        built.append(pipeline)
        return pipeline

    scheduler.tune(
        num_measure_trials=30, num_measures_per_round=10, measurer_factory=measurer_factory
    )
    assert len(built) == 2  # one per distinct hardware
    assert all(m.builder.n_parallel == 4 for m in scheduler.measurers)


def test_supplied_measurer_accepted_when_hardware_matches():
    tasks = _make_tasks()
    factory = _fake_factory([0.1, 0.1, 0.1])
    scheduler = TaskScheduler(tasks, strategy="round_robin", policy_factory=factory)
    measurer = MeasurePipeline(intel_cpu(), seed=0)
    scheduler.tune(num_measure_trials=30, num_measures_per_round=10, measurer=measurer)
    assert all(m is measurer for m in scheduler.measurers)


def test_multi_dnn_objective_with_geomean():
    tasks = _make_tasks()
    task_to_dnn = [0, 0, 1]
    weights = [1.0, 1.0, 1.0]
    objective = GeomeanSpeedup(weights, task_to_dnn, reference_latencies=[1.0, 1.0])
    factory = _fake_factory([0.02, 0.03, 0.04])
    scheduler = TaskScheduler(
        tasks, task_weights=weights, task_to_dnn=task_to_dnn, objective=objective, policy_factory=factory
    )
    scheduler.tune(num_measure_trials=60, num_measures_per_round=10)
    assert scheduler.objective_value() < 0  # a (negated) speedup


# ---------------------------------------------------------------------------
# Placeholder costs for unmeasured tasks (regression: objective_value used to
# substitute 1.0 while dnn_latency substituted 0.0)
# ---------------------------------------------------------------------------


class EmptyPolicy(SearchPolicy):
    """A policy whose search space is exhausted: it never produces candidates."""

    def propose_candidates(self, num_measures):
        return []


def test_unmeasured_tasks_use_one_consistent_placeholder():
    """Before any measurement, objective_value and dnn_latency must agree on
    the placeholder: a pessimistic UNMEASURED_LATENCY_SEC per task, never a
    0.0 that claims an untuned subgraph is free."""
    from repro.scheduler.task_scheduler import UNMEASURED_LATENCY_SEC

    tasks = _make_tasks()
    scheduler = TaskScheduler(tasks, policy_factory=_fake_factory([0.1] * 3))
    expected = len(tasks) * UNMEASURED_LATENCY_SEC
    assert scheduler.objective_value() == pytest.approx(expected)
    assert scheduler.dnn_latency(0) == pytest.approx(expected)


def test_pre_warmup_tuning_curve_is_finite_and_decreasing():
    """During warm-up some tasks are still unmeasured: every curve point must
    be finite, bounded by the all-placeholder value, and improve as real
    (sub-placeholder) measurements replace placeholders."""
    from repro.scheduler.task_scheduler import UNMEASURED_LATENCY_SEC

    tasks = _make_tasks()
    factory = _fake_factory([0.1, 0.2, 0.3])
    scheduler = TaskScheduler(tasks, policy_factory=factory, eps_greedy=0.0, seed=0)
    # Budget for two of three warm-up rounds: one task stays unmeasured.
    scheduler.tune(num_measure_trials=20, num_measures_per_round=10)
    ceiling = len(tasks) * UNMEASURED_LATENCY_SEC
    values = [r.objective_value for r in scheduler.records]
    assert len(values) == 2
    assert all(math.isfinite(v) for v in values)
    assert all(v < ceiling for v in values)
    assert values[1] < values[0]
    # The partially tuned network reports the placeholder for the unmeasured
    # task instead of pretending it costs nothing.
    measured = [c for c in scheduler.best_costs if math.isfinite(c)]
    assert len(measured) == 2
    assert scheduler.dnn_latency(0) == pytest.approx(
        sum(measured) + UNMEASURED_LATENCY_SEC
    )


# ---------------------------------------------------------------------------
# Empty rounds exhaust a task (regression: a dead task used to be selectable
# forever, burning the budget one phantom trial at a time)
# ---------------------------------------------------------------------------


def test_empty_rounds_exhaust_the_task():
    tasks = _make_tasks()[:2]

    def factory(task, cost_model, seed):
        if not factory.created:
            policy = EmptyPolicy(task, seed=seed)
        else:
            policy = FakePolicy(task, 0.1, seed=seed)
        factory.created.append(policy)
        return policy

    factory.created = []
    scheduler = TaskScheduler(tasks, policy_factory=factory, eps_greedy=0.0, seed=0)
    best = scheduler.tune(num_measure_trials=40, num_measures_per_round=10)
    # The dead task was retired after max_empty_rounds phantom trials...
    assert scheduler.exhausted[0]
    assert scheduler.empty_rounds[0] == scheduler.max_empty_rounds
    # ...with its history unpolluted (no stale points from empty rounds)...
    assert scheduler.latency_history[0] == []
    assert not math.isfinite(best[0])
    # ...and the remaining budget went to the live task instead of phantom
    # trials: total budget minus one phantom per empty round.
    live_trials = factory.created[1].num_trials
    assert live_trials == 40 - scheduler.max_empty_rounds
    assert scheduler.total_trials == 40


def test_all_tasks_empty_ends_the_session():
    tasks = _make_tasks()[:2]

    def factory(task, cost_model, seed):
        return EmptyPolicy(task, seed=seed)

    scheduler = TaskScheduler(tasks, policy_factory=factory, eps_greedy=0.0, seed=0)
    scheduler.tune(num_measure_trials=100, num_measures_per_round=10)
    assert all(scheduler.exhausted)
    # Bounded waste: at most max_empty_rounds phantom trials per task.
    assert scheduler.total_trials <= len(tasks) * scheduler.max_empty_rounds


def test_max_empty_rounds_validated():
    with pytest.raises(ValueError, match="max_empty_rounds"):
        TaskScheduler(_make_tasks(), max_empty_rounds=0)


@pytest.mark.slow
def test_real_policies_integration_small():
    """End-to-end with real SketchPolicies on tiny budgets."""
    tasks = [
        SearchTask(make_matmul_relu_dag(64, 64, 64), intel_cpu(), desc="mm64"),
        SearchTask(make_norm_dag(4, 64, 64), intel_cpu(), desc="norm"),
    ]
    scheduler = TaskScheduler(tasks, seed=0)
    best = scheduler.tune(num_measure_trials=24, num_measures_per_round=6)
    assert len(best) == 2
    assert all(math.isfinite(c) for c in best)
    states = scheduler.best_states()
    assert all(s is not None for s in states)
