"""The one round driver against the two synchronous loops it replaced.

``TaskScheduler.tune`` drives every session: a single task is a one-task
scheduler, and synchronous measurement is the same loop with no lookahead.
The two batch-synchronous loops it replaced — the standalone policy loop and
the scheduler's round loop — are kept below as reference drivers, and seeded
sessions must reproduce them exactly: the candidates of every round, the
policy histories, the scheduler's records and allocations, and the best
costs.  The last test covers the one intended behaviour change of the merge:
a task stopped from ``on_result`` has its queued lookahead work recalled.
"""

import math

import pytest

from repro import (
    EarlyStopper,
    LocalBuilder,
    LogicalOp,
    MeasureCallback,
    MeasureEvent,
    MeasureInput,
    MeasurePipeline,
    MeasureResultEvent,
    SearchTask,
    SketchPolicy,
    StopTuning,
    TaskScheduler,
    Tuner,
    TuningOptions,
    edge_cpu,
    intel_cpu,
)
from repro.callbacks import fire_result, fire_round, fire_scheduler_round
from repro.cost_model import CostModelService
from repro.scheduler.objectives import EarlyStoppingLatency
from repro.scheduler.task_scheduler import TaskSchedulerRecord
from repro.search import random_search_policy

from .conftest import make_matmul_dag, make_matmul_relu_dag

CONV_PARAMS = dict(
    batch=1, in_channels=16, height=14, width=14,
    out_channels=16, kernel=3, stride=2, padding=1,
)


# ---------------------------------------------------------------------------
# Reference drivers: the deleted synchronous loops, kept as the oracle
# ---------------------------------------------------------------------------


def _one_round(policy, num_measures, measurer):
    """The deleted default round of a policy: propose, measure, ingest."""
    candidates = policy.propose_candidates(num_measures)
    if not candidates:
        return [], []
    inputs = [MeasureInput(policy.task, state) for state in candidates]
    results = measurer.measure(inputs)
    policy.ingest_results(inputs, results)
    return inputs, results


def _round_event(policy, inputs, results, measurer):
    return MeasureEvent(
        task=policy.task, policy=policy, inputs=list(inputs), results=list(results),
        num_trials=policy.num_trials, best_cost=policy.best_cost, measurer=measurer,
    )


def _fire_round_events(callbacks, event):
    """The deleted synchronous event order: after ingestion, one
    ``on_result`` per measurement, then ``on_round``; the first stop
    re-raises once every callback saw every event."""
    stop = None
    for inp, res in zip(event.inputs, event.results):
        try:
            fire_result(callbacks, MeasureResultEvent(
                task=event.task, policy=event.policy, input=inp, result=res,
                measurer=event.measurer,
            ))
        except StopTuning as exc:
            stop = stop or exc
    try:
        fire_round(callbacks, event)
    except StopTuning as exc:
        stop = stop or exc
    if stop is not None:
        raise stop


def reference_policy_tune(policy, options, measurer, callbacks=()):
    """The deleted standalone loop of ``SearchPolicy.tune`` (sync path)."""
    active = list(callbacks)
    if options.early_stopping:
        active.append(EarlyStopper(options.early_stopping))
    for cb in active:
        cb.on_tuning_start(policy)
    try:
        while policy.num_trials < options.num_measure_trials:
            budget = min(
                options.num_measures_per_round,
                options.num_measure_trials - policy.num_trials,
            )
            inputs, results = _one_round(policy, budget, measurer)
            if not inputs:
                break
            _fire_round_events(active, _round_event(policy, inputs, results, measurer))
    except StopTuning:
        pass
    finally:
        for cb in active:
            cb.on_tuning_end(policy)
    return policy.best_state


def reference_scheduler_tune(
    self,
    num_measure_trials,
    num_measures_per_round=16,
    measurer=None,
    callbacks=(),
    measurer_factory=None,
    async_measure=False,
):
    """The deleted batch-synchronous ``TaskScheduler.tune`` (its
    ``_tune_rounds`` loop), a drop-in for the method."""
    assert not async_measure
    self.measurers = self._make_measurers(measurer, measurer_factory)
    active = list(callbacks)
    nothing_pending = [0] * len(self.tasks)
    for cb in active:
        cb.on_tuning_start(self)
    try:
        while self.total_trials < num_measure_trials:
            index = self._select_task(nothing_pending)
            if index is None:
                break
            policy = self.policies[index]
            task_measurer = self.measurers[index]
            budget = min(num_measures_per_round, num_measure_trials - self.total_trials)
            inputs, results = _one_round(policy, budget, task_measurer)
            consumed = len(inputs)
            stopped = False
            if active and inputs:
                try:
                    _fire_round_events(
                        active, _round_event(policy, inputs, results, task_measurer)
                    )
                except StopTuning:
                    stopped = True
            if consumed == 0:
                self.total_trials += 1
                self.allocations[index] += 1
                self.empty_rounds[index] += 1
                if self.empty_rounds[index] >= self.max_empty_rounds:
                    self.exhausted[index] = True
                continue
            self.empty_rounds[index] = 0
            if stopped:
                self.exhausted[index] = True
            self.total_trials += consumed
            self.task_trials[index] += consumed
            self.allocations[index] += 1
            self.best_costs[index] = policy.best_cost
            self.latency_history[index].append(policy.best_cost)
            if isinstance(self.objective, EarlyStoppingLatency):
                self.objective.observe(index, policy.best_cost)
            record = TaskSchedulerRecord(
                total_trials=self.total_trials,
                objective_value=self.objective_value(),
                best_costs=list(self.best_costs),
                selected_task=index,
            )
            self.records.append(record)
            try:
                if active:
                    fire_scheduler_round(active, self, record)
            except StopTuning:
                break
    finally:
        for cb in active:
            cb.on_tuning_end(self)
    return list(self.best_costs)


class RoundRecorder(MeasureCallback):
    """The candidates of every measured round, by task."""

    def __init__(self):
        self.rounds = []

    def on_round(self, event):
        self.rounds.append(
            (event.task.desc, [inp.state.fingerprint() for inp in event.inputs])
        )


def _assert_same_scheduler(new, ref):
    assert new.records == ref.records
    assert new.allocations == ref.allocations
    assert new.task_trials == ref.task_trials
    assert new.best_costs == ref.best_costs
    assert new.latency_history == ref.latency_history
    assert new.exhausted == ref.exhausted
    assert [p.history for p in new.policies] == [p.history for p in ref.policies]


# ---------------------------------------------------------------------------
# Parity cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trials, early_stopping", [(32, None), (48, 1)])
def test_single_task_session_matches_the_policy_loop(trials, early_stopping):
    task = SearchTask(make_matmul_relu_dag(128, 128, 128), intel_cpu(), desc="mm128")
    options = TuningOptions(
        num_measure_trials=trials, num_measures_per_round=8, seed=0,
        early_stopping=early_stopping,
    )
    new_rounds = RoundRecorder()
    result = Tuner(task, options=options, callbacks=[new_rounds]).tune()

    # What a single-task session used to build: a registry policy on a view
    # of the session's cost-model service, a pipeline from the options.
    service = CostModelService.from_options(options)
    policy = SketchPolicy(task, seed=options.seed, cost_model=service.view(task))
    ref_rounds = RoundRecorder()
    reference_policy_tune(
        policy, options, MeasurePipeline.from_options(task.hardware_params, options),
        [ref_rounds],
    )

    assert new_rounds.rounds == ref_rounds.rounds
    if early_stopping:
        assert policy.num_trials < trials  # the stop ended the session early
    else:
        assert policy.num_trials == trials
    new_policy = result.scheduler.policies[0]
    assert new_policy.history == policy.history
    assert result.history == policy.history
    assert result.num_trials == policy.num_trials
    assert result.best_cost == policy.best_cost
    assert result.best_state.fingerprint() == policy.best_state.fingerprint()


def test_three_task_scheduler_matches_the_scheduler_loop():
    hardware = intel_cpu()

    def tasks():
        return [
            SearchTask(make_matmul_relu_dag(64, 64, 64), hardware, desc="a"),
            SearchTask(make_matmul_dag(96, 96, 96), hardware, desc="b"),
            SearchTask(make_matmul_relu_dag(128, 64, 64), hardware, desc="c"),
        ]

    new = TaskScheduler(tasks(), seed=0)
    new_rounds = RoundRecorder()
    new.tune(48, num_measures_per_round=8, callbacks=[new_rounds])

    ref = TaskScheduler(tasks(), seed=0)
    ref_rounds = RoundRecorder()
    reference_scheduler_tune(ref, 48, num_measures_per_round=8, callbacks=[ref_rounds])

    assert new_rounds.rounds == ref_rounds.rounds
    assert {desc for desc, _ in ref_rounds.rounds} == {"a", "b", "c"}
    _assert_same_scheduler(new, ref)


def test_variant_group_with_pruning_matches_the_scheduler_loop(monkeypatch):
    options = TuningOptions(
        num_measure_trials=40, num_measures_per_round=8, seed=0,
        variant_min_trials=8, variant_prune_margin=1.05,
    )

    def session():
        rounds = RoundRecorder()
        result = Tuner(
            LogicalOp("conv2d", CONV_PARAMS, hardware=edge_cpu()),
            options=options, callbacks=[rounds],
        ).tune()
        return result, rounds

    new, new_rounds = session()
    monkeypatch.setattr(TaskScheduler, "tune", reference_scheduler_tune)
    ref, ref_rounds = session()

    assert new_rounds.rounds == ref_rounds.rounds
    _assert_same_scheduler(new.scheduler, ref.scheduler)
    pruned = [t.pruned_at for t in new.variant_result.trajectories]
    assert pruned == [t.pruned_at for t in ref.variant_result.trajectories]
    assert any(at is not None for at in pruned)  # the case exercises pruning
    assert new.variant_result.winner == ref.variant_result.winner
    assert new.best_cost == ref.best_cost


# ---------------------------------------------------------------------------
# Stopping one task of an async session
# ---------------------------------------------------------------------------


def test_stopped_task_has_its_lookahead_round_recalled():
    """A task stopped from ``on_result`` while its next round is already
    queued behind the current one: that lookahead round is recalled, not
    measured, and the other task keeps tuning with the freed budget."""
    hardware = intel_cpu()
    tasks = [
        SearchTask(make_matmul_relu_dag(256, 256, 256), hardware, desc="heavy"),
        SearchTask(make_matmul_relu_dag(16, 16, 16), hardware, desc="light"),
    ]
    proposed = {0: [], 1: []}

    def factory(task, cost_model, seed):
        policy = random_search_policy(task, seed=seed, sample_init_population=16)
        index = tasks.index(task)
        propose = policy.propose_candidates

        def counted(num_measures):
            states = propose(num_measures)
            proposed[index].append(len(states))
            return states

        policy.propose_candidates = counted
        return policy

    class StopHeavyInItsSecondRound(MeasureCallback):
        def on_result(self, event):
            if event.task is tasks[0] and event.policy.num_trials >= 8:
                raise StopTuning("heavy is good enough")

    # The heavy task dominates the weighted objective, so after warm-up it
    # is selected for two rounds in a row: its second round is collected
    # while its third waits in the shared session's queue.
    scheduler = TaskScheduler(
        tasks, task_weights=[100.0, 1.0], policy_factory=factory, eps_greedy=0.0, seed=0
    )
    pipeline = MeasurePipeline(
        hardware, builder=LocalBuilder(build_latency_sec=0.02), seed=0
    )
    scheduler.tune(
        64, num_measures_per_round=8, measurer=pipeline, async_measure=True,
        callbacks=[StopHeavyInItsSecondRound()],
    )

    assert scheduler.exhausted[0]
    assert len(proposed[0]) == 3
    # Round one in full, part of round two, nothing of the recalled third.
    assert 8 < scheduler.task_trials[0] < 8 + proposed[0][1]
    assert scheduler.policies[0].num_trials == scheduler.task_trials[0]
    # The light task took the budget the heavy one no longer draws.
    assert scheduler.total_trials == 64
    assert scheduler.task_trials[1] == 64 - scheduler.task_trials[0]
    assert not scheduler.exhausted[1]
    # Recalled work never reached a device: every measurement is a trial.
    assert pipeline.measure_count == scheduler.total_trials
    assert all(math.isfinite(c) for c in scheduler.best_costs)
