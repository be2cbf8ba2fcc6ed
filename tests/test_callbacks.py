"""Unit tests for the measure-callback pipeline."""

import io

import pytest

from repro import (
    EarlyStopper,
    MeasureCallback,
    MeasureEvent,
    ProgressLogger,
    RecordToFile,
    SearchTask,
    StopTuning,
    Tuner,
    TuningOptions,
    intel_cpu,
)
from repro.callbacks import fire_round
from repro.hardware import MeasurePipeline
from repro.scheduler import TaskScheduler
from repro.search import SketchPolicy

from .conftest import make_matmul_dag, make_matmul_relu_dag


def _event(task, policy, num_trials, best_cost):
    return MeasureEvent(
        task=task, policy=policy, inputs=[], results=[],
        num_trials=num_trials, best_cost=best_cost,
    )


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(64, 64, 64), intel_cpu(), desc="mm64")


def test_early_stopper_requires_positive_patience():
    with pytest.raises(ValueError):
        EarlyStopper(0)


def test_early_stopper_tracks_improvement_per_policy(task, intel_hardware):
    # One policy per task, as the task scheduler builds them; identical
    # workloads (same workload_key) must not share a staleness counter.
    other = SearchTask(make_matmul_dag(32, 32, 32), intel_hardware, desc="mm32")
    policy = SketchPolicy(task)
    other_policy = SketchPolicy(other)
    stopper = EarlyStopper(patience=2)

    stopper.on_round(_event(task, policy, 8, 1.0))   # first observation: improves
    stopper.on_round(_event(task, policy, 16, 1.0))  # stale 1
    # a different policy does not reset (or trip) the first one's counter
    stopper.on_round(_event(other, other_policy, 8, 5.0))
    with pytest.raises(StopTuning):
        stopper.on_round(_event(task, policy, 24, 1.0))  # stale 2 -> stop
    # the other policy keeps tuning
    stopper.on_round(_event(other, other_policy, 16, 4.0))


def test_early_stopper_separates_duplicate_workloads(task):
    # Two policies over the SAME task (equal workload keys): each gets its
    # own counter, so one stalling does not exhaust the other.
    stalling, improving = SketchPolicy(task, seed=0), SketchPolicy(task, seed=1)
    stopper = EarlyStopper(patience=1)
    stopper.on_round(_event(task, stalling, 8, 1.0))
    stopper.on_round(_event(task, improving, 8, 2.0))  # worse cost, but its own first round
    stopper.on_round(_event(task, improving, 16, 1.5))  # still improving itself
    with pytest.raises(StopTuning):
        stopper.on_round(_event(task, stalling, 16, 1.0))


def test_early_stopper_min_trials_defers_stop(task):
    policy = SketchPolicy(task)
    stopper = EarlyStopper(patience=1, min_trials=32)
    stopper.on_round(_event(task, policy, 8, 1.0))
    stopper.on_round(_event(task, policy, 16, 1.0))  # stale but below min_trials
    with pytest.raises(StopTuning):
        stopper.on_round(_event(task, policy, 32, 1.0))


def test_fire_round_runs_every_callback_before_reraising(task):
    seen = []

    class Recorder(MeasureCallback):
        def on_round(self, event):
            seen.append(event.num_trials)

    class Stopper(MeasureCallback):
        def on_round(self, event):
            raise StopTuning("stop")

    policy = SketchPolicy(task)
    with pytest.raises(StopTuning):
        # the stopper fires first, but the recorder still sees the round
        fire_round([Stopper(), Recorder()], _event(task, policy, 8, 1.0))
    assert seen == [8]


def test_progress_logger_reports_measure_errors(task):
    from repro.hardware import MeasureResult

    stream = io.StringIO()
    logger = ProgressLogger(stream=stream)
    policy = SketchPolicy(task)
    event = _event(task, policy, 8, 1.0)
    event.results = [MeasureResult(costs=[], error="ValueError: bad schedule")]
    logger.on_round(event)
    assert "errors=1" in stream.getvalue()


def test_scheduler_marks_early_stopped_tasks_exhausted(intel_hardware):
    tasks = [
        SearchTask(make_matmul_relu_dag(64, 64, 64), intel_hardware, desc="a"),
        SearchTask(make_matmul_relu_dag(96, 96, 96), intel_hardware, desc="b"),
    ]
    scheduler = TaskScheduler(tasks, seed=0)
    measurer = MeasurePipeline(intel_hardware, seed=0)
    # patience 1: each task stops after its first non-improving round
    scheduler.tune(200, num_measures_per_round=8, measurer=measurer,
                   callbacks=[EarlyStopper(patience=1)])
    assert all(scheduler.exhausted)
    assert scheduler.total_trials < 200
    # both tasks still got tuned before stopping
    assert all(a > 0 for a in scheduler.allocations)


def test_scheduler_fires_scheduler_round_hook(intel_hardware):
    rounds = []

    class SchedulerWatcher(MeasureCallback):
        def on_scheduler_round(self, scheduler, record):
            rounds.append((record.selected_task, record.total_trials))

    tasks = [SearchTask(make_matmul_relu_dag(64, 64, 64), intel_hardware, desc="a")]
    scheduler = TaskScheduler(tasks, seed=0)
    scheduler.tune(16, num_measures_per_round=8,
                   measurer=MeasurePipeline(intel_hardware, seed=0),
                   callbacks=[SchedulerWatcher()])
    assert rounds == [(0, 8), (0, 16)]


def test_stop_tuning_from_scheduler_round_hook_stops_gracefully(intel_hardware):
    class GlobalBudget(MeasureCallback):
        def on_scheduler_round(self, scheduler, record):
            if record.total_trials >= 16:
                raise StopTuning("global budget reached")

    tasks = [SearchTask(make_matmul_relu_dag(64, 64, 64), intel_hardware, desc="a")]
    scheduler = TaskScheduler(tasks, seed=0)
    best = scheduler.tune(64, num_measures_per_round=8,
                          measurer=MeasurePipeline(intel_hardware, seed=0),
                          callbacks=[GlobalBudget()])
    # the session ended gracefully with results instead of raising
    assert scheduler.total_trials == 16
    assert len(best) == 1


def test_scheduler_round_hook_runs_all_callbacks_before_stopping(intel_hardware):
    """A StopTuning from one callback's on_scheduler_round must not hide the
    final record from callbacks ordered after it."""
    seen = []

    class BudgetStopper(MeasureCallback):
        def on_scheduler_round(self, scheduler, record):
            if record.total_trials >= 8:
                raise StopTuning("budget")

    class Recorder(MeasureCallback):
        def on_scheduler_round(self, scheduler, record):
            seen.append(record.total_trials)

    tasks = [SearchTask(make_matmul_relu_dag(64, 64, 64), intel_hardware, desc="a")]
    scheduler = TaskScheduler(tasks, seed=0)
    scheduler.tune(64, num_measures_per_round=8,
                   measurer=MeasurePipeline(intel_hardware, seed=0),
                   callbacks=[BudgetStopper(), Recorder()])
    assert scheduler.total_trials == 8
    assert seen == [8]  # the recorder saw the stopping round


def test_early_stopper_resets_between_sessions(task):
    stopper = EarlyStopper(patience=1)
    policy = SketchPolicy(task, seed=0)
    stopper.on_tuning_start(policy)
    stopper.on_round(_event(task, policy, 8, 1.0))
    with pytest.raises(StopTuning):
        stopper.on_round(_event(task, policy, 16, 1.0))
    # a new session (possibly with a recycled policy id) starts clean
    stopper.on_tuning_start(policy)
    stopper.on_round(_event(task, policy, 8, 2.0))  # no inherited staleness


def test_tuner_injects_early_stopper_from_options(task):
    policy = SketchPolicy(task, seed=0)
    Tuner(task, policy=policy,
          options=TuningOptions(num_measure_trials=96, num_measures_per_round=8,
                                early_stopping=1),
          measurer=MeasurePipeline(task.hardware_params, seed=0)).tune()
    assert policy.num_trials < 96


# ---------------------------------------------------------------------------
# Streaming on_result events
# ---------------------------------------------------------------------------


def test_sync_rounds_fire_on_result_before_on_round(task, measurer):
    order = []

    class Watcher(MeasureCallback):
        def on_result(self, event):
            order.append(("result", id(event.result)))

        def on_round(self, event):
            order.append(("round", [id(r) for r in event.results]))

    policy = SketchPolicy(task, seed=0)
    Tuner(task, policy=policy,
          options=TuningOptions(num_measure_trials=8, num_measures_per_round=8),
          measurer=measurer, callbacks=[Watcher()]).tune()
    kinds = [kind for kind, _ in order]
    assert kinds == ["result"] * 8 + ["round"]
    # the streamed results are exactly the round's results, in order
    streamed = [payload for kind, payload in order if kind == "result"]
    assert streamed == order[-1][1]


def test_record_to_file_streams_without_duplicates(tmp_path, task, measurer):
    """RecordToFile appends from on_result; the round sweep must not write
    the same results again (byte-identical to the historical per-round log)."""
    from repro import Tuner
    from repro.records import load_records

    log = tmp_path / "stream.json"
    Tuner(task, options=TuningOptions(num_measure_trials=16, num_measures_per_round=8),
          callbacks=[RecordToFile(log)]).tune()
    records = load_records(log, strict=True)
    assert len(records) == 16


def test_record_to_file_on_round_alone_still_writes(tmp_path, task):
    """Direct on_round use (external drivers, old tests) keeps working: with
    no streamed results the round writes everything."""
    from repro.hardware import MeasureInput, MeasurePipeline
    from repro.records import load_records
    from repro.search import generate_sketches, sample_initial_population
    import numpy as np

    pipeline = MeasurePipeline(task.hardware_params, seed=0)
    states = sample_initial_population(
        task, generate_sketches(task), 4, np.random.default_rng(0))
    inputs = [MeasureInput(task, s) for s in states]
    results = pipeline.measure(inputs)
    policy = SketchPolicy(task)
    log = tmp_path / "round.json"
    cb = RecordToFile(log)
    event = _event(task, policy, 4, 1.0)
    event.inputs, event.results = inputs, results
    cb.on_round(event)
    assert len(load_records(log, strict=True)) == 4


def test_early_stopper_target_cost_stops_mid_session(task):
    from repro.hardware import MeasurePipeline

    policy = SketchPolicy(task, seed=0)
    measurer = MeasurePipeline(task.hardware_params, seed=0)
    stopper = EarlyStopper(patience=100, target_cost=1.0)  # any valid result hits 1s
    Tuner(task, policy=policy,
          options=TuningOptions(num_measure_trials=64, num_measures_per_round=8),
          measurer=measurer, callbacks=[stopper]).tune()
    assert policy.num_trials == 8  # first round reached the target


def test_early_stopper_target_cost_validation():
    with pytest.raises(ValueError):
        EarlyStopper(patience=1, target_cost=0.0)


def test_progress_logger_prints_device_stats_at_session_end(task):
    """Satellite: the per-device runs/errors/busy breakdown of a device
    pool is printed when the session ends."""
    from repro.hardware import MeasurePipeline, LocalRunner

    stream = io.StringIO()
    runner = LocalRunner(task.hardware_params, devices=["board0", "board1"], seed=0)
    measurer = MeasurePipeline(task.hardware_params, runner=runner, seed=0)
    policy = SketchPolicy(task, seed=0)
    Tuner(task, policy=policy,
          options=TuningOptions(num_measure_trials=8, num_measures_per_round=8),
          measurer=measurer, callbacks=[ProgressLogger(stream=stream)]).tune()
    out = stream.getvalue()
    assert "device stats" in out
    assert "board0" in out and "board1" in out
    assert "runs=" in out and "errors=" in out and "busy=" in out


def test_progress_logger_device_stats_from_scheduler_measurers(intel_hardware):
    from repro.hardware import MeasurePipeline, LocalRunner

    stream = io.StringIO()
    tasks = [SearchTask(make_matmul_relu_dag(64, 64, 64), intel_hardware, desc="a")]
    runner = LocalRunner(intel_hardware, devices=2, seed=0)
    measurer = MeasurePipeline(intel_hardware, runner=runner, seed=0)
    scheduler = TaskScheduler(tasks, seed=0)
    scheduler.tune(8, num_measures_per_round=8, measurer=measurer,
                   callbacks=[ProgressLogger(stream=stream, log_scheduler_rounds=False)])
    out = stream.getvalue()
    assert "device stats" in out
    assert "dev0" in out and "dev1" in out


def test_progress_logger_device_stats_can_be_disabled(task):
    from repro.hardware import MeasurePipeline, LocalRunner

    stream = io.StringIO()
    runner = LocalRunner(task.hardware_params, devices=2, seed=0)
    measurer = MeasurePipeline(task.hardware_params, runner=runner, seed=0)
    policy = SketchPolicy(task, seed=0)
    Tuner(task, policy=policy,
          options=TuningOptions(num_measure_trials=8, num_measures_per_round=8),
          measurer=measurer,
          callbacks=[ProgressLogger(stream=stream, log_device_stats=False)]).tune()
    assert "device stats" not in stream.getvalue()
