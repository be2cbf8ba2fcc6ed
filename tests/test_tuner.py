"""Tests for the unified Tuner session API and the policy registry."""

import math

import numpy as np
import pytest

from repro import (
    ProgressLogger,
    RecordToFile,
    SearchTask,
    Tuner,
    TuningOptions,
    TuningResult,
    apply_history_best,
    intel_cpu,
    load_records,
    records_to_curve,
    registered_policies,
)
from repro.hardware import CostSimulator
from repro.scheduler import TaskScheduler
from repro.search import SketchPolicy, register_policy, resolve_policy

from .conftest import make_matmul_relu_dag


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(128, 128, 128), intel_cpu(), desc="mm128")


SMALL = TuningOptions(num_measure_trials=16, num_measures_per_round=8)


# ---------------------------------------------------------------------------
# Single-task sessions
# ---------------------------------------------------------------------------


def test_single_task_returns_tuning_result(task):
    result = Tuner(task, options=SMALL).tune()
    assert isinstance(result, TuningResult)
    assert result.best_state is not None
    assert math.isfinite(result.best_cost) and result.best_cost > 0
    assert result.num_trials == 16
    assert result.tasks == [task]
    assert result.best_costs == [result.best_cost]
    # the tuning curve covers every round and is monotonically improving
    assert [t for t, _ in result.history] == [8, 16]
    costs = [c for _, c in result.history]
    assert costs == sorted(costs, reverse=True)
    assert result.best_throughput() == task.flop_count() / result.best_cost


def test_single_task_is_deterministic_under_fixed_seed(task):
    first = Tuner(task, options=SMALL).tune()
    second = Tuner(task, options=SMALL).tune()
    assert first.best_cost == second.best_cost
    assert first.history == second.history
    assert first.best_state.serialize_steps() == second.best_state.serialize_steps()


def test_policy_instance_and_name_agree(task):
    by_name = Tuner(task, policy="sketch", options=SMALL).tune()
    by_instance = Tuner(task, policy=SketchPolicy(task, seed=0), options=SMALL).tune()
    assert by_name.best_cost == by_instance.best_cost


def test_policy_kwargs_may_override_defaults(task):
    # overlapping keys (seed/verbose) override instead of raising
    # "multiple values for keyword argument"
    result = Tuner(task, options=SMALL, policy_kwargs={"seed": 7}).tune()
    baseline = Tuner(task, options=SMALL).tune()  # seed 0 from options
    assert result.num_trials == baseline.num_trials == 16


def test_policy_kwargs_override_the_session_for_every_kind(task):
    """policy_kwargs merge last: they reach every policy of a session —
    plain tasks, variant-group members and network tasks alike."""
    from repro import LogicalOp

    conv = LogicalOp("conv2d", dict(
        batch=1, in_channels=4, height=8, width=8,
        out_channels=8, kernel=3, stride=1, padding=1,
    ), hardware=intel_cpu())
    options = TuningOptions(num_measure_trials=8, num_measures_per_round=4)
    for workload in (task, [task, conv], ["dcgan"]):
        result = Tuner(workload, options=options, policy_kwargs={"seed": 7},
                       max_tasks_per_network=2).tune()
        assert [p.seed for p in result.scheduler.policies] == [7] * len(result.tasks)


def test_baseline_policies_run_by_name(task):
    for name in ("beam", "random", "limited-space"):
        result = Tuner(task, policy=name, options=SMALL).tune()
        assert result.num_trials > 0
        assert math.isfinite(result.best_cost)


def test_unknown_policy_raises_key_error_listing_registered(task):
    with pytest.raises(KeyError) as excinfo:
        Tuner(task, policy="does-not-exist", options=SMALL).tune()
    message = str(excinfo.value)
    assert "does-not-exist" in message
    for name in registered_policies():
        assert name in message


def test_register_policy_round_trip(task):
    @register_policy("test-sketch-alias")
    def make(task, cost_model=None, seed=0, verbose=0, **kwargs):
        return SketchPolicy(task, cost_model=cost_model, seed=seed, verbose=verbose, **kwargs)

    assert "test-sketch-alias" in registered_policies()
    assert resolve_policy("test-sketch-alias") is make
    result = Tuner(task, policy="test-sketch-alias", options=SMALL).tune()
    assert result.best_state is not None


def test_factory_without_cost_model_parameter_runs_every_session_kind():
    """A factory that takes no ``cost_model`` builds its own model; every
    session kind calls it without one, a single task or several, a variant
    group or a network."""
    from repro import LogicalOp

    made = []

    def f(task, seed=0, verbose=0):
        made.append(task)
        return SketchPolicy(task, seed=seed, verbose=verbose)

    hardware = intel_cpu()
    conv = dict(batch=1, in_channels=4, height=8, width=8,
                out_channels=8, kernel=3, stride=1, padding=1)
    options = TuningOptions(num_measure_trials=8, num_measures_per_round=4)
    for workload in (
        [SearchTask(make_matmul_relu_dag(16, 16, 16), hardware),
         SearchTask(make_matmul_relu_dag(32, 16, 16), hardware)],
        LogicalOp("conv2d", conv, hardware=hardware),
        ["mobilenet-v2"],
    ):
        made.clear()
        result = Tuner(workload, policy=f, options=options, max_tasks_per_network=2).tune()
        assert made == result.tasks and len(made) >= 2
        assert result.num_trials == 8


# ---------------------------------------------------------------------------
# Measure callbacks
# ---------------------------------------------------------------------------


def test_record_to_file_round_trips_through_load_records(tmp_path, task):
    log = tmp_path / "tuning.json"
    result = Tuner(task, options=SMALL, callbacks=[RecordToFile(log)]).tune()
    records = load_records(log)
    assert len(records) == result.num_trials
    # the log's best record matches the session's best cost
    assert min(r.best_cost for r in records) == pytest.approx(result.best_cost)
    # the session's error count matches the invalid records in the log
    assert result.num_errors == sum(1 for r in records if not r.valid)
    # and the curve rebuilt from the log matches the in-memory history
    curve = records_to_curve(records)
    assert curve[-1][1] == pytest.approx(result.best_cost)

    # deployment path: replay the best program and re-estimate its cost
    # (passing the pre-loaded records skips a second full-log parse)
    state = apply_history_best(task, records)
    assert state is not None
    assert state.serialize_steps() == result.best_state.serialize_steps()
    simulated = CostSimulator(task.hardware_params).estimate(state)
    # measured costs carry ±3% seeded noise around the simulator estimate
    assert simulated == pytest.approx(result.best_cost, rel=0.25)


def test_record_to_file_append_false_truncates(tmp_path, task):
    log = tmp_path / "tuning.json"
    log.write_text('{"corrupt": true}\n')
    recorder = RecordToFile(log, append=False)
    Tuner(task, options=SMALL, callbacks=[recorder]).tune()
    assert len(load_records(log)) == 16
    # a reused recorder overwrites again on the next session
    Tuner(task, options=SMALL, callbacks=[recorder]).tune()
    assert len(load_records(log)) == 16


def test_result_counters_are_per_session_for_reused_components(task):
    # a pre-tuned policy instance: num_trials reports this session's delta
    policy = SketchPolicy(task, seed=0)
    Tuner(task, policy=policy, options=SMALL).tune()  # consumes 16
    second = Tuner(
        task,
        policy=policy,
        options=TuningOptions(num_measure_trials=32, num_measures_per_round=8),
    ).tune()
    assert second.num_trials == 16  # 32 budget minus the 16 already consumed
    # history is session-scoped and rebased to start at zero, consistent
    # with num_trials
    assert [t for t, _ in second.history] == [8, 16]

    # a reused measurer: num_errors reports this session's delta
    from repro import MeasurePipeline

    measurer = MeasurePipeline(task.hardware_params, seed=0)
    measurer.error_count = 5  # pretend an earlier session hit errors
    result = Tuner(task, options=SMALL, measurer=measurer).tune()
    assert result.num_errors == 0


@pytest.mark.parametrize("kind", ["single", "variants", "network"])
def test_num_errors_is_session_scoped_with_a_pre_used_faulty_measurer(kind, task):
    """Every session kind reports the failures of its own trials, not the
    lifetime error count of a measurer that already failed elsewhere."""
    from repro import LogicalOp, MeasureCallback, MeasureInput, MeasurePipeline, RandomFaults
    from repro.search import generate_sketches, sample_initial_population

    measurer = MeasurePipeline(
        intel_cpu(), fault_model=RandomFaults(build_error_prob=0.4, seed=1), seed=0
    )
    states = sample_initial_population(
        task, generate_sketches(task), 16, np.random.default_rng(0)
    )
    measurer.measure([MeasureInput(task, state) for state in states])
    assert measurer.error_count > 0  # the measurer arrives pre-used

    class CountFailures(MeasureCallback):
        def __init__(self):
            self.failed = 0

        def on_result(self, event):
            self.failed += not event.result.valid

    workload = {
        "single": task,
        "variants": LogicalOp("conv2d", dict(
            batch=1, in_channels=16, height=14, width=14,
            out_channels=16, kernel=3, stride=2, padding=1,
        ), hardware=intel_cpu()),
        "network": ["dcgan"],
    }[kind]
    before = measurer.error_count
    counter = CountFailures()
    result = Tuner(
        workload, options=SMALL, measurer=measurer, callbacks=[counter],
        max_tasks_per_network=2,
    ).tune()
    assert counter.failed > 0
    assert result.num_errors == counter.failed
    assert result.num_errors == measurer.error_count - before


def test_non_iterable_workload_gets_clear_error():
    with pytest.raises(TypeError, match="SearchTask or network name"):
        Tuner(42)


def test_progress_logger_writes_to_stream(tmp_path, task):
    import io

    stream = io.StringIO()
    Tuner(task, options=SMALL, callbacks=[ProgressLogger(stream=stream)]).tune()
    lines = stream.getvalue().strip().splitlines()
    # One line per round, then the end-of-session cost-model summary and
    # the runner's board summary (a header and one line for "dev0").
    assert len(lines) == 5
    assert all("SketchPolicy" in line and "best=" in line for line in lines[:2])
    assert "[CostModelService]" in lines[2]
    assert "retrains=" in lines[2] and "version=" in lines[2]
    assert lines[3] == "[LocalRunner] device stats:"
    assert lines[4].startswith("  dev0: runs=")


def test_verbose_option_logs_progress(task, capsys):
    """TuningOptions(verbose=1) adds a ProgressLogger to the session."""
    options = TuningOptions(num_measure_trials=16, num_measures_per_round=8, verbose=1)
    Tuner(task, options=options).tune()
    assert "[CostModelService]" in capsys.readouterr().out


def test_early_stopper_ends_session_before_budget(task):
    options = TuningOptions(num_measure_trials=96, num_measures_per_round=8, early_stopping=1)
    result = Tuner(task, options=options).tune()
    assert result.num_trials < 96
    assert result.best_state is not None


def test_early_stopping_honored_while_recording(tmp_path, task):
    """Regression test: an older log-file path bypassed the session loop and
    with it ``options.early_stopping``.  The callback pipeline must honor
    early stopping regardless of recording — and the recorder must still
    see the final (stopping) batch."""
    log = tmp_path / "tuning.json"
    options = TuningOptions(num_measure_trials=96, num_measures_per_round=8, early_stopping=1)
    result = Tuner(task, options=options, callbacks=[RecordToFile(log)]).tune()
    assert result.num_trials < 96
    assert len(load_records(log)) == result.num_trials


def test_record_to_file_log_honors_early_stopping(tmp_path, task):
    options = TuningOptions(num_measure_trials=96, num_measures_per_round=8, early_stopping=1)
    # a plain string path, as older log-file call sites passed it
    result = Tuner(task, options=options, callbacks=[RecordToFile(str(tmp_path / "log.json"))]).tune()
    assert result.best_state is not None
    records = load_records(tmp_path / "log.json")
    assert 0 < len(records) < 96


# ---------------------------------------------------------------------------
# Multi-network sessions
# ---------------------------------------------------------------------------


def test_network_session_returns_structured_result():
    options = TuningOptions(num_measure_trials=18, num_measures_per_round=6)
    result = Tuner(["dcgan"], options=options, max_tasks_per_network=3).tune()
    assert isinstance(result.scheduler, TaskScheduler)
    assert len(result.tasks) == 3
    assert len(result.best_costs) == 3
    assert result.network_latencies["dcgan"] > 0
    assert result.num_trials == 18
    # scheduler history lands in the result's tuning curve
    assert result.history[-1][0] == 18


def test_network_session_accepts_single_name_string():
    options = TuningOptions(num_measure_trials=12, num_measures_per_round=6)
    result = Tuner("dcgan", options=options, max_tasks_per_network=2).tune()
    assert set(result.network_latencies) == {"dcgan"}


def test_network_session_is_deterministic_under_fixed_seed():
    options = TuningOptions(num_measure_trials=18, num_measures_per_round=6, seed=3)
    first = Tuner(["dcgan"], options=options, max_tasks_per_network=3).tune()
    second = Tuner(["dcgan"], options=options, max_tasks_per_network=3).tune()
    assert first.best_costs == second.best_costs
    assert first.network_latencies == second.network_latencies
    assert first.history == second.history


def test_single_task_session_validates_supplied_measurer_hardware(task):
    """Same guard the scheduler applies: a measurer pinned to the wrong
    machine must raise instead of silently measuring there."""
    from repro.hardware import MeasurePipeline, arm_cpu

    with pytest.raises(ValueError, match="targets"):
        Tuner(task, measurer=MeasurePipeline(arm_cpu())).tune()


def test_network_session_honors_measurement_knobs():
    """Regression: TuningOptions builder/runner knobs must reach the
    scheduler's per-hardware pipelines, not just single-task sessions."""
    options = TuningOptions(
        num_measure_trials=12, num_measures_per_round=6, n_parallel=4, run_timeout=30.0
    )
    result = Tuner(["dcgan"], options=options, max_tasks_per_network=2).tune()
    measurers = result.scheduler.measurers
    assert measurers
    assert all(m.builder.n_parallel == 4 for m in measurers)
    assert all(m.runner.timeout == 30.0 for m in measurers)


def test_network_session_records_all_tasks_to_one_log(tmp_path):
    log = tmp_path / "net.json"
    options = TuningOptions(num_measure_trials=12, num_measures_per_round=6)
    result = Tuner(["dcgan"], options=options, max_tasks_per_network=2,
                   callbacks=[RecordToFile(log)]).tune()
    records = load_records(log)
    assert len(records) == result.num_trials
    assert {r.workload_key for r in records} <= {t.workload_key for t in result.tasks}


def test_network_session_rejects_policy_instance(task):
    with pytest.raises(TypeError):
        Tuner(["dcgan"], policy=SketchPolicy(task))


def test_empty_network_list_rejected():
    with pytest.raises(ValueError):
        Tuner([])


# ---------------------------------------------------------------------------
# Options validation
# ---------------------------------------------------------------------------


def test_tuning_options_validation():
    with pytest.raises(ValueError):
        TuningOptions(num_measure_trials=0)
    with pytest.raises(ValueError):
        TuningOptions(num_measures_per_round=-1)
    with pytest.raises(ValueError):
        TuningOptions(early_stopping=0)


# ---------------------------------------------------------------------------
# measurer= vs TuningOptions measurement knobs (the "no silent averaging"
# convention)
# ---------------------------------------------------------------------------


def test_measurer_with_conflicting_options_knobs_raises(task):
    """A ready measurer would silently swallow the options' builder/runner
    knobs; the conflict must raise instead."""
    from repro.hardware import MeasurePipeline

    measurer = MeasurePipeline(intel_cpu(), seed=0)
    for knobs in (
        {"builder": "rpc"},
        {"runner": "rpc"},
        {"n_parallel": 4},
        {"build_timeout": 1.0},
        {"run_timeout": 1.0},
        {"n_retry": 2},
        {"devices": 2},
    ):
        with pytest.raises(ValueError, match="measurement knob"):
            Tuner(task, measurer=measurer, options=TuningOptions(**knobs))


def test_measurer_with_default_options_still_accepted(task):
    from repro.hardware import MeasurePipeline

    measurer = MeasurePipeline(intel_cpu(), seed=0)
    result = Tuner(task, measurer=measurer, options=SMALL).tune()
    assert result.num_trials == 16


def test_async_measure_is_not_a_conflicting_knob(task):
    """async_measure selects the session mode and is honored even with a
    supplied measurer, so it must not trip the conflict check."""
    from repro.hardware import MeasurePipeline

    measurer = MeasurePipeline(intel_cpu(), seed=0)
    options = TuningOptions(num_measure_trials=16, num_measures_per_round=8,
                            async_measure=True)
    result = Tuner(task, measurer=measurer, options=options).tune()
    assert result.num_trials == 16
    assert measurer.measure_count == 16
