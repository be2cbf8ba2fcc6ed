"""Tests for the runner's device pool and the retry policy.

Covers single-device bit parity with the machine model, device dispatch and
per-device fault profiles, retry-on-transient-fault semantics end to end (a
retry session recovers programs a no-retry session loses, retries never
train the cost model twice), and the options plumbing
(``TuningOptions(builder="rpc", runner="rpc", n_retry=..., devices=...)``,
``"rpc"`` being another name for the local stages, driving full ``Tuner``
sessions with no consumer code changes).
"""

import math

import numpy as np
import pytest

from repro import Tuner, TuningOptions
from repro.cost_model import LearnedCostModel
from repro.hardware import (
    CircuitBreakerConfig,
    DeviceProfile,
    LocalBuilder,
    LocalRunner,
    MeasureErrorNo,
    MeasureInput,
    MeasurePipeline,
    RandomFaults,
    intel_cpu,
)
from repro.search import generate_sketches, sample_initial_population
from repro.task import SearchTask

from ..conftest import make_matmul_relu_dag


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(), intel_cpu(), desc="matmul+relu")


@pytest.fixture
def states(task, rng):
    sketches = generate_sketches(task)
    return sample_initial_population(task, sketches, 8, rng)


@pytest.fixture
def inputs(task, states):
    return [MeasureInput(task, s) for s in states]


def _incomplete_state(task):
    state = task.compute_dag.init_state()
    state.split("C", 0, [None])
    return state


# ---------------------------------------------------------------------------
# DeviceProfile and device-list normalization
# ---------------------------------------------------------------------------


def test_device_profile_validation():
    with pytest.raises(ValueError, match="name"):
        DeviceProfile("")
    with pytest.raises(ValueError, match="run_error_prob"):
        DeviceProfile("a", run_error_prob=1.5)
    with pytest.raises(ValueError, match="slowdown"):
        DeviceProfile("a", slowdown=0.0)
    with pytest.raises(ValueError, match="queue_latency_sec"):
        DeviceProfile("a", queue_latency_sec=-1.0)


def test_device_list_normalization():
    runner = LocalRunner(intel_cpu(), devices=3)
    assert [d.name for d in runner.fleet.devices] == ["dev0", "dev1", "dev2"]
    runner = LocalRunner(
        intel_cpu(),
        devices=["a", {"name": "b", "run_error_prob": 0.5}, DeviceProfile("c")],
    )
    assert [d.name for d in runner.fleet.devices] == ["a", "b", "c"]
    assert runner.fleet.devices[1].run_error_prob == 0.5
    with pytest.raises(ValueError, match="duplicate"):
        LocalRunner(intel_cpu(), devices=["a", "a"])
    with pytest.raises(ValueError, match="at least one"):
        LocalRunner(intel_cpu(), devices=[])
    with pytest.raises(TypeError, match="DeviceProfile"):
        LocalRunner(intel_cpu(), devices=[42])


# ---------------------------------------------------------------------------
# Bit parity with the local backend (the acceptance gate)
# ---------------------------------------------------------------------------


def test_single_device_rpc_runner_is_bit_identical_to_local(task, inputs):
    """A default single-device profile must reproduce the local runner bit
    for bit: same hash-seeded noise, same simulator, same error strings."""
    local = MeasurePipeline(intel_cpu(), seed=7)
    rpc = MeasurePipeline(intel_cpu(), runner=LocalRunner(intel_cpu(), seed=7))
    batch = inputs + [MeasureInput(task, _incomplete_state(task))]
    for a, b in zip(local.measure(batch), rpc.measure(batch)):
        assert a.costs == b.costs
        assert a.error == b.error
        assert a.error_no == b.error_no
    assert local.best_cost == rpc.best_cost


def test_options_driven_rpc_session_matches_local(task):
    """The acceptance criterion: switching builder/runner to "rpc" through
    TuningOptions drives an unchanged Tuner session to identical results."""
    base = dict(num_measure_trials=16, num_measures_per_round=8, seed=0)
    local = Tuner(task, policy="random", options=TuningOptions(**base)).tune()
    rpc = Tuner(
        task,
        policy="random",
        options=TuningOptions(builder="rpc", runner="rpc", n_parallel=4, n_retry=2, **base),
    ).tune()
    assert rpc.best_cost == local.best_cost
    assert rpc.num_trials == local.num_trials == 16
    assert rpc.history == local.history


# ---------------------------------------------------------------------------
# Device dispatch
# ---------------------------------------------------------------------------


def test_round_robin_spreads_runs_across_devices(inputs):
    runner = LocalRunner(intel_cpu(), devices=["a", "b"], seed=0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)
    pipeline.measure(inputs)
    stats = runner.device_stats()
    assert stats["a"]["runs"] == stats["b"]["runs"] == len(inputs) / 2


def test_failed_builds_never_reach_a_device(task, inputs):
    runner = LocalRunner(intel_cpu(), devices=["a", "b"], seed=0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)
    pipeline.measure([MeasureInput(task, _incomplete_state(task))])
    stats = runner.device_stats()
    assert stats["a"]["runs"] == 0 and stats["b"]["runs"] == 0


def test_slowdown_scales_costs(task):
    state = task.compute_dag.init_state()
    fast = MeasurePipeline(intel_cpu(), runner=LocalRunner(intel_cpu(), seed=0))
    slow = MeasurePipeline(
        intel_cpu(),
        runner=LocalRunner(intel_cpu(), devices=[DeviceProfile("s", slowdown=2.0)], seed=0),
    )
    fast_res = fast.measure_one(MeasureInput(task, state))
    slow_res = slow.measure_one(MeasureInput(task, state))
    assert slow_res.costs == pytest.approx([2.0 * c for c in fast_res.costs])


def test_queue_latency_is_charged(task):
    state = task.compute_dag.init_state()
    runner = LocalRunner(
        intel_cpu(), devices=[DeviceProfile("q", queue_latency_sec=1.5)], seed=0
    )
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)
    result = pipeline.measure_one(MeasureInput(task, state))
    assert result.valid
    assert result.elapsed_sec >= 1.5
    assert runner.device_stats()["q"]["busy_sec"] >= 1.5


def test_per_device_fault_profiles_are_independent(inputs):
    """A faulty board fails; its healthy neighbour keeps measuring — the
    fleet's behaviour is modeled per device, not averaged away."""
    runner = LocalRunner(
        intel_cpu(),
        devices=[DeviceProfile("ok"), DeviceProfile("bad", run_error_prob=1.0)],
        seed=0,
    )
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)
    results = pipeline.measure(inputs)
    stats = runner.device_stats()
    assert stats["ok"]["errors"] == 0
    assert stats["bad"]["errors"] == stats["bad"]["runs"] > 0
    bad = [r for r in results if not r.valid]
    assert all(r.error_kind == MeasureErrorNo.RUN_ERROR for r in bad)


def test_device_faults_are_deterministic(task, states):
    def run():
        runner = LocalRunner(
            intel_cpu(),
            devices=[DeviceProfile("a", run_error_prob=0.5), DeviceProfile("b")],
            seed=11,
        )
        pipeline = MeasurePipeline(intel_cpu(), runner=runner)
        results = pipeline.measure([MeasureInput(task, s) for s in states])
        return [(r.error_no, tuple(r.costs)) for r in results]

    assert run() == run()


# ---------------------------------------------------------------------------
# Retry-on-transient-fault, end to end
# ---------------------------------------------------------------------------


def test_retry_recovers_programs_a_no_retry_session_loses(task, inputs):
    """The documented RUN_ERROR semantics: retrying the same program can
    succeed.  With retries on, a fault-injected session recovers every
    program the fail-fast session lost (at this fault rate)."""
    no_retry = MeasurePipeline(
        intel_cpu(), fault_model=RandomFaults(run_error_prob=0.6, seed=3), seed=0
    )
    with_retry = MeasurePipeline(
        intel_cpu(),
        fault_model=RandomFaults(run_error_prob=0.6, seed=3),
        seed=0,
        n_retry=5,
    )
    lost = [r for r in no_retry.measure(inputs) if not r.valid]
    recovered = with_retry.measure(inputs)
    assert lost  # the fault rate actually bites
    assert all(r.valid for r in recovered)
    assert any(r.retry_count > 0 for r in recovered)
    # Recovered costs equal the no-fault costs: a transient fault perturbs
    # availability, not the timing of the eventually-successful run.
    clean = MeasurePipeline(intel_cpu(), seed=0).measure(inputs)
    assert [r.costs for r in recovered] == [r.costs for r in clean]


def test_retry_only_applies_to_run_errors(task, inputs):
    """BUILD_ERROR and RUN_TIMEOUT are not transient: retries must not
    re-run them (same draw would repeat — wasted budget)."""
    pipeline = MeasurePipeline(
        intel_cpu(),
        fault_model=RandomFaults(build_error_prob=1.0, seed=0),
        seed=0,
        n_retry=3,
    )
    results = pipeline.measure(inputs)
    assert all(r.error_kind == MeasureErrorNo.BUILD_ERROR for r in results)
    assert all(r.retry_count == 0 for r in results)


def test_retries_never_train_the_cost_model_twice(task, inputs):
    """A retried trial is one trial: the measured batch has one result per
    input, so the cost model sees each recovered program exactly once."""
    pipeline = MeasurePipeline(
        intel_cpu(),
        fault_model=RandomFaults(run_error_prob=0.6, seed=3),
        seed=0,
        n_retry=5,
    )
    results = pipeline.measure(inputs)
    assert len(results) == len(inputs)
    assert sum(r.retry_count for r in results) > 0
    model = LearnedCostModel(seed=0)
    model.update(inputs, results)
    assert model.num_samples == sum(1 for r in results if r.valid)


def test_retry_lands_on_another_device(inputs):
    """Round-robin advances on retry, so a transient fault on one board is
    re-dispatched and can recover on its healthy neighbour — even when one
    device *always* fails transiently, enough retries drain every trial
    through the good board."""
    runner = LocalRunner(
        intel_cpu(),
        devices=[DeviceProfile("flaky", run_error_prob=1.0), DeviceProfile("ok")],
        seed=0,
    )
    pipeline = MeasurePipeline(intel_cpu(), runner=runner, n_retry=4)
    results = pipeline.measure(inputs)
    assert all(r.valid for r in results)  # every flaky run recovered on "ok"
    stats = runner.device_stats()
    assert stats["flaky"]["errors"] > 0
    assert stats["ok"]["errors"] == 0


def test_retry_session_through_tuner(task):
    """A ready retrying pipeline drives a full session: tuning completes its
    budget and reports retries in the pipeline counters.  (The retry knob
    lives on the measurer alone — duplicating it in TuningOptions alongside
    measurer= now raises, see test_tuner.py.)"""
    options = TuningOptions(num_measure_trials=16, num_measures_per_round=8, seed=0)
    measurer = MeasurePipeline(
        intel_cpu(),
        fault_model=RandomFaults(run_error_prob=0.4, seed=5),
        seed=0,
        n_retry=3,
    )
    result = Tuner(task, policy="random", options=options, measurer=measurer).tune()
    assert result.num_trials == 16
    assert math.isfinite(result.best_cost)
    assert measurer.retry_count > 0
    assert measurer.error_counts.get(MeasureErrorNo.RUN_ERROR, 0) == result.num_errors


# ---------------------------------------------------------------------------
# Options plumbing: the devices knob and network sessions
# ---------------------------------------------------------------------------


def test_from_options_builds_rpc_stack():
    options = TuningOptions(
        builder="rpc", runner="rpc", n_parallel=4, n_retry=2,
        devices=[DeviceProfile("a"), DeviceProfile("b", slowdown=2.0)], seed=9,
    )
    pipeline = MeasurePipeline.from_options(intel_cpu(), options)
    assert isinstance(pipeline.builder, LocalBuilder)
    assert pipeline.builder.n_parallel == 4
    assert isinstance(pipeline.runner, LocalRunner)
    assert [d.name for d in pipeline.runner.fleet.devices] == ["a", "b"]
    assert pipeline.n_retry == 2
    assert pipeline.runner.seed == 9


def test_local_runner_options_build_a_two_board_pool():
    options = TuningOptions(runner="local", devices=2, circuit_breaker=True)
    runner = MeasurePipeline.from_options(intel_cpu(), options).runner
    assert isinstance(runner, LocalRunner)
    assert [d.name for d in runner.fleet.devices] == ["dev0", "dev1"]
    assert runner.fleet.breaker == CircuitBreakerConfig()


def test_malformed_device_entry_surfaces_the_real_error():
    """A bad device entry raises as itself, naming what is wrong with it."""
    with pytest.raises(TypeError, match="DeviceProfile"):
        MeasurePipeline.from_options(
            intel_cpu(), TuningOptions(runner="rpc", devices=[42])
        )
    with pytest.raises(TypeError, match="capacity"):
        MeasurePipeline.from_options(
            intel_cpu(), TuningOptions(runner="rpc", devices=[{"name": "a", "capacity": 3}])
        )


def test_options_validate_n_retry():
    with pytest.raises(ValueError, match="n_retry"):
        TuningOptions(n_retry=-1)


@pytest.mark.slow
def test_network_session_on_rpc_backend():
    """The acceptance criterion's network half: an rpc-backed multi-task
    session runs through the scheduler with no consumer code changes."""
    options = TuningOptions(
        num_measure_trials=12, num_measures_per_round=4,
        builder="rpc", runner="rpc", n_parallel=2, n_retry=1,
        devices=["board0", "board1"], seed=0,
    )
    result = Tuner(["dcgan"], policy="random", options=options,
                   max_tasks_per_network=2).tune()
    assert result.num_trials == 12
    assert result.network_latencies["dcgan"] > 0
    for measurer in result.scheduler.measurers:
        assert isinstance(measurer.runner, LocalRunner)
        assert measurer.n_retry == 1
