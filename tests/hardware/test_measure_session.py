"""Tests for the asynchronous measurement sessions (`MeasureSession`).

Covers the session API itself (submit / as_completed / drain / close /
cancellation), the sync-shim parity guarantee (``measure()`` and sync
sessions are bit-identical to the classic batch path), async/sync result
parity under fault injection, the pipelined tuning drivers (policy and task
scheduler), and the StopTuning mid-round cleanup regression: no leaked
futures, no double-counted error counters.
"""

import threading
import time
from concurrent.futures import CancelledError

import pytest

from repro import (
    MeasureCallback,
    MeasureResultEvent,
    RecordToFile,
    SearchTask,
    StopTuning,
    Tuner,
    TuningOptions,
    intel_cpu,
    load_records,
)
from repro.hardware import (
    LocalBuilder,
    MeasureErrorNo,
    MeasureInput,
    MeasurePipeline,
    RandomFaults,
)
from repro.scheduler import TaskScheduler
from repro.search import SketchPolicy, generate_sketches, sample_initial_population

from ..conftest import make_matmul_relu_dag


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(), intel_cpu(), desc="matmul+relu")


@pytest.fixture
def inputs(task, rng):
    sketches = generate_sketches(task)
    states = sample_initial_population(task, sketches, 8, rng)
    return [MeasureInput(task, s) for s in states]


def _result_signature(results):
    """The deterministic part of a result (wall-clock fields excluded)."""
    return [(r.costs, r.error, int(r.error_no), r.retry_count) for r in results]


# ---------------------------------------------------------------------------
# Session mechanics
# ---------------------------------------------------------------------------


def test_measure_is_a_submit_then_drain_shim(task, inputs):
    """measure() and an explicit sync session produce identical results and
    counters — the shim really is submit-then-drain."""
    classic = MeasurePipeline(intel_cpu(), seed=0)
    classic_results = classic.measure(inputs)

    sessioned = MeasurePipeline(intel_cpu(), seed=0)
    with sessioned.session(async_=False) as session:
        futures = session.submit(inputs)
        results = session.drain()
    assert _result_signature(results) == _result_signature(classic_results)
    assert all(f.done() for f in futures)
    assert sessioned.measure_count == classic.measure_count
    assert sessioned.error_counts == classic.error_counts
    assert sessioned.best_cost == classic.best_cost


def test_sync_session_lazy_result_triggers_processing(task, inputs):
    pipeline = MeasurePipeline(intel_cpu(), seed=0)
    with pipeline.session(async_=False) as session:
        futures = session.submit(inputs[:2])
        # no drain: result() itself must process the pending batch
        res = futures[0].result()
        assert res.valid
        assert futures[1].done()


def test_async_session_matches_sync_results(task, inputs):
    """Single-device async measurement is bit-identical to the sync batch
    path regardless of worker interleaving (hash-seeded noise and
    per-program fault draws are order-independent)."""
    sync = MeasurePipeline(intel_cpu(), seed=0)
    sync_results = sync.measure(inputs)

    async_ = MeasurePipeline(intel_cpu(), seed=0)
    with async_.session(async_=True, n_workers=4) as session:
        futures = session.submit(inputs)
        results = [f.result() for f in futures]
    assert _result_signature(results) == _result_signature(sync_results)
    assert async_.measure_count == sync.measure_count == len(inputs)


def test_async_session_fault_and_retry_parity(task, inputs):
    """Transient faults and retries resolve identically async and sync:
    attempt counters are per program, serialized under the pipeline lock."""
    sync = MeasurePipeline(
        intel_cpu(), fault_model=RandomFaults(run_error_prob=0.4, seed=3),
        n_retry=2, seed=0,
    )
    sync_results = sync.measure(inputs)

    async_ = MeasurePipeline(
        intel_cpu(), fault_model=RandomFaults(run_error_prob=0.4, seed=3),
        n_retry=2, seed=0,
    )
    with async_.session(async_=True, n_workers=4) as session:
        results = [f.result() for f in session.submit(inputs)]
    assert _result_signature(results) == _result_signature(sync_results)
    assert async_.retry_count == sync.retry_count
    assert async_.error_counts == sync.error_counts


def test_as_completed_streams_every_future(task, inputs):
    pipeline = MeasurePipeline(intel_cpu(), seed=0)
    with pipeline.session(async_=True, n_workers=2, measure_latency_sec=0.002) as session:
        futures = session.submit(inputs)
        seen = []
        for fut in session.as_completed(futures):
            assert fut.done()
            seen.append(fut)
        assert set(id(f) for f in seen) == set(id(f) for f in futures)
        # a second sweep finds nothing left uncollected
        assert session.drain() == []


def test_as_completed_timeout_raises(task, inputs):
    pipeline = MeasurePipeline(
        intel_cpu(), builder=LocalBuilder(build_latency_sec=0.5), seed=0
    )
    with pipeline.session(async_=True, n_workers=1) as session:
        futures = session.submit(inputs[:2])
        with pytest.raises(TimeoutError):
            for _ in session.as_completed(futures, timeout=0.02):
                pass
        # the session still closes cleanly (running work finishes)


def test_cancel_pending_recalls_queued_work(task, inputs):
    """Queued futures cancel (CancelledError, never accounted); running and
    finished ones do not."""
    pipeline = MeasurePipeline(
        intel_cpu(), builder=LocalBuilder(build_latency_sec=0.05), seed=0
    )
    with pipeline.session(async_=True, n_workers=1) as session:
        futures = session.submit(inputs)
        time.sleep(0.01)  # let the single worker start the first build
        cancelled = session.cancel_pending()
        assert cancelled > 0
        done = [f for f in futures if not f.cancelled()]
        for fut in done:
            assert fut.result().valid
        for fut in futures:
            if fut.cancelled():
                with pytest.raises(CancelledError):
                    fut.result()
    executed = len(inputs) - cancelled
    assert pipeline.measure_count == executed
    assert pipeline.error_count == 0


def test_session_rejects_submit_after_close(task, inputs):
    pipeline = MeasurePipeline(intel_cpu(), seed=0)
    session = pipeline.session(async_=True)
    session.submit(inputs[:1])[0].result()
    session.close()
    with pytest.raises(RuntimeError):
        session.submit(inputs[1:2])
    session.close()  # idempotent


def test_session_validates_knobs(task):
    pipeline = MeasurePipeline(intel_cpu(), seed=0)
    with pytest.raises(ValueError):
        pipeline.session(measure_latency_sec=-1.0)
    with pytest.raises(ValueError):
        pipeline.session(n_workers=0)


def test_async_measure_knob_threads_from_options(task):
    options = TuningOptions(async_measure=True)
    pipeline = MeasurePipeline.from_options(intel_cpu(), options)
    assert pipeline.async_measure
    # session() follows the pipeline default; explicit async_ overrides it
    session = pipeline.session()
    assert session.async_mode
    session.close()
    session = pipeline.session(async_=False)
    assert not session.async_mode
    session.close()


# ---------------------------------------------------------------------------
# Pipelined tuning drivers
# ---------------------------------------------------------------------------


def test_async_and_sync_tuner_sessions_reach_the_same_best_state(task):
    """End-to-end satellite: seeded sync and async sessions with RandomFaults
    enabled converge to the same best state.  retained_best=0 keeps the
    proposals result-independent, so the overlap cannot change the
    trajectory — only the schedule of measurement."""

    def run(async_measure):
        measurer = MeasurePipeline(
            intel_cpu(),
            fault_model=RandomFaults(run_error_prob=0.3, seed=5),
            n_retry=1,
            seed=0,
            async_measure=async_measure,
        )
        options = TuningOptions(num_measure_trials=24, num_measures_per_round=8, seed=0)
        result = Tuner(
            task, policy="random", options=options, measurer=measurer,
            policy_kwargs={"retained_best": 0},
        ).tune()
        return result, measurer

    sync_result, sync_measurer = run(False)
    async_result, async_measurer = run(True)

    assert async_result.best_cost == sync_result.best_cost
    assert (
        async_result.best_state.serialize_steps()
        == sync_result.best_state.serialize_steps()
    )
    assert async_result.history == sync_result.history
    assert async_measurer.measure_count == sync_measurer.measure_count
    assert async_measurer.error_counts == sync_measurer.error_counts
    assert async_measurer.retry_count == sync_measurer.retry_count


def test_pipelined_single_task_session_consumes_full_budget(task):
    policy = SketchPolicy(task, seed=0)
    measurer = MeasurePipeline(intel_cpu(), seed=0, async_measure=True)
    Tuner(task, policy=policy, measurer=measurer,
          options=TuningOptions(num_measure_trials=24, num_measures_per_round=8)).tune()
    assert policy.num_trials == 24
    assert policy.num_trials == measurer.measure_count
    assert len(policy.history) == 3


def test_pipelined_scheduler_visits_every_task(intel_hardware):
    tasks = [
        SearchTask(make_matmul_relu_dag(64, 64, 64), intel_hardware, desc="a"),
        SearchTask(make_matmul_relu_dag(96, 96, 96), intel_hardware, desc="b"),
    ]
    scheduler = TaskScheduler(tasks, seed=0)
    best = scheduler.tune(32, num_measures_per_round=8, async_measure=True)
    assert scheduler.total_trials == 32
    # warm-up (with in-flight lookahead counted) still visits both tasks
    assert all(a > 0 for a in scheduler.allocations)
    assert all(c < float("inf") for c in best)
    assert scheduler.measure_error_count() == sum(
        m.error_count for m in {id(m): m for m in scheduler.measurers}.values()
    )


# ---------------------------------------------------------------------------
# StopTuning mid-round: the cleanup regression (satellite)
# ---------------------------------------------------------------------------


class _StopAfter(MeasureCallback):
    def __init__(self, n):
        self.n = n
        self.seen = 0

    def on_result(self, event):
        self.seen += 1
        if self.seen >= self.n:
            raise StopTuning("enough")


def test_stop_tuning_mid_round_drains_and_cancels_cleanly(task, tmp_path):
    """Raising StopTuning from on_result mid-round must cancel the queued
    remainder, drain the running work, and account every executed trial
    exactly once: policy trials == pipeline trials == recorded lines, and
    the error counters match the recorded errors (no double counting)."""
    log = tmp_path / "stopped.json"
    policy = SketchPolicy(task, seed=0)
    measurer = MeasurePipeline(
        intel_cpu(),
        builder=LocalBuilder(build_latency_sec=0.02),
        fault_model=RandomFaults(run_error_prob=0.5, seed=7),
        seed=0,
        async_measure=True,
    )
    stopper = _StopAfter(2)
    Tuner(task, policy=policy, measurer=measurer,
          options=TuningOptions(num_measure_trials=64, num_measures_per_round=8),
          callbacks=[stopper, RecordToFile(log)]).tune()
    # the lookahead round was recalled: well under the full budget ran
    assert policy.num_trials < 64
    assert policy.num_trials == measurer.measure_count
    records = load_records(log, strict=True)
    assert len(records) == measurer.measure_count
    recorded_errors = sum(1 for r in records if not r.valid)
    assert recorded_errors == measurer.error_count
    assert sum(measurer.error_counts.values()) == measurer.error_count
    # nothing half-open survives the session: no worker thread leaked
    time.sleep(0.01)
    assert not [
        t for t in threading.enumerate() if t.name.startswith("MeasureSession-worker")
    ]


def test_stop_tuning_mid_round_sync_path_still_observes_full_round(task):
    """On the synchronous path the batch is already measured when on_result
    fires; the stop unwinds after the round is ingested and counted once."""
    policy = SketchPolicy(task, seed=0)
    measurer = MeasurePipeline(intel_cpu(), seed=0)
    stopper = _StopAfter(2)
    Tuner(task, policy=policy, measurer=measurer,
          options=TuningOptions(num_measure_trials=64, num_measures_per_round=8),
          callbacks=[stopper]).tune()
    assert policy.num_trials == 8
    assert measurer.measure_count == 8


def test_stream_stop_in_scheduler_exhausts_only_that_task(intel_hardware):
    tasks = [
        SearchTask(make_matmul_relu_dag(64, 64, 64), intel_hardware, desc="a"),
        SearchTask(make_matmul_relu_dag(96, 96, 96), intel_hardware, desc="b"),
    ]

    class StopTaskA(MeasureCallback):
        def on_result(self, event):
            if event.task.desc == "a":
                raise StopTuning("a is done")

    scheduler = TaskScheduler(tasks, seed=0)
    scheduler.tune(
        48, num_measures_per_round=8, async_measure=True, callbacks=[StopTaskA()]
    )
    assert scheduler.exhausted[0]
    # task b kept tuning after a stopped
    assert scheduler.allocations[1] >= scheduler.allocations[0]
    assert not scheduler.exhausted[1] or scheduler.total_trials >= 48


def test_pipelined_tune_resumes_a_reused_policy(task):
    """Async budgets count from the policy's existing num_trials like the
    sync loop: re-tuning with an equal budget adds nothing, a larger budget
    adds only the difference."""
    policy = SketchPolicy(task, seed=0)
    measurer = MeasurePipeline(intel_cpu(), seed=0, async_measure=True)
    options = TuningOptions(num_measure_trials=16, num_measures_per_round=8)
    Tuner(task, policy=policy, options=options, measurer=measurer).tune()
    assert policy.num_trials == 16
    # same budget: already consumed
    Tuner(task, policy=policy, options=options, measurer=measurer).tune()
    assert policy.num_trials == 16
    Tuner(task, policy=policy, measurer=measurer,
          options=TuningOptions(num_measure_trials=24, num_measures_per_round=8)).tune()
    assert policy.num_trials == 24


def test_future_result_timeout_holds_under_unrelated_completions(task, inputs):
    """result(timeout=...) uses a monotonic deadline: completions of OTHER
    futures wake the condition but must not restart the clock."""
    pipeline = MeasurePipeline(
        intel_cpu(), builder=LocalBuilder(build_latency_sec=0.2), seed=0
    )
    with pipeline.session(async_=True, n_workers=1) as session:
        futures = session.submit(inputs[:3])
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            futures[-1].result(timeout=0.05)
        assert time.monotonic() - start < 0.2  # did not wait for the queue


def test_abandoned_as_completed_leaves_unyielded_futures_sweepable(task, inputs):
    """Breaking out of as_completed mid-stream must not mark the unyielded
    remainder collected: a later drain still returns those results."""
    pipeline = MeasurePipeline(intel_cpu(), seed=0)
    with pipeline.session(async_=True, n_workers=2) as session:
        futures = session.submit(inputs)
        for fut in session.as_completed(futures):
            break  # consumer bails after the first result
        rest = session.drain()
    assert len(rest) == len(inputs) - 1
    assert pipeline.measure_count == len(inputs)
