"""Tests for the self-healing device fleet (learned fault profiles, circuit
breakers, elastic membership, affinity dispatch) and its satellites.

Covers the fleet acceptance surface: online fault-rate estimation converging
on injected (undeclared) device behaviour, breaker trip / canary re-admission
/ permanent ejection under seeded fault storms, a board degrading mid-session
without hurting the session's best cost, elastic add/remove with zero lost or
double-counted results under an async ``as_completed`` consumer, sticky
workload-affinity dispatch with load-aware spill, the timeout-retry policy
(``TuningOptions(retry_timeouts=True)``) and its record round-trip, and the
per-attempt busy-seconds attribution that keeps ``device_stats()`` honest
when retries land on a different device.
"""

import io
import json

import pytest

from repro import Tuner, TuningOptions
from repro.callbacks import MeasureCallback, ProgressLogger, RecordToFile
from repro.cost_model import LearnedCostModel
from repro.hardware import (
    CircuitBreakerConfig,
    DeviceFleet,
    DeviceProfile,
    DeviceState,
    EstimatedProfile,
    LocalRunner,
    MeasureErrorNo,
    MeasureInput,
    MeasurePipeline,
    intel_cpu,
)
from repro.records import TuningRecord, load_records, save_records
from repro.scheduler import TaskScheduler
from repro.search import generate_sketches, sample_initial_population
from repro.search.baselines import random_search_policy
from repro.task import SearchTask

from ..conftest import make_matmul_relu_dag, make_norm_dag


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


def _many_inputs(task, rng, count):
    sketches = generate_sketches(task)
    states = sample_initial_population(task, sketches, count, rng)
    return [MeasureInput(task, s) for s in states]


# ---------------------------------------------------------------------------
# Config surfaces
# ---------------------------------------------------------------------------


def test_circuit_breaker_config_validation_and_coercion():
    with pytest.raises(ValueError, match="fault_rate_threshold"):
        CircuitBreakerConfig(fault_rate_threshold=0.0)
    with pytest.raises(ValueError, match="n_probe"):
        CircuitBreakerConfig(n_probe=0)
    assert CircuitBreakerConfig.coerce(None) is None
    assert CircuitBreakerConfig.coerce(False) is None
    assert CircuitBreakerConfig.coerce(True) == CircuitBreakerConfig()
    assert CircuitBreakerConfig.coerce({"min_samples": 3}).min_samples == 3
    cfg = CircuitBreakerConfig(max_trips=1)
    assert CircuitBreakerConfig.coerce(cfg) is cfg
    with pytest.raises(TypeError, match="circuit_breaker"):
        CircuitBreakerConfig.coerce("on")


def test_estimated_profile_warm_starts_from_declared():
    profile = DeviceProfile(
        "d", run_error_prob=0.2, run_timeout_prob=0.1, slowdown=2.0, queue_latency_sec=0.5
    )
    est = EstimatedProfile.from_declared(profile)
    assert est.fault_rate == pytest.approx(0.2)
    assert est.timeout_rate == pytest.approx(0.1)
    assert est.error_rate == pytest.approx(0.3)
    assert est.slowdown == pytest.approx(2.0)
    assert est.queue_latency_sec == pytest.approx(0.5)
    assert est.samples == 0


def test_fleet_dispatch_validation():
    with pytest.raises(ValueError, match="dispatch"):
        LocalRunner(intel_cpu(), dispatch="random")
    with pytest.raises(ValueError, match="dispatch"):
        TuningOptions(dispatch="random")


# ---------------------------------------------------------------------------
# Online fault-profile estimation
# ---------------------------------------------------------------------------


def test_estimated_fault_rate_converges_on_undeclared_faults(task, rng):
    """The acceptance gate's convergence half: a board *declared* clean but
    actually faulting 50% of the time is estimated within 20% of the truth
    after 100 trials — the estimator learns what the operator never said."""
    runner = LocalRunner(intel_cpu(), devices=["solo"], seed=0)
    runner.fleet.inject_profile("solo", run_error_prob=0.5)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)
    pipeline.measure(_many_inputs(task, rng, 100))
    stats = runner.device_stats()["solo"]
    assert stats["samples"] == 100
    assert stats["est_fault_rate"] == pytest.approx(0.5, rel=0.2)
    # The declared profile is untouched — only the estimate moved.
    assert runner.fleet.devices[0].run_error_prob == 0.0


def test_estimator_tracks_slowdown_and_queue_latency(task, rng):
    runner = LocalRunner(
        intel_cpu(),
        devices=[DeviceProfile("s", slowdown=3.0, queue_latency_sec=0.25)],
        seed=0,
    )
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)
    pipeline.measure(_many_inputs(task, rng, 12))
    stats = runner.device_stats()["s"]
    assert stats["est_slowdown"] == pytest.approx(3.0, rel=0.15)
    assert stats["est_queue_latency_sec"] == pytest.approx(0.25, rel=0.15)


# ---------------------------------------------------------------------------
# Circuit breaker: trip, probe, re-admit, eject
# ---------------------------------------------------------------------------


def test_breaker_quarantines_a_faulting_board(task, rng):
    """A board that starts failing trips the breaker after ``min_samples``
    and stops receiving regular work; the healthy neighbour absorbs it."""
    runner = LocalRunner(
        intel_cpu(),
        devices=["good", "bad"],
        seed=0,
        circuit_breaker=CircuitBreakerConfig(min_samples=4, probe_interval=50),
    )
    runner.fleet.inject_profile("bad", run_error_prob=1.0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner, n_retry=4)
    results = pipeline.measure(_many_inputs(task, rng, 24))
    stats = runner.device_stats()
    assert stats["bad"]["state"] == DeviceState.QUARANTINED
    assert stats["bad"]["trips"] == 1
    # Quarantine bounds the damage: the bad board served about min_samples
    # regular runs (plus retries that raced the trip), far below its
    # round-robin half share.
    assert stats["bad"]["runs"] < 12
    assert all(r.valid for r in results)  # retries recovered on "good"


def test_breaker_readmits_after_successful_canaries(task, rng):
    """A quarantined board that recovers is re-admitted after ``n_probe``
    consecutive canary successes, with its fault evidence forgiven."""
    runner = LocalRunner(
        intel_cpu(),
        devices=["good", "flaky"],
        seed=0,
        circuit_breaker=CircuitBreakerConfig(min_samples=4, n_probe=2, probe_interval=3),
    )
    runner.fleet.inject_profile("flaky", run_error_prob=1.0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner, n_retry=4)
    pipeline.measure(_many_inputs(task, rng, 16))
    assert runner.device_stats()["flaky"]["state"] == DeviceState.QUARANTINED
    # The storm passes: the board behaves again, canaries succeed.
    runner.fleet.inject_profile("flaky", run_error_prob=0.0)
    pipeline.measure(_many_inputs(task, rng, 24))
    stats = runner.device_stats()["flaky"]
    assert stats["state"] == DeviceState.HEALTHY
    assert stats["canary_runs"] >= 2
    assert stats["est_fault_rate"] < 0.25  # evidence forgiven, re-earned clean


def test_breaker_ejects_a_permanently_dead_board(task, rng):
    """Canaries that keep failing prove the board dead: it is ejected and
    the pool keeps measuring on the survivors (work is never lost)."""
    runner = LocalRunner(
        intel_cpu(),
        devices=["good", "dead"],
        seed=0,
        circuit_breaker=CircuitBreakerConfig(
            min_samples=4, probe_interval=2, max_probe_failures=3
        ),
    )
    runner.fleet.inject_profile("dead", run_error_prob=1.0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner, n_retry=4)
    results = pipeline.measure(_many_inputs(task, rng, 40))
    stats = runner.device_stats()
    assert stats["dead"]["state"] == DeviceState.EJECTED
    assert all(r.valid for r in results)
    # After ejection every regular dispatch goes to the survivor.
    assert stats["good"]["runs"] > stats["dead"]["runs"]


def test_all_quarantined_pool_still_probes_forward(task, inputs):
    """Quarantining the only device must not deadlock dispatch: with no
    healthy member left, work is forced through as canary probes (and here
    the board recovers, so the session completes)."""
    runner = LocalRunner(
        intel_cpu(),
        devices=["only"],
        seed=0,
        circuit_breaker=CircuitBreakerConfig(
            min_samples=2, n_probe=2, probe_interval=2, max_probe_failures=20
        ),
    )
    runner.fleet.inject_profile("only", run_error_prob=1.0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner, n_retry=1)
    pipeline.measure(inputs[:4])
    assert runner.device_stats()["only"]["state"] == DeviceState.QUARANTINED
    runner.fleet.inject_profile("only", run_error_prob=0.0)
    results = pipeline.measure(inputs[4:])
    assert all(r.valid for r in results)
    assert runner.device_stats()["only"]["state"] == DeviceState.HEALTHY


def test_fully_dead_pool_raises_actionable_error(task, inputs):
    runner = LocalRunner(
        intel_cpu(),
        devices=["only"],
        seed=0,
        circuit_breaker=CircuitBreakerConfig(
            min_samples=2, probe_interval=1, max_probe_failures=2
        ),
    )
    runner.fleet.inject_profile("only", run_error_prob=1.0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)
    with pytest.raises(RuntimeError, match="no dispatchable devices"):
        pipeline.measure(inputs)


def test_breaker_off_by_default_never_transitions(task, rng):
    runner = LocalRunner(intel_cpu(), devices=["a", "b"], seed=0)
    runner.fleet.inject_profile("b", run_error_prob=1.0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner, n_retry=4)
    pipeline.measure(_many_inputs(task, rng, 16))
    stats = runner.device_stats()
    assert stats["b"]["state"] == DeviceState.HEALTHY
    assert stats["b"]["trips"] == 0
    assert stats["b"]["runs"] >= 8  # still receives its round-robin share


def test_fault_storm_best_cost_matches_healthy_pool(task, rng):
    """The headline scenario: one board degrades mid-session, the breaker
    trips, and the session's best cost still matches a healthy-pool run —
    robustness costs retries, not result quality."""
    inputs = _many_inputs(task, rng, 48)
    healthy = MeasurePipeline(
        intel_cpu(), runner=LocalRunner(intel_cpu(), devices=["a", "b"], seed=0)
    )
    healthy.measure(inputs)

    stormy_runner = LocalRunner(
        intel_cpu(),
        devices=["a", "b"],
        seed=0,
        circuit_breaker=CircuitBreakerConfig(min_samples=4, probe_interval=20),
    )
    stormy = MeasurePipeline(intel_cpu(), runner=stormy_runner, n_retry=4)
    stormy.measure(inputs[:8])  # the pool starts healthy
    stormy_runner.fleet.inject_profile("b", run_error_prob=0.9)  # board degrades
    results = stormy.measure(inputs[8:])
    assert stormy_runner.device_stats()["b"]["state"] != DeviceState.HEALTHY
    assert all(r.valid for r in results)
    key = task.workload_key
    assert stormy.best_cost[key] == pytest.approx(healthy.best_cost[key], rel=0.05)


# ---------------------------------------------------------------------------
# Elastic membership
# ---------------------------------------------------------------------------


def test_add_device_mid_session_takes_load(task, rng):
    runner = LocalRunner(intel_cpu(), devices=["a"], seed=0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)
    pipeline.measure(_many_inputs(task, rng, 4))
    runner.fleet.add_device("b")
    pipeline.measure(_many_inputs(task, rng, 8))
    stats = runner.device_stats()
    assert stats["b"]["runs"] == 4  # round-robin includes the newcomer
    assert [d.name for d in runner.fleet.devices] == ["a", "b"]
    with pytest.raises(ValueError, match="duplicate"):
        runner.fleet.add_device("a")


def test_remove_device_drains_and_rejects_new_work(task, rng):
    runner = LocalRunner(intel_cpu(), devices=["a", "b"], seed=0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)
    pipeline.measure(_many_inputs(task, rng, 8))
    snapshot = runner.fleet.remove_device("b")
    assert snapshot["runs"] == 4
    pipeline.measure(_many_inputs(task, rng, 6))
    stats = runner.device_stats()
    assert stats["b"]["runs"] == 4  # frozen at removal
    assert stats["a"]["runs"] == 4 + 6
    assert [d.name for d in runner.fleet.devices] == ["a"]
    with pytest.raises(KeyError, match="b"):
        runner.fleet.remove_device("b")
    # A replaced board may rejoin under its old name, with a fresh ledger.
    runner.fleet.add_device("b")
    assert runner.device_stats()["b"]["runs"] == 0


def test_readded_device_joins_at_the_end(task, inputs):
    """A board that leaves and rejoins takes the last slot in join order,
    not the slot its removed entry held."""
    runner = LocalRunner(intel_cpu(), devices=["a", "b", "c"], seed=0)
    runner.fleet.remove_device("a")
    runner.fleet.add_device("a")
    assert [d.name for d in runner.fleet.devices] == ["b", "c", "a"]
    assert list(runner.device_stats()) == ["b", "c", "a"]
    results = MeasurePipeline(intel_cpu(), runner=runner).measure(inputs[:3])
    assert [r.device for r in results] == ["b", "c", "a"]  # round-robin order


def test_remove_device_mid_as_completed_loses_zero_results(task, rng):
    """The churn half of the acceptance gate: removing a device while an
    async consumer iterates ``as_completed`` loses no results and keeps
    cost-model training exactly-once."""
    inputs = _many_inputs(task, rng, 16)
    runner = LocalRunner(intel_cpu(), devices=["a", "b"], seed=0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)
    collected = []
    with pipeline.session(async_=True, n_workers=2) as session:
        futures = session.submit(inputs)
        for count, fut in enumerate(session.as_completed(futures)):
            collected.append(fut.result())
            if count == 3:
                runner.fleet.remove_device("b", drain=True, timeout=30.0)
    assert len(collected) == len(inputs)
    assert all(r.valid for r in collected)
    assert pipeline.measure_count == len(inputs)
    stats = runner.device_stats()
    assert stats["a"]["runs"] + stats["b"]["runs"] == len(inputs)
    assert stats["b"]["state"] == DeviceState.REMOVED
    # Exactly-once training: one sample per submitted input, despite churn.
    model = LearnedCostModel(seed=0)
    model.update(inputs, collected)
    assert model.num_samples == len(inputs)


# ---------------------------------------------------------------------------
# Affinity dispatch
# ---------------------------------------------------------------------------


def test_affinity_keeps_a_workload_on_one_device(task, inputs):
    runner = LocalRunner(intel_cpu(), devices=["a", "b", "c"], dispatch="affinity", seed=0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)
    pipeline.measure(inputs[:3])
    runs = {name: entry["runs"] for name, entry in runner.device_stats().items()}
    assert sorted(runs.values()) == [0, 0, 3]  # one sticky home device


def test_affinity_spills_under_load_but_keeps_the_majority(task, rng):
    runner = LocalRunner(intel_cpu(), devices=["a", "b", "c"], dispatch="affinity", seed=0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)
    pipeline.measure(_many_inputs(task, rng, 30))
    runs = sorted(
        (entry["runs"] for entry in runner.device_stats().values()), reverse=True
    )
    assert sum(runs) == 30
    assert runs[0] > runs[-1] > 0  # home keeps the plurality, others help


def test_affinity_homes_differ_across_workloads(rng):
    """Different workloads rendezvous to (generally) different homes — the
    two tasks here are chosen so they do — so affinity does not collapse
    a multi-workload session onto one board."""
    task_a = SearchTask(make_matmul_relu_dag(), intel_cpu(), desc="mm")
    task_b = SearchTask(make_norm_dag(), intel_cpu(), desc="norm")
    runner = LocalRunner(intel_cpu(), devices=["a", "b", "c"], dispatch="affinity", seed=0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)

    def home_for(task):
        before = {n: e["runs"] for n, e in runner.device_stats().items()}
        states = sample_initial_population(task, generate_sketches(task), 2, rng)
        pipeline.measure([MeasureInput(task, s) for s in states])
        after = runner.device_stats()
        return next(n for n, e in after.items() if e["runs"] > before[n])

    assert home_for(task_a) != home_for(task_b)


# ---------------------------------------------------------------------------
# Satellite: timeout retries (TuningOptions.retry_timeouts)
# ---------------------------------------------------------------------------


def test_retry_timeouts_recovers_transient_timeouts(task, rng):
    """Per-device ``run_timeout_prob`` faults are transient: with
    ``retry_timeouts`` on, re-dispatch recovers trials the default policy
    gives up on."""
    inputs = _many_inputs(task, rng, 12)

    def make_pipeline(retry_timeouts):
        runner = LocalRunner(
            intel_cpu(),
            devices=[DeviceProfile("t", run_timeout_prob=0.6), DeviceProfile("ok")],
            seed=0,
        )
        return MeasurePipeline(
            intel_cpu(), runner=runner, n_retry=5, retry_timeouts=retry_timeouts
        )

    default = make_pipeline(False).measure(inputs)
    lost = [r for r in default if r.error_kind == MeasureErrorNo.RUN_TIMEOUT]
    assert lost  # the fault rate actually bites
    assert all(r.retry_count == 0 for r in lost)  # old policy: no retry

    recovered = make_pipeline(True).measure(inputs)
    assert all(r.valid for r in recovered)
    assert any(r.retry_count > 0 for r in recovered)
    # Recovered costs equal the no-fault costs: a transient timeout perturbs
    # availability, not the timing of the eventually-successful run.
    clean = MeasurePipeline(
        intel_cpu(), runner=LocalRunner(intel_cpu(), devices=["t", "ok"], seed=0)
    ).measure(inputs)
    assert [r.costs for r in recovered] == [r.costs for r in clean]


def test_retry_timeouts_threads_through_options(task):
    options = TuningOptions(
        runner="rpc", devices=["a", "b"], n_retry=2, retry_timeouts=True,
        dispatch="least-loaded", circuit_breaker={"min_samples": 3},
    )
    pipeline = MeasurePipeline.from_options(intel_cpu(), options)
    assert pipeline.retry_timeouts is True
    assert pipeline.runner.fleet.dispatch == "least-loaded"
    assert pipeline.runner.fleet.breaker.min_samples == 3


def test_deterministic_timeouts_still_fail_fast(task, inputs):
    """A program genuinely slower than the budget times out on every
    attempt; ``retry_timeouts`` burns its retries but the final verdict is
    unchanged — and the run stays deterministic."""
    runner = LocalRunner(intel_cpu(), devices=["a", "b"], seed=0, timeout=1e-12)
    pipeline = MeasurePipeline(
        intel_cpu(), runner=runner, n_retry=2, retry_timeouts=True
    )
    results = pipeline.measure(inputs[:4])
    assert all(r.error_kind == MeasureErrorNo.RUN_TIMEOUT for r in results)
    assert all(r.retry_count == 2 for r in results)


def test_record_round_trips_device_and_timeout_retries(task, inputs, tmp_path):
    runner = LocalRunner(
        intel_cpu(),
        devices=[DeviceProfile("t", run_timeout_prob=0.6), DeviceProfile("ok")],
        seed=0,
    )
    pipeline = MeasurePipeline(
        intel_cpu(), runner=runner, n_retry=5, retry_timeouts=True
    )
    results = pipeline.measure(inputs)
    log = tmp_path / "fleet.json"
    save_records(log, inputs, results)
    records = load_records(log)
    assert [r.device for r in records] == [res.device for res in results]
    assert all(r.device in ("t", "ok") for r in records)
    assert [r.retry_count for r in records] == [res.retry_count for res in results]
    # Legacy lines (no device field) still load, defaulting to None.
    legacy = dict(records[0].to_dict())
    legacy.pop("device")
    assert TuningRecord.from_dict(legacy).device is None


# ---------------------------------------------------------------------------
# The one-board pool of a default pipeline
# ---------------------------------------------------------------------------


def test_default_pipeline_runs_on_one_board(task, inputs):
    pipeline = MeasurePipeline(intel_cpu())
    results = pipeline.measure(inputs)
    for res in results:
        assert res.device == "dev0"
        assert len(res.attempts) == 1
        assert res.attempts[0]["device"] == "dev0"
        assert res.attempts[0]["error_no"] == int(MeasureErrorNo.NO_ERROR)
        assert not res.attempts[0]["canary"]
    assert pipeline.runner.device_stats()["dev0"]["runs"] == len(inputs)


def test_failed_builds_get_no_device(task):
    state = task.compute_dag.init_state()
    state.split("C", 0, [None])  # an incomplete program fails to build
    pipeline = MeasurePipeline(intel_cpu())
    result = pipeline.measure_one(MeasureInput(task, state))
    assert result.error_kind == MeasureErrorNo.INSTANTIATION_ERROR
    assert result.device is None and result.attempts == []
    assert pipeline.runner.device_stats()["dev0"]["runs"] == 0


def test_record_to_file_round_trips_the_board(task, tmp_path):
    class Devices(MeasureCallback):
        def __init__(self):
            self.seen = []

        def on_result(self, event):
            self.seen.append(event.result.device)

    log = tmp_path / "dev0.json"
    devices = Devices()
    options = TuningOptions(num_measure_trials=8, num_measures_per_round=8, seed=0)
    Tuner(task, policy="random", options=options, callbacks=[RecordToFile(log), devices]).tune()
    records = load_records(log)
    assert [r.device for r in records] == devices.seen
    assert devices.seen == ["dev0"] * 8


# ---------------------------------------------------------------------------
# Satellite: busy-seconds attribution (device_stats under retries / async)
# ---------------------------------------------------------------------------


def _assert_stats_match_attempt_ledger(runner, results):
    """Every attempt's run and busy-seconds must be charged to the device
    that actually executed it — reconstructed from the per-attempt ledger."""
    expected_runs = {}
    expected_busy = {}
    for res in results:
        assert res.attempts, "device-pool results must carry an attempt ledger"
        assert res.device == res.attempts[-1]["device"]
        assert len(res.attempts) == 1 + res.retry_count
        for attempt in res.attempts:
            expected_runs[attempt["device"]] = expected_runs.get(attempt["device"], 0) + 1
            expected_busy[attempt["device"]] = (
                expected_busy.get(attempt["device"], 0.0) + attempt["occupancy_sec"]
            )
    stats = runner.device_stats()
    for name, entry in stats.items():
        assert entry["runs"] == expected_runs.get(name, 0)
        assert entry["busy_sec"] == pytest.approx(expected_busy.get(name, 0.0))


def test_busy_seconds_follow_the_executing_device_sync(task, rng):
    """Regression (satellite 2): a retry that lands on a different device
    charges the device that ran it, never the one that faulted first."""
    runner = LocalRunner(
        intel_cpu(),
        devices=[DeviceProfile("flaky", run_error_prob=1.0), DeviceProfile("ok")],
        seed=0,
    )
    pipeline = MeasurePipeline(intel_cpu(), runner=runner, n_retry=4)
    results = pipeline.measure(_many_inputs(task, rng, 10))
    assert any(r.retry_count > 0 for r in results)
    assert any(
        len({a["device"] for a in r.attempts}) > 1 for r in results
    )  # some retries migrated devices
    _assert_stats_match_attempt_ledger(runner, results)


def test_busy_seconds_follow_the_executing_device_async(task, rng):
    """The same attribution contract under an async session's workers."""
    runner = LocalRunner(
        intel_cpu(),
        devices=[DeviceProfile("flaky", run_error_prob=0.7), DeviceProfile("ok")],
        seed=1,
    )
    pipeline = MeasurePipeline(intel_cpu(), runner=runner, n_retry=4)
    with pipeline.session(async_=True, n_workers=3) as session:
        session.submit(_many_inputs(task, rng, 16))
        results = session.drain()
    assert all(r.valid for r in results)
    _assert_stats_match_attempt_ledger(runner, results)


def test_timed_out_run_is_charged_the_budget_not_the_program(task, inputs):
    """Regression (satellite 2): a watchdog kills a slow candidate at the
    timeout budget — charging its full estimated runtime (x repeats) was
    overstating the board's busy time and skewing least-loaded dispatch."""
    budget = 1e-9
    runner = LocalRunner(intel_cpu(), devices=["a"], seed=0, timeout=budget)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)
    results = pipeline.measure(inputs[:3])
    assert all(r.error_kind == MeasureErrorNo.RUN_TIMEOUT for r in results)
    stats = runner.device_stats()["a"]
    assert stats["timeouts"] == 3
    assert stats["busy_sec"] == pytest.approx(3 * budget)


# ---------------------------------------------------------------------------
# Observability: device_stats / ProgressLogger / TaskScheduler
# ---------------------------------------------------------------------------


def test_progress_logger_surfaces_breaker_state_and_estimates(task, rng):
    runner = LocalRunner(
        intel_cpu(),
        devices=["good", "bad"],
        seed=0,
        circuit_breaker=CircuitBreakerConfig(min_samples=4, probe_interval=50),
    )
    runner.fleet.inject_profile("bad", run_error_prob=1.0)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner, n_retry=4)
    pipeline.measure(_many_inputs(task, rng, 16))
    stream = io.StringIO()
    logger = ProgressLogger(stream=stream)
    logger._track_measurer(pipeline)
    logger.on_tuning_end(object())
    out = stream.getvalue()
    assert "state=quarantined" in out
    assert "est_fault=" in out


def test_scheduler_aggregates_device_stats():
    tasks = [
        SearchTask(make_matmul_relu_dag(), intel_cpu(), desc="mm"),
        SearchTask(make_norm_dag(), intel_cpu(), desc="norm"),
    ]
    scheduler = TaskScheduler(
        tasks,
        strategy="round_robin",
        policy_factory=lambda task, model, seed: random_search_policy(task, seed=seed),
    )
    measurer = MeasurePipeline(
        intel_cpu(), runner=LocalRunner(intel_cpu(), devices=["a", "b"], seed=0)
    )
    scheduler.tune(num_measure_trials=8, num_measures_per_round=4, measurer=measurer)
    stats = scheduler.device_stats()
    assert set(stats) == {"a", "b"}
    assert sum(entry["runs"] for entry in stats.values()) == 8
    # A default pipeline contributes its one board; several pools report
    # their devices under the pipeline's index.
    scheduler.measurers.append(MeasurePipeline(intel_cpu()))
    assert set(scheduler.device_stats()) == {"0/a", "0/b", "1/dev0"}


def test_fleet_direct_protocol_roundtrip(task, inputs):
    """The DeviceFleet acquire/record protocol stands alone (no LocalRunner):
    what custom runners would build on."""

    class _FakeRunner:
        def __init__(self, profile):
            self.profile = profile
            self.timeout = None

    fleet = DeviceFleet(["x", "y"], _FakeRunner, dispatch="round-robin")
    ticket = fleet.acquire(inputs[0])
    assert ticket.device.name == "x" and not ticket.canary
    from repro.hardware import BuildResult, MeasureResult

    build = BuildResult(program=None)
    occupancy = fleet.record(
        ticket, inputs[0], build, MeasureResult(costs=[2.0]), clean_base=1.0
    )
    assert occupancy == pytest.approx(2.0)
    stats = fleet.device_stats()
    assert stats["x"]["runs"] == 1 and stats["x"]["inflight"] == 0
    assert stats["x"]["est_slowdown"] == pytest.approx(2.0, rel=0.9)
    assert stats["y"]["runs"] == 0
