"""Tests for tuning-log records."""

import json
import warnings

import numpy as np
import pytest

from repro import apply_history_best, load_records, save_records
from repro.hardware import (
    CostSimulator,
    MeasureErrorNo,
    MeasureInput,
    MeasurePipeline,
    RandomFaults,
    intel_cpu,
)
from repro.records import RecordLogWarning, TuningRecord, best_record
from repro.search import generate_sketches, sample_initial_population
from repro.task import SearchTask

from .conftest import make_matmul_relu_dag


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(), intel_cpu(), desc="mm64")


@pytest.fixture
def measured(task, rng, measurer):
    sketches = generate_sketches(task)
    states = sample_initial_population(task, sketches, 6, rng)
    inputs = [MeasureInput(task, s) for s in states]
    results = measurer.measure(inputs)
    return inputs, results


def test_round_trip_through_file(tmp_path, task, measured):
    inputs, results = measured
    log = tmp_path / "tuning.json"
    save_records(log, inputs, results)
    records = load_records(log)
    assert len(records) == len(inputs)
    assert all(r.workload_key == task.workload_key for r in records)
    assert all(r.valid for r in records)


def test_append_mode(tmp_path, task, measured):
    inputs, results = measured
    log = tmp_path / "tuning.json"
    save_records(log, inputs[:3], results[:3])
    save_records(log, inputs[3:], results[3:])
    assert len(load_records(log)) == len(inputs)


def test_overwrite_mode(tmp_path, task, measured):
    inputs, results = measured
    log = tmp_path / "tuning.json"
    save_records(log, inputs, results)
    save_records(log, inputs[:2], results[:2], append=False)
    assert len(load_records(log)) == 2


def test_corrupt_lines_are_skipped_with_warning(tmp_path, task, measured):
    """Malformed lines are tolerated but surfaced: counted and warned about
    once per file, instead of raising mid-file or vanishing silently."""
    inputs, results = measured
    log = tmp_path / "tuning.json"
    save_records(log, inputs, results)
    with open(log, "a") as f:
        f.write("this is not json\n")
        f.write('{"missing": "fields"}\n')
    with pytest.warns(RecordLogWarning, match="2 malformed"):
        records = load_records(log)
    assert len(records) == len(inputs)


def test_clean_log_loads_without_warning(tmp_path, task, measured):
    inputs, results = measured
    log = tmp_path / "tuning.json"
    save_records(log, inputs, results)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RecordLogWarning)
        assert len(load_records(log)) == len(inputs)


def test_strict_mode_raises_on_corrupt_line(tmp_path, task, measured):
    inputs, results = measured
    log = tmp_path / "tuning.json"
    save_records(log, inputs, results)
    with open(log, "a") as f:
        f.write("garbage\n")
    with pytest.raises(json.JSONDecodeError):
        load_records(log, strict=True)


def test_legacy_lines_without_error_no_load(tmp_path, task, measured):
    """Pre-taxonomy log lines (no error_no / elapsed_sec fields) still load;
    the kind is derived from the error string."""
    inputs, results = measured
    legacy_ok = {
        "workload_key": task.workload_key,
        "target": task.hardware_params.name,
        "steps": inputs[0].state.serialize_steps(),
        "costs": [0.5],
        "error": None,
        "timestamp": 1.0,
    }
    legacy_err = dict(legacy_ok, costs=[], error="ValueError: bad")
    log = tmp_path / "legacy.json"
    log.write_text(json.dumps(legacy_ok) + "\n" + json.dumps(legacy_err) + "\n")
    records = load_records(log)
    assert len(records) == 2
    assert records[0].valid
    assert records[0].error_kind == MeasureErrorNo.NO_ERROR
    assert not records[1].valid
    assert records[1].error_kind == MeasureErrorNo.UNKNOWN_ERROR


def test_error_kind_and_elapsed_round_trip(tmp_path, task, measured):
    """error_no and elapsed_sec survive the JSON round trip, so failed
    trials are resumable and plottable."""
    inputs, _ = measured
    faulty = MeasurePipeline(
        task.hardware_params, fault_model=RandomFaults(build_error_prob=0.5, seed=4), seed=0
    )
    results = faulty.measure(inputs)
    assert any(not r.valid for r in results) and any(r.valid for r in results)
    log = tmp_path / "tuning.json"
    save_records(log, inputs, results)
    records = load_records(log)
    for rec, res in zip(records, results):
        assert rec.error_no == int(res.error_no)
        assert rec.error_kind == res.error_kind
        assert rec.elapsed_sec == pytest.approx(res.elapsed_sec)
        assert rec.valid == res.valid


def test_retry_count_round_trips(tmp_path, task, measured):
    """A transient-fault session's retry counts survive the log round trip
    (one line per trial, never one per attempt)."""
    inputs, _ = measured
    retried = MeasurePipeline(
        task.hardware_params,
        fault_model=RandomFaults(run_error_prob=0.6, seed=3),
        seed=0,
        n_retry=5,
    )
    results = retried.measure(inputs)
    assert sum(r.retry_count for r in results) > 0
    log = tmp_path / "tuning.json"
    save_records(log, inputs, results)
    records = load_records(log)
    assert len(records) == len(inputs)  # one line per trial, retries merged
    for rec, res in zip(records, results):
        assert rec.retry_count == res.retry_count


def test_legacy_lines_without_retry_count_default_to_zero(tmp_path, task, measured):
    inputs, _ = measured
    line = {
        "workload_key": task.workload_key,
        "target": task.hardware_params.name,
        "steps": inputs[0].state.serialize_steps(),
        "costs": [0.5],
        "error": None,
        "error_no": 0,
        "elapsed_sec": 0.1,
        "timestamp": 1.0,
    }
    log = tmp_path / "legacy.json"
    log.write_text(json.dumps(line) + "\n")
    (record,) = load_records(log)
    assert record.retry_count == 0


def test_best_record_and_apply_history_best(tmp_path, task, measured):
    inputs, results = measured
    log = tmp_path / "tuning.json"
    save_records(log, inputs, results)
    best = best_record(log, task.workload_key)
    assert best is not None
    expected_cost = min(r.min_cost for r in results if r.valid)
    assert best.best_cost == pytest.approx(expected_cost)

    state = apply_history_best(task, log)
    assert state is not None
    # Re-estimating the rebuilt program gives (noise-free) a cost close to
    # the logged one.
    simulated = CostSimulator(task.hardware_params).estimate(state)
    assert simulated == pytest.approx(expected_cost, rel=0.2)


def test_best_record_unknown_workload(tmp_path, task, measured):
    inputs, results = measured
    log = tmp_path / "tuning.json"
    save_records(log, inputs, results)
    assert best_record(log, "unknown") is None
    assert apply_history_best(SearchTask(make_matmul_relu_dag(32, 32, 32), intel_cpu()), log) is None


def test_record_to_state_reproduces_program(task, measured):
    inputs, results = measured
    record = TuningRecord.from_measurement(inputs[0], results[0])
    rebuilt = record.to_state(task)
    assert rebuilt.print_program() == inputs[0].state.print_program()


def test_invalid_measurement_recorded_as_error(tmp_path, task):
    state = task.compute_dag.init_state()
    state.split("C", 0, [None])
    measurer = MeasurePipeline(task.hardware_params)
    inputs = [MeasureInput(task, state)]
    results = measurer.measure(inputs)
    log = tmp_path / "tuning.json"
    save_records(log, inputs, results)
    records = load_records(log)
    assert not records[0].valid
    assert records[0].best_cost == float("inf")


def test_retry_and_error_no_round_trip_strict(tmp_path, task, measured):
    """Satellite regression: retry_count and error_no of a fault-heavy
    session survive the log round trip byte-faithfully under strict=True
    (no line falls back to the lenient skip path)."""
    inputs, _ = measured
    pipeline = MeasurePipeline(
        task.hardware_params,
        fault_model=RandomFaults(run_error_prob=0.7, run_timeout_prob=0.1, seed=9),
        seed=0,
        n_retry=2,
    )
    results = pipeline.measure(inputs)
    assert sum(r.retry_count for r in results) > 0
    assert any(not r.valid for r in results)  # some faults survive the retries
    log = tmp_path / "tuning.json"
    save_records(log, inputs, results)
    records = load_records(log, strict=True)
    assert len(records) == len(inputs)
    for rec, res in zip(records, results):
        assert rec.retry_count == res.retry_count
        assert rec.error_no == int(res.error_no)
        assert rec.error_kind == res.error_kind
        assert rec.valid == res.valid
    # and a second generation (re-serialize the parsed records) is stable
    second = [TuningRecord.from_json(r.to_json()) for r in records]
    assert [(r.retry_count, r.error_no, r.costs) for r in second] == [
        (r.retry_count, r.error_no, r.costs) for r in records
    ]
