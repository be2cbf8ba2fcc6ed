"""Tests for the persistent schedule store and its consumer paths.

Covers the storage layer (round-trip, legacy ingest, best-wins, compaction,
file-locked concurrent sessions), the instant-lookup path through
:class:`repro.Tuner` (one task, and several tasks sharing one budget), and
the cross-session warm-start of :class:`repro.SketchPolicy`.
"""

import json
import math
import threading

import pytest

from repro import (
    RecordToFile,
    ScheduleStore,
    SearchTask,
    StoreWriter,
    Tuner,
    TuningOptions,
    apply_history_best,
    intel_cpu,
    load_records,
    save_records,
    split_workload_key,
)
from repro.hardware import MeasureInput, arm_cpu
from repro.records import RecordLogWarning, TuningRecord, best_record
from repro.search import generate_sketches, sample_initial_population
from repro.search.sketch_policy import SketchPolicy

from .conftest import make_matmul_dag, make_matmul_relu_dag

SMALL = TuningOptions(num_measure_trials=16, num_measures_per_round=8, verbose=0)


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(32, 32, 32), intel_cpu(), desc="mmrelu32")


@pytest.fixture
def measured(task, rng, measurer):
    sketches = generate_sketches(task)
    states = sample_initial_population(task, sketches, 6, rng)
    inputs = [MeasureInput(task, s) for s in states]
    results = measurer.measure(inputs)
    return inputs, results


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------


def test_workload_key_splits_into_fingerprint_and_target(task):
    fingerprint, target = split_workload_key(task.workload_key)
    assert fingerprint == task.workload_fingerprint
    assert target == task.target_name == task.hardware_params.name
    assert task.workload_key == f"{fingerprint}@{target}"
    # target-free keys (legacy logs) split into an empty target half
    assert split_workload_key(fingerprint) == (fingerprint, "")


def test_fingerprint_is_target_free_and_key_is_not(task):
    same_dag_other_hw = SearchTask(make_matmul_relu_dag(32, 32, 32), arm_cpu())
    assert same_dag_other_hw.workload_fingerprint == task.workload_fingerprint
    assert same_dag_other_hw.workload_key != task.workload_key


def test_put_and_lookup_in_memory(task, measured):
    inputs, results = measured
    store = ScheduleStore()
    for inp, res in zip(inputs, results):
        store.put(inp, res)
    entry = store.lookup(task)
    assert entry is not None
    best = min(r.min_cost for r in results if r.valid)
    assert entry.best_cost == pytest.approx(best)
    assert task in store
    assert (task.workload_fingerprint, task.target_name) in store
    assert len(store) == 1


def test_best_wins_only_strict_improvements_are_appended(tmp_path, task, measured):
    inputs, results = measured
    store = ScheduleStore(tmp_path / "store.jsonl")
    ordered = sorted(
        (p for p in zip(inputs, results) if p[1].valid),
        key=lambda p: p[1].min_cost,
    )
    # offer worst-to-best: every offer improves, so every offer appends
    for inp, res in reversed(ordered):
        assert store.put(inp, res)
    assert store.segment_lines == len(ordered)
    # offering the same measurements again changes nothing (ties keep the
    # incumbent; only strictly better costs supersede)
    for inp, res in ordered:
        assert not store.put(inp, res)
    assert store.segment_lines == len(ordered)
    assert len(store) == 1


def test_reopen_rebuilds_identical_index(tmp_path, task, measured):
    inputs, results = measured
    path = tmp_path / "store.jsonl"
    store = ScheduleStore(path)
    for inp, res in zip(inputs, results):
        store.put(inp, res)
    reopened = ScheduleStore(path)
    assert reopened.keys() == store.keys()
    before = store.lookup(task)
    after = reopened.lookup(task)
    assert after.record.to_json() == before.record.to_json()
    assert after.structure == before.structure == task.structure_key
    assert str(after.to_state(task)) == str(before.to_state(task))


def test_ingest_legacy_log_is_lossless(tmp_path, task, measured):
    inputs, results = measured
    log = tmp_path / "tuning.json"
    save_records(log, inputs, results)

    store = ScheduleStore(tmp_path / "store.jsonl")
    absorbed = store.ingest(log, task=task)
    assert absorbed >= 1

    # the kept record is the log's own best line, bit for bit
    reference = best_record(log, task.workload_key)
    entry = store.lookup(task)
    assert entry.record.to_json() == reference.to_json()
    # and the replayed state matches the classic deployment path
    replayed = apply_history_best(task, load_records(log))
    assert str(entry.to_state(task)) == str(replayed)
    # ingesting the same log again is a no-op (nothing strictly better)
    assert store.ingest(log) == 0


def test_ingest_without_task_upgrades_structure_on_register(tmp_path, task, measured):
    inputs, results = measured
    log = tmp_path / "tuning.json"
    save_records(log, inputs, results)
    store = ScheduleStore(tmp_path / "store.jsonl")
    store.ingest(log)  # no task: structure class unknown
    assert store.lookup(task).structure is None
    assert store.similar_entries(SearchTask(make_matmul_relu_dag(64, 64, 64), intel_cpu())) == []
    # a live session registering the workload teaches the store its shape
    # class, and the legacy entry joins the similarity index
    store.register_task(task)
    assert store.lookup(task).structure == task.structure_key
    similar = store.similar_entries(SearchTask(make_matmul_relu_dag(64, 64, 64), intel_cpu()))
    assert [e.key for e in similar] == [store.lookup(task).key]


def test_invalid_records_are_rejected(task):
    store = ScheduleStore()
    record = TuningRecord(
        workload_key=task.workload_key,
        target=task.target_name,
        steps=[],
        costs=[],
        error="build exploded",
    )
    assert not store.put_record(record)
    assert len(store) == 0


def test_malformed_segment_lines_warn_and_are_skipped(tmp_path, task, measured):
    inputs, results = measured
    path = tmp_path / "store.jsonl"
    store = ScheduleStore(path)
    for inp, res in zip(inputs, results):
        store.put(inp, res)
    with open(path, "a") as f:
        f.write("not json at all\n")
    with pytest.warns(RecordLogWarning, match="malformed"):
        reopened = ScheduleStore(path)
    assert reopened.keys() == store.keys()


def test_compact_preserves_bests_bit_for_bit(tmp_path, task, measured):
    inputs, results = measured
    other = SearchTask(make_matmul_dag(32, 32, 32), intel_cpu())
    path = tmp_path / "store.jsonl"
    store = ScheduleStore(path)
    for inp, res in zip(inputs, results):
        store.put(inp, res)
        # a second key so compaction handles a multi-entry index
        store.put(MeasureInput(other, inp.state), res)
    assert store.segment_lines > len(store)

    before_lines = {e.key: e.to_json() for e in store.entries()}
    superseded = store.segment_lines - len(store)
    dropped = store.compact()
    assert dropped == superseded
    assert store.segment_lines == len(store)

    # on-disk: exactly one line per key, and each is the pre-compaction
    # best entry byte for byte
    with open(path) as f:
        lines = [line.strip() for line in f if line.strip()]
    assert len(lines) == len(before_lines)
    for line in lines:
        data = json.loads(line)
        key = (data["fingerprint"], data["target"])
        assert line == before_lines[key]

    # a fresh reader of the compacted file sees the identical index
    reopened = ScheduleStore(path)
    assert {e.key: e.to_json() for e in reopened.entries()} == before_lines
    # compacting a compacted store drops nothing
    assert store.compact() == 0


def test_concurrent_sessions_interleave_under_file_lock(tmp_path, task, measured):
    """Two store objects on the same path (two "sessions") write
    concurrently; the file lock keeps every line whole, and both converge
    to the same best after refresh."""
    inputs, results = measured
    path = tmp_path / "store.jsonl"
    stores = [ScheduleStore(path), ScheduleStore(path)]
    pairs = sorted(
        (p for p in zip(inputs, results) if p[1].valid),
        key=lambda p: p[1].min_cost,
        reverse=True,  # worst first: every put is an improvement
    )
    errors = []

    def writer(store, offset):
        try:
            for inp, res in pairs[offset::2]:
                store.put(inp, res)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(stores[index], index))
        for index in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors

    # no torn/malformed lines: a strict reload parses every line
    fresh = ScheduleStore(path)
    assert fresh.segment_lines >= 1
    best = min(r.min_cost for _, r in pairs)
    assert fresh.lookup(task).best_cost == pytest.approx(best)
    # both sessions observe the merged result after refresh
    for store in stores:
        store.refresh()
        assert store.lookup(task).best_cost == pytest.approx(best)


def test_store_writer_streams_new_bests(task, measured):
    inputs, results = measured
    store = ScheduleStore()
    writer = StoreWriter(store)
    from repro.callbacks import MeasureResultEvent

    for inp, res in zip(inputs, results):
        writer.on_result(
            MeasureResultEvent(task=task, policy=None, input=inp, result=res)
        )
    best = min(r.min_cost for r in results if r.valid)
    assert store.lookup(task).best_cost == pytest.approx(best)


# ---------------------------------------------------------------------------
# Consumer path 1: instant lookup through the Tuner
# ---------------------------------------------------------------------------


def test_instant_lookup_matches_fresh_search_log_replay(tmp_path, task):
    log = tmp_path / "tuning.json"
    store = ScheduleStore(tmp_path / "store.jsonl")
    cold = Tuner(
        task, options=SMALL, store=store, callbacks=[RecordToFile(log)]
    ).tune()
    assert not cold.from_store and cold.num_trials == SMALL.num_measure_trials

    hit = Tuner(task, options=SMALL, store=ScheduleStore(store.path)).tune()
    assert hit.from_store
    assert hit.num_trials == 0
    assert hit.best_cost == cold.best_cost
    # the served state is the same program the classic log replay rebuilds
    replayed = apply_history_best(task, load_records(log))
    assert str(hit.best_state) == str(replayed) == str(cold.best_state)


def test_store_refresh_option_forces_a_retune(task):
    store = ScheduleStore()
    Tuner(task, options=SMALL, store=store).tune()
    options = TuningOptions(
        num_measure_trials=8, num_measures_per_round=8, store_refresh=True
    )
    retuned = Tuner(task, options=options, store=store).tune()
    assert not retuned.from_store
    assert retuned.num_trials == 8


# ---------------------------------------------------------------------------
# Consumer path 2: cross-session warm-start
# ---------------------------------------------------------------------------


def test_warm_start_population_contains_replayed_best(task):
    store = ScheduleStore()
    cold = Tuner(task, options=SMALL, store=store).tune()
    best_fingerprint = store.lookup(task).to_state(task).fingerprint()

    policy = SketchPolicy(task, schedule_store=store, seed=1)
    warm = policy._warm_start_states()
    assert [s.fingerprint() for s in warm] == [best_fingerprint]
    # the stored best is pinned to the front of the first measured batch
    candidates = policy.propose_candidates(8)
    assert candidates[0].fingerprint() == best_fingerprint
    # replaying it reproduces the cold session's best program exactly
    assert str(candidates[0]) == str(cold.best_state)
    # one-shot: the first proposal consumed the warm-start
    assert policy._warm_consumed


def test_warm_start_from_structurally_similar_workload(task):
    store = ScheduleStore()
    Tuner(task, options=SMALL, store=store).tune()
    # double every extent: same DAG structure, sizes the stored splits divide
    resized = SearchTask(make_matmul_relu_dag(64, 64, 64), intel_cpu())
    assert resized.structure_key == task.structure_key
    assert resized.workload_fingerprint != task.workload_fingerprint

    policy = SketchPolicy(resized, schedule_store=store, seed=1)
    warm = policy._warm_start_states()
    assert len(warm) == 1
    stored_steps = store.lookup(task).record.steps
    assert warm[0].serialize_steps() == stored_steps


def test_warm_start_skips_inapplicable_foreign_sizes(task):
    store = ScheduleStore()
    Tuner(task, options=SMALL, store=store).tune()
    # a different structure class: no warm-start seeds at all
    unrelated = SearchTask(make_matmul_dag(32, 32, 32), intel_cpu())
    assert unrelated.structure_key != task.structure_key
    policy = SketchPolicy(unrelated, schedule_store=store, seed=1)
    assert policy._warm_start_states() == []
    # proposal still works from the random-sampling fallback
    assert policy.propose_candidates(4)


# ---------------------------------------------------------------------------
# Several tasks in one session: hits served, misses share the budget
# ---------------------------------------------------------------------------


def test_task_list_misses_search_then_hits_serve_instantly(tmp_path):
    hw = intel_cpu()
    t_relu = SearchTask(make_matmul_relu_dag(32, 32, 32), hw, desc="relu")
    t_mm = SearchTask(make_matmul_dag(32, 32, 32), hw, desc="mm")
    path = tmp_path / "svc.jsonl"

    first = Tuner([t_relu, t_mm], options=SMALL, store=ScheduleStore(path)).tune()
    assert first.tasks == [t_relu, t_mm]
    assert not first.from_store
    assert first.num_trials == SMALL.num_measure_trials
    assert sum(first.scheduler.task_trials) == SMALL.num_measure_trials
    assert all(state is not None for state in first.best_states)

    # a second session over the same segment file serves both instantly
    second = Tuner([t_relu, t_mm], options=SMALL, store=ScheduleStore(path)).tune()
    assert second.from_store and second.num_trials == 0
    assert second.best_costs == first.best_costs
    assert [str(s) for s in second.best_states] == [str(s) for s in first.best_states]
    # no scheduler ran: nothing missed
    assert second.scheduler is None


def test_task_list_tunes_only_the_misses(tmp_path):
    hw = intel_cpu()
    t_relu = SearchTask(make_matmul_relu_dag(32, 32, 32), hw, desc="relu")
    t_mm = SearchTask(make_matmul_dag(32, 32, 32), hw, desc="mm")
    store = ScheduleStore(tmp_path / "svc.jsonl")
    cached = Tuner(t_relu, options=SMALL, store=store).tune()

    mixed = Tuner([t_relu, t_mm], options=SMALL, store=store).tune()
    assert not mixed.from_store
    assert mixed.scheduler.tasks == [t_mm]  # the hit never reached the scheduler
    assert mixed.num_trials == SMALL.num_measure_trials
    assert mixed.best_costs[0] == cached.best_cost
    assert str(mixed.best_states[0]) == str(cached.best_state)
    assert math.isfinite(mixed.best_costs[1])


def test_every_policy_of_a_session_is_bound_to_the_store(tmp_path):
    from repro import LogicalOp

    hw = intel_cpu()
    store = ScheduleStore(tmp_path / "svc.jsonl")
    conv = LogicalOp("conv2d", dict(
        batch=1, in_channels=4, height=8, width=8,
        out_channels=8, kernel=3, stride=1, padding=1,
    ), hardware=hw)
    options = TuningOptions(num_measure_trials=8, num_measures_per_round=4)
    for workload in (SearchTask(make_matmul_dag(16, 16, 16), hw), [conv], ["dcgan"]):
        result = Tuner(workload, options=options, store=store, max_tasks_per_network=2).tune()
        assert all(p.schedule_store is store for p in result.scheduler.policies)
