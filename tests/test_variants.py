"""Tests for the algorithm-variant subsystem: registry, pruner, variant
groups in Tuner sessions, and store integration."""

import math

import numpy as np
import pytest

from repro import (
    LogicalOp,
    ScheduleStore,
    SearchTask,
    Tuner,
    TuningOptions,
    VariantArbiter,
    VariantPruner,
    VariantResult,
    expand_variants,
    intel_cpu,
    logical_key_of,
    register_variant,
    registered_variant_ops,
    resolve_variant,
    variants_for,
)
from repro.codegen import execute_dag
from repro.cost_model import CostModelService
from repro.search import SketchPolicy
from repro.variants.registry import _VARIANT_REGISTRY
from repro.workloads import matmul

#: a conv2d instance small enough that tuning sessions stay cheap
PARAMS = dict(
    batch=1, in_channels=4, height=8, width=8,
    out_channels=8, kernel=3, stride=1, padding=1,
)

SMALL = TuningOptions(num_measure_trials=24, num_measures_per_round=8)


@pytest.fixture
def group():
    return expand_variants("conv2d", PARAMS, hardware=intel_cpu())


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_conv2d_variants_are_registered():
    assert "conv2d" in registered_variant_ops()
    names = [spec.name for spec in variants_for("conv2d")]
    assert names == ["direct", "im2col", "tiled-gemm"]


def test_unknown_op_and_variant_raise_key_error_listing_known():
    with pytest.raises(KeyError, match="conv2d"):
        variants_for("fft")
    with pytest.raises(KeyError) as excinfo:
        resolve_variant("conv2d", "winograd")
    message = str(excinfo.value)
    for name in ("winograd", "direct", "im2col", "tiled-gemm"):
        assert name in message


def test_resolve_variant_builds_the_registered_dag():
    spec = resolve_variant("conv2d", "im2col")
    dag = spec.build(PARAMS)
    assert dag.compute_ops[-1].name == "im2col_gemm"


def test_logical_key_is_deterministic_and_order_free():
    a = logical_key_of("conv2d", PARAMS)
    b = logical_key_of("conv2d", dict(reversed(list(PARAMS.items()))))
    assert a == b
    assert a.startswith("conv2d(")
    assert "batch=1" in a


def test_applicability_predicate_filters_expansion():
    @register_variant("_test_op", "always")
    def _always(n):
        return matmul(n, n, n)

    @register_variant("_test_op", "never", applicable=lambda p: False)
    def _never(n):
        return matmul(n, n, n)

    try:
        tasks = expand_variants("_test_op", {"n": 8}, hardware=intel_cpu())
        assert [t.variant for t in tasks] == ["always"]
    finally:
        del _VARIANT_REGISTRY["_test_op"]


def test_expansion_with_no_accepting_variant_raises():
    @register_variant("_test_op2", "never", applicable=lambda p: False)
    def _never(n):
        return matmul(n, n, n)

    try:
        with pytest.raises(ValueError, match="accepts"):
            expand_variants("_test_op2", {"n": 8})
    finally:
        del _VARIANT_REGISTRY["_test_op2"]


def test_expanded_group_shares_logical_key_and_carries_metadata(group):
    key = logical_key_of("conv2d", PARAMS)
    assert [t.variant for t in group] == ["direct", "im2col", "tiled-gemm"]
    for task in group:
        assert task.logical_op == "conv2d"
        assert task.logical_key == key
        assert task.variant_params == PARAMS
        assert task.variant_params is not PARAMS  # defensive copy
        assert task.desc == f"{key} [{task.variant}]"


def test_structure_keys_are_distinct_across_variants(group):
    """Each variant explores its own schedule space: identical structure
    keys would let the store warm-start one variant from another's
    schedules, which cannot apply."""
    keys = {task.structure_key for task in group}
    assert len(keys) == len(group) == 3


def test_variants_are_numerically_identical():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((1, 4, 8, 8))
    weight = rng.standard_normal((8, 4, 3, 3))
    outputs = {}
    for spec in variants_for("conv2d"):
        dag = spec.build(PARAMS)
        out = execute_dag(dag, {"data": data, "weight": weight})
        outputs[spec.name] = out[dag.compute_ops[-1].name]
    np.testing.assert_allclose(outputs["im2col"], outputs["direct"], rtol=1e-10)
    np.testing.assert_allclose(outputs["tiled-gemm"], outputs["direct"], rtol=1e-10)


def test_logical_op_expands_with_instance_hardware():
    op = LogicalOp("conv2d", PARAMS, hardware=intel_cpu())
    tasks = op.expand()
    assert op.key == logical_key_of("conv2d", PARAMS)
    assert all(t.hardware_params.name == intel_cpu().name for t in tasks)
    assert "conv2d" in repr(op)


# ---------------------------------------------------------------------------
# Pruner
# ---------------------------------------------------------------------------


class _FakeScheduler:
    def __init__(self, best_costs, task_trials, exhausted=None):
        self.tasks = list(range(len(best_costs)))
        self.best_costs = list(best_costs)
        self.task_trials = list(task_trials)
        self.exhausted = list(exhausted or [False] * len(best_costs))
        self.total_trials = sum(task_trials)


def test_pruner_validates_knobs():
    with pytest.raises(ValueError):
        VariantPruner(margin=1.0, min_trials=8)
    with pytest.raises(ValueError):
        VariantPruner(margin=1.5, min_trials=0)


def test_pruner_cuts_trailing_variant_and_records_when():
    sched = _FakeScheduler([1.0, 2.0, 1.1], [16, 16, 16])
    pruner = VariantPruner(margin=1.5, min_trials=16)
    pruner.on_scheduler_round(sched, None)
    assert sched.exhausted == [False, True, False]
    assert pruner.pruned_at == {1: 48}


def test_pruner_spares_variants_below_min_trials():
    # The trailer has too few samples to be condemned...
    sched = _FakeScheduler([1.0, 2.0], [16, 8])
    VariantPruner(margin=1.5, min_trials=16).on_scheduler_round(sched, None)
    assert sched.exhausted == [False, False]
    # ...and an under-sampled leader cannot condemn others either.
    sched = _FakeScheduler([1.0, 2.0], [8, 16])
    VariantPruner(margin=1.5, min_trials=16).on_scheduler_round(sched, None)
    assert sched.exhausted == [False, False]


def test_pruner_never_prunes_the_leader_or_within_margin():
    sched = _FakeScheduler([1.0, 1.4, 10.0], [16, 16, 16], exhausted=[False, False, True])
    pruner = VariantPruner(margin=1.5, min_trials=16)
    pruner.on_scheduler_round(sched, None)
    # leader kept, 1.4x within margin kept, already-exhausted untouched
    assert sched.exhausted == [False, False, True]
    assert pruner.pruned_at == {}


def test_pruner_group_indices_scope_the_comparison():
    # Task 0 (another group) is far cheaper but must not condemn group {1, 2}.
    sched = _FakeScheduler([0.1, 1.0, 1.2], [16, 16, 16])
    pruner = VariantPruner(margin=1.5, min_trials=16, group_indices=[1, 2])
    pruner.on_scheduler_round(sched, None)
    assert sched.exhausted == [False, False, False]


# ---------------------------------------------------------------------------
# Variant groups in Tuner sessions
# ---------------------------------------------------------------------------


def test_tuner_logical_op_session():
    result = Tuner(LogicalOp("conv2d", PARAMS, hardware=intel_cpu()), options=SMALL).tune()
    vr = result.variant_result
    assert vr is not None and not vr.from_store
    assert result.best_cost == vr.best_cost
    assert result.best_state is vr.best_state
    assert result.num_trials == 24
    assert [t for t, _ in result.history] == [8, 16, 24]


def test_group_session_reports_trajectories():
    result = Tuner(LogicalOp("conv2d", PARAMS, hardware=intel_cpu()), options=SMALL).tune()
    vr = result.variant_result
    assert isinstance(vr, VariantResult)
    assert result.variant_results == [vr]
    assert vr.logical_key == logical_key_of("conv2d", PARAMS)
    assert vr.target == intel_cpu().name
    assert vr.total_trials == result.num_trials == 24
    assert vr.winner in {"direct", "im2col", "tiled-gemm"}
    assert math.isfinite(vr.best_cost)
    assert vr.best_state is not None
    assert vr.winner_task is vr.trajectory(vr.winner).task
    assert sum(t.num_trials for t in vr.trajectories) == 24
    best = min(
        (t for t in vr.trajectories if math.isfinite(t.best_cost)),
        key=lambda t: t.best_cost,
    )
    assert best.variant == vr.winner
    assert result.best_costs == [t.best_cost for t in vr.trajectories]
    with pytest.raises(KeyError, match="im2col"):
        vr.trajectory("winograd")


def test_group_session_is_deterministic_under_fixed_seed():
    op = LogicalOp("conv2d", PARAMS, hardware=intel_cpu())
    first = Tuner(op, options=SMALL).tune().variant_result
    second = Tuner(op, options=SMALL).tune().variant_result
    assert first.winner == second.winner
    assert first.best_cost == second.best_cost
    assert [t.num_trials for t in first.trajectories] == [
        t.num_trials for t in second.trajectories
    ]


def test_group_session_prunes_trailing_variants_under_tight_margin():
    options = TuningOptions(
        num_measure_trials=48,
        num_measures_per_round=8,
        variant_prune_margin=1.01,
        variant_min_trials=8,
    )
    vr = Tuner(LogicalOp("conv2d", PARAMS, hardware=intel_cpu()), options=options).tune().variant_result
    assert vr.pruned  # a 1% margin always cuts somebody on 3 variants
    for name in vr.pruned:
        traj = vr.trajectory(name)
        assert traj.pruned and traj.pruned_at <= vr.total_trials
    assert vr.winner not in vr.pruned


def test_group_and_single_task_share_one_budget():
    single = SearchTask(matmul(16, 16, 16), intel_cpu(), desc="mm16")
    op = LogicalOp("conv2d", PARAMS, hardware=intel_cpu())
    options = TuningOptions(num_measure_trials=32, num_measures_per_round=8)
    result = Tuner([single, op], options=options).tune()
    assert result.tasks[0] is single
    assert [t.variant for t in result.tasks[1:]] == ["direct", "im2col", "tiled-gemm"]
    vr = result.variant_result
    assert math.isfinite(result.best_costs[0]) and math.isfinite(vr.best_cost)
    # the first item is the plain task: the conveniences report it
    assert result.best_cost == result.best_costs[0]
    assert result.num_trials == result.scheduler.task_trials[0] + vr.total_trials == 32


def test_two_groups_get_one_result_each():
    ops = [
        LogicalOp("conv2d", PARAMS, hardware=intel_cpu()),
        LogicalOp("conv2d", dict(PARAMS, out_channels=4), hardware=intel_cpu()),
    ]
    result = Tuner(ops, options=SMALL).tune()
    assert [vr.logical_key for vr in result.variant_results] == [op.key for op in ops]
    assert result.variant_result is result.variant_results[0]
    assert sum(vr.total_trials for vr in result.variant_results) == result.num_trials


def test_variant_arbiter_is_a_one_op_tuner_session():
    op = LogicalOp("conv2d", PARAMS, hardware=intel_cpu())
    direct = VariantArbiter(op, options=SMALL).tune()
    via_tuner = Tuner(op, options=SMALL).tune().variant_result
    assert direct.winner == via_tuner.winner
    assert direct.best_cost == via_tuner.best_cost
    assert [t.history for t in direct.trajectories] == [
        t.history for t in via_tuner.trajectories
    ]


def test_direct_variant_arbiter_honours_the_cost_model_options(tmp_path):
    """A direct VariantArbiter call runs the session's own cost-model
    service: the options' path is saved, and its retrain window and
    interval reach every variant model."""
    path = tmp_path / "model.pkl"
    options = TuningOptions(
        num_measure_trials=16, num_measures_per_round=8,
        cost_model_path=str(path), cost_model_window=64,
        cost_model_retrain_interval=2,
    )
    op = LogicalOp("conv2d", PARAMS, hardware=intel_cpu())
    VariantArbiter(op, options=options).tune()
    assert path.exists()
    models = CostModelService(path=path)._models
    assert models  # one variant-scoped model per variant that measured
    assert all(model.retrain_window == 64 for model in models.values())
    assert all(model.retrain_interval == 2 for model in models.values())


def test_logical_op_rebuilds_group_from_one_expanded_task(group):
    task = group[1]
    op = LogicalOp(task.logical_op, task.variant_params, hardware=task.hardware_params)
    result = Tuner(op, options=SMALL).tune()
    assert {t.variant for t in result.variant_result.trajectories} == {
        "direct", "im2col", "tiled-gemm",
    }


def test_tuner_rejects_bad_workloads(group):
    op = LogicalOp("conv2d", PARAMS, hardware=intel_cpu())
    with pytest.raises(TypeError, match="do not mix"):
        Tuner([group[0], "dcgan"])
    with pytest.raises(TypeError, match="LogicalOp"):
        Tuner([op, 3])
    with pytest.raises(ValueError, match="at least one"):
        Tuner([])
    for workload in (op, [group[0], group[1]]):
        with pytest.raises(TypeError, match="SearchPolicy instance"):
            Tuner(workload, policy=SketchPolicy(group[0]))
    with pytest.raises(TypeError, match="LogicalOp"):
        VariantArbiter(group)


def test_tuning_options_variant_knob_validation():
    with pytest.raises(ValueError):
        TuningOptions(variant_prune_margin=1.0)
    with pytest.raises(ValueError):
        TuningOptions(variant_min_trials=0)


# ---------------------------------------------------------------------------
# Store integration
# ---------------------------------------------------------------------------


def test_store_round_trip_serves_variant_group(tmp_path):
    path = tmp_path / "store.jsonl"
    op = LogicalOp("conv2d", PARAMS, hardware=intel_cpu())
    first = Tuner(op, options=SMALL, store=ScheduleStore(path)).tune()
    assert not first.from_store

    reopened = ScheduleStore(path)
    entry = reopened.lookup_logical(op.key, intel_cpu().name)
    assert entry is not None
    assert entry.logical_key == op.key
    assert entry.variant == first.variant_result.winner
    assert entry.best_cost == pytest.approx(first.best_cost)

    second = Tuner(op, options=SMALL, store=reopened).tune()
    assert second.from_store and second.variant_result.from_store
    assert second.num_trials == 0
    assert second.variant_result.winner == first.variant_result.winner
    assert second.best_cost == pytest.approx(first.best_cost)


def test_group_whose_stored_winner_is_gone_is_rearbitrated(tmp_path):
    """A logical entry naming a variant the registry no longer expands is a
    miss: the group is tuned again instead of served."""
    path = tmp_path / "store.jsonl"
    op = LogicalOp("conv2d", PARAMS, hardware=intel_cpu())
    store = ScheduleStore(path)
    Tuner(op, options=SMALL, store=store).tune()
    entry = store.lookup_logical(op.key, intel_cpu().name)
    stale = ScheduleStore()
    stale.put_record(entry.record, logical_key=op.key, variant="winograd")
    assert stale.lookup_logical(op.key, intel_cpu().name).variant == "winograd"

    again = Tuner(op, options=SMALL, store=stale).tune()
    assert not again.from_store and not again.variant_result.from_store
    assert again.num_trials == 24


def test_store_refresh_forces_group_rearbitration(tmp_path):
    path = tmp_path / "store.jsonl"
    op = LogicalOp("conv2d", PARAMS, hardware=intel_cpu())
    Tuner(op, options=SMALL, store=ScheduleStore(path)).tune()
    options = TuningOptions(
        num_measure_trials=24, num_measures_per_round=8, store_refresh=True
    )
    again = Tuner(op, options=options, store=ScheduleStore(path)).tune()
    assert not again.from_store
    assert again.num_trials == 24


def test_logical_entries_survive_json_round_trip(tmp_path, group):
    path = tmp_path / "store.jsonl"
    store = ScheduleStore(path)
    Tuner(LogicalOp("conv2d", PARAMS, hardware=intel_cpu()), options=SMALL, store=store).tune()
    import json

    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert any(line.get("logical_key") for line in lines)
    # legacy consumers: entries without the metadata still load
    reopened = ScheduleStore(path)
    assert reopened.lookup_logical(group[0].logical_key, intel_cpu().name) is not None


def test_group_in_a_list_is_arbitrated_then_served_from_store(tmp_path):
    path = tmp_path / "store.jsonl"
    op = LogicalOp("conv2d", PARAMS, hardware=intel_cpu())

    first = Tuner([op], options=SMALL, store=ScheduleStore(path)).tune()
    vr = first.variant_result
    assert not first.from_store and not vr.from_store
    assert vr.winner in {"direct", "im2col", "tiled-gemm"}
    assert math.isfinite(vr.best_cost) and vr.best_state is not None
    assert vr.total_trials == first.num_trials == 24

    hit = Tuner([op], options=SMALL, store=ScheduleStore(path)).tune()
    served = hit.variant_result
    assert hit.from_store and served.from_store
    assert hit.num_trials == 0 and served.total_trials == 0
    assert hit.scheduler is None and served.scheduler is None
    assert served.winner == vr.winner
    assert served.best_cost == pytest.approx(vr.best_cost)
    assert served.trajectory(served.winner).best_state is served.best_state
    # the losers were not tuned in this session
    assert all(
        t.best_state is None for t in served.trajectories if t.variant != served.winner
    )


def test_group_hit_and_task_miss_share_one_session(tmp_path):
    path = tmp_path / "store.jsonl"
    op = LogicalOp("conv2d", PARAMS, hardware=intel_cpu())
    arbitrated = Tuner(op, options=SMALL, store=ScheduleStore(path)).tune()

    single = SearchTask(matmul(16, 16, 16), intel_cpu(), desc="mm16")
    mixed = Tuner([op, single], options=SMALL, store=ScheduleStore(path)).tune()
    assert not mixed.from_store
    assert mixed.scheduler.tasks == [single]
    assert mixed.variant_result.from_store
    assert mixed.variant_result.winner == arbitrated.variant_result.winner
    # the first item is the group: the conveniences report its winner
    assert mixed.best_cost == mixed.variant_result.best_cost
    assert mixed.num_trials == 24 and math.isfinite(mixed.best_costs[-1])
