"""The cost-model service (PR 9): per-target model sharing, save/load with
bit-identical predictions, loud load failures, wiring through
Tuner/TaskScheduler, and the cross-session warm-start panel."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.cost_model import (
    CostModelLoadError,
    CostModelService,
    LearnedCostModel,
    ServiceCostModel,
)
from repro.hardware import intel_cpu
from repro.hardware.platform import arm_cpu
from repro.scheduler.task_scheduler import TaskScheduler
from repro.task import SearchTask, TuningOptions
from repro.tuner import Tuner
from repro.variants import LogicalOp
from repro.workloads import matmul_relu

from ..conftest import make_matmul_relu_dag
from .test_model import _sample_and_measure


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(256, 256, 256), intel_cpu(), desc="matmul256")


def _trained_service(task, count=24, **service_kwargs):
    service = CostModelService(n_rounds=5, **service_kwargs)
    inputs, results = _sample_and_measure(task, count)
    service.ingest(task, inputs, results)
    return service


def _states(task, count=6, seed=3):
    inputs, _ = _sample_and_measure(task, count, seed=seed)
    return [inp.state for inp in inputs]


# ----------------------------------------------------------------------
# Per-target sharing
# ----------------------------------------------------------------------
def test_same_target_tasks_share_one_model(task):
    service = CostModelService()
    other = SearchTask(make_matmul_relu_dag(128, 128, 128), intel_cpu(), desc="matmul128")
    assert service.view(task).model is service.view(other).model
    assert service.targets == [task.target_name]


def test_distinct_targets_get_distinct_models(task):
    service = CostModelService()
    arm_task = SearchTask(make_matmul_relu_dag(), arm_cpu(), desc="arm matmul")
    assert service.view(task).model is not service.view(arm_task).model
    assert sorted(service.targets) == sorted([task.target_name, arm_task.target_name])


def test_view_is_bit_identical_to_the_underlying_model(task):
    service = _trained_service(task)
    states = _states(task)
    view = service.view(task)
    assert isinstance(view, ServiceCostModel)
    np.testing.assert_array_equal(
        view.predict(task, states), service.model_for(task).predict(task, states)
    )


def test_scheduler_policies_share_the_service_model(task):
    other = SearchTask(make_matmul_relu_dag(128, 128, 128), intel_cpu(), desc="matmul128")
    service = CostModelService()
    scheduler = TaskScheduler([task, other], cost_model_service=service)
    models = [policy.cost_model.model for policy in scheduler.policies]
    assert models[0] is models[1]
    assert models[0] is service.model_for(task)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def test_save_load_round_trip_is_bit_identical(task, tmp_path):
    path = tmp_path / "cost_model.pkl"
    service = _trained_service(task)
    before = service.predict(task, _states(task))
    service.save(path)

    reloaded = CostModelService(path=path)  # autoloads an existing file
    assert reloaded.loaded_from == path
    np.testing.assert_array_equal(reloaded.predict(task, _states(task)), before)


def test_fresh_path_is_a_cold_start_not_an_error(tmp_path):
    service = CostModelService(path=tmp_path / "never_written.pkl")
    assert service.targets == []
    assert service.loaded_from is None


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(CostModelLoadError, match="no cost-model file"):
        CostModelService().load(tmp_path / "absent.pkl")


def test_truncated_file_raises_instead_of_cold_starting(task, tmp_path):
    path = tmp_path / "cost_model.pkl"
    _trained_service(task).save(path)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(CostModelLoadError, match="truncated or corrupt"):
        CostModelService(path=path)


def test_corrupt_file_raises(tmp_path):
    path = tmp_path / "cost_model.pkl"
    path.write_bytes(b"this is not a pickle")
    with pytest.raises(CostModelLoadError, match="truncated or corrupt"):
        CostModelService().load(path)


def test_foreign_pickle_raises(tmp_path):
    path = tmp_path / "cost_model.pkl"
    path.write_bytes(pickle.dumps({"magic": "something else"}))
    with pytest.raises(CostModelLoadError, match="not a cost-model service file"):
        CostModelService().load(path)


def test_save_needs_a_path_when_none_bound(task):
    with pytest.raises(ValueError, match="needs a path"):
        CostModelService().save()


# ----------------------------------------------------------------------
# Versioning
# ----------------------------------------------------------------------
def test_retrain_bumps_the_model_version_by_one(task):
    service = _trained_service(task)
    before = service.version(task)
    inputs, results = _sample_and_measure(task, 16, seed=5)
    service.ingest(task, inputs, results)
    assert service.version(task) == before + 1


def test_stats_reports_per_target_counters(task, tmp_path):
    path = tmp_path / "cost_model.pkl"
    service = _trained_service(task, path=path)
    stats = service.stats()
    assert stats["path"] == str(path)
    assert stats["ingests"] == 1
    target = stats["targets"][task.target_name]
    assert target["samples"] == target["samples_ingested"] > 0
    assert target["retrains_run"] == 1
    assert target["version"] == 1


# ----------------------------------------------------------------------
# Tuner wiring and conflicts
# ----------------------------------------------------------------------
def _small_task():
    return SearchTask(matmul_relu(64, 64, 64), intel_cpu())


def _small_options(**overrides):
    base = dict(num_measure_trials=32, num_measures_per_round=16, seed=0)
    base.update(overrides)
    return TuningOptions(**base)


def test_tuner_persists_through_cost_model_path(tmp_path):
    path = tmp_path / "cost_model.pkl"
    result = Tuner(
        _small_task(), options=_small_options(cost_model_path=str(path))
    ).tune()
    assert result.num_trials > 0
    assert path.exists()
    reloaded = CostModelService(path=path)
    assert reloaded.model_for(_small_task()).is_trained


def test_tuner_rejects_service_conflicting_with_options_path(tmp_path):
    service = CostModelService(path=tmp_path / "a.pkl")
    with pytest.raises(ValueError, match="pointing at different"):
        Tuner(
            _small_task(),
            cost_model_service=service,
            options=_small_options(cost_model_path=str(tmp_path / "b.pkl")),
        )


@pytest.mark.parametrize("kind", ["single", "variants", "network"])
def test_tuner_rejects_explicit_model_alongside_a_requested_service(tmp_path, kind):
    workload = {
        "single": _small_task(),
        "variants": LogicalOp("conv2d", dict(
            batch=1, in_channels=4, height=8, width=8,
            out_channels=8, kernel=3, stride=1, padding=1,
        ), hardware=intel_cpu()),
        "network": ["mobilenet-v2"],
    }[kind]
    path = tmp_path / "m.pkl"
    tuner = Tuner(
        workload,
        policy_kwargs={"cost_model": LearnedCostModel()},
        options=_small_options(cost_model_path=str(path)),
        max_tasks_per_network=2,
    )
    with pytest.raises(ValueError, match="bypass the service"):
        tuner.tune()
    assert not path.exists()  # raised before any work, nothing saved


def test_tuner_rejects_ready_policy_alongside_a_requested_service(tmp_path):
    from repro.search.sketch_policy import SketchPolicy

    task = _small_task()
    tuner = Tuner(
        task,
        policy=SketchPolicy(task),
        options=_small_options(cost_model_path=str(tmp_path / "m.pkl")),
    )
    with pytest.raises(ValueError, match="ready SearchPolicy"):
        tuner.tune()


def test_tuning_options_validate_cost_model_knobs():
    with pytest.raises(ValueError):
        TuningOptions(cost_model_retrain_interval=0)
    with pytest.raises(ValueError):
        TuningOptions(cost_model_window=1)


# ----------------------------------------------------------------------
# Cross-session warm-start
# ----------------------------------------------------------------------
def _trials_to_reach(history, target):
    for trials, cost in history:
        if cost <= target * (1 + 1e-12):
            return trials
    return float("inf")


@pytest.mark.slow
def test_warm_started_session_reaches_the_cold_best_in_no_more_trials(tmp_path):
    """A session warm-started from a persisted cost model must reach the
    cold session's best in no more trials — the model file carries real
    cross-session knowledge, not dead weight.  Search outcomes are
    seed-dependent (a cold session can get lucky), so the gate holds on the
    median over a seeded panel of paired cold/warm sessions, the same
    discipline as the store warm-start benchmark."""
    deltas = []
    for seed in (0, 1, 2, 3, 4):
        budget = _small_options(
            seed=seed, num_measure_trials=48, num_measures_per_round=8
        )
        cold = Tuner(_small_task(), options=budget).tune()
        cold_trials = _trials_to_reach(cold.history, cold.best_cost)

        path = tmp_path / f"model_{seed}.pkl"
        # Prime the model file with an independent session on the same task.
        Tuner(
            _small_task(),
            options=_small_options(
                seed=seed + 100,
                num_measure_trials=64,
                num_measures_per_round=8,
                cost_model_path=str(path),
            ),
        ).tune()
        warm = Tuner(
            _small_task(), options=replace(budget, cost_model_path=str(path))
        ).tune()
        warm_trials = _trials_to_reach(warm.history, cold.best_cost)
        deltas.append(warm_trials - cold_trials)
    assert np.median(deltas) <= 0, (
        f"warm-started sessions needed more trials than cold ones: {deltas}"
    )
