"""Tests for SearchTask, TuningOptions and the small utility helpers."""

import numpy as np
import pytest

from repro.hardware import arm_cpu, intel_cpu
from repro.task import SearchTask, TuningOptions
from repro.utils import Timer, seeded_rng

from .conftest import make_matmul_dag, make_matmul_relu_dag


def test_task_defaults_to_intel_cpu(matmul_dag):
    task = SearchTask(matmul_dag)
    assert task.hardware_params.name == intel_cpu().name


def test_task_workload_key_includes_target(matmul_dag):
    cpu_task = SearchTask(matmul_dag, intel_cpu())
    arm_task = SearchTask(matmul_dag, arm_cpu())
    assert cpu_task.workload_key != arm_task.workload_key
    assert cpu_task.workload_key.endswith(intel_cpu().name)


def test_same_computation_same_key():
    a = SearchTask(make_matmul_dag(32, 32, 32), intel_cpu())
    b = SearchTask(make_matmul_dag(32, 32, 32), intel_cpu())
    assert a.workload_key == b.workload_key


def test_task_flop_count_delegates(matmul_relu_dag):
    task = SearchTask(matmul_relu_dag, intel_cpu())
    assert task.flop_count() == matmul_relu_dag.flop_count()


def test_task_desc_and_repr(matmul_dag):
    task = SearchTask(matmul_dag, intel_cpu(), desc="my matmul")
    assert task.desc == "my matmul"
    assert "my matmul" in repr(task)


def test_task_generates_desc_when_missing(matmul_dag):
    task = SearchTask(matmul_dag, intel_cpu())
    assert task.desc


def test_tuning_options_defaults():
    options = TuningOptions()
    assert options.num_measure_trials >= options.num_measures_per_round
    assert options.early_stopping is None


def test_seeded_rng_is_deterministic_per_key():
    a = seeded_rng("task", 1).random(4)
    b = seeded_rng("task", 1).random(4)
    c = seeded_rng("task", 2).random(4)
    np.testing.assert_allclose(a, b)
    assert not np.allclose(a, c)


def test_timer_measures_elapsed_time():
    with Timer() as timer:
        total = sum(range(10000))
    assert total > 0
    assert timer.elapsed >= 0.0


def test_package_exports():
    import repro

    assert repro.__version__
    for name in ("Tuner", "SketchPolicy", "TaskScheduler", "SearchTask", "ComputeDAG"):
        assert hasattr(repro, name)
    for removed in ("auto_schedule", "auto_schedule_networks", "ProgramMeasurer"):
        assert not hasattr(repro, removed)
