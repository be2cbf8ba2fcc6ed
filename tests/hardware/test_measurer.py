"""Tests for the default measurement pipeline: ``MeasurePipeline(hw, ...)``
with its serial local builder and no-fault local runner."""

import numpy as np
import pytest

from repro.hardware import (
    MeasureErrorNo,
    MeasureInput,
    MeasurePipeline,
    MeasureResult,
    intel_cpu,
)
from repro.task import SearchTask

from ..conftest import make_matmul_relu_dag


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(), intel_cpu(), desc="matmul+relu")


def test_measure_returns_costs(task):
    measurer = MeasurePipeline(intel_cpu(), seed=0)
    result = measurer.measure_one(MeasureInput(task, task.compute_dag.init_state()))
    assert result.valid
    assert len(result.costs) == measurer.runner.repeats
    assert result.min_cost <= result.mean_cost


def test_measure_counts_trials(task):
    measurer = MeasurePipeline(intel_cpu(), seed=0)
    inputs = [MeasureInput(task, task.compute_dag.init_state()) for _ in range(5)]
    measurer.measure(inputs)
    assert measurer.measure_count == 5


def test_noise_is_deterministic_per_program(task):
    m1 = MeasurePipeline(intel_cpu(), seed=7)
    m2 = MeasurePipeline(intel_cpu(), seed=7)
    state = task.compute_dag.init_state()
    r1 = m1.measure_one(MeasureInput(task, state))
    r2 = m2.measure_one(MeasureInput(task, state))
    assert r1.costs == r2.costs


def test_noise_changes_with_seed(task):
    state = task.compute_dag.init_state()
    r1 = MeasurePipeline(intel_cpu(), seed=1).measure_one(MeasureInput(task, state))
    r2 = MeasurePipeline(intel_cpu(), seed=2).measure_one(MeasureInput(task, state))
    assert r1.costs != r2.costs


def test_zero_noise_gives_identical_repeats(task):
    measurer = MeasurePipeline(intel_cpu(), noise=0.0)
    result = measurer.measure_one(MeasureInput(task, task.compute_dag.init_state()))
    assert len(set(result.costs)) == 1


def test_incomplete_program_is_a_measure_error(task):
    state = task.compute_dag.init_state()
    state.split("C", 0, [None])
    measurer = MeasurePipeline(intel_cpu())
    result = measurer.measure_one(MeasureInput(task, state))
    assert not result.valid
    assert result.error is not None
    assert result.min_cost == float("inf")
    assert result.mean_cost == float("inf")


def test_best_state_tracked_per_workload(task):
    measurer = MeasurePipeline(intel_cpu(), seed=0)
    naive = task.compute_dag.init_state()
    tiled = task.compute_dag.init_state()
    tiled.split("C", 0, [16])
    tiled.split("C", 2, [16])
    tiled.reorder("C", [0, 2, 1, 3, 4])
    tiled.fuse("C", [0, 1])
    tiled.parallel("C", 0)
    tiled.vectorize("C", 3)
    measurer.measure([MeasureInput(task, naive), MeasureInput(task, tiled)])
    best = measurer.best_state[task.workload_key]
    assert best is tiled
    assert measurer.best_cost[task.workload_key] < float("inf")


def test_pipeline_exposes_runner_surface(task):
    """The pipeline exposes its runner's machine beside the per-kind error
    counters; the noise model stays on the runner."""
    measurer = MeasurePipeline(intel_cpu(), seed=0)
    assert measurer.hardware.name == "intel-20c"
    assert measurer.runner.repeats == 3
    bad = task.compute_dag.init_state()
    bad.split("C", 0, [None])
    result = measurer.measure_one(MeasureInput(task, bad))
    assert result.error_kind == MeasureErrorNo.INSTANTIATION_ERROR
    assert measurer.error_counts == {MeasureErrorNo.INSTANTIATION_ERROR: 1}
