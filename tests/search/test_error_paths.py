"""Error paths through the search stack: build errors, run timeouts and
transient faults must not corrupt the search, the cost model, or the
scheduler (satellite coverage for the builder/runner pipeline)."""

import math

import numpy as np
import pytest

from repro.cost_model import LearnedCostModel
from repro.hardware import (
    MeasureErrorNo,
    MeasureInput,
    MeasurePipeline,
    RandomFaults,
    intel_cpu,
)
from repro.scheduler import TaskScheduler
from repro.search import EvolutionarySearch, SketchPolicy, generate_sketches, sample_initial_population
from repro.task import SearchTask

from ..conftest import make_matmul_dag, make_matmul_relu_dag, measure_one_round


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(), intel_cpu(), desc="mm+relu")


def _faulty_pipeline(hardware=None, **fault_kwargs):
    return MeasurePipeline(
        hardware or intel_cpu(), fault_model=RandomFaults(**fault_kwargs), seed=0
    )


# ---------------------------------------------------------------------------
# Cost model: error labels never enter the training set
# ---------------------------------------------------------------------------


def test_cost_model_ignores_error_results(task, rng):
    states = sample_initial_population(task, generate_sketches(task), 6, rng)
    inputs = [MeasureInput(task, s) for s in states]
    results = _faulty_pipeline(build_error_prob=1.0, seed=1).measure(inputs)
    assert all(not r.valid for r in results)
    model = LearnedCostModel(seed=0)
    model.update(inputs, results)
    assert model.num_samples == 0
    assert not model.is_trained


def test_cost_model_trains_only_on_valid_subset(task, rng):
    states = sample_initial_population(task, generate_sketches(task), 10, rng)
    inputs = [MeasureInput(task, s) for s in states]
    results = _faulty_pipeline(build_error_prob=0.5, seed=4).measure(inputs)
    n_valid = sum(1 for r in results if r.valid)
    assert 0 < n_valid < len(results)  # the seed gives a mixed batch
    model = LearnedCostModel(seed=0)
    model.update(inputs, results)
    assert model.num_samples == n_valid


# ---------------------------------------------------------------------------
# SketchPolicy / evolutionary search under faults
# ---------------------------------------------------------------------------


def test_sketch_policy_survives_all_errors(task):
    """With every build failing, the search keeps going: trials are consumed,
    nothing becomes a best program, and nothing is retrained."""
    policy = SketchPolicy(task, num_generations=1, sample_init_population=16, seed=0)
    measurer = _faulty_pipeline(build_error_prob=1.0, seed=1)
    inputs, results = measure_one_round(policy, 6, measurer)
    assert len(inputs) == 6
    assert all(r.error_kind == MeasureErrorNo.BUILD_ERROR for r in results)
    assert policy.best_state is None
    assert policy.best_cost == float("inf")
    assert policy.num_trials == 6
    assert not policy._best_measured  # invalid programs never seed evolution
    assert not policy.cost_model.is_trained


def test_sketch_policy_skips_invalid_best_tracking(task):
    """A mixed batch: only valid results update the best program, and the
    measured-key set still records the failures (no pointless re-measuring)."""
    policy = SketchPolicy(task, num_generations=1, sample_init_population=16, seed=0)
    measurer = _faulty_pipeline(run_timeout_prob=0.5, seed=3)
    inputs, results = measure_one_round(policy, 8, measurer)
    invalid = [r for r in results if not r.valid]
    valid = [r for r in results if r.valid]
    assert invalid and valid  # the seed gives a mixed batch
    assert policy.best_state is not None
    assert policy.best_cost == pytest.approx(min(r.min_cost for r in valid))
    assert len(policy._measured_keys) == len(inputs)


def test_evolution_continues_after_faulty_round(task):
    """Transient faults in round one must not poison later rounds: the search
    still finds measurable programs afterwards."""
    policy = SketchPolicy(task, num_generations=1, sample_init_population=16, seed=0)
    measurer = _faulty_pipeline(run_error_prob=0.6, seed=5)
    for _ in range(3):
        measure_one_round(policy, 6, measurer)
    assert policy.num_trials == 18
    assert policy.best_state is not None
    assert math.isfinite(policy.best_cost)


# ---------------------------------------------------------------------------
# TaskScheduler under faults and heterogeneous hardware
# ---------------------------------------------------------------------------


def test_scheduler_survives_faulty_measurement():
    tasks = [
        SearchTask(make_matmul_relu_dag(64, 64, 64), intel_cpu(), desc="a"),
        SearchTask(make_matmul_dag(64, 64, 64), intel_cpu(), desc="b"),
    ]
    scheduler = TaskScheduler(
        tasks,
        policy_factory=lambda t, m, s: SketchPolicy(
            t, cost_model=m, num_generations=1, sample_init_population=8, seed=s
        ),
        seed=0,
    )
    measurer = _faulty_pipeline(build_error_prob=0.3, run_timeout_prob=0.2, seed=2)
    best = scheduler.tune(num_measure_trials=16, num_measures_per_round=4, measurer=measurer)
    assert scheduler.total_trials >= 16
    assert measurer.error_count > 0
    assert scheduler.measure_error_count() == measurer.error_count
    # Despite the faults both tasks found at least one valid program.
    assert all(math.isfinite(c) for c in best)
