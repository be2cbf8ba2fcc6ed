"""Tests for the full Ansor search policy (§3-§5)."""

import numpy as np
import pytest

from repro.cost_model import LearnedCostModel, RandomCostModel
from repro.hardware import CostSimulator, MeasurePipeline, intel_cpu
from repro.search import SketchPolicy
from repro.task import SearchTask, TuningOptions
from repro.tuner import Tuner

from ..conftest import make_matmul_relu_dag, measure_one_round


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(256, 256, 256), intel_cpu(), desc="mm256")


def _policy(task, **kwargs):
    defaults = dict(population_size=24, num_generations=2, sample_init_population=24, seed=0)
    defaults.update(kwargs)
    return SketchPolicy(task, **defaults)


def test_one_round_measures_and_updates(task, measurer):
    policy = _policy(task)
    inputs, results = measure_one_round(policy, 8, measurer)
    assert len(inputs) == 8
    assert len(results) == 8
    assert policy.num_trials == 8
    assert np.isfinite(policy.best_cost)
    assert policy.best_state is not None
    assert isinstance(policy.cost_model, LearnedCostModel)
    assert policy.cost_model.num_samples > 0


def test_rounds_do_not_remeasure_programs(task, measurer):
    policy = _policy(task)
    seen = set()
    for _ in range(3):
        inputs, _ = measure_one_round(policy, 6, measurer)
        for inp in inputs:
            key = repr(inp.state.serialize_steps())
            assert key not in seen
            seen.add(key)


def test_tune_respects_trial_budget(task):
    policy = _policy(task)
    options = TuningOptions(num_measure_trials=20, num_measures_per_round=8)
    best = Tuner(task, policy=policy, options=options).tune().best_state
    assert policy.num_trials == 20
    assert best is not None


def test_history_is_monotonically_improving(task):
    policy = _policy(task)
    Tuner(task, policy=policy,
          options=TuningOptions(num_measure_trials=24, num_measures_per_round=8)).tune()
    costs = [cost for _, cost in policy.history]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


def test_search_beats_naive_schedule(task):
    policy = _policy(task)
    Tuner(task, policy=policy,
          options=TuningOptions(num_measure_trials=32, num_measures_per_round=8)).tune()
    naive = CostSimulator(task.hardware_params).estimate(task.compute_dag.init_state())
    assert policy.best_cost < naive / 5


@pytest.mark.slow
def test_search_finds_programs_better_than_random_sampling(task):
    """The fine-tuned search should beat pure random sampling with the same
    measurement budget (the Figure 7 'No fine-tuning' comparison)."""
    budget = TuningOptions(num_measure_trials=48, num_measures_per_round=12)
    ansor = _policy(task, seed=3)
    Tuner(task, policy=ansor, options=budget,
          measurer=MeasurePipeline(task.hardware_params, seed=3)).tune()
    random_policy = _policy(task, seed=3, cost_model=RandomCostModel(seed=3), use_evolutionary_search=False)
    Tuner(task, policy=random_policy, options=budget,
          measurer=MeasurePipeline(task.hardware_params, seed=3)).tune()
    assert ansor.best_cost <= random_policy.best_cost * 1.1


def test_best_throughput_consistency(task, measurer):
    policy = _policy(task)
    measure_one_round(policy, 8, measurer)
    assert policy.best_throughput() == pytest.approx(task.flop_count() / policy.best_cost)


def test_eps_greedy_includes_random_candidates(task, measurer):
    policy = _policy(task, eps_greedy=0.5)
    inputs, _ = measure_one_round(policy, 8, measurer)
    assert len(inputs) == 8


def test_sketches_cached(task):
    policy = _policy(task)
    first = policy.sketches
    assert policy.sketches is first


@pytest.mark.slow
def test_early_stopping(task):
    policy = _policy(task)
    options = TuningOptions(num_measure_trials=1000, num_measures_per_round=8, early_stopping=2)
    Tuner(task, policy=policy, options=options).tune()
    assert policy.num_trials < 1000
