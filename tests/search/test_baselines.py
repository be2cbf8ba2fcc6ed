"""Tests for the baseline search strategies and the library stand-in."""

import numpy as np
import pytest

from repro.cost_model import RandomCostModel
from repro.hardware import CostSimulator, MeasurePipeline, intel_cpu, intel_cpu_avx512
from repro.search import (
    BeamSearchPolicy,
    LibraryBaseline,
    expert_schedule,
    limited_space_policy,
    random_search_policy,
)
from repro.search.space import LIMITED_SPACE
from repro.task import SearchTask, TuningOptions
from repro.tuner import Tuner

from ..conftest import make_matmul_relu_dag, measure_one_round


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(256, 256, 256), intel_cpu(), desc="mm256")


def test_random_search_policy_has_no_evolution(task):
    policy = random_search_policy(task, seed=0)
    assert policy.use_evolutionary_search is False
    assert isinstance(policy.cost_model, RandomCostModel)


def test_random_search_policy_runs(task, measurer):
    policy = random_search_policy(task, seed=0, sample_init_population=16)
    inputs, results = measure_one_round(policy, 8, measurer)
    assert len(inputs) == 8
    assert np.isfinite(policy.best_cost)


def test_limited_space_policy_uses_restricted_space(task):
    policy = limited_space_policy(task, seed=0)
    assert policy.space is LIMITED_SPACE
    assert not any(
        any(step.kind in ("cache_write", "rfactor") for step in sketch.transform_steps)
        for sketch in policy.sketches
    )


def test_beam_search_policy_runs_and_improves_over_naive(task):
    policy = BeamSearchPolicy(task, seed=0, beam_width=6, expansions_per_decision=3)
    measurer = MeasurePipeline(task.hardware_params, seed=0)
    Tuner(task, policy=policy,
          options=TuningOptions(num_measure_trials=16, num_measures_per_round=8),
          measurer=measurer).tune()
    naive = CostSimulator(task.hardware_params).estimate(task.compute_dag.init_state())
    assert policy.best_cost < naive


def test_beam_search_does_not_remeasure(task, measurer):
    policy = BeamSearchPolicy(task, seed=0, beam_width=4, expansions_per_decision=2)
    seen = set()
    for _ in range(2):
        inputs, _ = measure_one_round(policy, 4, measurer)
        for inp in inputs:
            key = repr(inp.state.serialize_steps())
            assert key not in seen
            seen.add(key)


def test_expert_schedule_is_deterministic(task):
    state_a = expert_schedule(task)
    state_b = expert_schedule(task)
    assert repr(state_a.serialize_steps()) == repr(state_b.serialize_steps())


def test_expert_schedule_is_reasonably_fast(task):
    sim = CostSimulator(task.hardware_params)
    expert = sim.estimate(expert_schedule(task))
    naive = sim.estimate(task.compute_dag.init_state())
    assert expert < naive / 10


def test_library_baseline_runs(task):
    lib = LibraryBaseline(task, name="mkl-dnn-like")
    cost = lib.run()
    assert np.isfinite(cost) and cost > 0
    assert lib.best_state is not None
    assert lib.best_throughput() > 0


def test_library_baseline_with_avx512_is_faster(task):
    base = LibraryBaseline(task)
    base.run()
    avx = LibraryBaseline(task, hardware=intel_cpu_avx512())
    avx.run()
    assert avx.best_cost <= base.best_cost


@pytest.mark.slow
def test_ansor_matches_or_beats_limited_space(task):
    """Key qualitative claim of §7.1: given enough trials, the full space
    finds programs at least as good as the template-like restricted space.
    (The decisive comparison with the paper's 1000-trial budget lives in the
    benchmark harness; this test uses a small budget and a small tolerance.)
    """
    from repro.search import SketchPolicy

    budget = TuningOptions(num_measure_trials=80, num_measures_per_round=16)
    ansor = SketchPolicy(task, seed=1, population_size=32, num_generations=3, sample_init_population=32)
    Tuner(task, policy=ansor, options=budget,
          measurer=MeasurePipeline(task.hardware_params, seed=1)).tune()
    limited = limited_space_policy(
        task, seed=1, population_size=32, num_generations=3, sample_init_population=32
    )
    Tuner(task, policy=limited, options=budget,
          measurer=MeasurePipeline(task.hardware_params, seed=1)).tune()
    assert ansor.best_cost <= limited.best_cost * 1.2
