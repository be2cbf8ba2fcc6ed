"""Tests for the evolution operators: mutations and crossover (§5.1)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.hardware import intel_cpu
from repro.ir.steps import PragmaStep, SplitStep
from repro.search import (
    generate_sketches,
    mutate_auto_unroll,
    mutate_compute_location,
    mutate_parallel_degree,
    mutate_tile_size,
    node_based_crossover,
    random_mutation,
    sample_complete_program,
)
from repro.task import SearchTask

from ..conftest import make_matmul_relu_dag


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(), intel_cpu())


@pytest.fixture
def sampled(task, rng):
    sketches = generate_sketches(task)
    return [sample_complete_program(task, sketches, rng) for _ in range(8)]


def _split_products(state):
    products = []
    for step in state.transform_steps:
        if isinstance(step, SplitStep):
            prod = 1
            for length in step.concrete_lengths():
                prod *= length
            products.append(prod)
    return products


def test_tile_size_mutation_produces_valid_program(sampled, rng):
    for parent in sampled:
        child = mutate_tile_size(parent, rng)
        if child is None:
            continue
        assert child.is_concrete()
        # The iteration space of the tiled stage is unchanged.
        name = "C.cache" if child.has_stage("C.cache") else "C"
        assert child.stage(name).iteration_count() == parent.stage(name).iteration_count()
        return
    pytest.fail("tile size mutation never succeeded")


def test_tile_size_mutation_changes_some_split(sampled, rng):
    changed = False
    for parent in sampled:
        for _ in range(5):
            child = mutate_tile_size(parent, rng)
            if child is None:
                continue
            if _split_products(child) == _split_products(parent):
                # products must be preserved...
                parent_lengths = [s.lengths for s in parent.transform_steps if isinstance(s, SplitStep)]
                child_lengths = [s.lengths for s in child.transform_steps if isinstance(s, SplitStep)]
                if parent_lengths != child_lengths:
                    changed = True
    assert changed


def test_tile_size_mutation_none_without_splits(task, rng):
    state = task.compute_dag.init_state()
    assert mutate_tile_size(state, rng) is None


def test_auto_unroll_mutation_changes_pragma(sampled, rng):
    parent = None
    for candidate in sampled:
        if any(isinstance(s, PragmaStep) for s in candidate.transform_steps):
            parent = candidate
            break
    if parent is None:
        pytest.skip("no sampled program carried an unroll pragma")
    child = mutate_auto_unroll(parent, rng)
    assert child is not None
    parent_value = [s.value for s in parent.transform_steps if isinstance(s, PragmaStep)]
    child_value = [s.value for s in child.transform_steps if isinstance(s, PragmaStep)]
    assert parent_value != child_value


def test_auto_unroll_mutation_none_without_pragma(task, rng):
    state = task.compute_dag.init_state()
    assert mutate_auto_unroll(state, rng) is None


def test_parallel_degree_mutation(sampled, rng):
    produced = 0
    for parent in sampled:
        for _ in range(4):
            child = mutate_parallel_degree(parent, rng)
            if child is not None:
                produced += 1
                assert child.is_concrete()
    # at least some attempts must succeed across the sampled programs
    assert produced > 0


def test_compute_location_mutation(sampled, rng):
    produced = 0
    for parent in sampled:
        child = mutate_compute_location(parent, rng)
        if child is not None:
            produced += 1
    # programs without compute_at steps legitimately return None
    assert produced >= 0


def test_random_mutation_returns_valid_or_none(sampled, rng):
    successes = 0
    for parent in sampled:
        child = random_mutation(parent, rng)
        if child is not None:
            successes += 1
            assert child.is_concrete()
    assert successes >= len(sampled) // 2


def test_crossover_combines_parents(task, sampled, rng):
    parent_a, parent_b = sampled[0], sampled[1]
    scores_a = {"C": 1.0, "D": 0.0}
    scores_b = {"C": 0.0, "D": 1.0}
    child = node_based_crossover(parent_a, parent_b, scores_a, scores_b, rng)
    if child is None:
        pytest.skip("crossover produced an invalid combination for these parents")
    assert child.is_concrete()
    assert child.dag is parent_a.dag


def test_crossover_prefers_higher_scoring_nodes(task, sampled, rng):
    parent_a, parent_b = sampled[0], sampled[2]
    # Give parent_a a much higher total score: it becomes the primary parent.
    child = node_based_crossover(parent_a, parent_b, {"C": 10.0, "D": 10.0}, {"C": 0.1, "D": 0.1}, rng)
    if child is None:
        pytest.skip("crossover invalid for these parents")
    # With parent_a dominating every node, at most one node comes from b, so
    # most steps should match parent_a's history length roughly.
    assert abs(len(child.transform_steps) - len(parent_a.transform_steps)) <= max(
        len(parent_b.transform_steps), 6
    )


def test_crossover_many_random_pairs_mostly_valid(task, sampled, rng):
    valid = 0
    trials = 0
    for i in range(len(sampled)):
        for j in range(i + 1, len(sampled)):
            trials += 1
            child = node_based_crossover(
                sampled[i], sampled[j], {"C": rng.random(), "D": rng.random()},
                {"C": rng.random(), "D": rng.random()}, rng,
            )
            if child is not None:
                valid += 1
    assert trials > 0
    assert valid / trials > 0.3


_SEEDED_SESSION = """
from repro.hardware import intel_cpu
from repro.task import SearchTask, TuningOptions
from repro.tuner import Tuner
from repro.workloads import matmul_relu

options = TuningOptions(seed=0, num_measure_trials=48, num_measures_per_round=8)
result = Tuner(SearchTask(matmul_relu(64, 64, 64), intel_cpu()), options=options).tune()
print(repr(result.history), result.best_states[0].fingerprint())
"""


def test_seeded_session_does_not_follow_the_hash_seed():
    """Crossover draws from the RNG once per node it visits, so the order it
    visits nodes in must not come from the interpreter's string hash seed.
    When it iterated a set of node names, this session's trajectory under
    hash seeds 6 and 7 differed from the one under 0."""
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in ("0", "6", "7"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", _SEEDED_SESSION], env=env,
            capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs
