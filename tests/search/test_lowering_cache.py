"""Memoized lowering: ``lower_state`` memoizes the program on the state
itself.  The memo must serve repeated lowerings of one state, must never
serve a stale program after a step is appended, must not leak later steps
on the state into a program lowered earlier (programs snapshot the state's
stage list, and steps replace stages instead of editing them), and must
never travel in a pickle, nor may the other memos: a state's feature
matrix, the booster rows a trained model kept on it, its stage record, a
DAG's stage template and an op's access table.  A step drops the feature and row memos with the
program, and a copy carries none of them."""

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.codegen.lowering import lower_state
from repro.cost_model import LearnedCostModel
from repro.ir.state import State
from repro.search import generate_sketches, sample_initial_population
from repro.search.mutation import random_mutation
from repro.hardware import MeasureInput, MeasurePipeline, intel_cpu
from repro.task import SearchTask

from ..conftest import make_matmul_relu_dag


@pytest.fixture
def dag():
    return make_matmul_relu_dag(64, 64, 64)


def _loops(program):
    return {
        name: [(l.name, l.extent, l.annotation) for l in nest.loops]
        for name, nest in program.nests.items()
    }


def _trained_model(dag):
    task = SearchTask(dag, intel_cpu())
    population = sample_initial_population(
        task, generate_sketches(task), 8, np.random.default_rng(0)
    )
    inputs = [MeasureInput(task, state) for state in population]
    model = LearnedCostModel(n_rounds=5, seed=0)
    model.update(inputs, MeasurePipeline(intel_cpu(), seed=0).measure(inputs))
    assert model.is_trained
    return task, model


@pytest.fixture
def scored(dag):
    """A state that a trained model featurized and scored."""
    task, model = _trained_model(dag)
    state = State.from_dag(dag).split("C", 0, [8]).parallel("C", 0)
    model.predict(task, [state])
    assert state._lowered is not None and state._features is not None
    assert state._stage_rows[0] is model
    return state


def test_lowering_one_state_twice_returns_the_same_program(dag):
    state = State.from_dag(dag).split("C", 0, [8]).parallel("C", 0)
    assert lower_state(state) is lower_state(state)


def test_mutated_state_is_relowered_with_new_program(dag):
    state = State.from_dag(dag)
    before = lower_state(state)
    state.vectorize("D", 1)
    after = lower_state(state)
    assert after is not before
    assert after.nests["D"].loops[1].annotation == "vectorize"
    # The first program must not have picked up the annotation.
    assert before.nests["D"].loops[1].annotation == "none"


def test_program_is_isolated_from_in_place_state_mutation(dag):
    """Lower a state, then apply more steps to the same state: the program
    lowered earlier keeps describing the old schedule."""
    state = State.from_dag(dag).split("C", 0, [8])
    lowered = lower_state(state)
    # Annotates an iterator of the lowered stage and sets a stage pragma.
    state.parallel("C", 0)
    state.pragma("C", "auto_unroll_max_step", 64)
    assert all(loop.annotation == "none" for loop in lowered.nests["C"].loops)
    assert lowered.nests["C"].stage.auto_unroll_max_step == 0
    relowered = lower_state(state)
    assert relowered is not lowered
    assert relowered.nests["C"].loops[0].annotation == "parallel"
    assert relowered.nests["C"].stage.auto_unroll_max_step == 64


def test_pragma_is_visible_after_mutation(dag):
    state = State.from_dag(dag)
    lower_state(state)
    state.pragma("C", "auto_unroll_max_step", 512)
    assert lower_state(state).nests["C"].stage.auto_unroll_max_step == 512


def test_uncached_lowering_matches_cached(dag):
    state = State.from_dag(dag).split("C", 1, [16]).vectorize("C", 2)
    cached = lower_state(state)
    fresh = lower_state(state.copy())
    assert fresh is not cached
    assert lower_state(state) is cached  # the fresh lowering left the memo alone
    assert set(fresh.nests) == set(cached.nests)
    assert _loops(fresh) == _loops(cached)
    for name in fresh.nests:
        assert fresh.nests[name].flops_per_iter == cached.nests[name].flops_per_iter


def test_lowered_state_pickles_without_its_program(dag):
    without_template = pickle.dumps(dag)
    op = next(op for op in dag.ops if op.name == "C")
    without_table = pickle.dumps(op)
    state = State.from_dag(dag).split("C", 0, [8]).parallel("C", 0)
    assert dag._stage_template is not None
    assert len(pickle.dumps(dag)) == len(without_template)
    state.fingerprint()
    unlowered = pickle.dumps(state)
    program = lower_state(state)
    lowered = pickle.dumps(state)
    assert len(lowered) == len(unlowered)
    assert op._access_table is not None and len(pickle.dumps(op)) == len(without_table)
    clone = pickle.loads(lowered)
    assert clone._lowered is None
    assert clone._trail is None and state._trail is not None
    assert lower_state(state) is program  # pickling left the memo in place
    assert _loops(lower_state(clone)) == _loops(program)

    # Serving as a parent leaves a state's pickle as it was.
    rng = np.random.default_rng(0)
    parents = sample_initial_population(
        SearchTask(dag, intel_cpu()), generate_sketches(SearchTask(dag, intel_cpu())), 4, rng
    )
    for parent in parents:
        parent.fingerprint()
    before = [len(pickle.dumps(parent)) for parent in parents]
    children = [random_mutation(parent, rng) for parent in parents for _ in range(4)]
    assert any(
        child is not None and child.transform_steps[0] is parent.transform_steps[0]
        for child, parent in zip(children, [p for p in parents for _ in range(4)])
    )
    assert [len(pickle.dumps(parent)) for parent in parents] == before

    # Featurized and scored by a trained model, a state (and each parent,
    # and an op and DAG they lowered) pickles to its earlier length, and its
    # clone holds neither memo.
    task, model = _trained_model(dag)
    model.predict(task, [state] + parents)
    assert state._features is not None and state._stage_rows[0] is model
    assert all(parent._stage_rows[0] is model for parent in parents)
    assert len(pickle.dumps(op)) == len(without_table)
    assert len(pickle.dumps(dag)) == len(without_template)
    assert len(pickle.dumps(state)) == len(unlowered)
    assert [len(pickle.dumps(parent)) for parent in parents] == before
    clone = pickle.loads(pickle.dumps(state))
    assert clone._features is None and clone._stage_rows is None


def test_a_step_drops_the_feature_and_row_memos(scored):
    scored.pragma("C", "auto_unroll_max_step", 16)
    assert scored._lowered is None
    assert scored._features is None
    assert scored._stage_rows is None


def test_a_copy_carries_no_feature_or_row_memo(scored):
    clone = scored.copy()
    assert clone._lowered is None and clone._features is None and clone._stage_rows is None
    assert scored._features is not None and scored._stage_rows is not None


def test_threads_lowering_one_state_get_equal_programs(dag):
    """Threads racing on one unlowered state may each lower it, but every
    one gets an equal program and the memo keeps one of them."""
    state = State.from_dag(dag).split("C", 0, [8]).split("C", 2, [4]).vectorize("C", 3)
    expected = _loops(lower_state(state.copy()))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lower_state, state) for _ in range(32)]
            programs = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(_loops(program) == expected for program in programs)
    assert any(lower_state(state) is program for program in programs)


def test_mutation_never_observes_stale_programs():
    """Evolution-style churn: every mutated child must lower to a program
    consistent with a from-scratch (uncached) lowering of the same state."""
    task = SearchTask(make_matmul_relu_dag(64, 64, 64), intel_cpu())
    rng = np.random.default_rng(0)
    population = sample_initial_population(task, generate_sketches(task), 8, rng)
    children = []
    for state in population:
        child = random_mutation(state, rng)
        if child is not None:
            children.append(child)
    assert children
    for child in children:
        cached = lower_state(child)
        fresh = lower_state(child.copy())
        assert _loops(fresh) == _loops(cached)
        for name in fresh.nests:
            assert fresh.nests[name].stage.auto_unroll_max_step == (
                cached.nests[name].stage.auto_unroll_max_step
            )
