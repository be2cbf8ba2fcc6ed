"""The replay table of one evolutionary search: every distinct offspring
step list is replayed (and lowered) once per ``search()`` call, a known
outcome is served without replaying again, and the table only records
replays the search itself ran."""

import numpy as np
import pytest

from repro.cost_model import RandomCostModel
from repro.hardware import intel_cpu
from repro.ir.state import State, steps_fingerprint
from repro.ir.steps import SplitStep
from repro.search import (
    EvolutionarySearch,
    evolutionary,
    generate_sketches,
    mutation,
    sample_initial_population,
)
from repro.task import SearchTask

from ..conftest import make_matmul_relu_dag


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(64, 64, 64), intel_cpu())


@pytest.fixture
def replayed(monkeypatch):
    """Fingerprints of the step lists ``State.from_steps`` replays."""
    keys = []
    from_steps = State.from_steps.__func__

    def counting(cls, dag, steps, **kwargs):
        keys.append(steps_fingerprint(steps))
        return from_steps(cls, dag, steps, **kwargs)

    monkeypatch.setattr(State, "from_steps", classmethod(counting))
    return keys


def test_search_replays_each_distinct_step_list_once(task, replayed, monkeypatch):
    requested = []
    try_replay = mutation._try_replay

    def counting(dag, steps, **kwargs):
        requested.append(steps_fingerprint(steps))
        return try_replay(dag, steps, **kwargs)

    monkeypatch.setattr(mutation, "_try_replay", counting)
    population = sample_initial_population(
        task, generate_sketches(task), 16, np.random.default_rng(0)
    )
    EvolutionarySearch(
        task, RandomCostModel(seed=0), population_size=16, num_generations=4, seed=0
    ).search(population, num_best=8)
    assert replayed
    assert len(replayed) == len(set(replayed))
    assert set(replayed) == set(requested)
    assert len(requested) > len(replayed)  # duplicates were bred, and not replayed


def test_known_invalid_step_list_is_not_replayed_again(task, replayed):
    steps = [SplitStep("C", 0, [7])]  # 7 does not divide 64
    replays = {}
    assert mutation._try_replay(task.compute_dag, steps, replays=replays) is None
    assert replays == {steps_fingerprint(steps): None}
    assert len(replayed) == 1
    again = [step.copy() for step in steps]
    assert mutation._try_replay(task.compute_dag, again, replays=replays) is None
    assert len(replayed) == 1


def test_replayed_child_carries_its_fingerprint(task):
    steps = [SplitStep("C", 0, [8])]
    key = steps_fingerprint(steps)
    replays = {}
    child = mutation._try_replay(task.compute_dag, steps, replays=replays)
    assert child is not None and replays == {key: child}
    replayed = State.from_steps(task.compute_dag, [SplitStep("C", 0, [8])])
    assert child._fingerprint == key == replayed.fingerprint()
    assert mutation._try_replay(task.compute_dag, [SplitStep("C", 0, [8])], replays=replays) is child


def test_child_equal_to_an_unlowerable_initial_member_is_rejected(task, monkeypatch):
    """The initial population is never validated, so the table must not
    take its members as known-good outcomes."""
    good = State.from_dag(task.compute_dag).split("C", 0, [8])
    bad = State.from_dag(task.compute_dag).split("C", 0, [4])
    bad_key = bad.fingerprint()
    lower_state = mutation.lower_state

    def lower(state):
        if state.fingerprint() == bad_key:
            raise ValueError("unlowerable program")
        return lower_state(state)

    def breed_bad(state, rng, options, *, replays=None):
        steps = [step.copy() for step in bad.transform_steps]
        return mutation._try_replay(state.dag, steps, replays=replays)

    children = []
    random_mutation = evolutionary.random_mutation

    def recording(*args, **kwargs):
        child = random_mutation(*args, **kwargs)
        children.append(child)
        return child

    monkeypatch.setattr(mutation, "lower_state", lower)
    monkeypatch.setattr(mutation, "MUTATION_OPERATORS", [(breed_bad, 1.0)])
    monkeypatch.setattr(evolutionary, "random_mutation", recording)
    best = EvolutionarySearch(
        task, RandomCostModel(seed=0), population_size=4, num_generations=2,
        mutation_prob=1.0, seed=0,
    ).search([good, bad], num_best=4)
    assert children and all(child is None for child in children)
    assert {state.fingerprint() for state in best} == {good.fingerprint(), bad_key}
