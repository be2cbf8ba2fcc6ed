"""Tests for the program state: stage relations, copies and replay."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.ir.state import State

from ..conftest import make_matmul_relu_dag


@pytest.fixture
def dag():
    return make_matmul_relu_dag()


@pytest.fixture
def state(dag):
    return dag.init_state()


def test_from_dag_creates_naive_loops(state):
    c = state.stage("C")
    assert [it.extent for it in c.iters] == [64, 64, 64]
    assert [it.kind for it in c.iters] == ["spatial", "spatial", "reduce"]


def test_stage_lookup_and_errors(state):
    assert state.stage("C").name == "C"
    assert state.has_stage("D")
    assert not state.has_stage("Z")
    with pytest.raises(KeyError):
        state.stage("Z")
    with pytest.raises(KeyError):
        state.stage_index("Z")


def test_compute_stages_excludes_placeholders(state):
    assert [s.name for s in state.compute_stages()] == ["C", "D"]


def test_producer_consumer_relations(state):
    assert [s.name for s in state.stage_consumers("C")] == ["D"]
    assert [s.name for s in state.stage_producers("D")] == ["C"]
    assert [s.name for s in state.stage_producers("C")] == ["A", "B"]
    assert state.stage_consumers("D") == []


def test_is_output_stage(state):
    assert state.is_output_stage("D")
    assert not state.is_output_stage("C")


def test_copy_is_deep_for_stages(state):
    clone = state.copy()
    clone.split("C", 0, [8])
    assert len(state.stage("C").iters) == 3
    assert len(clone.stage("C").iters) == 4
    assert len(state.transform_steps) == 0
    assert len(clone.transform_steps) == 1


def test_threads_starting_from_one_dag_keep_their_steps_apart(dag):
    """Threads racing to build a fresh DAG's stage template each get a state
    of their own: no thread's steps show in another's state or in the
    template."""

    def build(i):
        state = State.from_dag(dag)
        state.split("C", 0, [2 ** (i % 6)]).parallel("C", 0).compute_at("D", "C", 1)
        return i, state

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(build, i) for i in range(64)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, state in results:
        c = state.stage("C")
        assert [it.extent for it in c.iters] == [64 // 2 ** (i % 6), 2 ** (i % 6), 64, 64]
        assert [it.annotation for it in c.iters] == ["parallel", "none", "none", "none"]
        assert state.stage("D").compute_location.target_iter == 1
        assert len(state.transform_steps) == 3 and len(state._trail) == 4
    naive = [(s.name, [(it.extent, it.annotation) for it in s.iters], s.compute_location.kind) for s in State.from_dag(dag).stages]
    assert naive == [
        ("A", [], "root"),
        ("B", [], "root"),
        ("C", [(64, "none"), (64, "none"), (64, "none")], "root"),
        ("D", [(64, "none"), (64, "none")], "root"),
    ]


def test_steps_are_recorded_in_order(state):
    state.split("C", 0, [8])
    state.parallel("C", 0)
    kinds = [s.kind for s in state.transform_steps]
    assert kinds == ["split", "annotate"]


def test_from_steps_reproduces_program(state, dag):
    state.split("C", 0, [8])
    state.split("C", 2, [16])
    state.reorder("C", [0, 2, 1, 3, 4])
    state.compute_at("D", "C", 1)
    state.parallel("C", 0)
    rebuilt = State.from_steps(dag, [s.copy() for s in state.transform_steps])
    assert rebuilt.print_program() == state.print_program()


def test_is_concrete_and_placeholder_splits(state):
    assert state.is_concrete()
    state.split("C", 0, [None])
    assert not state.is_concrete()
    assert len(state.placeholder_splits()) == 1


def test_steps_for_stage_groups_cache_stage_with_node(state):
    state.cache_write("C")
    state.split("C.cache", 0, [8])
    state.parallel("D", 0)
    c_steps = state.steps_for_stage("C")
    assert len(c_steps) == 2  # cache_write + split on C.cache
    d_steps = state.steps_for_stage("D")
    assert len(d_steps) == 1


def test_serialize_steps_is_json_friendly(state):
    state.split("C", 0, [8])
    state.vectorize("C", 3)
    data = state.serialize_steps()
    assert all(isinstance(d, dict) and "kind" in d for d in data)


def test_print_program_contains_loops_and_statement(state):
    text = state.print_program()
    assert "for" in text
    assert "C[...]" in text and "D[...]" in text


def test_print_program_marks_inlined_stages(state):
    state.compute_inline("D")
    assert "inlined: D" in state.print_program()


def test_repr_mentions_stages(state):
    assert "C" in repr(state)
