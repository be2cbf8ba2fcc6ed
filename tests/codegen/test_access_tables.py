"""Access tables: a nest's statement, composed from the tables lowering
keeps on each op, must equal the walk of the op's expression tree that it
replaced.

``reference_collect_accesses`` below is that earlier implementation,
unchanged: on every lowering it walks the op's body for its reads
(``op.reads()``), its flop count (``count_flop``) and the coefficients of
every read index (``linear_coefficients``), and recurses into the body of
every inlined producer.  ``reference_element_strides`` is the earlier
``BufferAccess.element_strides``, which rebuilt the strides on every call.
Accesses are compared field by field and in order, flops exactly.
"""

import dataclasses
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Tuple

import numpy as np
import pytest

from repro.codegen.lowering import (
    BufferAccess,
    _dtype_bytes,
    access_table,
    linear_coefficients,
    lower_state,
)
from repro.cost_model.features import extract_program_features
from repro.hardware import intel_cpu
from repro.hardware.platform import wide_vector_cpu
from repro.ir.state import State
from repro.search import generate_sketches, random_mutation, sample_initial_population
from repro.task import SearchTask
from repro.te.expr import TensorRead, count_flop
from repro.te.operation import ComputeOp
from repro.variants.registry import expand_variants
from repro.workloads.networks import mobilenet_v2_tasks
from repro.workloads.ops import matmul_relu

from ..conftest import make_norm_dag


# ---------------------------------------------------------------------------
# References (the replaced implementations)
# ---------------------------------------------------------------------------


def reference_collect_accesses(state: State, op: ComputeOp) -> Tuple[List[BufferAccess], float]:
    """Buffer accesses and flops of one innermost statement of ``op``.

    Reads of tensors produced by *inlined* stages are replaced by the inlined
    op's own reads (recursively) and their flops are added, modelling the
    effect of inlining on the innermost statement.
    """
    accesses: List[BufferAccess] = []
    flops = float(max(count_flop(op.body), 1))

    def expand_read(read: TensorRead) -> None:
        nonlocal flops
        tensor = read.tensor
        producer_inlined = False
        if state.has_stage(tensor.name):
            producer = state.stage(tensor.name)
            producer_inlined = producer.is_inlined()
        if producer_inlined and isinstance(producer.op, ComputeOp):
            flops += max(count_flop(producer.op.body), 1)
            for inner in producer.op.reads():
                expand_read(inner)
            return
        dim_coeffs = []
        for index in read.indices:
            coeffs, _ = linear_coefficients(index)
            dim_coeffs.append(coeffs)
        accesses.append(
            BufferAccess(
                buffer=tensor.name,
                shape=tensor.shape,
                is_write=False,
                dim_coeffs=dim_coeffs,
                dtype_bytes=_dtype_bytes(tensor.dtype),
            )
        )

    for read in op.reads():
        expand_read(read)

    # The write to the op's own output buffer, indexed by its spatial axes.
    write_coeffs = [{ax.name: 1} for ax in op.axes]
    accesses.append(
        BufferAccess(
            buffer=op.name,
            shape=op.output.shape,
            is_write=True,
            dim_coeffs=write_coeffs,
            dtype_bytes=_dtype_bytes(op.output.dtype),
        )
    )
    return accesses, flops


def reference_element_strides(access: BufferAccess):
    """Stride (in elements of the buffer) of each original axis."""
    strides = {}
    dim_stride = 1
    # innermost dimension has stride 1
    buffer_strides = []
    for dim in reversed(access.shape):
        buffer_strides.append(dim_stride)
        dim_stride *= dim
    buffer_strides.reverse()
    for dim_idx, coeffs in enumerate(access.dim_coeffs):
        for axis, coeff in coeffs.items():
            strides[axis] = strides.get(axis, 0) + coeff * buffer_strides[dim_idx]
    return strides


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

CONV2D_PARAMS = dict(
    batch=1, in_channels=16, height=14, width=14,
    out_channels=16, kernel=3, stride=2, padding=1,
)


def _conv2d_tasks():
    return {
        f"conv2d_{task.variant}": task
        for task in expand_variants("conv2d", CONV2D_PARAMS, hardware=wide_vector_cpu())
    }


def _depthwise_task():
    layer = next(t for t in mobilenet_v2_tasks() if "depthwise" in t.desc)
    return SearchTask(layer.dag, intel_cpu())


def _tasks():
    return {
        "matmul_relu": SearchTask(matmul_relu(128, 128, 128), intel_cpu()),
        **_conv2d_tasks(),
        "mobilenet_depthwise": _depthwise_task(),
        "norm_rfactor": SearchTask(make_norm_dag(), intel_cpu()),
    }


TASK_NAMES = sorted(_tasks())


def _population(task, seed, count=16, chain=2):
    """Seeded complete programs of ``task``, a short chain of random
    mutations from each, and a replay of every one of them from its DAG,
    which builds its cache-write and rfactor ops anew."""
    rng = np.random.default_rng(seed)
    states = sample_initial_population(task, generate_sketches(task), count, rng)
    children = []
    for state in states:
        for _ in range(chain):
            state = random_mutation(state, rng)
            if state is None:
                break
            children.append(state)
    states += children
    return states + [task.compute_dag.replay_steps(state.transform_steps) for state in states]


def _fields(access: BufferAccess):
    return (access.buffer, access.shape, access.is_write, list(access.dim_coeffs), access.dtype_bytes)


def assert_matches_reference(state: State) -> int:
    """Compare every nest of a fresh lowering of ``state`` with the
    reference; returns the number of nests compared."""
    program = lower_state(state.copy())
    for nest in program.all_nests():
        expected, expected_flops = reference_collect_accesses(program.state, nest.stage.op)
        assert [_fields(a) for a in nest.accesses] == [_fields(a) for a in expected], nest.name
        assert [a.element_strides() for a in nest.accesses] == [reference_element_strides(a) for a in expected]
        assert type(nest.flops_per_iter) is float and nest.flops_per_iter == expected_flops
    return len(program.nests)


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", TASK_NAMES)
def test_statements_match_the_expression_walk(name):
    task = _tasks()[name]
    states = _population(task, 0)
    assert sum(assert_matches_reference(state) for state in states) > len(states)


def test_population_covers_inlining_cache_write_and_rfactor():
    tasks = _tasks()
    stages = [
        stage
        for name in TASK_NAMES
        for state in _population(tasks[name], 0, count=8, chain=1)
        for stage in state.stages
    ]
    assert any(stage.is_inlined() for stage in stages)
    assert any(stage.is_cache_stage for stage in stages)
    assert any(stage.is_rfactor_stage for stage in stages)


@pytest.mark.parametrize("name", ["conv2d_direct", "norm_rfactor"])
def test_ops_a_replay_rebuilt_get_tables_that_match(name):
    task = _tasks()[name]
    states = _population(task, 1, count=8, chain=0)[:8]
    rebuilt = 0
    for state in states:
        lower_state(state)
        replayed = task.compute_dag.replay_steps(state.transform_steps)
        new_ops = [
            stage.op for stage in replayed.stages
            if isinstance(stage.op, ComputeOp) and stage.op not in task.compute_dag.ops
        ]
        assert all(op._access_table is None for op in new_ops)
        rebuilt += len(new_ops)
        assert_matches_reference(replayed)
        assert all(op._access_table is not None for op in new_ops if not replayed.stage(op.name).is_inlined())
    assert rebuilt


def test_hand_written_schedules_match():
    task = _tasks()["matmul_relu"]
    dag = task.compute_dag
    inlined = State.from_dag(dag).compute_inline("C")
    cached = State.from_dag(dag).cache_write("C").split("C", 0, [8]).compute_at("C.cache", "C", 0)
    norm = State.from_dag(make_norm_dag()).rfactor("S", 1).compute_inline("N")
    for state in (inlined, cached, norm):
        assert assert_matches_reference(state)


# ---------------------------------------------------------------------------
# Sharing
# ---------------------------------------------------------------------------


def test_programs_share_one_frozen_access_per_read_site():
    dag = matmul_relu(64, 64, 64)
    first = lower_state(State.from_dag(dag).split("C", 0, [8]))
    second = lower_state(State.from_dag(dag).split("C", 1, [16]).vectorize("C", 2))
    table = access_table(next(op for op in dag.ops if op.name == "C"))
    assert [*table.reads, table.write] == first.nests["C"].accesses
    for mine, theirs in zip(first.nests["C"].accesses, second.nests["C"].accesses):
        assert mine is theirs
    access = first.nests["C"].accesses[0]
    for name, value in (("buffer", "X"), ("shape", (1,)), ("dim_coeffs", []), ("_strides", {}), ("extra", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(access, name, value)
    assert access.element_strides() is access.element_strides() == reference_element_strides(access)


def test_an_op_pickles_without_its_table():
    dag = matmul_relu(64, 64, 64)
    op = next(op for op in dag.ops if op.name == "C")
    before = len(pickle.dumps(op))
    state = State.from_dag(dag).split("C", 0, [8])
    extract_program_features(state)
    assert op._access_table is not None
    assert len(pickle.dumps(op)) == before
    clone = pickle.loads(pickle.dumps(state))
    assert all(
        stage.op._access_table is None for stage in clone.stages if isinstance(stage.op, ComputeOp)
    )
    ours, theirs = lower_state(state), lower_state(clone)
    for name, nest in ours.nests.items():
        assert [_fields(a) for a in theirs.nests[name].accesses] == [_fields(a) for a in nest.accesses]
        assert theirs.nests[name].flops_per_iter == nest.flops_per_iter


def test_threads_racing_to_build_tables_get_equal_statements():
    """Threads that lower states of a fresh DAG at once may each build an
    op's table; the last assignment wins, and every statement is equal.

    Each thread lowers a state of its own: the race under test is on the
    tables the states' shared ops keep, not on one state's lowering memo."""
    dag = matmul_relu(64, 64, 64)
    states = [
        state
        for _ in range(4)
        for factor in (2, 4, 8, 16)
        for state in (
            State.from_dag(dag).split("C", 0, [factor]),
            State.from_dag(dag).compute_inline("C").split("D", 0, [factor]),
        )
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lower_state, state) for state in states]
            programs = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(op._access_table is not None for op in dag.compute_ops)
    for state, program in zip(states, programs):
        assert program is lower_state(state)
        for nest in program.all_nests():
            expected, flops = reference_collect_accesses(program.state, nest.stage.op)
            assert [_fields(a) for a in nest.accesses] == [_fields(a) for a in expected]
            assert nest.flops_per_iter == flops
