"""Property-based tests (hypothesis) on core invariants.

The invariants checked here are the ones the whole search relies on:

* split factorizations always preserve the iteration space,
* random annotation always produces valid, measurable programs,
* schedule transformations never change which buffers a program reads or
  writes,
* tile-size mutation preserves the iteration space,
* every applied split step records the extent a fresh replay of the steps
  before it gives, and that record changes neither the step's
  serialization nor the program's fingerprint,
* stages are values: breeding leaves every parent (and the DAG's stage
  template) as it was, a child built from its parent's recorded stages
  equals a full replay of its steps, and sketch generation returns the
  sketches it returned before stages became values,
* the GBDT handles arbitrary regression data without crashing and predicts
  finite values, and its trainer grows the same trees as the per-feature
  reference trainer.
"""

import functools
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro import te
from repro.codegen.lowering import lower_state
from repro.cost_model.features import extract_program_features
from repro.cost_model.gbdt import GBDTRegressor
from repro.hardware import CostSimulator, intel_cpu
from repro.hardware.platform import wide_vector_cpu
from repro.ir.state import State, steps_fingerprint
from repro.ir.steps import SplitStep
from repro.search import (
    BeamSearchPolicy,
    generate_sketches,
    mutate_tile_size,
    node_based_crossover,
    random_factor_split,
    random_mutation,
    sample_complete_program,
    sample_initial_population,
)
from repro.task import SearchTask
from repro.te.dag import ComputeDAG
from repro.variants.registry import expand_variants
from repro.workloads.networks import extract_tasks, mobilenet_v2_tasks
from repro.workloads.ops import matmul_relu

from ..cost_model.test_gbdt_train_parity import assert_same_boosters, reference_fit


def _matmul_relu(m, n, k):
    A = te.placeholder((m, k), name="A")
    B = te.placeholder((k, n), name="B")
    rk = te.reduce_axis(k, "rk")
    C = te.compute((m, n), lambda i, j: te.sum_expr(A[i, rk] * B[rk, j], [rk]), name="C")
    D = te.compute((m, n), lambda i, j: te.Max(C[i, j], te.const(0.0)), name="D")
    return ComputeDAG([D])


_SIZES = st.sampled_from([8, 12, 16, 24, 32, 48, 64, 96, 128])


@given(extent=st.integers(min_value=1, max_value=1024), n_inner=st.integers(1, 4), seed=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_random_factor_split_always_divides(extent, n_inner, seed):
    rng = np.random.default_rng(seed)
    lengths = random_factor_split(extent, n_inner, rng)
    assert len(lengths) == n_inner
    product = int(np.prod(lengths))
    assert product >= 1
    assert extent % product == 0


@given(m=_SIZES, n=_SIZES, k=_SIZES, seed=st.integers(0, 100))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sampled_programs_preserve_iteration_space(m, n, k, seed):
    dag = _matmul_relu(m, n, k)
    task = SearchTask(dag, intel_cpu())
    rng = np.random.default_rng(seed)
    sketches = generate_sketches(task)
    state = sample_complete_program(task, sketches, rng)
    # The stage holding the matmul computation covers exactly m*n*k points.
    # Which stage that is depends on the sampled structure: a cache stage
    # (C.cache) or an rfactor stage (C.rf) takes over the heavy loop nest,
    # leaving the original stage with only the residual reduction.
    matmul_stages = [s for s in state.stages if s.name == "C" or s.name.startswith("C.")]
    assert max(s.iteration_count() for s in matmul_stages) == m * n * k
    # And the program is simulatable with a positive finite cost.
    cost = CostSimulator(task.hardware_params).estimate(state)
    assert np.isfinite(cost) and cost > 0


@given(m=_SIZES, n=_SIZES, k=_SIZES, seed=st.integers(0, 100))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_schedules_never_change_buffer_set(m, n, k, seed):
    dag = _matmul_relu(m, n, k)
    task = SearchTask(dag, intel_cpu())
    rng = np.random.default_rng(seed)
    sketches = generate_sketches(task)
    state = sample_complete_program(task, sketches, rng)
    program = lower_state(state)
    read = {a.buffer for nest in program.all_nests() for a in nest.reads()}
    written = {a.buffer for nest in program.all_nests() for a in nest.writes()}
    # Whatever the schedule, the program must read the placeholders and write
    # the DAG output; any extra buffers must be schedule-introduced caches.
    assert {"A", "B"} <= read
    assert "D" in written
    for extra in written - {"C", "D"}:
        assert extra.endswith(".cache") or extra.endswith(".rf")


@given(seed=st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_tile_mutation_preserves_iteration_space(seed):
    dag = _matmul_relu(64, 64, 64)
    task = SearchTask(dag, intel_cpu())
    rng = np.random.default_rng(seed)
    sketches = generate_sketches(task)
    parent = sample_complete_program(task, sketches, rng)
    child = mutate_tile_size(parent, rng)
    if child is None:
        return
    name = "C.cache" if child.has_stage("C.cache") else "C"
    assert child.stage(name).iteration_count() == 64 ** 3


class _RecordingBeam(BeamSearchPolicy):
    """Beam search that keeps every candidate set it prunes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pruned = []

    def _prune(self, candidates):
        self.pruned.extend(candidates)
        return super()._prune(candidates)


def _assert_recorded_extents(state):
    scratch = state.dag.init_state()
    for step in state.transform_steps:
        if isinstance(step, SplitStep):
            assert step.extent == scratch.stage(step.stage_name).iters[step.iter_id].extent
            clone = step.copy()
            assert clone.extent is None
            assert step.to_dict() == clone.to_dict()
            assert "extent" not in step.to_dict()
        scratch.apply_step(step.copy())
    unapplied = [step.copy() for step in state.transform_steps]
    assert state.fingerprint() == steps_fingerprint(unapplied) == scratch.fingerprint()


@given(m=_SIZES, n=_SIZES, k=_SIZES, seed=st.integers(0, 100))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_split_steps_record_the_extent_a_prefix_replay_gives(m, n, k, seed):
    task = SearchTask(_matmul_relu(m, n, k), intel_cpu())
    rng = np.random.default_rng(seed)
    sketches = generate_sketches(task)
    programs = [sample_complete_program(task, sketches, rng) for _ in range(2)]
    bred = []
    for parent in programs:
        for _ in range(3):
            parent = random_mutation(parent, rng)
            if parent is None:
                break
            bred.append(parent)
    for _ in range(3):
        bred.append(node_based_crossover(programs[0], programs[1], {}, {}, rng))
    beam = _RecordingBeam(task, beam_width=2, expansions_per_decision=2, seed=seed)
    beam._construct_candidates()
    assert beam.pruned
    for state in sketches + programs + bred + beam.pruned:
        if state is not None:
            _assert_recorded_extents(state)


# ---------------------------------------------------------------------------
# Stages are values
# ---------------------------------------------------------------------------

_CONV2D_PARAMS = dict(
    batch=1, in_channels=16, height=14, width=14,
    out_channels=16, kernel=3, stride=2, padding=1,
)


def _conv2d_variants():
    return {
        f"conv2d_{task.variant}": task
        for task in expand_variants("conv2d", _CONV2D_PARAMS, hardware=wide_vector_cpu())
    }


@functools.lru_cache(maxsize=None)
def _breeding_task(name):
    if name == "matmul_relu":
        return SearchTask(_matmul_relu(64, 64, 64), intel_cpu())
    if name == "mobilenet_depthwise":
        layer = next(t for t in mobilenet_v2_tasks() if "depthwise" in t.desc)
        return SearchTask(layer.dag, intel_cpu())
    return _conv2d_variants()[name]


_BREEDING_TASKS = ["matmul_relu", *sorted(_conv2d_variants()), "mobilenet_depthwise"]


@functools.lru_cache(maxsize=None)
def _breeding_population(name):
    task = _breeding_task(name)
    return tuple(sample_initial_population(task, generate_sketches(task), 8, np.random.default_rng(0)))


def _values(stages):
    """Everything the stages hold, as plain values (ops by name, since a
    replay builds new cache and rfactor ops)."""
    return [
        (
            stage.name,
            stage.op.name,
            stage.auto_unroll_max_step,
            stage.is_cache_stage,
            stage.is_rfactor_stage,
            (stage.compute_location.kind, stage.compute_location.target_stage, stage.compute_location.target_iter),
            [(it.name, it.extent, it.kind, it.annotation, dict(it.axis_strides)) for it in stage.iters],
        )
        for stage in stages
    ]


def _identities(stages):
    return [(id(stage), id(stage.op), id(stage.compute_location), [id(it) for it in stage.iters]) for stage in stages]


def _snapshot(state):
    """A state's stages, steps, record and fingerprint, by value and by
    identity."""
    return (
        _values(state.stages),
        _identities(state.stages),
        [(id(step), step.to_dict(), getattr(step, "extent", None)) for step in state.transform_steps],
        None if state._trail is None else [_identities(stages) for stages in state._trail],
        state.fingerprint(),
    )


def _node_scores(state, rng):
    nodes = sorted({step.stage_name.split(".")[0] for step in state.transform_steps})
    return {node: float(rng.integers(3)) for node in nodes}


def _breed(parent, population, rng):
    """One child of ``parent`` by mutation or crossover (``None`` when the
    drawn operator gives no valid program)."""
    if rng.random() < 0.6:
        return random_mutation(parent, rng)
    other = population[int(rng.integers(len(population)))]
    return node_based_crossover(parent, other, _node_scores(parent, rng), _node_scores(other, rng), rng)


@given(name=st.sampled_from(_BREEDING_TASKS), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_breeding_leaves_parents_and_the_template_unchanged(name, seed):
    population = list(_breeding_population(name))
    dag = population[0].dag
    template = dag._stage_template
    assert template is not None
    before = [_snapshot(state) for state in population]
    template_before = (_values(template), _identities(template))
    rng = np.random.default_rng(seed)
    parents = list(population)
    children = []
    for _ in range(20):
        parent = parents[int(rng.integers(len(parents)))]
        child = _breed(parent, parents, rng)
        if child is not None:
            children.append(child)
            parents.append(child)
    assert children
    # The population's members and every child that later served as a
    # parent are as they were.
    assert [_snapshot(state) for state in population] == before
    assert dag._stage_template is template
    assert (_values(template), _identities(template)) == template_before


def _lowered(state):
    program = lower_state(state)
    return [
        (
            nest.name,
            [(loop.name, loop.extent, loop.kind, loop.annotation, dict(loop.axis_strides)) for loop in nest.loops],
            [(loop.name, loop.extent) for loop in nest.outer_context],
            None if nest.parent is None else (nest.parent.name, nest.attach_index),
            nest.flops_per_iter,
            [(a.buffer, a.is_write, a.dim_coeffs) for a in nest.accesses],
        )
        for nest in program.all_nests()
    ]


def _assert_equals_full_replay(child):
    full = State.from_steps(child.dag, [step.copy() for step in child.transform_steps])
    assert _values(child.stages) == _values(full.stages)
    assert [_values(stages) for stages in child._trail] == [_values(stages) for stages in full._trail]
    assert [getattr(s, "extent", None) for s in child.transform_steps] == [
        getattr(s, "extent", None) for s in full.transform_steps
    ]
    assert child.fingerprint() == steps_fingerprint(child.transform_steps) == full.fingerprint()
    assert _lowered(child) == _lowered(full)


@given(
    name=st.sampled_from(_BREEDING_TASKS),
    seed=st.integers(0, 2**32 - 1),
    chain=st.integers(1, 4),
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_suffix_replay_equals_full_replay(name, seed, chain):
    """Children of recorded parents (and of unpickled parents, which have no
    record) equal a full replay of their steps, generation after
    generation."""
    population = _breeding_population(name)
    rng = np.random.default_rng(seed)
    parent = population[int(rng.integers(len(population)))]
    for _ in range(chain):
        if rng.random() < 0.2:
            parent = pickle.loads(pickle.dumps(parent))
            assert parent._trail is None
        child = _breed(parent, population, rng)
        if child is None:
            continue
        _assert_equals_full_replay(child)
        parent = child


def test_from_steps_shares_the_parents_stages():
    parent, other = _breeding_population("matmul_relu")[:2]
    index = len(parent.transform_steps) - 1
    steps = parent.transform_steps[:index] + [parent.transform_steps[index].copy()]
    child = State.from_steps(parent.dag, steps, parent=parent, start=index)
    assert child.transform_steps[:index] == parent.transform_steps[:index]
    assert child._trail[:index + 1] == parent._trail[:index + 1]
    changed = {stage.name for stage, before in zip(child.stages, parent._trail[index]) if stage is not before}
    assert len(changed) <= 1
    _assert_equals_full_replay(child)
    copies = [step.copy() for step in parent.transform_steps]
    for bad_parent, bad_steps in ((parent, copies), (None, steps), (other, steps)):
        with pytest.raises(ValueError, match="not the parent's own step objects"):
            State.from_steps(parent.dag, bad_steps, parent=bad_parent, start=index)


def _sketch_tasks():
    tasks = {"matmul_relu": SearchTask(matmul_relu(128, 128, 128), intel_cpu())}
    tasks.update(_conv2d_variants())
    for task in extract_tasks(["mobilenet-v2"], max_tasks_per_network=6)[0]:
        tasks[task.desc] = task
    return tasks


def test_sketches_are_unchanged():
    """``sketch_steps.json`` holds the sketches generate_sketches returned
    while steps still edited stages in place."""
    expected = json.loads((Path(__file__).parent / "sketch_steps.json").read_text())
    tasks = _sketch_tasks()
    assert sorted(tasks) == sorted(expected)
    for name, task in tasks.items():
        sketches = generate_sketches(task)
        assert [sketch.serialize_steps() for sketch in sketches] == expected[name]
        for sketch in sketches:
            full = State.from_steps(task.compute_dag, [step.copy() for step in sketch.transform_steps])
            assert _values(sketch.stages) == _values(full.stages)


@given(seed=st.integers(0, 200))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_feature_extraction_always_finite(seed):
    dag = _matmul_relu(32, 32, 32)
    task = SearchTask(dag, intel_cpu())
    rng = np.random.default_rng(seed)
    sketches = generate_sketches(task)
    state = sample_complete_program(task, sketches, rng)
    features = extract_program_features(state)
    assert features.shape[0] >= 1
    assert np.isfinite(features).all()


@given(
    n_samples=st.integers(10, 60),
    n_features=st.integers(1, 8),
    seed=st.integers(0, 1000),
)
@settings(max_examples=20, deadline=None)
def test_gbdt_never_produces_nan(n_samples, n_features, seed):
    rng = np.random.default_rng(seed)
    X = rng.random((n_samples, n_features))
    y = rng.standard_normal(n_samples)
    w = rng.random(n_samples) + 0.01
    model = GBDTRegressor(n_rounds=5, max_depth=3, seed=seed).fit(X, y, sample_weight=w)
    pred = model.predict(rng.random((20, n_features)))
    assert np.isfinite(pred).all()


# Low-cardinality values put rows exactly on bin edges; the full float range
# makes the histogram sums overflow.
_GBDT_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _training_sets(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    X = draw(arrays(np.float64, (n, d), elements=_GBDT_VALUES))
    y = draw(arrays(np.float64, n, elements=_GBDT_VALUES))
    w = draw(arrays(np.float64, n, elements=_GBDT_VALUES))
    return X, y, w


@given(
    data=_training_sets(),
    feature_fraction=st.floats(0.01, 1.0),
    max_depth=st.integers(0, 5),
    min_samples_leaf=st.integers(1, 5),
    seed=st.integers(0, 1000),
)
@settings(max_examples=60, deadline=None)
def test_gbdt_fit_matches_reference_trainer(data, feature_fraction, max_depth, min_samples_leaf, seed):
    X, y, w = data
    params = dict(
        n_rounds=3,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        feature_fraction=feature_fraction,
        seed=seed,
    )
    with np.errstate(all="ignore"):
        new = GBDTRegressor(**params).fit(X, y, sample_weight=w)
        ref = reference_fit(GBDTRegressor(**params), X, y, sample_weight=w)
    assert_same_boosters(new, ref)
