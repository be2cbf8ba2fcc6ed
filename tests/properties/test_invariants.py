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
* the GBDT handles arbitrary regression data without crashing and predicts
  finite values, and its trainer grows the same trees as the per-feature
  reference trainer.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro import te
from repro.codegen.lowering import lower_state
from repro.cost_model.features import extract_program_features
from repro.cost_model.gbdt import GBDTRegressor
from repro.hardware import CostSimulator, intel_cpu
from repro.ir.state import steps_fingerprint
from repro.ir.steps import SplitStep
from repro.search import (
    BeamSearchPolicy,
    generate_sketches,
    mutate_tile_size,
    node_based_crossover,
    random_factor_split,
    random_mutation,
    sample_complete_program,
)
from repro.task import SearchTask
from repro.te.dag import ComputeDAG

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
