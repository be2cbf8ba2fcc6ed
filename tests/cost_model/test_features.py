"""Tests for the Appendix-B program feature extraction."""

import numpy as np
import pytest

from repro.cost_model import features as features_module
from repro.cost_model.features import (
    FEATURE_LENGTH,
    extract_nest_features,
    extract_program_features,
    extract_program_features_batch,
    feature_names,
)
from repro.codegen.lowering import lower_state

from ..conftest import make_matmul_relu_dag


@pytest.fixture
def dag():
    return make_matmul_relu_dag()


def test_feature_length_matches_names():
    names = feature_names()
    assert len(names) == FEATURE_LENGTH
    assert len(set(names)) == FEATURE_LENGTH  # no duplicates
    # Appendix B reports a feature vector of length 164; ours is the same
    # design with the same groups and a comparable length.
    assert 140 <= FEATURE_LENGTH <= 180


def test_program_features_one_row_per_statement(dag):
    features = extract_program_features(dag.init_state())
    assert features.shape == (2, FEATURE_LENGTH)  # C and D


def test_inlined_stage_removes_a_row(dag):
    state = dag.init_state()
    state.compute_inline("C")
    features = extract_program_features(state)
    assert features.shape[0] == 1


def test_features_are_finite(dag):
    state = dag.init_state()
    state.split("C", 0, [16])
    state.split("C", 2, [16])
    state.reorder("C", [0, 2, 1, 3, 4])
    state.fuse("C", [0, 1])
    state.parallel("C", 0)
    state.vectorize("C", 3)
    state.pragma("C", "auto_unroll_max_step", 64)
    state.compute_at("D", "C", 0)
    features = extract_program_features(state)
    assert np.isfinite(features).all()
    assert (features >= 0).all()


def test_vectorize_annotation_changes_features(dag):
    base = dag.init_state()
    annotated = dag.init_state()
    annotated.vectorize("C", 1)
    f_base = extract_program_features(base)
    f_annotated = extract_program_features(annotated)
    names = feature_names()
    vec_len_idx = names.index("vec_len")
    assert f_annotated[0, vec_len_idx] > f_base[0, vec_len_idx]


def test_parallel_annotation_changes_features(dag):
    base = dag.init_state()
    annotated = dag.init_state()
    annotated.parallel("C", 0)
    names = feature_names()
    idx = names.index("parallel_len")
    assert extract_program_features(annotated)[0, idx] > extract_program_features(base)[0, idx]


def test_unroll_pragma_feature(dag):
    state = dag.init_state()
    state.pragma("C", "auto_unroll_max_step", 512)
    names = feature_names()
    idx = names.index("auto_unroll_max_step")
    assert extract_program_features(state)[0, idx] == pytest.approx(np.log2(1 + 512))


def test_tile_size_changes_buffer_features(dag):
    naive = extract_program_features(dag.init_state())
    tiled_state = dag.init_state()
    tiled_state.split("C", 0, [8])
    tiled_state.split("C", 2, [8])
    tiled_state.reorder("C", [0, 2, 4, 1, 3])
    tiled = extract_program_features(tiled_state)
    # Something in the buffer-access block must change (reuse structure).
    assert not np.allclose(naive[0], tiled[0])


def test_nest_features_match_program_rows(dag):
    state = dag.init_state()
    program = lower_state(state)
    rows = extract_program_features(state)
    for idx, nest in enumerate(program.all_nests()):
        np.testing.assert_allclose(rows[idx], extract_nest_features(nest))


def test_outer_loop_features_for_attached_stage(dag):
    state = dag.init_state()
    state.split("C", 0, [16])
    state.split("C", 2, [16])
    state.reorder("C", [0, 2, 1, 3, 4])
    state.compute_at("D", "C", 1)
    features = extract_program_features(state)
    names = feature_names()
    idx_num = names.index("outer_loop_num")
    program = lower_state(state)
    d_row = [i for i, nest in enumerate(program.all_nests()) if nest.name == "D"][0]
    assert features[d_row, idx_num] > 0


def _unlowerable_state(dag):
    """Each of C and D computed at a loop of the other: a cycle no lowering
    can nest."""
    state = dag.init_state()
    state.compute_at("D", "C", 0)
    state.compute_at("C", "D", 0)
    with pytest.raises(RecursionError):
        lower_state(state)
    return state


def test_batch_gives_none_only_for_a_state_that_fails_to_lower(dag):
    tiled = dag.init_state()
    tiled.split("C", 0, [8])
    states = [dag.init_state(), _unlowerable_state(dag), tiled]
    out = extract_program_features_batch(states)
    assert len(out) == 3 and out[1] is None
    for index in (0, 2):
        assert np.array_equal(out[index], extract_program_features(states[index].copy()))


def test_batch_raises_when_featurizing_a_lowered_program_fails(dag, monkeypatch):
    def broken(loops, accesses):
        raise RuntimeError("injected featurizer fault")

    monkeypatch.setattr(features_module, "suffix_footprints", broken)
    with pytest.raises(RuntimeError, match="injected featurizer fault"):
        extract_program_features_batch([dag.init_state()])
