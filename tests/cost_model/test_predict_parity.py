"""Parity tests: the vectorized / batched / memoized prediction pipeline
must produce scores identical to the seed per-row implementation.

Three layers are pinned down:

* ``RegressionTree.predict`` (vectorized level-stepping) versus
  ``predict_rowwise`` (the seed per-row traversal) — bit-identical,
* ``GBDTRegressor.predict`` versus ``predict_rowwise`` — bit-identical,
* ``LearnedCostModel.predict`` (batched, memoized features) versus the
  seed path (fresh per-state featurization + per-row booster) on real
  tuned states — identical scores (``np.allclose`` with ``rtol=0``),
* the per-statement rows batched prediction leaves on each scored state
  for ``predict_stages`` versus a fresh booster call — bit-identical,
  never served for another model or another booster version, and never
  pickled.
"""

import copyreg
import io
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.cost_model import LearnedCostModel
from repro.cost_model.features import extract_program_features
from repro.cost_model.gbdt import GBDTRegressor, RegressionTree
from repro.hardware import MeasureInput, MeasurePipeline, intel_cpu
from repro.search import generate_sketches, sample_initial_population
from repro.task import SearchTask

from ..conftest import make_matmul_relu_dag


# ---------------------------------------------------------------------------
# Tree / booster layer: randomized trees
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_tree_vectorized_predict_matches_rowwise_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    n, d = 240, 7
    X = rng.standard_normal((n, d))
    y = 2.0 * X[:, seed % d] + np.sin(X[:, (seed + 1) % d]) + rng.standard_normal(n)
    tree = RegressionTree(max_depth=2 + seed % 4, min_samples_leaf=2).fit(X, y)
    X_test = rng.standard_normal((111, d))
    assert np.array_equal(tree.predict(X_test), tree.predict_rowwise(X_test))


def test_tree_parity_on_single_leaf_tree():
    rng = np.random.default_rng(0)
    X = rng.random((20, 3))
    tree = RegressionTree(max_depth=0).fit(X, rng.random(20))
    assert len(tree.nodes) == 1
    X_test = rng.random((13, 3))
    assert np.array_equal(tree.predict(X_test), tree.predict_rowwise(X_test))


def test_tree_parity_on_empty_matrix():
    rng = np.random.default_rng(1)
    tree = RegressionTree().fit(rng.random((30, 2)), rng.random(30))
    assert tree.predict(np.zeros((0, 2))).shape == (0,)


def test_tree_parity_with_constant_and_duplicate_features():
    rng = np.random.default_rng(2)
    n = 150
    base = rng.random(n)
    X = np.column_stack([base, base, np.full(n, 3.0), rng.integers(0, 3, n).astype(float)])
    y = base * 4 + X[:, 3]
    tree = RegressionTree(max_depth=5).fit(X, y)
    assert np.array_equal(tree.predict(X), tree.predict_rowwise(X))


@pytest.mark.parametrize("seed", range(4))
def test_gbdt_vectorized_predict_matches_rowwise(seed):
    rng = np.random.default_rng(seed)
    X = rng.random((200, 6))
    y = X[:, 0] * X[:, 1] + 0.5 * X[:, 2] + 0.05 * rng.standard_normal(200)
    model = GBDTRegressor(n_rounds=20, max_depth=4, seed=seed).fit(X, y)
    X_test = rng.random((77, 6))
    assert np.array_equal(model.predict(X_test), model.predict_rowwise(X_test))


# ---------------------------------------------------------------------------
# Model layer: real tuned states
# ---------------------------------------------------------------------------


@pytest.fixture
def trained_model_and_states():
    task = SearchTask(make_matmul_relu_dag(64, 64, 64), intel_cpu())
    rng = np.random.default_rng(0)
    sketches = generate_sketches(task)
    states = sample_initial_population(task, sketches, 20, rng)
    assert len(states) >= 8
    measurer = MeasurePipeline(intel_cpu(), seed=0)
    inputs = [MeasureInput(task, s) for s in states[:10]]
    results = measurer.measure(inputs)
    model = LearnedCostModel(n_rounds=10, seed=0)
    model.update(inputs, results)
    assert model.is_trained
    return task, model, states


def test_learned_model_batched_predict_matches_seed_path(trained_model_and_states):
    task, model, states = trained_model_and_states
    batched = model.predict(task, states)
    # The seed path: fresh (unmemoized) featurization per state, per-row
    # booster.
    expected = np.array([
        float(model.booster.predict_rowwise(
            extract_program_features(state.copy())
        ).sum())
        for state in states
    ])
    assert np.allclose(batched, expected, rtol=0, atol=0)
    # Second call reads every state's memoized features — still identical.
    assert np.allclose(model.predict(task, states), expected, rtol=0, atol=0)


def test_cached_feature_extraction_is_identical_to_fresh(trained_model_and_states):
    _, _, states = trained_model_and_states
    for state in states[:6]:
        state = state.copy()                              # carries no memo
        cached = extract_program_features(state)          # fills the memo
        again = extract_program_features(state)           # memo hit
        fresh = extract_program_features(state.copy())
        assert again is cached and state._features is cached
        assert np.array_equal(cached, fresh)
        assert not cached.flags.writeable  # memoized matrices are frozen


def test_predict_stages_uses_same_features_as_predict(trained_model_and_states):
    task, model, states = trained_model_and_states
    state = states[0]
    stage_scores = model.predict_stages(task, state)
    total = model.predict(task, [state])[0]
    assert np.allclose(stage_scores.sum(), total, rtol=0)


def test_normalized_labels_match_reference_loop():
    model = LearnedCostModel()
    model._workloads = ["a", "b", "a", "c", "b", "a", "c"]
    model._throughputs = [1.0, 4.0, 3.0, 0.0, 2.0, 1.5, 0.0]
    labels = model._normalized_labels()
    # Seed implementation: two Python loops over workload keys.
    best = {}
    for key, value in zip(model._workloads, model._throughputs):
        best[key] = max(best.get(key, 0.0), value)
    expected = np.array([
        value / best[key] if best[key] > 0 else 0.0
        for key, value in zip(model._workloads, model._throughputs)
    ])
    assert np.array_equal(labels, expected)


# ---------------------------------------------------------------------------
# Per-statement rows kept for predict_stages
# ---------------------------------------------------------------------------


def _fresh_rows(model, state):
    return model.booster.predict(extract_program_features(state.copy()))


@pytest.fixture
def booster_calls(trained_model_and_states, monkeypatch):
    """Row counts of every booster call the fixture's model makes."""
    _, model, _ = trained_model_and_states
    calls = []
    predict = model.booster.predict

    def counting(features):
        calls.append(len(features))
        return predict(features)

    monkeypatch.setattr(model.booster, "predict", counting)
    return calls


def test_predict_stages_reads_the_rows_of_the_batched_predict(trained_model_and_states, booster_calls):
    task, model, states = trained_model_and_states
    model.predict(task, states)
    assert len(booster_calls) == 1
    for state in states:
        rows = model.predict_stages(task, state)
        assert np.array_equal(rows.view(np.uint64), _fresh_rows(model, state).view(np.uint64))
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0] = 0.0
    # One booster call per state above came from _fresh_rows, none from
    # predict_stages.
    assert len(booster_calls) == 1 + len(states)


def test_predict_stages_after_a_retrain_gives_the_new_boosters_rows(trained_model_and_states):
    task, model, states = trained_model_and_states
    model.predict(task, states)
    before = [model.predict_stages(task, state) for state in states]
    inputs = [MeasureInput(task, s) for s in states[10:]]
    model.update(inputs, MeasurePipeline(intel_cpu(), seed=1).measure(inputs))
    assert model.version == 2
    changed = 0
    for state, old in zip(states, before):
        rows = model.predict_stages(task, state)
        assert np.array_equal(rows, _fresh_rows(model, state))
        changed += not np.array_equal(rows, old)
    assert changed


def test_rows_kept_by_another_model_or_version_are_not_served(trained_model_and_states, monkeypatch):
    task, model, states = trained_model_and_states
    state = states[0]
    other = pickle.loads(pickle.dumps(model))  # trained, same version, another object
    other.predict(task, [state])
    assert state._stage_rows[0] is other and state._stage_rows[1] == model.version
    expected = _fresh_rows(model, state)
    planted = np.full_like(expected, 123.0)
    calls = []
    predict = model.booster.predict

    def counting(features):
        calls.append(len(features))
        return predict(features)

    monkeypatch.setattr(model.booster, "predict", counting)
    for owner, version in ((other, model.version), (model, model.version - 1)):
        state._stage_rows = (owner, version, planted)
        before = len(calls)
        rows = model.predict_stages(task, state)
        assert len(calls) == before + 1
        assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))
    # The same rows, tagged with this model and its current version, are served.
    state._stage_rows = (model, model.version, planted)
    assert model.predict_stages(task, state) is planted
    assert len(calls) == 2


def test_untrained_predict_stages_draws_are_unchanged(trained_model_and_states):
    task, _, states = trained_model_and_states
    model = LearnedCostModel(n_rounds=10, seed=7)
    expected_rng = np.random.default_rng(7)
    assert np.array_equal(model.predict(task, states), expected_rng.random(len(states)))
    for state in states:
        expected = expected_rng.random(max(len(state.compute_stages()), 1))
        assert np.array_equal(model.predict_stages(task, state), expected)
    assert model.rng.bit_generator.state == expected_rng.bit_generator.state
    assert all(state._stage_rows is None for state in states)


def test_kept_rows_never_reach_a_pickle(trained_model_and_states):
    task, model, states = trained_model_and_states
    for state in states:
        state.fingerprint()
    before = pickle.dumps(model)
    state_sizes = [len(pickle.dumps(state)) for state in states]
    model.predict(task, states)
    assert all(state._stage_rows[0] is model for state in states)
    assert len(pickle.dumps(model)) == len(before)
    assert [len(pickle.dumps(state)) for state in states] == state_sizes
    clone = pickle.loads(pickle.dumps(model))
    assert np.array_equal(clone.predict(task, states), model.predict(task, states))
    assert np.array_equal(clone.predict_stages(task, states[0]), model.predict_stages(task, states[0]))


class _EarlierReleasePickler(pickle.Pickler):
    """Pickles a model the way releases without kept rows did: the default
    ``copyreg.__newobj__`` reduction of an instance dict that has no rows."""

    def reducer_override(self, obj):
        if type(obj) is LearnedCostModel:
            state = {k: v for k, v in vars(obj).items() if k != "_stage_rows"}
            return copyreg.__newobj__, (LearnedCostModel,), state
        return NotImplemented


def test_model_pickled_by_an_earlier_release_loads(trained_model_and_states):
    task, model, states = trained_model_and_states
    model.predict(task, states)
    buffer = io.BytesIO()
    _EarlierReleasePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(model)
    earlier = buffer.getvalue()
    assert earlier == pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    loaded = pickle.loads(earlier)
    scores = loaded.predict(task, states)
    assert np.array_equal(scores, model.predict(task, states))
    for state in states:
        assert np.array_equal(loaded.predict_stages(task, state), _fresh_rows(model, state))


def test_rows_kept_during_a_concurrent_retrain_are_not_served_after_it(trained_model_and_states):
    """Threads keep predicting while the main thread retrains; rows a thread
    computed with the old (or a half-fit) booster and kept after the retrain
    must never be served for the new one."""
    task, model, states = trained_model_and_states
    inputs = [MeasureInput(task, s) for s in states]
    results = MeasurePipeline(intel_cpu(), seed=2).measure(inputs)
    batch = states * 4  # a long keep loop straddles the retrain more often
    errors = []

    def predicting(stop):
        try:
            while not stop.is_set():
                model.predict(task, batch)
        except BaseException as error:  # reported by the main thread
            errors.append(error)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            stop = threading.Event()
            threads = [threading.Thread(target=predicting, args=(stop,)) for _ in range(4)]
            try:
                for thread in threads:
                    thread.start()
                model.update(inputs, results)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            for state in states:
                assert np.array_equal(model.predict_stages(task, state), _fresh_rows(model, state))
    finally:
        sys.setswitchinterval(interval)
    assert model.version == 9
