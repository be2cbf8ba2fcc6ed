"""Parity tests: the vectorized / batched / cached prediction pipeline must
produce scores identical to the seed per-row implementation.

Three layers are pinned down:

* ``RegressionTree.predict`` (vectorized level-stepping) versus
  ``predict_rowwise`` (the seed per-row traversal) — bit-identical,
* ``GBDTRegressor.predict`` versus ``predict_rowwise`` — bit-identical,
* ``LearnedCostModel.predict`` (batched, cached features) versus the seed
  path (fresh per-state featurization + per-row booster) on real tuned
  states — identical scores (``np.allclose`` with ``rtol=0``).
"""

import numpy as np
import pytest

from repro.codegen.lowering import clear_lowering_cache
from repro.cost_model import LearnedCostModel
from repro.cost_model.features import clear_feature_cache, extract_program_features
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
    clear_lowering_cache()
    clear_feature_cache()
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
    # The seed path: fresh (uncached) featurization per state, per-row booster.
    expected = np.array([
        float(model.booster.predict_rowwise(
            extract_program_features(state, use_cache=False)
        ).sum())
        for state in states
    ])
    assert np.allclose(batched, expected, rtol=0, atol=0)
    # Second call runs fully out of the feature cache — still identical.
    assert np.allclose(model.predict(task, states), expected, rtol=0, atol=0)


def test_cached_feature_extraction_is_identical_to_fresh(trained_model_and_states):
    _, _, states = trained_model_and_states
    clear_lowering_cache()
    clear_feature_cache()
    for state in states[:6]:
        cached = extract_program_features(state)          # fills the cache
        again = extract_program_features(state)           # cache hit
        fresh = extract_program_features(state, use_cache=False)
        assert again is cached
        assert np.array_equal(cached, fresh)
        assert not cached.flags.writeable  # cached matrices are frozen


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
