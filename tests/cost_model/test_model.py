"""Tests for the learned cost model and the random baseline model."""

import numpy as np
import pytest

from repro.cost_model import LearnedCostModel, RandomCostModel
from repro.hardware import CostSimulator, MeasureInput, MeasurePipeline, intel_cpu
from repro.search import generate_sketches, sample_initial_population
from repro.task import SearchTask

from ..conftest import make_matmul_relu_dag


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(256, 256, 256), intel_cpu(), desc="matmul256")


def _sample_and_measure(task, count, seed=0):
    rng = np.random.default_rng(seed)
    sketches = generate_sketches(task)
    states = sample_initial_population(task, sketches, count, rng)
    measurer = MeasurePipeline(task.hardware_params, seed=seed)
    inputs = [MeasureInput(task, s) for s in states]
    results = measurer.measure(inputs)
    return inputs, results


def test_random_model_predicts_in_unit_interval(task):
    model = RandomCostModel(seed=0)
    states = [task.compute_dag.init_state() for _ in range(5)]
    scores = model.predict(task, states)
    assert scores.shape == (5,)
    assert ((scores >= 0) & (scores <= 1)).all()


def test_random_model_update_is_noop(task):
    model = RandomCostModel()
    model.update([], [])  # must not raise


def test_learned_model_untrained_returns_random_scores(task):
    model = LearnedCostModel()
    scores = model.predict(task, [task.compute_dag.init_state()] * 3)
    assert scores.shape == (3,)
    assert not model.is_trained


def test_learned_model_trains_after_update(task):
    model = LearnedCostModel(n_rounds=10)
    inputs, results = _sample_and_measure(task, 24)
    model.update(inputs, results)
    assert model.is_trained
    assert model.num_samples == sum(1 for r in results if r.valid)


def test_learned_model_ranking_correlates_with_measurement(task):
    """After training, predicted scores must rank programs usefully better
    than chance (the paper's premise for using a learned model)."""
    model = LearnedCostModel(n_rounds=25, seed=0)
    inputs, results = _sample_and_measure(task, 48, seed=1)
    model.update(inputs, results)

    test_inputs, test_results = _sample_and_measure(task, 32, seed=2)
    valid = [(i, r) for i, r in zip(test_inputs, test_results) if r.valid]
    states = [i.state for i, _ in valid]
    measured_throughput = np.array([task.flop_count() / r.mean_cost for _, r in valid])
    predicted = model.predict(task, states)

    rng = np.random.default_rng(0)
    pairs = rng.choice(len(states), size=(300, 2))
    correct = 0
    total = 0
    for a, b in pairs:
        if measured_throughput[a] == measured_throughput[b]:
            continue
        total += 1
        if (measured_throughput[a] > measured_throughput[b]) == (predicted[a] > predicted[b]):
            correct += 1
    assert total > 0
    assert correct / total > 0.6


def test_learned_model_predict_stages_length(task):
    model = LearnedCostModel(n_rounds=5)
    inputs, results = _sample_and_measure(task, 16)
    model.update(inputs, results)
    state = task.compute_dag.init_state()
    per_stage = model.predict_stages(task, state)
    assert len(per_stage) == 2  # C and D statements


def test_learned_model_ignores_invalid_results(task):
    model = LearnedCostModel(n_rounds=5)
    state = task.compute_dag.init_state()
    state.split("C", 0, [None])  # incomplete -> measure error
    measurer = MeasurePipeline(task.hardware_params)
    inputs = [MeasureInput(task, state)]
    results = measurer.measure(inputs)
    model.update(inputs, results)
    assert model.num_samples == 0
    assert not model.is_trained


def test_learned_model_bounds_training_set(task):
    model = LearnedCostModel(n_rounds=2, max_training_samples=10)
    inputs, results = _sample_and_measure(task, 24)
    model.update(inputs, results)
    assert model.num_samples <= 10


def test_labels_normalized_per_workload(task):
    model = LearnedCostModel(n_rounds=2)
    inputs, results = _sample_and_measure(task, 12)
    model.update(inputs, results)
    labels = model._normalized_labels()
    assert labels.max() == pytest.approx(1.0)
    assert (labels >= 0).all() and (labels <= 1.0 + 1e-9).all()


def test_zero_valid_batch_skips_the_refit_entirely(task):
    """An update whose every result errored must return before the retrain
    clock: no refit, no interval consumption — just a skip counter tick."""
    model = LearnedCostModel(n_rounds=5)
    inputs, results = _sample_and_measure(task, 16)
    model.update(inputs, results)
    version_before = model.version
    clock_before = model._updates_since_train

    bad_state = task.compute_dag.init_state()
    bad_state.split("C", 0, [None])  # incomplete -> measure error
    measurer = MeasurePipeline(task.hardware_params)
    bad_inputs = [MeasureInput(task, bad_state)]
    bad_results = measurer.measure(bad_inputs)
    assert not any(r.valid for r in bad_results)

    trains = []
    original = model._train
    model._train = lambda: trains.append(original())
    try:
        model.update(bad_inputs, bad_results)
    finally:
        model._train = original
    assert trains == []  # the refit never ran
    assert model.version == version_before
    assert model._updates_since_train == clock_before
    assert model.retrains_skipped == 1


def test_retrain_full_matches_default_window(task):
    """With the default caps the window covers the whole retained history,
    so the default model predicts bit-identically to one whose window is
    longer than any history (full-history refits)."""
    inputs, results = _sample_and_measure(task, 32)
    test_states = [inp.state for inp in _sample_and_measure(task, 8, seed=7)[0]]
    scores = {}
    for name, window in (("full", 10**6), ("default", None)):
        model = LearnedCostModel(n_rounds=5, retrain_window=window, seed=0)
        model.update(inputs, results)
        scores[name] = model.predict(task, test_states)
    np.testing.assert_array_equal(scores["default"], scores["full"])


def test_window_indices_keep_recent_samples_and_stride_older_history():
    model = LearnedCostModel(retrain_window=8)
    assert model._window_indices(8) is None  # history fits: train on all
    indices = model._window_indices(32)
    assert len(indices) == 8
    # The most recent three quarters of the window are kept verbatim...
    assert list(indices[-6:]) == [26, 27, 28, 29, 30, 31]
    # ...and the remainder strides the older history, in ascending order.
    assert (np.diff(indices) > 0).all()
    assert indices[0] == 0


def test_retrain_interval_defers_refits(task):
    model = LearnedCostModel(n_rounds=2, retrain_interval=2)
    inputs, results = _sample_and_measure(task, 16)
    model.update(inputs[:8], results[:8])
    assert not model.is_trained  # deferred: first of every two batches
    assert model.retrains_skipped == 1
    model.update(inputs[8:], results[8:])
    assert model.is_trained
    assert model.retrains_run == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"retrain_interval": 0},
        {"retrain_window": 1},
    ],
)
def test_invalid_retrain_configuration_raises(kwargs):
    with pytest.raises(ValueError):
        LearnedCostModel(**kwargs)
