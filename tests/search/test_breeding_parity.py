"""Breeding parity: a bred child costs one replay and no second booster
call, and seeded breeding is unchanged.

Two references are kept here verbatim from the code they replaced:

* ``reference_mutate_tile_size`` replays every step before the chosen split
  on a scratch state to read that split's extent; the library reads the
  extent the parent's own step recorded when it was applied;
* ``reference_select_parent`` draws a parent with ``rng.choice(n, p=p)``
  from the probabilities of ``reference_selection_probabilities``; the
  library draws from one normalized CDF per generation.

A search that runs on the references (and on the per-parent booster call
of ``reference_predict_stages``, and the serialization round trip of
``reference_step_copy``) must breed the same children and leave every RNG
in the same state.
"""

from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cost_model import LearnedCostModel
from repro.cost_model.features import clear_feature_cache, extract_program_features
from repro.hardware import MeasureInput, MeasurePipeline, intel_cpu
from repro.hardware.platform import wide_vector_cpu
from repro.ir.state import State
from repro.ir.steps import SplitStep, Step, step_from_dict
from repro.search import (
    EvolutionarySearch,
    evolutionary,
    generate_sketches,
    mutate_tile_size,
    mutation,
    random_mutation,
    sample_initial_population,
)
from repro.search.mutation import _divisors, _try_replay
from repro.search.space import FULL_SPACE, SearchSpaceOptions
from repro.task import SearchTask
from repro.variants.registry import expand_variants
from repro.workloads.networks import mobilenet_v2_tasks
from repro.workloads.ops import matmul_relu


# ---------------------------------------------------------------------------
# References (the replaced implementations)
# ---------------------------------------------------------------------------


def reference_mutate_tile_size(
    state: State, rng: np.random.Generator, options: SearchSpaceOptions = FULL_SPACE,
    *, replays=None,
) -> Optional[State]:
    """Tile size mutation (§5.1).

    Pick one concrete split step, divide one of its parts by a random factor
    and multiply another part by the same factor.  The product of the tile
    sizes is preserved, so the mutated program is always valid.
    """
    steps = [s.copy() for s in state.transform_steps]
    split_ids = [
        i
        for i, s in enumerate(steps)
        if isinstance(s, SplitStep) and not s.is_placeholder and len(s.lengths) >= 1
    ]
    if not split_ids:
        return None
    target_idx = int(rng.choice(split_ids))
    target = steps[target_idx]
    assert isinstance(target, SplitStep)
    # Reconstruct the full extent of the original iterator to derive the
    # implicit outer part.
    scratch = state.dag.init_state()
    outer = None
    for i, step in enumerate(state.transform_steps):
        if i == target_idx:
            stage = scratch.stage(target.stage_name)
            extent = stage.iters[target.iter_id].extent
            inner = 1
            for length in target.concrete_lengths():
                inner *= length
            outer = extent // inner
            break
        scratch.apply_step(step.copy())
    if outer is None:
        return None

    parts = [outer] + list(target.concrete_lengths())
    candidates = [i for i, p in enumerate(parts) if p > 1]
    if not candidates:
        return None
    src = int(rng.choice(candidates))
    dst_choices = [i for i in range(len(parts)) if i != src]
    dst = int(rng.choice(dst_choices))
    divisors = [d for d in _divisors(parts[src]) if d > 1]
    if not divisors:
        return None
    factor = int(rng.choice(divisors))
    parts[src] //= factor
    parts[dst] *= factor
    if parts[-1] > options.max_innermost_split_factor:
        return None
    target.lengths = parts[1:]
    return _try_replay(state.dag, steps, replays=replays)


def reference_selection_probabilities(scores: np.ndarray) -> np.ndarray:
    # Selection probabilities proportional to fitness.
    shifted = scores - scores.min()
    if shifted.sum() <= 0:
        probabilities = np.full(len(scores), 1.0 / len(scores))
    else:
        probabilities = shifted / shifted.sum()
    return probabilities


def reference_select_parent(self, population: List[State], probabilities: np.ndarray) -> State:
    idx = int(self.rng.choice(len(population), p=probabilities))
    return population[idx]


def reference_predict_stages(self, task, state: State) -> np.ndarray:
    if not self._trained:
        return self.rng.random(max(len(state.compute_stages()), 1))
    features = extract_program_features(state)
    if features.shape[0] == 0:
        return np.zeros(1)
    return self.booster.predict(features)


def reference_step_copy(self) -> Step:
    return step_from_dict(self.to_dict())


# ---------------------------------------------------------------------------
# Tasks and populations
# ---------------------------------------------------------------------------

CONV2D_PARAMS = dict(
    batch=1, in_channels=16, height=14, width=14,
    out_channels=16, kernel=3, stride=2, padding=1,
)


def _matmul_task():
    return SearchTask(matmul_relu(128, 128, 128), intel_cpu())


def _conv2d_variant_task():
    tasks = expand_variants("conv2d", CONV2D_PARAMS, hardware=wide_vector_cpu())
    return next(task for task in tasks if task.variant == "im2col")


def _depthwise_task():
    layer = next(t for t in mobilenet_v2_tasks() if "depthwise" in t.desc)
    return SearchTask(layer.dag, intel_cpu())


TASKS = {
    "matmul_relu": _matmul_task,
    "conv2d_im2col": _conv2d_variant_task,
    "mobilenet_depthwise": _depthwise_task,
}


def _population(task, seed, count=16, chain=2):
    """Seeded complete programs of ``task``, then a short chain of random
    mutations from each."""
    rng = np.random.default_rng(seed)
    states = sample_initial_population(task, generate_sketches(task), count, rng)
    children = []
    for state in states:
        for _ in range(chain):
            state = random_mutation(state, rng)
            if state is None:
                break
            children.append(state)
    return states + children


def _fingerprint(state: Optional[State]) -> Optional[str]:
    return None if state is None else state.fingerprint()


@pytest.fixture(autouse=True)
def cold_caches():
    clear_feature_cache()
    yield
    clear_feature_cache()


# ---------------------------------------------------------------------------
# Tile-size mutation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TASKS))
def test_tile_mutation_matches_prefix_replay(name):
    population = _population(TASKS[name](), 0)
    assert len(population) > 16
    bred = 0
    for index, parent in enumerate(population):
        for draw in range(4):
            seed = 100 * index + draw
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            child = mutate_tile_size(parent, rng)
            expected = reference_mutate_tile_size(parent, ref_rng)
            assert _fingerprint(child) == _fingerprint(expected)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            bred += child is not None
    assert bred > len(population)


def test_tile_mutation_does_not_replay_the_prefix(monkeypatch):
    population = _population(_matmul_task(), 1, count=8, chain=0)
    applied = []
    apply_step = State.apply_step

    def counting(self, step):
        applied.append(step)
        return apply_step(self, step)

    monkeypatch.setattr(State, "apply_step", counting)
    for index, parent in enumerate(population):
        del applied[:]
        child = mutate_tile_size(parent, np.random.default_rng(index))
        # One replay of the child's steps, nothing else.
        assert len(applied) == (0 if child is None else len(child.transform_steps))


def test_tile_mutation_raises_on_an_unapplied_parent():
    task = _matmul_task()
    applied = State.from_dag(task.compute_dag).split("C", 0, [4, 8])
    unapplied = State(task.compute_dag, applied.stages, [SplitStep("C", 0, [4, 8])])
    assert mutate_tile_size(applied, np.random.default_rng(0)) is not None
    with pytest.raises(ValueError, match="no recorded extent"):
        mutate_tile_size(unapplied, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Parent selection
# ---------------------------------------------------------------------------

#: fitness scores as the search sees them: ties at the minimum (which give
#: zero probabilities) and the -1e9 of a program that failed to featurize
_SCORES = st.lists(
    st.one_of(st.just(0.0), st.just(-1e9), st.floats(-1e3, 1e3, allow_nan=False)),
    min_size=1,
    max_size=64,
)


_SELECTION_TASK = SearchTask(matmul_relu(8, 8, 8), intel_cpu())


def _assert_same_draws(scores: np.ndarray, seed: int, draws: int = 16) -> None:
    population = [object() for _ in scores]
    search, reference = (
        EvolutionarySearch(_SELECTION_TASK, None, seed=seed) for _ in range(2)
    )
    cdf = evolutionary._selection_cdf(scores)
    probabilities = reference_selection_probabilities(scores)
    for _ in range(draws):
        assert search._select_parent(population, cdf) is reference_select_parent(
            reference, population, probabilities
        )
    assert search.rng.bit_generator.state == reference.rng.bit_generator.state


@given(scores=_SCORES, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_cdf_draws_match_generator_choice(scores, seed):
    scores = np.asarray(scores, dtype=np.float64)
    if np.ptp(scores) > 0:
        assert (reference_selection_probabilities(scores) == 0).any()
    _assert_same_draws(scores, seed)


@given(n=st.integers(1, 64), value=st.floats(-1e9, 1e3, allow_nan=False), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_cdf_draws_match_generator_choice_on_the_uniform_fallback(n, value, seed):
    scores = np.full(n, value)
    assert np.array_equal(reference_selection_probabilities(scores), np.full(n, 1.0 / n))
    _assert_same_draws(scores, seed)


def test_non_finite_scores_raise_like_generator_choice():
    for scores in ([1.0, np.nan], [np.inf, 1.0], [-np.inf, 1.0]):
        scores = np.asarray(scores)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                np.random.default_rng(0).choice(2, p=reference_selection_probabilities(scores))
            with pytest.raises(ValueError):
                evolutionary._selection_cdf(scores)


# ---------------------------------------------------------------------------
# Whole searches
# ---------------------------------------------------------------------------


def _trained_model(task, seed=0):
    states = sample_initial_population(
        task, generate_sketches(task), 12, np.random.default_rng(seed + 50)
    )
    inputs = [MeasureInput(task, state) for state in states]
    results = MeasurePipeline(task.hardware_params, seed=seed).measure(inputs)
    model = LearnedCostModel(n_rounds=10, seed=seed)
    model.update(inputs, results)
    assert model.is_trained
    return model


def _search(task, seed):
    """The best programs and final RNG states of one seeded search, and the
    booster calls it made outside batched prediction."""
    model = _trained_model(task)
    population = _population(task, seed, count=12, chain=1)
    search = EvolutionarySearch(
        task, model, population_size=16, num_generations=3, mutation_prob=0.6, seed=seed
    )
    predicting = []
    booster_calls = []
    predict, booster_predict = model.predict, model.booster.predict

    def counting_predict(*args):
        predicting.append(True)
        try:
            return predict(*args)
        finally:
            predicting.pop()

    def counting_booster(features):
        booster_calls.append(bool(predicting))
        return booster_predict(features)

    model.predict, model.booster.predict = counting_predict, counting_booster
    best = search.search(population, num_best=8)
    return (
        [state.fingerprint() for state in best],
        search.rng.bit_generator.state,
        model.rng.bit_generator.state,
        booster_calls,
    )


@pytest.mark.parametrize("name", sorted(TASKS))
def test_seeded_search_matches_reference_breeding(name, monkeypatch):
    task = TASKS[name]()
    best, rng_state, model_rng_state, booster_calls = _search(task, 3)
    # One booster call per scored batch, none for crossover's node scores.
    assert booster_calls and all(booster_calls)

    monkeypatch.setattr(
        mutation,
        "MUTATION_OPERATORS",
        [
            (reference_mutate_tile_size if op is mutate_tile_size else op, weight)
            for op, weight in mutation.MUTATION_OPERATORS
        ],
    )
    monkeypatch.setattr(evolutionary, "_selection_cdf", reference_selection_probabilities)
    monkeypatch.setattr(EvolutionarySearch, "_select_parent", reference_select_parent)
    monkeypatch.setattr(LearnedCostModel, "predict_stages", reference_predict_stages)
    monkeypatch.setattr(Step, "copy", reference_step_copy)
    monkeypatch.delattr(SplitStep, "copy")
    clear_feature_cache()
    ref_best, ref_rng_state, ref_model_rng_state, ref_booster_calls = _search(task, 3)

    assert best == ref_best
    assert rng_state == ref_rng_state
    assert model_rng_state == ref_model_rng_state
    # The reference scored crossover parents with a second booster call.
    assert not all(ref_booster_calls)
