"""Breeding parity: a bred child costs one replay of the steps it changed
and no second booster call, and seeded breeding is unchanged.

These references are kept here verbatim from the code they replaced:

* ``reference_mutate_tile_size`` replays every step before the chosen split
  on a scratch state to read that split's extent; the library reads the
  extent the parent's own step recorded when it was applied;
* ``reference_select_parent`` draws a parent with ``rng.choice(n, p=p)``
  from the probabilities of ``reference_selection_probabilities``; the
  library draws from one normalized CDF per generation;
* the reference operators (``reference_random_mutation`` and the operators
  it draws, and ``reference_node_based_crossover``) copy every step of the
  parent, replay the child from the DAG, draw the operator with
  ``rng.choice(4, p=weights)`` and draw list elements with
  ``rng.choice(seq)``; the library shares the parent's steps before the
  first one a child changes, replays the child from the stages its parent
  recorded there, draws the operator from one CDF and draws list elements
  as ``seq[int(rng.integers(len(seq)))]``.  The library and
  ``reference_node_based_crossover`` both visit crossover's nodes in the
  DAG's topological order: the reference does not pin that order, and
  ``tests/search/test_mutation.py`` checks that a seeded session does not
  follow the interpreter's hash seed;
* ``reference_node_scores`` scores a crossover parent's nodes from the
  parent itself, so a re-discovered program (a state bred again with the
  steps of a program the search already scored, which carries that score
  but none of the booster rows batched prediction kept) runs the booster
  a second time; the library takes the node scores from the state the
  search scored for the program.

A search that runs on the references (and on the per-parent booster call
of ``reference_predict_stages``, and the serialization round trip of
``reference_step_copy``) must breed the same children and leave every RNG
in the same state.
"""

from typing import Dict, List, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cost_model import LearnedCostModel
from repro.cost_model.features import extract_program_features
from repro.hardware import MeasureInput, MeasurePipeline, intel_cpu
from repro.hardware.platform import wide_vector_cpu
from repro.ir.state import State
from repro.ir.steps import AnnotationStep, ComputeAtStep, FuseStep, PragmaStep, SplitStep, Step, step_from_dict
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


def reference_mutate_auto_unroll(
    state: State, rng: np.random.Generator, options: SearchSpaceOptions = FULL_SPACE,
    *, replays=None,
) -> Optional[State]:
    """Change the value of one auto_unroll_max_step pragma."""
    steps = [s.copy() for s in state.transform_steps]
    pragma_ids = [i for i, s in enumerate(steps) if isinstance(s, PragmaStep)]
    if not pragma_ids:
        return None
    target = steps[int(rng.choice(pragma_ids))]
    assert isinstance(target, PragmaStep)
    choices = [c for c in options.auto_unroll_candidates if c != target.value]
    if not choices:
        return None
    target.value = int(rng.choice(choices))
    return _try_replay(state.dag, steps, replays=replays)


def reference_mutate_parallel_degree(
    state: State, rng: np.random.Generator, options: SearchSpaceOptions = FULL_SPACE,
    *, replays=None,
) -> Optional[State]:
    """Parallel granularity mutation (§5.1).

    Change the number of loop levels fused into the parallel loop by one,
    either coarsening (fuse one more level) or refining (drop one level).
    """
    steps = [s.copy() for s in state.transform_steps]
    # Find fuse steps whose stage later receives a parallel annotation on
    # iterator 0 — those are the parallel fusions created by annotation.
    candidates = []
    for i, step in enumerate(steps):
        if not isinstance(step, FuseStep) or step.iter_ids[0] != 0:
            continue
        for later in steps[i + 1:]:
            if (
                isinstance(later, AnnotationStep)
                and later.stage_name == step.stage_name
                and later.annotation == "parallel"
                and later.iter_id == 0
            ):
                candidates.append(i)
                break
    if not candidates:
        return None
    idx = int(rng.choice(candidates))
    fuse = steps[idx]
    assert isinstance(fuse, FuseStep)
    if rng.random() < 0.5 and len(fuse.iter_ids) > 2:
        fuse.iter_ids = fuse.iter_ids[:-1]
    else:
        fuse.iter_ids = fuse.iter_ids + [fuse.iter_ids[-1] + 1]
    return _try_replay(state.dag, steps, replays=replays)


def reference_mutate_compute_location(
    state: State, rng: np.random.Generator, options: SearchSpaceOptions = FULL_SPACE,
    *, replays=None,
) -> Optional[State]:
    """Move a compute_at attachment one loop up or down in its target stage."""
    if not options.enable_compute_location_change:
        return None
    steps = [s.copy() for s in state.transform_steps]
    at_ids = [i for i, s in enumerate(steps) if isinstance(s, ComputeAtStep)]
    if not at_ids:
        return None
    target = steps[int(rng.choice(at_ids))]
    assert isinstance(target, ComputeAtStep)
    delta = int(rng.choice([-1, 1]))
    if target.target_iter + delta < 0:
        return None
    target.target_iter += delta
    return _try_replay(state.dag, steps, replays=replays)


REFERENCE_OPERATORS = [
    (reference_mutate_tile_size, 0.55),
    (reference_mutate_auto_unroll, 0.15),
    (reference_mutate_parallel_degree, 0.15),
    (reference_mutate_compute_location, 0.15),
]


def reference_random_mutation(
    state: State,
    rng: np.random.Generator,
    options: SearchSpaceOptions = FULL_SPACE,
    max_attempts: int = 4,
    *,
    replays=None,
) -> Optional[State]:
    """Apply one randomly chosen mutation operator; retry a few times."""
    operators = [op for op, _ in REFERENCE_OPERATORS]
    weights = np.array([w for _, w in REFERENCE_OPERATORS])
    weights = weights / weights.sum()
    for _ in range(max_attempts):
        op = operators[int(rng.choice(len(operators), p=weights))]
        child = op(state, rng, options, replays=replays)
        if child is not None:
            return child
    return None


def reference_node_based_crossover(
    parent_a: State,
    parent_b: State,
    node_scores_a,
    node_scores_b,
    rng: np.random.Generator,
    *,
    replays=None,
) -> Optional[State]:
    """Combine the rewriting steps of two parents at node granularity."""
    total_a = sum(node_scores_a.values())
    total_b = sum(node_scores_b.values())
    if total_b > total_a:
        parent_a, parent_b = parent_b, parent_a
        node_scores_a, node_scores_b = node_scores_b, node_scores_a

    named = {
        node
        for node in (
            [mutation._node_of_step(s) for s in parent_a.transform_steps]
            + [mutation._node_of_step(s) for s in parent_b.transform_steps]
        )
        if node is not None
    }
    rank = {op.name: i for i, op in enumerate(parent_a.dag.ops)}
    nodes = sorted(named, key=lambda node: (rank.get(node, len(rank)), node))
    take_from_b = set()
    for node in nodes:
        score_a = node_scores_a.get(node)
        score_b = node_scores_b.get(node)
        if score_a is None or score_b is None:
            if rng.random() < 0.25:
                take_from_b.add(node)
        elif score_b > score_a:
            take_from_b.add(node)
        elif score_b == score_a and rng.random() < 0.5:
            take_from_b.add(node)
    if not take_from_b:
        # Nothing to exchange; force a random node swap so crossover explores.
        if nodes:
            take_from_b.add(rng.choice(sorted(nodes)))

    merged: List[Step] = []
    inserted_b_nodes = set()
    for step in parent_a.transform_steps:
        node = mutation._node_of_step(step)
        if node in take_from_b:
            if node not in inserted_b_nodes:
                inserted_b_nodes.add(node)
                for other in parent_b.transform_steps:
                    if mutation._node_of_step(other) == node:
                        merged.append(other.copy())
            continue
        merged.append(step.copy())
    # Nodes present only in parent_b's history.
    for node in [n for n in nodes if n in take_from_b and n not in inserted_b_nodes]:
        for other in parent_b.transform_steps:
            if mutation._node_of_step(other) == node:
                merged.append(other.copy())

    return _try_replay(parent_a.dag, merged, replays=replays)


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


def reference_node_scores(self, state: State) -> Dict[str, float]:
    return evolutionary._node_scores_for(self.cost_model, self.task, state, self._node_scores_cache)


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
    skipped = 0
    for index, parent in enumerate(population):
        del applied[:]
        child = mutate_tile_size(parent, np.random.default_rng(index))
        if child is None:
            assert not applied
            continue
        target_idx = next(
            i for i, (mine, theirs) in enumerate(zip(child.transform_steps, parent.transform_steps))
            if mine.to_dict() != theirs.to_dict()
        )
        # One replay of the steps from the changed split on, nothing else.
        assert len(applied) == len(child.transform_steps) - target_idx
        skipped += target_idx
    assert skipped


def _node_scores(state, rng):
    nodes = {mutation._node_of_step(step) for step in state.transform_steps} - {None}
    return {node: float(rng.integers(3)) for node in sorted(nodes)}


def _crossover(reference):
    """Crossover of a parent and the population member after it, with
    node scores that tie, differ or are missing."""
    def breed(parent, rng, population, index):
        other = population[(index + 1) % len(population)]
        scores = np.random.default_rng(index)
        node_scores = _node_scores(parent, scores), _node_scores(other, scores)
        if index % 3 == 0:
            node_scores = {}, {}
        return reference(parent, other, *node_scores, rng)
    return breed


def _mutation(operator):
    return lambda parent, rng, population, index: operator(parent, rng)


OPERATORS = {
    "tile_size": (mutate_tile_size, reference_mutate_tile_size),
    "auto_unroll": (mutation.mutate_auto_unroll, reference_mutate_auto_unroll),
    "parallel_degree": (mutation.mutate_parallel_degree, reference_mutate_parallel_degree),
    "compute_location": (mutation.mutate_compute_location, reference_mutate_compute_location),
    "random_mutation": (random_mutation, reference_random_mutation),
}


@pytest.mark.parametrize("name", sorted(TASKS))
@pytest.mark.parametrize("operator", sorted(OPERATORS) + ["crossover"])
def test_operators_match_choice_references(name, operator):
    if operator == "crossover":
        breed, reference = _crossover(mutation.node_based_crossover), _crossover(reference_node_based_crossover)
    else:
        breed, reference = (_mutation(op) for op in OPERATORS[operator])
    population = _population(TASKS[name](), 0)
    bred = 0
    for index, parent in enumerate(population):
        for draw in range(2):
            seed = 100 * index + draw
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            child = breed(parent, rng, population, index)
            expected = reference(parent, ref_rng, population, index)
            assert _fingerprint(child) == _fingerprint(expected)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            bred += child is not None
    assert bred


def test_tile_mutation_raises_on_an_unapplied_parent():
    task = _matmul_task()
    applied = State.from_dag(task.compute_dag).split("C", 0, [4, 8])
    unapplied = State(task.compute_dag, applied.stages, [SplitStep("C", 0, [4, 8])])
    assert mutate_tile_size(applied, np.random.default_rng(0)) is not None
    with pytest.raises(ValueError, match="no recorded extent"):
        mutate_tile_size(unapplied, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------

_NAMES = st.text("abcdefghijklmnopqrstuvwxyz_.0123456789", min_size=1, max_size=8)


@given(
    values=st.one_of(
        st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=97),
        st.lists(_NAMES, min_size=1, max_size=97),
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_list_draws_match_generator_choice(values, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        drawn, expected = mutation._draw(values, rng), ref_rng.choice(values)
        assert drawn == expected and type(drawn) is type(values[0])
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(
    weights=st.one_of(
        st.just([w for _, w in mutation.MUTATION_OPERATORS]),
        st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8),
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_operator_draws_match_generator_choice(weights, seed):
    cdf = mutation._weights_cdf([(None, w) for w in weights])
    probabilities = np.array(weights)
    probabilities = probabilities / probabilities.sum()
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(8):
        drawn = int(cdf.searchsorted(rng.random(), side="right"))
        assert drawn == int(ref_rng.choice(len(weights), p=probabilities))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_random_mutation_follows_a_replaced_operator_list(monkeypatch):
    population = _population(_matmul_task(), 2, count=4, chain=0)
    drawn = []

    def only(state, rng, options, *, replays=None):
        drawn.append(state)
        return None

    monkeypatch.setattr(mutation, "MUTATION_OPERATORS", [(only, 1.0)])
    assert random_mutation(population[0], np.random.default_rng(0)) is None
    assert drawn == [population[0]] * 4


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


def _search(task, seed, population=None):
    """The best programs and final RNG states of one seeded search, and the
    booster calls it made outside batched prediction."""
    model = _trained_model(task)
    if population is None:
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

    monkeypatch.setattr(evolutionary, "random_mutation", reference_random_mutation)
    monkeypatch.setattr(evolutionary, "node_based_crossover", reference_node_based_crossover)
    monkeypatch.setattr(evolutionary, "_selection_cdf", reference_selection_probabilities)
    monkeypatch.setattr(EvolutionarySearch, "_select_parent", reference_select_parent)
    monkeypatch.setattr(LearnedCostModel, "predict_stages", reference_predict_stages)
    monkeypatch.setattr(Step, "copy", reference_step_copy)
    monkeypatch.delattr(SplitStep, "copy")
    ref_best, ref_rng_state, ref_model_rng_state, ref_booster_calls = _search(task, 3)

    assert best == ref_best
    assert rng_state == ref_rng_state
    assert model_rng_state == ref_model_rng_state
    # The reference scored crossover parents with a second booster call.
    assert not all(ref_booster_calls)


def _search_breeding(task, seed, monkeypatch):
    """:func:`_search` from an initial population that holds every program
    twice: the sampled states, then each one replayed again from its steps,
    a re-discovered program that carries the first state's score but none
    of its booster rows.  Also returns every child the search bred (in
    order) and whether a crossover had a re-discovered parent."""
    sampled = _population(task, seed, count=8, chain=0)
    population = sampled + [task.compute_dag.replay_steps(state.transform_steps) for state in sampled]
    children, rediscovered = [], []

    def recording_mutation(*args, **kwargs):
        child = mutation.random_mutation(*args, **kwargs)
        children.append(_fingerprint(child))
        return child

    def recording_crossover(parent_a, parent_b, *args, **kwargs):
        rediscovered.append(parent_a._stage_rows is None or parent_b._stage_rows is None)
        child = mutation.node_based_crossover(parent_a, parent_b, *args, **kwargs)
        children.append(_fingerprint(child))
        return child

    monkeypatch.setattr(evolutionary, "random_mutation", recording_mutation)
    monkeypatch.setattr(evolutionary, "node_based_crossover", recording_crossover)
    return _search(task, seed, population) + (children, rediscovered)


@pytest.mark.parametrize("name", sorted(TASKS))
def test_rediscovered_crossover_parent_costs_no_booster_call(name, monkeypatch):
    """A re-discovered program's node scores come from the rows batched
    prediction kept on the state the search scored for it.  The first
    crossover has a re-discovered parent."""
    task = TASKS[name]()
    best, rng_state, model_rng_state, booster_calls, children, rediscovered = _search_breeding(
        task, 4, monkeypatch
    )
    assert rediscovered[0]
    assert booster_calls and all(booster_calls)

    monkeypatch.setattr(EvolutionarySearch, "_node_scores", reference_node_scores)
    ref_best, ref_rng_state, ref_model_rng_state, ref_booster_calls, ref_children, _ = _search_breeding(
        task, 4, monkeypatch
    )
    assert children == ref_children
    assert best == ref_best
    assert rng_state == ref_rng_state
    assert model_rng_state == ref_model_rng_state
    # The reference ran the booster again on the re-discovered parent.
    assert not all(ref_booster_calls)
