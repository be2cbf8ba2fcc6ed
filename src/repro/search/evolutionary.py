"""Evolutionary search guided by the learned cost model (§5.1).

The evolution starts from an initial population (freshly sampled programs
plus good programs from previous measurements).  Each generation selects
parents with probability proportional to their predicted fitness and applies
mutation or node-based crossover to produce offspring.  After a fixed number
of generations the best programs found during the whole search (by predicted
score) are returned for measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cost_model.model import CostModel
from ..ir.state import State
from ..task import SearchTask
from .mutation import node_based_crossover, random_mutation
from .space import FULL_SPACE, SearchSpaceOptions

__all__ = ["EvolutionarySearch", "EvolutionOptions"]


@dataclass
class EvolutionOptions:
    population_size: int = 64
    num_generations: int = 4
    mutation_prob: float = 0.85
    elite_fraction: float = 0.1


def _score_with_cache(
    cost_model: CostModel,
    task: SearchTask,
    population: List[State],
    scored: Dict[str, Tuple[float, State]],
) -> np.ndarray:
    """Scores for ``population``, predicting only not-yet-seen programs.

    One batched ``cost_model.predict`` call covers all fresh programs, and
    every distinct program is predicted exactly once per search: elites
    (and any re-discovered program) carry their score from the generation
    that first produced them.  ``scored`` maps each program's fingerprint
    to its score and the state that was scored, in the order the programs
    were first scored.
    """
    fresh: List[State] = []
    fresh_keys: List[str] = []
    fresh_seen: set = set()
    for state in population:
        key = state.fingerprint()
        if key not in scored and key not in fresh_seen:
            fresh.append(state)
            fresh_keys.append(key)
            fresh_seen.add(key)
    if fresh:
        predicted = np.asarray(cost_model.predict(task, fresh), dtype=np.float64)
        for key, state, score in zip(fresh_keys, fresh, predicted):
            scored[key] = (float(score), state)
    return np.asarray([scored[s.fingerprint()][0] for s in population], dtype=np.float64)


def _selection_cdf(scores: np.ndarray) -> np.ndarray:
    """Parent selection probabilities proportional to fitness (uniform when
    every score ties), as a normalized CDF: ``cdf.searchsorted(u,
    side="right")`` for one uniform ``u = rng.random()`` is the draw
    ``rng.choice(len(scores), p=p)`` makes, without validating ``p`` again
    on every draw.  A non-finite score raises ``ValueError``, as that
    validation did."""
    shifted = scores - scores.min()
    if shifted.sum() <= 0:
        probabilities = np.full(len(scores), 1.0 / len(scores))
    else:
        probabilities = shifted / shifted.sum()
    cdf = probabilities.cumsum()
    if not np.isfinite(cdf[-1]):
        raise ValueError(f"parent selection needs finite scores, got {scores!r}")
    cdf /= cdf[-1]
    return cdf


def _node_scores_for(
    cost_model: CostModel,
    task: SearchTask,
    state: State,
    cache: Dict[str, Dict[str, float]],
) -> Dict[str, float]:
    """Per-DAG-node scores used by crossover to pick the better parent.

    Cached per program, so each parent is scored once per search rather
    than once per crossover attempt.  ``state`` is the state the search's
    batched ``predict`` scored for the program, and a trained
    :class:`~repro.cost_model.model.LearnedCostModel` leaves those
    per-statement rows on each state it scores, so ``predict_stages`` reads
    them back instead of running the booster a second time."""
    key = state.fingerprint()
    cached = cache.get(key)
    if cached is not None:
        return cached
    try:
        stage_scores = cost_model.predict_stages(task, state)
    except Exception:
        stage_scores = np.zeros(1)
    from ..codegen.lowering import lower_state

    scores: Dict[str, float] = {}
    try:
        nests = lower_state(state).all_nests()
    except Exception:
        cache[key] = scores
        return scores
    for idx, nest in enumerate(nests):
        node = nest.name.split(".")[0]
        value = float(stage_scores[idx]) if idx < len(stage_scores) else 0.0
        scores[node] = scores.get(node, 0.0) + value
    cache[key] = scores
    return scores


class EvolutionarySearch:
    """Fine-tune a population of programs with mutation and crossover."""

    def __init__(
        self,
        task: SearchTask,
        cost_model: CostModel,
        space: SearchSpaceOptions = FULL_SPACE,
        population_size: int = 64,
        num_generations: int = 4,
        mutation_prob: float = 0.85,
        seed: int = 0,
    ):
        self.task = task
        self.cost_model = cost_model
        self.space = space
        self.options = EvolutionOptions(
            population_size=population_size,
            num_generations=num_generations,
            mutation_prob=mutation_prob,
        )
        self.rng = np.random.default_rng(seed)
        # Both valid for the duration of one ``search()`` call (the model
        # does not retrain mid-search):
        #: fingerprint -> (predicted score, the state that was scored)
        self._scored: Dict[str, Tuple[float, State]] = {}
        #: fingerprint -> per-node scores
        self._node_scores_cache: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    def _node_scores(self, state: State) -> Dict[str, float]:
        """Per-node scores of a parent's program, taken from the state that
        was scored for it: a re-discovered program (an equal state bred
        again) carries its score, not the rows its first state keeps."""
        scored = self._scored[state.fingerprint()][1]
        return _node_scores_for(self.cost_model, self.task, scored, self._node_scores_cache)

    def _select_parent(self, population: List[State], cdf: np.ndarray) -> State:
        return population[int(cdf.searchsorted(self.rng.random(), side="right"))]

    def _score_population(self, population: List[State]) -> np.ndarray:
        return _score_with_cache(self.cost_model, self.task, population, self._scored)

    # ------------------------------------------------------------------
    def search(self, initial_population: Sequence[State], num_best: int) -> List[State]:
        """Run the evolution and return the best ``num_best`` distinct states,
        ranked by predicted score (best first)."""
        population = [s for s in initial_population]
        if not population:
            return []
        self._scored = {}
        self._node_scores_cache = {}
        options = self.options

        #: step-list fingerprint -> replay outcome of every offspring this
        #: search bred, so a duplicate child is replayed and lowered once
        replays: Dict[str, Optional[State]] = {}

        scores = self._score_population(population)
        for _ in range(options.num_generations):
            cdf = _selection_cdf(scores)

            elite_count = max(1, int(options.elite_fraction * options.population_size))
            elite_idx = np.argsort(-scores)[:elite_count]
            next_population: List[State] = [population[i] for i in elite_idx]
            seen = {s.fingerprint() for s in next_population}

            attempts = 0
            max_attempts = options.population_size * 8
            while len(next_population) < options.population_size and attempts < max_attempts:
                attempts += 1
                if self.rng.random() < options.mutation_prob or len(population) < 2:
                    parent = self._select_parent(population, cdf)
                    child = random_mutation(parent, self.rng, self.space, replays=replays)
                else:
                    parent_a = self._select_parent(population, cdf)
                    parent_b = self._select_parent(population, cdf)
                    if parent_a is parent_b:
                        child = random_mutation(parent_a, self.rng, self.space, replays=replays)
                    else:
                        child = node_based_crossover(
                            parent_a,
                            parent_b,
                            self._node_scores(parent_a),
                            self._node_scores(parent_b),
                            self.rng,
                            replays=replays,
                        )
                if child is None:
                    continue
                key = child.fingerprint()
                if key in seen:
                    continue
                seen.add(key)
                next_population.append(child)
            population = next_population
            # Elites keep their carried scores; only the new offspring of this
            # generation hit the cost model.
            scores = self._score_population(population)

        # Best-so-far across all generations: every program the search
        # scored, each with the first state that carried it.
        ranked = sorted(self._scored.values(), key=lambda pair: -pair[0])
        self._scored, self._node_scores_cache = {}, {}
        return [state for _, state in ranked[:num_best]]
