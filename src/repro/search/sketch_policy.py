"""The Ansor search policy: program sampling + evolutionary fine-tuning.

This is the main loop described in §3–§5 of the paper.  Each round:

1. sample a batch of fresh complete programs from the hierarchical search
   space (sketch generation + random annotation),
2. mix them with the best measured programs of earlier rounds to form the
   initial population,
3. run evolutionary search guided by the learned cost model,
4. pick the most promising (and a few random, ε-greedy) candidates,
5. measure them on the hardware, and
6. re-train the cost model with the new measurements.

Steps 1–4 are :meth:`SketchPolicy.propose_candidates` and step 6 is
:meth:`SketchPolicy.ingest_results`; the measurement in between belongs to
the round driver, :meth:`~repro.scheduler.task_scheduler.TaskScheduler.tune`,
which measures each round as one batch or, with async measurement, breeds
round *k+1* while round *k* is measured.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cost_model.model import CostModel, LearnedCostModel, RandomCostModel
from ..cost_model.service import CostModelService
from ..hardware.measure import MeasureInput, MeasureResult
from ..ir.state import State
from ..task import SearchTask
from .annotation import sample_initial_population
from .evolutionary import EvolutionarySearch
from .policy import SearchPolicy, register_policy
from .sketch import generate_sketches
from .sketch_rules import SketchRule
from .space import FULL_SPACE, SearchSpaceOptions

__all__ = ["SketchPolicy"]


@register_policy("sketch")
class SketchPolicy(SearchPolicy):
    """Ansor's sketch-based search policy (registered as ``"sketch"``)."""

    def __init__(
        self,
        task: SearchTask,
        cost_model: "Optional[CostModel | CostModelService]" = None,
        space: SearchSpaceOptions = FULL_SPACE,
        rules: Optional[Sequence[SketchRule]] = None,
        population_size: int = 64,
        num_generations: int = 4,
        sample_init_population: int = 64,
        eps_greedy: float = 0.05,
        use_evolutionary_search: bool = True,
        retained_best: int = 12,
        schedule_store=None,
        warm_start_limit: int = 8,
        seed: int = 0,
        verbose: int = 0,
    ):
        super().__init__(task, seed=seed, verbose=verbose)
        if isinstance(cost_model, CostModelService):
            # A whole service binds through its per-target view, so this
            # policy trains/predicts on the shared model of ITS target.
            cost_model = cost_model.view(task)
        self.cost_model = cost_model if cost_model is not None else LearnedCostModel(seed=seed)
        self.space = space
        self.rules = rules
        self.population_size = population_size
        self.num_generations = num_generations
        self.sample_init_population = sample_init_population
        self.eps_greedy = eps_greedy
        self.use_evolutionary_search = use_evolutionary_search
        self.retained_best = retained_best
        #: cap on store-seeded warm-start programs per session
        self.warm_start_limit = warm_start_limit
        self._sketches: Optional[List[State]] = None
        self._measured_keys: set = set()
        #: (cost, state) of the best measured programs, kept for seeding evolution
        self._best_measured: List[Tuple[float, State]] = []
        #: set once the store warm-start has been consumed (first round only)
        self._warm_consumed = False
        if schedule_store is not None:
            self.bind_store(schedule_store)

    # ------------------------------------------------------------------
    @property
    def sketches(self) -> List[State]:
        """The generated sketches of this task (computed lazily, cached)."""
        if self._sketches is None:
            self._sketches = generate_sketches(self.task, rules=self.rules, options=self.space)
            if self.verbose:
                print(f"[SketchPolicy] generated {len(self._sketches)} sketches")
        return self._sketches

    # ------------------------------------------------------------------
    def sample_population(self, count: int) -> List[State]:
        """Sample fresh complete programs from the search space."""
        return sample_initial_population(self.task, self.sketches, count, self.rng, self.space)

    def _initial_population(self) -> List[State]:
        population = self.sample_population(self.sample_init_population)
        for _, state in self._best_measured[: self.retained_best]:
            population.append(state)
        return population

    # -- cross-session warm-start ----------------------------------------
    def _warm_start_states(self) -> List[State]:
        """Replay warm-start seeds from the bound schedule store.

        Two tiers: the store's best for *this* workload key (an exact
        cross-session resume), then bests of structurally similar workloads
        (same DAG shape class, different sizes — their step histories replay
        onto this task's stage/axis skeleton).  A similar-workload history
        whose tile sizes do not apply to the new extents is skipped, and the
        random-sampling remainder of the population covers whatever the
        store could not seed.
        """
        store = self.schedule_store
        if store is None:
            return []
        candidates = []
        exact = store.lookup(self.task)
        if exact is not None:
            candidates.append(exact)
        candidates.extend(
            store.similar_entries(self.task, limit=self.warm_start_limit)
        )
        states: List[State] = []
        seen = set()
        for entry in candidates:
            if len(states) >= self.warm_start_limit:
                break
            try:
                state = entry.to_state(self.task)
            except Exception:
                continue  # foreign sizes made the step history inapplicable
            key = state.fingerprint()
            if key in seen or key in self._measured_keys:
                continue
            seen.add(key)
            states.append(state)
        if self.verbose and states:
            print(
                f"[SketchPolicy] warm-starting from {len(states)} stored "
                f"schedule(s) ({'exact hit + ' if exact is not None else ''}"
                f"structure class {self.task.structure_key})"
            )
        return states

    def _pick_candidates(
        self, ranked: List[State], population: List[State], num_measures: int
    ) -> List[State]:
        """ε-greedy candidate selection: mostly the evolution's best unmeasured
        programs, a few random ones from the population for exploration."""
        n_random = int(round(self.eps_greedy * num_measures))
        n_best = num_measures - n_random
        picked: List[State] = []
        seen = set()
        for state in ranked:
            if len(picked) >= n_best:
                break
            key = state.fingerprint()
            if key in self._measured_keys or key in seen:
                continue
            seen.add(key)
            picked.append(state)
        pool = [s for s in population if s.fingerprint() not in self._measured_keys]
        self.rng.shuffle(pool)
        for state in pool:
            if len(picked) >= num_measures:
                break
            key = state.fingerprint()
            if key in seen:
                continue
            seen.add(key)
            picked.append(state)
        return picked[:num_measures]

    # ------------------------------------------------------------------
    def propose_candidates(self, num_measures: int) -> List[State]:
        """One search half-round: sample, evolve, pick ε-greedily.

        Picked programs are marked measured immediately — with async
        measurement the driver breeds round *k+1* before round *k*'s results
        are ingested, and the in-flight programs must not be proposed twice.

        With a bound schedule store, the first round is *warm-started*:
        stored bests of this workload and of structurally similar ones join
        the initial evolutionary population **and** are pinned to the front
        of the round's measurement batch, so the transferred schedules are
        measured before any trial is spent on unproven candidates.
        """
        warm: List[State] = []
        if not self._warm_consumed:
            self._warm_consumed = True
            warm = self._warm_start_states()
        population = self._initial_population()
        population.extend(warm)
        if not population:
            return []

        if self.use_evolutionary_search:
            evolution = EvolutionarySearch(
                self.task,
                self.cost_model,
                space=self.space,
                population_size=self.population_size,
                num_generations=self.num_generations,
                seed=int(self.rng.integers(0, 2**31 - 1)),
            )
            ranked = evolution.search(population, num_best=max(num_measures * 2, 16))
        else:
            # "No fine-tuning" ablation: rely on random sampling only.
            ranked = list(population)
            self.rng.shuffle(ranked)

        candidates = self._pick_candidates(ranked, population, num_measures)
        if warm:
            # Pin the warm-start seeds to the front of the batch (dedup
            # against the evolved picks), budget permitting.
            warm_keys = {s.fingerprint() for s in warm}
            candidates = (
                warm + [s for s in candidates if s.fingerprint() not in warm_keys]
            )[:num_measures]
        for state in candidates:
            self._measured_keys.add(state.fingerprint())
        return candidates

    def ingest_results(
        self, inputs: Sequence[MeasureInput], results: Sequence[MeasureResult]
    ) -> None:
        """The learning half-round: elite pool, cost-model update, then the
        shared book-keeping (trials, best state, history)."""
        for inp, res in zip(inputs, results):
            self._measured_keys.add(inp.state.fingerprint())
            if res.valid:
                self._best_measured.append((res.min_cost, inp.state))
        self._best_measured.sort(key=lambda pair: pair[0])
        self._best_measured = self._best_measured[: self.retained_best * 4]

        self.cost_model.update(inputs, results)
        super().ingest_results(inputs, results)
