"""Search policy interface shared by Ansor and the baseline strategies.

A search policy optimizes one :class:`~repro.task.SearchTask` by
implementing the two halves of a measurement round:

* :meth:`SearchPolicy.propose_candidates` breeds the next batch of programs
  (sampling, evolution, ε-greedy selection — everything that happens *before*
  hardware is involved), and
* :meth:`SearchPolicy.ingest_results` absorbs a measured batch (best-state
  tracking, cost-model training, history).

The measurement in between belongs to the one round driver,
:meth:`repro.scheduler.task_scheduler.TaskScheduler.tune` — a single-task
:class:`~repro.tuner.Tuner` session is a one-task scheduler.  With
``TuningOptions.async_measure`` the driver breeds round *k+1* while round
*k* occupies the devices, which is the overlap the paper uses to hide
device latency; otherwise each round is measured as one batch.

Policies are also available through a string-keyed registry so higher
layers (most notably :class:`repro.tuner.Tuner`) can select a search
strategy by name: ``resolve_policy("sketch")`` returns the factory that
:class:`~repro.search.sketch_policy.SketchPolicy` registered, and the
baselines in :mod:`repro.search.baselines` register ``"beam"``,
``"random"`` and ``"limited-space"``.  A factory is called as
``factory(task, cost_model=..., seed=..., verbose=..., **kwargs)`` and
returns a ready-to-run policy.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hardware.measure import MeasureInput, MeasureResult
from ..ir.state import State
from ..task import SearchTask

__all__ = [
    "SearchPolicy",
    "PolicyFactory",
    "register_policy",
    "registered_policies",
    "resolve_policy",
]

#: ``(task, cost_model=..., seed=..., verbose=..., **kwargs) -> SearchPolicy``
PolicyFactory = Callable[..., "SearchPolicy"]

_POLICY_REGISTRY: Dict[str, PolicyFactory] = {}


def register_policy(name: str, factory: Optional[PolicyFactory] = None):
    """Register a search-policy factory under a string key.

    Usable directly (``register_policy("beam", make_beam)``) or as a class /
    function decorator (``@register_policy("beam")``).  Re-registering a name
    overwrites the previous factory.
    """

    def _register(factory: PolicyFactory) -> PolicyFactory:
        _POLICY_REGISTRY[name] = factory
        return factory

    if factory is not None:
        return _register(factory)
    return _register


def registered_policies() -> List[str]:
    """The sorted names of all registered search policies."""
    return sorted(_POLICY_REGISTRY)


def resolve_policy(name: str) -> PolicyFactory:
    """Look up a policy factory by name; unknown names raise ``KeyError``
    listing every registered policy."""
    try:
        return _POLICY_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown search policy {name!r}; registered policies: "
            f"{', '.join(registered_policies()) or '(none)'}"
        ) from None


class SearchPolicy:
    """Base class of search policies."""

    def __init__(self, task: SearchTask, seed: int = 0, verbose: int = 0):
        self.task = task
        self.seed = seed
        self.verbose = verbose
        self.rng = np.random.default_rng(seed)
        #: best program found so far
        self.best_state: Optional[State] = None
        #: best measured cost (seconds)
        self.best_cost: float = float("inf")
        #: number of measurement trials consumed by this policy
        self.num_trials: int = 0
        #: (trial_count, best_cost) after every round — used for tuning curves
        self.history: List[Tuple[int, float]] = []
        #: a bound :class:`~repro.store.ScheduleStore` (cross-session
        #: warm-start source); None until :meth:`bind_store` is called
        self.schedule_store = None

    def bind_store(self, store) -> None:
        """Attach a :class:`~repro.store.ScheduleStore` as this policy's
        warm-start source.  The base class only keeps the reference (and
        registers the task's structure class); policies that know how to
        seed themselves from cached bests — :class:`SketchPolicy` seeds its
        initial evolutionary population — read ``self.schedule_store``."""
        self.schedule_store = store
        if store is not None:
            store.register_task(self.task)

    # -- the propose / ingest halves -------------------------------------
    def propose_candidates(self, num_measures: int) -> List[State]:
        """Breed up to ``num_measures`` fresh candidate programs.

        This is the search half of a round — everything that happens before
        hardware is involved.  A policy must not re-propose a program it has
        already proposed (with async measurement the driver calls this again
        *before* the previous batch's results are ingested).  Returning an
        empty list means the policy is out of candidates: the driver retires
        the task after ``TaskScheduler.max_empty_rounds`` such rounds.
        """
        raise NotImplementedError(f"{type(self).__name__} does not implement propose_candidates()")

    def ingest_results(
        self, inputs: Sequence[MeasureInput], results: Sequence[MeasureResult]
    ) -> None:
        """Absorb one measured batch: best-state tracking, trial accounting
        and the history curve.  Subclasses extend this with their own
        learning (cost-model updates, elite pools) and call ``super()``."""
        for inp, res in zip(inputs, results):
            self.num_trials += 1
            if res.valid and res.min_cost < self.best_cost:
                self.best_cost = res.min_cost
                self.best_state = inp.state
        self.history.append((self.num_trials, self.best_cost))

    def best_throughput(self) -> float:
        """Best achieved throughput in FLOP/s (0 when nothing measured yet)."""
        if not np.isfinite(self.best_cost) or self.best_cost <= 0:
            return 0.0
        return self.task.flop_count() / self.best_cost
