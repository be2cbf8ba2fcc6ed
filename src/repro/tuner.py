"""Unified tuning sessions: one API for single-task and multi-network tuning.

The paper's system is explicitly layered — program sampler, performance
tuner, task scheduler.  :class:`Tuner` is the session object that composes
those layers behind one interface:

* the **workload** is either a single :class:`~repro.task.SearchTask` or a
  list of network names (resolved through the workload zoo); either way the
  gradient-descent task scheduler drives the rounds — a single task is a
  one-task allocation,
* the **policy** is selected from the string-keyed registry
  (``"sketch"``, ``"beam"``, ``"random"``, ``"limited-space"``, plus
  anything user code registered with
  :func:`repro.search.policy.register_policy`) — or passed directly as a
  ready :class:`~repro.search.policy.SearchPolicy` instance or factory,
* **observers** of the measure loop (recording, progress logging, early
  stopping, anything custom) are :class:`~repro.callbacks.MeasureCallback`
  objects in ``callbacks=[...]``.

Every session returns a structured :class:`TuningResult`::

    from repro import Tuner, TuningOptions, RecordToFile

    result = Tuner(task, policy="sketch",
                   options=TuningOptions(num_measure_trials=128),
                   callbacks=[RecordToFile("tuning.json")]).tune()
    print(result.best_cost, result.best_state.print_program())

    result = Tuner(["resnet-50", "bert"], options=TuningOptions(
        num_measure_trials=2000)).tune()
    print(result.network_latencies)
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .callbacks import EarlyStopper, MeasureCallback
from .cost_model.service import CostModelService
from .hardware.measure import MeasurePipeline
from .hardware.platform import HardwareParams
from .ir.state import State
from .scheduler.objectives import Objective
from .scheduler.task_scheduler import TaskScheduler
from .search.policy import PolicyFactory, SearchPolicy, resolve_policy
from .store import ScheduleStore, StoreWriter
from .task import SearchTask, TuningOptions
from .variants import LogicalOp, VariantArbiter, VariantResult, VariantTrajectory, expand_variants
from .workloads.networks import extract_tasks

__all__ = ["Tuner", "TuningResult"]

#: anything :class:`Tuner` accepts as its ``policy`` argument
PolicyLike = Union[str, SearchPolicy, PolicyFactory]

#: the TuningOptions knobs consumed by MeasurePipeline.from_options — the
#: ones a caller-supplied measurer would silently swallow
_MEASURE_PIPELINE_KNOBS = (
    "builder",
    "runner",
    "n_parallel",
    "build_timeout",
    "run_timeout",
    "n_retry",
    "retry_timeouts",
    "devices",
    "dispatch",
    "circuit_breaker",
)


def _accepts_kwarg(factory, name: str) -> bool:
    """Whether ``factory(...)`` can receive keyword argument ``name`` (a
    named parameter or a ``**kwargs`` catch-all).  Unintrospectable callables
    are assumed permissive."""
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # pragma: no cover - builtins/extensions
        return True
    for param in signature.parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD or param.name == name:
            return True
    return False


def _non_default_measure_knobs(options: TuningOptions) -> List[str]:
    """The measurement-pipeline knobs of ``options`` that differ from the
    :class:`~repro.task.TuningOptions` defaults (``async_measure`` is not
    one of them: sessions honor it even over a supplied measurer)."""
    defaults = {f.name: f.default for f in fields(TuningOptions)}
    return [
        name
        for name in _MEASURE_PIPELINE_KNOBS
        if getattr(options, name) != defaults[name]
    ]


@dataclass
class TuningResult:
    """The structured outcome of one tuning session."""

    #: every task the session tuned (one for single-task sessions)
    tasks: List[SearchTask]
    #: best measured cost (seconds) per task; ``inf`` where nothing measured
    best_costs: List[float]
    #: best program per task; ``None`` where nothing valid was measured
    best_states: List[Optional[State]]
    #: tuning curve: ``(total_trials, objective_value)`` after every round.
    #: For a single task the objective is its best cost; for networks it is
    #: the task scheduler's objective (weighted end-to-end latency).
    history: List[Tuple[int, float]] = field(default_factory=list)
    #: estimated end-to-end latency per network (multi-network sessions)
    network_latencies: Dict[str, float] = field(default_factory=dict)
    #: the :class:`~repro.scheduler.task_scheduler.TaskScheduler` that drove
    #: the session, for introspection (a one-task scheduler for a
    #: single-task session; ``None`` for a store hit)
    scheduler: Optional[TaskScheduler] = None
    #: total measurement trials consumed
    num_trials: int = 0
    #: measurements of this session that failed to build or run (invalid
    #: schedules, faults) — not the lifetime count of a supplied measurer
    num_errors: int = 0
    #: True when the result was served from a :class:`~repro.store.ScheduleStore`
    #: hit without searching (``num_trials`` is then 0)
    from_store: bool = False
    #: the arbitrated outcome of a variant session (``None`` otherwise):
    #: winner name, per-variant trajectories, prune points
    variant_result: Optional[VariantResult] = None

    # -- single-task conveniences ---------------------------------------
    @property
    def best_state(self) -> Optional[State]:
        """Best program of the first (or only) task — the *winning
        variant's* program for a variant session."""
        if self.variant_result is not None:
            return self.variant_result.best_state
        return self.best_states[0] if self.best_states else None

    @property
    def best_cost(self) -> float:
        """Best cost (seconds) of the first (or only) task — the *winning
        variant's* cost for a variant session."""
        if self.variant_result is not None:
            return self.variant_result.best_cost
        return self.best_costs[0] if self.best_costs else float("inf")

    def best_throughput(self, index: int = 0) -> float:
        """Achieved FLOP/s on one task (0 when nothing was measured)."""
        cost = self.best_costs[index]
        if not np.isfinite(cost) or cost <= 0:
            return 0.0
        return self.tasks[index].flop_count() / cost


class Tuner:
    """One tuning session over a task or a set of networks.

    Parameters
    ----------
    workload:
        A :class:`~repro.task.SearchTask`, a
        :class:`~repro.variants.LogicalOp` (tunes the op's competing
        algorithm variants under one arbitrated budget — see
        :mod:`repro.variants`), one network name, or a sequence of network
        names from the workload zoo.
    variants:
        ``True`` runs a variant session for a SearchTask that carries
        variant metadata (one produced by
        :func:`~repro.variants.expand_variants`): the whole group is
        rebuilt from the task's logical op and re-arbitrated.  Implied by a
        LogicalOp workload.
    policy:
        A registered policy name (see
        :func:`repro.search.policy.registered_policies`), a ready
        :class:`SearchPolicy` instance (single-task sessions only), or a
        factory ``(task, cost_model=..., seed=..., verbose=...) -> policy``.
    options:
        The shared :class:`~repro.task.TuningOptions` (trial budget, round
        size, early stopping, seed, verbosity, measurement and cost-model
        knobs).
    callbacks:
        :class:`~repro.callbacks.MeasureCallback` observers of every
        measured round.
    policy_kwargs:
        Extra keyword arguments forwarded to the policy factory.
    measurer:
        Measurement backend override; defaults to a
        :class:`~repro.hardware.measure.MeasurePipeline` built from the
        options' builder/runner knobs on the workload's hardware (one per
        distinct hardware target in multi-network sessions).  The knobs
        cover the remote backend too: ``TuningOptions(builder="rpc",
        runner="rpc", n_parallel=8, n_retry=2, devices=[...])`` drives the
        whole session through the process-pool builder and the device-pool
        runner of :mod:`repro.hardware.rpc` with no other changes.
        Combining a ready measurer with non-default measurement knobs in the
        options raises (the measurer would silently swallow them);
        ``options.async_measure`` is the exception — it selects the session
        mode and is honored either way.
    store:
        A :class:`~repro.store.ScheduleStore`.  Single-task sessions consult
        it before searching: a hit on the task's ``(workload fingerprint,
        target)`` key returns the cached best as a zero-trial
        :class:`TuningResult` (``from_store=True``) unless
        ``options.store_refresh`` forces a re-tune or
        ``options.store_min_trials`` asks for that many fresh warm-started
        trials instead.  On a miss the search warm-starts from the store's
        structurally similar bests, and every new best streams back into the
        store through a :class:`~repro.store.StoreWriter`.  Network sessions
        use the store for warm-starts and write-back; request-level instant
        lookup under a shared budget is :class:`~repro.store.TuningService`.
    cost_model_service:
        A :class:`~repro.cost_model.service.CostModelService` — the
        session's shared training/prediction authority (one
        :class:`~repro.cost_model.model.LearnedCostModel` per hardware
        target).  Defaults to a service built from the options' cost-model
        knobs: ``TuningOptions(cost_model_path=...)`` warm-starts every
        per-target model from an existing save file (bit-identical
        predictions after reload) and persists back at session end;
        ``cost_model_retrain`` / ``cost_model_retrain_interval`` /
        ``cost_model_window`` control windowed retraining.  Combining a
        requested service with a ready policy instance or an explicit
        ``policy_kwargs['cost_model']`` raises before the session does any
        work (the service would be silently bypassed).
    hardware / batch / max_tasks_per_network / objective / scheduler_strategy:
        Network-session knobs, forwarded to the task extractor and the
        :class:`~repro.scheduler.task_scheduler.TaskScheduler`.
    """

    def __init__(
        self,
        workload: Union[SearchTask, "LogicalOp", str, Sequence[str]],
        *,
        policy: PolicyLike = "sketch",
        options: Optional[TuningOptions] = None,
        callbacks: Optional[Sequence[MeasureCallback]] = None,
        policy_kwargs: Optional[dict] = None,
        measurer: Optional[MeasurePipeline] = None,
        store: Optional[ScheduleStore] = None,
        cost_model_service: Optional[CostModelService] = None,
        hardware: Optional[HardwareParams] = None,
        batch: int = 1,
        max_tasks_per_network: Optional[int] = None,
        objective: Optional[Objective] = None,
        scheduler_strategy: str = "gradient",
        variants: bool = False,
    ):
        self.workload = workload
        self.policy = policy
        self.options = options or TuningOptions()
        self.callbacks = list(callbacks or [])
        self.policy_kwargs = dict(policy_kwargs or {})
        #: the schedule store consulted before searching (instant lookup),
        #: used for warm-starts, and refreshed with every new best
        self.store = store
        if (
            cost_model_service is not None
            and self.options.cost_model_path is not None
            and (
                cost_model_service.path is None
                or str(cost_model_service.path) != str(self.options.cost_model_path)
            )
        ):
            raise ValueError(
                "Tuner got cost_model_service= and "
                "TuningOptions(cost_model_path=...) pointing at different "
                "files; pass one or the other"
            )
        #: True when the caller asked for a specific service (a ready one,
        #: or a persistence path in the options) — conflicts with a ready
        #: policy / an explicit cost_model kwarg then raise instead of
        #: silently dropping the warm-start
        self._explicit_cost_model_service = (
            cost_model_service is not None or self.options.cost_model_path is not None
        )
        #: the session's shared per-target cost-model authority (built
        #: lazily from the options when not supplied; an existing
        #: ``cost_model_path`` file warm-starts it)
        self.cost_model_service = cost_model_service
        if measurer is not None:
            # A ready measurer and options that ask for a differently
            # configured pipeline cannot both win; matching the pipeline's
            # own "no silent averaging" convention, the conflict raises
            # instead of silently ignoring the options' knobs.
            conflicting = _non_default_measure_knobs(self.options)
            if conflicting:
                raise ValueError(
                    "Tuner got both a ready measurer= and TuningOptions "
                    f"measurement knob(s) {conflicting}: the supplied measurer "
                    "would silently ignore them.  Configure the measurer "
                    "directly, or drop measurer= and let the options build one."
                )
        self.measurer = measurer
        self.hardware = hardware
        self.batch = batch
        self.max_tasks_per_network = max_tasks_per_network
        self.objective = objective
        self.scheduler_strategy = scheduler_strategy

        #: True when this session arbitrates a variant group instead of
        #: tuning one fixed DAG (implied by a LogicalOp workload; opted
        #: into for an expanded SearchTask via ``variants=True``)
        self.variant_session = variants or isinstance(workload, LogicalOp)
        if isinstance(workload, LogicalOp):
            self.networks: Optional[List[str]] = None
        elif isinstance(workload, SearchTask):
            self.networks = None
            if self.variant_session and (
                workload.logical_op is None or workload.variant_params is None
            ):
                raise ValueError(
                    "variant search needs a workload that knows its logical "
                    "op: pass a repro.variants.LogicalOp, or a SearchTask "
                    "produced by expand_variants — task "
                    f"{workload.desc!r} carries no logical_op/variant_params "
                    "metadata"
                )
        elif isinstance(workload, str):
            self.networks = [workload]
        else:
            try:
                self.networks = list(workload)
            except TypeError:
                raise TypeError(
                    "Tuner workload must be a SearchTask or network name(s); "
                    f"got {workload!r}"
                ) from None
            if not self.networks:
                raise ValueError("Tuner needs at least one network name")
            if not all(isinstance(name, str) for name in self.networks):
                raise TypeError(
                    "Tuner workload must be a SearchTask or network name(s); "
                    f"got {workload!r}"
                )
        if self.networks is not None and isinstance(policy, SearchPolicy):
            raise TypeError(
                "a SearchPolicy instance is bound to one task; multi-network "
                "sessions need a policy name or factory"
            )
        if self.networks is not None and self.variant_session:
            raise ValueError(
                "variant search tunes one logical op; network sessions "
                "cannot combine with variants=True"
            )
        if self.variant_session and isinstance(policy, SearchPolicy):
            raise TypeError(
                "a SearchPolicy instance is bound to one task; a variant "
                "session needs a policy name or factory"
            )

    # ------------------------------------------------------------------
    def _policy_factory(self) -> PolicyFactory:
        if isinstance(self.policy, str):
            return resolve_policy(self.policy)
        return self.policy  # already a factory

    def _service(self) -> CostModelService:
        """The session's cost-model service, built from the options on
        first use (loading ``cost_model_path`` when the file exists)."""
        if self.cost_model_service is None:
            self.cost_model_service = CostModelService.from_options(self.options)
        return self.cost_model_service

    def _cost_model_kwargs(self, factory, task: SearchTask, existing: dict) -> dict:
        """The ``cost_model`` kwarg for a policy factory: a per-target view
        of the session's :class:`CostModelService`.

        An explicit ``policy_kwargs`` cost model wins (:meth:`tune` has
        already rejected one that would bypass a requested service).  A
        factory that cannot accept the kwarg is left alone (its policy
        builds its own model) except when the service was explicitly
        requested."""
        if "cost_model" in existing:
            return {}
        if not _accepts_kwarg(factory, "cost_model"):
            if self._explicit_cost_model_service:
                raise ValueError(
                    "a cost-model service was requested (cost_model_service= "
                    "/ TuningOptions(cost_model_path=...)) but policy "
                    f"{getattr(factory, '__name__', factory)!r} does not "
                    "accept cost_model=; drop the service or use a policy "
                    "that takes a cost model (the 'sketch' policy does)"
                )
            return {}
        return {"cost_model": self._service().view(task)}

    def _save_cost_model(self) -> None:
        """Persist the service at session end when a path is bound (partial
        sessions included: whatever trained is worth warm-starting from)."""
        service = self.cost_model_service
        if service is not None and service.path is not None:
            service.save()

    def _make_policy(self, task: SearchTask) -> SearchPolicy:
        if isinstance(self.policy, SearchPolicy):
            if self._explicit_cost_model_service:
                raise ValueError(
                    "a cost-model service (cost_model_service= / "
                    "TuningOptions(cost_model_path=...)) cannot be applied to "
                    "a ready SearchPolicy instance; pass the service's view "
                    "as the policy's cost_model, or use a policy name/factory"
                )
            return self.policy
        factory = self._policy_factory()
        # policy_kwargs last: explicit user kwargs override the defaults
        # instead of raising "multiple values for keyword argument".
        kwargs = {"seed": self.options.seed, "verbose": self.options.verbose,
                  **self.policy_kwargs}
        kwargs.update(self._cost_model_kwargs(factory, task, kwargs))
        return factory(task, **kwargs)

    # ------------------------------------------------------------------
    def tune(self) -> TuningResult:
        """Run the session to completion and return its :class:`TuningResult`."""
        if "cost_model" in self.policy_kwargs and self._explicit_cost_model_service:
            # Every session kind lets policy_kwargs win, so the requested
            # service would train nothing and save an empty file: raise
            # before any work, matching the measurer-knob convention.
            raise ValueError(
                "Tuner got both policy_kwargs['cost_model'] and a "
                "cost-model service (cost_model_service= / "
                "TuningOptions(cost_model_path=...)): the explicit model "
                "would bypass the service.  Pass one or the other."
            )
        if self.variant_session:
            return self._tune_variants()
        if self.networks is None:
            return self._tune_single(self.workload)
        return self._tune_networks(self.networks)

    # -- single task -----------------------------------------------------
    def _store_hit_result(self, task: SearchTask, entry) -> TuningResult:
        """A :class:`TuningResult` served straight from the store: the
        cached best state/cost, zero trials consumed."""
        return TuningResult(
            tasks=[task],
            best_costs=[entry.best_cost],
            best_states=[entry.to_state(task)],
            history=[(0, entry.best_cost)],
            num_trials=0,
            num_errors=0,
            from_store=True,
        )

    def _session_callbacks(self) -> List[MeasureCallback]:
        """This session's callbacks plus the ones its store and options
        imply, unless already attached: a :class:`StoreWriter` streaming new
        bests into the bound store and an :class:`EarlyStopper` for
        ``options.early_stopping``."""
        callbacks = list(self.callbacks)
        if self.store is not None and not any(
            isinstance(cb, StoreWriter) and cb.store is self.store for cb in callbacks
        ):
            callbacks.append(StoreWriter(self.store))
        if self.options.early_stopping and not any(
            isinstance(cb, EarlyStopper) for cb in callbacks
        ):
            callbacks.append(EarlyStopper(self.options.early_stopping))
        return callbacks

    def _errors_before(self) -> int:
        """Failed trials a caller-supplied measurer counted before this
        session: results report the session's errors, not its lifetime."""
        return self.measurer.error_count if self.measurer is not None else 0

    def _run_scheduler(
        self, scheduler: TaskScheduler, num_measure_trials: int, options: TuningOptions
    ) -> int:
        """Drive ``scheduler`` with this session's measurer (or one pipeline
        per hardware target built from the options) and callbacks; returns
        the session's failed-trial count.  The cost model is saved even when
        the session is interrupted: a partial model still warm-starts."""
        errors_before = self._errors_before()
        try:
            scheduler.tune(
                num_measure_trials,
                options.num_measures_per_round,
                measurer=self.measurer,
                callbacks=self._session_callbacks(),
                measurer_factory=lambda hw: MeasurePipeline.from_options(hw, options),
                async_measure=options.async_measure,
            )
        finally:
            self._save_cost_model()
        return scheduler.measure_error_count() - errors_before

    def _tune_single(self, task: SearchTask) -> TuningResult:
        options = self.options
        entry = None
        if self.store is not None:
            self.store.register_task(task)
            if not options.store_refresh:
                entry = self.store.lookup(task)
            if entry is not None and options.store_min_trials == 0:
                # Instant lookup: somebody already tuned this exact
                # (workload fingerprint, target) key — serve the cached
                # best without spending a single measurement trial.
                return self._store_hit_result(task, entry)
            if entry is not None:
                # min_trials escape hatch: the hit does not short-circuit,
                # but it caps this session's fresh (warm-started) budget.
                options = replace(
                    options,
                    num_measure_trials=min(
                        options.num_measure_trials, options.store_min_trials
                    ),
                )
        policy = self._make_policy(task)
        if self.store is not None:
            # Cross-session warm-start: the policy seeds its first round
            # from the store's bests (exact key and same structure class).
            policy.bind_store(self.store)
        # A single task is a one-task allocation of the task scheduler.
        scheduler = TaskScheduler(
            [task],
            policy_factory=lambda *_: policy,
            cost_model_service=self._service(),
            seed=options.seed,
            verbose=options.verbose or policy.verbose,
        )
        # Report this session's consumption, not the lifetime counters of a
        # caller-supplied (possibly pre-used) policy: a reused policy
        # resumes from the trials it already consumed.
        trials_before = policy.num_trials
        num_errors = self._run_scheduler(
            scheduler, options.num_measure_trials - trials_before, options
        )
        return TuningResult(
            tasks=[task],
            best_costs=[policy.best_cost],
            best_states=[policy.best_state],
            # Session-scoped like num_trials: only this session's rounds,
            # rebased so the curve starts at zero trials.
            history=[(t - trials_before, c) for t, c in policy.history
                     if t > trials_before],
            scheduler=scheduler,
            num_trials=policy.num_trials - trials_before,
            num_errors=num_errors,
        )

    # -- variant groups --------------------------------------------------
    def _variant_group(self) -> List[SearchTask]:
        """The expanded competing-variant tasks of this session's workload."""
        if isinstance(self.workload, LogicalOp):
            return self.workload.expand(self.hardware)
        task = self.workload
        hardware = self.hardware or task.hardware_params
        return expand_variants(task.logical_op, task.variant_params, hardware=hardware)

    def _variant_store_hit(
        self, tasks: List[SearchTask], entry
    ) -> Optional[TuningResult]:
        """A :class:`TuningResult` served from a ``(logical_key, target)``
        store hit: the winning variant and its schedule, zero trials.  A
        stored winner no current variant implements (the registry changed)
        returns ``None`` so the group is re-arbitrated."""
        winner_task = next((t for t in tasks if t.variant == entry.variant), None)
        if winner_task is None:
            return None
        state = entry.to_state(winner_task)
        trajectories = [
            VariantTrajectory(
                variant=task.variant,
                task=task,
                best_cost=entry.best_cost if task is winner_task else float("inf"),
                best_state=state if task is winner_task else None,
            )
            for task in tasks
        ]
        variant_result = VariantResult(
            logical_key=tasks[0].logical_key,
            target=tasks[0].target_name,
            winner=entry.variant,
            best_cost=entry.best_cost,
            best_state=state,
            trajectories=trajectories,
            from_store=True,
        )
        return TuningResult(
            tasks=list(tasks),
            best_costs=[t.best_cost for t in trajectories],
            best_states=[t.best_state for t in trajectories],
            history=[(0, entry.best_cost)],
            num_trials=0,
            num_errors=0,
            from_store=True,
            variant_result=variant_result,
        )

    def _tune_variants(self) -> TuningResult:
        options = self.options
        tasks = self._variant_group()
        if self.store is not None:
            for task in tasks:
                self.store.register_task(task)
            if not options.store_refresh:
                entry = self.store.lookup_logical(
                    tasks[0].logical_key, tasks[0].target_name
                )
                if entry is not None and options.store_min_trials == 0:
                    # Instant lookup: somebody already arbitrated this
                    # logical op on this target — the hit answers which
                    # algorithm AND which schedule without a single trial.
                    hit = self._variant_store_hit(tasks, entry)
                    if hit is not None:
                        return hit
        factory = self._policy_factory()
        kwargs = self.policy_kwargs

        def arbiter_factory(task, cost_model=None, seed=0, verbose=0):
            merged = {"cost_model": cost_model, "seed": seed,
                      "verbose": verbose, **kwargs}
            return factory(task, **merged)

        arbiter = VariantArbiter(
            tasks,
            options=options,
            policy=arbiter_factory,
            callbacks=self._session_callbacks(),
            store=self.store,
            cost_model_service=self._service(),
            measurer=self.measurer,
        )
        errors_before = self._errors_before()
        try:
            result = arbiter.tune()
        finally:
            self._save_cost_model()
        scheduler = result.scheduler
        return TuningResult(
            tasks=list(tasks),
            best_costs=[t.best_cost for t in result.trajectories],
            best_states=[t.best_state for t in result.trajectories],
            history=[(r.total_trials, r.objective_value) for r in scheduler.records],
            scheduler=scheduler,
            num_trials=result.total_trials,
            num_errors=scheduler.measure_error_count() - errors_before,
            variant_result=result,
        )

    # -- networks --------------------------------------------------------
    def _tune_networks(self, networks: List[str]) -> TuningResult:
        tasks, weights, task_to_dnn = extract_tasks(
            networks,
            batch=self.batch,
            hardware=self.hardware,
            max_tasks_per_network=self.max_tasks_per_network,
        )
        factory = self._policy_factory()
        options = self.options
        kwargs = self.policy_kwargs
        store = self.store
        if store is not None:
            # Network sessions use the store for warm-starts and write-back;
            # per-task instant lookup under a shared scheduler budget is the
            # TuningService front-end's job (repro.store.TuningService).
            for task in tasks:
                store.register_task(task)

        def scheduler_factory(task, cost_model, seed):
            merged = {"cost_model": cost_model, "seed": seed,
                      "verbose": options.verbose, **kwargs}
            policy = factory(task, **merged)
            if store is not None:
                policy.bind_store(store)
            return policy

        scheduler = TaskScheduler(
            tasks,
            task_weights=weights,
            task_to_dnn=task_to_dnn,
            objective=self.objective,
            policy_factory=scheduler_factory,
            strategy=self.scheduler_strategy,
            # The scheduler trains through this session's service (one
            # model per hardware target, warm from cost_model_path when
            # one is bound) instead of a throwaway per-session model.
            cost_model_service=self._service(),
            seed=options.seed,
            verbose=options.verbose,
        )
        # Without a supplied measurer the scheduler builds one pipeline per
        # distinct hardware target from this session's options knobs, so a
        # heterogeneous task list is measured on the right machines (a
        # user-supplied measurer is validated against every task instead).
        num_errors = self._run_scheduler(scheduler, options.num_measure_trials, options)
        return TuningResult(
            tasks=list(tasks),
            best_costs=list(scheduler.best_costs),
            best_states=scheduler.best_states(),
            history=[(r.total_trials, r.objective_value) for r in scheduler.records],
            network_latencies={
                name: scheduler.dnn_latency(index) for index, name in enumerate(networks)
            },
            scheduler=scheduler,
            num_trials=scheduler.total_trials,
            num_errors=num_errors,
        )
