"""Unified tuning sessions: one front door for every kind of workload.

The paper's system is explicitly layered — program sampler, performance
tuner, task scheduler.  :class:`Tuner` is the session object that composes
those layers behind one interface, and the only code that builds and drives
a :class:`~repro.scheduler.task_scheduler.TaskScheduler`:

* the **workload** is a :class:`~repro.task.SearchTask`, a
  :class:`~repro.variants.LogicalOp` (a group of competing algorithm
  variants), a sequence of those two, or network names resolved through the
  workload zoo; whatever it is, the gradient-descent task scheduler drives
  the rounds — a single task is a one-task allocation,
* the **policy** is selected from the string-keyed registry
  (``"sketch"``, ``"beam"``, ``"random"``, ``"limited-space"``, plus
  anything user code registered with
  :func:`repro.search.policy.register_policy`) — or passed directly as a
  ready :class:`~repro.search.policy.SearchPolicy` instance or factory,
* **observers** of the measure loop (recording, progress logging, early
  stopping, anything custom) are :class:`~repro.callbacks.MeasureCallback`
  objects in ``callbacks=[...]``.

Every session returns a structured :class:`TuningResult`::

    from repro import LogicalOp, Tuner, TuningOptions, RecordToFile

    result = Tuner(task, policy="sketch",
                   options=TuningOptions(num_measure_trials=128),
                   callbacks=[RecordToFile("tuning.json")]).tune()
    print(result.best_cost, result.best_state.print_program())

    result = Tuner([task, LogicalOp("conv2d", params)], store=store).tune()
    print(result.best_costs, result.variant_result.winner)

    result = Tuner(["resnet-50", "bert"], options=TuningOptions(
        num_measure_trials=2000)).tune()
    print(result.network_latencies)
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .callbacks import EarlyStopper, MeasureCallback
from .cost_model.service import CostModelService
from .hardware.measure import MeasurePipeline
from .hardware.platform import HardwareParams
from .ir.state import State
from .scheduler.objectives import Objective
from .scheduler.task_scheduler import TaskScheduler
from .search.policy import PolicyFactory, SearchPolicy, resolve_policy
from .store import ScheduleStore, StoreEntry, StoreWriter
from .task import SearchTask, TuningOptions
from .variants import LogicalOp, VariantPruner, VariantResult, VariantTrajectory
from .workloads.networks import extract_tasks

__all__ = ["Tuner", "TuningResult"]

#: anything :class:`Tuner` accepts as its ``policy`` argument
PolicyLike = Union[str, SearchPolicy, PolicyFactory]

#: one flattened workload item: its tasks, and whether they form a variant
#: group (the expansion of one LogicalOp)
_Item = Tuple[List[SearchTask], bool]

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


def _split_workload(workload) -> Tuple[Optional[List[str]], List]:
    """``(network names, [])`` for a network session, ``(None, items)`` for
    one over SearchTasks and LogicalOps.  Network names form a sequence of
    their own: the scheduler's objective is then each whole network's
    latency, which a loose task does not belong to."""
    if isinstance(workload, (SearchTask, LogicalOp)):
        return None, [workload]
    if isinstance(workload, str):
        return [workload], []
    expected = (
        "Tuner workload must be a SearchTask or network name(s), a LogicalOp, "
        "or a sequence of SearchTasks and LogicalOps"
    )
    try:
        items = list(workload)
    except TypeError:
        raise TypeError(f"{expected}; got {workload!r}") from None
    if not items:
        raise ValueError("Tuner needs at least one task, LogicalOp or network name")
    if all(isinstance(item, str) for item in items):
        return items, []
    if all(isinstance(item, (SearchTask, LogicalOp)) for item in items):
        return None, items
    raise TypeError(f"{expected} (network names do not mix with tasks); got {workload!r}")


@dataclass
class TuningResult:
    """The structured outcome of one tuning session."""

    #: every task of the workload, in workload order (a LogicalOp
    #: contributes its variants in group order); store hits included
    tasks: List[SearchTask]
    #: best measured cost (seconds) per task; ``inf`` where nothing measured
    best_costs: List[float]
    #: best program per task; ``None`` where nothing valid was measured
    best_states: List[Optional[State]]
    #: tuning curve: ``(total_trials, objective_value)`` after every round.
    #: For one plain task the objective is its best cost; otherwise it is
    #: the task scheduler's objective (weighted latency; end-to-end latency
    #: for networks).  A session served entirely from the store has the one
    #: point ``(0, best_cost)``.
    history: List[Tuple[int, float]] = field(default_factory=list)
    #: estimated end-to-end latency per network (network sessions)
    network_latencies: Dict[str, float] = field(default_factory=dict)
    #: the :class:`~repro.scheduler.task_scheduler.TaskScheduler` that drove
    #: the session, for introspection (it holds the tuned tasks only);
    #: ``None`` when every item was a store hit
    scheduler: Optional[TaskScheduler] = None
    #: measurement trials the session consumed
    num_trials: int = 0
    #: measurements of this session that failed to build or run (invalid
    #: schedules, faults) — not the lifetime count of a supplied measurer
    num_errors: int = 0
    #: True when every item was served from a
    #: :class:`~repro.store.ScheduleStore` hit without searching
    #: (``num_trials`` is then 0)
    from_store: bool = False
    #: the arbitrated outcome of every variant group (one per LogicalOp, in
    #: workload order): winner name, per-variant trajectories, prune points
    variant_results: List[VariantResult] = field(default_factory=list)

    @property
    def variant_result(self) -> Optional[VariantResult]:
        """The first variant group's outcome (``None`` without a group)."""
        return self.variant_results[0] if self.variant_results else None

    def _leading_group(self) -> Optional[VariantResult]:
        """The first variant group when it is the workload's first item."""
        group = self.variant_result
        if group is not None and group.trajectories[0].task is self.tasks[0]:
            return group
        return None

    # -- first-item conveniences ----------------------------------------
    @property
    def best_state(self) -> Optional[State]:
        """Best program of the first workload item — the *winning
        variant's* program when that item is a LogicalOp."""
        group = self._leading_group()
        if group is not None:
            return group.best_state
        return self.best_states[0] if self.best_states else None

    @property
    def best_cost(self) -> float:
        """Best cost (seconds) of the first workload item — the *winning
        variant's* cost when that item is a LogicalOp."""
        group = self._leading_group()
        if group is not None:
            return group.best_cost
        return self.best_costs[0] if self.best_costs else float("inf")

    def best_throughput(self, index: int = 0) -> float:
        """Achieved FLOP/s on one task (0 when nothing was measured)."""
        cost = self.best_costs[index]
        if not np.isfinite(cost) or cost <= 0:
            return 0.0
        return self.tasks[index].flop_count() / cost


class Tuner:
    """One tuning session over tasks, variant groups or networks.

    Parameters
    ----------
    workload:
        A :class:`~repro.task.SearchTask`; a
        :class:`~repro.variants.LogicalOp`, whose competing algorithm
        variants are tuned as one group under an arbitrated, early-pruned
        share of the budget (see :mod:`repro.variants`); a sequence of
        SearchTasks and LogicalOps, which share one trial budget; or one
        network name or a sequence of them from the workload zoo.  Network
        names do not mix with tasks: a network session's objective is each
        network's end-to-end latency.  To re-arbitrate the group of a task
        produced by :func:`~repro.variants.expand_variants`, pass
        ``LogicalOp(task.logical_op, task.variant_params, hardware=...)``.
    policy:
        A registered policy name (see
        :func:`repro.search.policy.registered_policies`), a ready
        :class:`SearchPolicy` instance (a session of one SearchTask only), or
        a factory ``(task, cost_model=..., seed=..., verbose=...) -> policy``
        (``cost_model`` is passed only to factories that accept it).  Every
        task gets seed ``options.seed + index`` and a per-target view of the
        session's cost-model service, except variant-group members: they all
        search with ``options.seed`` and a cost model scoped to their
        variant, so each variant's trajectory is a truncation of what a
        single-task session would explore.
    options:
        The shared :class:`~repro.task.TuningOptions` (trial budget, round
        size, early stopping, seed, verbosity, measurement, cost-model,
        store and variant-pruning knobs).
    callbacks:
        :class:`~repro.callbacks.MeasureCallback` observers of every
        measured round.
    policy_kwargs:
        Extra keyword arguments forwarded to the policy factory; they
        override the session's own (``seed``, ``verbose``, ``cost_model``).
    measurer:
        Measurement backend override; defaults to a
        :class:`~repro.hardware.measure.MeasurePipeline` built from the
        options' builder/runner knobs, one per distinct hardware target.
        The knobs cover the device pool too: ``TuningOptions(n_parallel=8,
        n_retry=2, devices=[...])`` drives the whole session through a
        thread-pool builder and a runner that dispatches runs across the
        named boards, with no other changes.  The options only name the
        stages; ready ones (a custom builder or runner, a pinned device
        pool) go in here as ``MeasurePipeline(hw, builder=..., runner=...)``,
        whose hardware every task must share.  Combining a ready measurer
        with non-default measurement knobs in the options raises (the
        measurer would silently swallow them); ``options.async_measure`` is
        the exception — it is the one switch for the session mode, so it is
        honored either way.
    store:
        A :class:`~repro.store.ScheduleStore`, consulted before any trial is
        spent.  A task hits on its ``(workload fingerprint, target)`` key; a
        LogicalOp hits on its ``(logical_key, target)`` entry when the stored
        winner is still one of its variants.  Hits are served with zero
        trials and the rest share the budget; a session whose every item
        hits returns ``from_store=True`` without building a scheduler.
        ``options.store_refresh`` ignores hits.  Tasks of a network session
        never hit.  Every policy warm-starts from the store's structurally
        similar bests, and every new best streams back into the store
        through a :class:`~repro.store.StoreWriter`.
    cost_model_service:
        A :class:`~repro.cost_model.service.CostModelService` — the
        session's shared training/prediction authority (one
        :class:`~repro.cost_model.model.LearnedCostModel` per hardware
        target).  Defaults to a service built from the options' cost-model
        knobs: ``TuningOptions(cost_model_path=...)`` warm-starts every
        per-target model from an existing save file (bit-identical
        predictions after reload) and persists back at session end;
        ``cost_model_retrain_interval`` sets how often a model refits and
        ``cost_model_window`` how many samples each refit reads (the
        default window covers the whole retained history).  Combining a
        requested service with a ready policy instance, an explicit
        ``policy_kwargs['cost_model']`` or a factory that takes no
        ``cost_model`` raises before the session measures anything (the
        service would be silently bypassed).
    hardware / batch / max_tasks_per_network:
        Forwarded to the network task extractor; ``hardware`` also
        re-targets every LogicalOp.
    objective / scheduler_strategy:
        Forwarded to the session's
        :class:`~repro.scheduler.task_scheduler.TaskScheduler`.
    """

    def __init__(
        self,
        workload: Union[SearchTask, LogicalOp, str, Sequence],
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
        #: the network names of a network session (else None), and the
        #: SearchTasks and LogicalOps of any other session (else empty)
        self.networks, self.items = _split_workload(workload)
        if isinstance(policy, SearchPolicy) and not (
            len(self.items) == 1 and isinstance(self.items[0], SearchTask)
        ):
            raise TypeError(
                "a SearchPolicy instance is bound to one task; a session of "
                "several tasks, a LogicalOp or networks needs a policy name "
                "or factory"
            )

    # ------------------------------------------------------------------
    def _service(self) -> CostModelService:
        """The session's cost-model service, built from the options on
        first use (loading ``cost_model_path`` when the file exists)."""
        if self.cost_model_service is None:
            self.cost_model_service = CostModelService.from_options(self.options)
        return self.cost_model_service

    def _save_cost_model(self) -> None:
        """Persist the service at session end when a path is bound (partial
        sessions included: whatever trained is worth warm-starting from)."""
        service = self.cost_model_service
        if service is not None and service.path is not None:
            service.save()

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

    def _policy_factory(self, group_members: Set[int]):
        """The scheduler's ``(task, cost_model, seed) -> policy`` factory
        for every task of the session (``group_members`` holds the ids of
        variant-group tasks); every policy is bound to the store."""
        options = self.options
        store = self.store
        if isinstance(self.policy, SearchPolicy):
            ready = self.policy
            factory = lambda task, **_: ready  # the one task's own policy
        elif isinstance(self.policy, str):
            factory = resolve_policy(self.policy)
        else:
            factory = self.policy
        # A factory without a cost_model parameter builds its own model;
        # that silently bypasses a service the caller asked for.
        takes_model = _accepts_kwarg(factory, "cost_model")
        if not takes_model and self._explicit_cost_model_service:
            raise ValueError(
                "a cost-model service was requested (cost_model_service= "
                "/ TuningOptions(cost_model_path=...)) but policy "
                f"{getattr(factory, '__name__', factory)!r} does not "
                "accept cost_model=; drop the service or use a policy "
                "that takes a cost model (the 'sketch' policy does)"
            )
        service = self._service()

        def make(task, cost_model, seed):
            if id(task) in group_members:
                # Every variant gets the *session* seed (not the scheduler's
                # index-offset seed) and its own cost model scoped by
                # variant name (not the shared per-target model): the
                # variants are structurally different DAGs, so identical
                # seeds cannot correlate their searches, while training one
                # model on a mixture of variant structures measurably
                # misleads the search away from schedules the same model
                # finds when trained on one structure.  Both choices make a
                # variant's trajectory a truncation of what a single-task
                # session with the same options would explore — arbitration
                # redistributes budget, it does not reshuffle the search.
                cost_model = service.view(f"{task.target_name}::variant={task.variant}")
                seed = options.seed
            kwargs = {"seed": seed, "verbose": options.verbose}
            if takes_model:
                kwargs["cost_model"] = cost_model
            # policy_kwargs last: explicit user kwargs override the defaults
            # instead of raising "multiple values for keyword argument".
            kwargs.update(self.policy_kwargs)
            policy = factory(task, **kwargs)
            if store is not None:
                policy.bind_store(store)
            return policy

        return make

    # ------------------------------------------------------------------
    def tune(self) -> TuningResult:
        """Run the session to completion and return its :class:`TuningResult`."""
        if self._explicit_cost_model_service:
            # Every session kind lets policy_kwargs win, so the requested
            # service would train nothing and save an empty file: raise
            # before any work, matching the measurer-knob convention.
            if "cost_model" in self.policy_kwargs:
                raise ValueError(
                    "Tuner got both policy_kwargs['cost_model'] and a "
                    "cost-model service (cost_model_service= / "
                    "TuningOptions(cost_model_path=...)): the explicit model "
                    "would bypass the service.  Pass one or the other."
                )
            if isinstance(self.policy, SearchPolicy):
                raise ValueError(
                    "a cost-model service (cost_model_service= / "
                    "TuningOptions(cost_model_path=...)) cannot be applied to "
                    "a ready SearchPolicy instance; pass the service's view "
                    "as the policy's cost_model, or use a policy name/factory"
                )
        items, weights, task_to_dnn = self._flatten()
        if self.store is not None:
            for tasks, _ in items:
                for task in tasks:
                    self.store.register_task(task)
        hits = {}
        for k, item in enumerate(items):
            hit = self._store_hit(*item)
            if hit is not None:
                hits[k] = hit
        tuned = [item for k, item in enumerate(items) if k not in hits]
        run = self._run(tuned, weights, task_to_dnn) if tuned else None
        return self._result(items, hits, run)

    def _flatten(self) -> Tuple[List[_Item], Optional[List[float]], Optional[List[int]]]:
        """The workload as items, plus the scheduler's task weights and
        task-to-network map (``None``: one weight per task, one objective)."""
        if self.networks is not None:
            tasks, weights, task_to_dnn = extract_tasks(
                self.networks,
                batch=self.batch,
                hardware=self.hardware,
                max_tasks_per_network=self.max_tasks_per_network,
            )
            return [([task], False) for task in tasks], weights, task_to_dnn
        items = [
            (item.expand(self.hardware), True) if isinstance(item, LogicalOp) else ([item], False)
            for item in self.items
        ]
        return items, None, None

    def _store_hit(
        self, tasks: List[SearchTask], grouped: bool
    ) -> Optional[Tuple[StoreEntry, SearchTask]]:
        """The store's zero-trial answer for one workload item — the entry
        and the task it serves — or ``None`` when the item must be tuned.

        A task hits on its own key.  A variant group hits on its
        ``(logical_key, target)`` entry, which names the winning algorithm
        *and* its schedule, when that winner is still one of the group's
        variants (a registry change re-arbitrates the group).  Network tasks
        never hit: they only warm-start and write back.
        ``options.store_refresh`` skips every hit."""
        store = self.store
        if store is None or self.options.store_refresh or self.networks is not None:
            return None
        if not grouped:
            entry = store.lookup(tasks[0])
            return (entry, tasks[0]) if entry is not None else None
        entry = store.lookup_logical(tasks[0].logical_key, tasks[0].target_name)
        if entry is None:
            return None
        winner = next((task for task in tasks if task.variant == entry.variant), None)
        return (entry, winner) if winner is not None else None

    def _run(
        self,
        items: List[_Item],
        weights: Optional[List[float]],
        task_to_dnn: Optional[List[int]],
    ) -> Tuple[TaskScheduler, List[VariantPruner], int, int]:
        """Tune ``items`` under one scheduler: returns it, the pruner of
        each variant group, the trials its policies had consumed before the
        session (a reused policy instance resumes), and the session's
        failed-trial count.  The cost model is saved even when the session
        is interrupted: a partial model still warm-starts."""
        options = self.options
        tasks: List[SearchTask] = []
        pruners: List[VariantPruner] = []
        for item_tasks, grouped in items:
            if grouped:
                pruners.append(
                    VariantPruner(
                        margin=options.variant_prune_margin,
                        min_trials=options.variant_min_trials,
                        group_indices=range(len(tasks), len(tasks) + len(item_tasks)),
                    )
                )
            tasks.extend(item_tasks)
        members = {id(tasks[i]) for pruner in pruners for i in pruner.group_indices}
        scheduler = TaskScheduler(
            tasks,
            task_weights=weights,
            task_to_dnn=task_to_dnn,
            objective=self.objective,
            policy_factory=self._policy_factory(members),
            strategy=self.scheduler_strategy,
            cost_model_service=self._service(),
            seed=options.seed,
            verbose=options.verbose,
        )
        scheduler.verbose = scheduler.verbose or any(p.verbose for p in scheduler.policies)
        trials_before = sum(p.num_trials for p in scheduler.policies)
        # Results report the session's errors, not a supplied measurer's
        # lifetime count.
        errors_before = self.measurer.error_count if self.measurer is not None else 0
        try:
            scheduler.tune(
                options.num_measure_trials - trials_before,
                options.num_measures_per_round,
                measurer=self.measurer,
                callbacks=self._session_callbacks() + pruners,
                measurer_factory=lambda hw: MeasurePipeline.from_options(hw, options),
                async_measure=options.async_measure,
            )
        finally:
            self._save_cost_model()
        return scheduler, pruners, trials_before, scheduler.measure_error_count() - errors_before

    def _result(
        self,
        items: List[_Item],
        hits: Dict[int, Tuple[StoreEntry, SearchTask]],
        run: Optional[Tuple[TaskScheduler, List[VariantPruner], int, int]],
    ) -> TuningResult:
        """One :class:`TuningResult` over every item in workload order, with
        store hits filled in (each task's outcome is assembled as a
        :class:`~repro.variants.VariantTrajectory`; a group's become its
        :class:`~repro.variants.VariantResult`)."""
        scheduler, pruners, trials_before, num_errors = run or (None, [], 0, 0)
        pruned_at = {i: at for pruner in pruners for i, at in pruner.pruned_at.items()}
        result = TuningResult(tasks=[], best_costs=[], best_states=[])
        index = 0  # the next tuned task's index in the scheduler
        for k, (tasks, grouped) in enumerate(items):
            if k in hits:
                entry, served = hits[k]
                state = entry.to_state(served)
                trajectories = [
                    VariantTrajectory(task.variant, task, entry.best_cost, state)
                    if task is served
                    else VariantTrajectory(task.variant, task)
                    for task in tasks
                ]
            else:
                trajectories = []
                for task in tasks:
                    policy = scheduler.policies[index]
                    trajectories.append(
                        VariantTrajectory(
                            variant=task.variant,
                            task=task,
                            best_cost=policy.best_cost,
                            best_state=policy.best_state,
                            num_trials=scheduler.task_trials[index],
                            history=list(scheduler.latency_history[index]),
                            pruned_at=pruned_at.get(index),
                        )
                    )
                    index += 1
            result.tasks.extend(tasks)
            result.best_costs.extend(t.best_cost for t in trajectories)
            result.best_states.extend(t.best_state for t in trajectories)
            if grouped:
                result.variant_results.append(
                    VariantResult.assemble(trajectories, None if k in hits else scheduler)
                )
        if scheduler is None:
            result.from_store = True
            result.history = [(0, result.best_cost)]
            return result
        result.scheduler = scheduler
        result.num_trials = sum(scheduler.task_trials)
        result.num_errors = num_errors
        if self.networks is None and not pruners and len(scheduler.policies) == 1:
            # One plain task: its policy's curve, session-scoped like
            # num_trials and rebased so it starts at zero trials.
            result.history = [
                (t - trials_before, c)
                for t, c in scheduler.policies[0].history
                if t > trials_before
            ]
        else:
            result.history = [(r.total_trials, r.objective_value) for r in scheduler.records]
        if self.networks is not None:
            result.network_latencies = {
                name: scheduler.dnn_latency(i) for i, name in enumerate(self.networks)
            }
        return result
