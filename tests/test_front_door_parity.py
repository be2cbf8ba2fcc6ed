"""Tuner as the one front door, against the two session drivers it replaced.

Every session builds its ``TaskScheduler`` in :class:`repro.Tuner`.  The two
other drivers that used to — ``VariantArbiter.tune`` (one variant group) and
``TuningService.run`` (a request queue of tasks and variant groups over a
schedule store) — are kept below as reference drivers, verbatim except that
their imports are module-level and the service no longer passes
``TaskScheduler``'s removed ``trial_limits`` (every request here has none).
Seeded sessions must reproduce them: the candidates of every round, the
scheduler's allocations and records, prune points, winners, per-task trials
and best costs, and the store's segment file byte for byte.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, List, Optional, Sequence, Set, Union

import pytest

import repro.tuner
from repro import (
    LogicalOp,
    MeasureCallback,
    MeasurePipeline,
    ScheduleStore,
    SearchTask,
    StoreWriter,
    TaskScheduler,
    Tuner,
    TuningOptions,
    VariantPruner,
    VariantResult,
    VariantTrajectory,
    edge_cpu,
    intel_cpu,
)
from repro.cost_model import CostModelService
from repro.search.policy import SearchPolicy, resolve_policy

from .conftest import make_matmul_dag, make_matmul_relu_dag

CONV_PARAMS = dict(
    batch=1, in_channels=16, height=14, width=14,
    out_channels=16, kernel=3, stride=2, padding=1,
)


# ---------------------------------------------------------------------------
# Reference drivers: the deleted session drivers, kept as the oracle
# ---------------------------------------------------------------------------


@dataclass
class TuningRequest:
    """One workload submitted to a :class:`TuningService`."""

    task: SearchTask
    #: scheduler weight: relative to its siblings, a higher-priority request
    #: attracts proportionally more of the shared trial budget
    priority: float = 1.0
    #: ignore a store hit and re-tune this workload
    refresh: bool = False
    #: per-request cap on measurement trials (None = only the shared budget)
    max_trials: Optional[int] = None

    # -- outcome (filled by TuningService.run) --------------------------
    #: best program; replayed from the store on a hit
    best_state: Optional["State"] = None
    #: best cost (seconds)
    best_cost: float = float("inf")
    #: measurement trials this request consumed (0 on a store hit)
    num_trials: int = 0
    #: whether the result was served from the store without searching
    from_store: bool = False
    #: whether the request has been processed by a :meth:`TuningService.run`
    done: bool = False
    #: the variant group this request belongs to (``None`` for plain
    #: single-task requests); see :meth:`TuningService.submit_variants`
    group: Optional["VariantGroupRequest"] = None


@dataclass
class VariantGroupRequest:
    """One variant group submitted to a :class:`TuningService`.

    The group's member requests (one per variant) share the submitting
    priority: each member's scheduler weight is ``priority / n_variants``,
    so a group competes for the shared budget as *one* workload at its
    priority rather than multiplying its pull by its variant count.  A
    store hit on the group's ``(logical_key, target)`` serves the whole
    group instantly — winner, schedule and cost — without spending a trial.
    """

    #: the group's shared logical identity
    logical_key: str
    #: hardware target name the group tunes for
    target: str
    #: scheduler priority of the whole group
    priority: float = 1.0
    #: ignore a store hit and re-arbitrate the group
    refresh: bool = False
    #: member requests, one per variant, in group order
    requests: List[TuningRequest] = dataclass_field(default_factory=list)

    # -- outcome (filled by TuningService.run) --------------------------
    #: name of the winning variant
    winner: Optional[str] = None
    #: the winner's best program
    best_state: Optional["State"] = None
    #: the winner's best cost (seconds)
    best_cost: float = float("inf")
    #: measurement trials the whole group consumed (0 on a store hit)
    num_trials: int = 0
    #: whether the group was served from the store without searching
    from_store: bool = False
    #: whether the group has been processed by a :meth:`TuningService.run`
    done: bool = False

    def request_for(self, variant: str) -> TuningRequest:
        """The member request of one variant; unknown names raise
        ``KeyError`` listing the group's variants."""
        for request in self.requests:
            if request.task.variant == variant:
                return request
        raise KeyError(
            f"no variant {variant!r} in group {self.logical_key!r}; variants: "
            f"{', '.join(r.task.variant for r in self.requests) or '(none)'}"
        )


class ReferenceService:
    """Multi-session tuning front-end over one shared store and scheduler.

    Requests are submitted with per-request priorities; :meth:`run` then

    1. consults the store — a request whose ``(fingerprint, target)`` key
       hits is served instantly, consuming **zero** measurement trials,
    2. hands every miss to one
       :class:`~repro.scheduler.task_scheduler.TaskScheduler` that
       arbitrates the shared trial budget across them (priorities become
       scheduler task weights: the gradient objective spends trials where
       they buy the most weighted improvement), with store-bound policies
       so near-misses warm-start instead of searching cold, and
    3. streams every new best back into the store (via
       :class:`StoreWriter`), so the next session — or the next request in
       this one — hits where this one missed.

    ::

        service = TuningService(store)
        urgent = service.submit(task_a, priority=4.0)
        batch = service.submit(task_b)
        service.run(num_measure_trials=256)
        print(urgent.best_cost, urgent.from_store, urgent.num_trials)
    """

    def __init__(
        self,
        store: ScheduleStore,
        options: Optional[TuningOptions] = None,
        policy: str = "sketch",
        callbacks: Sequence[MeasureCallback] = (),
        cost_model_service: Optional[CostModelService] = None,
    ):
        self.store = store
        self.options = options or TuningOptions()
        self.policy = policy
        self.callbacks = list(callbacks)
        if (
            cost_model_service is not None
            and self.options.cost_model_path is not None
            and (
                cost_model_service.path is None
                or str(cost_model_service.path) != str(self.options.cost_model_path)
            )
        ):
            raise ValueError(
                "TuningService got cost_model_service= and "
                "TuningOptions(cost_model_path=...) pointing at different "
                "files; pass one or the other"
            )
        #: the service's shared cost-model authority: ONE service for the
        #: lifetime of the front-end, so knowledge accumulates across
        #: :meth:`run` calls (request batch N+1 predicts with everything
        #: batches 1..N measured) and — with
        #: ``TuningOptions(cost_model_path=...)`` — across processes, the
        #: model-side analogue of the schedule store itself.
        self.cost_model_service = (
            cost_model_service
            if cost_model_service is not None
            else CostModelService.from_options(self.options)
        )
        self._pending: List[TuningRequest] = []
        self.requests: List[TuningRequest] = []
        #: every variant group ever submitted (see :meth:`submit_variants`)
        self.groups: List[VariantGroupRequest] = []
        #: the scheduler of the latest :meth:`run` that searched (for
        #: introspection: allocations, tuning curve, measurers)
        self.scheduler = None

    # ------------------------------------------------------------------
    def submit(
        self,
        task: SearchTask,
        priority: float = 1.0,
        refresh: bool = False,
        max_trials: Optional[int] = None,
    ) -> TuningRequest:
        """Queue one workload; returns its :class:`TuningRequest` handle,
        filled in by the next :meth:`run`."""
        if priority <= 0:
            raise ValueError("request priority must be positive")
        if max_trials is not None and max_trials <= 0:
            raise ValueError("max_trials must be positive (or None)")
        request = TuningRequest(
            task=task, priority=priority, refresh=refresh, max_trials=max_trials
        )
        self._pending.append(request)
        self.requests.append(request)
        return request

    def submit_variants(
        self,
        workload,
        priority: float = 1.0,
        refresh: bool = False,
        max_trials: Optional[int] = None,
        hardware=None,
    ) -> VariantGroupRequest:
        """Queue one variant group; returns its :class:`VariantGroupRequest`
        handle, filled in by the next :meth:`run`.

        ``workload`` is a :class:`~repro.variants.LogicalOp` (expanded here,
        on ``hardware`` when given) or an already-expanded sequence of
        variant tasks sharing one ``logical_key`` and target.  The group
        competes for the shared budget as one workload at ``priority``
        (each member weighs ``priority / n_variants``); trailing variants
        are pruned per the service options'
        ``variant_prune_margin`` / ``variant_min_trials``.  ``max_trials``
        caps each member variant individually.
        """
        if priority <= 0:
            raise ValueError("request priority must be positive")
        if max_trials is not None and max_trials <= 0:
            raise ValueError("max_trials must be positive (or None)")
        if hasattr(workload, "expand"):
            tasks = workload.expand(hardware)
        else:
            tasks = list(workload)
        if not tasks:
            raise ValueError("a variant group needs at least one task")
        keys = {getattr(t, "logical_key", None) for t in tasks}
        targets = {t.target_name for t in tasks}
        if None in keys or len(keys) != 1 or len(targets) != 1:
            raise ValueError(
                "a variant group shares one logical_key and one hardware "
                "target; expand through repro.variants.expand_variants / "
                "LogicalOp.expand"
            )
        group = VariantGroupRequest(
            logical_key=tasks[0].logical_key,
            target=tasks[0].target_name,
            priority=priority,
            refresh=refresh,
        )
        for task in tasks:
            request = TuningRequest(
                task=task,
                priority=priority / len(tasks),
                refresh=refresh,
                max_trials=max_trials,
                group=group,
            )
            group.requests.append(request)
            self._pending.append(request)
            self.requests.append(request)
        self.groups.append(group)
        return group

    # ------------------------------------------------------------------
    def _serve_group_from_store(self, group: VariantGroupRequest) -> bool:
        """Serve a whole group from its ``(logical_key, target)`` entry —
        winner, schedule and cost, zero trials.  A stored winner no current
        member implements (the registry changed) is treated as a miss so
        the group gets re-arbitrated."""
        entry = self.store.lookup_logical(group.logical_key, group.target)
        if entry is None:
            return False
        winner_request = None
        for request in group.requests:
            if request.task.variant == entry.variant:
                winner_request = request
                break
        if winner_request is None:
            return False
        group.winner = entry.variant
        group.best_cost = entry.best_cost
        group.best_state = entry.to_state(winner_request.task)
        group.num_trials = 0
        group.from_store = True
        group.done = True
        for request in group.requests:
            request.num_trials = 0
            request.from_store = True
            request.done = True
        winner_request.best_state = group.best_state
        winner_request.best_cost = entry.best_cost
        return True

    def _serve_from_store(self, request: TuningRequest) -> bool:
        entry = self.store.lookup(request.task)
        if entry is None:
            return False
        request.best_state = entry.to_state(request.task)
        request.best_cost = entry.best_cost
        request.num_trials = 0
        request.from_store = True
        request.done = True
        return True

    def run(
        self,
        num_measure_trials: Optional[int] = None,
        num_measures_per_round: Optional[int] = None,
    ) -> List[TuningRequest]:
        """Process every pending request; returns them (now ``done``).

        ``num_measure_trials`` is the *shared* budget the scheduler
        arbitrates across all cache-missing requests (default: the
        service options' budget); store hits never touch it.
        """

        pending, self._pending = self._pending, []
        if not pending:
            return []
        options = self.options
        budget = (
            num_measure_trials
            if num_measure_trials is not None
            else options.num_measure_trials
        )
        round_size = (
            num_measures_per_round
            if num_measures_per_round is not None
            else options.num_measures_per_round
        )

        for request in pending:
            self.store.register_task(request.task)
        # Variant groups are consulted as groups: a (logical_key, target)
        # hit answers "which algorithm and which schedule" for the whole
        # group at once.  register_task above upgrades legacy entries with
        # the group metadata, so pre-variant segment files hit too.
        groups: List[VariantGroupRequest] = []
        seen_groups: Set[int] = set()
        for request in pending:
            if request.group is not None and id(request.group) not in seen_groups:
                seen_groups.add(id(request.group))
                groups.append(request.group)
        for group in groups:
            if not group.refresh:
                self._serve_group_from_store(group)
        missed = []
        for request in pending:
            if request.done:
                continue
            if request.group is not None:
                # The group-level consult already ran; members of a missed
                # group all enter arbitration (their policies still
                # warm-start from the store individually).
                missed.append(request)
            elif request.refresh or not self._serve_from_store(request):
                missed.append(request)
        if not missed:
            return pending

        factory = resolve_policy(self.policy)

        def policy_factory(task, cost_model, seed):
            if getattr(task, "variant", None) is not None:
                # Same contract as VariantArbiter: a variant group member
                # searches with the session seed and a variant-scoped model
                # (training one model on a mixture of variant structures
                # misleads the search), so its trajectory is a truncation
                # of the single-task session's.
                cost_model = self.cost_model_service.view(
                    f"{task.target_name}::variant={task.variant}"
                )
                seed = options.seed
            policy = factory(
                task, cost_model=cost_model, seed=seed, verbose=options.verbose
            )
            policy.bind_store(self.store)
            return policy

        scheduler = TaskScheduler(
            [r.task for r in missed],
            task_weights=[r.priority for r in missed],
            policy_factory=policy_factory,
            cost_model_service=self.cost_model_service,
            seed=options.seed,
            verbose=options.verbose,
        )
        callbacks = list(self.callbacks)
        if not any(
            isinstance(cb, StoreWriter) and cb.store is self.store
            for cb in callbacks
        ):
            callbacks.append(StoreWriter(self.store))
        # One pruner per still-live group: trailing variants stop drawing
        # from the shared budget once the group's leader is established.

        for group in groups:
            if group.done:
                continue
            indices = [i for i, r in enumerate(missed) if r.group is group]
            if len(indices) >= 2:
                callbacks.append(
                    VariantPruner(
                        margin=options.variant_prune_margin,
                        min_trials=options.variant_min_trials,
                        group_indices=indices,
                    )
                )
        try:
            scheduler.tune(
                budget,
                round_size,
                callbacks=callbacks,
                measurer_factory=lambda hw: MeasurePipeline.from_options(hw, options),
                async_measure=options.async_measure,
            )
        finally:
            # Like StoreWriter's streaming write-back: what this batch
            # trained persists even if the run was interrupted.
            if self.cost_model_service.path is not None:
                self.cost_model_service.save()
        for request, policy in zip(missed, scheduler.policies):
            request.best_state = policy.best_state
            request.best_cost = policy.best_cost
            request.num_trials = policy.num_trials
            request.from_store = False
            request.done = True
        for group in groups:
            if group.done:
                continue
            members = [r for r in group.requests if r.done]
            finite = [r for r in members if math.isfinite(r.best_cost)]
            winner = min(finite, key=lambda r: r.best_cost) if finite else None
            group.winner = winner.task.variant if winner is not None else None
            group.best_state = winner.best_state if winner is not None else None
            group.best_cost = winner.best_cost if winner is not None else float("inf")
            group.num_trials = sum(r.num_trials for r in members)
            group.from_store = False
            group.done = True
        self.scheduler = scheduler
        return pending


class ReferenceArbiter:
    """Tune one variant group under a shared, early-pruned trial budget.

    Parameters
    ----------
    tasks:
        The expanded variant group — every task must carry the same
        ``logical_key`` and hardware target (see
        :func:`~repro.variants.registry.expand_variants`).
    options:
        The session's :class:`~repro.task.TuningOptions`; the arbiter
        consumes ``num_measure_trials`` / ``num_measures_per_round`` plus
        the variant knobs ``variant_prune_margin`` / ``variant_min_trials``.
    policy:
        A registered policy name or a factory
        ``(task, cost_model=..., seed=..., verbose=...) -> policy``; ready
        :class:`SearchPolicy` instances are rejected (one instance cannot
        drive a group).
    callbacks / store / cost_model_service / measurer:
        As in :class:`~repro.tuner.Tuner`; a bound store warm-starts every
        variant's policy and receives every new best through a
        :class:`~repro.store.StoreWriter`.
    weights:
        Per-variant scheduler weights (default: equal).
    """

    def __init__(
        self,
        tasks: Sequence[SearchTask],
        *,
        options: Optional[TuningOptions] = None,
        policy: Union[str, Callable] = "sketch",
        callbacks: Sequence[MeasureCallback] = (),
        store: Optional[ScheduleStore] = None,
        cost_model_service: Optional[CostModelService] = None,
        measurer: Optional[MeasurePipeline] = None,
        weights: Optional[Sequence[float]] = None,
    ):
        self.tasks = list(tasks)
        if not self.tasks:
            raise ValueError("VariantArbiter needs at least one variant task")
        if isinstance(policy, SearchPolicy):
            raise TypeError(
                "a SearchPolicy instance is bound to one task; a variant "
                "group needs a policy name or factory"
            )
        missing = [t.desc for t in self.tasks if t.variant is None or t.logical_key is None]
        if missing:
            raise ValueError(
                "every task of a variant group must carry logical_key and "
                f"variant metadata (expand through repro.variants); missing on: "
                f"{', '.join(repr(d) for d in missing[:3])}"
            )
        keys = {t.logical_key for t in self.tasks}
        if len(keys) != 1:
            raise ValueError(
                f"a variant group shares one logical_key; got {sorted(keys)}"
            )
        targets = {t.hardware_params for t in self.tasks}
        if len(targets) != 1:
            raise ValueError(
                "a variant group is arbitrated on one hardware target; got "
                f"{sorted(t.name for t in targets)} — tune per-target groups "
                "separately (winners are per target by design)"
            )
        names = [t.variant for t in self.tasks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variant names in group: {names}")
        self.logical_key = self.tasks[0].logical_key
        self.options = options or TuningOptions()
        self.policy = policy
        self.callbacks = list(callbacks)
        self.store = store
        self.cost_model_service = cost_model_service
        self.measurer = measurer
        if weights is not None and len(weights) != len(self.tasks):
            raise ValueError(
                f"weights has {len(weights)} entries for {len(self.tasks)} variants"
            )
        self.weights = list(weights) if weights is not None else [1.0] * len(self.tasks)
        #: the latest :meth:`tune`'s scheduler, for introspection
        self.scheduler: Optional[TaskScheduler] = None
        self._service: Optional[CostModelService] = None

    # ------------------------------------------------------------------
    def _policy_factory(self):
        factory = resolve_policy(self.policy) if isinstance(self.policy, str) else self.policy
        store = self.store
        session_seed = self.options.seed

        def make(task, cost_model, seed):
            # Every variant gets the *session* seed (not the scheduler's
            # index-offset seed) and its own cost model scoped by variant
            # name (not the shared per-target model): the variants are
            # structurally different DAGs, so identical seeds cannot
            # correlate their searches, while training one model on a
            # mixture of variant structures measurably misleads the search
            # away from schedules the same model finds when trained on one
            # structure.  Both choices make a variant's trajectory a
            # truncation of what a single-task session with the same
            # options would explore — arbitration redistributes budget, it
            # does not reshuffle the search.
            scoped = self._service.view(
                f"{task.target_name}::variant={task.variant}"
            )
            policy = factory(
                task, cost_model=scoped, seed=session_seed, verbose=self.options.verbose
            )
            if store is not None:
                policy.bind_store(store)
            return policy

        return make

    def tune(self) -> VariantResult:
        """Run the arbitrated group session and return its :class:`VariantResult`."""
        options = self.options
        if self.store is not None:
            for task in self.tasks:
                self.store.register_task(task)
        self._service = self.cost_model_service or CostModelService(seed=options.seed)
        scheduler = TaskScheduler(
            self.tasks,
            task_weights=self.weights,
            policy_factory=self._policy_factory(),
            cost_model_service=self._service,
            seed=options.seed,
            verbose=options.verbose,
        )
        pruner = VariantPruner(
            margin=options.variant_prune_margin,
            min_trials=options.variant_min_trials,
        )
        callbacks = list(self.callbacks)
        if self.store is not None and not any(
            isinstance(cb, StoreWriter) and cb.store is self.store for cb in callbacks
        ):
            callbacks.append(StoreWriter(self.store))
        callbacks.append(pruner)
        scheduler.tune(
            options.num_measure_trials,
            options.num_measures_per_round,
            measurer=self.measurer,
            callbacks=callbacks,
            measurer_factory=lambda hw: MeasurePipeline.from_options(hw, options),
            async_measure=options.async_measure,
        )
        self.scheduler = scheduler
        return self._assemble(scheduler, pruner)

    def _assemble(self, scheduler: TaskScheduler, pruner: VariantPruner) -> VariantResult:
        states = scheduler.best_states()
        trajectories = [
            VariantTrajectory(
                variant=task.variant,
                task=task,
                best_cost=scheduler.best_costs[i],
                best_state=states[i],
                num_trials=scheduler.task_trials[i],
                history=list(scheduler.latency_history[i]),
                pruned_at=pruner.pruned_at.get(i),
            )
            for i, task in enumerate(self.tasks)
        ]
        finite = [t for t in trajectories if math.isfinite(t.best_cost)]
        winner = min(finite, key=lambda t: t.best_cost) if finite else None
        return VariantResult(
            logical_key=self.logical_key,
            target=self.tasks[0].target_name,
            winner=winner.variant if winner else None,
            best_cost=winner.best_cost if winner else float("inf"),
            best_state=winner.best_state if winner else None,
            trajectories=trajectories,
            total_trials=scheduler.total_trials,
            scheduler=scheduler,
        )


# ---------------------------------------------------------------------------
# Parity cases
# ---------------------------------------------------------------------------


class RoundRecorder(MeasureCallback):
    """The candidates of every measured round, by task."""

    def __init__(self):
        self.rounds = []

    def on_round(self, event):
        self.rounds.append(
            (event.task.desc, [inp.state.fingerprint() for inp in event.inputs])
        )


class Clockless(MeasureCallback):
    """Pins the two wall-clock fields of every result (its timestamp and
    elapsed seconds) before the store writer sees it, so two runs of one
    seeded session write byte-identical segment files."""

    def on_result(self, event):
        event.result.timestamp = 1.0
        event.result.elapsed_sec = 0.0


def test_pruning_logical_op_session_matches_the_reference_arbiter():
    options = TuningOptions(
        num_measure_trials=40, num_measures_per_round=8, seed=0,
        variant_min_trials=8, variant_prune_margin=1.05,
    )
    op = LogicalOp("conv2d", CONV_PARAMS, hardware=edge_cpu())
    rounds = RoundRecorder()
    new = Tuner(op, options=options, callbacks=[rounds]).tune()

    ref_rounds = RoundRecorder()
    ref = ReferenceArbiter(
        op.expand(), options=options, callbacks=[ref_rounds],
        cost_model_service=CostModelService.from_options(options),
    ).tune()

    assert rounds.rounds == ref_rounds.rounds
    assert new.scheduler.records == ref.scheduler.records
    assert new.scheduler.allocations == ref.scheduler.allocations
    assert new.scheduler.task_trials == ref.scheduler.task_trials
    group = new.variant_result
    pruned = [t.pruned_at for t in group.trajectories]
    assert pruned == [t.pruned_at for t in ref.trajectories]
    assert any(at is not None for at in pruned)  # the case exercises pruning
    assert group.winner == ref.winner
    assert group.best_cost == new.best_cost == ref.best_cost
    assert new.best_costs == [t.best_cost for t in ref.trajectories]
    assert [t.history for t in group.trajectories] == [t.history for t in ref.trajectories]
    assert new.history == [(r.total_trials, r.objective_value) for r in ref.scheduler.records]
    assert new.num_trials == group.total_trials == ref.total_trials


def _workload():
    hardware = intel_cpu()
    return (
        SearchTask(make_matmul_relu_dag(32, 32, 32), hardware, desc="relu"),
        SearchTask(make_matmul_dag(32, 32, 32), hardware, desc="mm"),
        LogicalOp("conv2d", CONV_PARAMS, hardware=edge_cpu()),
    )


OPTIONS = TuningOptions(
    num_measure_trials=48, num_measures_per_round=8, seed=0,
    variant_min_trials=8, variant_prune_margin=1.05,
)


@pytest.fixture
def tuned(tmp_path):
    """One Tuner session and one reference service run over fresh stores."""
    t_relu, t_mm, op = _workload()
    new_path = tmp_path / "tuner.jsonl"
    rounds = RoundRecorder()
    new = Tuner(
        [t_relu, t_mm, op], options=OPTIONS, store=ScheduleStore(new_path),
        callbacks=[Clockless(), rounds],
    ).tune()

    t_relu, t_mm, op = _workload()
    ref_path = tmp_path / "service.jsonl"
    ref_rounds = RoundRecorder()
    service = ReferenceService(
        ScheduleStore(ref_path), options=OPTIONS, callbacks=[Clockless(), ref_rounds]
    )
    requests = [service.submit(t_relu), service.submit(t_mm)]
    # priority = number of variants: each member weighs 1.0, as under Tuner
    group = service.submit_variants(op, priority=len(op.expand()))
    service.run()
    return dict(
        new=new, rounds=rounds, new_path=new_path, service=service,
        requests=requests, group=group, ref_rounds=ref_rounds, ref_path=ref_path,
    )


def test_task_list_with_a_group_matches_the_reference_service(tuned):
    new, service, group = tuned["new"], tuned["service"], tuned["group"]
    assert tuned["rounds"].rounds == tuned["ref_rounds"].rounds
    assert new.scheduler.records == service.scheduler.records
    assert new.scheduler.allocations == service.scheduler.allocations
    assert new.scheduler.task_trials == service.scheduler.task_trials
    members = tuned["requests"] + group.requests
    assert [p.num_trials for p in new.scheduler.policies] == [r.num_trials for r in members]
    assert new.best_costs == [r.best_cost for r in members]
    assert new.num_trials == sum(r.num_trials for r in members) == OPTIONS.num_measure_trials
    assert not new.from_store
    assert new.variant_result.winner == group.winner
    assert new.variant_result.best_cost == group.best_cost
    assert new.variant_result.total_trials == group.num_trials
    assert new.variant_result.pruned  # the group's pruner ran at offset 2
    assert tuned["new_path"].read_bytes() == tuned["ref_path"].read_bytes()


def test_second_session_serves_every_item_from_the_store(tuned, monkeypatch):
    def no_scheduler(*args, **kwargs):
        raise AssertionError("a session of store hits built a scheduler")

    monkeypatch.setattr(repro.tuner, "TaskScheduler", no_scheduler)
    t_relu, t_mm, op = _workload()
    hit = Tuner(
        [t_relu, t_mm, op], options=OPTIONS, store=ScheduleStore(tuned["new_path"])
    ).tune()

    t_relu, t_mm, op = _workload()
    again = ReferenceService(ScheduleStore(tuned["ref_path"]), options=OPTIONS)
    requests = [again.submit(t_relu), again.submit(t_mm)]
    group = again.submit_variants(op, priority=len(op.expand()))
    again.run()
    assert again.scheduler is None
    assert all(r.from_store for r in requests) and group.from_store

    assert hit.from_store and hit.scheduler is None and hit.num_trials == 0
    assert hit.best_costs[:2] == [r.best_cost for r in requests]
    assert [s.serialize_steps() for s in hit.best_states[:2]] == [
        r.best_state.serialize_steps() for r in requests
    ]
    served = hit.variant_result
    assert served.from_store and served.total_trials == 0
    assert served.winner == group.winner
    assert served.best_cost == group.best_cost
    assert served.best_state.serialize_steps() == group.best_state.serialize_steps()
    # the served schedules are the ones the tuning session wrote
    first = tuned["new"]
    assert hit.best_costs[:2] == first.best_costs[:2]
    assert served.winner == first.variant_result.winner
