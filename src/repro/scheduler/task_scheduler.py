"""Gradient-descent based task scheduler (§6, Appendix A).

The scheduler allocates measurement rounds ("units of time resources") to
the tasks (subgraphs) of one or more DNNs.  At every iteration it estimates
the gradient of the objective with respect to each task's allocation and
gives the next round to the task with the largest expected improvement,
with ε-greedy exploration and a round-robin warm-up.

The gradient follows the approximation of Appendix A::

    df/dt_i ≈ df/dg_i * ( alpha * (g_i(t_i) - g_i(t_i - dt)) / dt
             + (1 - alpha) * min(-g_i(t_i)/t_i,
                                 beta * C_i / max_{k in N(i)} V_k - g_i(t_i)) )

where ``C_i`` is the FLOP count of task i and ``V_k`` the FLOP/s already
achieved on a similar task k.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..callbacks import (
    MeasureCallback,
    MeasureEvent,
    MeasureResultEvent,
    ProgressLogger,
    StopTuning,
    fire_result,
    fire_round,
    fire_scheduler_round,
)
from ..cost_model.model import CostModel
from ..cost_model.service import CostModelService
from ..hardware.measure import MeasureFuture, MeasureInput, MeasurePipeline, MeasureSession
from ..hardware.platform import HardwareParams
from ..ir.state import State
from ..search.policy import SearchPolicy
from ..search.sketch_policy import SketchPolicy
from ..task import SearchTask
from .objectives import EarlyStoppingLatency, Objective, WeightedSumLatency

__all__ = ["TaskScheduler", "TaskSchedulerRecord", "UNMEASURED_LATENCY_SEC"]

PolicyFactory = Callable[[SearchTask, CostModel, int], SearchPolicy]

#: Placeholder latency (seconds) substituted for a task that has no finite
#: measurement yet.  Used consistently by :meth:`TaskScheduler.objective_value`
#: and :meth:`TaskScheduler.dnn_latency`: a *pessimistic* 1 s per unmeasured
#: task keeps the pre-warm-up tuning curve finite and non-increasing as real
#: measurements land, and never *under*-reports an end-to-end latency
#: (``dnn_latency`` used to substitute 0.0, silently claiming an untuned
#: subgraph was free).
UNMEASURED_LATENCY_SEC = 1.0


@dataclass
class TaskSchedulerRecord:
    """One point of the tuning curve."""

    total_trials: int
    objective_value: float
    best_costs: List[float]
    selected_task: int


class TaskScheduler:
    """Allocate measurement rounds to tasks to minimize an objective."""

    def __init__(
        self,
        tasks: Sequence[SearchTask],
        task_weights: Optional[Sequence[float]] = None,
        task_to_dnn: Optional[Sequence[int]] = None,
        objective: Optional[Objective] = None,
        policy_factory: Optional[PolicyFactory] = None,
        strategy: str = "gradient",
        alpha: float = 0.2,
        beta: float = 2.0,
        backward_window: int = 3,
        eps_greedy: float = 0.05,
        max_empty_rounds: int = 2,
        cost_model_service: Optional[CostModelService] = None,
        seed: int = 0,
        verbose: int = 0,
    ):
        if max_empty_rounds < 1:
            raise ValueError("max_empty_rounds must be >= 1")
        if strategy not in ("gradient", "round_robin"):
            raise ValueError(f"unknown scheduling strategy {strategy!r}")
        self.tasks = list(tasks)
        n = len(self.tasks)
        if n == 0:
            raise ValueError("TaskScheduler needs at least one task")
        self.task_weights = list(task_weights) if task_weights is not None else [1.0] * n
        self.task_to_dnn = list(task_to_dnn) if task_to_dnn is not None else [0] * n
        self.objective = objective or WeightedSumLatency(self.task_weights, self.task_to_dnn)
        self.strategy = strategy
        self.alpha = alpha
        self.beta = beta
        self.backward_window = backward_window
        self.eps_greedy = eps_greedy
        self.max_empty_rounds = max_empty_rounds
        self.verbose = verbose
        self.seed = seed
        self.rng = np.random.default_rng(seed)

        # One cost model shared by all tasks (§5.2: "A single model is trained
        # for all tensor programs coming from all DAGs") — per hardware
        # target, owned by the session's CostModelService.  Same-target
        # tasks share one model exactly as before; a heterogeneous task
        # list now trains one model per machine instead of mixing targets.
        if cost_model_service is None:
            cost_model_service = CostModelService(seed=seed)
        self.cost_model_service = cost_model_service
        #: back-compat handle: the shared model view of the first task's
        #: target (for homogeneous task lists, THE shared cost model)
        self.cost_model: CostModel = cost_model_service.view(self.tasks[0])
        if policy_factory is None:
            policy_factory = lambda task, model, s: SketchPolicy(task, cost_model=model, seed=s)
        self.policies: List[SearchPolicy] = [
            policy_factory(task, cost_model_service.view(task), seed + idx)
            for idx, task in enumerate(self.tasks)
        ]

        #: per-task measurement pipelines (populated by :meth:`tune`)
        self.measurers: List[MeasurePipeline] = []
        #: rounds allocated per task (t_i)
        self.allocations: List[int] = [0] * n
        #: measurement trials consumed per task under this scheduler
        self.task_trials: List[int] = [0] * n
        #: tasks a callback early-stopped (no further rounds are allocated)
        self.exhausted: List[bool] = [False] * n
        #: consecutive rounds in which a task's policy produced no candidates
        #: (reset on any productive round; at ``max_empty_rounds`` the task
        #: is marked exhausted)
        self.empty_rounds: List[int] = [0] * n
        #: best latency per task (g_i), infinity before the first measurement
        self.best_costs: List[float] = [float("inf")] * n
        #: per-task history of best latency after each allocated round
        self.latency_history: List[List[float]] = [[] for _ in range(n)]
        #: tuning curve
        self.records: List[TaskSchedulerRecord] = []
        self.total_trials = 0

    # ------------------------------------------------------------------
    # Task similarity (the N(i) set of Appendix A)
    # ------------------------------------------------------------------
    def _task_signature(self, task: SearchTask) -> Tuple:
        heavy_tags = tuple(
            sorted(op.tag or op.name.split("_")[0] for op in task.compute_dag.compute_ops if op.has_reduction())
        )
        return (len(task.compute_dag.compute_ops), heavy_tags)

    def similar_tasks(self, index: int) -> List[int]:
        signature = self._task_signature(self.tasks[index])
        similar = [
            i
            for i, task in enumerate(self.tasks)
            if self._task_signature(task) == signature
        ]
        return similar or [index]

    # ------------------------------------------------------------------
    # Gradient approximation (Appendix A)
    # ------------------------------------------------------------------
    def _gradient(self, index: int) -> float:
        t_i = self.allocations[index]
        g_i = self.best_costs[index]
        if t_i == 0 or not math.isfinite(g_i):
            # Never-tuned tasks get the most negative gradient so the warm-up
            # visits everyone first.
            return -float("inf")
        df_dg = self.objective.derivative(self.best_costs, index)

        # Backward term: observed improvement over the last dt allocations.
        history = self.latency_history[index]
        dt = min(self.backward_window, len(history) - 1)
        if dt > 0:
            backward = (history[-1] - history[-1 - dt]) / dt
        else:
            backward = 0.0

        # Forward term: optimistic guess and similarity-based guess.
        optimistic = -g_i / t_i
        c_i = self.tasks[index].flop_count()
        best_speed = 0.0
        for k in self.similar_tasks(index):
            g_k = self.best_costs[k]
            if math.isfinite(g_k) and g_k > 0:
                best_speed = max(best_speed, self.tasks[k].flop_count() / g_k)
        if best_speed > 0:
            similarity_guess = self.beta * c_i / best_speed - g_i
        else:
            similarity_guess = optimistic
        forward = min(optimistic, similarity_guess)

        gradient = df_dg * (self.alpha * backward + (1 - self.alpha) * forward)
        return min(gradient, 0.0)

    def _select_task(self, pending_alloc: Sequence[int]) -> Optional[int]:
        """Pick the next task to allocate a round to.

        ``pending_alloc`` counts rounds already proposed but not yet
        accounted (the in-flight lookahead), so warm-up and round-robin do
        not re-pick a task whose first round is still on the devices."""
        alloc = [a + p for a, p in zip(self.allocations, pending_alloc)]
        live = [i for i, done in enumerate(self.exhausted) if not done]
        if not live:
            return None
        if self.strategy == "round_robin":
            return min(live, key=lambda i: alloc[i])
        # Warm-up: allocate one round to every task first.
        for i in live:
            if alloc[i] == 0:
                return i
        if self.rng.random() < self.eps_greedy:
            return live[int(self.rng.integers(0, len(live)))]
        gradients = [self._gradient(i) for i in live]
        return live[int(np.argmin(gradients))]

    # ------------------------------------------------------------------
    # Measurement pipelines (one per distinct hardware target)
    # ------------------------------------------------------------------
    def _make_measurers(
        self,
        measurer: Optional[MeasurePipeline],
        measurer_factory: Optional[Callable[..., MeasurePipeline]] = None,
    ) -> List[MeasurePipeline]:
        """One measurement pipeline per task, honoring each task's hardware.

        A caller-supplied ``measurer`` is validated against every task: a
        heterogeneous task list must not silently measure every task on the
        first task's machine (the old behaviour).  Without one, tasks that
        share a hardware description share a pipeline (so per-machine best
        states and counters aggregate naturally), and every distinct target
        gets its own — built by ``measurer_factory(hardware_params)`` when
        given (e.g. :class:`~repro.tuner.Tuner` passing the options'
        builder/runner knobs), or a default pipeline otherwise.
        """
        if measurer is not None:
            # getattr: a custom runner may not expose .hardware — such a
            # measurer cannot be validated and is accepted as-is.
            measurer_hw = getattr(measurer, "hardware", None)
            if measurer_hw is None:
                return [measurer] * len(self.tasks)
            mismatched = [
                (i, task)
                for i, task in enumerate(self.tasks)
                if task.hardware_params != measurer_hw
            ]
            if mismatched:
                names = ", ".join(
                    f"task {i} ({task.desc!r} on {task.hardware_params.name})"
                    for i, task in mismatched[:3]
                )
                raise ValueError(
                    f"measurer targets {measurer_hw.name!r} but "
                    f"{len(mismatched)} task(s) use different hardware: {names}"
                    f"{', ...' if len(mismatched) > 3 else ''}; pass measurer=None "
                    "to build one pipeline per hardware target"
                )
            return [measurer] * len(self.tasks)
        # Keyed by the full (frozen) HardwareParams, not its name: two
        # targets sharing a name but differing in e.g. core count must not
        # share a machine model.
        by_hardware: Dict[HardwareParams, MeasurePipeline] = {}
        measurers = []
        for task in self.tasks:
            pipeline = by_hardware.get(task.hardware_params)
            if pipeline is None:
                if measurer_factory is not None:
                    pipeline = measurer_factory(task.hardware_params)
                else:
                    pipeline = MeasurePipeline(task.hardware_params, seed=self.seed)
                by_hardware[task.hardware_params] = pipeline
            measurers.append(pipeline)
        return measurers

    def measure_error_count(self) -> int:
        """Total failed trials across this scheduler's measurement pipelines."""
        return sum(m.error_count for m in {id(m): m for m in self.measurers}.values())

    def device_stats(self) -> Dict[str, Dict[str, float]]:
        """Merged per-device counters across every runner this scheduler
        drives (see :meth:`~repro.hardware.fleet.DeviceFleet.device_stats`).
        Pipelines are deduplicated (tasks on the same hardware share one),
        and a device name serving several pools reports under
        ``"<runner-index>/<name>"`` so fleet health stays attributable.
        Custom runners without ``device_stats()`` contribute nothing."""
        merged: Dict[str, Dict[str, float]] = {}
        pipelines = list({id(m): m for m in self.measurers}.values())
        multiple = (
            sum(
                1
                for m in pipelines
                if callable(getattr(m.runner, "device_stats", None))
            )
            > 1
        )
        for index, pipeline in enumerate(pipelines):
            stats_fn = getattr(pipeline.runner, "device_stats", None)
            if not callable(stats_fn):
                continue
            for name, entry in stats_fn().items():
                key = f"{index}/{name}" if multiple else name
                merged[key] = entry
        return merged

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def tune(
        self,
        num_measure_trials: int,
        num_measures_per_round: int = 16,
        measurer: Optional[MeasurePipeline] = None,
        callbacks: Sequence[MeasureCallback] = (),
        measurer_factory: Optional[Callable[..., MeasurePipeline]] = None,
        async_measure: bool = False,
    ) -> List[float]:
        """Distribute ``num_measure_trials`` over the tasks; returns the final
        best latency per task.

        This is the one round driver of the package, and
        :class:`~repro.tuner.Tuner` builds the scheduler of every session: a
        single task is a one-task scheduler; task lists, variant groups and
        networks are multi-task ones.

        Each task is measured on *its own* hardware target: when no
        ``measurer`` is given, one :class:`~repro.hardware.measure.MeasurePipeline`
        is built per distinct hardware description — through
        ``measurer_factory(hardware_params)`` when provided (so callers can
        thread builder/runner knobs through) — while a supplied measurer is
        validated against every task instead (see :meth:`_make_measurers`).

        Every round goes through a :class:`~repro.hardware.measure.MeasureSession`
        (one per distinct pipeline; tasks sharing hardware share it).  The
        driver keeps ``lookahead`` rounds bred and submitted beyond the round
        it is collecting: 1 when ``async_measure`` is set (here or on any
        pipeline), so the next task is selected — against allocation state
        that counts the in-flight round, one round staler than otherwise —
        and its round bred while the current one occupies the devices; 0
        otherwise, where a synchronous session measures each round as one
        batch, exactly like :meth:`MeasurePipeline.measure`.  All accounting
        (trials, allocations, histories, records) happens at collection
        time, in round order.

        ``callbacks`` observe every measured round (see
        :mod:`repro.callbacks`).  A callback that raises
        :class:`~repro.callbacks.StopTuning` from ``on_result`` or
        ``on_round`` marks that task as exhausted: its queued measurements
        in every in-flight round are recalled (running ones complete and are
        kept), and the scheduler keeps tuning the remaining tasks (an
        :class:`~repro.callbacks.EarlyStopper` tracks improvement per task,
        so sharing one instance works as expected).  A stop from
        ``on_scheduler_round`` ends the whole session.
        """
        self.measurers = self._make_measurers(measurer, measurer_factory)
        active = list(callbacks)
        if self.verbose and not any(isinstance(cb, ProgressLogger) for cb in active):
            active.append(ProgressLogger())
        async_ = async_measure or any(getattr(m, "async_measure", False) for m in self.measurers)
        lookahead = 1 if async_ else 0
        sessions: Dict[int, MeasureSession] = {}
        pending_alloc = [0] * len(self.tasks)
        submitted = 0  # trials in flight: proposed but not yet accounted
        # rounds bred and submitted but not yet collected, oldest first
        in_flight: Deque[Tuple[int, List[MeasureInput], List[MeasureFuture]]] = deque()

        def session_for(index: int) -> MeasureSession:
            pipeline = self.measurers[index]
            session = sessions.get(id(pipeline))
            if session is None:
                session = pipeline.session(async_=async_)
                sessions[id(pipeline)] = session
            return session

        def propose() -> bool:
            """Select a task and submit one bred round for it, handling the
            empty-proposal accounting inline.  False = budget exhausted or
            no live task."""
            nonlocal submitted
            while True:
                budget = min(
                    num_measures_per_round,
                    num_measure_trials - self.total_trials - submitted,
                )
                if budget <= 0:
                    return False
                index = self._select_task(pending_alloc)
                if index is None:  # every task exhausted
                    return False
                states = self.policies[index].propose_candidates(budget)
                if not states:
                    # The policy produced no candidates.  Charge one phantom
                    # trial so the loop provably terminates, and track the
                    # dry spell: a task that is repeatedly empty (its space
                    # enumerated or fully deduplicated) is exhausted instead
                    # of re-selected forever.  Its latency history is left
                    # untouched.
                    self.total_trials += 1
                    self.allocations[index] += 1
                    self.empty_rounds[index] += 1
                    if self.empty_rounds[index] >= self.max_empty_rounds:
                        self.exhausted[index] = True
                    continue
                inputs = [MeasureInput(self.tasks[index], state) for state in states]
                in_flight.append((index, inputs, session_for(index).submit(inputs)))
                submitted += len(inputs)
                pending_alloc[index] += 1
                return True

        def stop_task(index: int, futures: List[MeasureFuture]) -> None:
            """Recall the task's queued work: this round's remainder and its
            in-flight lookahead rounds.  Only the task's own futures — tasks
            on the same hardware share the session."""
            for fut in futures:
                fut.cancel()
            for later_index, _, later in in_flight:
                if later_index == index:
                    for fut in later:
                        fut.cancel()

        def collect(suppress_stop: bool = False) -> bool:
            """Stream the oldest in-flight round to completion, ingest and
            account it; returns True on a scheduler-level stop."""
            nonlocal submitted
            index, inputs, futures = in_flight.popleft()
            policy = self.policies[index]
            task_measurer = self.measurers[index]
            stopped = False
            kept_inputs: List[MeasureInput] = []
            results = []
            for fut in session_for(index).as_completed(futures):
                if fut.cancelled():
                    continue
                res = fut.result()
                kept_inputs.append(fut.input)
                results.append(res)
                if active:
                    try:
                        fire_result(
                            active,
                            MeasureResultEvent(
                                task=self.tasks[index],
                                policy=policy,
                                input=fut.input,
                                result=res,
                                measurer=task_measurer,
                            ),
                        )
                    except StopTuning:
                        if not stopped:
                            stopped = True
                            stop_task(index, futures)
            pending_alloc[index] -= 1
            submitted -= len(inputs)
            if not kept_inputs:
                # Everything was cancelled before reaching a device: the
                # round never happened, so nothing is charged.
                return False
            policy.ingest_results(kept_inputs, results)
            if active:
                try:
                    fire_round(
                        active,
                        MeasureEvent(
                            task=self.tasks[index],
                            policy=policy,
                            inputs=kept_inputs,
                            results=results,
                            num_trials=policy.num_trials,
                            best_cost=policy.best_cost,
                            measurer=task_measurer,
                        ),
                    )
                except StopTuning:
                    if not stopped:
                        stopped = True
                        stop_task(index, futures)
            consumed = len(kept_inputs)
            self.total_trials += consumed
            self.task_trials[index] += consumed
            self.allocations[index] += 1
            self.empty_rounds[index] = 0
            self.best_costs[index] = policy.best_cost
            self.latency_history[index].append(policy.best_cost)
            if isinstance(self.objective, EarlyStoppingLatency):
                self.objective.observe(index, policy.best_cost)
            if stopped:
                self.exhausted[index] = True
            record = TaskSchedulerRecord(
                total_trials=self.total_trials,
                objective_value=self.objective_value(),
                best_costs=list(self.best_costs),
                selected_task=index,
            )
            self.records.append(record)
            try:
                if active:
                    fire_scheduler_round(active, self, record)
            except StopTuning:
                return not suppress_stop
            return False

        for cb in active:
            cb.on_tuning_start(self)
        try:
            while True:
                # Keep `lookahead` rounds bred beyond the one collected next.
                while len(in_flight) <= lookahead and propose():
                    pass
                if not in_flight:
                    break
                if collect():
                    # Scheduler-level stop: the lookahead rounds are already
                    # in flight — recall what never started, keep the rest.
                    for _, _, later in in_flight:
                        for fut in later:
                            fut.cancel()
                    while in_flight:
                        collect(suppress_stop=True)
                    break
        finally:
            for session in sessions.values():
                session.close()
            for cb in active:
                cb.on_tuning_end(self)
        return list(self.best_costs)

    # ------------------------------------------------------------------
    def _finite_costs(self) -> List[float]:
        """Best costs with :data:`UNMEASURED_LATENCY_SEC` substituted for
        tasks that have no finite measurement yet (see the constant's docs
        for the semantics)."""
        return [
            c if math.isfinite(c) else UNMEASURED_LATENCY_SEC for c in self.best_costs
        ]

    def objective_value(self) -> float:
        return self.objective.value(self._finite_costs())

    def dnn_latency(self, dnn: int = 0) -> float:
        """End-to-end latency estimate of one DNN (sum of weighted task
        latencies).  Unmeasured tasks contribute the same pessimistic
        :data:`UNMEASURED_LATENCY_SEC` placeholder as :meth:`objective_value`
        — a partially tuned network reports an upper-bound-ish latency
        rather than pretending untuned subgraphs cost nothing."""
        return self.objective.dnn_latency(self._finite_costs(), dnn)

    def best_states(self) -> List[Optional[State]]:
        return [policy.best_state for policy in self.policies]
