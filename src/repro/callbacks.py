"""Measure callbacks: composable observers of the tuning measure loop.

Every search round ends with a batch of measurements.  Instead of wiring
record logging, progress printing and early stopping into each search policy
(or special-casing them in the top-level API), they are expressed as
:class:`MeasureCallback` objects threaded through the one round driver,
:meth:`repro.scheduler.task_scheduler.TaskScheduler.tune` (which every
:class:`~repro.tuner.Tuner` session runs on).  A callback sees

* ``on_tuning_start(subject)`` / ``on_tuning_end(subject)`` once per tuning
  session (the subject is the driving ``TaskScheduler``),
* ``on_result(event)`` as every single measurement lands — in completion
  order when an asynchronous :class:`~repro.hardware.measure.MeasureSession`
  streams results off the devices, in submission order on the
  batch-synchronous path — with a :class:`MeasureResultEvent`, before the
  policy ingests the batch,
* ``on_round(event)`` after every measured batch is ingested, with a
  :class:`MeasureEvent` describing the batch and the policy's best-so-far,
* ``on_scheduler_round(scheduler, record)`` after every task-scheduler
  allocation round.

A callback stops a task by raising :class:`StopTuning` from ``on_round`` or
``on_result``; all callbacks of the event still run (so a recorder ordered
after an early stopper does not lose the final batch), then the driver
recalls the task's queued measurements, waits out the running ones, and
ingests/records them, so no future leaks and nothing is counted twice.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, TextIO, Tuple

from .records import save_records

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .hardware.measure import MeasureInput, MeasurePipeline, MeasureResult
    from .scheduler.task_scheduler import TaskScheduler, TaskSchedulerRecord
    from .search.policy import SearchPolicy
    from .task import SearchTask

__all__ = [
    "StopTuning",
    "MeasureEvent",
    "MeasureResultEvent",
    "MeasureCallback",
    "RecordToFile",
    "ProgressLogger",
    "EarlyStopper",
    "fire_round",
    "fire_result",
    "fire_scheduler_round",
]


class StopTuning(Exception):
    """Raised by a callback to end the current tuning session gracefully."""


@dataclass
class MeasureEvent:
    """One measured round of one search policy."""

    #: the task the round belongs to
    task: "SearchTask"
    #: the policy that produced the candidates
    policy: "SearchPolicy"
    #: the measured programs
    inputs: List["MeasureInput"]
    #: the corresponding measurement outcomes
    results: List["MeasureResult"]
    #: total trials consumed by the policy after this round
    num_trials: int
    #: best cost (seconds) of the policy after this round
    best_cost: float
    #: the measurement pipeline that produced the results, when available
    #: (carries per-kind error counters and best states)
    measurer: Optional["MeasurePipeline"] = None


@dataclass
class MeasureResultEvent:
    """One measurement landing (streamed, not batched).

    Async sessions fire one of these per candidate *in completion order*,
    while the round is still in flight; the batch-synchronous path fires
    them in submission order once the batch is measured.  Either way they
    precede the round's ingestion and its round event.  A callback that
    raises :class:`StopTuning` here stops the task mid-round (queued work
    is cancelled, running work is drained and still observed).
    """

    #: the task the measurement belongs to
    task: "SearchTask"
    #: the policy that proposed the candidate
    policy: "SearchPolicy"
    #: the measured program
    input: "MeasureInput"
    #: its outcome
    result: "MeasureResult"
    #: the measurement pipeline that produced it, when available
    measurer: Optional["MeasurePipeline"] = None


class MeasureCallback:
    """Base class of measure callbacks; every hook defaults to a no-op."""

    def on_tuning_start(self, subject) -> None:
        """Called once when a tuning session begins."""

    def on_result(self, event: MeasureResultEvent) -> None:
        """Called as every single measurement lands (completion order on the
        async path, submission order otherwise), before ``on_round``."""

    def on_round(self, event: MeasureEvent) -> None:
        """Called after every measured round of a search policy."""

    def on_scheduler_round(
        self, scheduler: "TaskScheduler", record: "TaskSchedulerRecord"
    ) -> None:
        """Called after every allocation round of the task scheduler."""

    def on_tuning_end(self, subject) -> None:
        """Called once when a tuning session ends (including early stops)."""


def _fire(callbacks: Sequence[MeasureCallback], call) -> None:
    """Invoke one hook on every callback; all run even if one requests a
    stop (so observers ordered after an early stopper still see the round),
    then the first :class:`StopTuning` is re-raised."""
    stop: Optional[StopTuning] = None
    for callback in callbacks:
        try:
            call(callback)
        except StopTuning as exc:
            stop = stop or exc
    if stop is not None:
        raise stop


def fire_round(callbacks: Sequence[MeasureCallback], event: MeasureEvent) -> None:
    """Dispatch one measured round to every callback."""
    _fire(callbacks, lambda cb: cb.on_round(event))


def fire_result(callbacks: Sequence[MeasureCallback], event: MeasureResultEvent) -> None:
    """Dispatch one streamed measurement to every callback."""
    _fire(callbacks, lambda cb: cb.on_result(event))


def fire_scheduler_round(
    callbacks: Sequence[MeasureCallback], scheduler, record
) -> None:
    """Dispatch one task-scheduler round to every callback."""
    _fire(callbacks, lambda cb: cb.on_scheduler_round(scheduler, record))


class RecordToFile(MeasureCallback):
    """Append every measurement to a JSON-lines tuning log.

    The log can be replayed with :func:`repro.records.load_records` or
    deployed with :func:`repro.records.apply_history_best`.

    Records stream: every measurement is appended from ``on_result`` the
    moment it lands (async sessions deliver these in completion order, so a
    killed session loses at most the in-flight candidates, not the round).
    ``on_round`` writes only results that were never streamed — a driver
    firing both hooks, as the tuning loops do, produces each record exactly
    once, byte-identical to the historical per-round log.

    Durability contract (shared with :func:`repro.records.save_records`):
    every record is written as one whole line through a buffered handle and
    flushed per write, so a concurrent reader never observes a torn line;
    session end additionally ``fsync``\\ s the log before closing, so a
    completed session survives power loss, not just process death.
    """

    def __init__(self, path, append: bool = True):
        self.path = path
        self.append = append
        #: id() of results already written from on_result (cleared per round)
        self._streamed: set = set()
        #: file handle held open for the session so per-result streaming does
        #: not pay an open/close per measurement in the tuning hot loop
        self._handle = None

    def _write(self, inputs, results) -> None:
        if self._handle is not None:
            from .records import TuningRecord  # local: avoid import cycle

            for inp, res in zip(inputs, results):
                self._handle.write(TuningRecord.from_measurement(inp, res).to_json() + "\n")
            # Flushed per write: the durability point of streaming is that a
            # killed session keeps everything that completed.
            self._handle.flush()
        else:
            # Direct on_round/on_result use outside a session (external
            # drivers, tests) falls back to open-per-batch.
            save_records(self.path, inputs, results)

    def on_tuning_start(self, subject) -> None:
        self._streamed.clear()
        if not self.append:
            open(self.path, "w").close()
        if self._handle is None:
            self._handle = open(self.path, "a")

    def on_result(self, event: MeasureResultEvent) -> None:
        self._write([event.input], [event.result])
        self._streamed.add(id(event.result))

    def on_round(self, event: MeasureEvent) -> None:
        pending = [
            (inp, res)
            for inp, res in zip(event.inputs, event.results)
            if id(res) not in self._streamed
        ]
        if pending:
            self._write([p[0] for p in pending], [p[1] for p in pending])
        # The round closes the stream-dedup window; dropping the entries
        # keeps the set O(round) and avoids stale id() collisions.
        for res in event.results:
            self._streamed.discard(id(res))

    def on_tuning_end(self, subject) -> None:
        self._streamed.clear()
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None


class ProgressLogger(MeasureCallback):
    """Print a one-line progress summary after every round.

    Replaces the scattered ``verbose`` prints of the search policies and the
    task scheduler.  At session end, every runner seen during the session
    that exposes ``device_stats()`` (every
    :class:`~repro.hardware.measure.LocalRunner`) gets a per-device
    summary — trials, faults and busy-time share — so a flaky or starved
    board is visible straight from the progress log instead of needing a
    debugger.  The cost model
    gets the same treatment: one line per hardware target with samples
    ingested, retrains run vs skipped, the model version, and (when the
    session's :class:`~repro.cost_model.service.CostModelService` is
    persistent) the path it saves to.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        log_scheduler_rounds: bool = True,
        log_device_stats: bool = True,
        log_cost_model: bool = True,
    ):
        self.stream = stream
        self.log_scheduler_rounds = log_scheduler_rounds
        self.log_device_stats = log_device_stats
        self.log_cost_model = log_cost_model
        #: measurers observed through events this session (id -> measurer)
        self._measurers: Dict[int, object] = {}

    def _print(self, message: str) -> None:
        print(message, file=self.stream if self.stream is not None else sys.stdout)

    def _track_measurer(self, measurer) -> None:
        if measurer is not None:
            self._measurers[id(measurer)] = measurer

    def on_tuning_start(self, subject) -> None:
        self._measurers.clear()

    def on_result(self, event: MeasureResultEvent) -> None:
        self._track_measurer(event.measurer)

    def on_tuning_end(self, subject) -> None:
        if self.log_cost_model:
            self._log_cost_model(subject)
        if not self.log_device_stats:
            return
        # The scheduler exposes its pipelines directly; anything else
        # surfaces them through the round/result events tracked above.
        for measurer in getattr(subject, "measurers", None) or ():
            self._track_measurer(measurer)
        for measurer in self._measurers.values():
            runner = measurer.runner
            stats = runner.device_stats()
            total_busy = sum(entry.get("busy_sec", 0.0) for entry in stats.values())
            self._print(f"[{type(runner).__name__}] device stats:")
            for name in sorted(stats):
                entry = stats[name]
                share = (
                    100.0 * entry.get("busy_sec", 0.0) / total_busy if total_busy > 0 else 0.0
                )
                line = (
                    f"  {name}: runs={int(entry.get('runs', 0))} "
                    f"errors={int(entry.get('errors', 0))} "
                    f"busy={entry.get('busy_sec', 0.0):.3e}s ({share:.0f}%)"
                )
                # Fleet-managed pools report breaker state and the learned
                # fault profile; surface them when non-trivial so a
                # quarantined or misbehaving board is visible from the log.
                state = entry.get("state")
                if state is not None and state != "healthy":
                    line += f" state={state}"
                est_fault = entry.get("est_fault_rate", 0.0) + entry.get(
                    "est_timeout_rate", 0.0
                )
                if est_fault > 0:
                    line += f" est_fault={est_fault:.2f}"
                self._print(line)

    def _log_cost_model(self, subject) -> None:
        """End-of-session cost-model summary: one line per hardware target
        (samples ingested, retrains run vs skipped, model version, save
        path).  ``subject`` is a scheduler (exposes ``cost_model_service``)
        or a policy (exposes ``cost_model`` — a service view or a plain
        model); anything without retrain counters stays silent."""
        policies = getattr(subject, "policies", ())
        if len(policies) == 1:
            # A one-task session reports the model its policy trained.
            subject = policies[0]
        service = getattr(subject, "cost_model_service", None)
        model = getattr(subject, "cost_model", None)
        if service is None:
            service = getattr(model, "service", None)
        if service is not None and hasattr(service, "stats"):
            stats = service.stats()
            suffix = f" path={stats['path']}" if stats.get("path") else ""
            for name in sorted(stats.get("targets", {})):
                entry = stats["targets"][name]
                self._print(
                    f"[CostModelService] target={name} samples={entry['samples']} "
                    f"ingested={entry['samples_ingested']} "
                    f"retrains={entry['retrains_run']} "
                    f"(skipped={entry['retrains_skipped']}) "
                    f"version=v{entry['version']}{suffix}"
                )
            return
        if model is not None and hasattr(model, "retrains_run"):
            self._print(
                f"[{type(model).__name__}] samples={model.num_samples} "
                f"ingested={model.samples_ingested} retrains={model.retrains_run} "
                f"(skipped={model.retrains_skipped}) version=v{model.version}"
            )

    def on_round(self, event: MeasureEvent) -> None:
        from .hardware.measure import MeasureErrorNo  # local: avoid import cycle

        self._track_measurer(event.measurer)
        line = (
            f"[{type(event.policy).__name__}] task={event.task.desc!r} "
            f"trials={event.num_trials} best={event.best_cost:.3e}s"
        )
        # Break failures down by taxonomy kind (BUILD_ERROR, RUN_TIMEOUT, ...)
        # so fault-heavy sessions are diagnosable from the progress log alone.
        by_kind: Dict[str, int] = {}
        for res in event.results:
            if not res.valid:
                kind = getattr(res, "error_kind", MeasureErrorNo.UNKNOWN_ERROR)
                by_kind[kind.name] = by_kind.get(kind.name, 0) + 1
        if by_kind:
            breakdown = ", ".join(f"{name}={n}" for name, n in sorted(by_kind.items()))
            line += f" errors={sum(by_kind.values())} ({breakdown})"
        # Transient-fault retries (the flaky-device recovery path) are worth
        # seeing per round: a climbing retry rate means a degrading device.
        retries = sum(getattr(res, "retry_count", 0) for res in event.results)
        if retries:
            line += f" retries={retries}"
        self._print(line)

    def on_scheduler_round(self, scheduler, record) -> None:
        # A one-task session's allocation is trivial: its round lines say it all.
        if not self.log_scheduler_rounds or len(scheduler.tasks) == 1:
            return
        task = scheduler.tasks[record.selected_task]
        self._print(
            f"[TaskScheduler] trials={record.total_trials} "
            f"task={record.selected_task} ({task.desc}) "
            f"objective={record.objective_value:.4e}"
        )


class EarlyStopper(MeasureCallback):
    """Stop tuning after ``patience`` rounds without improvement.

    State is tracked per search policy (each scheduler task has its own
    policy, so identical workloads never share a counter), which lets one
    instance be shared by a multi-task scheduler session: the task scheduler
    treats the stop as "this task is exhausted" and keeps tuning the others.

    ``target_cost`` adds a streaming stop: the session ends the moment any
    measurement reaches that cost (seconds), *mid-round*, instead of waiting
    for the round to close — on an async session the queued remainder is
    cancelled and the running measurements are drained, so a
    good-enough-by-construction search stops paying for device time it no
    longer needs.
    """

    def __init__(self, patience: int, min_trials: int = 0, target_cost: Optional[float] = None):
        if patience <= 0:
            raise ValueError("EarlyStopper patience must be positive")
        if target_cost is not None and target_cost <= 0:
            raise ValueError("target_cost must be positive (or None to disable)")
        self.patience = patience
        self.min_trials = min_trials
        self.target_cost = target_cost
        #: policy id -> (best cost seen, rounds since it improved)
        self._tracker: Dict[int, Tuple[float, int]] = {}

    def on_result(self, event: MeasureResultEvent) -> None:
        if self.target_cost is None:
            return
        result = event.result
        if result.valid and result.min_cost <= self.target_cost:
            raise StopTuning(
                f"target cost {self.target_cost:.3e}s reached on "
                f"{event.task.desc!r} ({result.min_cost:.3e}s)"
            )

    def on_tuning_start(self, subject) -> None:
        # Fresh session, fresh counters: a stopper reused across sessions
        # must not inherit staleness (or a recycled policy id's state).
        self._tracker.clear()

    def on_round(self, event: MeasureEvent) -> None:
        key = id(event.policy)
        best, stale = self._tracker.get(key, (float("inf"), 0))
        if event.best_cost < best:
            best, stale = event.best_cost, 0
        else:
            stale += 1
        self._tracker[key] = (best, stale)
        if stale >= self.patience and event.num_trials >= self.min_trials:
            raise StopTuning(
                f"no improvement on {event.task.desc!r} for {stale} rounds"
            )
