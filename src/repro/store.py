"""Persistent schedule store: the searched-once, served-forever layer.

The paper's whole value proposition is that an expensive search produces a
*reusable artifact* — the best schedule.  This module turns that artifact
into an indexed, shared, persistent service instead of a line-per-trial
append log that every consumer re-scans in full:

* :class:`ScheduleStore` keeps the best known schedule per
  ``(workload fingerprint, hardware target)`` key behind an in-memory index
  (O(1) lookup) layered over a JSON-lines segment file (append-on-new-best,
  :meth:`ScheduleStore.compact` to drop superseded entries, atomic rewrite,
  a file lock so concurrent sessions never corrupt each other).  Legacy
  tuning logs import losslessly through :meth:`ScheduleStore.ingest`.
* :class:`StoreWriter` is a :class:`~repro.callbacks.MeasureCallback` that
  streams new bests into the store the moment they land on the devices
  (the ``on_result`` hook), so a killed session keeps everything it found.
* :class:`TuningService` is the multi-session front-end: many concurrent
  tuning requests with per-request priorities share one
  :class:`~repro.scheduler.task_scheduler.TaskScheduler` trial budget, the
  store is consulted before any trial is spent (a hit is served instantly,
  a near-miss warm-starts the search), and new bests are written back on
  completion.

Three consumer paths hang off the store:

1. **Instant lookup** — ``Tuner(task, store=store)`` returns the cached best
   :class:`~repro.tuner.TuningResult` without consuming a single
   measurement trial when the key hits; ``store_min_trials`` /
   ``store_refresh`` are the escape hatches.
2. **Cross-session warm-start** — a store-bound
   :class:`~repro.search.sketch_policy.SketchPolicy` seeds its initial
   evolutionary population from the store's bests for the same workload
   and for structurally similar workloads (same DAG shape class, different
   sizes; replayed via :meth:`~repro.records.TuningRecord.to_state`),
   falling back to random sampling for the remainder.
3. **Tuning as a service** — :class:`TuningService` above.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, Union

from .callbacks import MeasureCallback, MeasureResultEvent
from .cost_model.service import CostModelService
from .records import RecordLogWarning, TuningRecord, load_records
from .task import SearchTask, TuningOptions, split_workload_key

if TYPE_CHECKING:  # pragma: no cover - types only (avoid import cycles)
    from .ir.state import State
    from .tuner import TuningResult

try:  # POSIX advisory locking; other platforms fall back to best-effort.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

__all__ = [
    "StoreEntry",
    "ScheduleStore",
    "StoreWriter",
    "TuningRequest",
    "VariantGroupRequest",
    "TuningService",
]

PathLike = Union[str, Path]

#: a store key: (workload fingerprint, hardware target name)
StoreKey = Tuple[str, str]


@dataclass
class StoreEntry:
    """One indexed best schedule: the full tuning record plus its key halves
    and (when known) the workload's structure class."""

    #: target-free identity of the computation (the DAG's workload key)
    fingerprint: str
    #: hardware target name (the other half of the key)
    target: str
    #: the best record: steps, costs, error taxonomy — everything a log
    #: line carries, so legacy logs import losslessly
    record: TuningRecord
    #: the DAG shape-class hash (sizes erased); ``None`` for entries
    #: ingested from legacy logs before any live task registered it
    structure: Optional[str] = None
    #: shared identity of the variant group this entry belongs to (see
    #: :mod:`repro.variants`); ``None`` for plain single-DAG entries
    logical_key: Optional[str] = None
    #: the variant name within the group; ``None`` for plain entries
    variant: Optional[str] = None

    @property
    def key(self) -> StoreKey:
        return (self.fingerprint, self.target)

    @property
    def best_cost(self) -> float:
        return self.record.best_cost

    def to_state(self, task: SearchTask) -> "State":
        """Replay the stored best program onto a task's DAG."""
        return self.record.to_state(task)

    # -- serialization ---------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "fingerprint": self.fingerprint,
            "target": self.target,
            "structure": self.structure,
            "record": self.record.to_dict(),
        }
        # Variant metadata is written only when present, so plain entries
        # stay byte-compatible with pre-variant segment files.
        if self.logical_key is not None:
            payload["logical_key"] = self.logical_key
        if self.variant is not None:
            payload["variant"] = self.variant
        return json.dumps(payload)

    @classmethod
    def from_json(cls, line: str) -> "StoreEntry":
        data = json.loads(line)
        return cls(
            fingerprint=data["fingerprint"],
            target=data["target"],
            record=TuningRecord.from_dict(data["record"]),
            structure=data.get("structure"),
            logical_key=data.get("logical_key"),
            variant=data.get("variant"),
        )


class ScheduleStore:
    """An indexed, compactable, persistent store of best schedules.

    Keys are ``(workload fingerprint, hardware target)``; the value is the
    best valid :class:`~repro.records.TuningRecord` seen for that key.

    Storage is a JSON-lines segment file: every new best is *appended*
    under a file lock (cheap, crash-tolerant — the rename-free append means
    a concurrent reader never sees a half-written index), and superseded
    lines accumulate until :meth:`compact` rewrites the file atomically
    (temp file + ``rename``) with only the current bests.  The in-memory
    index makes :meth:`lookup` O(1) regardless of how many sessions ever
    wrote to the file.

    ``path=None`` gives a purely in-memory store (useful for tests and for
    sharing bests between the requests of one process).

    Concurrency: one POSIX ``flock`` on a ``<path>.lock`` sidecar
    serializes writers across processes *and* across store objects within a
    process; :meth:`refresh` re-reads the segment file to observe entries
    another session appended after this store loaded.
    """

    def __init__(self, path: Optional[PathLike] = None):
        self.path = Path(path) if path is not None else None
        self._index: Dict[StoreKey, StoreEntry] = {}
        #: structure hash -> keys of entries in that shape class
        self._by_structure: Dict[str, Set[StoreKey]] = {}
        #: fingerprints whose structure class live tasks have told us about
        self._structures: Dict[str, str] = {}
        #: (logical_key, target) -> key of the best entry across the whole
        #: variant group — the index behind :meth:`lookup_logical`, which
        #: answers "which algorithm AND which schedule" in O(1)
        self._by_logical: Dict[Tuple[str, str], StoreKey] = {}
        #: fingerprint -> (logical_key, variant) learned from live tasks
        self._logical_meta: Dict[str, Tuple[str, str]] = {}
        #: lines in the segment file (including superseded ones) — the
        #: compaction trigger data point
        self._segment_lines = 0
        self._mutex = threading.RLock()
        if self.path is not None and self.path.exists():
            with self._file_lock(shared=True):
                self._load_segment()

    # ------------------------------------------------------------------
    # Locking and segment I/O
    # ------------------------------------------------------------------
    @contextmanager
    def _file_lock(self, shared: bool = False):
        """Hold the store's cross-process advisory lock (no-op for
        in-memory stores; the in-process mutex is always taken)."""
        with self._mutex:
            if self.path is None or fcntl is None:
                yield
                return
            lock_path = self.path.with_name(self.path.name + ".lock")
            with open(lock_path, "a+") as lock_file:
                fcntl.flock(
                    lock_file.fileno(),
                    fcntl.LOCK_SH if shared else fcntl.LOCK_EX,
                )
                try:
                    yield
                finally:
                    fcntl.flock(lock_file.fileno(), fcntl.LOCK_UN)

    def _load_segment(self) -> None:
        """(Re)build the index from the segment file.  Later lines win ties
        the same way later puts do: only a strictly better cost supersedes,
        so replaying the append history reproduces the live index.
        Malformed lines are tolerated exactly like a tuning log's."""
        self._index.clear()
        self._by_structure.clear()
        self._by_logical.clear()
        self._segment_lines = 0
        skipped = 0
        first_bad: Optional[int] = None
        with open(self.path) as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                self._segment_lines += 1
                try:
                    entry = StoreEntry.from_json(line)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    skipped += 1
                    if first_bad is None:
                        first_bad = lineno
                    continue
                self._absorb(entry)
        if skipped:
            warnings.warn(
                f"ScheduleStore({str(self.path)!r}): skipped {skipped} "
                f"malformed line(s), first at line {first_bad}",
                RecordLogWarning,
                stacklevel=3,
            )

    def _append_line(self, entry: StoreEntry) -> None:
        """Durably append one entry line (caller holds the file lock)."""
        with open(self.path, "a") as f:
            f.write(entry.to_json() + "\n")
            f.flush()
            os.fsync(f.fileno())
        self._segment_lines += 1

    def refresh(self) -> None:
        """Re-read the segment file, picking up entries other sessions
        appended since this store loaded (no-op for in-memory stores)."""
        if self.path is None:
            return
        with self._file_lock(shared=True):
            if self.path.exists():
                self._load_segment()

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def _absorb(self, entry: StoreEntry) -> bool:
        """Merge one entry into the in-memory index; True if it became (or
        stayed) the best for its key."""
        if not entry.record.valid:
            return False
        # A live task may have registered the structure class / variant
        # membership a legacy entry was ingested without.
        if entry.structure is None:
            entry.structure = self._structures.get(entry.fingerprint)
        if entry.logical_key is None:
            meta = self._logical_meta.get(entry.fingerprint)
            if meta is not None:
                entry.logical_key, entry.variant = meta
        current = self._index.get(entry.key)
        if current is not None and current.best_cost <= entry.best_cost:
            # Keep the incumbent, but let a metadata-carrying loser teach
            # an ingested incumbent its shape class / group membership.
            if current.structure is None and entry.structure is not None:
                self._set_structure(current, entry.structure)
            if current.logical_key is None and entry.logical_key is not None:
                current.logical_key = entry.logical_key
                current.variant = entry.variant
                self._update_logical(current)
            return False
        if current is not None and current.structure is not None and entry.structure is None:
            entry.structure = current.structure
        if current is not None and current.logical_key is not None and entry.logical_key is None:
            entry.logical_key = current.logical_key
            entry.variant = current.variant
        self._index[entry.key] = entry
        if entry.structure is not None:
            self._by_structure.setdefault(entry.structure, set()).add(entry.key)
        if entry.logical_key is not None:
            self._update_logical(entry)
        return True

    def _set_structure(self, entry: StoreEntry, structure: str) -> None:
        entry.structure = structure
        self._by_structure.setdefault(structure, set()).add(entry.key)

    def _update_logical(self, entry: StoreEntry) -> None:
        """Keep ``_by_logical`` pointing at the cheapest entry of each
        ``(logical_key, target)`` group (caller ensures the entry is in, or
        about to enter, the index)."""
        group = (entry.logical_key, entry.target)
        current_key = self._by_logical.get(group)
        if current_key is not None and current_key != entry.key:
            current = self._index.get(current_key)
            if current is not None and current.best_cost <= entry.best_cost:
                return
        self._by_logical[group] = entry.key

    def register_task(self, task: SearchTask) -> None:
        """Teach the store a workload's structure class (shape-class hash).

        Tuning sessions call this for every task they touch; it upgrades
        legacy-ingested entries of the same fingerprint so they join the
        similarity index used by cross-workload warm-starts.
        """
        with self._mutex:
            fingerprint = task.workload_fingerprint
            structure = task.structure_key
            self._structures[fingerprint] = structure
            logical_key = getattr(task, "logical_key", None)
            variant = getattr(task, "variant", None)
            if logical_key is not None and variant is not None:
                self._logical_meta[fingerprint] = (logical_key, variant)
            for key, entry in self._index.items():
                if key[0] != fingerprint:
                    continue
                if entry.structure is None:
                    self._set_structure(entry, structure)
                if entry.logical_key is None and logical_key is not None:
                    entry.logical_key = logical_key
                    entry.variant = variant
                    self._update_logical(entry)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put_record(
        self,
        record: TuningRecord,
        structure: Optional[str] = None,
        logical_key: Optional[str] = None,
        variant: Optional[str] = None,
    ) -> bool:
        """Offer one record to the store; it is kept only if it is a valid
        measurement strictly better than the key's current best.  Returns
        whether it became the new best (and was persisted)."""
        if not record.valid:
            return False
        fingerprint, target = split_workload_key(record.workload_key)
        entry = StoreEntry(
            fingerprint=fingerprint,
            target=target or record.target,
            record=record,
            structure=structure,
            logical_key=logical_key,
            variant=variant,
        )
        with self._file_lock():
            if not self._absorb(entry):
                return False
            if self.path is not None:
                self._append_line(entry)
            return True

    def put(self, inp, res) -> bool:
        """Offer one live measurement (:class:`MeasureInput`,
        :class:`MeasureResult`); the structure class comes from the task's
        DAG, so live-tuned entries always join the similarity index."""
        if not res.valid:
            return False
        self.register_task(inp.task)
        return self.put_record(
            TuningRecord.from_measurement(inp, res),
            structure=inp.task.structure_key,
            logical_key=getattr(inp.task, "logical_key", None),
            variant=getattr(inp.task, "variant", None),
        )

    def ingest(self, log_path: PathLike, task: Optional[SearchTask] = None) -> int:
        """Import a legacy line-per-trial tuning log.

        Every valid record is offered through the normal best-wins path, so
        the store ends up with exactly the per-key bests the log contains —
        and the kept records are the log's own lines, bit for bit (steps,
        costs, error taxonomy, timestamps), which is what makes the import
        lossless.  ``task`` (optional) supplies the structure class for
        records matching its fingerprint; otherwise entries join the
        similarity index when a live session registers the workload later.

        Returns the number of records that became a key's new best.
        """
        if task is not None:
            self.register_task(task)
        absorbed = 0
        for record in load_records(log_path):
            if self.put_record(record):
                absorbed += 1
        return absorbed

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key) -> bool:
        if isinstance(key, SearchTask):
            return self.lookup(key) is not None
        return tuple(key) in self._index

    def keys(self) -> List[StoreKey]:
        with self._mutex:
            return sorted(self._index)

    def entries(self) -> List[StoreEntry]:
        with self._mutex:
            return [self._index[k] for k in sorted(self._index)]

    def lookup_key(self, fingerprint: str, target: str) -> Optional[StoreEntry]:
        """O(1): the best entry for an exact ``(fingerprint, target)`` key."""
        with self._mutex:
            return self._index.get((fingerprint, target))

    def lookup(self, task: SearchTask) -> Optional[StoreEntry]:
        """O(1): the best entry for a task's own key."""
        return self.lookup_key(task.workload_fingerprint, task.target_name)

    def lookup_logical(self, logical_key: str, target: str) -> Optional[StoreEntry]:
        """O(1): the best entry across a whole variant group on one target —
        its ``variant`` field names the winning algorithm, its record the
        winning schedule.  ``None`` when no variant of the group has an
        entry for the target."""
        with self._mutex:
            key = self._by_logical.get((logical_key, target))
            return self._index.get(key) if key is not None else None

    def best_state(self, task: SearchTask) -> Optional["State"]:
        """Replay a task's stored best program, or ``None`` on a miss (the
        deployment path — the store-backed ``apply_history_best``)."""
        entry = self.lookup(task)
        if entry is None:
            return None
        return entry.to_state(task)

    def similar_entries(
        self, task: SearchTask, limit: Optional[int] = None
    ) -> List[StoreEntry]:
        """Entries of *other* workloads in the task's structure class (same
        DAG shape, different sizes) — warm-start seeds for a near-miss.

        Same-target entries sort first (their schedules tuned for the same
        machine), then by best cost; ``limit`` caps the result.
        """
        with self._mutex:
            self._structures.setdefault(task.workload_fingerprint, task.structure_key)
            keys = self._by_structure.get(task.structure_key, ())
            matches = [
                self._index[key]
                for key in keys
                if key in self._index and key[0] != task.workload_fingerprint
            ]
        matches.sort(
            key=lambda e: (e.target != task.target_name, e.best_cost)
        )
        if limit is not None:
            matches = matches[:limit]
        return matches

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    @property
    def segment_lines(self) -> int:
        """Lines in the segment file, superseded ones included (equals
        ``len(store)`` right after :meth:`compact`)."""
        return self._segment_lines

    def compact(self) -> int:
        """Drop superseded/invalid segment lines: merge the on-disk state
        (another session may have appended since we loaded), rewrite only
        the current bests to a temp file, fsync, and atomically rename it
        over the segment.  Returns the number of lines dropped.

        Readers are never exposed to a partial file: they either see the
        old segment or the complete new one.  In-memory stores no-op.
        """
        if self.path is None:
            return 0
        with self._file_lock():
            if self.path.exists():
                self._load_segment()
            before = self._segment_lines
            entries = [self._index[k] for k in sorted(self._index)]
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as f:
                    for entry in entries:
                        f.write(entry.to_json() + "\n")
                    f.flush()
                    os.fsync(f.fileno())
                os.replace(tmp_name, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            self._segment_lines = len(entries)
            return before - len(entries)


class StoreWriter(MeasureCallback):
    """Stream new bests into a :class:`ScheduleStore` as measurements land.

    Rides the streaming ``on_result`` hook, so on an asynchronous session
    every completed measurement is offered to the store the moment it comes
    off the device — a killed session keeps every best it found, and a
    concurrent session sees them after a :meth:`ScheduleStore.refresh`.
    Only valid results strictly better than the key's current best are
    persisted (the store's own best-wins rule), so the segment file grows
    with the number of *improvements*, not the number of trials.
    """

    def __init__(self, store: ScheduleStore):
        self.store = store

    def on_result(self, event: MeasureResultEvent) -> None:
        self.store.put(event.input, event.result)


# ---------------------------------------------------------------------------
# Tuning as a service
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


class TuningService:
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
        from .scheduler.task_scheduler import TaskScheduler  # local: cycle
        from .search.policy import resolve_policy

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
            trial_limits=[r.max_trials for r in missed],
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
        from .variants.arbiter import VariantPruner  # local: cycle

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
        from .hardware.measure import MeasurePipeline  # local: cycle

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
