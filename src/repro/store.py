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

Two consumer paths hang off the store, both through
``Tuner(workload, store=store)``:

1. **Instant lookup** — a task whose key hits, or a
   :class:`~repro.variants.LogicalOp` whose ``(logical_key, target)`` entry
   names a current variant, is served without a single measurement trial;
   the rest of the workload shares the trial budget, and a session whose
   every item hits returns ``from_store=True``.  ``store_refresh`` is the
   escape hatch.
2. **Cross-session warm-start** — a store-bound
   :class:`~repro.search.sketch_policy.SketchPolicy` seeds its initial
   evolutionary population from the store's bests for the same workload
   and for structurally similar workloads (same DAG shape class, different
   sizes; replayed via :meth:`~repro.records.TuningRecord.to_state`),
   falling back to random sampling for the remainder.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, Union

from .callbacks import MeasureCallback, MeasureResultEvent
from .records import RecordLogWarning, TuningRecord, load_records
from .task import SearchTask, split_workload_key

if TYPE_CHECKING:  # pragma: no cover - types only (avoid import cycles)
    from .ir.state import State

try:  # POSIX advisory locking; other platforms fall back to best-effort.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

__all__ = ["StoreEntry", "ScheduleStore", "StoreWriter"]

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
