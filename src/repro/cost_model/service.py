"""The cost-model service: one shared, persistent model per hardware target.

The paper trains a *single* cost model on the measurements of all tasks
(§5.2) — that sharing is where most of its sample-efficiency comes from.
:class:`CostModelService` is the subsystem that owns that sharing across
every layer of the tuner:

* every :class:`~repro.tuner.Tuner` session — one task, a task list with
  variant groups, or networks, all driven by one
  :class:`~repro.scheduler.task_scheduler.TaskScheduler` — trains and
  predicts through one service instead of constructing throwaway
  per-policy :class:`~repro.cost_model.model.LearnedCostModel` instances;
* the service keys models by **hardware target** (a program that is fast
  on one machine says little about another), lazily creating one
  :class:`LearnedCostModel` per target name and handing policies a
  lightweight per-target :class:`ServiceCostModel` view;
* ``save(path)`` / ``load(path)`` persist booster + training set with
  bit-identical predictions after reload (the cross-session warm-start
  analogous to the PR 6 :class:`~repro.store.ScheduleStore`), wired to
  sessions through ``TuningOptions(cost_model_path=...)``.

A truncated or corrupt save file raises :class:`CostModelLoadError` — a
session asked to warm-start must never silently cold-start instead.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..ir.state import State
from .model import CostModel, LearnedCostModel

__all__ = ["CostModelService", "ServiceCostModel", "CostModelLoadError"]

#: save-file header: identifies the pickle as a cost-model service snapshot
_SAVE_MAGIC = "repro.cost_model.service"
_SAVE_FORMAT = 1


class CostModelLoadError(RuntimeError):
    """A persisted cost-model file could not be loaded (missing, truncated,
    corrupt, or not a cost-model save at all).  Raised instead of silently
    cold-starting: a warm-start the caller asked for must not quietly
    degrade into an untrained model."""


def _target_name(target) -> str:
    """The hardware-target key of a SearchTask / HardwareParams / string."""
    name = getattr(target, "target_name", None)  # SearchTask
    if isinstance(name, str):
        return name
    name = getattr(target, "name", None)  # HardwareParams
    if isinstance(name, str):
        return name
    if isinstance(target, str):
        return target
    raise TypeError(
        f"expected a SearchTask, HardwareParams or target name, got {target!r}"
    )


class ServiceCostModel(CostModel):
    """A per-target view of a :class:`CostModelService`.

    This is what search policies receive as their ``cost_model``: it
    satisfies the :class:`~repro.cost_model.model.CostModel` interface by
    delegating training through the service (so ingest counting and
    versioning stay centralized) and prediction straight to the underlying
    per-target :class:`LearnedCostModel` (no extra indirection or RNG draws
    — predictions are bit-identical to using the model directly).
    """

    def __init__(self, service: "CostModelService", target_name: str):
        self.service = service
        self.target_name = target_name

    @property
    def model(self) -> LearnedCostModel:
        """The underlying per-target model (lazily created by the service)."""
        return self.service.model_for(self.target_name)

    def update(self, inputs, results) -> None:
        self.service.ingest(self.target_name, inputs, results)

    def predict(self, task, states: Sequence[State]) -> np.ndarray:
        return self.model.predict(task, states)

    def predict_stages(self, task, state: State) -> np.ndarray:
        return self.model.predict_stages(task, state)

    # -- passthrough introspection (what callers read off a LearnedCostModel)
    @property
    def num_samples(self) -> int:
        return self.model.num_samples

    @property
    def is_trained(self) -> bool:
        return self.model.is_trained

    @property
    def version(self) -> int:
        return self.model.version

    def __repr__(self) -> str:
        return f"ServiceCostModel(target={self.target_name!r}, v{self.version})"


class CostModelService:
    """Owns one :class:`LearnedCostModel` per hardware target and is the
    single training/prediction authority of a tuning session (or several:
    a service bound to a ``path`` persists across sessions).

    ::

        service = CostModelService(path="cost_model.pkl")   # loads if present
        Tuner(task, cost_model_service=service).tune()       # trains it
        service.save()                                       # warm next session

    Thread-safe for the interleaved ingest pattern of concurrent drivers
    (one lock around model creation and training; prediction reads are
    GIL-atomic on the underlying NumPy calls).
    """

    def __init__(
        self,
        path=None,
        *,
        retrain_interval: int = 1,
        retrain_window: Optional[int] = None,
        max_training_samples: int = 1024,
        n_rounds: int = 30,
        seed: int = 0,
        model_factory: Optional[Callable[[], CostModel]] = None,
    ):
        if retrain_interval < 1:
            raise ValueError("retrain_interval must be >= 1")
        self.path: Optional[Path] = Path(path) if path is not None else None
        self.retrain_interval = retrain_interval
        self.retrain_window = retrain_window
        self.max_training_samples = max_training_samples
        self.n_rounds = n_rounds
        self.seed = seed
        self._model_factory = model_factory
        self._models: Dict[str, CostModel] = {}
        self._lock = threading.RLock()
        #: ingested batches across all targets (update() calls with records)
        self.ingests = 0
        #: where the last load came from / the last save went (stats only)
        self.loaded_from: Optional[Path] = None
        if self.path is not None and self.path.exists():
            self.load(self.path)

    @classmethod
    def from_options(cls, options, seed: Optional[int] = None) -> "CostModelService":
        """Build a service from the cost-model knobs of a
        :class:`~repro.task.TuningOptions` (loading ``cost_model_path`` if
        the file exists)."""
        return cls(
            path=options.cost_model_path,
            retrain_interval=options.cost_model_retrain_interval,
            retrain_window=options.cost_model_window,
            seed=options.seed if seed is None else seed,
        )

    # ------------------------------------------------------------------
    # Per-target models and views
    # ------------------------------------------------------------------
    def _new_model(self) -> CostModel:
        if self._model_factory is not None:
            return self._model_factory()
        return LearnedCostModel(
            n_rounds=self.n_rounds,
            max_training_samples=self.max_training_samples,
            retrain_interval=self.retrain_interval,
            retrain_window=self.retrain_window,
            seed=self.seed,
        )

    @property
    def targets(self) -> List[str]:
        """The hardware targets with a model (sorted)."""
        with self._lock:
            return sorted(self._models)

    def model_for(self, target) -> CostModel:
        """The (lazily created) model of one target."""
        name = _target_name(target)
        with self._lock:
            model = self._models.get(name)
            if model is None:
                model = self._new_model()
                self._models[name] = model
            return model

    def view(self, target) -> ServiceCostModel:
        """A policy-facing :class:`CostModel` bound to one target."""
        return ServiceCostModel(self, _target_name(target))

    # ------------------------------------------------------------------
    # Training and prediction
    # ------------------------------------------------------------------
    def ingest(self, target, inputs, results) -> None:
        """Feed one batch of measurements into the target's model."""
        model = self.model_for(target)
        with self._lock:
            self.ingests += 1
            model.update(inputs, results)

    def predict(self, task, states: Sequence[State]) -> np.ndarray:
        """Scores of ``states`` under the task's target model."""
        return self.model_for(task).predict(task, states)

    def version(self, target) -> int:
        """The target model's training version (0 = untrained)."""
        return int(getattr(self.model_for(target), "version", 0))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path=None) -> Path:
        """Atomically persist every per-target model (booster + training
        set + RNG state) so a reload predicts bit-identically."""
        destination = Path(path) if path is not None else self.path
        if destination is None:
            raise ValueError("CostModelService.save() needs a path (none bound)")
        with self._lock:
            payload = {
                "magic": _SAVE_MAGIC,
                "format": _SAVE_FORMAT,
                "seed": self.seed,
                "models": dict(self._models),
            }
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        destination.parent.mkdir(parents=True, exist_ok=True)
        # Same publish discipline as ScheduleStore.compact: write a sibling
        # temp file, fsync, then atomically replace — a crash mid-save leaves
        # the previous snapshot intact, never a truncated one.
        fd, tmp_name = tempfile.mkstemp(
            dir=str(destination.parent), prefix=destination.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, destination)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return destination

    def load(self, path=None) -> "CostModelService":
        """Restore per-target models from a :meth:`save` file.

        Loaded models replace same-target models; targets only present in
        memory are kept.  Anything unreadable raises
        :class:`CostModelLoadError` — never a silent cold start."""
        source = Path(path) if path is not None else self.path
        if source is None:
            raise ValueError("CostModelService.load() needs a path (none bound)")
        try:
            with open(source, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            raise CostModelLoadError(f"no cost-model file at {source}") from None
        except Exception as exc:
            raise CostModelLoadError(
                f"cost-model file {source} is truncated or corrupt: {exc}"
            ) from exc
        if not isinstance(payload, dict) or payload.get("magic") != _SAVE_MAGIC:
            raise CostModelLoadError(f"{source} is not a cost-model service file")
        if payload.get("format") != _SAVE_FORMAT:
            raise CostModelLoadError(
                f"{source} uses unsupported cost-model format "
                f"{payload.get('format')!r} (this build reads format {_SAVE_FORMAT})"
            )
        models = payload.get("models")
        if not isinstance(models, dict):
            raise CostModelLoadError(f"{source} carries no per-target models")
        with self._lock:
            self._models.update(models)
        self.loaded_from = source
        return self

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """End-of-session observability (what ProgressLogger prints):
        per-target samples/ingests/retrain counters/version plus the bound
        persistence path."""
        with self._lock:
            targets = {
                name: {
                    "samples": int(getattr(model, "num_samples", 0)),
                    "samples_ingested": int(getattr(model, "samples_ingested", 0)),
                    "retrains_run": int(getattr(model, "retrains_run", 0)),
                    "retrains_skipped": int(getattr(model, "retrains_skipped", 0)),
                    "version": int(getattr(model, "version", 0)),
                }
                for name, model in self._models.items()
            }
        return {
            "path": str(self.path) if self.path is not None else None,
            "ingests": self.ingests,
            "targets": targets,
        }

    def __repr__(self) -> str:
        targets = ", ".join(self.targets) or "no targets yet"
        bound = f", path={str(self.path)!r}" if self.path is not None else ""
        return f"CostModelService({targets}{bound})"
