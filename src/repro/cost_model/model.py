"""Cost models used by the performance tuner (§5.2).

Two models are provided:

* :class:`RandomCostModel` — returns random scores; used by the
  "no fine-tuning" ablation and as the cold-start behaviour before any
  measurement data exists.
* :class:`LearnedCostModel` — the paper's learned model: gradient boosted
  decision trees over per-statement features.  The model predicts a score
  per innermost statement and sums them per program.  The training loss is
  the throughput-weighted squared error
  ``loss(f, P, y) = y * (sum_{s in S(P)} f(s) - y)^2``, with throughputs
  normalized to ``[0, 1]`` per DAG (per task).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..hardware.measure import MeasureInput, MeasureResult
from ..ir.state import State
from .features import FEATURE_LENGTH, extract_program_features, extract_program_features_batch
from .gbdt import GBDTRegressor

__all__ = ["CostModel", "RandomCostModel", "LearnedCostModel"]

#: default bounded retraining window (samples)
DEFAULT_RETRAIN_WINDOW = 1024


class CostModel:
    """Interface of all cost models: higher predicted score = better program."""

    def update(self, inputs: Sequence[MeasureInput], results: Sequence[MeasureResult]) -> None:
        raise NotImplementedError

    def predict(self, task, states: Sequence[State]) -> np.ndarray:
        raise NotImplementedError

    def predict_stages(self, task, state: State) -> np.ndarray:
        """Per-statement scores (used by node-based crossover)."""
        scores = self.predict(task, [state])
        return np.array([scores[0]])


class RandomCostModel(CostModel):
    """A model that knows nothing: uniform random scores."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def update(self, inputs: Sequence[MeasureInput], results: Sequence[MeasureResult]) -> None:
        return None

    def predict(self, task, states: Sequence[State]) -> np.ndarray:
        return self.rng.random(len(states))

    def predict_stages(self, task, state: State) -> np.ndarray:
        return self.rng.random(max(len(state.compute_stages()), 1))


class LearnedCostModel(CostModel):
    """GBDT cost model over per-statement features (paper §5.2, Appendix B).

    Retraining is controlled by two orthogonal knobs:

    * ``retrain_interval`` — retrain once per this many ingested batches
      (``update()`` calls that added at least one valid record); skipped
      batches only extend the training set.
    * ``retrain_window`` — what each retrain trains on: a bounded sample
      window (the most recent three quarters plus an evenly-strided sweep
      of the older history, labels still normalized over the full
      history), keeping the cost per update flat as records accumulate.
      A history that fits in the window is fitted whole.  The default
      window (1024, capped at ``max_training_samples``) covers the whole
      retained training set, so by default every retrain fits on every
      retained sample; a window at least ``max_training_samples`` long
      always does.

    Batched prediction leaves each scored state its per-statement booster
    rows (``State._stage_rows``), tagged with this model and its booster
    version, so until the next retrain :meth:`predict_stages` (node-based
    crossover's per-node scores) reads them back instead of running the
    booster again.  Pickled states never carry them.
    """

    def __init__(
        self,
        n_rounds: int = 30,
        max_depth: int = 4,
        learning_rate: float = 0.2,
        max_training_samples: int = 1024,
        seed: int = 0,
        retrain_interval: int = 1,
        retrain_window: Optional[int] = None,
    ):
        if retrain_interval < 1:
            raise ValueError("retrain_interval must be >= 1")
        if retrain_window is not None and retrain_window < 2:
            raise ValueError("retrain_window must be >= 2 (or None for the default)")
        self.booster = GBDTRegressor(
            n_rounds=n_rounds,
            max_depth=max_depth,
            learning_rate=learning_rate,
            seed=seed,
        )
        self.max_training_samples = max_training_samples
        self.retrain_interval = retrain_interval
        self.retrain_window = (
            retrain_window
            if retrain_window is not None
            else min(DEFAULT_RETRAIN_WINDOW, max_training_samples)
        )
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        # Training set: one entry per measured program.
        self._features: List[np.ndarray] = []       # per-program feature matrices
        self._throughputs: List[float] = []         # raw throughput (flops / second)
        self._workloads: List[str] = []             # workload key per program
        self._updates_since_train = 0
        self._trained = False
        self._version = 0
        #: lifetime observability counters (surfaced by ProgressLogger and
        #: CostModelService.stats): samples accepted into the training set,
        #: retrains actually run, and update() calls that skipped the fit
        #: (no valid records, or the retrain_interval deferred it)
        self.samples_ingested = 0
        self.retrains_run = 0
        self.retrains_skipped = 0

    @property
    def version(self) -> int:
        """Monotonic training version: bumped on every retrain, 0 until the
        first (reported per target by ``CostModelService.stats``)."""
        return self._version

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def update(self, inputs: Sequence[MeasureInput], results: Sequence[MeasureResult]) -> None:
        """Add measured programs to the training set and re-train."""
        added = 0
        for inp, res in zip(inputs, results):
            if not res.valid:
                continue
            flops = inp.task.compute_dag.flop_count()
            throughput = flops / res.mean_cost
            try:
                features = extract_program_features(inp.state)
            except Exception:
                continue
            if features.shape[0] == 0:
                continue
            self._features.append(features)
            self._throughputs.append(throughput)
            self._workloads.append(inp.task.workload_key)
            added += 1
        if added == 0:
            # No-op batch (every result errored): nothing changed, so a
            # retrain could only reproduce the current booster — return
            # before touching the retrain clock.
            self.retrains_skipped += 1
            return
        self.samples_ingested += added
        # Bound the training set to the most recent programs.
        if len(self._features) > self.max_training_samples:
            excess = len(self._features) - self.max_training_samples
            self._features = self._features[excess:]
            self._throughputs = self._throughputs[excess:]
            self._workloads = self._workloads[excess:]
        self._updates_since_train += 1
        if self._updates_since_train >= self.retrain_interval:
            self._train()
            self._updates_since_train = 0
        else:
            self.retrains_skipped += 1

    def _normalized_labels(self) -> np.ndarray:
        """Throughputs normalized to [0, 1] within each workload (DAG)."""
        throughputs = np.asarray(self._throughputs, dtype=np.float64)
        _, group = np.unique(np.asarray(self._workloads, dtype=object), return_inverse=True)
        best = np.zeros(group.max() + 1 if len(group) else 0)
        np.maximum.at(best, group, throughputs)
        denom = best[group]
        return np.divide(
            throughputs, denom, out=np.zeros_like(throughputs), where=denom > 0
        )

    def _window_indices(self, n: int) -> Optional[np.ndarray]:
        """Which samples the next retrain fits on: ``None`` = all of them.

        More history than ``retrain_window`` keeps the most recent three
        quarters of the window verbatim (the samples the current search
        round cares about) and fills the rest with an evenly-strided sweep
        of the older history, so long-lived sessions keep cross-task
        coverage without paying full-history fits.  Deterministic (no RNG
        draw: the untrained-prediction stream must not depend on the
        window), and ascending so row order matches the full path's."""
        window = self.retrain_window
        if n <= window:
            return None
        recent = window - window // 4
        older = np.unique(np.linspace(0, n - recent - 1, num=window - recent).astype(np.int64))
        return np.concatenate([older, np.arange(n - recent, n, dtype=np.int64)])

    def _train(self) -> None:
        if not self._features:
            return
        # Labels normalize over the FULL retained history even when the
        # window drops samples: dropping the workload's best from the
        # window must not inflate the survivors to look optimal.
        labels = self._normalized_labels()
        indices = self._window_indices(len(self._features))
        if indices is None:
            features = self._features
        else:
            features = [self._features[i] for i in indices]
            labels = labels[indices]
        # Stack statements; remember which program each statement belongs to.
        stacked = np.vstack(features)
        group = np.concatenate(
            [np.full(f.shape[0], i, dtype=np.int64) for i, f in enumerate(features)]
        )
        n_programs = len(features)
        # Statement weight = its program's (normalized) throughput; the paper
        # weights the loss by the throughput y so fast programs matter more.
        weights = np.maximum(labels[group], 1e-3)

        def residual_fn(pred: np.ndarray) -> np.ndarray:
            program_pred = np.bincount(group, weights=pred, minlength=n_programs)
            residual_per_program = labels - program_pred
            return residual_per_program[group]

        self.booster.fit_boosting(stacked, residual_fn, sample_weight=weights)
        self._trained = True
        self._version += 1
        self.retrains_run += 1

    @property
    def num_samples(self) -> int:
        return len(self._features)

    @property
    def is_trained(self) -> bool:
        return self._trained

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, task, states: Sequence[State]) -> np.ndarray:
        """Batched prediction: featurize (memoized on each state), stack
        every statement of every state into one matrix, run the booster
        once, and sum rows per program.  Equivalent to per-state prediction,
        without the per-state Python round trips.  Each scored state keeps
        its (read-only) rows, tagged with this model and the booster version
        that computed them, for :meth:`predict_stages`."""
        if not states:
            return np.zeros(0)
        if not self._trained:
            return self.rng.random(len(states))
        feature_list = extract_program_features_batch(states)
        scores = np.full(len(states), -1e9)
        valid = [i for i, f in enumerate(feature_list) if f is not None and f.shape[0] > 0]
        if not valid:
            return scores
        stacked = np.vstack([feature_list[i] for i in valid])
        # Kept rows are tagged with the booster version they came from, so
        # rows computed while another thread retrains are never served for
        # the new booster.
        version = self._version
        rows = self.booster.predict(stacked)
        rows.flags.writeable = False
        offset = 0
        for i in valid:
            count = feature_list[i].shape[0]
            program_rows = rows[offset: offset + count]
            # Per-program slice sum: the same reduction the per-state path
            # performs, so scores match it bit for bit.
            scores[i] = float(program_rows.sum())
            states[i]._stage_rows = (self, version, program_rows)
            offset += count
        return scores

    def predict_stages(self, task, state: State) -> np.ndarray:
        """Per-statement scores of ``state``.  A state that this model's
        :meth:`predict` scored since the last retrain returns the (read-only)
        rows it kept; any other state runs the booster on its features."""
        if not self._trained:
            return self.rng.random(max(len(state.compute_stages()), 1))
        kept = state._stage_rows
        if kept is not None and kept[0] is self and kept[1] == self._version:
            return kept[2]
        features = extract_program_features(state)
        if features.shape[0] == 0:
            return np.zeros(1)
        return self.booster.predict(features)
