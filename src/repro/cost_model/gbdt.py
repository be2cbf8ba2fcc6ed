"""Gradient boosted regression trees, implemented from scratch on NumPy.

The paper trains a gradient boosting decision tree (XGBoost [8]) as the
underlying cost model ``f``.  XGBoost is not available offline, so this
module provides a compact, dependency-free GBDT with the pieces the cost
model needs:

* histogram-based greedy regression trees with weighted squared-error splits,
* sample weights (the paper weights programs by their throughput),
* a plain :class:`GBDTRegressor` for ordinary ``(X, y, w)`` regression, and
* support for custom per-round pseudo-residuals through
  :meth:`GBDTRegressor.fit_boosting`, which the program-level cost model uses
  to implement the grouped loss ``y * (sum_s f(s) - y)^2`` of §5.2.

Training cost: the cost model retrains after every measurement round, so
the fit is a search-time cost.  The quantile bin edges and the binned
matrix depend only on ``X``, which every boosting round shares, so
:meth:`GBDTRegressor.fit_boosting` bins once per fit, not once per tree.
Each node then scores all its candidate features from one ``np.bincount``
histogram: the features sit side by side, padded to one bin width, and
split positions past a feature's highest bin in the node are masked out.
Every bin still sums its rows in row order, the candidate features come
from the same RNG draws, and ties still go to the first feature drawn and
then its first bin, so the trees are bit-identical to a per-feature scan.
``perfbench/run.py --trace 1`` reports the retrain time of a session as
``cost_model.update_s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["RegressionTree", "GBDTRegressor"]

#: quantile bins per feature
_N_BINS = 16


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0
    is_leaf: bool = True


class _BinnedMatrix(NamedTuple):
    """A training matrix in per-feature quantile bins (needed during one fit only)."""

    #: per feature, the sorted bin edges (empty for a constant feature)
    edges: List[np.ndarray]
    #: ``(n, d)`` bin of every value: the number of edges ``<= x``
    bins: np.ndarray
    #: ``(d,)`` whether the feature has any edge, i.e. is not constant
    splittable: np.ndarray


def _bin_matrix(X: np.ndarray, n_bins: int) -> _BinnedMatrix:
    n, d = X.shape
    edges_list: List[np.ndarray] = []
    bins = np.empty((n, d), dtype=np.int16)
    for j in range(d):
        col = X[:, j]
        unique = np.unique(col)
        if len(unique) <= 1:
            edges = np.array([])
        else:
            qs = np.linspace(0, 1, min(n_bins, len(unique)) + 1)[1:-1]
            edges = np.unique(np.quantile(col, qs))
        edges_list.append(edges)
        bins[:, j] = np.searchsorted(edges, col, side="right") if len(edges) else 0
    splittable = np.fromiter((len(e) > 0 for e in edges_list), dtype=bool, count=d)
    return _BinnedMatrix(edges_list, bins, splittable)


class RegressionTree:
    """A depth-limited regression tree minimizing weighted squared error."""

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 4,
        n_bins: int = _N_BINS,
        feature_fraction: float = 1.0,
        min_gain: float = 1e-12,
    ):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.n_bins = n_bins
        self.feature_fraction = feature_fraction
        self.min_gain = min_gain
        self.nodes: List[_Node] = []

    def __setstate__(self, state: dict) -> None:
        # Trees pickled by earlier releases carry their training bin edges,
        # which predict never reads.
        state.pop("_edges", None)
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "RegressionTree":
        X = np.asarray(X, dtype=np.float64)
        return self._grow(_bin_matrix(X, self.n_bins), y, sample_weight, rng)

    def _grow(
        self,
        binned: _BinnedMatrix,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray],
        rng: Optional[np.random.Generator],
    ) -> "RegressionTree":
        y = np.asarray(y, dtype=np.float64)
        n = len(y)
        w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
        rng = rng or np.random.default_rng(0)
        self.nodes = []
        self._build(binned, y, w, np.arange(n), depth=0, rng=rng)
        self._flatten()
        return self

    def _flatten(self) -> None:
        """Pack the node list into parallel NumPy arrays for batched predict."""
        n = len(self.nodes)
        self._feature = np.fromiter((nd.feature for nd in self.nodes), dtype=np.int64, count=n)
        self._threshold = np.fromiter((nd.threshold for nd in self.nodes), dtype=np.float64, count=n)
        self._left = np.fromiter((nd.left for nd in self.nodes), dtype=np.int64, count=n)
        self._right = np.fromiter((nd.right for nd in self.nodes), dtype=np.int64, count=n)
        self._value = np.fromiter((nd.value for nd in self.nodes), dtype=np.float64, count=n)
        self._is_leaf = np.fromiter((nd.is_leaf for nd in self.nodes), dtype=bool, count=n)

    def _build(
        self,
        binned: _BinnedMatrix,
        y: np.ndarray,
        w: np.ndarray,
        idx: np.ndarray,
        depth: int,
        rng: np.random.Generator,
    ) -> int:
        node_id = len(self.nodes)
        node = _Node()
        self.nodes.append(node)
        w_node = w[idx]
        wy = w_node * y[idx]
        w_sum = w_node.sum()
        wy_sum = wy.sum()
        node.value = float(wy_sum / w_sum) if w_sum > 0 else 0.0

        if depth >= self.max_depth or len(idx) < 2 * self.min_samples_leaf:
            return node_id

        best = self._best_split(binned, w_node, wy, w_sum, wy_sum, idx, rng)
        if best is None:
            return node_id
        feature, bin_threshold, gain = best
        if gain <= self.min_gain:
            return node_id

        mask = binned.bins[idx, feature] <= bin_threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if len(left_idx) < self.min_samples_leaf or len(right_idx) < self.min_samples_leaf:
            return node_id

        node.is_leaf = False
        node.feature = feature
        # Known defect, kept for seeded parity: x == threshold trains right (bin <= b is x < edges[b]), predicts left.
        node.threshold = float(binned.edges[feature][bin_threshold])
        node.left = self._build(binned, y, w, left_idx, depth + 1, rng)
        node.right = self._build(binned, y, w, right_idx, depth + 1, rng)
        return node_id

    def _best_split(
        self,
        binned: _BinnedMatrix,
        w_node: np.ndarray,
        wy: np.ndarray,
        total_w: float,
        total_wy: float,
        idx: np.ndarray,
        rng: np.random.Generator,
    ) -> Optional[Tuple[int, int, float]]:
        """The ``(feature, bin, gain)`` of the node's best split ``bin <= b``."""
        d = binned.bins.shape[1]
        features = np.arange(d)
        if self.feature_fraction < 1.0:
            k = max(1, int(d * self.feature_fraction))
            features = rng.choice(d, size=k, replace=False)
        # Constant features never split; dropping them after the draw keeps
        # the RNG stream.
        features = features[binned.splittable[features]]
        if total_w <= 0 or not len(features):
            return None
        base_score = total_wy * total_wy / total_w

        node_bins = binned.bins[idx[:, None], features]
        top = node_bins.max(axis=0)
        width = int(top.max()) + 1
        if width <= 1:
            return None
        # One histogram for every candidate: feature slot s owns the cells
        # [s * width, (s + 1) * width).  Flattened row-major, each cell adds
        # its rows in row order, exactly as a per-feature bincount does.
        k = len(features)
        cells = (node_bins + np.arange(k) * width).ravel()
        sum_w = np.bincount(cells, weights=np.repeat(w_node, k), minlength=k * width)
        sum_wy = np.bincount(cells, weights=np.repeat(wy, k), minlength=k * width)
        cw = np.cumsum(sum_w.reshape(k, width), axis=1)[:, :-1]
        cwy = np.cumsum(sum_wy.reshape(k, width), axis=1)[:, :-1]
        rw = total_w - cw
        rwy = total_wy - cwy
        # Splits at or past a feature's top bin in the node leave nothing on
        # the right but rounding residue of the padded cumsum.
        valid = (cw > 0) & (rw > 0) & (np.arange(width - 1) < top[:, None])
        score = np.where(valid, cwy**2 / np.maximum(cw, 1e-12) + rwy**2 / np.maximum(rw, 1e-12), -np.inf)
        gain = score - base_score
        # The sequential scan's tie rule: first feature drawn with the largest
        # gain, then its first bin; a NaN gain never wins.
        best_bin = gain.argmax(axis=1)
        best_gain = gain[np.arange(k), best_bin]
        best_gain[np.isnan(best_gain)] = -np.inf
        f = int(best_gain.argmax())
        if not best_gain[f] > 0:
            return None
        return int(features[f]), int(best_bin[f]), float(best_gain[f])

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route the whole matrix through the tree by vectorized level-stepping.

        Every row performs exactly the comparisons of the per-row traversal
        (same float64 operands), so the result is bit-identical to
        :meth:`predict_rowwise`.
        """
        X = np.asarray(X, dtype=np.float64)
        n = len(X)
        if n == 0:
            return np.empty(0)
        if not hasattr(self, "_is_leaf"):
            self._flatten()
        idx = np.zeros(n, dtype=np.int64)
        active = np.nonzero(~self._is_leaf[idx])[0]
        while len(active):
            node = idx[active]
            go_left = X[active, self._feature[node]] <= self._threshold[node]
            idx[active] = np.where(go_left, self._left[node], self._right[node])
            active = active[~self._is_leaf[idx[active]]]
        return self._value[idx]

    def predict_rowwise(self, X: np.ndarray) -> np.ndarray:
        """Reference per-row traversal (the pre-vectorization implementation).

        Kept as the parity oracle for tests and the seed baseline of the
        search-throughput benchmark.
        """
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X))
        for i, row in enumerate(X):
            node = self.nodes[0]
            while not node.is_leaf:
                if row[node.feature] <= node.threshold:
                    node = self.nodes[node.left]
                else:
                    node = self.nodes[node.right]
            out[i] = node.value
        return out


class GBDTRegressor:
    """Gradient boosting with squared-error loss and sample weights."""

    def __init__(
        self,
        n_rounds: int = 30,
        learning_rate: float = 0.15,
        max_depth: int = 4,
        min_samples_leaf: int = 4,
        feature_fraction: float = 0.8,
        seed: int = 0,
    ):
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.feature_fraction = feature_fraction
        self.seed = seed
        self.base_score = 0.0
        self.trees: List[RegressionTree] = []

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray, sample_weight: Optional[np.ndarray] = None) -> "GBDTRegressor":
        """Ordinary weighted least-squares boosting on per-sample targets."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n = len(y)
        w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)

        def residuals(pred: np.ndarray) -> np.ndarray:
            return y - pred

        self.fit_boosting(X, residuals, sample_weight=w, base_target=y)
        return self

    def fit_boosting(
        self,
        X: np.ndarray,
        residual_fn: Callable[[np.ndarray], np.ndarray],
        sample_weight: Optional[np.ndarray] = None,
        base_target: Optional[np.ndarray] = None,
    ) -> "GBDTRegressor":
        """Boost against arbitrary per-round pseudo-residuals.

        ``residual_fn`` receives the current per-sample predictions and must
        return the residual (negative gradient direction) each sample should
        move towards.  This is how the program-level cost model implements
        the grouped loss of the paper: the residual of every statement of a
        program is ``y - sum_of_statement_predictions``.
        """
        X = np.asarray(X, dtype=np.float64)
        n = len(X)
        w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        binned = _bin_matrix(X, _N_BINS)

        if base_target is not None and w.sum() > 0:
            self.base_score = float((w * base_target).sum() / w.sum())
        else:
            self.base_score = 0.0
        self.trees = []
        pred = np.full(n, self.base_score)
        for _ in range(self.n_rounds):
            residual = residual_fn(pred)
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                feature_fraction=self.feature_fraction,
            )
            tree._grow(binned, residual, w, rng)
            update = tree.predict(X)
            pred = pred + self.learning_rate * update
            self.trees.append(tree)
        return self

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        pred = np.full(len(X), self.base_score)
        for tree in self.trees:
            pred += self.learning_rate * tree.predict(X)
        return pred

    def predict_rowwise(self, X: np.ndarray) -> np.ndarray:
        """Reference prediction through the per-row tree traversals."""
        X = np.asarray(X, dtype=np.float64)
        pred = np.full(len(X), self.base_score)
        for tree in self.trees:
            pred += self.learning_rate * tree.predict_rowwise(X)
        return pred

    @property
    def is_fitted(self) -> bool:
        return len(self.trees) > 0
