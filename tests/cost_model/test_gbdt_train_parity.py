"""Training parity: the bin-once, all-feature-histogram trainer must grow the
same trees as the per-tree binning and per-feature split scan it replaced.

The reference trainer below is that earlier implementation, rewritten as
functions over ordinary :class:`RegressionTree` objects and otherwise
unchanged.  A reference booster therefore also has the earlier pickled
layout: its trees carry the ``_edges`` of their fit.
"""

import pickle

import numpy as np
import pytest

from repro import MeasureCallback, SearchTask, Tuner, TuningOptions, intel_cpu
from repro.cost_model.gbdt import _N_BINS, GBDTRegressor, RegressionTree, _bin_matrix, _Node

from ..conftest import make_matmul_relu_dag

TREE_ARRAYS = ("_feature", "_threshold", "_left", "_right", "_value", "_is_leaf")


# ---------------------------------------------------------------------------
# Reference trainer: per-tree binning, one histogram per feature
# ---------------------------------------------------------------------------


def reference_fit_tree(tree, X, y, sample_weight=None, rng=None):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    rng = rng or np.random.default_rng(0)

    tree._edges = []
    binned = np.empty((n, d), dtype=np.int16)
    for j in range(d):
        col = X[:, j]
        unique = np.unique(col)
        if len(unique) <= 1:
            edges = np.array([])
        else:
            qs = np.linspace(0, 1, min(tree.n_bins, len(unique)) + 1)[1:-1]
            edges = np.unique(np.quantile(col, qs))
        tree._edges.append(edges)
        binned[:, j] = np.searchsorted(edges, col, side="right") if len(edges) else 0

    tree.nodes = []
    _reference_build(tree, binned, y, w, np.arange(n), 0, rng)
    tree._flatten()
    return tree


def _reference_build(tree, binned, y, w, idx, depth, rng):
    node_id = len(tree.nodes)
    node = _Node()
    tree.nodes.append(node)
    w_node = w[idx]
    y_node = y[idx]
    w_sum = w_node.sum()
    node.value = float((w_node * y_node).sum() / w_sum) if w_sum > 0 else 0.0

    if depth >= tree.max_depth or len(idx) < 2 * tree.min_samples_leaf:
        return node_id

    best = _reference_best_split(tree, binned, y, w, idx, rng)
    if best is None:
        return node_id
    feature, bin_threshold, gain = best
    if gain <= tree.min_gain:
        return node_id

    mask = binned[idx, feature] <= bin_threshold
    left_idx = idx[mask]
    right_idx = idx[~mask]
    if len(left_idx) < tree.min_samples_leaf or len(right_idx) < tree.min_samples_leaf:
        return node_id

    node.is_leaf = False
    node.feature = feature
    edges = tree._edges[feature]
    node.threshold = float(edges[bin_threshold]) if bin_threshold < len(edges) else float("inf")
    node.left = _reference_build(tree, binned, y, w, left_idx, depth + 1, rng)
    node.right = _reference_build(tree, binned, y, w, right_idx, depth + 1, rng)
    return node_id


def _reference_best_split(tree, binned, y, w, idx, rng):
    d = binned.shape[1]
    features = np.arange(d)
    if tree.feature_fraction < 1.0:
        k = max(1, int(d * tree.feature_fraction))
        features = rng.choice(d, size=k, replace=False)

    y_node = y[idx]
    w_node = w[idx]
    wy = w_node * y_node
    total_w = w_node.sum()
    total_wy = wy.sum()
    if total_w <= 0:
        return None
    base_score = total_wy * total_wy / total_w

    best_gain = 0.0
    best_feature = -1
    best_bin = -1
    for j in features:
        bins = binned[idx, j]
        n_bins = int(bins.max()) + 1 if len(bins) else 1
        if n_bins <= 1:
            continue
        sum_w = np.bincount(bins, weights=w_node, minlength=n_bins)
        sum_wy = np.bincount(bins, weights=wy, minlength=n_bins)
        cw = np.cumsum(sum_w)[:-1]
        cwy = np.cumsum(sum_wy)[:-1]
        rw = total_w - cw
        rwy = total_wy - cwy
        valid = (cw > 0) & (rw > 0)
        if not valid.any():
            continue
        score = np.where(valid, cwy**2 / np.maximum(cw, 1e-12) + rwy**2 / np.maximum(rw, 1e-12), -np.inf)
        gain = score - base_score
        k = int(np.argmax(gain))
        if gain[k] > best_gain:
            best_gain = float(gain[k])
            best_feature = int(j)
            best_bin = k
    if best_feature < 0:
        return None
    return best_feature, best_bin, best_gain


def reference_fit_boosting(self, X, residual_fn, sample_weight=None, base_target=None):
    """Drop-in for :meth:`GBDTRegressor.fit_boosting` that bins per tree."""
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    rng = np.random.default_rng(self.seed)

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
        reference_fit_tree(tree, X, residual, sample_weight=w, rng=rng)
        pred = pred + self.learning_rate * tree.predict(X)
        self.trees.append(tree)
    return self


def reference_fit(booster, X, y, sample_weight=None):
    """Drop-in for :meth:`GBDTRegressor.fit` through the reference trainer."""
    y = np.asarray(y, dtype=np.float64)
    return reference_fit_boosting(booster, X, lambda pred: y - pred, sample_weight, base_target=y)


def assert_same_trees(new, ref, label=""):
    for name in TREE_ARRAYS:
        np.testing.assert_array_equal(getattr(new, name), getattr(ref, name), err_msg=label + name, strict=True)


def assert_same_boosters(new, ref):
    np.testing.assert_equal(new.base_score, ref.base_score)
    assert len(new.trees) == len(ref.trees)
    for t, (a, b) in enumerate(zip(new.trees, ref.trees)):
        assert_same_trees(a, b, f"tree {t}: ")


# ---------------------------------------------------------------------------
# Seeded random matrices
# ---------------------------------------------------------------------------


def random_training_set(rng, n, d):
    """Columns mixing the shapes real feature matrices have: constant,
    low-cardinality (values on bin edges), duplicated and continuous."""
    columns = []
    for _ in range(d):
        kind = rng.integers(4)
        if kind == 0:
            columns.append(np.full(n, rng.standard_normal()))
        elif kind == 1:
            columns.append(rng.integers(0, 3, n).astype(np.float64))
        elif kind == 2 and columns:
            columns.append(columns[rng.integers(len(columns))].copy())
        else:
            columns.append(rng.standard_normal(n))
    X = np.column_stack(columns)
    y = X @ rng.standard_normal(d) + rng.standard_normal(n)
    w = rng.random(n) + 1e-3
    return X, y, w


@pytest.mark.parametrize("feature_fraction", [1.0, 0.8, 0.5])
@pytest.mark.parametrize("max_depth", range(6))
def test_booster_matches_reference_on_random_matrices(feature_fraction, max_depth):
    rng = np.random.default_rng(100 * max_depth + int(10 * feature_fraction))
    for trial in range(5):
        X, y, w = random_training_set(rng, int(rng.integers(8, 150)), int(rng.integers(1, 20)))
        params = dict(
            n_rounds=6,
            max_depth=max_depth,
            min_samples_leaf=1 + trial,
            feature_fraction=feature_fraction,
            seed=trial,
        )
        new = GBDTRegressor(**params).fit(X, y, sample_weight=w)
        ref = reference_fit(GBDTRegressor(**params), X, y, sample_weight=w)
        assert_same_boosters(new, ref)


def test_grouped_boosting_matches_reference():
    """The cost model's grouped residuals: statements sum per program."""
    rng = np.random.default_rng(7)
    X, _, w = random_training_set(rng, 240, 24)
    group = np.repeat(np.arange(80), 3)
    labels = rng.random(80)

    def residual_fn(pred):
        return (labels - np.bincount(group, weights=pred, minlength=80))[group]

    new = GBDTRegressor(n_rounds=30, max_depth=4, seed=3).fit_boosting(X, residual_fn, sample_weight=w)
    ref = reference_fit_boosting(GBDTRegressor(n_rounds=30, max_depth=4, seed=3), X, residual_fn, w)
    assert_same_boosters(new, ref)


def _single_tree_case(name):
    rng = np.random.default_rng(11)
    X, y, w = random_training_set(rng, 60, 8)
    params = dict(max_depth=5, min_samples_leaf=2)
    if name == "zero-weight rows":
        w[::3] = 0.0
    elif name == "all columns constant":
        X = np.ones((60, 4))
    elif name == "large target offset":
        # Far from zero, the padded histogram's cumsum leaves rounding
        # residue right of each feature's top bin.
        X = rng.integers(0, 3, (60, 6)).astype(np.float64)
        y = 1e6 + 1e-3 * rng.standard_normal(60)
    elif name == "overflowing bin sums":
        # Bins of column 0 sum to +inf and -inf, so its gains run into NaN
        # while column 1 still has a finite best split.
        X = np.array([[0, 0], [1, 0], [0, 0], [1, 0], [2, 1], [2, 2]], dtype=np.float64)
        y = np.array([1e308, -1e308, 1e308, -1e308, 1.0, 2.0])
        w = np.ones(6)
        params = dict(max_depth=1, min_samples_leaf=1)
    elif name == "zero gains, negative min_gain":
        # A node splits only on a gain > 0, whatever min_gain allows.
        y = np.zeros(60)
        params["min_gain"] = -1.0
    elif name == "NaN and infinite columns":
        # np.unique counts all the NaNs of a column as one value, so an
        # all-NaN column is constant; a column's NaNs turn its quantile
        # edges into NaN, and infinities sort to its ends.
        X[::4, 0] = np.nan
        X[1::5, 1] = np.inf
        X[2::5, 1] = -np.inf
        X[:, 2] = np.nan
        X[:, 3] = np.where(np.arange(60) % 3, 1.0, np.nan)
        X[:, 4] = np.where(np.arange(60) % 2, np.inf, -np.inf)
        X[::7, 5] = np.inf
        X[1::7, 5] = np.nan
    return X, y, w, params


@pytest.mark.parametrize(
    "case",
    [
        "mixed columns",
        "zero-weight rows",
        "all columns constant",
        "large target offset",
        "overflowing bin sums",
        "zero gains, negative min_gain",
        "NaN and infinite columns",
    ],
)
def test_single_tree_matches_reference(case):
    X, y, w, params = _single_tree_case(case)
    with np.errstate(over="ignore", invalid="ignore"):
        for fraction in (1.0, 0.6):
            new = RegressionTree(feature_fraction=fraction, **params)
            ref = RegressionTree(feature_fraction=fraction, **params)
            new.fit(X, y, sample_weight=w, rng=np.random.default_rng(0))
            reference_fit_tree(ref, X, y, w, rng=np.random.default_rng(0))
            assert_same_trees(new, ref)


@pytest.mark.parametrize("case", ["mixed columns", "all columns constant", "NaN and infinite columns"])
def test_binning_matches_reference(case):
    """Edges, bins and splittable columns equal the per-column binning,
    including on columns no tree would split (an all-NaN column)."""
    X = _single_tree_case(case)[0]
    matrices = [X] + [random_training_set(np.random.default_rng(seed), 90, 30)[0] for seed in range(4)]
    for X in matrices:
        with np.errstate(invalid="ignore"):
            binned = _bin_matrix(X, _N_BINS)
            ref = reference_fit_tree(RegressionTree(max_depth=0), X, np.zeros(len(X)))
        assert len(binned.edges) == len(ref._edges)
        for j, (edges, expected) in enumerate(zip(binned.edges, ref._edges)):
            np.testing.assert_array_equal(edges, expected, err_msg=f"column {j}", strict=True)
            column = np.searchsorted(expected, X[:, j], side="right") if len(expected) else 0
            np.testing.assert_array_equal(binned.bins[:, j], column, err_msg=f"column {j}")
        assert binned.bins.dtype == np.int16
        assert binned.splittable.tolist() == [len(e) > 0 for e in ref._edges]


# ---------------------------------------------------------------------------
# A whole tuning session
# ---------------------------------------------------------------------------


class _RoundLog(MeasureCallback):
    def __init__(self):
        self.rounds = []

    def on_round(self, event):
        fingerprints = [inp.state.fingerprint() for inp in event.inputs]
        self.rounds.append((fingerprints, event.best_cost))


def _session():
    log = _RoundLog()
    options = TuningOptions(num_measure_trials=32, num_measures_per_round=8, seed=0)
    result = Tuner(SearchTask(make_matmul_relu_dag(), intel_cpu()), options=options, callbacks=[log]).tune()
    return log.rounds, result.best_cost


def test_seeded_session_matches_reference_trainer(monkeypatch):
    rounds, best = _session()
    monkeypatch.setattr(GBDTRegressor, "fit_boosting", reference_fit_boosting)
    ref_rounds, ref_best = _session()
    assert len(rounds) == 4
    assert rounds == ref_rounds
    assert best == ref_best


# ---------------------------------------------------------------------------
# Fitted models
# ---------------------------------------------------------------------------


def test_fitted_trees_keep_no_bin_edges():
    rng = np.random.default_rng(3)
    X, y, w = random_training_set(rng, 100, 12)
    new = GBDTRegressor(n_rounds=10).fit(X, y, sample_weight=w)
    ref = reference_fit(GBDTRegressor(n_rounds=10), X, y, w)
    assert not any(hasattr(tree, "_edges") for tree in new.trees)
    assert len(pickle.dumps(new)) < len(pickle.dumps(ref))


def test_model_pickled_with_bin_edges_loads_and_predicts_identically():
    """Earlier releases pickled every tree with the bin edges of its fit."""
    rng = np.random.default_rng(5)
    X, y, w = random_training_set(rng, 100, 12)
    legacy = reference_fit(GBDTRegressor(n_rounds=10), X, y, w)
    assert all(hasattr(tree, "_edges") for tree in legacy.trees)
    X_test = rng.standard_normal((50, 12))
    expected = legacy.predict(X_test)

    loaded = pickle.loads(pickle.dumps(legacy))
    assert np.array_equal(loaded.predict(X_test), expected)
    assert np.array_equal(loaded.predict_rowwise(X_test), expected)
    assert_same_boosters(loaded, GBDTRegressor(n_rounds=10).fit(X, y, sample_weight=w))
    assert not any(hasattr(tree, "_edges") for tree in loaded.trees)


# ---------------------------------------------------------------------------
# Known defect
# ---------------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="training splits on bin <= b, i.e. x < edges[b], but predict sends "
    "x <= threshold == edges[b] left, so rows exactly on an edge switch sides",
)
def test_predict_routes_training_rows_to_the_leaf_they_were_fit_in():
    # The only edge is 1.0 and the stump splits there: training puts the
    # rows with x == 1 right of it, predict puts them left.
    x = np.array([0.0] * 4 + [1.0] * 8 + [2.0] * 4)
    tree = RegressionTree(max_depth=1, min_samples_leaf=1).fit(x[:, None], x)
    # Each leaf value is the mean target of the rows it was fit on, so it
    # must also be the mean of the rows predict routes to it.
    pred = tree.predict(x[:, None])
    for value in np.unique(pred):
        assert x[pred == value].mean() == pytest.approx(value)
