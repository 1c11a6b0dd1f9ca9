"""From-scratch random forest for binary targets.

CART trees grown on bootstrap resamples, best-of-mtry Gini splits, leaf
probability = raw fraction of target-1 rows in the leaf (no smoothing; only
the score ordering matters downstream). Tree t draws from a stream derived
from (seed_stream, t), so its draws do not depend on the trees grown
before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import RngStream


@dataclass(frozen=True)
class BinaryTrainingSet:
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.int8)
        if features.ndim != 2:
            raise ValueError("features must be 2-D")
        if targets.shape != (features.shape[0],):
            raise ValueError("targets length must equal feature row count")
        if targets.size and not np.isin(targets, (0, 1)).all():
            raise ValueError("targets must be 0/1")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)


def check_count(name: str, value, minimum: int = 1) -> None:
    """Fail unless value is an integer (not a bool) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    mtry: int | None = None  # None -> floor(sqrt(p)), at least 1
    min_node_size: int = 5
    max_depth: int | None = None
    seed_stream: RngStream = field(default_factory=lambda: RngStream(0, 0))

    def __post_init__(self) -> None:
        for name in ("n_trees", "min_node_size", "mtry", "max_depth"):
            value = getattr(self, name)
            if value is not None or name not in ("mtry", "max_depth"):
                check_count(name, value)


class _Tree:
    """Flat-array CART tree; feature == -1 marks a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "prob", "_walk")

    def __init__(self, feature, threshold, left, right, prob):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.prob = np.asarray(prob, dtype=np.float64)
        # for predict: each leaf is its own child under a NaN threshold, so
        # a row that reaches a leaf stays there for the remaining levels
        leaf = self.feature < 0
        nodes = np.arange(leaf.size)
        is_leaf, lefts, rights = leaf.tolist(), self.left.tolist(), self.right.tolist()
        levels, frontier = 0, [0]
        while True:
            frontier = [c for i in frontier if not is_leaf[i] for c in (lefts[i], rights[i])]
            if not frontier:
                break
            levels += 1
        self._walk = (
            levels,
            np.where(leaf, 0, self.feature).astype(np.intp),
            np.where(leaf, np.nan, self.threshold),
            np.where(leaf, nodes, self.left),
            np.where(leaf, nodes, self.right),
        )

    def predict(self, x: np.ndarray) -> np.ndarray:
        levels, feature, threshold, left, right = self._walk
        n, p = x.shape
        flat = x.ravel()
        start = np.arange(0, n * p, p)
        idx = np.zeros(n, dtype=np.intp)
        for _ in range(levels):
            go_left = flat[start + feature[idx]] < threshold[idx]
            idx = np.where(go_left, left[idx], right[idx])
        return self.prob[idx]


@dataclass(frozen=True)
class ForestModel:
    trees: tuple
    n_features: int


def _best_split_columns(values: np.ndarray, targets: np.ndarray):
    """Best Gini split over the columns of ``values`` (one feature each).

    Returns (column, threshold, impurity_decrease) or None when no column
    admits a strictly positive decrease. Ties go to the lowest column, then
    the lowest threshold.
    """
    values = np.asarray(values, dtype=np.float64).T
    targets = np.asarray(targets, dtype=np.float64)
    order = values.argsort(axis=1)
    found = _best_sorted_split(
        np.take_along_axis(values, order, axis=1), targets[order], int(targets.sum()),
        _node_sizes(targets.size),
    )
    return None if found is None else found[:3]


def _node_sizes(n: int) -> np.ndarray:
    """Row 0 holds 1, 2, ..., n - 1 as floats and row 1 their doubles: the
    left and, reversed, the right child sizes of every split position of an
    n-row node."""
    k = np.arange(1, max(n, 2), dtype=np.float64)
    return np.stack([k, 2.0 * k])


def _best_sorted_split(vs: np.ndarray, ys: np.ndarray, n1: int, sizes: np.ndarray, exact=False):
    """Best Gini split of a node whose m candidate features are the rows of
    ``vs``, each sorted ascending, with ``ys`` the 0/1 targets in the same
    order and ``n1`` their sum. ``sizes`` is _node_sizes of any row count
    at least the node's.

    Returns (row of vs, threshold, impurity_decrease, j, targets left) with
    sorted positions 0..j going left, or None as for _best_split_columns.
    Only positions between distinct values are candidates, so the order of
    tied values does not change the result.
    """
    m, n = vs.shape
    if n < 2:
        return None
    parent = 1.0 - (n1 / n) ** 2 - (1.0 - n1 / n) ** 2
    if parent <= 0.0:
        return None
    nl, nr = sizes[:, : n - 1], sizes[:, n - 2 :: -1]
    l1 = ys[:, :-1].cumsum(axis=1)
    ql = l1 / nl[0]
    qr = (n1 - l1) / nr[0]
    # (nl * 2 * ql * (1 - ql) + nr * 2 * qr * (1 - qr)) / n, one float
    # operation at a time in that order, so each decrease keeps the exact
    # value that breaks near-ties between positions
    child = nl[1] * ql
    child *= 1.0 - ql
    right = nr[1] * qr
    right *= 1.0 - qr
    child += right
    child /= n
    lo, hi = vs[:, :-1], vs[:, 1:]
    if exact:
        mid = 0.5 * (lo + hi)
        candidate = (mid > lo) & (mid <= hi)
    else:
        candidate = lo < hi
    decrease = np.where(candidate, parent - child, -1.0)
    # the first maximum in row-major order: lowest row, then lowest position
    c, j = divmod(int(decrease.argmax()), n - 1)
    d = float(decrease[c, j])
    if d <= 0.0:
        return None
    a, b = float(vs[c, j]), float(vs[c, j + 1])
    threshold = 0.5 * (a + b)
    if not exact and not a < threshold <= b:
        # the midpoint rounds onto an endpoint and would leave one child
        # empty under the v < t rule: search again without such positions
        return _best_sorted_split(vs, ys, n1, sizes, exact=True)
    return c, threshold, d, j, int(l1[c, j])


def _grow_tree(xt, y, boot, g, mtry, min_node_size, max_depth):
    """Grow one tree on the bootstrap rows ``boot`` of the feature-major
    matrix ``xt`` (one row per feature) with float 0/1 targets ``y``."""
    p = xt.shape[0]
    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    prob = [0.0]
    picked = np.arange(mtry)[:, None]
    sizes = _node_sizes(boot.size)

    # a node carries its rows and their target count; a split hands each
    # child its rows in the order of the split feature
    stack = [(0, boot, int(y[boot].sum()), 0)]
    while stack:
        idx, rows, n1, depth = stack.pop()
        n = rows.size
        prob[idx] = n1 / n
        if (
            n1 == 0
            or n1 == n
            or n <= min_node_size
            or (max_depth is not None and depth >= max_depth)
        ):
            continue
        feats = g.choice(p, size=mtry, replace=False)
        feats.sort()
        vals = xt[feats[:, None], rows]
        order = vals.argsort(axis=1)
        sorted_rows = rows[order]
        found = _best_sorted_split(vals[picked, order], y[sorted_rows], n1, sizes)
        if found is None:
            continue
        col, thr, _, j, left_n1 = found
        li = len(feature)
        for lst, val in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1), (prob, 0.0)):
            lst.extend((val, val))
        feature[idx] = int(feats[col])
        threshold[idx] = thr
        left[idx] = li
        right[idx] = li + 1
        stack.append((li, sorted_rows[col, : j + 1], left_n1, depth + 1))
        stack.append((li + 1, sorted_rows[col, j + 1 :], n1 - left_n1, depth + 1))
    return _Tree(feature, threshold, left, right, prob)


def train_forest(data: BinaryTrainingSet, config: ForestConfig) -> ForestModel:
    x, y = data.features, data.targets
    n, p = x.shape
    if n == 0 or y.min() == y.max():
        raise ValueError("degenerate binary training set")
    mtry = config.mtry if config.mtry is not None else max(1, int(np.sqrt(p)))
    if not 1 <= mtry <= p:
        raise ValueError(f"mtry must lie in 1..{p}")

    xt = np.ascontiguousarray(x.T)
    yf = y.astype(np.float64)
    trees = []
    for t in range(config.n_trees):
        g = config.seed_stream.derive(t).generator()
        boot = g.integers(0, n, size=n)
        trees.append(_grow_tree(xt, yf, boot, g, mtry, config.min_node_size, config.max_depth))
    return ForestModel(trees=tuple(trees), n_features=p)


def predict_probability_batch(model: ForestModel, x) -> np.ndarray:
    """Mean per-tree leaf probability for each row of x."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ValueError(f"expected shape (n, {model.n_features})")
    acc = np.zeros(x.shape[0])
    for tree in model.trees:
        acc += tree.predict(x)
    return acc / len(model.trees)

