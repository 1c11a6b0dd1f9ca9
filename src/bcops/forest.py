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


def check_count(name: str, value) -> None:
    """Fail unless value is an integer (not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


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

    __slots__ = ("feature", "threshold", "left", "right", "prob")

    def __init__(self, feature, threshold, left, right, prob):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.prob = np.asarray(prob, dtype=np.float64)

    def predict(self, x: np.ndarray) -> np.ndarray:
        idx = np.zeros(x.shape[0], dtype=np.int32)
        active = np.nonzero(self.feature[idx] >= 0)[0]
        while active.size:
            node = idx[active]
            go_left = x[active, self.feature[node]] < self.threshold[node]
            idx[active] = np.where(go_left, self.left[node], self.right[node])
            active = active[self.feature[idx[active]] >= 0]
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
    n, m = values.shape
    if n < 2:
        return None
    n1 = int(targets.sum())
    parent = 1.0 - (n1 / n) ** 2 - (1.0 - n1 / n) ** 2
    if parent <= 0.0:
        return None
    order = np.argsort(values, axis=0, kind="stable")
    vs = np.take_along_axis(values, order, axis=0)
    c1 = np.cumsum(targets[order], axis=0, dtype=np.float64)

    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    l1 = c1[:-1]
    r1 = n1 - l1
    ql = l1 / nl
    qr = r1 / nr
    child = (nl * 2.0 * ql * (1.0 - ql) + nr * 2.0 * qr * (1.0 - qr)) / n
    mid = 0.5 * (vs[:-1] + vs[1:])
    # split only between distinct values, and guard against midpoints that
    # round onto an endpoint (leaves one child empty under the v < t rule)
    valid = (mid > vs[:-1]) & (mid <= vs[1:])
    decrease = np.where(valid, parent - child, -1.0)

    best = None
    for c in range(m):
        j = int(np.argmax(decrease[:, c]))
        d = decrease[j, c]
        if d > 0.0 and (best is None or d > best[2]):
            best = (c, float(mid[j, c]), float(d))
    return best


def _grow_tree(x, y, boot, g, mtry, min_node_size, max_depth):
    p = x.shape[1]
    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    prob = [0.0]

    stack = [(0, boot, 0)]
    while stack:
        idx, rows, depth = stack.pop()
        yr = y[rows]
        n1 = int(yr.sum())
        n = rows.size
        prob[idx] = n1 / n
        if (
            n1 == 0
            or n1 == n
            or n <= min_node_size
            or (max_depth is not None and depth >= max_depth)
        ):
            continue
        feats = np.sort(g.choice(p, size=mtry, replace=False))
        found = _best_split_columns(x[rows[:, None], feats[None, :]], yr.astype(np.float64))
        if found is None:
            continue
        col, thr, _ = found
        f = int(feats[col])
        go_left = x[rows, f] < thr
        li = len(feature)
        for lst, val in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1), (prob, 0.0)):
            lst.extend((val, val))
        feature[idx] = f
        threshold[idx] = thr
        left[idx] = li
        right[idx] = li + 1
        stack.append((li, rows[go_left], depth + 1))
        stack.append((li + 1, rows[~go_left], depth + 1))
    return _Tree(feature, threshold, left, right, prob)


def train_forest(data: BinaryTrainingSet, config: ForestConfig) -> ForestModel:
    x, y = data.features, data.targets
    n, p = x.shape
    if n == 0 or y.min() == y.max():
        raise ValueError("degenerate binary training set")
    mtry = config.mtry if config.mtry is not None else max(1, int(np.sqrt(p)))
    if not 1 <= mtry <= p:
        raise ValueError(f"mtry must lie in 1..{p}")

    trees = []
    for t in range(config.n_trees):
        g = config.seed_stream.derive(t).generator()
        boot = g.integers(0, n, size=n)
        trees.append(_grow_tree(x, y, boot, g, mtry, config.min_node_size, config.max_depth))
    return ForestModel(trees=tuple(trees), n_features=p)


def predict_probability_batch(model: ForestModel, x) -> np.ndarray:
    """Mean per-tree leaf probability for each row of x."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ValueError(f"expected shape (n, {model.n_features})")
    acc = np.zeros(x.shape[0])
    for tree in model.trees:
        acc += tree.predict(x)
    return acc / len(model.trees)

