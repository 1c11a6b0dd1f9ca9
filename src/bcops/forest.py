"""From-scratch random forest for binary targets.

CART trees grown on bootstrap resamples, best-of-mtry Gini splits, leaf
probability = raw fraction of target-1 rows in the leaf (no smoothing; only
the score ordering matters downstream). Tree t draws from a stream derived
from (seed_stream, t), so its draws do not depend on the trees grown
before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import RngStream, _check_features, check_count, check_labels


@dataclass(frozen=True)
class BinaryTrainingSet:
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", _check_features(self.features))
        targets = check_labels("targets", self.targets, 0, 1, rows=self.features.shape[0])
        object.__setattr__(self, "targets", targets.astype(np.int8))


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


class _Tree(NamedTuple):
    """Flat-array CART tree in the layout that scoring walks. Node 0 is the
    root. A leaf is its own left and right child under a NaN threshold and
    feature 0, so a row that reaches it stays there for the remaining
    levels; ``levels`` is the depth of the deepest leaf."""

    levels: int
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prob: np.ndarray


@dataclass(frozen=True)
class ForestModel:
    trees: tuple
    n_features: int


def _node_sizes(n: int) -> np.ndarray:
    """Row 0 holds 1, 2, ..., n - 1 as floats and row 1 their doubles: the
    left and, reversed, the right child sizes of every split position of an
    n-row node."""
    k = np.arange(1, max(n, 2), dtype=np.float64)
    return np.stack([k, 2.0 * k])


def _best_sorted_split(vs: np.ndarray, ys: np.ndarray, n1: int, sizes: np.ndarray):
    """Best Gini split of a node whose m candidate features are the rows of
    ``vs``, each sorted ascending, with ``ys`` the 0/1 targets in the same
    order and ``n1`` their sum. ``sizes`` is _node_sizes of any row count
    at least the node's.

    Returns (row of vs, threshold, impurity_decrease, j, targets left) with
    sorted positions 0..j going left, or None when no split has a strictly
    positive decrease. Ties go to the lowest row, then the lowest position.
    Candidates are the positions between distinct values whose midpoint t
    leaves both children non-empty under the v < t rule, so the order of
    tied values does not change the result.
    """
    n = vs.shape[1]
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
    decrease = np.where(vs[:, :-1] < vs[:, 1:], parent - child, -1.0)
    while True:
        # the first maximum in row-major order: lowest row, then lowest position
        c, j = divmod(int(decrease.argmax()), n - 1)
        d = float(decrease[c, j])
        if d <= 0.0:
            return None
        a, b = float(vs[c, j]), float(vs[c, j + 1])
        threshold = 0.5 * (a + b)
        if a < threshold <= b:
            return c, threshold, d, j, int(l1[c, j])
        # the midpoint of adjacent doubles rounds onto an endpoint and would
        # leave one child empty under the v < t rule
        decrease[c, j] = -1.0


def _grow_tree(xt, y, boot, g, mtry, min_node_size, max_depth) -> _Tree:
    """Grow one tree on the bootstrap rows ``boot`` of the feature-major
    matrix ``xt`` (one row per feature) with float 0/1 targets ``y``.

    Each node is [feature, threshold, left, right, prob]. A new node is a
    leaf (see _Tree), and a split overwrites its first four fields."""
    p = xt.shape[0]
    nodes = [[0, np.nan, 0, 0, 0.0]]
    levels = 0
    picked = np.arange(mtry)[:, None]
    sizes = _node_sizes(boot.size)

    # a node carries its rows and their target count; a split hands each
    # child its rows in the order of the split feature
    stack = [(0, boot, int(y[boot].sum()), 0)]
    while stack:
        idx, rows, n1, depth = stack.pop()
        n = rows.size
        nodes[idx][4] = n1 / n
        if n1 in (0, n) or n <= min_node_size or (max_depth is not None and depth >= max_depth):
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
        li = len(nodes)
        nodes[idx][:4] = int(feats[col]), thr, li, li + 1
        nodes += [[0, np.nan, li, li, 0.0], [0, np.nan, li + 1, li + 1, 0.0]]
        levels = max(levels, depth + 1)
        stack.append((li, sorted_rows[col, : j + 1], left_n1, depth + 1))
        stack.append((li + 1, sorted_rows[col, j + 1 :], n1 - left_n1, depth + 1))
    feature, threshold, left, right, prob = np.array(nodes).T
    return _Tree(
        levels, feature.astype(np.intp), threshold, left.astype(np.intp), right.astype(np.intp), prob
    )


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
    """Mean per-tree leaf probability for each row of x, walking each tree
    level by level from the root for its ``levels`` levels."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ValueError(f"expected shape (n, {model.n_features})")
    n, p = x.shape
    flat = x.ravel()
    start = np.arange(0, n * p, p)
    acc = np.zeros(n)
    for tree in model.trees:
        idx = np.zeros(n, dtype=np.intp)
        for _ in range(tree.levels):
            go_left = flat[start + tree.feature[idx]] < tree.threshold[idx]
            idx = np.where(go_left, tree.left[idx], tree.right[idx])
        acc += tree.prob[idx]
    return acc / len(model.trees)
