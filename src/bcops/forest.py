"""From-scratch random forest for binary targets.

CART trees grown on bootstrap resamples, best-of-mtry Gini splits, leaf
probability = raw fraction of target-1 rows in the leaf (no smoothing; only
the score ordering matters downstream). A tree holds each of its bootstrap
rows once, with the number of times it was drawn.

All trees of a forest grow together, one depth level at a time, in the
manner of the exact greedy search over presorted columns of XGBoost (Chen &
Guestrin, arXiv:1603.02754, section 4.1). One in-place sort of the keys
segment * n + rank, each with its source index packed into its low bits,
sorts the drawn columns of every node of the level, Gini comes from
segmented cumulative sums, and each child keeps a slice of its parent's
winning segment, so no rows are re-sorted or partitioned.

Draws are keyed, as in counter-based random number generation (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11). Tree t
bootstraps from the stream derived from (data.stream, t), and its root key
hashes that stream's seed and id. A node key seeds a splitmix64 sequence:
its first two outputs are the children's keys, and the node's features are
the mtry whose next outputs are smallest. So a tree depends only on its own
stream, never on the trees grown beside it, and keys never overflow at any
depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import _GOLDEN, RngStream, _check_features, _splitmix64, check_count, check_labels


@dataclass(frozen=True)
class BinaryTrainingSet:
    features: np.ndarray
    targets: np.ndarray
    stream: RngStream = RngStream(0, 0)  # tree t bootstraps from stream.derive(t)

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

    def __post_init__(self) -> None:
        for name in ("n_trees", "min_node_size", "mtry", "max_depth"):
            value = getattr(self, name)
            if value is not None or name not in ("mtry", "max_depth"):
                check_count(name, value)
        if self.n_trees > np.iinfo(np.intp).max:  # numpy indexes the trees with intp
            raise ValueError(f"n_trees must be <= {np.iinfo(np.intp).max}")


class _Tree(NamedTuple):
    """Flat-array CART tree in the layout that scoring walks. Node 0 is the
    root. A split's children are adjacent, so it stores only its ``right``
    child and its left child is ``right - 1``. A leaf is its own ``right``
    child under a NaN threshold and feature 0: ``v < NaN`` is false for
    every v, so a row that reaches it stays there for the remaining levels.
    ``levels`` is the depth of the deepest leaf."""

    levels: int
    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    prob: np.ndarray


@dataclass(frozen=True)
class ForestModel:
    trees: tuple
    n_features: int


def _sequence(keys: np.ndarray, length: int) -> np.ndarray:
    """The first ``length`` outputs of the splitmix64 sequence that each
    uint64 node key seeds, one row per key. Outputs 0 and 1 are the keys of
    the node's left and right children, and output 2 + f ranks feature f."""
    return _splitmix64(keys[:, None] + np.arange(length, dtype=np.uint64) * np.uint64(_GOLDEN))


class _Splits(NamedTuple):
    """The best split of each node searched at a level, and the level's rows
    and their counts sorted within each (node, column) segment. The node's
    winning segment starts at ``segment_start``, and its first
    ``left_size`` distinct rows go left."""

    decrease: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    segment_start: np.ndarray
    left_size: np.ndarray
    rows: np.ndarray
    weight: np.ndarray


def _sorted_sources(key, src, key_bound, src_bound) -> np.ndarray:
    """``src[np.argsort(key)]`` for distinct int64 keys in [0, key_bound)
    and sources in [0, src_bound). When key_bound shifted left by the bit
    length of src_bound fits an int64, each source is packed into the low
    bits of its key, the packed keys are sorted in place and the sources
    are taken back in place, so ``key`` is overwritten and returned; a sort
    is faster than an argsort, and no order array is made. Otherwise the
    keys are argsorted."""
    bits = int(src_bound).bit_length()
    if int(key_bound) << bits > 2**63:
        return src[key.argsort()]
    key <<= bits
    key |= src
    key.sort()
    key &= (1 << bits) - 1
    return key


def _best_splits(xt, rank, y, rows, weight, start, size, feats) -> _Splits:
    """Best Gini split of every node i of a level. The node holds the
    ``size[i]`` distinct rows ``rows[start[i]:start[i] + size[i]]`` of the
    feature-major matrix ``xt``, each with its bootstrap count in
    ``weight``, and searches the ascending columns ``feats[i]``. ``rank``
    holds each row's position in its column's sorted order and ``y`` the
    float 0/1 targets.

    Each (node, column) pair is a segment of the node's rows sorted by that
    column. A split position lies between two distinct values whose
    midpoint t leaves both children non-empty under the v < t rule, so the
    order of tied values does not change the result. A node takes its first
    largest decrease: lowest column, then lowest position. Its decrease is
    -1 when no position is valid. Each temporary is freed as soon as it is
    used, since the arrays here are the largest of the forest.
    """
    n_rows = xt.shape[1]
    mtry = feats.shape[1]
    seglen = np.repeat(size, mtry)
    end = np.cumsum(seglen)
    first = end - seglen
    # one sort of the distinct keys segment * n_rows + rank sorts every
    # segment at once; element e of segment s is row
    # start[s // mtry] + e - first[s] of the level
    src = np.repeat(np.repeat(start, mtry) - first, seglen)
    src += np.arange(end[-1])
    col = np.repeat(feats.ravel() * n_rows, seglen)
    key = np.repeat(np.arange(seglen.size) * n_rows, seglen)
    col += rows[src]
    key += rank.ravel()[col]
    del col
    src = _sorted_sources(key, src, seglen.size * n_rows, rows.size)
    del key  # src may be key's buffer, which del src must free
    sorted_rows, w = rows[src], weight[src]
    del src
    col = np.repeat(feats.ravel() * n_rows, seglen)
    col += sorted_rows
    v = xt.ravel()[col]
    del col
    with np.errstate(over="ignore"):  # an infinite midpoint is never valid
        mid = v[:-1] + v[1:]
    mid *= 0.5
    invalid = v[:-1] >= mid
    invalid |= mid > v[1:]
    del v, mid
    last = end - 1
    invalid[last[:-1]] = True  # pairs that straddle two segments

    # counts and target counts left and right of each position within its
    # segment
    nl = np.cumsum(w, dtype=np.float64)
    l1 = y[sorted_rows]
    l1 *= w
    np.cumsum(l1, out=l1)
    for cum in (nl, l1):
        cum -= np.repeat(np.concatenate(([0.0], cum[last[:-1]])), seglen)
    n, n1 = nl[last], l1[last]
    nr = np.repeat(n, seglen)
    nr -= nl
    r1 = np.repeat(n1, seglen)
    r1 -= l1

    # (nl * 2 * ql * (1 - ql) + nr * 2 * qr * (1 - qr)) / n, one float
    # operation at a time in that order, in place over the counts
    l1 /= nl
    child = nl
    child *= 2.0
    child *= l1
    np.subtract(1.0, l1, out=l1)
    child *= l1
    del nl, l1
    with np.errstate(divide="ignore", invalid="ignore"):  # nr is 0 at segment ends
        r1 /= nr
    nr *= 2.0
    nr *= r1
    np.subtract(1.0, r1, out=r1)
    nr *= r1
    del r1
    child += nr
    del nr
    child /= np.repeat(n, seglen)
    q = n1 / n
    decrease = np.subtract(np.repeat(1.0 - q * q - (1.0 - q) * (1.0 - q), seglen), child, out=child)
    decrease[:-1][invalid] = -1.0
    decrease[-1] = -1.0
    del invalid

    block = first[::mtry]
    best = np.maximum.reduceat(decrease, block)
    hits = np.flatnonzero(decrease == np.repeat(best, size * mtry))
    del decrease
    j = hits[np.searchsorted(hits, block)]
    seg = np.searchsorted(end, j, side="right")
    feature = feats.ravel()[seg]
    nxt = np.minimum(j + 1, last[seg])  # a node with no valid position has j at its end
    with np.errstate(over="ignore"):
        threshold = xt[feature, sorted_rows[j]] + xt[feature, sorted_rows[nxt]]
    threshold *= 0.5
    return _Splits(best, feature, threshold, first[seg], j - first[seg] + 1, sorted_rows, w)


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
    rank = np.empty((p, n), dtype=np.int32)
    np.put_along_axis(rank, xt.argsort(axis=1), np.arange(n)[None, :], axis=1)
    n_trees = config.n_trees
    # no node holds more than the n bootstrap draws, and a larger int does not fit a float
    min_node_size = min(config.min_node_size, n)

    # the level's nodes in (tree, id) order; node i holds the size[i]
    # distinct bootstrap rows rows[start[i]:start[i] + size[i]], each with
    # its bootstrap count in weight
    rows, weight, key = [], [], []
    for t in range(n_trees):
        stream = data.stream.derive(t)
        counts = np.bincount(stream.generator().integers(0, n, size=n), minlength=n)
        rows.append(np.flatnonzero(counts).astype(np.int32))
        weight.append(counts[rows[-1]].astype(np.int32))
        key.append(_splitmix64(_splitmix64(stream.seed) ^ stream.stream_id))
    size = np.array([r.size for r in rows])
    rows, weight = np.concatenate(rows), np.concatenate(weight)
    key = np.array(key, dtype=np.uint64)
    tree = np.arange(n_trees)
    ident = np.zeros(n_trees, dtype=np.intp)
    count = np.ones(n_trees, dtype=np.intp)  # nodes per tree so far
    levels = np.zeros(n_trees, dtype=np.intp)

    parts = []
    depth = 0
    while True:
        start = np.cumsum(size) - size
        node_n = np.add.reduceat(weight, start).astype(np.float64)
        node_n1 = np.add.reduceat(weight * yf[rows], start)
        feature = np.zeros(tree.size, dtype=np.intp)
        threshold = np.full(tree.size, np.nan)
        right = ident.copy()
        parts.append((tree, feature, threshold, right, node_n1 / node_n))
        if config.max_depth is not None and depth >= config.max_depth:
            break
        cand = np.flatnonzero((node_n1 > 0) & (node_n1 < node_n) & (node_n > min_node_size))
        if not cand.size:
            break
        seq = _sequence(key[cand], 2 + p)
        feats = np.argpartition(seq[:, 2:], mtry - 1, axis=1)[:, :mtry]
        feats.sort(axis=1)
        found = _best_splits(xt, rank, yf, rows, weight, start[cand], size[cand], feats)
        won = found.decrease > 0.0
        split = cand[won]
        if not split.size:
            break
        feature[split] = found.feature[won]
        threshold[split] = found.threshold[won]
        st = tree[split]
        # the children of tree t's k-th split at this level are its nodes
        # count[t] + 2k and count[t] + 2k + 1
        lid = count[st] + 2 * (np.arange(st.size) - np.searchsorted(st, st))
        count += 2 * np.bincount(st, minlength=n_trees)
        right[split] = lid + 1
        levels[st] = depth + 1

        # each child is a slice of its parent's winning segment
        whole, lsize = size[split], found.left_size[won]
        size = np.stack([lsize, whole - lsize], axis=1).ravel()
        take = np.repeat(found.segment_start[won] - (np.cumsum(whole) - whole), whole)
        take += np.arange(take.size)
        rows, weight = found.rows[take], found.weight[take]
        del found, take
        key = seq[won, :2].ravel()
        tree = np.repeat(st, 2)
        ident = np.stack([lid, lid + 1], axis=1).ravel()
        depth += 1

    # each level holds its nodes in (tree, id) order and a tree's ids grow
    # from level to level, so a stable sort by tree puts each tree's nodes
    # in id order
    tree, *columns = (np.concatenate(c) for c in zip(*parts))
    order = np.argsort(tree, kind="stable")
    fields = [np.split(c[order], np.cumsum(count)[:-1]) for c in columns]
    trees = tuple(_Tree(int(levels[t]), *(f[t] for f in fields)) for t in range(n_trees))
    return ForestModel(trees=trees, n_features=p)


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
            idx = tree.right[idx] - (flat[start + tree.feature[idx]] < tree.threshold[idx])
        acc += tree.prob[idx]
    return acc / len(model.trees)
