import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcops.data import _GOLDEN, _MASK64, RngStream, _splitmix64
from bcops.forest import (
    BinaryTrainingSet,
    ForestConfig,
    ForestModel,
    _best_splits,
    _sequence,
    _sorted_sources,
    _Tree,
    predict_probability_batch,
    train_forest,
)


def _separable_1d(g, n_per_class=50, gap=1.0, stream=RngStream(0, 0)):
    # class 1 iff x > 0, with a margin of at least `gap` between classes
    x0 = g.uniform(-3.0, -gap / 2, size=(n_per_class, 1))
    x1 = g.uniform(gap / 2, 3.0, size=(n_per_class, 1))
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n_per_class, dtype=int), np.ones(n_per_class, dtype=int)])
    return BinaryTrainingSet(x, y, stream)


def _best_split(values, targets):
    """(column, threshold, impurity_decrease) of the best split over the
    columns of ``values``, searched by _best_splits as one node holding
    every row once, or None."""
    xt = np.ascontiguousarray(np.asarray(values, dtype=np.float64).T)
    cols, n = xt.shape
    if n == 0:  # the grower never searches an empty node
        return None
    targets = np.asarray(targets, dtype=np.float64)
    found = _best_splits(
        xt, xt.argsort(axis=1).argsort(axis=1), np.arange(n), np.ones(n), targets,
        np.zeros(1, dtype=np.intp), np.full(1, n), np.arange(cols)[None, :],
        np.full(1, float(n)), np.full(1, targets.sum()),
    )
    if found.decrease[0] <= 0.0:
        return None
    return int(found.feature[0]), float(found.threshold[0]), float(found.decrease[0])


def _split(values, targets):
    """_best_split on a single feature column."""
    return _best_split(np.asarray(values, dtype=np.float64)[:, None], targets)


class TestGini:
    # a perfectly separating split leaves pure children, so its impurity
    # decrease equals the parent's Gini impurity 1 - q^2 - (1-q)^2
    def test_pure_node(self):
        assert _split(np.arange(10.0), np.ones(10)) is None

    def test_symmetric_maximum(self):
        col, thr, dec = _split(np.arange(10.0), [0] * 5 + [1] * 5)
        assert (col, thr) == (0, 4.5)
        assert dec == 0.5

    def test_hand_value(self):
        _, _, dec = _split([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 1])
        assert dec == pytest.approx(0.375)

    def test_empty_node(self):
        assert _split([], []) is None
        assert _split([1.0], [1]) is None


def _gini(n0, n1):
    q = n1 / (n0 + n1)
    return 1.0 - q * q - (1.0 - q) * (1.0 - q)


def _brute_force_best_split(values, targets):
    """Independent oracle: scan every midpoint of consecutive distinct values."""
    order = np.argsort(values, kind="stable")
    vs, ys = values[order], targets[order]
    n = len(vs)
    n1 = int(ys.sum())
    parent = _gini(n - n1, n1)
    best = None
    for i in range(n - 1):
        if vs[i] == vs[i + 1]:
            continue
        thr = (vs[i] + vs[i + 1]) / 2
        left = values < thr
        nl, nr = int(left.sum()), int((~left).sum())
        if nl == 0 or nr == 0:
            continue
        l1 = int(targets[left].sum())
        r1 = n1 - l1
        child = (nl * _gini(nl - l1, l1) + nr * _gini(nr - r1, r1)) / n
        dec = parent - child
        if best is None or dec > best[1] + 1e-12:
            best = (thr, dec)
    if best is None or best[1] <= 0:
        return None
    return best


class TestBestSplit:
    def test_two_point_case(self):
        col, thr, dec = _split([1.0, 2.0], [0, 1])
        assert col == 0
        assert thr == pytest.approx(1.5)
        assert dec == pytest.approx(0.5)

    def test_constant_feature(self):
        assert _split([3.0, 3.0, 3.0], [0, 1, 0]) is None

    def test_clean_step(self):
        values, targets = np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 0, 1, 1])
        _, thr, dec = _split(values, targets)
        oracle = _brute_force_best_split(values, targets)
        assert thr == pytest.approx(2.5)
        assert thr == pytest.approx(oracle[0])
        assert dec == pytest.approx(oracle[1])

    def test_matches_brute_force_on_random_data(self):
        g = np.random.default_rng(42)
        for trial in range(200):
            n = int(g.integers(2, 25))
            values = np.round(g.normal(size=n), 1)  # rounding forces ties
            targets = g.integers(0, 2, size=n)
            if targets.min() == targets.max():
                continue
            got = _split(values, targets)
            expected = _brute_force_best_split(values, targets)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert got[2] == pytest.approx(expected[1])
                assert got[2] >= 0.0

    def test_midpoint_rounding_onto_an_endpoint(self):
        # 0.5 * (a + b) rounds onto a for adjacent doubles a < b, which would
        # leave the left child empty; the next distinct pair is used instead
        a = 1.0
        b = np.nextafter(a, 2.0)
        c = np.nextafter(b, 2.0)
        assert _split([a, b], [0, 1]) is None
        col, thr, dec = _split([a, b, c], [0, 1, 1])
        assert (col, thr) == (0, c)
        assert dec == pytest.approx(_gini(1, 2) - 2 / 3 * _gini(1, 1))

    def test_midpoint_overflow(self):
        # a + b overflows to inf, a threshold that would send both rows left
        assert _split([1e308, 1.7e308], [0, 1]) is None
        col, thr, _ = _split([1e308, 1.7e308, 0.0], [1, 1, 0])
        assert (col, thr) == (0, 5e307)

    def test_picks_best_column(self):
        g = np.random.default_rng(43)
        for trial in range(100):
            n = int(g.integers(2, 25))
            values = np.round(g.normal(size=(n, 3)), 1)
            targets = g.integers(0, 2, size=n)
            got = _best_split(values, targets)
            per_column = [_brute_force_best_split(values[:, c], targets) for c in range(3)]
            decreases = [-1.0 if e is None else e[1] for e in per_column]
            if max(decreases) < 0:
                assert got is None
            else:
                assert got is not None
                assert got[2] == pytest.approx(max(decreases))
                assert decreases[got[0]] == pytest.approx(max(decreases))


class TestTrainForest:
    def test_separable_training_accuracy(self):
        data = _separable_1d(np.random.default_rng(0), stream=RngStream(1))
        model = train_forest(data, ForestConfig(n_trees=30))
        probs = predict_probability_batch(model, data.features)
        assert np.mean((probs > 0.5) == data.targets) == 1.0

    def test_constant_features_predict_prior(self):
        # no split reduces impurity, so every prediction is the target-1 prior
        x = np.full((60, 3), 2.5)
        y = np.concatenate([np.ones(20, dtype=int), np.zeros(40, dtype=int)])
        preds = []
        for seed in range(20):
            model = train_forest(
                BinaryTrainingSet(x, y, RngStream(seed)),
                ForestConfig(n_trees=10),
            )
            preds.append(predict_probability_batch(model, x[:1])[0])
        assert abs(float(np.mean(preds)) - 1 / 3) <= 0.02

    def test_stump_predicts_prior_exactly(self):
        data = _separable_1d(np.random.default_rng(3), n_per_class=32, stream=RngStream(0))
        model = train_forest(data, ForestConfig(n_trees=1, min_node_size=64))
        # bootstrap resample prior, read off the single leaf
        tree = model.trees[0]
        assert len(tree.prob) == 1
        assert tree.levels == 0
        g = RngStream(0).derive(0).generator()
        boot = g.integers(0, 64, size=64)
        assert tree.prob[0] == pytest.approx(data.targets[boot].mean())

    def test_degenerate_targets_error(self):
        with pytest.raises(ValueError, match="degenerate binary training set"):
            train_forest(
                BinaryTrainingSet(np.zeros((4, 2)), [1, 1, 1, 1], RngStream(0)),
                ForestConfig(n_trees=2),
            )

    def test_bootstrap_determinism(self):
        data = _separable_1d(np.random.default_rng(5), stream=RngStream(11, 7))
        cfg = ForestConfig(n_trees=8)
        m1 = train_forest(data, cfg)
        m2 = train_forest(data, cfg)
        for t1, t2 in zip(m1.trees, m2.trees):
            assert np.array_equal(t1.feature, t2.feature)
            assert np.array_equal(t1.threshold, t2.threshold, equal_nan=True)  # NaN at leaves
            assert np.array_equal(t1.prob, t2.prob)


def _ex1_sized_set(stream):
    """1,000 rows of 10 features with a noisy binary target, the size of an
    example1 binary set, bootstrapped from ``stream``."""
    g = np.random.default_rng(12)
    x = g.normal(size=(1000, 10))
    return BinaryTrainingSet(x, (x[:, 0] + x[:, 1] + g.normal(size=1000) > 0).astype(int), stream)


@pytest.mark.parametrize("packs", [True, False])
@settings(max_examples=100, deadline=None)
@given(data=st.data(), src_bound=st.integers(1, 2**62))
def test_sorted_sources_match_argsort(data, src_bound, packs):
    # the largest key bound whose keys pack beside a source index, and the
    # next one, which is argsorted
    fit = 2**63 >> src_bound.bit_length()
    key_bound = data.draw(st.integers(1, fit) | st.just(fit)) if packs else fit + 1
    near_bound = st.integers(max(0, key_bound - 64), key_bound - 1)
    key = np.array(data.draw(st.lists(near_bound | st.integers(0, key_bound - 1), min_size=1,
                                      max_size=min(key_bound, 40), unique=True)), dtype=np.int64)
    src = np.array(data.draw(st.lists(st.integers(0, src_bound - 1), min_size=key.size,
                                      max_size=key.size)), dtype=np.int64)
    expected, kept = src[np.argsort(key)], key.copy()
    out = _sorted_sources(key, src, key_bound, src_bound)
    assert np.array_equal(out, expected)
    # packing sorts the keys in place; argsort leaves them as they were
    assert np.shares_memory(out, key) == packs
    assert packs or np.array_equal(key, kept)


def test_growth_memory_peak():
    # every per-level temporary is freed once used; keeping them all alive
    # would triple this peak and show in the sweep's peak RSS
    data = _ex1_sized_set(RngStream(1, 2))
    config = ForestConfig(n_trees=10, min_node_size=25, max_depth=12)
    tracemalloc.start()
    try:
        train_forest(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_tree_depends_only_on_its_stream():
    # the first k trees of an m-tree forest are those of a k-tree forest
    data = _ex1_sized_set(RngStream(4, 9))
    large = train_forest(data, ForestConfig(n_trees=7, min_node_size=3))
    small = train_forest(data, ForestConfig(n_trees=3, min_node_size=3))
    for a, b in zip(small.trees, large.trees):
        assert a.levels == b.levels > 0
        for name in ("feature", "threshold", "right", "prob"):
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


def test_node_keys_distinct_along_deep_paths():
    # child keys are hashes of the parent key, so they never overflow
    root = np.array([_splitmix64(_splitmix64(2**64 - 1) ^ (2**64 - 1))], dtype=np.uint64)
    seen = {int(root[0])}
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for side in (0, 1):  # all left, all right
            key = root
            for _ in range(100):
                key = _sequence(key, 2)[:, side]
                seen.add(int(key[0]))
    assert len(seen) == 201


def _leaf(prob):
    """A one-node tree: the root is a leaf, its own child under a NaN threshold."""
    zero = np.zeros(1, dtype=np.intp)
    return _Tree(0, zero, np.full(1, np.nan), zero, np.array([prob]))


class TestPredict:
    def test_mean_of_leaf_probabilities(self):
        model = ForestModel(trees=(_leaf(0.2), _leaf(0.6)), n_features=4)
        assert predict_probability_batch(model, np.zeros((1, 4)))[0] == pytest.approx(0.4)

    def test_pure_single_leaf(self):
        model = ForestModel(trees=(_leaf(1.0),), n_features=2)
        assert predict_probability_batch(model, np.array([[100.0, -3.0]]))[0] == 1.0

    def test_separable_far_point(self):
        data = _separable_1d(np.random.default_rng(1), stream=RngStream(2))
        model = train_forest(data, ForestConfig(n_trees=30))
        assert predict_probability_batch(model, np.array([[3.0]]))[0] >= 0.9

    def test_invariant_to_tree_order(self):
        data = _separable_1d(np.random.default_rng(7), stream=RngStream(3))
        model = train_forest(data, ForestConfig(n_trees=9))
        reversed_model = ForestModel(trees=model.trees[::-1], n_features=model.n_features)
        x = np.random.default_rng(8).normal(size=(40, 1))
        assert np.allclose(
            predict_probability_batch(model, x),
            predict_probability_batch(reversed_model, x),
        )

    def test_dimension_mismatch(self):
        data = _separable_1d(np.random.default_rng(2), stream=RngStream(0))
        model = train_forest(data, ForestConfig(n_trees=2))
        with pytest.raises(ValueError):
            predict_probability_batch(model, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            predict_probability_batch(model, np.zeros(1))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(2, 40),
    cols=st.integers(1, 4),
    few_values=st.booleans(),
    min_node_size=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_integer_features_grow_and_score_as_their_float64_copy(rows, cols, few_values, min_node_size,
                                                               seed):
    # A uint8 matrix is used as it is. Growth ranks a float64 copy of its
    # transpose, and the walk compares the integers with float thresholds as
    # numpy promotes them, so trees and scores match the float64 copy's bit
    # for bit, including the rows that sit exactly on a threshold.
    g = np.random.default_rng(seed)
    x = g.integers(0, 256, size=(rows, cols), dtype=np.uint8)
    if few_values:
        x = x // 64 * 2  # 0, 2, 4 and 6, so midpoints are pixels too
    y = g.integers(0, 2, size=rows)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    config = ForestConfig(n_trees=4, mtry=min(2, cols), min_node_size=min_node_size)
    as_int = BinaryTrainingSet(x, y, RngStream(seed))
    assert as_int.features is x
    model = train_forest(as_int, config)
    reference = train_forest(BinaryTrainingSet(x.astype(np.float64), y, RngStream(seed)), config)
    for tree, ref in zip(model.trees, reference.trees):
        assert tree.levels == ref.levels
        for name in ("feature", "threshold", "right", "prob"):
            assert np.array_equal(getattr(tree, name), getattr(ref, name), equal_nan=True), name
    x_new = np.vstack([x, g.integers(0, 256, size=(30, cols), dtype=np.uint8), x + 1])
    for m in (model, reference):
        scores = predict_probability_batch(m, x_new)
        assert scores.tobytes() == predict_probability_batch(m, x_new.astype(np.float64)).tobytes()


@pytest.mark.parametrize("a", [0, 33, 100, 253])
def test_pixel_on_a_threshold_goes_right(a):
    # Training pixels a (target 0) and a + 2 (target 1) split at the
    # threshold a + 1, and a test pixel a + 1 goes right, since v < t is
    # false. Pixels scaled by 1/255 went to the side that the rounding of
    # three divisions chose: left for a = 33 and a = 100.
    x = np.array([[a], [a + 2]] * 10, dtype=np.uint8)
    model = train_forest(BinaryTrainingSet(x, [0, 1] * 10, RngStream(4)),
                         ForestConfig(n_trees=3, min_node_size=1))
    for tree in model.trees:
        assert tree.levels == 1 and tree.threshold[0] == a + 1
    test = np.array([[a], [a + 1], [a + 2]], dtype=np.uint8)
    assert predict_probability_batch(model, test).tolist() == [0.0, 1.0, 1.0]


def _reference_split(values, targets):
    """The split search as a loop over columns, each sorted on its own."""
    n, m = values.shape
    if n < 2:
        return None
    n1 = int(targets.sum())
    q = n1 / n
    parent = 1.0 - q * q - (1.0 - q) * (1.0 - q)
    best = None
    for c in range(m):
        order = np.argsort(values[:, c], kind="stable")
        vs = values[order, c]
        l1 = np.cumsum(targets[order])[:-1]
        nl = np.arange(1, n, dtype=np.float64)
        nr = n - nl
        ql, qr = l1 / nl, (n1 - l1) / nr
        child = (nl * 2.0 * ql * (1.0 - ql) + nr * 2.0 * qr * (1.0 - qr)) / n
        mid = 0.5 * (vs[:-1] + vs[1:])
        decrease = np.where((mid > vs[:-1]) & (mid <= vs[1:]), parent - child, -1.0)
        j = int(np.argmax(decrease))
        if decrease[j] > 0.0 and (best is None or decrease[j] > best[2]):
            best = (c, float(mid[j]), float(decrease[j]))
    return best


def _keyed(key, i):
    """Output i of the splitmix64 sequence that the node key ``key`` seeds."""
    return _splitmix64((key + i * _GOLDEN) & _MASK64)


def _reference_tree(x, y, stream, mtry, min_node_size, max_depth):
    """One tree grown depth first on its bootstrap rows, repeats included,
    splitting rows with the v < t rule. A node draws the mtry features f
    whose outputs 2 + f of its key's sequence are smallest, and its
    children's keys are outputs 0 and 1. The nodes are numbered level by
    level, each split's children next to each other; each node is
    [feature, threshold, left, right, prob], with feature -1 at a leaf."""
    p = x.shape[1]

    def grow(rows, key, depth):
        n1 = int(y[rows].sum())
        node = [-1, 0.0, None, None, n1 / rows.size]
        if n1 in (0, rows.size) or rows.size <= min_node_size or (
            max_depth is not None and depth >= max_depth
        ):
            return node
        feats = np.sort(sorted(range(p), key=lambda f: _keyed(key, 2 + f))[:mtry])
        found = _reference_split(x[rows][:, feats], y[rows].astype(np.float64))
        if found is not None:
            col, thr, _ = found
            go_left = x[rows, feats[col]] < thr
            node[:4] = [
                int(feats[col]), thr,
                grow(rows[go_left], _keyed(key, 0), depth + 1),
                grow(rows[~go_left], _keyed(key, 1), depth + 1),
            ]
        return node

    boot = stream.generator().integers(0, x.shape[0], size=x.shape[0])
    queue = [grow(boot, _splitmix64(_splitmix64(stream.seed) ^ stream.stream_id), 0)]
    nodes = []
    for f, thr, left, right, prob in queue:  # the queue grows as it is read
        if f < 0:
            nodes.append([-1, 0.0, -1, -1, prob])
        else:
            nodes.append([f, thr, len(queue), len(queue) + 1, prob])
            queue += [left, right]
    return nodes


def _reference_scores(trees, x):
    """Mean leaf probability per row, walking each tree one row at a time."""
    acc = np.zeros(x.shape[0])
    for nodes in trees:
        leaf_probs = []
        for row in x:
            i = 0
            while nodes[i][0] >= 0:
                i = nodes[i][2] if row[nodes[i][0]] < nodes[i][1] else nodes[i][3]
            leaf_probs.append(nodes[i][4])
        acc += np.array(leaf_probs)
    return acc / len(trees)


def _walk_layout(nodes):
    """A reference tree in _Tree's layout, one row per field, and the depth
    of its deepest leaf. A split's children must be adjacent, since _Tree
    keeps only the right one."""
    layout = [
        [0, np.nan, i, prob] if f < 0 else [f, t, right, prob]
        for i, (f, t, _, right, prob) in enumerate(nodes)
    ]
    depth = [0] * len(nodes)
    for i, (f, _, left, right, _) in enumerate(nodes):  # children follow their parent
        if f >= 0:
            assert left == right - 1
            depth[left] = depth[right] = depth[i] + 1
    return np.array(layout).T, max(depth)


@pytest.mark.parametrize("values", ["continuous", "ties", "adjacent_doubles"])
@settings(deadline=None)
@example(rows=300, cols=4, mtry=2, min_node_size=3, max_depth=None, seed=17)
@given(
    rows=st.integers(2, 60),
    cols=st.integers(1, 4),
    mtry=st.integers(1, 4),
    min_node_size=st.integers(1, 8),
    max_depth=st.none() | st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_forest_matches_reference_bit_for_bit(values, rows, cols, mtry, min_node_size, max_depth, seed):
    g = np.random.default_rng(seed)
    x = g.normal(size=(rows, cols))
    if values == "ties":
        x = np.round(x, 1)
    elif values == "adjacent_doubles":
        # midpoints of neighbouring doubles round onto an endpoint
        x = 1.0 + np.spacing(1.0) * g.integers(0, 6, size=x.shape)
    signal = range(min(cols, 2))
    y = sum(x[:, c] for c in signal) + g.normal(size=rows) > sum(x[:, c].mean() for c in signal)
    y = y.astype(int)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    mtry = min(mtry, cols)
    config = ForestConfig(n_trees=4, mtry=mtry, min_node_size=min_node_size, max_depth=max_depth)
    stream = RngStream(5, 3)
    model = train_forest(BinaryTrainingSet(x, y, stream), config)
    trees = [
        _reference_tree(x, y, stream.derive(t), mtry, min_node_size, max_depth)
        for t in range(config.n_trees)
    ]
    for tree, nodes in zip(model.trees, trees):
        layout, levels = _walk_layout(nodes)
        for k, name in enumerate(("feature", "threshold", "right", "prob")):
            assert np.array_equal(getattr(tree, name), layout[k], equal_nan=True), name
        assert tree.levels == levels
    # non-finite rows: v < t sends -inf left and +inf right at every
    # finite threshold, and NaN right at every split
    odd = g.normal(size=(12, cols))
    odd[g.random(size=odd.shape) < 0.5] = np.nan
    odd[:3] = [[np.nan], [np.inf], [-np.inf]]
    odd[3:6, 0] = [np.nan, np.inf, -np.inf]
    x_new = np.vstack([x[:50], g.normal(size=(50, cols)), odd])
    assert np.array_equal(predict_probability_batch(model, x_new), _reference_scores(trees, x_new))


@pytest.mark.parametrize("values", ["continuous", "ties", "adjacent_doubles"])
@settings(deadline=None)
@given(
    rows=st.integers(2, 40),
    cols=st.integers(1, 4),
    mtry=st.integers(1, 4),
    sizes=st.lists(st.integers(2, 40), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_level_search_matches_a_search_per_node(values, rows, cols, mtry, sizes, seed):
    # The nodes of a level share one sort and one cumsum per count, which
    # restarts at each segment start; each node must still find the split
    # that a search of that node alone finds.
    g = np.random.default_rng(seed)
    x = g.normal(size=(rows, cols))
    if values == "ties":
        x = np.round(x, 1)
    elif values == "adjacent_doubles":
        x = 1.0 + np.spacing(1.0) * g.integers(0, 6, size=x.shape)
    y = g.integers(0, 2, size=rows).astype(np.float64)
    mtry = min(mtry, cols)
    size = np.minimum(sizes, rows)
    start = np.cumsum(size) - size
    # nodes of different trees may share rows; a node's rows are distinct
    node_rows = np.concatenate([g.choice(rows, size=s, replace=False) for s in size]).astype(np.int32)
    weight = g.integers(1, rows + 1, size=node_rows.size).astype(np.int32)
    yw = weight * y[node_rows]
    feats = np.sort([g.choice(cols, size=mtry, replace=False) for _ in size], axis=1)
    xt = np.ascontiguousarray(x.T)
    found = _best_splits(
        xt, xt.argsort(axis=1).argsort(axis=1), node_rows, weight, yw, start, size, feats,
        np.add.reduceat(weight, start).astype(np.float64), np.add.reduceat(yw, start),
    )
    for i, (s, k) in enumerate(zip(start, size)):
        drawn = np.repeat(node_rows[s:s + k], weight[s:s + k])
        expected = _reference_split(x[drawn][:, feats[i]], y[drawn])
        if expected is None:
            assert found.decrease[i] <= 0.0
            continue
        col, threshold, decrease = expected
        assert (found.feature[i], found.threshold[i], found.decrease[i]) == (feats[i, col], threshold, decrease)
        # the node's winning segment holds its rows, those that go left first
        segment = found.rows[found.segment_start[i]:][:k]
        assert np.array_equal(np.sort(segment), np.sort(node_rows[s:s + k]))
        left = x[segment, found.feature[i]] < found.threshold[i]
        assert left.sum() == found.left_size[i] and left[:found.left_size[i]].all()


def test_monotone_separable_out_of_sample():
    # disjoint 1-D class supports: held-out accuracy at 0.5 over 20 seeds
    accs = []
    for seed in range(20):
        g = np.random.default_rng(seed)
        train = _separable_1d(g, n_per_class=25, stream=RngStream(seed, 1))
        test = _separable_1d(g, n_per_class=25)
        model = train_forest(train, ForestConfig(n_trees=20))
        probs = predict_probability_batch(model, test.features)
        accs.append(float(np.mean((probs > 0.5) == test.targets)))
    assert np.mean(accs) >= 0.95


def test_config_validation():
    data = _separable_1d(np.random.default_rng(0), n_per_class=5)
    with pytest.raises(ValueError):
        train_forest(data, ForestConfig(n_trees=0))
    with pytest.raises(ValueError):
        train_forest(data, ForestConfig(mtry=2))  # p == 1
    with pytest.raises(ValueError):
        train_forest(data, ForestConfig(min_node_size=0))
    # sizes are checked when the config is built, before any data
    for bad in ({"n_trees": 0}, {"min_node_size": 0}, {"mtry": 0}, {"max_depth": 0}, {"max_depth": -3}):
        with pytest.raises(ValueError, match="must be >= 1"):
            ForestConfig(**bad)
    for bad in ({"n_trees": 2.5}, {"min_node_size": True}, {"mtry": "3"}, {"max_depth": 3.0}):
        with pytest.raises(ValueError, match="must be an integer"):
            ForestConfig(**bad)
    assert ForestConfig(n_trees=np.int64(3), max_depth=1).n_trees == 3
    # numpy indexes the trees with intp
    top = np.iinfo(np.intp).max
    assert ForestConfig(n_trees=top).n_trees == top
    with pytest.raises(ValueError, match=f"n_trees must be <= {top}"):
        ForestConfig(n_trees=top + 1)


@settings(deadline=None)
@given(
    rows=st.integers(2, 60),
    cols=st.integers(1, 4),
    ties=st.booleans(),
    min_node_size=st.integers(1, 70),
    max_depth=st.none() | st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_leaves_agree_with_their_rows(rows, cols, ties, min_node_size, max_depth, seed):
    # Every leaf holds at least one of its tree's bootstrap rows, the leaves
    # share out all n of them, and each leaf's prob is its rows' mean target.
    g = np.random.default_rng(seed)
    x = g.integers(0, 4, size=(rows, cols)).astype(float) if ties else g.normal(size=(rows, cols))
    y = g.integers(0, 2, size=rows)
    y[:2] = 0, 1
    data = BinaryTrainingSet(x, y, RngStream(seed % 97))
    model = train_forest(data, ForestConfig(n_trees=3, min_node_size=min_node_size, max_depth=max_depth))
    for t, tree in enumerate(model.trees):
        boot = data.stream.derive(t).generator().integers(0, rows, size=rows)
        xb, node = x[boot], np.zeros(rows, dtype=np.intp)
        for _ in range(tree.levels):
            go_left = xb[np.arange(rows), tree.feature[node]] < tree.threshold[node]
            node = np.where(go_left, tree.right[node] - 1, tree.right[node])
        leaves = np.nonzero(np.isnan(tree.threshold))[0]
        counts = np.bincount(node, minlength=tree.prob.size)
        assert np.isin(node, leaves).all()
        assert counts.sum() == rows and (counts[leaves] > 0).all()
        hits = np.bincount(node, weights=y[boot], minlength=tree.prob.size)
        assert np.array_equal(tree.prob[leaves], hits[leaves] / counts[leaves])
