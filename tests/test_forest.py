import numpy as np
import pytest

from bcops.data import RngStream
from bcops.forest import (
    BinaryTrainingSet,
    ForestConfig,
    ForestModel,
    _best_split_columns,
    _Tree,
    predict_probability_batch,
    train_forest,
)


def _separable_1d(g, n_per_class=50, gap=1.0):
    # class 1 iff x > 0, with a margin of at least `gap` between classes
    x0 = g.uniform(-3.0, -gap / 2, size=(n_per_class, 1))
    x1 = g.uniform(gap / 2, 3.0, size=(n_per_class, 1))
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n_per_class, dtype=int), np.ones(n_per_class, dtype=int)])
    return BinaryTrainingSet(x, y)


def _split(values, targets):
    """_best_split_columns on a single feature column."""
    return _best_split_columns(
        np.asarray(values, dtype=np.float64)[:, None], np.asarray(targets, dtype=np.float64)
    )


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

    def test_picks_best_column(self):
        g = np.random.default_rng(43)
        for trial in range(100):
            n = int(g.integers(2, 25))
            values = np.round(g.normal(size=(n, 3)), 1)
            targets = g.integers(0, 2, size=n)
            got = _best_split_columns(values, targets.astype(np.float64))
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
        data = _separable_1d(np.random.default_rng(0))
        model = train_forest(data, ForestConfig(n_trees=30, seed_stream=RngStream(1)))
        probs = predict_probability_batch(model, data.features)
        assert np.mean((probs > 0.5) == data.targets) == 1.0

    def test_constant_features_predict_prior(self):
        # no split reduces impurity, so every prediction is the target-1 prior
        x = np.full((60, 3), 2.5)
        y = np.concatenate([np.ones(20, dtype=int), np.zeros(40, dtype=int)])
        preds = []
        for seed in range(20):
            model = train_forest(
                BinaryTrainingSet(x, y),
                ForestConfig(n_trees=10, seed_stream=RngStream(seed)),
            )
            preds.append(predict_probability_batch(model, x[:1])[0])
        assert abs(float(np.mean(preds)) - 1 / 3) <= 0.02

    def test_stump_predicts_prior_exactly(self):
        data = _separable_1d(np.random.default_rng(3), n_per_class=32)
        model = train_forest(
            data, ForestConfig(n_trees=1, max_depth=0, seed_stream=RngStream(0))
        )
        # bootstrap resample prior, read off the single leaf
        tree = model.trees[0]
        assert len(tree.prob) == 1
        g = RngStream(0).derive(0).generator()
        boot = g.integers(0, 64, size=64)
        assert tree.prob[0] == pytest.approx(data.targets[boot].mean())

    def test_degenerate_targets_error(self):
        with pytest.raises(ValueError, match="degenerate binary training set"):
            train_forest(
                BinaryTrainingSet(np.zeros((4, 2)), [1, 1, 1, 1]),
                ForestConfig(n_trees=2),
            )

    def test_bootstrap_determinism(self):
        data = _separable_1d(np.random.default_rng(5))
        cfg = ForestConfig(n_trees=8, seed_stream=RngStream(11, 7))
        m1 = train_forest(data, cfg)
        m2 = train_forest(data, cfg)
        for t1, t2 in zip(m1.trees, m2.trees):
            assert np.array_equal(t1.feature, t2.feature)
            assert np.array_equal(t1.threshold, t2.threshold)
            assert np.array_equal(t1.prob, t2.prob)


class TestPredict:
    def test_mean_of_leaf_probabilities(self):
        leaf = lambda p: _Tree([-1], [0.0], [-1], [-1], [p])
        model = ForestModel(trees=(leaf(0.2), leaf(0.6)), n_features=4)
        assert predict_probability_batch(model, np.zeros((1, 4)))[0] == pytest.approx(0.4)

    def test_pure_single_leaf(self):
        model = ForestModel(trees=(_Tree([-1], [0.0], [-1], [-1], [1.0]),), n_features=2)
        assert predict_probability_batch(model, np.array([[100.0, -3.0]]))[0] == 1.0

    def test_separable_far_point(self):
        data = _separable_1d(np.random.default_rng(1))
        model = train_forest(data, ForestConfig(n_trees=30, seed_stream=RngStream(2)))
        assert predict_probability_batch(model, np.array([[3.0]]))[0] >= 0.9

    def test_invariant_to_tree_order(self):
        data = _separable_1d(np.random.default_rng(7))
        model = train_forest(data, ForestConfig(n_trees=9, seed_stream=RngStream(3)))
        reversed_model = ForestModel(trees=model.trees[::-1], n_features=model.n_features)
        x = np.random.default_rng(8).normal(size=(40, 1))
        assert np.allclose(
            predict_probability_batch(model, x),
            predict_probability_batch(reversed_model, x),
        )

    def test_dimension_mismatch(self):
        data = _separable_1d(np.random.default_rng(2))
        model = train_forest(data, ForestConfig(n_trees=2, seed_stream=RngStream(0)))
        with pytest.raises(ValueError):
            predict_probability_batch(model, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            predict_probability_batch(model, np.zeros(1))


def test_monotone_separable_out_of_sample():
    # disjoint 1-D class supports: held-out accuracy at 0.5 over 20 seeds
    accs = []
    for seed in range(20):
        g = np.random.default_rng(seed)
        train = _separable_1d(g, n_per_class=25)
        test = _separable_1d(g, n_per_class=25)
        model = train_forest(train, ForestConfig(n_trees=20, seed_stream=RngStream(seed, 1)))
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
    # positivity is checked when the config is built, before any data
    for bad in ({"n_trees": 0}, {"min_node_size": 0}, {"mtry": 0}):
        with pytest.raises(ValueError):
            ForestConfig(**bad)
