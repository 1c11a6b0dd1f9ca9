from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcops.conformal as conformal_mod
from bcops.conformal import BcopsModel, conformal_p_value, conformal_p_values, fit_bcops, predict_all
from bcops.data import LabeledDataset, RngStream, UnlabeledDataset
from bcops.datagen import gen_example1_test, gen_example1_train
from bcops.forest import ForestConfig, predict_probability_batch

SMALL_FOREST = ForestConfig(n_trees=15, min_node_size=20, max_depth=10)


def _brute_force_p_value(score, calibration):
    return (1 + sum(1 for c in calibration if c <= score)) / (len(calibration) + 1)


class TestConformalPValue:
    def test_direct_count(self):
        assert conformal_p_value(0.25, [0.1, 0.2, 0.3, 0.4]) == pytest.approx(0.6)

    def test_minimum(self):
        cal = [0.5, 0.6, 0.7]
        assert conformal_p_value(0.1, cal) == pytest.approx(1 / 4)

    def test_maximum(self):
        cal = [0.1, 0.2, 0.3]
        assert conformal_p_value(0.3, cal) == 1.0
        assert conformal_p_value(0.9, cal) == 1.0

    def test_empty_calibration_fails_open(self):
        assert conformal_p_value(0.0, []) == 1.0

    def test_matches_brute_force(self):
        g = np.random.default_rng(0)
        for _ in range(300):
            n = int(g.integers(0, 13))
            cal = np.sort(np.round(g.random(n), 2))
            score = round(float(g.random()), 2)
            assert conformal_p_value(score, cal) == _brute_force_p_value(score, cal)

    def test_array_of_scores_matches_brute_force(self):
        g = np.random.default_rng(1)
        for n in (0, 1, 7):
            cal = np.sort(np.round(g.random(n), 2))
            scores = np.round(g.random(20), 2)
            got = conformal_p_value(scores, cal)
            assert got.shape == (20,)
            assert got.tolist() == [_brute_force_p_value(s, cal) for s in scores]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=15), st.lists(st.integers(0, 20), min_size=1, max_size=15))
def test_p_value_is_the_rank_count(calibration, scores):
    # scores on a grid of 0.05 so that ties with the calibration are frequent
    cal = np.sort(np.asarray(calibration, dtype=np.float64) / 20)
    s = np.sort(np.asarray(scores, dtype=np.float64) / 20)
    got = conformal_p_value(s, cal)
    assert got.tolist() == [_brute_force_p_value(x, cal) for x in s]
    assert np.all((got > 0) & (got <= 1))
    assert np.all(np.diff(got) >= 0)


def _two_blob_data(rng_seed=0, n=120):
    g = np.random.default_rng(rng_seed)
    x = np.vstack([g.normal(0, 1, (n // 2, 2)), g.normal(4, 1, (n // 2, 2))])
    labels = np.repeat([1, 2], n // 2)
    return LabeledDataset(x, labels, 2)


def _matching_test(rng_seed=1, n=90):
    g = np.random.default_rng(rng_seed)
    x = np.vstack([g.normal(0, 1, (n // 3, 2)), g.normal(4, 1, (n // 3, 2)), g.normal(-6, 1, (n // 3, 2))])
    truth = np.concatenate([np.full(n // 3, 1), np.full(n // 3, 2), np.zeros(n // 3, dtype=int)])
    return UnlabeledDataset(x, truth)


class TestFitBcops:
    def test_fold_assignment_covers_every_row(self):
        model = fit_bcops(_two_blob_data(), _matching_test(), SMALL_FOREST, 0.05, RngStream(1))
        assert np.isin(model.fold_assignment, (1, 2)).all()
        assert len(model.fold_assignment) == 90

    def test_calibration_sorted(self):
        model = fit_bcops(_two_blob_data(), _matching_test(), SMALL_FOREST, 0.05, RngStream(2))
        for cal in model.calibration_scores.values():
            assert np.all(np.diff(cal) >= 0)

    def test_class_absent_from_training_set_errors(self):
        data = _two_blob_data()
        bad = LabeledDataset(data.features, data.labels, class_count=3)
        with pytest.raises(ValueError, match="class 3 absent"):
            fit_bcops(bad, _matching_test(), SMALL_FOREST, 0.05, RngStream(3))

    def test_singleton_class_fails_open_with_warning(self):
        g = np.random.default_rng(5)
        x = np.vstack([g.normal(0, 1, (40, 2)), g.normal(9, 0.1, (1, 2))])
        labels = np.array([1] * 40 + [2])
        train = LabeledDataset(x, labels, 2)
        model = fit_bcops(train, _matching_test(), SMALL_FOREST, 0.05, RngStream(4))
        assert model.warnings
        # class 2 has no calibration on one side, so it is always included there
        sets = predict_all(model)
        f_absent = [f for f in (1, 2) if model.classifiers[(2, f)] is None]
        assert f_absent
        rows = np.nonzero(model.fold_assignment == 3 - f_absent[0])[0]
        assert sets[rows, 1].all()

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            fit_bcops(_two_blob_data(), _matching_test(), SMALL_FOREST, 0.0, RngStream(0))

    def test_empty_test_set_errors(self):
        with pytest.raises(ValueError, match="test set needs at least 2 rows, one per fold, got 0"):
            fit_bcops(_two_blob_data(), UnlabeledDataset(np.zeros((0, 2))), SMALL_FOREST, 0.05,
                      RngStream(0))

    def test_one_row_test_set_errors(self):
        # one row leaves a test fold empty, and its class sets would all be full
        with pytest.raises(ValueError, match="test set needs at least 2 rows, one per fold, got 1"):
            fit_bcops(_two_blob_data(), UnlabeledDataset(np.zeros((1, 2))), SMALL_FOREST, 0.05,
                      RngStream(0))

    def test_two_row_test_set_fills_both_folds(self):
        model = fit_bcops(_two_blob_data(), UnlabeledDataset(np.zeros((2, 2))), SMALL_FOREST,
                          0.05, RngStream(0))
        assert sorted(model.fold_assignment.tolist()) == [1, 2] and not model.warnings

    def test_transductive_determinism(self):
        args = (_two_blob_data(), _matching_test(), SMALL_FOREST, 0.05, RngStream(6))
        sets1 = predict_all(fit_bcops(*args))
        sets2 = predict_all(fit_bcops(*args))
        assert np.array_equal(sets1, sets2)

    def test_imbalance_cap_validation(self):
        for cap in (0.0, -1.0, float("inf")):
            with pytest.raises(ValueError, match="imbalance_cap"):
                fit_bcops(_two_blob_data(), _matching_test(), SMALL_FOREST, 0.05, RngStream(0),
                          imbalance_cap=cap)

    def test_tiny_imbalance_cap_still_subsamples(self, monkeypatch):
        # int(cap * class rows) is 0 here; the test fold is cut to one row
        sizes = []
        original = conformal_mod.train_forest

        def recording(data, config):
            sizes.append((int(data.targets.sum()), int((data.targets == 0).sum())))
            return original(data, config)

        monkeypatch.setattr(conformal_mod, "train_forest", recording)
        fit_bcops(_two_blob_data(), _matching_test(), SMALL_FOREST, 0.05, RngStream(0),
                  imbalance_cap=1e-6)
        assert len(sizes) == 4
        assert all(n_class > 1 and n_test == 1 for n_class, n_test in sizes)


@pytest.fixture(scope="module")
def fitted_model():
    return fit_bcops(_two_blob_data(), _matching_test(), SMALL_FOREST, 0.05, RngStream(7))


class TestPredict:
    @pytest.fixture
    def model(self, fitted_model):
        return fitted_model

    def test_predict_all_matches_brute_force_recount(self, model):
        pv = conformal_p_values(model)
        sets = predict_all(model)
        assert sets.shape == pv.shape == (90, 2) and sets.dtype == bool
        for i in (0, 17, 45, 89):
            f = 3 - int(model.fold_assignment[i])
            for k in (1, 2):
                clf = model.classifiers[(k, f)]
                cal = model.calibration_scores[(k, f)].tolist()
                score = float(predict_probability_batch(clf, model.test_features[i : i + 1])[0])
                expected = _brute_force_p_value(score, cal)
                assert pv[i, k - 1] == expected
                assert sets[i, k - 1] == (expected > model.alpha)

    def test_idempotent(self, model):
        assert np.array_equal(predict_all(model), predict_all(model))

    def test_alpha_to_zero_includes_all_classes(self, model):
        sets = conformal_p_values(model) > 1e-12
        assert sets.shape == (90, 2) and sets.all()

    def test_alpha_monotone_nesting(self, model):
        pv = conformal_p_values(model)
        loose = pv > 0.01
        tight = pv > 0.10
        assert not (tight & ~loose).any()

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    def test_sets_nested_in_alpha(self, fitted_model, a, b):
        low, high = sorted((a, b))
        loose = predict_all(replace(fitted_model, alpha=low))
        tight = predict_all(replace(fitted_model, alpha=high))
        assert not (tight & ~loose).any()

    def test_all_p_below_alpha_abstains(self, model):
        pv = conformal_p_values(model)
        i = int(np.argmin(pv.max(axis=1)))
        a = float(pv[i].max())
        if a < 1.0:
            # a p-value equal to alpha excludes its class
            assert not predict_all(replace(model, alpha=a))[i].any()


def test_far_outliers_get_empty_sets():
    train = gen_example1_train(RngStream(8, 1))
    g = np.random.default_rng(0)
    far = np.full((200, 10), 100.0) + g.normal(0, 0.1, (200, 10))
    test = UnlabeledDataset(np.vstack([gen_example1_test(RngStream(8, 2)).features, far]))
    model = fit_bcops(train, test, ForestConfig(n_trees=30, min_node_size=25, max_depth=12), 0.05, RngStream(8, 3))
    sets = predict_all(model)
    abstained = int(np.count_nonzero(~sets[-200:].any(axis=1)))
    assert abstained >= 0.95 * 200


def test_duplicated_class_p_values_indistinguishable():
    # one distribution duplicated as two classes: their test p-values must
    # be statistically identical (two-sample KS below the 1% critical value)
    p1_pool, p2_pool = [], []
    for rep in range(4):
        g = np.random.default_rng(rep)
        x = g.normal(0, 1, (200, 3))
        train = LabeledDataset(x, np.repeat([1, 2], 100), 2)
        test = UnlabeledDataset(g.normal(0, 1, (150, 3)))
        model = fit_bcops(train, test, SMALL_FOREST, 0.05, RngStream(20, rep))
        pv = conformal_p_values(model)
        p1_pool.extend(pv[:, 0])
        p2_pool.extend(pv[:, 1])
    a, b = np.sort(p1_pool), np.sort(p2_pool)
    grid = np.unique(np.concatenate([a, b]))
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    ks = float(np.max(np.abs(cdf_a - cdf_b)))
    critical = 1.628 * np.sqrt((a.size + b.size) / (a.size * b.size))  # alpha = 0.01
    assert ks < critical


def test_score_order_sufficiency(monkeypatch):
    # a strictly increasing transform of one (class, fold) scorer, applied to
    # test and calibration scores alike, leaves every prediction set unchanged
    train, test = _two_blob_data(), _matching_test()
    model = fit_bcops(train, test, SMALL_FOREST, 0.05, RngStream(9))
    baseline = predict_all(model)

    target = model.classifiers[(1, 1)]
    transform = lambda s: np.power(s, 3) + 2.0 * s  # strictly increasing

    original = conformal_mod.predict_probability_batch

    def patched(clf, x):
        out = original(clf, x)
        return transform(out) if clf is target else out

    cal = dict(model.calibration_scores)
    cal[(1, 1)] = np.sort(transform(cal[(1, 1)]))
    warped = BcopsModel(
        alpha=model.alpha,
        class_count=model.class_count,
        classifiers=model.classifiers,
        calibration_scores=cal,
        fold_assignment=model.fold_assignment,
        test_features=model.test_features,
        warnings=model.warnings,
    )
    monkeypatch.setattr(conformal_mod, "predict_probability_batch", patched)
    assert np.array_equal(predict_all(warped), baseline)


def test_super_uniformity_quick():
    # held-out same-class p-values: empirical CDF at t stays near or below t
    pooled = []
    for rep in range(2):
        rng = RngStream(30, rep)
        train = gen_example1_train(rng.derive(1))
        test = gen_example1_test(rng.derive(2))
        model = fit_bcops(train, test, ForestConfig(n_trees=20, min_node_size=30, max_depth=10), 0.05, rng.derive(3))
        pv = conformal_p_values(model)
        truth = test.ground_truth
        for k in (1, 2):
            pooled.extend(pv[truth == k, k - 1])
    pooled = np.asarray(pooled)
    assert pooled.size >= 2000
    for t in (0.05, 0.1, 0.2):
        assert float((pooled <= t).mean()) <= t + 0.03
