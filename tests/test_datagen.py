import numpy as np
import pytest

from bcops.data import OUTLIER, RngStream
from bcops.datagen import gen_example1_test, gen_example1_train, gen_example2


class TestExample1Train:
    def test_class_counts(self):
        x, labels = gen_example1_train(RngStream(0))
        assert x.shape == (1000, 10) and labels.shape == (1000,)
        assert int((labels == 1).sum()) == 500
        assert int((labels == 2).sum()) == 500

    def test_class2_coordinate1_mean(self):
        # pool 200 seeds -> 1e5 draws; mean within 0.01 of 3.0
        pooled = np.concatenate([
            gen_example1_train(RngStream(1, s))[0][500:, 0] for s in range(200)
        ])
        assert pooled.size == 100_000
        assert abs(pooled.mean() - 3.0) <= 0.01

    def test_background_coordinate_mean(self):
        pooled = np.concatenate([
            gen_example1_train(RngStream(2, s))[0][:, 4] for s in range(100)
        ])
        assert abs(pooled.mean()) <= 0.01

    def test_determinism(self):
        a = gen_example1_train(RngStream(3, 3))
        b = gen_example1_train(RngStream(3, 3))
        assert all(np.array_equal(u, v) for u, v in zip(a, b))


class TestExample1Test:
    def test_ground_truth_counts(self):
        x, truth = gen_example1_test(RngStream(4))
        assert x.shape == (1500, 10) and truth.shape == (1500,)
        counts = {v: int((truth == v).sum()) for v in (1, 2, OUTLIER)}
        assert counts == {1: 500, 2: 500, OUTLIER: 500}

    def test_outlier_coordinate_means(self):
        pooled2, pooled1 = [], []
        for s in range(100):
            x, truth = gen_example1_test(RngStream(5, s))
            outliers = x[truth == OUTLIER]
            pooled2.append(outliers[:, 1])
            pooled1.append(outliers[:, 0])
        assert abs(np.concatenate(pooled2).mean() - 3.0) <= 0.02
        assert abs(np.concatenate(pooled1).mean()) <= 0.02


class TestExample2:
    def test_shapes(self):
        x, labels, test_x, truth = gen_example2(RngStream(6))
        assert x.shape == (5000, 10) and labels.shape == (5000,)
        for k in range(1, 11):
            assert int((labels == k).sum()) == 500
        assert test_x.shape == (5500, 10) and truth.shape == (5500,)
        assert int((truth == OUTLIER).sum()) == 500

    def test_class7_informative_coordinate(self):
        pooled = np.concatenate([
            gen_example2(RngStream(7, s))[0][3000:3500, 6] for s in range(20)
        ])
        assert abs(pooled.mean() - 3.0) <= 0.02

    def test_outlier_coordinates(self):
        _, _, test_x, truth = gen_example2(RngStream(8))
        outliers = test_x[truth == OUTLIER]
        for j in range(10):
            assert abs(outliers[:, j].mean() - 3.0) <= 0.3  # sd 2, n=500

    def test_class_separation(self):
        # class k's own coordinate exceeds every other coordinate mean by >= 2.5
        x, labels, _, _ = gen_example2(RngStream(9))
        for k in range(1, 11):
            rows = x[labels == k]
            means = rows.mean(axis=0)
            own = means[k - 1]
            others = np.delete(means, k - 1)
            assert np.all(own - others >= 2.5)

    def test_determinism(self):
        a = gen_example2(RngStream(10, 5))
        b = gen_example2(RngStream(10, 5))
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
