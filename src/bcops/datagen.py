"""Synthetic Gaussian benchmarks with a held-out outlier class.

Both generators use 10-dimensional features. Gaussian parameters are
(mean, standard deviation); all coordinates default to N(0, 1) except the
class-informative ones noted per generator.
"""

from __future__ import annotations

import numpy as np

from .data import OUTLIER, LabeledDataset, RngStream, UnlabeledDataset

N_FEATURES = 10
# Rows of each class, and of the outliers, in every generated set.
ROWS_PER_CLASS = 500


def gen_example1_train(rng: RngStream) -> LabeledDataset:
    """Two classes, ROWS_PER_CLASS rows each: coordinate 1 is N(0,1) for
    class 1 and N(3, 0.5) for class 2; the other nine coordinates are N(0,1)."""
    g = rng.generator()
    n = ROWS_PER_CLASS
    x = g.normal(0.0, 1.0, size=(2 * n, N_FEATURES))
    x[n:, 0] = g.normal(3.0, 0.5, size=n)
    labels = np.repeat([1, 2], n)
    return LabeledDataset(x, labels, class_count=2)


def gen_example1_test(rng: RngStream) -> UnlabeledDataset:
    """ROWS_PER_CLASS rows of each training class plus as many outliers,
    whose coordinate 2 is N(3, 1)."""
    g = rng.generator()
    n = ROWS_PER_CLASS
    x = g.normal(0.0, 1.0, size=(3 * n, N_FEATURES))
    x[n : 2 * n, 0] = g.normal(3.0, 0.5, size=n)
    x[2 * n :, 1] = g.normal(3.0, 1.0, size=n)
    truth = np.concatenate([np.repeat([1, 2], n), np.full(n, OUTLIER)])
    return UnlabeledDataset(x, truth)


def gen_example2(rng: RngStream) -> tuple[LabeledDataset, UnlabeledDataset]:
    """Ten classes, each separable along its own coordinate (N(3, 0.5) on
    coordinate y, N(0,1) elsewhere); ROWS_PER_CLASS training and test rows
    per class, plus as many test outliers with every coordinate N(3, 2)."""
    g = rng.generator()
    n = ROWS_PER_CLASS

    def class_block() -> np.ndarray:
        x = g.normal(0.0, 1.0, size=(n * N_FEATURES, N_FEATURES))
        for y in range(N_FEATURES):
            x[y * n : (y + 1) * n, y] = g.normal(3.0, 0.5, size=n)
        return x

    train_x = class_block()
    train_labels = np.repeat(np.arange(1, N_FEATURES + 1), n)

    test_x = np.vstack([class_block(), g.normal(3.0, 2.0, size=(n, N_FEATURES))])
    truth = np.concatenate([np.repeat(np.arange(1, N_FEATURES + 1), n), np.full(n, OUTLIER)])

    return (
        LabeledDataset(train_x, train_labels, class_count=N_FEATURES),
        UnlabeledDataset(test_x, truth),
    )
