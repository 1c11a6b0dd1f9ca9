"""Synthetic Gaussian benchmarks with a held-out outlier class.

Both generators use 10-dimensional features. Gaussian parameters are
(mean, standard deviation); all coordinates default to N(0, 1) except the
class-informative ones noted per generator.
"""

from __future__ import annotations

import numpy as np

from .data import OUTLIER, LabeledDataset, RngStream, UnlabeledDataset

N_FEATURES = 10


def gen_example1_train(rng: RngStream) -> LabeledDataset:
    """Two classes, 500 rows each: coordinate 1 is N(0,1) for class 1 and
    N(3, 0.5) for class 2; the other nine coordinates are N(0,1)."""
    g = rng.generator()
    x = g.normal(0.0, 1.0, size=(1000, N_FEATURES))
    x[500:, 0] = g.normal(3.0, 0.5, size=500)
    labels = np.repeat([1, 2], 500)
    return LabeledDataset(x, labels, class_count=2)


def gen_example1_test(rng: RngStream) -> UnlabeledDataset:
    """1500 rows: 500 per training class plus 500 outliers whose coordinate 2
    is N(3, 1)."""
    g = rng.generator()
    x = g.normal(0.0, 1.0, size=(1500, N_FEATURES))
    x[500:1000, 0] = g.normal(3.0, 0.5, size=500)
    x[1000:, 1] = g.normal(3.0, 1.0, size=500)
    truth = np.concatenate([np.repeat([1, 2], 500), np.full(500, OUTLIER)])
    return UnlabeledDataset(x, truth)


def gen_example2(rng: RngStream) -> tuple[LabeledDataset, UnlabeledDataset]:
    """Ten classes, each separable along its own coordinate (N(3, 0.5) on
    coordinate y, N(0,1) elsewhere); 500 training and 500 test rows per
    class, plus 500 test outliers with every coordinate N(3, 2)."""
    g = rng.generator()

    def class_block(count: int) -> np.ndarray:
        x = g.normal(0.0, 1.0, size=(count * N_FEATURES, N_FEATURES))
        for y in range(N_FEATURES):
            x[y * count : (y + 1) * count, y] = g.normal(3.0, 0.5, size=count)
        return x

    train_x = class_block(500)
    train_labels = np.repeat(np.arange(1, N_FEATURES + 1), 500)

    test_x = np.vstack([class_block(500), g.normal(3.0, 2.0, size=(500, N_FEATURES))])
    truth = np.concatenate([np.repeat(np.arange(1, N_FEATURES + 1), 500), np.full(500, OUTLIER)])

    return (
        LabeledDataset(train_x, train_labels, class_count=N_FEATURES),
        UnlabeledDataset(test_x, truth),
    )
