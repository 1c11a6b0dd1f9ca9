"""BCOPS: transductive per-class scoring, split-conformal calibration,
prediction sets, and abstention.

Train and test rows are each split 50/50. For every class k and fold f a
binary forest separates fold-f class-k training rows (target 1) from fold-f
test rows (target 0). That model scores the opposite test fold and is
calibrated on class-k rows of the opposite training fold, so no point is
ranked against a calibration set its own model trained on. A class enters
C(x) iff its rank-based p-value exceeds alpha; an empty set is an
abstention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import LabeledDataset, RngStream, UnlabeledDataset, split_in_two
from .forest import BinaryTrainingSet, ForestConfig, predict_probability_batch, train_forest


@dataclass(frozen=True)
class BcopsModel:
    alpha: float
    class_count: int
    # keyed by (class k, training fold f); classifier may be None when the
    # class was absent from fold f (fail-open: p-value 1 for that side)
    classifiers: dict
    calibration_scores: dict  # (k, f) -> ascending np.ndarray
    fold_assignment: np.ndarray  # per test row, its test fold in {1, 2}
    test_features: np.ndarray
    warnings: tuple


def conformal_p_value(scores, calibration):
    """(1 + #{c in calibration : c <= s}) / (|calibration| + 1) for each score s.

    ``scores`` is a scalar or an array; ``calibration`` must be ascending.
    Weak inequality keeps ties conservative. An empty calibration list
    yields 1 (fail-open: the class is always included).
    """
    calibration = np.asarray(calibration, dtype=np.float64)
    return (1 + np.searchsorted(calibration, scores, side="right")) / (calibration.size + 1)


def fit_bcops(
    train: LabeledDataset,
    test: UnlabeledDataset,
    forest_config: ForestConfig,
    alpha: float,
    rng: RngStream,
    imbalance_cap: float = 5.0,
) -> BcopsModel:
    """Fit the transductive BCOPS model on a train/test pair.

    imbalance_cap bounds |test fold| / |class-k fold rows| in each binary
    training set; larger test folds are subsampled without replacement,
    keeping at least one row.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0 < imbalance_cap < np.inf:
        raise ValueError("imbalance_cap must be > 0 and finite")
    if test.n_rows < 2:
        raise ValueError(f"test set needs at least 2 rows, one per fold, got {test.n_rows}")
    k_count = train.class_count
    for k in range(1, k_count + 1):
        if not np.any(train.labels == k):
            raise ValueError(f"class {k} absent from the training set")

    train_fold = split_in_two(train.n_rows, rng.derive(1))
    fold_assignment = split_in_two(test.n_rows, rng.derive(2))

    classifiers: dict = {}
    calibration: dict = {}
    warnings: list[str] = []

    for k in range(1, k_count + 1):
        for f in (1, 2):
            cell_rng = rng.derive(10 * k + f)
            own = np.nonzero((train.labels == k) & (train_fold == f))[0]
            opp = np.nonzero((train.labels == k) & (train_fold != f))[0]
            tf = np.nonzero(fold_assignment == f)[0]
            if own.size == 0:
                warnings.append(f"class {k} absent from training fold {f}; "
                                f"p-values for (class {k}, fold {f}) fixed at 1")
                classifiers[(k, f)] = None
                calibration[(k, f)] = np.empty(0)
                continue

            cap = max(1, int(imbalance_cap * own.size))
            if tf.size > cap:
                g = cell_rng.derive(1).generator()
                tf = np.sort(g.choice(tf, size=cap, replace=False))

            binary = BinaryTrainingSet(
                np.vstack([train.features[own], test.features[tf]]),
                np.concatenate([np.ones(own.size, dtype=np.int8), np.zeros(tf.size, dtype=np.int8)]),
            )
            model = train_forest(binary, replace(forest_config, seed_stream=cell_rng.derive(2)))
            classifiers[(k, f)] = model

            if not opp.size:
                # fall back to in-sample rows rather than silently under-cover
                warnings.append(
                    f"class {k} absent from training fold {3 - f}; "
                    f"calibrating (class {k}, fold {f}) on its own fold"
                )
            cal = predict_probability_batch(model, train.features[opp if opp.size else own])
            calibration[(k, f)] = np.sort(cal)

    return BcopsModel(
        alpha=alpha,
        class_count=k_count,
        classifiers=classifiers,
        calibration_scores=calibration,
        fold_assignment=fold_assignment,
        test_features=test.features,
        warnings=tuple(warnings),
    )


def conformal_p_values(model: BcopsModel) -> np.ndarray:
    """(n_test, K) matrix of per-class conformal p-values, rows in test order.

    A row in test fold t is scored by the model of training fold 3-t.
    """
    pv = np.ones((model.fold_assignment.size, model.class_count))
    for tag in (1, 2):
        rows = np.nonzero(model.fold_assignment == tag)[0]
        x = model.test_features[rows]
        f = 3 - tag
        for k in range(1, model.class_count + 1):
            clf = model.classifiers[(k, f)]
            if clf is not None:
                scores = predict_probability_batch(clf, x)
                pv[rows, k - 1] = conformal_p_value(scores, model.calibration_scores[(k, f)])
    return pv


def predict_all(model: BcopsModel) -> np.ndarray:
    """(n_test, K) boolean membership matrix, rows in test order.

    Column k-1 holds class k: True iff its p-value exceeds the model's
    alpha. An all-False row is an abstention.
    """
    return conformal_p_values(model) > model.alpha
