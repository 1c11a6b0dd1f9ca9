"""Evaluation metrics: per-class coverage, class-averaged coverage, outlier
abstention rate, and the row type of their cross-repetition summary."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import OUTLIER, check_labels

CLASS_COVERAGE = "class_coverage"
MEAN_COVERAGE = "mean_coverage"
ABSTENTION_RATE = "abstention_rate"
METRIC_NAMES = (CLASS_COVERAGE, MEAN_COVERAGE, ABSTENTION_RATE)


class MetricRecord(NamedTuple):
    metric_name: str
    value: float
    class_label: int | None = None


def evaluate(include, truth) -> list[MetricRecord]:
    """Coverage and abstention of a membership matrix against ground truth.

    ``include`` is the (n_test, K) boolean matrix of ``predict_all``
    (column k-1 holds class k); ``truth`` holds each row's class in 1..K or
    OUTLIER. Records: class coverage for every class present in ``truth``
    (ascending), then their unweighted mean, then the fraction of outlier
    rows with an empty set. A record whose rows are absent is omitted.
    """
    include = np.asarray(include, dtype=bool)
    if include.ndim != 2 or include.shape[0] == 0:
        raise ValueError("need an (n, K) membership matrix with n >= 1")
    n, k_count = include.shape
    truth = check_labels("truth classes (OUTLIER is 0)", truth, OUTLIER, k_count, rows=n)

    inlier = np.nonzero(truth != OUTLIER)[0]
    labels = truth[inlier]
    totals = np.bincount(labels, minlength=k_count + 1)
    hits = np.bincount(labels[include[inlier, labels - 1]], minlength=k_count + 1)
    records = [
        MetricRecord(CLASS_COVERAGE, int(hits[k]) / int(totals[k]), class_label=int(k))
        for k in np.nonzero(totals)[0]
    ]
    if records:
        records.append(MetricRecord(MEAN_COVERAGE, float(np.mean([r.value for r in records]))))
    outliers = include[truth == OUTLIER]
    if outliers.shape[0]:
        abstained = int(np.count_nonzero(~outliers.any(axis=1)))
        records.append(MetricRecord(ABSTENTION_RATE, abstained / outliers.shape[0]))
    return records


@dataclass(frozen=True)
class SummaryRow:
    phi: float
    metric_name: str
    class_label: int | None
    mean: float
    sd: float  # sample sd; 0 by convention when n_reps == 1
    n_reps: int


def class_order(label) -> int:
    """Sort key of a class label: a row without a class sorts before class 1."""
    return -1 if label is None else label
