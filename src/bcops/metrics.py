"""Evaluation metrics: per-class coverage, class-averaged coverage, outlier
abstention rate, and cross-repetition aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import OUTLIER

CLASS_COVERAGE = "class_coverage"
MEAN_COVERAGE = "mean_coverage"
ABSTENTION_RATE = "abstention_rate"
METRIC_NAMES = (CLASS_COVERAGE, MEAN_COVERAGE, ABSTENTION_RATE)


@dataclass(frozen=True)
class MetricRecord:
    metric_name: str
    value: float
    class_label: int | None = None

    def __post_init__(self) -> None:
        if self.metric_name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {self.metric_name!r}")
        if (self.class_label is not None) != (self.metric_name == CLASS_COVERAGE):
            raise ValueError("class_label present iff metric is class_coverage")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("metric value must lie in [0, 1]")


def evaluate(include, truth) -> list[MetricRecord]:
    """Coverage and abstention of a membership matrix against ground truth.

    ``include`` is the (n_test, K) boolean matrix of ``predict_all``
    (column k-1 holds class k); ``truth`` holds each row's class in 1..K or
    OUTLIER. Records: class coverage for every class present in ``truth``
    (ascending), then their unweighted mean, then the fraction of outlier
    rows with an empty set. A record whose rows are absent is omitted.
    """
    include = np.asarray(include, dtype=bool)
    truth = np.asarray(truth, dtype=np.int64)
    if include.ndim != 2 or include.shape[0] == 0 or truth.shape != include.shape[:1]:
        raise ValueError("need an (n, K) membership matrix, n >= 1, and n truth entries")
    k_count = include.shape[1]
    if truth.min() < OUTLIER or truth.max() > k_count:
        raise ValueError(f"truth classes must lie in 1..{k_count} or be OUTLIER")

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


def aggregate(records) -> list[SummaryRow]:
    """Group (repetition, phi, MetricRecord) triples by (phi, metric, class).

    Output is ordered by phi ascending, then metric name, then class.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to aggregate")
    groups: dict = {}
    for _rep, phi, rec in records:
        groups.setdefault((phi, rec.metric_name, rec.class_label), []).append(rec.value)

    def sort_key(key):
        phi, name, label = key
        return (phi, name, -1 if label is None else label)

    out = []
    for key in sorted(groups, key=sort_key):
        values = np.asarray(groups[key], dtype=np.float64)
        sd = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
        out.append(
            SummaryRow(
                phi=key[0],
                metric_name=key[1],
                class_label=key[2],
                mean=float(values.mean()),
                sd=sd,
                n_reps=int(values.size),
            )
        )
    return out
