import numpy as np
import pytest

from bcops.data import OUTLIER
from bcops.metrics import (
    ABSTENTION_RATE,
    CLASS_COVERAGE,
    MEAN_COVERAGE,
    evaluate,
)
from bcops.sweep import SweepRow, aggregate_result


def _matrix(memberships, k_count=3):
    """Boolean membership matrix with column k-1 set iff k is in the row's set."""
    include = np.zeros((len(memberships), k_count), dtype=bool)
    for i, members in enumerate(memberships):
        for k in members:
            include[i, k - 1] = True
    return include


def _metrics(memberships, truth, k_count=3):
    """evaluate() output keyed by (metric, class)."""
    records = evaluate(_matrix(memberships, k_count), np.asarray(truth))
    return {(r.metric_name, r.class_label): r.value for r in records}


class TestClassCoverage:
    def test_hand_count(self):
        got = _metrics([{1}, {1, 2}, set(), {2}], [1, 1, 1, 2])
        assert got[(CLASS_COVERAGE, 1)] == 2 / 3

    def test_perfect_coverage(self):
        got = _metrics([{1}, {2}, {1, 2}], [1, 2, 1])
        assert got[(CLASS_COVERAGE, 1)] == 1.0
        assert got[(CLASS_COVERAGE, 2)] == 1.0

    def test_absent_class_error(self):
        # a class absent from the truth gets no record; a truth class with no
        # column in the matrix is an error
        assert (CLASS_COVERAGE, 2) not in _metrics([{1}], [1])
        with pytest.raises(ValueError, match="truth classes"):
            _metrics([{1}], [4])

    def test_row_permutation_invariance(self):
        g = np.random.default_rng(0)
        memberships = [set(g.choice([1, 2, 3], size=g.integers(0, 3), replace=False)) for _ in range(12)]
        truth = g.integers(1, 4, size=12)
        perm = g.permutation(12)
        shuffled = _metrics([memberships[i] for i in perm], truth[perm])
        assert _metrics(memberships, truth) == shuffled


class TestMeanCoverage:
    def test_equal_weighting(self):
        got = _metrics([{1}, {1}, {2}, set()], [1, 1, 2, 2])
        # coverages 1.0 and 0.5
        assert got[(MEAN_COVERAGE, None)] == 0.75

    def test_single_class_equals_class_coverage(self):
        got = _metrics([{1}, set(), {1}], [1, 1, 1])
        assert got[(MEAN_COVERAGE, None)] == got[(CLASS_COVERAGE, 1)]

    def test_outlier_rows_excluded(self):
        got = _metrics([{1}, set(), {1}], [1, OUTLIER, 1])
        assert got[(MEAN_COVERAGE, None)] == 1.0

    def test_no_inliers_no_mean_record(self):
        assert list(_metrics([set()], [OUTLIER])) == [(ABSTENTION_RATE, None)]


class TestAbstentionRate:
    def test_all_empty(self):
        assert _metrics([set(), set()], [OUTLIER, OUTLIER])[(ABSTENTION_RATE, None)] == 1.0

    def test_none_empty(self):
        assert _metrics([{1}, {2}], [OUTLIER, OUTLIER])[(ABSTENTION_RATE, None)] == 0.0

    def test_hand_count(self):
        got = _metrics([set(), {1}, set(), {2}], [OUTLIER] * 4)
        assert got[(ABSTENTION_RATE, None)] == 0.5

    def test_no_outliers_no_abstention_record(self):
        assert (ABSTENTION_RATE, None) not in _metrics([{1}], [1])

    def test_ignores_inlier_rows(self):
        truth = [1, OUTLIER, 2, OUTLIER]
        base = _metrics([{1}, set(), {2}, {1}], truth)
        mutated = _metrics([set(), set(), {1, 2}, {1}], truth)
        assert base[(ABSTENTION_RATE, None)] == mutated[(ABSTENTION_RATE, None)]


def _brute_force_metrics(memberships, truth):
    """Literal double-loop recount of coverage and abstention."""
    truth = list(truth)
    cov = {}
    for k in sorted(set(t for t in truth if t != OUTLIER)):
        n_k, hits = 0, 0
        for s, t in zip(memberships, truth):
            if t == k:
                n_k += 1
                if k in s:
                    hits += 1
        cov[k] = hits / n_k
    n_a = sum(1 for t in truth if t == OUTLIER)
    abst = None
    if n_a:
        empty = sum(1 for s, t in zip(memberships, truth) if t == OUTLIER and len(s) == 0)
        abst = empty / n_a
    return cov, abst


def test_metrics_match_brute_force_recount():
    g = np.random.default_rng(7)
    for _ in range(200):
        n = int(g.integers(1, 21))
        truth = g.integers(0, 4, size=n)  # 0 is OUTLIER
        memberships = [
            set(g.choice([1, 2, 3], size=g.integers(0, 4), replace=False).tolist())
            for _ in range(n)
        ]
        got = _metrics(memberships, truth)
        cov, abst = _brute_force_metrics(memberships, truth)
        expected = {(CLASS_COVERAGE, k): v for k, v in cov.items()}
        if cov:
            expected[(MEAN_COVERAGE, None)] = float(np.mean(list(cov.values())))
        if abst is not None:
            expected[(ABSTENTION_RATE, None)] = abst
        assert got == expected


def test_evaluate_emits_expected_records():
    records = evaluate(_matrix([{1}, {2}, set()], 2), [1, 2, OUTLIER])
    names = [(r.metric_name, r.class_label) for r in records]
    assert names == [
        (CLASS_COVERAGE, 1),
        (CLASS_COVERAGE, 2),
        (MEAN_COVERAGE, None),
        (ABSTENTION_RATE, None),
    ]
    assert all(0.0 <= r.value <= 1.0 for r in records)
    assert all(type(r.class_label) is int for r in records[:2])


def test_evaluate_rejects_malformed_input():
    with pytest.raises(ValueError):
        evaluate(np.zeros((0, 2), dtype=bool), [])
    with pytest.raises(ValueError):
        evaluate(np.zeros((3, 2), dtype=bool), [1, 2])
    with pytest.raises(ValueError):
        evaluate(np.zeros(3, dtype=bool), [1, 2, 1])
    with pytest.raises(ValueError, match="truth classes"):
        evaluate(np.zeros((2, 2), dtype=bool), [1, -1])


def _row(rep, phi, metric, value, class_label=None):
    return SweepRow("example1", phi, rep, metric, class_label, value)


class TestAggregate:
    def test_single_record(self):
        rows = aggregate_result([_row(0, 0.1, MEAN_COVERAGE, 0.9)])
        assert len(rows) == 1
        assert rows[0].mean == 0.9 and rows[0].sd == 0.0 and rows[0].n_reps == 1

    def test_two_point_sd(self):
        rows = aggregate_result([
            _row(0, 0.2, ABSTENTION_RATE, 0.9),
            _row(1, 0.2, ABSTENTION_RATE, 1.0),
        ])
        assert rows[0].mean == pytest.approx(0.95)
        assert rows[0].sd == pytest.approx(0.0707, abs=1e-4)

    def test_identical_values(self):
        rows = aggregate_result([_row(r, 0.0, MEAN_COVERAGE, 0.42) for r in range(100)])
        assert rows[0].mean == pytest.approx(0.42) and rows[0].sd == pytest.approx(0.0, abs=1e-12)
        assert rows[0].n_reps == 100

    def test_deterministic_order(self):
        rows = aggregate_result([
            _row(0, 0.5, MEAN_COVERAGE, 0.9),
            _row(0, 0.0, CLASS_COVERAGE, 0.8, class_label=2),
            _row(0, 0.0, CLASS_COVERAGE, 0.7, class_label=1),
            _row(0, 0.0, ABSTENTION_RATE, 0.6),
        ])
        keys = [(r.phi, r.metric_name, r.class_label) for r in rows]
        assert keys == [
            (0.0, ABSTENTION_RATE, None),
            (0.0, CLASS_COVERAGE, 1),
            (0.0, CLASS_COVERAGE, 2),
            (0.5, MEAN_COVERAGE, None),
        ]

    def test_empty_error(self):
        with pytest.raises(ValueError):
            aggregate_result([])


def test_metric_record_validation():
    # the row rules sit on SweepRow; evaluate's records are valid by construction
    with pytest.raises(ValueError, match="unknown metric"):
        _row(0, 0.1, "bogus", 0.5)
    with pytest.raises(ValueError, match="class is given iff"):
        _row(0, 0.1, MEAN_COVERAGE, 0.5, class_label=1)
    with pytest.raises(ValueError, match="class is given iff"):
        _row(0, 0.1, CLASS_COVERAGE, 0.5)
    with pytest.raises(ValueError, match="outside"):
        _row(0, 0.1, MEAN_COVERAGE, 1.5)
