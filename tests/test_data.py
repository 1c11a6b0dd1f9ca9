import numpy as np
import pytest

from bcops.data import (
    LabeledDataset,
    RngStream,
    UnlabeledDataset,
    split_in_two,
    stratified_subsample,
)


class TestRngStream:
    def test_same_pair_reproduces_draws(self):
        a = RngStream(123, 45).generator().random(100)
        b = RngStream(123, 45).generator().random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).generator().random(100)
        b = RngStream(123, 1).generator().random(100)
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic_and_branching(self):
        root = RngStream(9, 4)
        assert root.derive(3) == root.derive(3)
        children = {root.derive(i).stream_id for i in range(200)}
        assert len(children) == 200

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
        with pytest.raises(ValueError):
            RngStream(0, 1 << 64)


class TestSplitInTwo:
    def test_partition_property_many_instances(self):
        # disjointness + union over 1000 random instances
        g = np.random.default_rng(0)
        for i in range(1000):
            n = int(g.integers(1, 40))
            rows = np.sort(g.choice(10_000, size=n, replace=False))
            a, b = split_in_two(rows, RngStream(1, i))
            assert abs(len(a) - len(b)) <= 1
            merged = np.concatenate([a, b])
            assert len(np.unique(merged)) == n
            assert np.array_equal(np.sort(merged), rows)

    def test_even_input_covers_all(self):
        a, b = split_in_two(np.arange(10), RngStream(5))
        assert len(a) == len(b) == 5
        assert np.array_equal(np.sort(np.concatenate([a, b])), np.arange(10))

    def test_single_row(self):
        a, b = split_in_two([7], RngStream(0))
        assert a.tolist() == [7] and b.tolist() == []

    def test_deterministic(self):
        rows = np.arange(1000)
        first = split_in_two(rows, RngStream(77, 3))
        second = split_in_two(rows, RngStream(77, 3))
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_halves_ascending(self):
        a, b = split_in_two(np.arange(101), RngStream(2))
        assert np.all(np.diff(a) > 0) and np.all(np.diff(b) > 0)

    def test_empty_error(self):
        with pytest.raises(ValueError, match="empty split"):
            split_in_two([], RngStream(0))


def _dataset(rows_per_class, k, seed=0):
    g = np.random.default_rng(seed)
    n = rows_per_class * k
    return LabeledDataset(g.normal(size=(n, 3)), np.repeat(np.arange(1, k + 1), rows_per_class), k)


class TestStratifiedSubsample:
    def test_zero_case(self):
        out = stratified_subsample(_dataset(10, 2), 0, RngStream(1))
        assert out.n_rows == 0

    def test_exhaustive_case_is_permutation(self):
        data = _dataset(10, 2)
        out = stratified_subsample(data, 10, RngStream(1))
        assert np.array_equal(out.features, data.features)
        assert np.array_equal(out.labels, data.labels)

    def test_counts(self):
        out = stratified_subsample(_dataset(100, 3), 20, RngStream(4))
        assert out.n_rows == 60
        for k in (1, 2, 3):
            assert int((out.labels == k).sum()) == 20

    def test_rows_kept_verbatim(self):
        data = _dataset(50, 2, seed=9)
        out = stratified_subsample(data, 5, RngStream(2))
        # every sampled row appears verbatim in the source with the same label
        for i in range(out.n_rows):
            matches = np.nonzero((data.features == out.features[i]).all(axis=1))[0]
            assert matches.size == 1
            assert data.labels[matches[0]] == out.labels[i]

    def test_insufficient_rows_names_class(self):
        with pytest.raises(ValueError, match="class 1"):
            stratified_subsample(_dataset(10, 2), 11, RngStream(0))


class TestContainers:
    def test_labeled_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            LabeledDataset(np.array([[np.nan, 1.0]]), [1], 1)

    def test_labeled_rejects_bad_label(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), [1, 3], 2)

    def test_labeled_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), [1], 2)

    def test_unlabeled_ground_truth_length(self):
        with pytest.raises(ValueError):
            UnlabeledDataset(np.zeros((3, 2)), [1, 2])

    def test_unlabeled_ground_truth_optional(self):
        ds = UnlabeledDataset(np.zeros((3, 2)))
        assert ds.ground_truth is None
