import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcops.data import (
    LabeledDataset,
    RngStream,
    UnlabeledDataset,
    check_labels,
    split_in_two,
    stratified_subsample,
)
from bcops.forest import BinaryTrainingSet
from bcops.metrics import evaluate
from bcops.noise import CorruptionSpec, corrupt_labels


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
        g = np.random.default_rng(0)
        for i in range(1000):
            n = int(g.integers(1, 40))
            folds = split_in_two(n, RngStream(1, i))
            assert folds.dtype == np.int8 and folds.shape == (n,)
            assert np.bincount(folds, minlength=3).tolist() == [0, (n + 1) // 2, n // 2]

    def test_even_input_covers_all(self):
        assert np.bincount(split_in_two(10, RngStream(5))).tolist() == [0, 5, 5]

    def test_single_row(self):
        assert split_in_two(1, RngStream(0)).tolist() == [1]

    def test_deterministic(self):
        first = split_in_two(1000, RngStream(77, 3))
        assert np.array_equal(first, split_in_two(1000, RngStream(77, 3)))

    def test_fold_one_is_the_head_of_a_permutation(self):
        # the draws of the index halves that the folds replaced
        head = RngStream(2).generator().permutation(np.arange(101, dtype=np.int64))[:51]
        assert np.array_equal(np.nonzero(split_in_two(101, RngStream(2)) == 1)[0], np.sort(head))

    def test_empty_error(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            split_in_two(0, RngStream(0))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 500), st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_split_in_two_fold_sizes_and_replay(n, seed, stream_id):
    folds = split_in_two(n, RngStream(seed, stream_id))
    assert np.count_nonzero(folds == 1) == (n + 1) // 2
    assert np.count_nonzero(folds == 2) == n // 2
    assert np.array_equal(folds, split_in_two(n, RngStream(seed, stream_id)))


def _dataset(rows_per_class, k, seed=0):
    g = np.random.default_rng(seed)
    n = rows_per_class * k
    return LabeledDataset(g.normal(size=(n, 3)), np.repeat(np.arange(1, k + 1), rows_per_class), k)


class TestStratifiedSubsample:
    def test_zero_case(self):
        rows = stratified_subsample(_dataset(10, 2).labels, 2, 0, RngStream(1))
        assert rows.size == 0

    def test_exhaustive_case_is_permutation(self):
        data = _dataset(10, 2)
        rows = stratified_subsample(data.labels, 2, 10, RngStream(1))
        assert np.array_equal(data.features[rows], data.features)
        assert np.array_equal(data.labels[rows], data.labels)

    def test_counts(self):
        data = _dataset(100, 3)
        rows = stratified_subsample(data.labels, 3, 20, RngStream(4))
        assert rows.size == 60
        for k in (1, 2, 3):
            assert int((data.labels[rows] == k).sum()) == 20

    def test_rows_kept_verbatim(self):
        data = _dataset(50, 2, seed=9)
        rows = stratified_subsample(data.labels, 2, 5, RngStream(2))
        features, labels = data.features[rows], data.labels[rows]
        # every sampled row appears verbatim in the source with the same label
        for i in range(rows.size):
            matches = np.nonzero((data.features == features[i]).all(axis=1))[0]
            assert matches.size == 1
            assert data.labels[matches[0]] == labels[i]

    def test_insufficient_rows_names_class(self):
        with pytest.raises(ValueError, match="class 1"):
            stratified_subsample(_dataset(10, 2).labels, 2, 11, RngStream(0))


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


def _two_rows():
    return LabeledDataset(np.zeros((2, 1)), [1, 2], 2)


# One input per rejection at each boundary that takes labels, a count or a
# feature matrix.
@pytest.mark.parametrize("call,message", [
    (lambda: LabeledDataset(np.zeros((2, 1)), [1.9, 2.2], 2), "labels must be whole numbers"),
    (lambda: UnlabeledDataset(np.zeros((2, 1)), [0.5, 1.7]), "ground_truth must be whole numbers"),
    (lambda: BinaryTrainingSet(np.zeros((3, 1)), [0.5, 1, 0]), "targets must be whole numbers"),
    (lambda: corrupt_labels([1.7, 2.2], CorruptionSpec(0.0, 2), RngStream(0)),
     "labels must be whole numbers"),
    (lambda: evaluate(np.ones((2, 3), dtype=bool), [1.5, 2.9]), "truth classes.*whole numbers"),
    (lambda: LabeledDataset(np.zeros((2, 1)), [1, 1], True), "class_count must be an integer"),
    (lambda: CorruptionSpec(0.5, 2.5), "class_count must be an integer"),
    (lambda: stratified_subsample(_two_rows().labels, 2, 1.5, RngStream(0)), "per_class must be an integer"),
    (lambda: stratified_subsample(_two_rows().labels, 2, True, RngStream(0)), "per_class must be an integer"),
    (lambda: stratified_subsample(_two_rows().labels, 2, -1, RngStream(0)), "per_class must be >= 0"),
    (lambda: UnlabeledDataset(np.zeros((2, 1)), [0, -1]), "ground_truth must be >= 0"),
    (lambda: BinaryTrainingSet(np.zeros((3, 1)), [0, 1]), "targets must be a 1-D array of 3"),
    (lambda: BinaryTrainingSet(np.zeros((2, 1)), [0, 2]), r"targets must lie in 0\.\.1"),
    (lambda: BinaryTrainingSet(np.full((2, 1), np.nan), [0, 1]), "NaN"),
    (lambda: BinaryTrainingSet(np.zeros(2), [0, 1]), "2-D"),
])
def test_boundary_rejects(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_whole_number_floats_accepted_as_labels():
    x = np.zeros((2, 1))
    assert LabeledDataset(x, [1.0, 2.0], 2).labels.tolist() == [1, 2]
    assert UnlabeledDataset(x, [0.0, 2.0]).ground_truth.tolist() == [0, 2]
    assert BinaryTrainingSet(x, [1.0, 0.0]).targets.dtype == np.int8
    spec = CorruptionSpec(0.5, 2)
    assert np.array_equal(corrupt_labels([1.0, 2.0], spec, RngStream(3)),
                          corrupt_labels([1, 2], spec, RngStream(3)))
    assert evaluate(np.ones((2, 2), dtype=bool), [1.0, 0.0]) == evaluate(
        np.ones((2, 2), dtype=bool), [1, 0])


class TestCheckLabels:
    def test_returns_int64_vector(self):
        out = check_labels("y", np.array([3, 1], dtype=np.uint8), 1, 3)
        assert out.dtype == np.int64 and out.tolist() == [3, 1]
        assert check_labels("y", [], 1, 2, rows=0).shape == (0,)
        assert check_labels("y", [7, 10**9], 0, None).tolist() == [7, 10**9]

    @pytest.mark.parametrize("labels,rows,message", [
        ([np.nan, 1.0], None, "y must be whole numbers"),
        ([np.inf, 1.0], None, "y must be whole numbers"),
        ([1e30], None, "y must be whole numbers"),
        (["1", "2"], None, "y must be whole numbers"),
        ([None, 1], None, "y must be whole numbers"),
        ([[1, 2]], None, r"y must be a 1-D array, got shape \(1, 2\)"),
        ([1, 2], 3, r"y must be a 1-D array of 3 entries, got shape \(2,\)"),
        ([0, 2], None, r"y must lie in 1\.\.3"),
        ([1, 4], None, r"y must lie in 1\.\.3"),
    ])
    def test_rejects(self, labels, rows, message):
        with pytest.raises(ValueError, match=message):
            check_labels("y", labels, 1, 3, rows=rows)

