import numpy as np
import pytest

from bcops.data import RngStream
from bcops.noise import CorruptionSpec, corrupt_labels


def test_phi_zero_keeps_labels():
    labels = np.array([1, 2, 3, 1, 2])
    out = corrupt_labels(labels, CorruptionSpec(0.0, 3), RngStream(1))
    assert np.array_equal(out, labels)


def test_phi_one_two_classes_inverts():
    out = corrupt_labels([1, 2, 1], CorruptionSpec(1.0, 2), RngStream(2))
    assert out.tolist() == [2, 1, 2]


def test_changed_fraction_monte_carlo():
    # phi=0.3, K=10, n=10000: changed fraction within 3 binomial sd (0.014)
    labels = np.tile(np.arange(1, 11), 1000)
    out = corrupt_labels(labels, CorruptionSpec(0.3, 10), RngStream(3))
    changed = float((out != labels).mean())
    assert abs(changed - 0.3) <= 0.014


def test_outputs_stay_in_range():
    g = np.random.default_rng(0)
    for k in (2, 3, 10):
        labels = g.integers(1, k + 1, size=2000)
        for phi in (0.2, 0.7, 1.0):
            out = corrupt_labels(labels, CorruptionSpec(phi, k), RngStream(4, k))
            assert out.min() >= 1 and out.max() <= k


def test_mask_coincides_with_changes_under_exclusion():
    # the replacement branch fires where the stream's first uniform draw is
    # below phi; under exclusion sampling exactly those labels change
    labels = np.random.default_rng(1).integers(1, 6, size=5000)
    out = corrupt_labels(labels, CorruptionSpec(0.4, 5), RngStream(5))
    fired = RngStream(5).generator().random(labels.size) < 0.4
    assert np.array_equal(fired, out != labels)


def test_inclusive_resampling_can_keep_label_when_fired():
    # phi=1 fires the replacement branch on every row
    labels = np.ones(5000, dtype=np.int64)
    spec = CorruptionSpec(1.0, 2, inclusive_resampling=True)
    out = corrupt_labels(labels, spec, RngStream(6))
    # roughly half the redraws land back on the original label
    assert abs(float((out == labels).mean()) - 0.5) < 0.05


def test_determinism():
    labels = np.random.default_rng(2).integers(1, 4, size=1000)
    spec = CorruptionSpec(0.5, 3)
    a = corrupt_labels(labels, spec, RngStream(9, 9))
    b = corrupt_labels(labels, spec, RngStream(9, 9))
    assert np.array_equal(a, b)


def _changed_fraction(spec, n=20_000):
    labels = np.tile(np.arange(1, spec.class_count + 1), n // spec.class_count)
    return float((corrupt_labels(labels, spec, RngStream(10, spec.class_count)) != labels).mean())


@pytest.mark.parametrize(
    "phi,expected", [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]
)
def test_expected_noise_fraction_exclusion(phi, expected):
    # exclusion sampling changes a label exactly when the branch fires: phi
    tol = 4 * np.sqrt(phi * (1 - phi) / 20_000)  # 0 at phi 0 and 1: exact there
    assert abs(_changed_fraction(CorruptionSpec(phi, 4)) - expected) <= tol


def test_expected_noise_fraction_inclusive():
    # inclusive resampling keeps the label on 1 of K redraws: phi*(K-1)/K
    spec = CorruptionSpec(0.5, 10, inclusive_resampling=True)
    assert abs(_changed_fraction(spec) - 0.45) <= 4 * np.sqrt(0.45 * 0.55 / 20_000)


def test_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec(-0.1, 2)
    with pytest.raises(ValueError):
        CorruptionSpec(0.5, 1)
    with pytest.raises(ValueError):
        corrupt_labels([3], CorruptionSpec(0.5, 2), RngStream(0))
