"""Uniform label corruption: flip each label with probability phi.

By default the replacement label is drawn uniformly from the K-1 classes
other than the current one ("exclusion" sampling), so the expected fraction
of changed labels equals phi exactly and, for K=2, phi=1 inverts every
label. Setting ``inclusive_resampling`` draws from all K classes instead,
which yields an expected changed fraction of phi*(K-1)/K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RngStream, check_count, check_labels, check_range


@dataclass(frozen=True)
class CorruptionSpec:
    phi: float
    class_count: int
    inclusive_resampling: bool = False

    def __post_init__(self) -> None:
        check_range("phi", self.phi, 0, 1)
        check_count("class_count", self.class_count, minimum=2)


def corrupt_labels(labels, spec: CorruptionSpec, rng: RngStream) -> np.ndarray:
    """Replace each label with probability ``spec.phi``; the module docstring
    describes how the replacement label is drawn."""
    k = spec.class_count
    labels = check_labels("labels", labels, 1, k)
    g = rng.generator()
    fired = g.random(labels.size) < spec.phi
    if spec.inclusive_resampling:
        replacement = g.integers(1, k + 1, size=labels.size)
    else:
        # uniform over the K-1 classes excluding the current label
        shift = g.integers(1, k, size=labels.size)
        replacement = (labels - 1 + shift) % k + 1
    return np.where(fired, replacement, labels)
