"""Core data containers, deterministic RNG streams, and row-splitting helpers.

Class labels are canonical integers 1..K everywhere inside the library.
External label alphabets (e.g. MNIST digits) are mapped on ingestion via
:func:`relabel_to_canonical`. Ground-truth outliers are marked with
``OUTLIER`` (0), which is never a valid class label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Ground-truth marker for test rows whose true class was absent from training.
OUTLIER = 0

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer; decorrelates derived stream ids."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (seed, stream_id).

    The same pair yields an identical draw sequence across runs and thread
    schedules. Parallel tasks must each derive their own child stream via
    :meth:`derive`; streams are values and are never shared mutably.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.seed <= _MASK64 and 0 <= self.stream_id <= _MASK64):
            raise ValueError("seed and stream_id must be unsigned 64-bit integers")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)

    def derive(self, child_id: int) -> "RngStream":
        """Child stream independent of this one and of other children."""
        mixed = _splitmix64((self.stream_id * _GOLDEN + child_id + 1) & _MASK64)
        return RngStream(self.seed, mixed)


def _check_features(features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be a 2-D matrix, got ndim={features.ndim}")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain NaN or infinite entries")
    return features


@dataclass(frozen=True)
class LabeledDataset:
    """An n x p feature matrix with canonical class labels 1..class_count."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", _check_features(self.features))
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.shape[0] != self.features.shape[0]:
            raise ValueError("labels length must equal feature row count")
        if self.class_count < 1:
            raise ValueError("class_count must be >= 1")
        if labels.size and (labels.min() < 1 or labels.max() > self.class_count):
            raise ValueError(f"labels must lie in 1..{self.class_count}")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class UnlabeledDataset:
    """Test-set features with optional ground truth used only for evaluation.

    ground_truth entries are canonical class labels, or ``OUTLIER`` for rows
    whose class was not present in training. Fitting paths never read it.
    """

    features: np.ndarray
    ground_truth: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", _check_features(self.features))
        if self.ground_truth is not None:
            gt = np.asarray(self.ground_truth, dtype=np.int64)
            object.__setattr__(self, "ground_truth", gt)
            if gt.ndim != 1 or gt.shape[0] != self.features.shape[0]:
                raise ValueError("ground_truth length must equal feature row count")
            if gt.size and gt.min() < 0:
                raise ValueError("ground_truth entries must be >= 0 (0 marks outliers)")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


def split_in_two(rows, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly random partition of row indices into two near-equal halves.

    Half sizes differ by at most 1 (the first half gets the extra row).
    Each half is returned in ascending order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("empty split")
    perm = rng.generator().permutation(rows)
    cut = (rows.size + 1) // 2
    return np.sort(perm[:cut]), np.sort(perm[cut:])


def stratified_subsample(data: LabeledDataset, per_class: int, rng: RngStream) -> LabeledDataset:
    """Sample exactly per_class rows of each class, without replacement."""
    if per_class < 0:
        raise ValueError("per_class must be >= 0")
    g = rng.generator()
    chosen = []
    for k in range(1, data.class_count + 1):
        idx = np.nonzero(data.labels == k)[0]
        if idx.size < per_class:
            raise ValueError(
                f"class {k} has only {idx.size} rows, need {per_class}"
            )
        chosen.append(g.choice(idx, size=per_class, replace=False))
    keep = np.sort(np.concatenate(chosen)) if chosen else np.empty(0, dtype=np.int64)
    return LabeledDataset(data.features[keep], data.labels[keep], data.class_count)


def relabel_to_canonical(raw_labels) -> tuple[np.ndarray, dict]:
    """Map arbitrary label tokens to canonical 1..K by sorted order.

    Returns the canonical labels and the raw->canonical mapping so reports
    can invert it.
    """
    raw = list(raw_labels)
    distinct = sorted(set(raw))
    mapping = {tok: i + 1 for i, tok in enumerate(distinct)}
    return np.array([mapping[t] for t in raw], dtype=np.int64), mapping
