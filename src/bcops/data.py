"""Deterministic RNG streams, the checks of each input where it enters the
library, and row-splitting helpers.

Inputs are plain arrays: a feature matrix, used as it is when it holds
integers or bools and as float64 otherwise, and labels as integers 1..K
everywhere inside the library. MNIST digits are mapped to classes on
ingestion by the fixed table of ``sweep.prepare_mnist``. Ground-truth
outliers are marked with ``OUTLIER`` (0), which is never a valid class
label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Ground-truth marker for test rows whose true class was absent from training.
OUTLIER = 0

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer; decorrelates derived stream ids
    and hashes the forest's node keys. It maps a Python int to an int and a
    uint64 array, whose arithmetic wraps without warning, to a uint64 array."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (seed, stream_id).

    The same pair yields an identical draw sequence on every run. Each task
    derives its own child stream via :meth:`derive`, so its draws do not
    depend on how many draws other tasks made; streams are values and are
    never shared mutably.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            check_count(name, getattr(self, name), minimum=0)
            if getattr(self, name) > _MASK64:
                raise ValueError(f"{name} must be < 2**64")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)

    def derive(self, child_id: int) -> "RngStream":
        """Child stream independent of this one and of other children."""
        mixed = _splitmix64((self.stream_id * _GOLDEN + child_id + 1) & _MASK64)
        return RngStream(self.seed, mixed)


def check_count(name: str, value, minimum: int = 1) -> None:
    """Fail unless value is an integer (not a bool) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def check_range(name: str, value, low, high, closed: bool = True) -> None:
    """Fail unless value is a number (not a bool) in [low, high], or in
    (low, high) when not closed; NaN lies in no range."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} has the wrong type: {value!r}")
    if not (low <= value <= high if closed else low < value < high):
        left, right = "[]" if closed else "()"
        raise ValueError(f"{name} must lie in {left}{low}, {high}{right}")


def check_labels(name: str, labels, low: int, high: int, rows=None) -> np.ndarray:
    """``labels`` as a 1-D int64 array. Fail, naming ``name``, unless every
    entry is a whole number in low..high and, when ``rows`` is given, there
    are that many entries."""
    raw = np.asarray(labels)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage and fail below
        out = raw.astype(np.int64, copy=False) if raw.dtype.kind in "biuf" else None
    if out is None or not np.array_equal(out, raw):
        raise ValueError(f"{name} must be whole numbers, got {raw.dtype} {raw.ravel()[:4]}")
    if out.ndim != 1 or rows not in (None, out.size):
        size = "" if rows is None else f" of {rows} entries"
        raise ValueError(f"{name} must be a 1-D array{size}, got shape {out.shape}")
    if out.size and (out.min() < low or out.max() > high):
        raise ValueError(f"{name} must lie in {low}..{high}")
    return out


def _check_features(features, name: str = "features", finite: bool = True) -> np.ndarray:
    """``features`` as a 2-D matrix, failing with ``name`` otherwise. An
    integer or bool matrix is kept as it is, with no copy, since it holds no
    NaN or inf; anything else becomes float64, not copied when it already
    is, and must be finite when ``finite`` is set."""
    matrix = np.asarray(features)
    if matrix.dtype.kind not in "biu":
        matrix = np.asarray(features, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={matrix.ndim}")
    if finite and matrix.dtype.kind == "f" and not np.all(np.isfinite(matrix)):
        raise ValueError(f"{name} contain NaN or infinite entries")
    return matrix


def split_in_two(n: int, rng: RngStream) -> np.ndarray:
    """Fold label, 1 or 2, of each of n rows, drawn uniformly at random.

    Fold 1 holds (n+1)//2 rows and fold 2 holds n//2: fold 1 is the first
    (n+1)//2 entries of a random permutation of 0..n-1.
    """
    check_count("n", n)
    folds = np.full(n, 2, dtype=np.int8)
    folds[rng.generator().permutation(n)[: (n + 1) // 2]] = 1
    return folds


def stratified_subsample(labels: np.ndarray, class_count: int, per_class: int,
                         rng: RngStream) -> np.ndarray:
    """Ascending indices of exactly per_class rows of each class 1..class_count
    of ``labels``, drawn without replacement."""
    check_count("per_class", per_class, minimum=0)
    g = rng.generator()
    chosen = []
    for k in range(1, class_count + 1):
        idx = np.nonzero(labels == k)[0]
        if idx.size < per_class:
            raise ValueError(
                f"class {k} has only {idx.size} rows, need {per_class}"
            )
        chosen.append(g.choice(idx, size=per_class, replace=False))
    return np.sort(np.concatenate(chosen)) if chosen else np.empty(0, dtype=np.int64)
