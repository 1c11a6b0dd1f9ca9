"""The pinned sweep workloads and the inputs they are run on.

Every input is a function of the benchmark seed: the sweep config carries it
as its ``seed`` and, on ``idx-scoring``, the IDX files are drawn from it.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHA = 0.05

# Inlier digits of the mnist experiment (the program keeps 0-5 for training).
MNIST_INLIERS = (0, 1, 2, 3, 4, 5)
IDX_TRAIN_PER_DIGIT = 200
IDX_TEST_PER_DIGIT = 2000
IDX_PIXEL_NOISE = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    phi_grid: tuple
    forest: dict
    threads: int
    class_labels: tuple  # class labels as sweep.csv prints them
    train_per_class: int  # class-k training rows a cell fits on
    test_per_class: int  # class-k test rows a cell is scored on
    mnist_per_class: int | None = None
    imbalance_cap: float | None = None

    @property
    def cells(self) -> int:
        return len(self.phi_grid)

    def config(self, seed: int, idx_paths: dict | None) -> dict:
        raw = {
            "experiment": self.experiment,
            "alpha": ALPHA,
            "phi_grid": list(self.phi_grid),
            "repetitions": 1,
            "forest": self.forest,
            "seed": seed,
        }
        if self.experiment == "mnist":
            raw["mnist_per_class"] = self.mnist_per_class
            raw["mnist_paths"] = idx_paths
        if self.imbalance_cap is not None:
            raw["imbalance_cap"] = self.imbalance_cap
        return raw


# Sweeps are cut to a few seconds, so that a run of the benchmark holds
# several of them: forests keep the min_node_size and max_depth of configs/
# but have 10 trees, and example1 takes every other point of its phi grid.
_EX1 = dict(
    experiment="example1",
    phi_grid=tuple(round(0.1 * i, 1) for i in range(11)),
    forest={"n_trees": 10, "min_node_size": 25, "max_depth": 12},
    class_labels=(1, 2),
    train_per_class=500,
    test_per_class=500,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="ex1-sweep", threads=1, **_EX1),
        Workload(name="ex1-sweep-2w", threads=2, **_EX1),
        Workload(
            name="idx-scoring",
            experiment="mnist",
            phi_grid=(0.0, 0.2),
            forest={"n_trees": 10, "min_node_size": 25, "max_depth": 12},
            threads=1,
            class_labels=MNIST_INLIERS,
            train_per_class=100,
            test_per_class=IDX_TEST_PER_DIGIT,
            mnist_per_class=100,
            # Small binary training sets against 20,000 test rows, so that
            # scoring and set construction outweigh tree growth.
            imbalance_cap=2.0,
        ),
    )
}


def write_idx_files(seed: int, directory: Path) -> dict:
    """Write gzip IDX train and test pairs drawn from ``seed``.

    Each digit has its own random 28x28 prototype; a row is its digit's
    prototype plus Gaussian pixel noise, clipped to 0..255. Both files hold
    every digit 0-9 in shuffled order, so digits 6-9 are the test outliers.
    """
    from bcops.mnist import serialize_idx_images, serialize_idx_labels

    g = np.random.default_rng([seed, 0x1D8])
    prototypes = g.integers(0, 256, size=(10, 28 * 28)).astype(np.float64)
    paths = {}
    for role, per_digit in (("train", IDX_TRAIN_PER_DIGIT), ("test", IDX_TEST_PER_DIGIT)):
        digits = g.permutation(np.repeat(np.arange(10), per_digit))
        pixels = prototypes[digits] + g.normal(0.0, IDX_PIXEL_NOISE, size=(digits.size, 28 * 28))
        images = np.clip(np.rint(pixels), 0, 255).astype(np.uint8)
        for kind, payload in (
            ("images", serialize_idx_images(images)),
            ("labels", serialize_idx_labels(digits)),
        ):
            path = directory / f"{role}-{kind}-idx.gz"
            path.write_bytes(gzip.compress(payload, compresslevel=1))
            paths[f"{role}_{kind}"] = str(path)
    return paths


def write_config(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the workload's inputs into ``directory``; return the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    idx_paths = write_idx_files(seed, directory) if workload.experiment == "mnist" else None
    path = directory / "config.json"
    path.write_text(json.dumps(workload.config(seed, idx_paths), indent=2) + "\n", encoding="utf-8")
    return path
