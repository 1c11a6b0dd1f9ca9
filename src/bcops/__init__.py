"""Conformal prediction sets with abstention (BCOPS) under label noise.

The top level holds the names that callers import through it. Everything
else is imported from its module, such as ``bcops.forest.train_forest``.
"""

from .conformal import fit_bcops, predict_all
from .data import OUTLIER, RngStream
from .datagen import gen_example1_test, gen_example1_train
from .forest import ForestConfig
from .metrics import evaluate
from .noise import CorruptionSpec, corrupt_labels
from .sweep import SweepRow, read_csv

__version__ = "0.1.0"
