"""Conformal prediction sets with abstention (BCOPS) under label noise."""

from .data import OUTLIER, RngStream, split_in_two, stratified_subsample
from .forest import (
    BinaryTrainingSet,
    ForestConfig,
    ForestModel,
    predict_probability_batch,
    train_forest,
)
from .noise import CorruptionSpec, corrupt_labels
from .conformal import (
    BcopsModel,
    conformal_p_value,
    conformal_p_values,
    fit_bcops,
    predict_all,
)
from .metrics import (
    ABSTENTION_RATE,
    CLASS_COVERAGE,
    MEAN_COVERAGE,
    MetricRecord,
    SummaryRow,
    evaluate,
)
from .datagen import gen_example1_test, gen_example1_train, gen_example2
from .mnist import IdxFormatError, load_mnist
from .sweep import ExperimentConfig, SweepRow, read_csv, run_sweep, write_csv
from .svgplot import render_lineplot

__version__ = "0.1.0"
