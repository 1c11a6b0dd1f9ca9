"""The package's top level holds only the names that callers import through
it, and no argument whose default would be wrong for some caller."""

import types

import numpy as np
import pytest

import bcops
from bcops.forest import BinaryTrainingSet
from bcops.metrics import CLASS_COVERAGE, SummaryRow
from bcops.svgplot import render_lineplot


def test_top_level_names():
    public = {name for name, value in vars(bcops).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {
        "CorruptionSpec", "ForestConfig", "OUTLIER", "RngStream", "SweepRow", "corrupt_labels",
        "evaluate", "fit_bcops", "gen_example1_test", "gen_example1_train", "predict_all",
        "read_csv",
    }


def test_plot_needs_its_alpha(tmp_path):
    # a default alpha would draw the 1 - alpha line of some other run
    rows = [SummaryRow(0.0, CLASS_COVERAGE, 1, 0.9, 0.0, 1)]
    with pytest.raises(TypeError, match="alpha"):
        render_lineplot(rows, CLASS_COVERAGE, tmp_path / "plot.svg")
    assert not (tmp_path / "plot.svg").exists()


def test_training_set_needs_its_stream():
    # a default stream would give every such set the same bootstrap draws
    with pytest.raises(TypeError, match="stream"):
        BinaryTrainingSet(np.zeros((2, 1)), [0, 1])
