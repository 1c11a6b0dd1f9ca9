import statistics
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcops.metrics import ABSTENTION_RATE, CLASS_COVERAGE, MEAN_COVERAGE, METRIC_NAMES
from bcops.sweep import (
    EXPERIMENTS,
    ExperimentConfig,
    SweepRow,
    aggregate_result,
    read_csv,
    run_sweep,
    write_csv,
)

TINY_FOREST = {"n_trees": 4, "min_node_size": 120, "max_depth": 5}


def _tiny_config(**overrides):
    raw = {
        "experiment": "example1",
        "phi_grid": [0.0],
        "repetitions": 1,
        "forest": dict(TINY_FOREST),
        "seed": 5,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig.from_dict({"experiment": "example1"})
        assert cfg.alpha == 0.05
        assert cfg.phi_grid[0] == 0.0 and cfg.phi_grid[-1] == 1.0
        assert len(cfg.phi_grid) == 21
        assert cfg.repetitions == 100

    def test_per_experiment_repetition_defaults(self):
        assert ExperimentConfig.from_dict({"experiment": "example2"}).repetitions == 20

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown config field"):
            ExperimentConfig.from_dict({"experiment": "example1", "bogus": 1})

    def test_unknown_forest_field(self):
        for bad in ({"trees": 5}, {"seed_stream": 1}):
            with pytest.raises(ValueError, match="unknown forest field"):
                ExperimentConfig.from_dict({"experiment": "example1", "forest": bad})

    def test_missing_experiment(self):
        with pytest.raises(ValueError, match="experiment"):
            ExperimentConfig.from_dict({})

    def test_phi_grid_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            _tiny_config(phi_grid=[0.2, 0.1])

    def test_phi_grid_must_print_distinctly(self):
        # sweep.csv prints phi at 4 decimals, so these two would share keys
        with pytest.raises(ValueError, match=r"0\.10001 \(printed 0\.1000\) is followed by "
                                             r"0\.10002 \(printed 0\.1000\)"):
            _tiny_config(phi_grid=[0.0, 0.10001, 0.10002])
        assert _tiny_config(phi_grid=[0.1, 0.1001]).phi_grid == (0.1, 0.1001)
        # -0.0 is 0.0, so it prints as 0.0000 like 0.00001 does
        with pytest.raises(ValueError, match=r" 0\.0 \(printed 0\.0000\) is followed by 1e-05 "
                                             r"\(printed 0\.0000\)"):
            _tiny_config(phi_grid=[-0.0, 0.00001])

    def test_phi_grid_range(self):
        with pytest.raises(ValueError):
            _tiny_config(phi_grid=[0.0, 1.5])
        with pytest.raises(ValueError, match="phi_grid needs at least one value"):
            _tiny_config(phi_grid=[])

    def test_mnist_requires_paths(self):
        with pytest.raises(ValueError, match="mnist_paths"):
            ExperimentConfig.from_dict({"experiment": "mnist"})

    def test_mnist_paths_fields_named(self):
        with pytest.raises(ValueError, match="test_labels"):
            ExperimentConfig.from_dict({
                "experiment": "mnist",
                "mnist_paths": {"train_images": "a", "train_labels": "b", "test_images": "c"},
            })
        with pytest.raises(ValueError, match="train_labels"):
            ExperimentConfig.from_dict({
                "experiment": "mnist",
                "mnist_paths": {"train_images": "a", "train_labels": 1, "test_images": "c",
                                "test_labels": "d"},
            })

    @pytest.mark.parametrize("field,value", [
        ("forest", [1]),
        ("forest", False),
        ("phi_grid", 0.5),
        ("phi_grid", [0.0, True]),
        ("phi_grid", [0.0, "0.5"]),
        ("alpha", "0.1"),
        ("alpha", True),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", "7"),
        ("seed", True),
        ("inclusive_resampling", "no"),
        ("inclusive_resampling", 1),
        ("mnist_paths", "x"),
        ("output_dir", 5),
        ("imbalance_cap", "5"),
    ])
    def test_wrongly_typed_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            _tiny_config(**{field: value})

    def test_imbalance_cap_must_be_positive(self):
        # an infinite cap would fail in the first cell, converting to int
        for cap in (0, -1, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="imbalance_cap"):
                _tiny_config(imbalance_cap=cap)

    def test_seed_fits_64_bits(self):
        # cell streams take the seed as an unsigned 64-bit integer
        assert _tiny_config(seed=2**64 - 1).seed == 2**64 - 1
        for seed in (2**64, 10**23):
            with pytest.raises(ValueError, match="seed must be < 2"):
                _tiny_config(seed=seed)

    def test_repetitions_below_stream_block(self):
        # cell streams are phi_index * 10**6 + repetition
        assert _tiny_config(repetitions=10**6 - 1).repetitions == 10**6 - 1
        for reps in (0, 10**6, 2.5, True):
            with pytest.raises(ValueError, match="repetitions"):
                _tiny_config(repetitions=reps)

    def test_forest_validated_at_load(self):
        for bad in ({"n_trees": 0}, {"min_node_size": 0}, {"mtry": 0}):
            with pytest.raises(ValueError):
                _tiny_config(forest=dict(TINY_FOREST, **bad))

    def test_mnist_per_class_default(self):
        cfg = ExperimentConfig.from_dict({
            "experiment": "mnist",
            "mnist_paths": {k: "x" for k in ("train_images", "train_labels", "test_images", "test_labels")},
        })
        assert cfg.mnist_per_class == 500
        assert cfg.repetitions == 5

    @pytest.mark.parametrize("field,value", [
        ("mnist_paths", {"train_images": "nope"}), ("mnist_per_class", 7),
    ])
    def test_mnist_fields_need_experiment_mnist(self, field, value):
        with pytest.raises(ValueError, match=f"{field} applies only to experiment mnist"):
            _tiny_config(**{field: value})

    def test_mnist_per_class_validated_at_load(self):
        paths = {k: "x" for k in ("train_images", "train_labels", "test_images", "test_labels")}
        for bad in (0, -1, 2.5, True, "10"):
            with pytest.raises(ValueError, match="mnist_per_class"):
                ExperimentConfig.from_dict(
                    {"experiment": "mnist", "mnist_paths": paths, "mnist_per_class": bad}
                )

    def test_to_dict_lists_fields_in_order(self):
        cfg = _tiny_config(phi_grid=[0.0, 0.5], imbalance_cap=2.0)
        out = cfg.to_dict()
        assert list(out) == [
            "experiment", "alpha", "phi_grid", "repetitions", "forest", "seed", "mnist_paths",
            "mnist_per_class", "inclusive_resampling", "output_dir", "imbalance_cap",
        ]
        assert out["phi_grid"] == [0.0, 0.5]
        assert out["forest"] == {"n_trees": 4, "mtry": None, "min_node_size": 120, "max_depth": 5}
        assert ExperimentConfig.from_dict(out) == cfg


@pytest.fixture(scope="module")
def tiny_rows():
    return run_sweep(_tiny_config())


class TestRunSweep:
    @pytest.fixture
    def rows(self, tiny_rows):
        return tiny_rows

    def test_row_counts(self, rows):
        # 2 class coverages + mean + abstention for a single (phi, rep) cell
        metrics = [r.metric for r in rows]
        assert metrics == [ABSTENTION_RATE, CLASS_COVERAGE, CLASS_COVERAGE, MEAN_COVERAGE]
        assert [r.class_label for r in rows] == [None, 1, 2, None]

    def test_values_in_unit_interval(self, rows):
        assert all(0.0 <= r.value <= 1.0 for r in rows)

    def test_deterministic(self, rows):
        again = run_sweep(_tiny_config())
        assert again == rows

    def test_rows_sorted(self):
        cfg = _tiny_config(phi_grid=[0.0, 0.5], repetitions=2)
        rows = run_sweep(cfg)
        keys = [
            (r.phi, r.repetition, r.metric, -1 if r.class_label is None else r.class_label)
            for r in rows
        ]
        assert keys == sorted(keys)


class TestCsv:
    def test_empty_result_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv((), path)
        assert path.read_text() == "experiment,phi,repetition,metric,class,value\n"

    def test_one_row_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        row = SweepRow("example1", 0.25, 3, MEAN_COVERAGE, None, 0.5)
        write_csv((row,), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "example1,0.2500,3,mean_coverage,,0.500000"

    def test_round_trip_at_printed_precision(self, tmp_path):
        rows = run_sweep(_tiny_config(phi_grid=[0.0, 0.125], repetitions=2))
        path = tmp_path / "sweep.csv"
        write_csv(rows, path)
        back = read_csv(path)
        assert len(back) == len(rows)
        for a, b in zip(back, rows):
            assert (a.experiment, a.repetition, a.metric, a.class_label) == (
                b.experiment, b.repetition, b.metric, b.class_label
            )
            assert a.phi == pytest.approx(b.phi, abs=5e-5)
            assert a.value == pytest.approx(b.value, abs=5e-7)
        # second write reproduces the file byte for byte
        path2 = tmp_path / "sweep2.csv"
        write_csv(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)

    @pytest.mark.parametrize("line,problem", [
        ("example1,0.1000,0,bogus,,0.500000", "unknown metric 'bogus'"),
        ("example1,0.1000,0,abstention_rate,,1.500000", "outside"),
        ("example1,0.1000,0,abstention_rate,,-0.100000", "outside"),
        ("example1,0.1000,0,abstention_rate,,nan", "outside"),
        ("example1,0.1000,0,mean_coverage,2,0.500000", "class is given iff"),
        ("example1,0.1000,0,class_coverage,,0.500000", "class is given iff"),
        ("example1,0.1000,0,class_coverage,-1,0.500000", "class must be >= 0"),
        ("", "expected 6 fields, got 0"),
        ("example1,0.1000,0,mean_coverage,0.500000", "expected 6 fields, got 5"),
        ("example1,0.1000,0,mean_coverage,,0.5,1", "expected 6 fields, got 7"),
        ("example1,abc,0,mean_coverage,,0.500000", "could not convert string to float: 'abc'"),
        ("example1,0.1000,x,mean_coverage,,0.500000", "invalid literal for int"),
        ("example1,0.1000,0,class_coverage,one,0.500000", "invalid literal for int"),
        ("example1,0.1000,0,mean_coverage,,high", "could not convert string to float: 'high'"),
        ("example1,nan,0,mean_coverage,,0.500000", r"phi nan lies outside \[0, 1\]"),
        ("example1,1.5000,0,mean_coverage,,0.500000", r"phi 1.5 lies outside \[0, 1\]"),
        ("example1,-0.0001,0,mean_coverage,,0.500000", r"phi -0.0001 lies outside \[0, 1\]"),
        ("example1,0.1000,-3,mean_coverage,,0.500000", "repetition must be >= 0"),
        ("example2,0.1000,0,mean_coverage,,0.500000",
         "experiment 'example2' differs from 'example1' of the first row"),
        ("example1,0.1000,0,class_coverage,1,0.800000",
         "repeats the phi, repetition, metric and class of line 2"),
        ("example1,0.1,0,class_coverage,1,0.800000",
         "repeats the phi, repetition, metric and class of line 2"),
    ])
    def test_read_rejects_invalid_rows(self, tmp_path, line, problem):
        path = tmp_path / "bad.csv"
        path.write_text(
            "experiment,phi,repetition,metric,class,value\n"
            "example1,0.1000,0,class_coverage,1,0.900000\n"
            f"{line}\n"
        )
        with pytest.raises(ValueError, match=problem) as err:
            read_csv(path)
        assert "line 3" in str(err.value)


@st.composite
def _sweep_rows(draw, experiment):
    metric = draw(st.sampled_from(METRIC_NAMES))
    return SweepRow(
        experiment=experiment,
        # a few shared levels so that groups hold several repetitions
        phi=draw(st.sampled_from([0.0, 0.05, 1.0]) | st.floats(0.0, 1.0)),
        repetition=draw(st.integers(0, 10**6 - 1)),
        metric=metric,
        class_label=draw(st.integers(0, 3)) if metric == CLASS_COVERAGE else None,
        value=draw(st.floats(0.0, 1.0)),
    )


# rows of one experiment whose keys stay distinct once phi is printed at 4
# decimals, as read_csv requires
_one_experiment_rows = st.sampled_from(EXPERIMENTS).flatmap(lambda experiment: st.lists(
    _sweep_rows(experiment), min_size=1, max_size=30,
    unique_by=lambda r: (f"{r.phi:.4f}", r.repetition, r.metric, r.class_label),
))


@settings(max_examples=100, deadline=None)
@given(_one_experiment_rows)
def test_csv_round_trip_and_summary_recount(rows):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.csv"), Path(tmp, "b.csv")
        write_csv(rows, first)
        back = read_csv(first)
        write_csv(back, second)
        assert first.read_bytes() == second.read_bytes()

    groups: dict = {}
    for r in back:
        groups.setdefault((r.phi, r.metric, r.class_label), []).append(r.value)
    summary = aggregate_result(back)
    assert [(s.phi, s.metric_name, s.class_label) for s in summary] == sorted(
        groups, key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2])
    )
    for s in summary:
        values = groups[s.phi, s.metric_name, s.class_label]
        assert s.n_reps == len(values)
        assert s.mean == pytest.approx(sum(values) / len(values), rel=1e-12, abs=1e-15)
        expected_sd = statistics.stdev(values) if len(values) > 1 else 0.0
        assert s.sd == pytest.approx(expected_sd, rel=1e-9, abs=1e-12)


def test_aggregate_result_groups_by_level():
    rows = run_sweep(_tiny_config(phi_grid=[0.0, 0.4], repetitions=2))
    summary = aggregate_result(rows)
    keys = {(r.phi, r.metric_name, r.class_label) for r in summary}
    assert (0.0, MEAN_COVERAGE, None) in keys
    assert (0.4, CLASS_COVERAGE, 1) in keys
    assert all(r.n_reps == 2 for r in summary)


def test_cell_failure_names_coordinates(monkeypatch):
    import bcops.sweep as sweep_mod

    def boom(*args, **kwargs):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(sweep_mod, "fit_bcops", boom)
    with pytest.raises(RuntimeError, match=r"phi=0.0, repetition=0"):
        run_sweep(_tiny_config())
