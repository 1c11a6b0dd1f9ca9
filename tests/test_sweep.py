import pytest

from bcops.metrics import ABSTENTION_RATE, CLASS_COVERAGE, MEAN_COVERAGE
from bcops.sweep import (
    ExperimentConfig,
    SweepResult,
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
        assert cfg.resolved_repetitions == 100

    def test_per_experiment_repetition_defaults(self):
        assert ExperimentConfig.from_dict({"experiment": "example2"}).resolved_repetitions == 20

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown config field"):
            ExperimentConfig.from_dict({"experiment": "example1", "bogus": 1})

    def test_unknown_forest_field(self):
        with pytest.raises(ValueError, match="unknown forest field"):
            ExperimentConfig.from_dict({"experiment": "example1", "forest": {"trees": 5}})

    def test_missing_experiment(self):
        with pytest.raises(ValueError, match="experiment"):
            ExperimentConfig.from_dict({})

    def test_phi_grid_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            _tiny_config(phi_grid=[0.2, 0.1])

    def test_phi_grid_range(self):
        with pytest.raises(ValueError):
            _tiny_config(phi_grid=[0.0, 1.5])

    def test_mnist_requires_paths(self):
        with pytest.raises(ValueError, match="mnist_paths"):
            ExperimentConfig.from_dict({"experiment": "mnist"})

    def test_mnist_paths_fields_named(self):
        with pytest.raises(ValueError, match="test_labels"):
            ExperimentConfig.from_dict({
                "experiment": "mnist",
                "mnist_paths": {"train_images": "a", "train_labels": "b", "test_images": "c"},
            })

    def test_imbalance_cap_must_be_positive(self):
        for cap in (0, -1):
            with pytest.raises(ValueError, match="imbalance_cap"):
                _tiny_config(imbalance_cap=cap)

    def test_repetitions_below_stream_block(self):
        # cell streams are phi_index * 10**6 + repetition
        assert _tiny_config(repetitions=10**6 - 1).resolved_repetitions == 10**6 - 1
        for reps in (0, 10**6):
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
        assert cfg.resolved_repetitions == 5


@pytest.fixture(scope="module")
def tiny_result():
    return run_sweep(_tiny_config())


class TestRunSweep:
    @pytest.fixture
    def result(self, tiny_result):
        return tiny_result

    def test_row_counts(self, result):
        # 2 class coverages + mean + abstention for a single (phi, rep) cell
        metrics = [r.metric for r in result.rows]
        assert metrics == [ABSTENTION_RATE, CLASS_COVERAGE, CLASS_COVERAGE, MEAN_COVERAGE]
        assert [r.class_label for r in result.rows] == [None, 1, 2, None]

    def test_values_in_unit_interval(self, result):
        assert all(0.0 <= r.value <= 1.0 for r in result.rows)

    def test_deterministic(self, result):
        again = run_sweep(_tiny_config())
        assert again == result

    def test_thread_count_invariance(self):
        cfg = _tiny_config(phi_grid=[0.0, 0.3], repetitions=2)
        assert run_sweep(cfg, threads=1) == run_sweep(cfg, threads=3)

    def test_rows_sorted(self):
        cfg = _tiny_config(phi_grid=[0.0, 0.5], repetitions=2)
        rows = run_sweep(cfg).rows
        keys = [
            (r.phi, r.repetition, r.metric, -1 if r.class_label is None else r.class_label)
            for r in rows
        ]
        assert keys == sorted(keys)


class TestCsv:
    def test_empty_result_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(SweepResult(rows=()), path)
        assert path.read_text() == "experiment,phi,repetition,metric,class,value\n"

    def test_one_row_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        row = SweepRow("example1", 0.25, 3, MEAN_COVERAGE, None, 0.5)
        write_csv(SweepResult(rows=(row,)), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "example1,0.2500,3,mean_coverage,,0.500000"

    def test_round_trip_at_printed_precision(self, tmp_path):
        result = run_sweep(_tiny_config(phi_grid=[0.0, 0.125], repetitions=2))
        path = tmp_path / "sweep.csv"
        write_csv(result, path)
        back = read_csv(path)
        assert len(back.rows) == len(result.rows)
        for a, b in zip(back.rows, result.rows):
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


def test_aggregate_result_groups_by_level():
    result = run_sweep(_tiny_config(phi_grid=[0.0, 0.4], repetitions=2))
    summary = aggregate_result(result)
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
