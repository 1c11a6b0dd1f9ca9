import gzip
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import bcops
import bcops.sweep
from bcops.cli import cli_main
from bcops.mnist import serialize_idx_images, serialize_idx_labels


def _write_config(tmp_path, **overrides):
    raw = {
        "experiment": "example1",
        "phi_grid": [0.0, 0.5],
        "repetitions": 1,
        "forest": {"n_trees": 4, "min_node_size": 120, "max_depth": 5},
        "seed": 1,
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_validate_ok(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert cli_main(["validate", "--config", str(cfg)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_mnist_dry_run(tmp_path, capsys):
    g = np.random.default_rng(0)
    files = {}
    for role, n in (("train", 40), ("test", 20)):
        img = tmp_path / f"{role}-images"
        lab = tmp_path / f"{role}-labels"
        img.write_bytes(serialize_idx_images(g.integers(0, 256, (n, 784), dtype=np.uint8)))
        lab.write_bytes(serialize_idx_labels(g.integers(0, 10, n, dtype=np.uint8)))
        files[f"{role}_images"] = str(img)
        files[f"{role}_labels"] = str(lab)
    cfg = _write_config(tmp_path, experiment="mnist", mnist_paths=files, mnist_per_class=1)
    assert cli_main(["validate", "--config", str(cfg)]) == 0
    assert "experiment=mnist" in capsys.readouterr().out
    # mtry is checked against the parsed image width, 784
    cfg = _write_config(tmp_path, experiment="mnist", mnist_paths=files, mnist_per_class=1,
                        forest={"mtry": 785})
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    assert "784 features" in capsys.readouterr().err


def _write_idx_pair(tmp_path, role, digits, rng=None):
    """IDX files of the given digits; blank images unless rng draws the pixels."""
    img = tmp_path / f"{role}-images"
    lab = tmp_path / f"{role}-labels"
    shape = (len(digits), 784)
    pixels = np.zeros(shape, np.uint8) if rng is None else rng.integers(0, 256, shape, np.uint8)
    img.write_bytes(serialize_idx_images(pixels))
    lab.write_bytes(serialize_idx_labels(np.asarray(digits, dtype=np.uint8)))
    return {f"{role}_images": str(img), f"{role}_labels": str(lab)}


@pytest.mark.parametrize("train_digits,per_class,message", [
    ([0, 1, 2, 4, 5] * 3, 1, "no training rows of digit 3"),
    ([0, 1, 2, 3, 4, 5] * 3 + [0, 1, 2, 4, 5], 4, "exceeds the 3 training rows of digit 3"),
    ([0, 1, 2, 3, 4, 5], 0, "mnist_per_class must be >= 1"),
    ([0, 1, 2, 3, 4, 5], 2.5, "mnist_per_class must be an integer"),
])
def test_validate_rejects_mnist_inputs(tmp_path, capsys, train_digits, per_class, message):
    files = {**_write_idx_pair(tmp_path, "train", train_digits),
             **_write_idx_pair(tmp_path, "test", [0, 6])}
    cfg = _write_config(tmp_path, experiment="mnist", mnist_paths=files, mnist_per_class=per_class)
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err


def test_run_checks_mtry_before_first_cell(tmp_path, capsys):
    cfg = _write_config(tmp_path, forest={"n_trees": 4, "mtry": 11})
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "forest.mtry=11 exceeds the 10 features of experiment example1" in err
    assert "sweep cell failed" not in err


def test_run_checks_mnist_per_class_before_first_cell(tmp_path, capsys):
    files = {**_write_idx_pair(tmp_path, "train", [0, 1, 2, 3, 4, 5] * 3 + [0, 1, 2, 4, 5]),
             **_write_idx_pair(tmp_path, "test", [0, 6])}
    cfg = _write_config(tmp_path, experiment="mnist", mnist_paths=files, mnist_per_class=4)
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "mnist_per_class=4 exceeds the 3 training rows of digit 3" in err
    assert "sweep cell failed" not in err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("field,value", [
    ("forest", [1]),
    ("phi_grid", 0.5),
    ("alpha", "0.1"),
    ("seed", -1),
    ("seed", 1.5),
    ("seed", "7"),
    ("seed", True),
    ("inclusive_resampling", "no"),
    ("mnist_paths", "x"),
])
def test_wrongly_typed_field_fails_at_load(tmp_path, capsys, command, field, value):
    argv = [command, "--config", str(_write_config(tmp_path, **{field: value}))]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (tmp_path / "out").exists()


def test_mnist_without_paths_fails_naming_field(tmp_path, capsys):
    cfg = _write_config(tmp_path, experiment="mnist")
    code = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code != 0
    assert "mnist_paths" in capsys.readouterr().err


def test_bad_json_diagnostic(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{nope")
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_config_not_an_object(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    assert cli_main(["validate", "--config", str(path)]) == 1
    assert f"config file {path} must contain a JSON object" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert cli_main(["validate", "--config", str(tmp_path / "absent.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--bogus"])
    assert exc.value.code == 2


def test_run_then_plot_pipeline(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0

    csv_path = out / "sweep.csv"
    assert csv_path.exists()
    assert (out / "summary.csv").exists()
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["rng"]["cell_stream"].startswith("stream_id =")
    for name in ("class_coverage.svg", "mean_coverage.svg", "abstention_rate.svg"):
        root = ET.parse(out / name).getroot()
        assert root.tag.endswith("svg")

    plot_path = tmp_path / "replot.svg"
    assert cli_main([
        "plot", "--csv", str(csv_path), "--metric", "abstention_rate", "--out", str(plot_path)
    ]) == 0
    assert ET.parse(plot_path).getroot().tag.endswith("svg")
    # a 1 - alpha reference line outside the chart is an error
    bad_alpha = tmp_path / "bad_alpha.svg"
    assert cli_main([
        "plot", "--csv", str(csv_path), "--metric", "mean_coverage", "--out", str(bad_alpha),
        "--alpha", "1.5",
    ]) == 1
    assert capsys.readouterr().err.startswith("error: alpha must lie in (0, 1)")
    assert not bad_alpha.exists()


def test_run_seed_override_changes_output(tmp_path):
    cfg = _write_config(tmp_path, phi_grid=[0.0])
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    assert cli_main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "99"]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", str(out3)]) == 0
    base = (out1 / "sweep.csv").read_bytes()
    assert base != (out2 / "sweep.csv").read_bytes()
    assert base == (out3 / "sweep.csv").read_bytes()


def test_run_reps_override(tmp_path):
    cfg = _write_config(tmp_path, phi_grid=[0.0], forest={"n_trees": 2, "min_node_size": 120})
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out), "--reps", "2"]) == 0
    assert {row.repetition for row in bcops.read_csv(out / "sweep.csv")} == {0, 1}
    assert json.loads((out / "run_metadata.json").read_text())["config"]["repetitions"] == 2


def test_run_names_unwritable_output(tmp_path, capsys, monkeypatch):
    cells = []
    monkeypatch.setattr(bcops.sweep, "_run_cell", lambda *args: cells.append(args) or [])
    cfg = _write_config(tmp_path, phi_grid=[0.0], forest={"n_trees": 2, "min_node_size": 120})
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write to output directory {out}: ")
    assert cells == []


def test_run_prints_fit_warnings(tmp_path, capsys):
    # one training row per class lands in one training fold only: the other
    # fold has no model for it, and its model calibrates on its own fold
    g = np.random.default_rng(0)
    files = {**_write_idx_pair(tmp_path, "train", [0, 1, 2, 3, 4, 5] * 2, g),
             **_write_idx_pair(tmp_path, "test", list(range(10)), g)}
    cfg = _write_config(tmp_path, experiment="mnist", mnist_paths=files, mnist_per_class=1,
                        phi_grid=[0.0], forest={"n_trees": 2, "min_node_size": 5, "max_depth": 4})
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 12
    assert all(line.startswith("warning: phi=0.0, repetition=0: class ") for line in lines)
    assert sum(line.endswith("fixed at 1") for line in lines) == 6
    assert sum(line.endswith("on its own fold") for line in lines) == 6


@pytest.mark.parametrize("damage,reason", [
    ("truncated", "Compressed file ended before the end-of-stream marker was reached"),
    ("corrupted", "CRC check failed"),
])
def test_validate_names_damaged_gzip_file(tmp_path, capsys, damage, reason):
    files = {**_write_idx_pair(tmp_path, "train", [0, 1, 2, 3, 4, 5]),
             **_write_idx_pair(tmp_path, "test", [0, 6])}
    path = Path(files["train_images"])
    # level 0 stores the pixels as they are, so a flipped byte breaks only the CRC
    packed = bytearray(gzip.compress(path.read_bytes(), compresslevel=0))
    if damage == "truncated":
        del packed[len(packed) // 2:]
    else:
        packed[len(packed) // 2] ^= 0xFF
    path.write_bytes(packed)
    cfg = _write_config(tmp_path, experiment="mnist", mnist_paths=files, mnist_per_class=1)
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: damaged gzip file: ") and reason in err


@pytest.mark.parametrize("metric,value,message", [
    ("bogus", "0.5", "unknown metric 'bogus'"),
    ("abstention_rate", "1.5", "[0, 1]"),
])
def test_plot_rejects_bad_csv_row(tmp_path, capsys, metric, value, message):
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_text(
        "experiment,phi,repetition,metric,class,value\n"
        "example1,0.0000,0,mean_coverage,,0.900000\n"
        f"example1,0.0000,0,{metric},,{value}\n"
    )
    out = tmp_path / "plot.svg"
    argv = ["plot", "--csv", str(csv_path), "--metric", "mean_coverage", "--out", str(out)]
    assert cli_main(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_plot_rejects_rows_of_several_experiments(tmp_path, capsys):
    # averaged, these rows would plot one mean of 0.5 at phi 0.1
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_text(
        "experiment,phi,repetition,metric,class,value\n"
        "example1,0.1000,0,mean_coverage,,0.900000\n"
        "example2,0.1000,0,mean_coverage,,0.100000\n"
        "bogus,0.1000,0,mean_coverage,,0.500000\n"
    )
    message = f"{csv_path}, line 3: experiment 'example2' differs from 'example1' of the first row"
    with pytest.raises(ValueError) as err:
        bcops.read_csv(csv_path)
    assert str(err.value) == message
    out = tmp_path / "plot.svg"
    argv = ["plot", "--csv", str(csv_path), "--metric", "mean_coverage", "--out", str(out)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("line,message", [
    ("", "expected 6 fields, got 0"),
    ("example1,abc,0,abstention_rate,,0.500000", "could not convert string to float: 'abc'"),
])
def test_plot_names_line_of_malformed_row(tmp_path, capsys, line, message):
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_text(
        "experiment,phi,repetition,metric,class,value\n"
        "example1,0.0000,0,mean_coverage,,0.900000\n"
        f"{line}\n"
    )
    out = tmp_path / "plot.svg"
    argv = ["plot", "--csv", str(csv_path), "--metric", "mean_coverage", "--out", str(out)]
    assert cli_main(argv) == 1
    assert f"{csv_path}, line 3: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_validate_rejects_nonpositive_imbalance_cap(tmp_path, capsys):
    cfg = _write_config(tmp_path, imbalance_cap=-1)
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    assert "imbalance_cap" in capsys.readouterr().err
    # JSON's Infinity parses; it must fail at load, not in the first cell
    cfg = _write_config(tmp_path, imbalance_cap=float("inf"))
    assert "Infinity" in cfg.read_text()
    for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert cli_main(argv + ["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "imbalance_cap" in err and "sweep cell failed" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_seed_above_64_bits_fails_at_load(tmp_path, capsys, command):
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    cfg = _write_config(tmp_path, seed=10**23)
    assert cli_main([command, "--config", str(cfg)] + out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be < 2**64") and "sweep cell failed" not in err
    if command == "run":
        cfg = _write_config(tmp_path)
        assert cli_main(["run", "--config", str(cfg), "--seed", str(2**64)] + out) == 1
        assert capsys.readouterr().err.startswith("error: seed must be < 2**64")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value", [("n_trees", 2.5), ("max_depth", -3)])
def test_validate_rejects_bad_forest_sizes(tmp_path, capsys, field, value):
    cfg = _write_config(tmp_path, forest={"n_trees": 4, field: value})
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    assert field in capsys.readouterr().err


def test_validate_rejects_mtry_above_feature_count(tmp_path, capsys):
    # example1 has 10 features
    assert cli_main(["validate", "--config", str(_write_config(tmp_path, forest={"mtry": 10}))]) == 0
    cfg = _write_config(tmp_path, forest={"n_trees": 4, "mtry": 11})
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    assert "mtry" in capsys.readouterr().err


def test_module_entry_point_runs():
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(bcops.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "bcops.cli", "validate", "--config", "configs/example1.json"],
        cwd=repo, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "config ok" in proc.stdout


# SHA-256 of the outputs of the sweep below, as first written by the reference
# implementation. Any change to these bytes is a behaviour change.
GOLDEN_SHA256 = {
    "sweep.csv": "4dccbce3aa2eefe11f6e606cb5164ca4b1ecbcca33dfcdddf154aec485631727",
    "summary.csv": "95f38bb04fa7cfbfaa758f28360d9b403b8db1837fa884da73fe11cc8dd89c7f",
    "run_metadata.json": "ba42de73d92cbd5fd3c938186b354e92dceb82229424fc63d8d2008e03e758f2",
    "class_coverage.svg": "7b967c82d27ee1e9b41293a458f93c8fb972d1c97359a3b0afbf88583bf90ed8",
    "mean_coverage.svg": "a8c67932ccbbd5d6168fac4004adbd33dbe56a4cc8cd9a75d7579e70e647ef26",
    "abstention_rate.svg": "3e633148bba27c83fd5fa282fcf5484fe55903e8c3e73f4e1bece82562fdfafe",
}


def test_golden_sweep_bytes(tmp_path):
    cfg = _write_config(
        tmp_path, phi_grid=[0.0, 0.5], forest={"n_trees": 5, "min_node_size": 25, "max_depth": 12}
    )
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# SHA-256 of sweep.csv and summary.csv of one tiny cell of each other
# experiment, as written before the label and count rules moved into bcops.data.
OTHER_GOLDEN_SHA256 = {
    "example2": ("b555ad143effaddd49a6263ee906d3fc89310b8a6cddfb6cecc2289372077ae8",
                 "8b565ca2aa8767ee4d1260a9775a723ab3d9e96ce9f92db0ef967c5c110930a0"),
    "mnist": ("630d1efc3dc01492782eb473ce016c95b91a50b1c326115c55e5843474b42021",
              "842bd34988b79e0f17e2a52f50dad98345b243f03946f8a5ea10d638d8e21bfb"),
}


@pytest.mark.parametrize("experiment", sorted(OTHER_GOLDEN_SHA256))
def test_golden_sweep_bytes_other_experiments(tmp_path, experiment):
    # alpha 0.5 keeps the coverages of so small a run away from 1
    overrides = {"experiment": experiment, "phi_grid": [0.2], "alpha": 0.5,
                 "forest": {"n_trees": 2, "min_node_size": 25, "max_depth": 12}}
    if experiment == "mnist":
        g = np.random.default_rng(0)
        files = {**_write_idx_pair(tmp_path, "train", [0, 1, 2, 3, 4, 5] * 6, g),
                 **_write_idx_pair(tmp_path, "test", list(range(10)) * 2, g)}
        overrides.update(mnist_paths=files, mnist_per_class=4,
                         forest={"n_trees": 2, "min_node_size": 5, "max_depth": 4})
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name, digest in zip(("sweep.csv", "summary.csv"), OTHER_GOLDEN_SHA256[experiment]):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def _load_tracing(repo):
    spec = importlib.util.spec_from_file_location("tracing", repo / "benchmarks" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("experiment", ["example1", "mnist"])
def test_benchmark_tracer_binds(tmp_path, experiment):
    # The traced benchmark run wraps names in bcops.cli, bcops.sweep and
    # bcops.conformal; a renamed or moved one would leave its time outside
    # every layer or fail the recount of the cells.
    repo = Path(__file__).resolve().parents[1]
    overrides = {"phi_grid": [0.0], "forest": {"n_trees": 2, "min_node_size": 5, "max_depth": 4}}
    if experiment == "mnist":
        files = {**_write_idx_pair(tmp_path, "train", [0, 1, 2, 3, 4, 5] * 6),
                 **_write_idx_pair(tmp_path, "test", list(range(10)) * 2)}
        overrides.update(experiment="mnist", mnist_paths=files, mnist_per_class=4)
    cfg = _write_config(tmp_path, **overrides)
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(repo / "benchmarks" / "launch.py"), "--trace", str(spans),
         "run", "--config", str(cfg), "--out", str(tmp_path / "out")],
        cwd=repo, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    trace = json.loads(spans.read_text())
    assert trace["rc"] == 0
    assert trace["failures"] == []
    layer_spans = {name for names in _load_tracing(repo).LAYER_SPANS.values() for name in names}
    assert {s["name"] for s in trace["spans"]} <= layer_spans
