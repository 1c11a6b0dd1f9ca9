import contextlib
import gzip
import hashlib
import importlib.util
import io
import json
import os
import re
import runpy
import struct
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    # the run's size: 2 phi levels x 1 repetition, 2 forests for each of 2
    # classes, and 4 trees a forest
    assert capsys.readouterr().out == (
        "config ok: experiment=example1, phi levels=2, repetitions=1, 2 cells x 4 forests x 4 trees\n"
    )


def test_validate_shows_the_size_of_a_run_too_large_to_finish(tmp_path, capsys):
    cfg = _write_config(tmp_path, forest={"n_trees": 2**62})
    assert cli_main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.endswith(f", 2 cells x 4 forests x {2**62} trees\n")


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
    # 21 of the 40 drawn training digits are 0-5, the digits of the 6
    # classes, so 12 forests a cell
    assert capsys.readouterr().out == (
        "config ok: experiment=mnist, train rows=21 (digits 0-5), test rows=20, "
        "2 cells x 12 forests x 4 trees\n"
    )
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
    ([0, 1, 2, 4, 5] * 3, 1, "mnist_per_class=1 exceeds the 0 training rows of digit 3"),
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
@pytest.mark.parametrize("test_digits", [[], [0]], ids=["0-rows", "1-row"])
def test_short_test_file_fails_before_first_cell(tmp_path, capsys, monkeypatch, command, test_digits):
    # the two test folds need a row each
    cells = []
    monkeypatch.setattr(bcops.sweep, "_run_cell", lambda *args: cells.append(args) or [])
    files = {**_write_idx_pair(tmp_path, "train", [0, 1, 2, 3, 4, 5]),
             **_write_idx_pair(tmp_path, "test", test_digits)}
    cfg = _write_config(tmp_path, experiment="mnist", mnist_paths=files, mnist_per_class=1)
    argv = [command, "--config", str(cfg)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {files['test_images']}: the test set needs at least 2 rows, one per fold, "
        f"got {len(test_digits)}\n"
    )
    assert cells == []


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


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("overrides,message", [
    ({"phi_grid": [0.0, 10**400]}, "phi_grid values must lie in [0, 1]"),
    ({"experiment": "mnist", "mnist_paths": {
        "train_images": "x", "train_labels": "x", "test_images": "x", "test_labels": "x",
        "test_lables": "x"}}, "unknown mnist_paths field(s): test_lables"),
    ({"experiment": "example3"},
     "experiment must be one of ('example1', 'example2', 'mnist'), got 'example3'"),
    ({"alpha": 0}, "alpha must lie in (0, 1)"),
    ({"alpha": 1}, "alpha must lie in (0, 1)"),
    ({"alpha": -0.5}, "alpha must lie in (0, 1)"),
    # numpy cannot index that many trees, and the sweep would never finish
    ({"forest": {"n_trees": 10**30}}, f"n_trees must be <= {np.iinfo(np.intp).max}"),
])
def test_config_rejected_at_load_by_both_commands(tmp_path, capsys, monkeypatch, command,
                                                  overrides, message):
    cells = []
    monkeypatch.setattr(bcops.sweep, "_run_cell", lambda *args: cells.append(args) or [])
    argv = [command, "--config", str(_write_config(tmp_path, **overrides))]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert cells == []
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


@pytest.mark.parametrize("text,key", [
    ('{"experiment": "example1", "alpha": 0.5, "alpha": 0.05}', "alpha"),
    ('{"experiment": "example1", "forest": {"n_trees": 3, "n_trees": 1}}', "n_trees"),
], ids=["top level", "forest"])
def test_repeated_config_key_fails_at_load(tmp_path, capsys, text, key):
    # json.loads alone keeps the last value of a repeated key without a word
    path = tmp_path / "config.json"
    path.write_text(text)
    assert cli_main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config file {path} repeats key(s) within an object: {key}\n"


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("overrides,literal", [
    ({"seed": "HUGE"}, "9" * 5000),
    ({"forest": {"n_trees": "HUGE"}}, "-" + "1" * 5000),
], ids=["seed", "forest.n_trees"])
def test_huge_integer_fails_at_load_naming_the_file(tmp_path, capsys, command, overrides, literal):
    # valid JSON, but longer than Python reads as an int (json.dumps cannot write it either)
    path = _write_config(tmp_path, **overrides)
    path.write_text(path.read_text().replace('"HUGE"', literal))
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: config file {path} holds an integer of 5000 digits, too long to read\n"
    )
    assert not (tmp_path / "out").exists()


def test_config_not_an_object(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    assert cli_main(["validate", "--config", str(path)]) == 1
    assert f"config file {path} must contain a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "plot"])
def test_non_utf8_input_file_is_named(tmp_path, capsys, command):
    # no UTF-8 text holds the byte 0xff
    path = tmp_path / "input"
    if command == "validate":
        path.write_bytes(b'{"experiment": "example1\xff"}')
        argv = ["validate", "--config", str(path)]
    else:
        path.write_bytes(b"experiment,phi,repetition,metric,class,value\n"
                         b"example1,0.0000,0,mean_coverage,,0.9\xff\n")
        argv = ["plot", "--csv", str(path), "--metric", "mean_coverage",
                "--out", str(tmp_path / "plot.svg"), "--alpha", "0.05"]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "can't decode byte 0xff" in err
    assert not (tmp_path / "plot.svg").exists()


def test_missing_config_file(tmp_path, capsys):
    assert cli_main(["validate", "--config", str(tmp_path / "absent.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,flags,optional", [
    ("run", {"--config", "--out", "--threads"}, {"--out", "--threads"}),
    ("plot", {"--csv", "--metric", "--out", "--alpha"}, set()),
    ("validate", {"--config"}, set()),
])
def test_subcommand_flags(capsys, command, flags, optional):
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]  # an optional flag stands in brackets
    assert set(re.findall(r"--[a-z][a-z-]*", usage)) == flags
    assert set(re.findall(r"\[(--[a-z][a-z-]*)", usage)) == optional


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
        "plot", "--csv", str(csv_path), "--metric", "abstention_rate", "--out", str(plot_path),
        "--alpha", "0.05",
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


def test_replot_with_the_runs_alpha_matches_the_run(tmp_path):
    cfg = _write_config(tmp_path, alpha=0.2)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    replot = tmp_path / "replot.svg"
    assert cli_main(["plot", "--csv", str(out / "sweep.csv"), "--metric", "mean_coverage",
                     "--out", str(replot), "--alpha", "0.2"]) == 0
    assert replot.read_bytes() == (out / "mean_coverage.svg").read_bytes()
    assert "target 0.80" in replot.read_text()


def test_plot_needs_the_runs_alpha(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_text("experiment,phi,repetition,metric,class,value\n"
                        "example1,0.0000,0,mean_coverage,,0.900000\n")
    plot = tmp_path / "plot.svg"
    with pytest.raises(SystemExit) as exc:
        cli_main(["plot", "--csv", str(csv_path), "--metric", "mean_coverage", "--out", str(plot)])
    assert exc.value.code == 2
    assert not plot.exists()


@pytest.mark.parametrize("cdll", [
    mock.Mock(side_effect=OSError("no handle on the running process")),
    mock.Mock(return_value=object()),  # a C library without mallopt
], ids=["no-handle", "no-mallopt"])
def test_run_without_mallopt_writes_the_same_sweep(tmp_path, capsys, cdll):
    cfg = _write_config(tmp_path)
    plain, patched = tmp_path / "plain", tmp_path / "patched"
    assert cli_main(["run", "--config", str(cfg), "--out", str(plain)]) == 0
    with mock.patch("ctypes.CDLL", cdll):
        assert cli_main(["run", "--config", str(cfg), "--out", str(patched)]) == 0
    cdll.assert_called_once_with(None)
    assert (patched / "sweep.csv").read_bytes() == (plain / "sweep.csv").read_bytes()


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# minor page faults taken by one sweep, through `bcops run` or a direct
# run_sweep call: python -c _FAULTS CONFIG OUT_DIR {run,run_sweep}
_FAULTS = """
import contextlib, io, resource, sys
from bcops.cli import _load_config, cli_main
from bcops.sweep import run_sweep
config, out, path = sys.argv[1:]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
if path == "run":
    with contextlib.redirect_stdout(io.StringIO()):
        if cli_main(["run", "--config", config, "--out", out]):
            sys.exit("run failed")
else:
    run_sweep(_load_config(config))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _glibc(), reason="the heap thresholds that run sets are glibc's")
def test_run_keeps_freed_level_arrays_in_the_heap(tmp_path):
    # Under glibc's default thresholds, the arrays that forest growth frees
    # at each level go back to the kernel and fault in again at the next
    # level. `bcops run` keeps them in the heap; the library leaves its
    # host's allocator alone.
    cfg = _write_config(tmp_path, forest={"n_trees": 10, "min_node_size": 25, "max_depth": 12})
    src = str(Path(bcops.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    faults = {}
    for path in ("run", "run_sweep"):
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTS, str(cfg), str(tmp_path / path), path],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        faults[path] = int(proc.stdout)
    assert 3 * faults["run"] < faults["run_sweep"], faults


def test_null_forest_fields_mean_their_defaults(tmp_path, capsys):
    cfg = _write_config(tmp_path, phi_grid=[0.0], forest={"n_trees": None, "min_node_size": None})
    assert cli_main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.endswith(", 1 cells x 4 forests x 100 trees\n")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    forest = json.loads((out / "run_metadata.json").read_text())["config"]["forest"]
    assert forest == {"n_trees": 100, "mtry": None, "min_node_size": 5, "max_depth": None}


def test_run_names_unwritable_output(tmp_path, capsys, monkeypatch):
    cells = []
    monkeypatch.setattr(bcops.sweep, "_run_cell", lambda *args: cells.append(args) or [])
    cfg = _write_config(tmp_path, phi_grid=[0.0], forest={"n_trees": 2, "min_node_size": 120})
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write to output directory {out}: ")
    assert cells == []


@pytest.mark.parametrize("name", ["sweep.csv", "summary.csv", "run_metadata.json",
                                  "class_coverage.svg", "mean_coverage.svg", "abstention_rate.svg"])
def test_run_names_output_taken_by_a_directory(tmp_path, capsys, monkeypatch, name):
    # each output name is checked before cell 1, not when the sweep writes it
    cells = []
    monkeypatch.setattr(bcops.sweep, "_run_cell", lambda *args: cells.append(args) or [])
    cfg = _write_config(tmp_path, phi_grid=[0.0], forest={"n_trees": 2, "min_node_size": 120})
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write to output directory {out}: {out / name} is not a writable regular file\n"
    )
    assert cells == []
    assert [p.name for p in out.iterdir()] == [name]


def _one_row_per_class_config(tmp_path, **overrides):
    g = np.random.default_rng(0)
    files = {**_write_idx_pair(tmp_path, "train", [0, 1, 2, 3, 4, 5] * 2, g),
             **_write_idx_pair(tmp_path, "test", list(range(10)), g)}
    return _write_config(tmp_path, **{
        "experiment": "mnist", "mnist_paths": files, "mnist_per_class": 1, "phi_grid": [0.0],
        "forest": {"n_trees": 2, "min_node_size": 5, "max_depth": 4}, **overrides})


def _load_warning(alpha, m):
    return (f"warning: alpha {alpha} with an expected {m} calibration rows per class and test "
            f"fold: p-values are at least 1/{m + 1} > alpha, so classes stay in every set")


@pytest.mark.parametrize("per_class,warns", [(37, True), (38, False)])
def test_validate_warns_when_expected_calibration_keeps_classes(tmp_path, capsys, per_class, warns):
    # half of mnist_per_class calibrates each test fold, m = 18 or 19; at
    # alpha 0.05 the smallest p-value 1/19 exceeds alpha and 1/20 does not
    files = {**_write_idx_pair(tmp_path, "train", [0, 1, 2, 3, 4, 5] * 38),
             **_write_idx_pair(tmp_path, "test", [0, 6])}
    cfg = _write_config(tmp_path, experiment="mnist", mnist_paths=files, mnist_per_class=per_class)
    assert cli_main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == (_load_warning(0.05, 18) + "\n" if warns else "")


@pytest.mark.parametrize("alpha,warns", [(0.003, True), (0.004, False)])
def test_validate_warns_for_synthetic_calibration_of_250_rows(tmp_path, capsys, alpha, warns):
    # 1/251 lies between 0.003 and 0.004
    assert cli_main(["validate", "--config", str(_write_config(tmp_path, alpha=alpha))]) == 0
    assert capsys.readouterr().err == (_load_warning(alpha, 250) + "\n" if warns else "")


def test_mnist_fields_fail_at_load_on_a_synthetic_experiment(tmp_path, capsys):
    cfg = _write_config(tmp_path, mnist_per_class=7, mnist_paths={"train_images": "nope"})
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: mnist_paths applies only to experiment mnist, not example1\n"
    cfg = _write_config(tmp_path, mnist_per_class=7)
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: mnist_per_class applies only to experiment mnist, not example1\n"


# At phi 0.1 the noise relabels every training row of one class in the
# cell (phi=0.1, repetition=0).
EMPTIED_CLASS = {"phi_grid": [0.0, 0.1], "repetitions": 3, "seed": 3}


def test_run_prints_fit_warnings(tmp_path, capsys):
    # one training row per class lands in one training fold only, so neither
    # fold has a model with calibration rows for it
    cfg = _one_row_per_class_config(tmp_path)
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 13
    # mnist_per_class 1 expects 0 calibration rows, and the load-time check says so first
    assert lines[0] == _load_warning(0.05, 0)
    pattern = (r"warning: phi=0\.0, repetition=0: class (\d) has 0 calibration rows for test fold "
               r"([12]): p-values there are at least 1/1 > alpha 0\.05, so it is in every set")
    pairs = {re.fullmatch(pattern, line).groups() for line in lines[1:]}
    # classes are named by their sweep.csv labels, the digits 0-5
    assert pairs == {(str(c), t) for c in range(6) for t in "12"}


def test_run_leaves_no_plot_of_an_earlier_run(tmp_path, capsys):
    cfg = _one_row_per_class_config(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "abstention_rate.svg").exists()
    # with no outliers among the test rows, the next run has no abstention rate to plot
    _write_idx_pair(tmp_path, "test", [0, 1, 2, 3, 4, 5] * 2)
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "abstention_rate" not in (out / "sweep.csv").read_text()
    assert sorted(p.name for p in out.iterdir()) == [
        "class_coverage.svg", "mean_coverage.svg", "run_metadata.json", "summary.csv", "sweep.csv"]


def test_run_survives_a_class_emptied_by_noise(tmp_path, capsys, monkeypatch):
    noisy = []
    corrupt = bcops.sweep.corrupt_labels
    monkeypatch.setattr(bcops.sweep, "corrupt_labels",
                        lambda *args: noisy.append(corrupt(*args)) or noisy[-1])
    cfg = _one_row_per_class_config(tmp_path, **EMPTIED_CLASS)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert any(np.bincount(labels, minlength=7)[1:].min() == 0 for labels in noisy)
    assert {row.phi for row in bcops.read_csv(out / "sweep.csv")} == {0.0, 0.1}
    assert "warning: phi=0.1, repetition=0: class " in capsys.readouterr().err


def _damage_gzip(path, damage):
    """Rewrite the file at ``path`` gzipped, then cut in half ("truncated") or
    with its middle byte flipped ("corrupted")."""
    # level 0 stores the bytes as they are, so a flipped byte breaks only the CRC
    packed = bytearray(gzip.compress(path.read_bytes(), compresslevel=0))
    if damage == "truncated":
        del packed[len(packed) // 2:]
    else:
        packed[len(packed) // 2] ^= 0xFF
    path.write_bytes(packed)


@pytest.mark.parametrize("damage,reason", [
    ("truncated", "Compressed file ended before the end-of-stream marker was reached"),
    ("corrupted", "CRC check failed"),
])
def test_validate_names_damaged_gzip_file(tmp_path, capsys, damage, reason):
    files = {**_write_idx_pair(tmp_path, "train", [0, 1, 2, 3, 4, 5]),
             **_write_idx_pair(tmp_path, "test", [0, 6])}
    path = Path(files["train_images"])
    _damage_gzip(path, damage)
    cfg = _write_config(tmp_path, experiment="mnist", mnist_paths=files, mnist_per_class=1)
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: damaged gzip file: ") and reason in err


def test_validate_names_truncated_idx_file(tmp_path, capsys):
    files = {**_write_idx_pair(tmp_path, "train", [0, 1, 2, 3, 4, 5]),
             **_write_idx_pair(tmp_path, "test", [0, 6])}
    path = Path(files["train_images"])
    path.write_bytes(path.read_bytes()[:-100])
    cfg = _write_config(tmp_path, experiment="mnist", mnist_paths=files, mnist_per_class=1)
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: truncated file: data ends at byte offset ")


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
    argv = ["plot", "--csv", str(csv_path), "--metric", "mean_coverage", "--out", str(out),
            "--alpha", "0.05"]
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
    argv = ["plot", "--csv", str(csv_path), "--metric", "mean_coverage", "--out", str(out),
            "--alpha", "0.05"]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("line,message", [
    ("", "expected 6 fields, got 0"),
    ("example1,abc,0,abstention_rate,,0.500000", "could not convert string to float: 'abc'"),
    pytest.param("example1," + "x" * 200_000 + ",0,abstention_rate,,0.500000",
                 "field larger than field limit (131072)", id="200000-character field"),
])
def test_plot_names_line_of_malformed_row(tmp_path, capsys, line, message):
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_text(
        "experiment,phi,repetition,metric,class,value\n"
        "example1,0.0000,0,mean_coverage,,0.900000\n"
        f"{line}\n"
    )
    out = tmp_path / "plot.svg"
    argv = ["plot", "--csv", str(csv_path), "--metric", "mean_coverage", "--out", str(out),
            "--alpha", "0.05"]
    assert cli_main(argv) == 1
    assert f"{csv_path}, line 3: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_plot_names_csv_without_rows(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_text("experiment,phi,repetition,metric,class,value\n")
    assert bcops.read_csv(csv_path) == ()
    out = tmp_path / "plot.svg"
    argv = ["plot", "--csv", str(csv_path), "--metric", "mean_coverage", "--out", str(out),
            "--alpha", "0.05"]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {csv_path}: no rows to plot\n"
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
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value", [("n_trees", 2.5), ("max_depth", -3), ("n_trees", 10**30)])
def test_validate_rejects_bad_forest_sizes(tmp_path, capsys, field, value):
    cfg = _write_config(tmp_path, forest={"n_trees": 4, field: value})
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    assert field in capsys.readouterr().err


def test_validate_rejects_phi_grid_that_prints_twice(tmp_path, capsys):
    cfg = _write_config(tmp_path, phi_grid=[0.10001, 0.10002])
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "error: phi_grid must be strictly ascending at the 4 decimals of sweep.csv: "
        "0.10001 (printed 0.1000) is followed by 0.10002 (printed 0.1000)\n"
    )


def test_negative_zero_phi_prints_as_zero(tmp_path):
    cfg = _write_config(tmp_path, phi_grid=[-0.0, 0.5], forest={"n_trees": 2, "min_node_size": 120})
    assert "-0.0" in cfg.read_text()
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name, column in (("sweep.csv", 1), ("summary.csv", 0)):
        lines = (out / name).read_text().splitlines()[1:]
        assert {line.split(",")[column] for line in lines} == {"0.0000", "0.5000"}, name
    assert "-0.0" not in (out / "run_metadata.json").read_text()
    assert json.loads((out / "run_metadata.json").read_text())["config"]["phi_grid"] == [0.0, 0.5]


IDX_DAMAGES = ("truncated payload", "wrong magic", "14x14 images", "count mismatch",
               "truncated gzip", "corrupted gzip", "1-row test", "short digit")
IDX_FILES = ("train_images", "train_labels", "test_images", "test_labels")


def _tiny_idx_pairs(directory, damage, target, mnist_per_class):
    """Train and test IDX pairs of a few rows, with at most one damage: to the
    file ``target`` names or to its pair."""
    digits = {"train": [0, 1, 2, 3, 4, 5] * 5, "test": list(range(10)) * 2}
    if damage == "1-row test":
        digits["test"] = [0]
    if damage == "short digit":
        digits["train"] = [0, 1, 2, 4, 5] * 5 + [3] * ((mnist_per_class or 1) - 1)
    g = np.random.default_rng(0)
    files = {**_write_idx_pair(directory, "train", digits["train"], g),
             **_write_idx_pair(directory, "test", digits["test"], g)}
    role = target.split("_")[0]
    path, images, labels = (Path(files[key]) for key in (target, f"{role}_images", f"{role}_labels"))
    n = len(digits[role])
    if damage == "truncated payload":
        path.write_bytes(path.read_bytes()[:-1])
    elif damage == "wrong magic":
        # the magic of the other kind of file: 0x803 for labels, 0x801 for images
        raw = path.read_bytes()
        path.write_bytes(raw[:3] + bytes([raw[3] ^ 0x02]) + raw[4:])
    elif damage == "14x14 images":
        images.write_bytes(struct.pack(">IIII", 0x803, n, 14, 14) + bytes(n * 14 * 14))
    elif damage == "count mismatch":
        labels.write_bytes(serialize_idx_labels(np.asarray(digits[role][:-1], dtype=np.uint8)))
    elif damage in ("truncated gzip", "corrupted gzip"):
        _damage_gzip(path, damage.split()[0])
    return files


def _cli(argv):
    """cli_main's exit code and stderr, and how many sweep cells it started."""
    err = io.StringIO()
    with mock.patch.object(bcops.sweep, "_run_cell", wraps=bcops.sweep._run_cell) as cell:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(argv)
    return rc, err.getvalue(), cell.call_count


def _loads(cfg):
    """Whether the config file passes the field checks made at load time."""
    try:
        bcops.sweep.ExperimentConfig.from_dict(json.loads(cfg.read_text()))
    except ValueError:
        return False
    return True


def _with_pinned_examples(test):
    """Pin each damage, the seeds just out of range and a min_node_size too
    large for a float, one at a time, to an mnist config that is valid
    without it: random draws seldom leave all the other fields valid."""
    valid = dict(experiment="mnist", mnist_per_class=3, alpha=0.2, imbalance_cap=5.0,
                 phi_grid=[0.0], forest={"n_trees": 1, "max_depth": 3, "min_node_size": 5, "mtry": None},
                 seed=2**64 - 1, inclusive_resampling=True, out_under_a_file=False, damage=None,
                 damaged_file="train_images")
    cases = [{}, {"seed": -1}, {"seed": 2**64}, {"forest": {**valid["forest"], "min_node_size": 10**400}}]
    cases += [{"damage": damage, "damaged_file": IDX_FILES[i % 4]} for i, damage in enumerate(IDX_DAMAGES)]
    for case in cases:
        test = example(**{**valid, **case})(test)
    return test


@settings(max_examples=300, deadline=None)
@given(
    experiment=st.sampled_from(["example1", "example2", "mnist"]),
    mnist_per_class=st.none() | st.integers(1, 5),
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    imbalance_cap=st.floats(0.0, 1e308, exclude_min=True),
    phi_grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2, unique=True),
    forest=st.fixed_dictionaries({
        "n_trees": st.integers(1, 2),
        "max_depth": st.none() | st.integers(1, 6),
        "min_node_size": st.integers(1, 200) | st.integers(201, 10**400),
        "mtry": st.none() | st.integers(1, 12) | st.sampled_from([784, 785]),
    }),
    seed=st.integers(-1, 2**64),
    inclusive_resampling=st.booleans(),
    out_under_a_file=st.booleans(),
    damage=st.none() | st.sampled_from(IDX_DAMAGES),
    damaged_file=st.sampled_from(IDX_FILES),
)
@example(experiment="example1", mnist_per_class=None, alpha=0.05, imbalance_cap=1e308,
         phi_grid=[0.0], forest={"n_trees": 1, "max_depth": 3, "min_node_size": 25, "mtry": None},
         seed=1, inclusive_resampling=False, out_under_a_file=False, damage=None,
         damaged_file="train_images")
@_with_pinned_examples
def test_validate_accepts_only_configs_that_run_completes(
        experiment, mnist_per_class, alpha, imbalance_cap, phi_grid, forest, seed,
        inclusive_resampling, out_under_a_file, damage, damaged_file):
    if experiment == "example2":
        # a cell grows 20 forests on 5,000 training rows: keep each to one shallow tree
        forest = {**forest, "n_trees": 1, "max_depth": 2}
    raw = {"experiment": experiment, "alpha": alpha, "imbalance_cap": imbalance_cap,
           "phi_grid": phi_grid, "repetitions": 1, "forest": forest, "seed": seed,
           "inclusive_resampling": inclusive_resampling, "mnist_per_class": mnist_per_class}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "file").write_text("a file, not a directory\n")
        out = tmp / ("file" if out_under_a_file else "dir") / "out"
        raw["output_dir"] = str(out)
        if experiment == "mnist":
            raw["mnist_paths"] = _tiny_idx_pairs(tmp, damage, damaged_file, mnist_per_class)
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps(raw))
        rc, err, cells = _cli(["validate", "--config", str(cfg)])
        run_rc, run_err, run_cells = _cli(["run", "--config", str(cfg)])
        loads = _loads(cfg)
    if experiment == "mnist" and damage is not None:
        assert rc == 1, f"validate passed IDX files with damage {damage!r}"
    if out_under_a_file and loads:
        # validate leaves output_dir to run, which checks it after loading the
        # config and before its other checks
        assert run_rc == 1 and run_cells == 0
        assert run_err.startswith(f"error: cannot write to output directory {out}: ")
        assert run_err.count("\n") == 1
    elif rc == 1:
        # the same error, before any cell starts
        assert (run_rc, run_err, run_cells) == (1, err, 0)
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert rc == 0 and cells == 0
        assert run_rc == 0, run_err
        assert run_cells == len(phi_grid)


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


@pytest.mark.parametrize("alpha,code", [(0.05, 0), (1.5, 1)])
def test_main_exits_with_the_code_of_cli_main(tmp_path, monkeypatch, capsys, alpha, code):
    # `python -m bcops.cli` in this process, so that main() and the
    # __main__ guard run where a line trace of the suite sees them
    cfg = _write_config(tmp_path, alpha=alpha)
    monkeypatch.setattr(sys, "argv", ["bcops", "validate", "--config", str(cfg)])
    monkeypatch.delitem(sys.modules, "bcops.cli")  # run_module warns when it is there
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("bcops.cli", run_name="__main__")
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert out.startswith("config ok") if code == 0 else err == "error: alpha must lie in (0, 1)\n"


# SHA-256 of the outputs of the sweep below, as first written by the
# level-wise grower with node-keyed feature draws. Any change to these bytes
# is a behaviour change.
GOLDEN_SHA256 = {
    "sweep.csv": "48416741ded6c9fb77b77e0a567ae8d2a774f36b50bed400579f2e0f6cdbc235",
    "summary.csv": "3595464ec989f8941ec7b7193bf23658259dda53eaac70b8285749dd9bad066c",
    "run_metadata.json": "ba42de73d92cbd5fd3c938186b354e92dceb82229424fc63d8d2008e03e758f2",
    "class_coverage.svg": "1227d2aa3a4c5432ef752839d5d6827c3032f4d2f0f95368a62b571dc6c0eff8",
    "mean_coverage.svg": "83eea8571e0bcf76e3536e90225ee4ece584e8ae56e27905754d604e09267282",
    "abstention_rate.svg": "f46a45b79b78b6b433c6a5af946d458cfeacd2cc4060e14840f691571de6969d",
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
# experiment, as first written by the level-wise grower with node-keyed
# feature draws.
OTHER_GOLDEN_SHA256 = {
    "example2": ("56049567d2a5076d25501d3b5b70da5aab53b274fa7803a57d14f020560f5038",
                 "721b9b93be82488450d3d72bbbd80c62ce3c36f997f34fd47c403567a3ddef10"),
    "mnist": ("d7f2212cbc55c09bf95b04b591aa3310a17145fd7e607664613703cf278ed548",
              "f29403db7f620975bc504a600012c49808f1258b9fe438b42d17c520aa0321c7"),
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


@pytest.mark.parametrize("experiment", ["example1", "example2", "mnist", "mnist-emptied-class"])
def test_benchmark_tracer_binds(tmp_path, experiment):
    # The traced benchmark run wraps names in bcops.cli, bcops.sweep and
    # bcops.conformal; a renamed or moved one would leave its time outside
    # every layer or fail the recount of the cells. The emptied class has
    # no model on either fold, so the recount covers p-value 1 too.
    repo = Path(__file__).resolve().parents[1]
    overrides = {"phi_grid": [0.0], "forest": {"n_trees": 2, "min_node_size": 5, "max_depth": 4}}
    if experiment == "example2":
        overrides.update(experiment="example2")
    if experiment == "mnist":
        files = {**_write_idx_pair(tmp_path, "train", [0, 1, 2, 3, 4, 5] * 6),
                 **_write_idx_pair(tmp_path, "test", list(range(10)) * 2)}
        overrides.update(experiment="mnist", mnist_paths=files, mnist_per_class=4)
    if experiment == "mnist-emptied-class":
        cfg = _one_row_per_class_config(tmp_path, **EMPTIED_CLASS)
    else:
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
    if experiment == "mnist-emptied-class":
        assert "warning: phi=0.1, repetition=0: class " in proc.stderr
    layer_spans = {name for names in _load_tracing(repo).LAYER_SPANS.values() for name in names}
    assert {s["name"] for s in trace["spans"]} <= layer_spans
