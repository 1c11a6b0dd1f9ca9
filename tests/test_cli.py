import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import bcops
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


def test_missing_config_file(tmp_path, capsys):
    assert cli_main(["validate", "--config", str(tmp_path / "absent.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--bogus"])
    assert exc.value.code == 2


def test_run_then_plot_pipeline(tmp_path):
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


def test_run_seed_override_changes_output(tmp_path):
    cfg = _write_config(tmp_path, phi_grid=[0.0])
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    assert cli_main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "99"]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", str(out3)]) == 0
    base = (out1 / "sweep.csv").read_bytes()
    assert base != (out2 / "sweep.csv").read_bytes()
    assert base == (out3 / "sweep.csv").read_bytes()


def test_threads_env_fallback(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, phi_grid=[0.0])
    monkeypatch.setenv("BCOPS_THREADS", "2")
    out = tmp_path / "env_out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["threads"] == 2


def test_threads_env_invalid(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path, phi_grid=[0.0])
    monkeypatch.setenv("BCOPS_THREADS", "lots")
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "BCOPS_THREADS" in capsys.readouterr().err


def test_validate_rejects_nonpositive_imbalance_cap(tmp_path, capsys):
    cfg = _write_config(tmp_path, imbalance_cap=-1)
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    assert "imbalance_cap" in capsys.readouterr().err


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
}


def test_golden_sweep_bytes(tmp_path):
    cfg = _write_config(
        tmp_path, phi_grid=[0.0, 0.5], forest={"n_trees": 5, "min_node_size": 25, "max_depth": 12}
    )
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
