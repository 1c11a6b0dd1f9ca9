"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The statistical criteria run the full pipeline at desk scale (smaller
forests than the library defaults, for runtime; the conformal guarantees do
not depend on learner strength). MNIST criteria run only when the IDX files
are available (see BCOPS_MNIST_DIR below); everything synthetic is
self-contained.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from bcops.cli import cli_main
from bcops.conformal import conformal_p_value, conformal_p_values, fit_bcops
from bcops.data import OUTLIER, RngStream
from bcops.datagen import gen_example1_test, gen_example1_train
from bcops.forest import ForestConfig
from bcops.metrics import ABSTENTION_RATE, CLASS_COVERAGE, MEAN_COVERAGE, evaluate
from bcops.noise import CorruptionSpec, corrupt_labels
from bcops.sweep import ExperimentConfig, prepare_mnist, run_sweep

SEED = 20260823
EX1_FOREST = {"n_trees": 40, "min_node_size": 25, "max_depth": 12}
EX2_FOREST = {"n_trees": 30, "min_node_size": 25, "max_depth": 12}

# Directory holding train-images-idx3-ubyte, train-labels-idx1-ubyte,
# t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte (optionally .gz).
MNIST_ENV = "BCOPS_MNIST_DIR"


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({detail})")


def _mean_sd(rows, phi, metric, class_label=None):
    values = np.array([
        r.value for r in rows
        if abs(r.phi - phi) < 1e-9 and r.metric == metric and r.class_label == class_label
    ])
    assert values.size > 0, f"no rows for phi={phi}, metric={metric}"
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return float(values.mean()), sd, values.size


@pytest.fixture(scope="module")
def ex1_clean():
    """Example 1 at phi=0 only, 20 repetitions (criterion 1)."""
    config = ExperimentConfig.from_dict({
        "experiment": "example1",
        "phi_grid": [0.0],
        "repetitions": 20,
        "forest": EX1_FOREST,
        "seed": SEED,
    })
    start = time.monotonic()
    result = run_sweep(config)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def ex1_noise_sweep():
    """Example 1 over the noise levels needed by criteria 2 and 3."""
    config = ExperimentConfig.from_dict({
        "experiment": "example1",
        "phi_grid": [0.0, 0.1, 0.2, 0.3, 0.4, 0.7, 0.8, 0.9],
        "repetitions": 20,
        "forest": EX1_FOREST,
        "seed": SEED + 1,
    })
    return run_sweep(config)


@pytest.fixture(scope="module")
def ex2_sweep():
    config = ExperimentConfig.from_dict({
        "experiment": "example2",
        "phi_grid": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
        "repetitions": 10,
        "forest": EX2_FOREST,
        "seed": SEED + 2,
    })
    start = time.monotonic()
    result = run_sweep(config)
    return result, time.monotonic() - start


@pytest.mark.slow
def test_criterion_1_clean_coverage(ex1_clean):
    result, elapsed = ex1_clean
    means = {k: _mean_sd(result, 0.0, CLASS_COVERAGE, k)[0] for k in (1, 2)}
    ok = all(m >= 0.93 for m in means.values()) and elapsed < 180
    _report(1, "coverage guarantee at phi=0",
            ok, f"class means {means[1]:.4f}/{means[2]:.4f}, {elapsed:.0f}s")
    assert means[1] >= 0.93 and means[2] >= 0.93
    assert elapsed < 180


@pytest.mark.slow
def test_criterion_2_noise_dip_and_recovery(ex1_noise_sweep):
    m0, sd0, n = _mean_sd(ex1_noise_sweep, 0.0, ABSTENTION_RATE)
    m1, sd1, _ = _mean_sd(ex1_noise_sweep, 0.1, ABSTENTION_RATE)
    m4, _, _ = _mean_sd(ex1_noise_sweep, 0.4, ABSTENTION_RATE)
    se_diff = math.sqrt(sd0 ** 2 / n + sd1 ** 2 / n)
    dip = (m0 - m1) > 2 * se_diff
    recovery = m4 > m1
    _report(2, "abstention dip then recovery", dip and recovery,
            f"abst(0)={m0:.3f}, abst(0.1)={m1:.3f} (2se={2 * se_diff:.3f}), abst(0.4)={m4:.3f}")
    assert dip
    assert recovery


@pytest.mark.slow
def test_criterion_3_symmetry(ex1_noise_sweep):
    gaps = {}
    for phi in (0.1, 0.2, 0.3):
        lo, _, _ = _mean_sd(ex1_noise_sweep, phi, ABSTENTION_RATE)
        hi, _, _ = _mean_sd(ex1_noise_sweep, round(1 - phi, 10), ABSTENTION_RATE)
        gaps[phi] = abs(lo - hi)
    ok = all(g <= 0.10 for g in gaps.values())
    _report(3, "two-class abstention symmetry", ok,
            ", ".join(f"|gap({p})|={g:.3f}" for p, g in gaps.items()))
    assert ok


@pytest.mark.slow
def test_criterion_4_multiclass_coverage_stability(ex2_sweep):
    result, elapsed = ex2_sweep
    means = {
        phi: _mean_sd(result, phi, MEAN_COVERAGE)[0]
        for phi in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    }
    below_95 = [phi for phi, m in means.items() if m < 0.95]
    ok = all(m >= 0.94 for m in means.values()) and len(below_95) <= 1 and elapsed < 900
    _report(4, "multi-class coverage stability", ok,
            ", ".join(f"{p}:{m:.4f}" for p, m in means.items()) + f"; {elapsed:.0f}s")
    assert all(m >= 0.94 for m in means.values())
    assert len(below_95) <= 1
    assert elapsed < 900


def test_criterion_5_p_value_oracle():
    g = np.random.default_rng(SEED)
    mismatches = 0
    for _ in range(500):
        n = int(g.integers(0, 13))
        cal = np.sort(np.round(g.random(n), 2))
        score = round(float(g.random()), 2)
        brute = (1 + sum(1 for c in cal if c <= score)) / (n + 1)
        if conformal_p_value(score, cal) != brute:
            mismatches += 1
    _report(5, "p-value equals brute-force rank recount", mismatches == 0,
            f"{mismatches}/500 mismatches")
    assert mismatches == 0


def test_criterion_6_metric_oracle():
    g = np.random.default_rng(SEED + 1)
    mismatches = 0
    for _ in range(500):
        n = int(g.integers(1, 21))
        truth = g.integers(0, 4, size=n)
        memberships = [
            set(g.choice([1, 2, 3], size=g.integers(0, 4), replace=False).tolist())
            for _ in range(n)
        ]
        include = np.zeros((n, 3), dtype=bool)
        for i, m in enumerate(memberships):
            for k in m:
                include[i, k - 1] = True
        got = {(r.metric_name, r.class_label): r.value for r in evaluate(include, truth)}
        for k in sorted(set(int(t) for t in truth if t != OUTLIER)):
            n_k = hits = 0
            for s, t in zip(memberships, truth):
                if t == k:
                    n_k += 1
                    hits += 1 if k in s else 0
            if got.get((CLASS_COVERAGE, k)) != hits / n_k:
                mismatches += 1
        n_a = sum(1 for t in truth if t == OUTLIER)
        if n_a:
            empty = sum(1 for s, t in zip(memberships, truth) if t == OUTLIER and not s)
            if got.get((ABSTENTION_RATE, None)) != empty / n_a:
                mismatches += 1
    _report(6, "metrics equal double-loop recount", mismatches == 0, f"{mismatches} mismatches")
    assert mismatches == 0


def test_criterion_7_corruption_rate():
    n = 100_000
    failures = []
    for k in (2, 10):
        labels = np.tile(np.arange(1, k + 1), n // k)
        for phi in (0.1, 0.5, 0.9):
            for inclusive in (False, True):
                target = phi * (k - 1) / k if inclusive else phi
                spec = CorruptionSpec(phi, k, inclusive_resampling=inclusive)
                out = corrupt_labels(labels, spec, RngStream(SEED, int(phi * 10) * 100 + k + inclusive))
                changed = float((out != labels).mean())
                tol = 4 * math.sqrt(target * (1 - target) / n)
                if abs(changed - target) > tol:
                    failures.append((phi, k, inclusive, changed, target))
    _report(7, "corruption rate within 4 binomial sd", not failures, f"failures={failures or 'none'}")
    assert not failures


@pytest.fixture(scope="module")
def ex1_fitted_model():
    rng = RngStream(SEED + 3)
    x, labels = gen_example1_train(rng.derive(1))
    test_x, truth = gen_example1_test(rng.derive(2))
    model = fit_bcops(x, labels, 2, test_x, ForestConfig(**EX1_FOREST), 0.05, rng.derive(3))
    return model, truth


def test_criterion_8_alpha_monotonicity(ex1_fitted_model):
    model, _ = ex1_fitted_model
    pv = conformal_p_values(model)
    loose = pv > 0.01
    tight = pv > 0.10
    violations = sum(
        1 for t, l in zip(tight, loose) if any(ti and not li for ti, li in zip(t, l))
    )
    assert tight.shape == loose.shape == (1500, 2)
    _report(8, "alpha-monotone nesting over 1500 test rows", violations == 0,
            f"{violations} violations")
    assert violations == 0


def test_criterion_9_super_uniformity():
    pooled = []
    for rep in range(2):
        rng = RngStream(SEED + 4, rep)
        x, labels = gen_example1_train(rng.derive(1))
        test_x, truth = gen_example1_test(rng.derive(2))
        model = fit_bcops(
            x, labels, 2, test_x,
            ForestConfig(**EX1_FOREST), 0.05, rng.derive(3),
        )
        pv = conformal_p_values(model)
        for k in (1, 2):
            pooled.extend(pv[truth == k, k - 1])
    pooled = np.asarray(pooled)
    excesses = {t: float((pooled <= t).mean()) - t for t in (0.05, 0.1, 0.2)}
    ok = pooled.size >= 2000 and all(e <= 0.03 for e in excesses.values())
    _report(9, "p-value super-uniformity", ok,
            f"n={pooled.size}, excess " + ", ".join(f"{t}:{e:+.4f}" for t, e in excesses.items()))
    assert pooled.size >= 2000
    for t, e in excesses.items():
        assert e <= 0.03, f"P(p <= {t}) exceeds {t} + 0.03"


def _mnist_paths():
    root = os.environ.get(MNIST_ENV)
    if not root:
        return None
    root = Path(root)
    paths = {}
    for key, stem in (
        ("train_images", "train-images-idx3-ubyte"),
        ("train_labels", "train-labels-idx1-ubyte"),
        ("test_images", "t10k-images-idx3-ubyte"),
        ("test_labels", "t10k-labels-idx1-ubyte"),
    ):
        for cand in (root / stem, root / f"{stem}.gz"):
            if cand.exists():
                paths[key] = str(cand)
                break
        else:
            return None
    return paths


def test_criterion_10_mnist_desk_scale():
    paths = _mnist_paths()
    if paths is None:
        _report(10, "MNIST desk scale", True,
                f"SKIPPED: set {MNIST_ENV} to a directory with the IDX files")
        pytest.skip(f"MNIST IDX files not available; set {MNIST_ENV}")

    _, train_labels, _, _ = prepare_mnist(paths)
    assert train_labels.size == 36_017, f"digits 0-5 filter yielded {train_labels.size} rows"

    config = ExperimentConfig.from_dict({
        "experiment": "mnist",
        "phi_grid": [0.0],
        "repetitions": 3,
        "forest": {"n_trees": 30, "min_node_size": 25, "max_depth": 12},
        "seed": SEED + 5,
        "mnist_paths": paths,
        "mnist_per_class": 500,
    })
    result = run_sweep(config)
    cov, _, _ = _mean_sd(result, 0.0, MEAN_COVERAGE)
    abst, _, _ = _mean_sd(result, 0.0, ABSTENTION_RATE)
    ok = cov >= 0.90 and abst > 0.3
    _report(10, "MNIST desk scale", ok,
            f"rows=36017, mean coverage {cov:.4f}, outlier abstention {abst:.4f}")
    assert cov >= 0.90
    assert abst > 0.3


def test_criterion_11_thread_determinism(tmp_path):
    config = {
        "experiment": "example1",
        "phi_grid": [0.0],
        "repetitions": 2,
        "forest": {"n_trees": 8, "min_node_size": 100, "max_depth": 6},
        "seed": SEED,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for threads, name in ((1, "a"), (4, "b")):
        out = tmp_path / name
        code = cli_main([
            "run", "--config", str(cfg_path), "--out", str(out), "--threads", str(threads)
        ])
        assert code == 0
        outs.append((out / "sweep.csv").read_bytes())
    ok = outs[0] == outs[1]
    _report(11, "thread-count invariant CSV", ok, f"{len(outs[0])} bytes each")
    assert ok
