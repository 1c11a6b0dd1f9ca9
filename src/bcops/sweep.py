"""Config-driven noise sweeps: run the full pipeline over a phi grid with
repetitions, collect long-form metric rows, and round-trip them as CSV.

Cell (phi index i, repetition r) draws from stream id i*10**6 + r, so any
worker schedule produces the identical result.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .conformal import fit_bcops, predict_all
from .data import OUTLIER, LabeledDataset, RngStream, UnlabeledDataset, relabel_to_canonical, stratified_subsample
from .datagen import gen_example1_test, gen_example1_train, gen_example2
from .forest import ForestConfig
from .metrics import CLASS_COVERAGE, MetricRecord, aggregate, evaluate
from .mnist import MnistSource, filter_digits, load_mnist
from .noise import CorruptionSpec, corrupt_labels

EXPERIMENTS = ("example1", "example2", "mnist")
_STREAMS_PER_PHI = 10**6
STREAM_ID_FORMULA = "stream_id = phi_index * 10**6 + repetition"
CSV_HEADER = ["experiment", "phi", "repetition", "metric", "class", "value"]

_MNIST_TRAIN_DIGITS = (0, 1, 2, 3, 4, 5)
_DEFAULT_PHI_GRID = tuple(round(0.05 * i, 2) for i in range(21))
_DEFAULT_REPETITIONS = {"example1": 100, "example2": 20, "mnist": 5}

_FOREST_KEYS = ("n_trees", "mtry", "min_node_size", "max_depth")
_CONFIG_KEYS = (
    "experiment", "alpha", "phi_grid", "repetitions", "forest", "seed",
    "mnist_paths", "mnist_per_class", "inclusive_resampling", "output_dir",
    "imbalance_cap",
)
_MNIST_PATH_KEYS = ("train_images", "train_labels", "test_images", "test_labels")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    alpha: float = 0.05
    phi_grid: tuple = _DEFAULT_PHI_GRID
    repetitions: int | None = None  # None -> per-experiment default
    forest: ForestConfig = field(default_factory=ForestConfig)
    seed: int = 0
    mnist_paths: dict | None = None
    mnist_per_class: int | None = None
    inclusive_resampling: bool = False
    output_dir: str | None = None
    imbalance_cap: float = 5.0

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        grid = tuple(float(p) for p in self.phi_grid)
        object.__setattr__(self, "phi_grid", grid)
        if not grid or any(not 0.0 <= p <= 1.0 for p in grid):
            raise ValueError("phi_grid values must lie in [0, 1]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("phi_grid must be strictly ascending")
        if self.repetitions is not None and not 1 <= self.repetitions < _STREAMS_PER_PHI:
            # a larger count would reuse the streams of the next phi index
            raise ValueError(f"repetitions must lie in 1..{_STREAMS_PER_PHI - 1}")
        if not self.imbalance_cap > 0:
            raise ValueError("imbalance_cap must be > 0")
        if self.experiment == "mnist":
            if self.mnist_paths is None:
                raise ValueError("mnist_paths is required when experiment=mnist")
            missing = [k for k in _MNIST_PATH_KEYS if k not in self.mnist_paths]
            if missing:
                raise ValueError(f"mnist_paths missing field(s): {', '.join(missing)}")
            if self.mnist_per_class is None:
                object.__setattr__(self, "mnist_per_class", 500)

    @property
    def resolved_repetitions(self) -> int:
        if self.repetitions is not None:
            return self.repetitions
        return _DEFAULT_REPETITIONS[self.experiment]

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = sorted(set(raw) - set(_CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
        if "experiment" not in raw:
            raise ValueError("config field 'experiment' is required")
        kwargs = dict(raw)
        forest_raw = kwargs.pop("forest", {}) or {}
        unknown = sorted(set(forest_raw) - set(_FOREST_KEYS))
        if unknown:
            raise ValueError(f"unknown forest field(s): {', '.join(unknown)}")
        kwargs["forest"] = ForestConfig(**forest_raw)
        if "phi_grid" in kwargs and kwargs["phi_grid"] is not None:
            kwargs["phi_grid"] = tuple(kwargs["phi_grid"])
        else:
            kwargs.pop("phi_grid", None)
        return cls(**{k: v for k, v in kwargs.items() if v is not None or k in ("repetitions",)})

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "alpha": self.alpha,
            "phi_grid": list(self.phi_grid),
            "repetitions": self.resolved_repetitions,
            "forest": {
                "n_trees": self.forest.n_trees,
                "mtry": self.forest.mtry,
                "min_node_size": self.forest.min_node_size,
                "max_depth": self.forest.max_depth,
            },
            "seed": self.seed,
            "mnist_paths": self.mnist_paths,
            "mnist_per_class": self.mnist_per_class,
            "inclusive_resampling": self.inclusive_resampling,
            "output_dir": self.output_dir,
            "imbalance_cap": self.imbalance_cap,
        }


@dataclass(frozen=True)
class SweepRow:
    experiment: str
    phi: float
    repetition: int
    metric: str
    class_label: int | None  # display label (raw digit for mnist)
    value: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple


@dataclass(frozen=True)
class _MnistContext:
    train: LabeledDataset
    test: UnlabeledDataset
    display_labels: dict  # canonical class -> raw digit


def prepare_mnist(paths: dict) -> _MnistContext:
    """Load the IDX pairs, keep digits 0..5 for training, and mark test
    digits outside that set as outliers."""
    train_raw = filter_digits(
        load_mnist(MnistSource(paths["train_images"], paths["train_labels"], "train")),
        _MNIST_TRAIN_DIGITS,
    )
    labels, mapping = relabel_to_canonical(train_raw.digits.tolist())
    train = LabeledDataset(train_raw.features, labels, class_count=len(mapping))

    test_raw = load_mnist(MnistSource(paths["test_images"], paths["test_labels"], "test"))
    truth = np.array(
        [mapping.get(int(d), OUTLIER) for d in test_raw.digits], dtype=np.int64
    )
    test = UnlabeledDataset(test_raw.features, truth)
    return _MnistContext(train, test, {v: k for k, v in mapping.items()})


def _run_cell(config: ExperimentConfig, mnist_ctx, phi_index: int, rep: int):
    phi = config.phi_grid[phi_index]
    stream = RngStream(config.seed, phi_index * _STREAMS_PER_PHI + rep)
    data_rng, noise_rng, fit_rng = stream.derive(1), stream.derive(2), stream.derive(3)

    display: dict = {}
    if config.experiment == "example1":
        train = gen_example1_train(data_rng.derive(1))
        test = gen_example1_test(data_rng.derive(2))
    elif config.experiment == "example2":
        train, test = gen_example2(data_rng)
    else:
        train = mnist_ctx.train
        if config.mnist_per_class is not None:
            train = stratified_subsample(train, config.mnist_per_class, data_rng)
        test = mnist_ctx.test
        display = mnist_ctx.display_labels

    spec = CorruptionSpec(phi, train.class_count, config.inclusive_resampling)
    noisy = corrupt_labels(train.labels, spec, noise_rng)
    train = LabeledDataset(train.features, noisy, train.class_count)

    model = fit_bcops(
        train, test, config.forest, config.alpha, fit_rng, imbalance_cap=config.imbalance_cap
    )
    sets = predict_all(model)
    records = evaluate(sets, test.ground_truth)
    return [
        SweepRow(
            experiment=config.experiment,
            phi=phi,
            repetition=rep,
            metric=rec.metric_name,
            class_label=(
                None if rec.class_label is None else display.get(rec.class_label, rec.class_label)
            ),
            value=rec.value,
        )
        for rec in records
    ]


def _row_sort_key(row: SweepRow):
    return (row.phi, row.repetition, row.metric,
            -1 if row.class_label is None else row.class_label)


def run_sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Run every (phi, repetition) cell; fully deterministic given config."""
    mnist_ctx = prepare_mnist(config.mnist_paths) if config.experiment == "mnist" else None
    cells = [
        (i, r)
        for i in range(len(config.phi_grid))
        for r in range(config.resolved_repetitions)
    ]

    def job(cell):
        i, r = cell
        try:
            return _run_cell(config, mnist_ctx, i, r)
        except Exception as exc:
            raise RuntimeError(
                f"sweep cell failed (phi={config.phi_grid[i]}, repetition={r}): {exc}"
            ) from exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, cells))
    else:
        results = [job(c) for c in cells]

    rows = sorted((row for batch in results for row in batch), key=_row_sort_key)
    return SweepResult(rows=tuple(rows))


def run_metadata(config: ExperimentConfig, threads: int) -> dict:
    return {
        "config": config.to_dict(),
        "threads": threads,
        "rng": {"seed": config.seed, "cell_stream": STREAM_ID_FORMULA},
        "csv_header": ",".join(CSV_HEADER),
    }


def write_csv(result: SweepResult, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in result.rows:
        writer.writerow([
            r.experiment,
            f"{r.phi:.4f}",
            r.repetition,
            r.metric,
            "" if r.class_label is None else r.class_label,
            f"{r.value:.6f}",
        ])
    try:
        path.write_text(buf.getvalue(), encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc


def read_csv(path) -> SweepResult:
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        rows = []
        for rec in reader:
            exp, phi, rep, metric, cls, value = rec
            rows.append(SweepRow(
                experiment=exp,
                phi=float(phi),
                repetition=int(rep),
                metric=metric,
                class_label=None if cls == "" else int(cls),
                value=float(value),
            ))
    return SweepResult(rows=tuple(rows))


def write_summary_csv(summary_rows, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["phi", "metric", "class", "mean", "sd", "n_reps"])
        for r in summary_rows:
            writer.writerow([
                f"{r.phi:.4f}",
                r.metric_name,
                "" if r.class_label is None else r.class_label,
                f"{r.mean:.6f}",
                f"{r.sd:.6f}",
                r.n_reps,
            ])


def aggregate_result(result: SweepResult):
    return aggregate(
        (r.repetition, r.phi, MetricRecord(
            r.metric, r.value, class_label=r.class_label if r.metric == CLASS_COVERAGE else None,
        ))
        for r in result.rows
    )
