"""Config-driven noise sweeps: run the full pipeline over a phi grid with
repetitions, collect long-form metric rows, and round-trip them as CSV.

Cells run in order on one thread. Cell (phi index i, repetition r) draws
from stream id i*10**6 + r, so its rows depend on nothing but the config.
Each fit warning of a cell is printed on stderr with the cell's phi and
repetition.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .conformal import fit_bcops, predict_all
from .data import OUTLIER, LabeledDataset, RngStream, UnlabeledDataset, check_count, stratified_subsample
from .datagen import N_FEATURES, gen_example1_test, gen_example1_train, gen_example2
from .forest import ForestConfig
from .metrics import MetricRecord, SummaryRow, class_order, evaluate
from .mnist import load_mnist
from .noise import CorruptionSpec, corrupt_labels

EXPERIMENTS = ("example1", "example2", "mnist")
_STREAMS_PER_PHI = 10**6
STREAM_ID_FORMULA = "stream_id = phi_index * 10**6 + repetition"
CSV_HEADER = ["experiment", "phi", "repetition", "metric", "class", "value"]

# Class k of the mnist experiment is digit _MNIST_TRAIN_DIGITS[k - 1]; test
# rows of any other label are outliers.
_MNIST_TRAIN_DIGITS = (0, 1, 2, 3, 4, 5)
_DEFAULT_PHI_GRID = tuple(round(0.05 * i, 2) for i in range(21))
_DEFAULT_REPETITIONS = {"example1": 100, "example2": 20, "mnist": 5}

_MNIST_PATH_KEYS = ("train_images", "train_labels", "test_images", "test_labels")

# Types of the fields that no range check below rejects when wrongly typed;
# a bool passes only as inclusive_resampling.
_FIELD_TYPES = {
    "alpha": (int, float), "phi_grid": (list, tuple), "mnist_paths": (dict, type(None)),
    "inclusive_resampling": (bool,), "output_dir": (str, type(None)), "imbalance_cap": (int, float),
}


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
        for name, kinds in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, kinds) or isinstance(value, bool) != (kinds == (bool,)):
                raise ValueError(f"{name} has the wrong type: {value!r}")
        if any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in self.phi_grid):
            raise ValueError(f"phi_grid must hold numbers only, got {list(self.phi_grid)!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        grid = tuple(float(p) for p in self.phi_grid)
        object.__setattr__(self, "phi_grid", grid)
        if not grid or any(not 0.0 <= p <= 1.0 for p in grid):
            raise ValueError("phi_grid values must lie in [0, 1]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("phi_grid must be strictly ascending")
        if self.repetitions is None:
            object.__setattr__(self, "repetitions", _DEFAULT_REPETITIONS[self.experiment])
        check_count("repetitions", self.repetitions)
        if self.repetitions >= _STREAMS_PER_PHI:
            # a larger count would reuse the streams of the next phi index
            raise ValueError(f"repetitions must lie in 1..{_STREAMS_PER_PHI - 1}")
        check_count("seed", self.seed, minimum=0)
        if self.seed >= 2**64:
            raise ValueError("seed must be < 2**64")
        if not 0 < self.imbalance_cap < np.inf:
            raise ValueError("imbalance_cap must be > 0 and finite")
        if self.experiment == "mnist":
            if self.mnist_paths is None:
                raise ValueError("mnist_paths is required when experiment=mnist")
            missing = [k for k in _MNIST_PATH_KEYS if not isinstance(self.mnist_paths.get(k), str)]
            if missing:
                raise ValueError(f"mnist_paths missing or non-string field(s): {', '.join(missing)}")
            if self.mnist_per_class is None:
                object.__setattr__(self, "mnist_per_class", 500)
        if self.mnist_per_class is not None:
            check_count("mnist_per_class", self.mnist_per_class)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build a config from parsed JSON; a null value means the default."""
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
        if raw.get("experiment") is None:
            raise ValueError("config field 'experiment' is required")
        kwargs = dict(raw)
        forest_raw = {} if raw.get("forest") is None else raw["forest"]
        if not isinstance(forest_raw, dict):
            raise ValueError(f"forest must be an object, got {forest_raw!r}")
        forest_keys = {f.name for f in fields(ForestConfig)} - {"seed_stream"}
        unknown = sorted(set(forest_raw) - forest_keys)
        if unknown:
            raise ValueError(f"unknown forest field(s): {', '.join(unknown)}")
        kwargs["forest"] = ForestConfig(**forest_raw)
        return cls(**{k: v for k, v in kwargs.items() if v is not None})

    def to_dict(self) -> dict:
        """The fields in declaration order, as JSON values."""
        out = asdict(self)
        out["phi_grid"] = list(self.phi_grid)
        del out["forest"]["seed_stream"]
        return out


@dataclass(frozen=True)
class SweepRow:
    experiment: str
    phi: float
    repetition: int
    metric: str
    class_label: int | None  # display label (raw digit for mnist)
    value: float


def prepare_mnist(paths: dict) -> tuple[LabeledDataset, UnlabeledDataset]:
    """Load the IDX pairs. Training keeps the rows of _MNIST_TRAIN_DIGITS as
    classes 1..6; a test row of any other label is an outlier. A training
    file without rows of one of those digits fails."""
    digit_class = np.full(256, OUTLIER, dtype=np.int64)  # IDX labels are bytes
    digit_class[list(_MNIST_TRAIN_DIGITS)] = np.arange(1, len(_MNIST_TRAIN_DIGITS) + 1)

    features, digits = load_mnist(paths["train_images"], paths["train_labels"])
    labels = digit_class[digits]
    counts = np.bincount(labels, minlength=len(_MNIST_TRAIN_DIGITS) + 1)
    missing = [str(d) for k, d in enumerate(_MNIST_TRAIN_DIGITS, 1) if counts[k] == 0]
    if missing:
        raise ValueError(f"{paths['train_labels']}: no training rows of digit {', '.join(missing)}")
    keep = labels != OUTLIER
    train = LabeledDataset(features[keep], labels[keep], len(_MNIST_TRAIN_DIGITS))

    features, digits = load_mnist(paths["test_images"], paths["test_labels"])
    return train, UnlabeledDataset(features, digit_class[digits])


def check_inputs(config: ExperimentConfig):
    """Check forest.mtry against the feature count and, for mnist, that every
    training digit has at least mnist_per_class rows. Return the mnist
    (train, test) pair that the cells share, or None."""
    mnist_ctx = prepare_mnist(config.mnist_paths) if config.experiment == "mnist" else None
    if mnist_ctx is not None:
        counts = np.bincount(mnist_ctx[0].labels)[1:]  # prepare_mnist found every digit
        k = int(np.argmin(counts))
        if config.mnist_per_class > counts[k]:
            raise ValueError(
                f"mnist_per_class={config.mnist_per_class} exceeds the {counts[k]} training rows "
                f"of digit {_MNIST_TRAIN_DIGITS[k]}"
            )
    n_features = N_FEATURES if mnist_ctx is None else mnist_ctx[0].n_features
    if config.forest.mtry is not None and config.forest.mtry > n_features:
        raise ValueError(
            f"forest.mtry={config.forest.mtry} exceeds the {n_features} features "
            f"of experiment {config.experiment}"
        )
    return mnist_ctx


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
        train, test = mnist_ctx
        train = stratified_subsample(train, config.mnist_per_class, data_rng)
        display = dict(enumerate(_MNIST_TRAIN_DIGITS, 1))

    spec = CorruptionSpec(phi, train.class_count, config.inclusive_resampling)
    noisy = corrupt_labels(train.labels, spec, noise_rng)
    train = LabeledDataset(train.features, noisy, train.class_count)

    model = fit_bcops(
        train, test, config.forest, config.alpha, fit_rng, imbalance_cap=config.imbalance_cap
    )
    for warning in model.warnings:
        print(f"warning: phi={phi}, repetition={rep}: {warning}", file=sys.stderr)
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


def run_sweep(config: ExperimentConfig) -> tuple:
    """Run every (phi, repetition) cell in order; fully deterministic given config."""
    mnist_ctx = check_inputs(config)
    rows = []
    for i, phi in enumerate(config.phi_grid):
        for r in range(config.repetitions):
            try:
                rows += _run_cell(config, mnist_ctx, i, r)
            except Exception as exc:
                raise RuntimeError(
                    f"sweep cell failed (phi={phi}, repetition={r}): {exc}"
                ) from exc
    rows.sort(key=lambda r: (r.phi, r.repetition, r.metric, class_order(r.class_label)))
    return tuple(rows)


def run_metadata(config: ExperimentConfig) -> dict:
    return {
        "config": config.to_dict(),
        "rng": {"seed": config.seed, "cell_stream": STREAM_ID_FORMULA},
        "csv_header": ",".join(CSV_HEADER),
    }


def _write_table(path, header, lines) -> None:
    """Write a CSV file, creating its directory; a failure names the path."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(lines)
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc


def write_csv(rows, path) -> None:
    _write_table(path, CSV_HEADER, ([
        r.experiment, f"{r.phi:.4f}", r.repetition, r.metric,
        "" if r.class_label is None else r.class_label, f"{r.value:.6f}",
    ] for r in rows))


def read_csv(path) -> tuple:
    """Rows of a sweep CSV. A row fails, naming the file and line, without six
    fields, with a non-numeric field, a phi outside [0, 1], a negative
    repetition, a metric, class and value that MetricRecord rejects, an
    experiment other than the first row's, or the (phi, repetition, metric,
    class) of an earlier row."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        rows = []
        seen: dict = {}  # (phi, repetition, metric, class) -> line
        for rec in reader:
            try:
                if len(rec) != len(CSV_HEADER):
                    raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(rec)}")
                exp, phi, rep, metric, cls, value = rec
                row = SweepRow(
                    experiment=exp,
                    phi=float(phi),
                    repetition=int(rep),
                    metric=metric,
                    class_label=None if cls == "" else int(cls),
                    value=float(value),
                )
                if not 0.0 <= row.phi <= 1.0:
                    raise ValueError(f"phi {row.phi} lies outside [0, 1]")
                check_count("repetition", row.repetition, minimum=0)
                MetricRecord(metric, row.value, row.class_label)
                if rows and row.experiment != rows[0].experiment:
                    raise ValueError(f"experiment {exp!r} differs from {rows[0].experiment!r} "
                                     f"of the first row")
                key = (row.phi, row.repetition, row.metric, row.class_label)
                if key in seen:
                    raise ValueError(f"repeats the phi, repetition, metric and class of "
                                     f"line {seen[key]}")
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
            seen[key] = reader.line_num
            rows.append(row)
    return tuple(rows)


def write_summary_csv(summary_rows, path) -> None:
    _write_table(path, ["phi", "metric", "class", "mean", "sd", "n_reps"], ([
        f"{r.phi:.4f}", r.metric_name, "" if r.class_label is None else r.class_label,
        f"{r.mean:.6f}", f"{r.sd:.6f}", r.n_reps,
    ] for r in summary_rows))


def aggregate_result(rows) -> list[SummaryRow]:
    """Mean and sd of each (phi, metric, class) group of rows across repetitions,
    ordered by phi, then metric name, then class."""
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.phi, r.metric, r.class_label), []).append(r.value)
    if not groups:
        raise ValueError("no rows to aggregate")
    out = []
    for phi, metric, label in sorted(groups, key=lambda k: (k[0], k[1], class_order(k[2]))):
        values = np.asarray(groups[phi, metric, label], dtype=np.float64)
        out.append(SummaryRow(
            phi=phi,
            metric_name=metric,
            class_label=label,
            mean=float(values.mean()),
            sd=float(np.std(values, ddof=1)) if values.size > 1 else 0.0,
            n_reps=int(values.size),
        ))
    return out
