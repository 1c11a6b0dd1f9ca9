"""Config-driven noise sweeps: run the full pipeline over a phi grid with
repetitions, collect long-form metric rows, and round-trip them as CSV.

Cells run in order on one thread. Cell (phi index i, repetition r) draws
from stream id i*10**6 + r, so its rows depend on nothing but the config.
Each fit warning of a cell is printed on stderr with the cell's phi and
repetition, naming classes by their labels in sweep.csv.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .conformal import fit_bcops, never_leaves_a_set, predict_all
from .data import OUTLIER, RngStream, check_count, check_range, stratified_subsample
from .datagen import N_FEATURES, ROWS_PER_CLASS, gen_example1_test, gen_example1_train, gen_example2
from .forest import ForestConfig
from .metrics import CLASS_COVERAGE, METRIC_NAMES, SummaryRow, class_order, evaluate
from .mnist import load_mnist
from .noise import CorruptionSpec, corrupt_labels

# The labels of classes 1..K in sweep.csv and the warnings. mnist's classes are
# these digits, and a test row of any other digit is an outlier.
CLASS_LABELS = {"example1": (1, 2), "example2": tuple(range(1, N_FEATURES + 1)),
                "mnist": (0, 1, 2, 3, 4, 5)}
_STREAMS_PER_PHI = 10**6
CSV_HEADER = ["experiment", "phi", "repetition", "metric", "class", "value"]

_DEFAULT_PHI_GRID = tuple(round(0.05 * i, 2) for i in range(21))
_DEFAULT_REPETITIONS = {"example1": 100, "example2": 20, "mnist": 5}

_MNIST_PATH_KEYS = ("train_images", "train_labels", "test_images", "test_labels")

# Types of the fields that no check below rejects when wrongly typed.
_FIELD_TYPES = {
    "phi_grid": (list, tuple), "forest": (ForestConfig,), "mnist_paths": (dict, type(None)),
    "inclusive_resampling": (bool,), "output_dir": (str, type(None)),
}


def _known(what: str, raw, names) -> dict:
    """The non-null fields of the object ``raw``; a key outside ``names`` fails."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be an object, got {raw!r}")
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise ValueError(f"unknown {what} field(s): {', '.join(unknown)}")
    return {k: v for k, v in raw.items() if v is not None}


def _labels_of(experiment) -> tuple:
    """The class labels of an experiment; an unknown experiment fails."""
    if experiment not in tuple(CLASS_LABELS):  # `in` on the dict would hash a JSON list
        raise ValueError(f"experiment must be one of {tuple(CLASS_LABELS)}, got {experiment!r}")
    return CLASS_LABELS[experiment]


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
        _labels_of(self.experiment)
        for name, kinds in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, kinds):
                raise ValueError(f"{name} has the wrong type: {value!r}")
        check_range("alpha", self.alpha, 0, 1, closed=False)
        if not self.phi_grid:
            raise ValueError("phi_grid needs at least one value")
        # checked before float(), which overflows on a JSON integer of 400 digits
        for p in self.phi_grid:
            check_range("phi_grid values", p, 0, 1)
        # adding 0.0 turns -0.0 into 0.0, which sweep.csv prints as 0.0000
        grid = tuple(float(p) + 0.0 for p in self.phi_grid)
        object.__setattr__(self, "phi_grid", grid)
        for a, b in zip(grid, grid[1:]):
            # values in [0, 1] print at one width, so their strings compare as
            # the printed numbers; rounding keeps order, so this also asks a < b
            if f"{b:.4f}" <= f"{a:.4f}":
                raise ValueError(f"phi_grid must be strictly ascending at the 4 decimals of "
                                 f"sweep.csv: {a} (printed {a:.4f}) is followed by {b} "
                                 f"(printed {b:.4f})")
        if self.repetitions is None:
            object.__setattr__(self, "repetitions", _DEFAULT_REPETITIONS[self.experiment])
        check_count("repetitions", self.repetitions)
        # a larger count would reuse the streams of the next phi index
        check_range("repetitions", self.repetitions, 1, _STREAMS_PER_PHI - 1)
        RngStream(self.seed)  # the cells' streams check the seed
        check_range("imbalance_cap", self.imbalance_cap, 0, np.inf, closed=False)
        if self.experiment != "mnist":
            for name in ("mnist_paths", "mnist_per_class"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} applies only to experiment mnist, "
                                     f"not {self.experiment}")
            return
        paths = _known("mnist_paths", self.mnist_paths or {}, _MNIST_PATH_KEYS)
        missing = [k for k in _MNIST_PATH_KEYS if not isinstance(paths.get(k), str)]
        if missing:
            raise ValueError(f"mnist_paths missing or non-string field(s): {', '.join(missing)}")
        if self.mnist_per_class is None:
            object.__setattr__(self, "mnist_per_class", 500)
        check_count("mnist_per_class", self.mnist_per_class)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build a config from parsed JSON; a null value, in the config or in
        its forest, means the default."""
        kwargs = _known("config", raw, [f.name for f in fields(cls)])
        forest_names = [f.name for f in fields(ForestConfig)]
        kwargs["forest"] = ForestConfig(**_known("forest", kwargs.get("forest", {}), forest_names))
        return cls(kwargs.pop("experiment", None), **kwargs)  # a missing experiment fails as None


@dataclass(frozen=True)
class SweepRow:
    """One row of sweep.csv. Every row rule is checked here, where a row is made."""

    experiment: str
    phi: float
    repetition: int
    metric: str
    class_label: int | None  # one of CLASS_LABELS[experiment]
    value: float

    def __post_init__(self) -> None:
        labels = _labels_of(self.experiment)
        check_range("phi", self.phi, 0, 1)
        check_count("repetition", self.repetition, minimum=0)
        if self.metric not in METRIC_NAMES:
            raise ValueError(f"unknown metric {self.metric!r}")
        if (self.class_label is not None) != (self.metric == CLASS_COVERAGE):
            raise ValueError(f"a class is given iff the metric is {CLASS_COVERAGE}")
        if self.class_label is not None:
            if self.class_label not in labels:
                raise ValueError(f"{self.experiment} has no class {self.class_label!r}, only {labels}")
            check_count("class", self.class_label, minimum=0)  # 1.0 and True equal a label
        check_range("value", self.value, 0, 1)


def prepare_mnist(paths: dict) -> tuple:
    """Load the IDX pairs as the raw pools (train pixels, train classes,
    test pixels, test truth), pixels uint8. Training keeps the rows of the
    digits in CLASS_LABELS["mnist"] as classes 1..6; a test row of any other
    label is an outlier."""
    digit_class = np.full(256, OUTLIER, dtype=np.int64)  # IDX labels are bytes
    digit_class[list(CLASS_LABELS["mnist"])] = np.arange(1, len(CLASS_LABELS["mnist"]) + 1)

    pixels, digits = load_mnist(paths["train_images"], paths["train_labels"])
    labels = digit_class[digits]
    keep = labels != OUTLIER
    train_pixels, train_labels = pixels[keep], labels[keep]

    pixels, digits = load_mnist(paths["test_images"], paths["test_labels"])
    return train_pixels, train_labels, pixels, digit_class[digits]


def check_inputs(config: ExperimentConfig):
    """Check forest.mtry against the feature count and, for mnist, that every
    training digit has at least mnist_per_class rows and that the test file
    has at least 2 rows, one per fold, from labels and shapes alone. Then warn
    on stderr when a class with the expected calibration size, m rows per
    test fold, would be in every set. Return the mnist raw pools of
    ``prepare_mnist``, or None."""
    pools = prepare_mnist(config.mnist_paths) if config.experiment == "mnist" else None
    n_features = N_FEATURES
    if pools is not None:
        train_pixels, train_labels, test_pixels, _ = pools
        counts = np.bincount(train_labels, minlength=len(CLASS_LABELS["mnist"]) + 1)[1:]
        k = int(np.argmin(counts))
        if config.mnist_per_class > counts[k]:
            raise ValueError(
                f"mnist_per_class={config.mnist_per_class} exceeds the {counts[k]} training rows "
                f"of digit {CLASS_LABELS['mnist'][k]}"
            )
        if test_pixels.shape[0] < 2:
            raise ValueError(
                f"{config.mnist_paths['test_images']}: the test set needs at least 2 rows, "
                f"one per fold, got {test_pixels.shape[0]}"
            )
        n_features = train_pixels.shape[1]
    if config.forest.mtry is not None and config.forest.mtry > n_features:
        raise ValueError(
            f"forest.mtry={config.forest.mtry} exceeds the {n_features} features "
            f"of experiment {config.experiment}"
        )
    # half of a class's training rows calibrate each test fold
    m = (config.mnist_per_class if pools is not None else ROWS_PER_CLASS) // 2
    if never_leaves_a_set(m, config.alpha):
        print(f"warning: alpha {config.alpha} with an expected {m} calibration rows per class and "
              f"test fold: p-values are at least 1/{m + 1} > alpha, so classes stay in every set",
              file=sys.stderr)
    return pools


def _run_cell(config: ExperimentConfig, mnist_ctx, phi_index: int, rep: int):
    phi = config.phi_grid[phi_index]
    stream = RngStream(config.seed, phi_index * _STREAMS_PER_PHI + rep)
    data_rng, noise_rng, fit_rng = stream.derive(1), stream.derive(2), stream.derive(3)

    label = dict(enumerate(CLASS_LABELS[config.experiment], 1))  # label.get(None) is None
    class_count = len(label)
    if config.experiment == "example1":
        x, labels = gen_example1_train(data_rng.derive(1))
        test_x, truth = gen_example1_test(data_rng.derive(2))
    elif config.experiment == "example2":
        x, labels, test_x, truth = gen_example2(data_rng)
    else:
        pixels, pool_labels, test_x, truth = mnist_ctx
        rows = stratified_subsample(pool_labels, class_count, config.mnist_per_class, data_rng)
        x, labels = pixels[rows], pool_labels[rows]

    spec = CorruptionSpec(phi, class_count, config.inclusive_resampling)
    noisy = corrupt_labels(labels, spec, noise_rng)
    model = fit_bcops(x, noisy, class_count, test_x, config.forest, config.alpha, fit_rng,
                      imbalance_cap=config.imbalance_cap)
    for k, fold, m in model.warnings:
        print(f"warning: phi={phi}, repetition={rep}: class {label[k]} has {m} calibration "
              f"rows for test fold {fold}: p-values there are at least 1/{m + 1} > alpha "
              f"{config.alpha}, so it is in every set", file=sys.stderr)
    sets = predict_all(model)
    return [
        SweepRow(config.experiment, phi, rep, r.metric_name, label.get(r.class_label), r.value)
        for r in evaluate(sets, truth)
    ]


def run_sweep(config: ExperimentConfig) -> tuple:
    """Run every (phi, repetition) cell in order; fully deterministic given config."""
    # the mnist cells share the uint8 test pixels, a view of their file's payload
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
        "config": asdict(config),
        "rng": {"seed": config.seed, "cell_stream": "stream_id = phi_index * 10**6 + repetition"},
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
    """Rows of a sweep CSV. A row without six fields, with a non-numeric or
    oversized field, with fields that SweepRow rejects, with an experiment other
    than the first row's or with the key of an earlier row fails, naming the
    file and line; a file that is not UTF-8 fails, naming the file."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != CSV_HEADER:
                raise ValueError(f"unexpected CSV header {header}")
            rows = []
            seen: dict = {}  # (phi, repetition, metric, class) -> line
            for rec in reader:
                if len(rec) != len(CSV_HEADER):
                    raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(rec)}")
                exp, phi, rep, metric, cls, value = rec
                row = SweepRow(exp, float(phi), int(rep), metric,
                               None if cls == "" else int(cls), float(value))
                if rows and row.experiment != rows[0].experiment:
                    raise ValueError(f"experiment {exp!r} differs from {rows[0].experiment!r} "
                                     f"of the first row")
                key = (row.phi, row.repetition, row.metric, row.class_label)
                if key in seen:
                    raise ValueError(f"repeats the phi, repetition, metric and class of "
                                     f"line {seen[key]}")
                seen[key] = reader.line_num
                rows.append(row)
        except (ValueError, csv.Error) as exc:
            # a decode error comes from a block read ahead, not from the last line read
            line = 0 if isinstance(exc, UnicodeDecodeError) else reader.line_num
            raise ValueError(f"{path}{f', line {line}' if line else ''}: {exc}") from None
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
