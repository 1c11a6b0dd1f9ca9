"""Checks on the files one ``bcops run`` writes.

They recount from ``sweep.csv`` and test properties the method must have;
none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path

from workloads import ALPHA, Workload

SWEEP_HEADER = ["experiment", "phi", "repetition", "metric", "class", "value"]
SUMMARY_HEADER = ["phi", "metric", "class", "mean", "sd", "n_reps"]
SVG_FILES = ("class_coverage.svg", "mean_coverage.svg", "abstention_rate.svg")

# Both files print values at 6 decimals, so a recount from rounded values
# may differ from a printed mean by two half-units of the last place.
ROUNDING = 1e-6 + 1e-12

# phi-0 class coverage may fall this many sd below 1 - alpha. The sd is
# binomial in the class's test rows and in its calibration rows. At 7 sd, a
# simulation of the exact conformal law (Beta-distributed coverage given the
# calibration set, 4 million draws per workload) put the chance that a
# correct program fails below 1e-6 per class and cell.
COVERAGE_SD_LIMIT = 7.0


def _read(path: Path, header: list) -> list:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header is {rows[:1]}, expected {header}")
    return rows[1:]


def coverage_floor(n_test: int, n_train: int) -> float:
    sd = math.sqrt(ALPHA * (1 - ALPHA) * (1 / n_test + 1 / n_train))
    return 1 - ALPHA - COVERAGE_SD_LIMIT * sd


def check_run(out_dir: Path, workload: Workload) -> list:
    """Return the failed checks of one run's outputs (empty when all pass)."""
    try:
        sweep_rows = _read(out_dir / "sweep.csv", SWEEP_HEADER)
        summary_rows = _read(out_dir / "summary.csv", SUMMARY_HEADER)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    failures = []

    cells: dict = {}
    for _, phi, rep, metric, cls, value in sweep_rows:
        cells.setdefault((phi, int(rep)), []).append((metric, cls, float(value)))
    expected_cells = {(f"{p:.4f}", 0) for p in workload.phi_grid}
    if set(cells) != expected_cells:
        failures.append(f"sweep.csv cells {sorted(cells)} differ from {sorted(expected_cells)}")

    labels = sorted(str(c) for c in workload.class_labels)
    floor = coverage_floor(workload.test_per_class, workload.train_per_class)
    for (phi, rep), rows in sorted(cells.items()):
        where = f"cell phi={phi} repetition={rep}"
        by_metric: dict = {}
        for metric, cls, value in rows:
            by_metric.setdefault(metric, []).append((cls, value))
            if not 0.0 <= value <= 1.0:
                failures.append(f"{where}: {metric} {cls} = {value} outside [0, 1]")
        coverage = by_metric.get("class_coverage", [])
        if sorted(cls for cls, _ in coverage) != labels:
            failures.append(f"{where}: class_coverage rows for {sorted(c for c, _ in coverage)}")
            continue
        if len(by_metric.get("mean_coverage", ())) != 1 or len(by_metric.get("abstention_rate", ())) != 1:
            failures.append(f"{where}: needs one mean_coverage and one abstention_rate row")
            continue
        if set(by_metric) != {"class_coverage", "mean_coverage", "abstention_rate"}:
            failures.append(f"{where}: unexpected metrics {sorted(by_metric)}")
        recount = sum(v for _, v in coverage) / len(coverage)
        mean = by_metric["mean_coverage"][0][1]
        if abs(mean - recount) > ROUNDING:
            failures.append(f"{where}: mean_coverage {mean} but its class rows average {recount}")
        if float(phi) == 0.0:
            for cls, value in coverage:
                if value < floor:
                    failures.append(f"{where}: class {cls} coverage {value} below {floor:.4f}")

    groups: dict = {}
    for _, phi, _, metric, cls, value in sweep_rows:
        groups.setdefault((phi, metric, cls), []).append(float(value))
    seen = set()
    for phi, metric, cls, mean, _, n_reps in summary_rows:
        key = (phi, metric, cls)
        seen.add(key)
        values = groups.get(key)
        if values is None:
            failures.append(f"summary.csv row {key} has no sweep.csv rows")
        elif int(n_reps) != len(values) or abs(float(mean) - sum(values) / len(values)) > ROUNDING:
            failures.append(f"summary.csv row {key}: mean {mean}, n_reps {n_reps} differ from the recount")
    if seen != set(groups):
        failures.append("summary.csv does not cover every (phi, metric, class) of sweep.csv")

    for name in SVG_FILES:
        try:
            root = ET.parse(out_dir / name).getroot()
        except (OSError, ET.ParseError) as exc:
            failures.append(f"{name}: {exc}")
            continue
        if not root.tag.endswith("svg"):
            failures.append(f"{name}: root element is {root.tag}")
    return failures
