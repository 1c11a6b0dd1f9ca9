"""Command-line entry points: run sweeps, plot CSV results, validate configs.

Config files are JSON with the ExperimentConfig field names. Only --out
overrides a field of the file (output_dir). ``validate`` loads the config
and makes the checks of ``sweep.check_inputs``, then prints the run's size:
cells x forests per cell x trees per forest. Before its first cell, ``run``
creates its output directory, checks that it can write a file there and that
each of its output names there is free or a writable regular file, and makes
the same checks. ``plot`` needs the run's alpha, which sweep.csv lacks.
Sweep cells run in order on one thread; --threads is accepted and ignored.
Each fit warning of a cell goes to stderr with the cell's phi and repetition.
``run`` first raises glibc's heap thresholds, so that the arrays that forest
growth frees at each level stay in the heap instead of going back to the
kernel and faulting in again at the next level.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

from .metrics import METRIC_NAMES
from .svgplot import render_lineplot
from .sweep import (
    CLASS_LABELS,
    ExperimentConfig,
    aggregate_result,
    check_inputs,
    read_csv,
    run_metadata,
    run_sweep,
    write_csv,
    write_summary_csv,
)


def _load_config(path: str) -> ExperimentConfig:
    repeated = []  # keys that one object of the file, nested ones too, holds twice

    def unique(pairs) -> dict:
        repeated.extend(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        return dict(pairs)

    def integer(literal: str) -> int:
        try:
            return int(literal)
        except ValueError:  # more digits than Python converts to an int
            raise ValueError(f"config file {path} holds an integer of "
                             f"{len(literal.lstrip('-'))} digits, too long to read") from None

    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique,
                         parse_int=integer)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}")
    if repeated:
        raise ValueError(f"config file {path} repeats key(s) within an object: {', '.join(repeated)}")
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    return ExperimentConfig.from_dict(raw)


def _keep_freed_heap() -> None:
    """Set glibc's heap thresholds to the values that its dynamic ones reach
    once an 8 MiB block is freed: blocks above 8 MiB are still mmapped, and
    up to 16 MiB of free heap top stays with the process. A no-op where the
    C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no handle on the process, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 8 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD


def _cmd_run(args) -> int:
    _keep_freed_heap()
    config = _load_config(args.config)
    out_dir = Path(args.out or config.output_dir or "results")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        tempfile.TemporaryFile(dir=out_dir).close()
        names = ["sweep.csv", "summary.csv", "run_metadata.json"] + [f"{m}.svg" for m in METRIC_NAMES]
        for path in (out_dir / name for name in names):
            if path.exists() and not (path.is_file() and os.access(path, os.W_OK)):
                raise OSError(f"{path} is not a writable regular file")
    except OSError as exc:
        raise OSError(f"cannot write to output directory {out_dir}: {exc}") from exc

    rows = run_sweep(config)
    write_csv(rows, out_dir / "sweep.csv")
    summary = aggregate_result(rows)
    write_summary_csv(summary, out_dir / "summary.csv")
    (out_dir / "run_metadata.json").write_text(
        json.dumps(run_metadata(config), indent=2) + "\n", encoding="utf-8"
    )
    for metric in METRIC_NAMES:
        (out_dir / f"{metric}.svg").unlink(missing_ok=True)  # drop an earlier run's plot
        if any(r.metric_name == metric for r in summary):
            render_lineplot(summary, metric, out_dir / f"{metric}.svg", alpha=config.alpha)
    print(f"wrote sweep.csv, summary.csv, run_metadata.json and plots to {out_dir}")
    return 0


def _cmd_plot(args) -> int:
    rows = read_csv(args.csv)
    if not rows:
        raise ValueError(f"{args.csv}: no rows to plot")
    summary = aggregate_result(rows)
    render_lineplot(summary, args.metric, args.out, alpha=args.alpha)
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args.config)
    pools = check_inputs(config)
    if pools is None:
        detail = f"phi levels={len(config.phi_grid)}, repetitions={config.repetitions}"
    else:
        _, train_labels, _, truth = pools
        first, *_, last = CLASS_LABELS["mnist"]
        detail = f"train rows={train_labels.size} (digits {first}-{last}), test rows={truth.size}"
    # a cell grows two forests per class, one per fold
    size = (f"{len(config.phi_grid) * config.repetitions} cells x "
            f"{2 * len(CLASS_LABELS[config.experiment])} forests x {config.forest.n_trees} trees")
    print(f"config ok: experiment={config.experiment}, {detail}, {size}")
    return 0


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bcops",
        description="Conformal prediction sets with abstention under label noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a noise sweep from a JSON config")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--out", help="output directory (overrides config output_dir)")
    p_run.add_argument(
        "--threads", type=int, help="accepted and ignored: cells run in order on one thread"
    )
    p_run.set_defaults(func=_cmd_run)

    p_plot = sub.add_parser("plot", help="render an SVG line plot from a sweep CSV")
    p_plot.add_argument("--csv", required=True, help="long-form sweep CSV")
    p_plot.add_argument("--metric", required=True, choices=METRIC_NAMES)
    p_plot.add_argument("--out", required=True, help="output SVG file")
    p_plot.add_argument("--alpha", type=float, required=True, help="the run's alpha (in run_metadata.json)")
    p_plot.set_defaults(func=_cmd_plot)

    p_val = sub.add_parser("validate", help="parse a config and dry-run data loading")
    p_val.add_argument("--config", required=True, help="JSON config file")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
