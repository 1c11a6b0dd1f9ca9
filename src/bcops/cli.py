"""Command-line entry points: run sweeps, plot CSV results, validate configs.

Config files are JSON with the ExperimentConfig field names. Flag overrides
win over the file. ``validate`` loads the config and makes the checks of
``sweep.check_inputs``, then prints the run's size: cells x forests per
cell x trees per forest. Before its first cell, ``run`` creates its output
directory, checks that it can write a file there and that each of its output
names there is free or a writable regular file, and makes the same checks.
Sweep cells run in order on one thread; --threads is accepted and ignored.
Each fit warning of a cell goes to stderr with the cell's phi and repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from .metrics import METRIC_NAMES
from .svgplot import render_lineplot
from .sweep import (
    CLASS_COUNTS,
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
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    return ExperimentConfig.from_dict(raw)


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.reps is not None:
        config = replace(config, repetitions=args.reps)
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
        detail = f"train rows={train_labels.size} (digits 0-5), test rows={truth.size}"
    # a cell grows two forests per class, one per fold
    size = (f"{len(config.phi_grid) * config.repetitions} cells x "
            f"{2 * CLASS_COUNTS[config.experiment]} forests x {config.forest.n_trees} trees")
    print(f"config ok: experiment={config.experiment}, {detail}, {size}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcops",
        description="Conformal prediction sets with abstention under label noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a noise sweep from a JSON config")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--out", help="output directory (overrides config output_dir)")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--reps", type=int, help="override the repetition count")
    p_run.add_argument(
        "--threads", type=int, help="accepted and ignored: cells run in order on one thread"
    )
    p_run.set_defaults(func=_cmd_run)

    p_plot = sub.add_parser("plot", help="render an SVG line plot from a sweep CSV")
    p_plot.add_argument("--csv", required=True, help="long-form sweep CSV")
    p_plot.add_argument("--metric", required=True, choices=METRIC_NAMES)
    p_plot.add_argument("--out", required=True, help="output SVG file")
    p_plot.add_argument("--alpha", type=float, default=0.05, help="reference level for coverage plots")
    p_plot.set_defaults(func=_cmd_plot)

    p_val = sub.add_parser("validate", help="parse a config and dry-run data loading")
    p_val.add_argument("--config", required=True, help="JSON config file")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
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
