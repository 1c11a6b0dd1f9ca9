"""Span tracing for the traced benchmark run, and the per-layer split.

``install`` replaces the names through which ``bcops.cli``, ``bcops.sweep``
and ``bcops.conformal`` call into each layer with wrappers that record a
span (name, start, end, parent, thread) per call, so the traced run executes
the same program code as the timed one. Spans stay in memory and are written
once, when the run ends. Cells may run in worker threads: a thread with no
open span parents its spans to the main thread's innermost open span.

The wrappers also keep what the cells computed (label corruption, p-value
matrix, forest scores, metrics) so that ``verify_cells`` can recount it after
the run, outside every span.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Corrupted-label fraction must lie within this many binomial sd of phi.
NOISE_SD_LIMIT = 5.0

# Per-layer time metric -> span names whose self times it sums.
LAYER_SPANS = {
    # One metric for the three input layers (datagen; mnist via prepare_mnist;
    # data.stratified_subsample): each workload reaches only some of them, and
    # a time that reads 0 on every run says nothing.
    "data.inputs_s": (
        "datagen.gen_example1_train", "datagen.gen_example1_test", "datagen.gen_example2",
        "sweep.prepare_mnist", "data.stratified_subsample",
    ),
    "noise.s": ("noise.corrupt_labels",),
    "forest.train_s": ("forest.train_forest",),
    "forest.predict_s": ("forest.predict_probability_batch",),
    "conformal.fit_self_s": ("conformal.fit_bcops",),
    "conformal.sets_self_s": ("conformal.predict_all",),
    "metrics.evaluate_s": ("metrics.evaluate",),
    "sweep.self_s": ("sweep.run_sweep",),
    "sweep.cell_self_s": ("sweep._run_cell",),
    "sweep.csv_s": ("sweep.write_csv", "sweep.aggregate_result", "sweep.write_summary_csv"),
    "svgplot.render_s": ("svgplot.render_lineplot",),
    "cli.self_s": ("cli.main",),
}
CELL_SPAN = "sweep._run_cell"


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._open: dict = {}  # thread ident -> stack of open span records
        self._main = threading.main_thread().ident
        self.spans: list = []

    @contextmanager
    def span(self, name: str):
        ident = threading.get_ident()
        with self._lock:
            stack = self._open.setdefault(ident, [])
            outer = stack or self._open.get(self._main) or [None]
            record = {
                "id": next(self._ids),
                "name": name,
                "parent": None if outer[-1] is None else outer[-1]["id"],
                "thread": ident,
            }
            stack.append(record)
        record["start"] = time.monotonic()
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            with self._lock:
                stack.pop()
                self.spans.append(record)


class _Captures(threading.local):
    cell = None  # capture dict of the cell running on this thread
    scores = None  # forest scores of the conformal_p_values call in progress


def install(tracer: Tracer) -> list:
    """Wrap the layer entry points; return the list that collects each
    finished cell's captures."""
    import bcops.cli as cli
    import bcops.conformal as conformal
    import bcops.sweep as sweep

    cells: list = []
    local = _Captures()

    def wrap(module, attr, after=None):
        fn = getattr(module, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                out = fn(*args, **kwargs)
            if after is not None:
                after(record, out, *args, **kwargs)
            return out

        setattr(module, attr, traced)

    run_cell = sweep._run_cell

    @functools.wraps(run_cell)
    def traced_cell(config, mnist_ctx, phi_index, rep):
        local.cell = {"phi": config.phi_grid[phi_index], "rep": rep}
        try:
            with tracer.span(CELL_SPAN):
                return run_cell(config, mnist_ctx, phi_index, rep)
        finally:
            cells.append(local.cell)
            local.cell = None

    p_values = conformal.conformal_p_values

    @functools.wraps(p_values)
    def captured_p_values(model):
        local.scores = {}
        try:
            pv = p_values(model)
        finally:
            scores, local.scores = local.scores, None
        local.cell.update(model=model, pv=pv, scores=scores)
        return pv

    def after_noise(record, out, labels, spec, rng):
        local.cell["noise"] = (np.asarray(labels), out, spec.phi)

    def after_train(record, out, data, config):
        record["trees"] = len(out.trees)
        record["nodes"] = sum(int(t.feature.size) for t in out.trees)
        record["train_rows"] = int(data.targets.size)

    def after_predict(record, out, model, x):
        record["tree_rows"] = int(out.shape[0]) * len(model.trees)
        if local.scores is not None:
            local.scores[id(model)] = out

    def after_evaluate(record, out, sets, truth):
        local.cell.update(records=out, truth=np.asarray(truth))

    sweep._run_cell = traced_cell
    conformal.conformal_p_values = captured_p_values
    wrap(cli, "run_sweep")
    for attr in ("prepare_mnist", "gen_example1_train", "gen_example1_test", "gen_example2",
                 "stratified_subsample", "fit_bcops", "predict_all"):
        wrap(sweep, attr)
    wrap(sweep, "corrupt_labels", after_noise)
    wrap(sweep, "evaluate", after_evaluate)
    wrap(conformal, "train_forest", after_train)
    wrap(conformal, "predict_probability_batch", after_predict)
    for attr in ("write_csv", "aggregate_result", "write_summary_csv", "render_lineplot"):
        wrap(cli, attr)
    return cells


def run_traced(cli_argv: list, out_path: Path) -> int:
    """Run the CLI under the tracer, recount the cells, write everything to
    ``out_path`` as JSON and return the CLI's exit code."""
    from bcops.cli import cli_main

    tracer = Tracer()
    cells = install(tracer)
    with tracer.span("cli.main"):
        rc = cli_main(cli_argv)
    done = time.monotonic()
    failures = verify_cells(cells) if rc == 0 else []
    out_path.write_text(json.dumps({
        "rc": rc,
        "done": done,
        "failures": failures,
        "spans": tracer.spans,
    }), encoding="utf-8")
    return rc


def verify_cells(cells: list) -> list:
    """Recount every traced cell from what it computed; return failures."""
    failures = []
    for cell in cells:
        where = f"phi={cell['phi']}, repetition={cell['rep']}"
        for check in (_check_noise, _check_p_values, _check_metrics):
            problem = check(cell)
            if problem:
                failures.append(f"{where}: {problem}")
    return failures


def _check_noise(cell):
    before, after, phi = cell["noise"]
    n = before.size
    changed = float(np.count_nonzero(before != after)) / n
    limit = NOISE_SD_LIMIT * math.sqrt(phi * (1.0 - phi) / n) + 1e-12
    if abs(changed - phi) > limit:
        return f"changed-label fraction {changed:.4f} lies more than {NOISE_SD_LIMIT} sd from phi"
    return None


def _check_p_values(cell):
    """Brute-force rank count of every p-value against its calibration scores."""
    model, pv, scores = cell["model"], cell["pv"], cell["scores"]
    if pv.shape != (model.fold_assignment.size, model.class_count):
        return f"p-value matrix has shape {pv.shape}"
    for (k, fold), clf in model.classifiers.items():
        rows = np.nonzero(model.fold_assignment == 3 - fold)[0]
        cal = model.calibration_scores[(k, fold)]
        if clf is None or cal.size == 0:
            expected = np.ones(rows.size)
        else:
            s = scores.get(id(clf))
            if s is None or s.shape != rows.shape:
                return f"class {k}, fold {fold}: test fold {3 - fold} was not scored by its model"
            at_or_below = np.zeros(rows.size, dtype=np.int64)
            for c in cal:
                at_or_below += c <= s
            expected = (1 + at_or_below) / (cal.size + 1)
        if not np.array_equal(pv[rows, k - 1], expected):
            return f"class {k}, fold {fold}: p-values differ from the rank count"
    return None


def _check_metrics(cell):
    """Double-loop recount of coverage and abstention from the p-values."""
    pv, truth, alpha = cell["pv"].tolist(), cell["truth"].tolist(), cell["model"].alpha
    hits: dict = {}
    totals: dict = {}
    outliers = abstained = 0
    for row, t in zip(pv, truth):
        if t == 0:
            outliers += 1
            abstained += all(p <= alpha for p in row)
        else:
            totals[t] = totals.get(t, 0) + 1
            hits[t] = hits.get(t, 0) + (row[t - 1] > alpha)
    expected = {("class_coverage", k): hits[k] / totals[k] for k in totals}
    if totals:
        expected[("mean_coverage", None)] = sum(hits[k] / totals[k] for k in totals) / len(totals)
    if outliers:
        expected[("abstention_rate", None)] = abstained / outliers
    got = {(r.metric_name, r.class_label): r.value for r in cell["records"]}
    if got.keys() != expected.keys():
        return f"metric rows {sorted(got, key=str)} differ from the recount's"
    for key, value in expected.items():
        if abs(got[key] - value) > 1e-12:
            return f"{key[0]} {key[1]} is {got[key]}, recount gives {value}"
    return None


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list, launched: float, done: float) -> dict:
    """Per-layer figures of one traced run.

    A span's self time is its duration minus the part of it that its child
    spans cover. ``launched`` and ``done`` (same monotonic clock as the
    spans) bound the traced wall time, from process launch to the CLI's
    return.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    self_time: dict = {}
    for s in spans:
        inner = [(max(a, s["start"]), min(b, s["end"])) for a, b in children.get(s["id"], ())]
        busy = s["end"] - s["start"] - _union_length(iv for iv in inner if iv[1] > iv[0])
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + busy

    out = {metric: sum(self_time.get(n, 0.0) for n in names) for metric, names in LAYER_SPANS.items()}
    main = next(s for s in spans if s["name"] == "cli.main")
    out["cli.startup_s"] = main["start"] - launched
    out["trace.sweep_s"] = done - launched

    def total(key, name):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    out["forest.trees"] = total("trees", "forest.train_forest")
    out["forest.nodes"] = total("nodes", "forest.train_forest")
    out["forest.train_rows"] = total("train_rows", "forest.train_forest")
    out["forest.tree_rows"] = total("tree_rows", "forest.predict_probability_batch")
    out["forest.nodes_per_s"] = out["forest.nodes"] / out["forest.train_s"]
    out["forest.tree_rows_per_s"] = out["forest.tree_rows"] / out["forest.predict_s"]
    cell_spans = [s["end"] - s["start"] for s in spans if s["name"] == CELL_SPAN]
    out["sweep.cells"] = len(cell_spans)
    out["sweep.cell_s"] = statistics.median(cell_spans)
    return out


def unattributed_s(layers: dict) -> float:
    """Traced wall time not covered by start-up plus the layer self times.

    Zero up to rounding when cells run on one thread; negative when cells
    overlap on several."""
    return layers["trace.sweep_s"] - layers["cli.startup_s"] - sum(
        layers[m] for m in LAYER_SPANS
    )
