"""Sweep benchmark: times ``bcops run`` on pinned workloads and checks its output.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout that holds it. Each round
with ``--trace 0`` launches ``bcops validate`` twice and ``bcops run``
once, each in a fresh process, and checks what the run wrote. Rounds repeat
while another one still fits in ``--seconds``. The last line of standard
output is one JSON object with ``correct``, ``attempted`` and ``failed``
(sweep cells) and the medians of the end-to-end metrics. With ``--trace 1``
a round is one untraced and one traced run, and the metrics are the
per-layer split of the traced run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_run"
LAUNCH = HERE / "launch.py"

from workloads import WORKLOADS, write_config  # noqa: E402

SETUP_SAMPLES = 2  # validate processes per round
# A child still running this long after the benchmark started is killed.
DEADLINE_S = 170.0
RSS_POLL_S = 0.5

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "data.inputs_s": "s", "noise.s": "s",
    "forest.train_s": "s", "forest.trees": "count", "forest.nodes": "count",
    "forest.train_rows": "count", "forest.nodes_per_s": "1/s",
    "forest.predict_s": "s", "forest.tree_rows": "count", "forest.tree_rows_per_s": "1/s",
    "conformal.fit_self_s": "s", "conformal.sets_self_s": "s", "metrics.evaluate_s": "s",
    "sweep.cells": "count", "sweep.cell_s": "s", "sweep.self_s": "s",
    "sweep.cell_self_s": "s", "sweep.csv_s": "s", "sweep.csv_bytes": "bytes",
    "svgplot.render_s": "s", "cli.startup_s": "s", "cli.self_s": "s",
    "trace.sweep_s": "s", "trace.overhead_s": "s",
}
# On one thread the spans partition the traced wall time; allow for the
# clock reads between them.
PARTITION_SLACK_S = 1e-3


class ChildRun:
    """One bcops process: exit code, wall time and peak resident memory."""

    def __init__(self, argv: list, log: Path, deadline: float):
        self.log = log
        with log.open("wb") as out:
            self.launched = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCH), *argv], stdout=out, stderr=subprocess.STDOUT, cwd=ROOT
            )
            reaped: dict = {}
            done = threading.Event()

            def reap():
                _, status, usage = os.wait4(proc.pid, 0)
                reaped.update(end=time.monotonic(), status=status, usage=usage)
                done.set()

            threading.Thread(target=reap, daemon=True).start()
            peaks: dict = {}
            try:
                while not done.wait(RSS_POLL_S):
                    _sample_tree_hwm(proc.pid, peaks)
                    if time.monotonic() > deadline:
                        proc.kill()
            finally:
                if not done.is_set():  # interrupted: stop the child before leaving
                    proc.kill()
                    done.wait()
            proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
        self.returncode = proc.returncode
        self.wall_s = reaped["end"] - self.launched
        # ru_maxrss covers the process and the largest of its reaped children;
        # the polled high-water marks sum over every process it started.
        self.peak_kib = max(reaped["usage"].ru_maxrss, sum(peaks.values()))

    @property
    def ok(self) -> bool:
        return self.returncode == 0

    def tail(self) -> str:
        return "\n".join(self.log.read_text(errors="replace").splitlines()[-5:])


def _sample_tree_hwm(root_pid: int, peaks: dict) -> None:
    """Record VmHWM (KiB) of root_pid and of every process descended from it."""
    children: dict = {}
    try:
        entries = [e.name for e in os.scandir("/proc") if e.name.isdigit()]
    except OSError:
        return
    for name in entries:
        try:
            stat = Path(f"/proc/{name}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(name))
    tree = [root_pid]
    for pid in tree:
        tree.extend(children.get(pid, ()))
    for pid in tree:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peaks[pid] = max(peaks.get(pid, 0), int(line.split()[1]))


def _result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "bcops" / "cli.py").is_file():
        print(f"error: no bcops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from checks import check_run
    from tracing import layer_metrics, unattributed_s

    workload = WORKLOADS[args.workload]
    work = OUT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    config = str(write_config(workload, args.seed, work))
    failures: list = []
    attempted = failed = 0

    def sweep(tag: str, threads: int = workload.threads, traced: bool = False):
        """Launch one bcops run; return it (None if it failed) and its output directory."""
        nonlocal attempted, failed
        out = work / tag
        out.mkdir(parents=True, exist_ok=True)
        argv = ["run", "--config", config, "--threads", str(threads), "--out", str(out)]
        if traced:
            argv = ["--trace", str(out / "trace.json")] + argv
        child = ChildRun(argv, work / f"{tag}.log", deadline)
        attempted += workload.cells
        if not child.ok:
            failed += workload.cells
            print(f"{tag}: bcops run exited {child.returncode}:\n{child.tail()}", file=sys.stderr)
            return None, out
        if first_csv is not None and (out / "sweep.csv").read_bytes() != first_csv:
            failures.append(f"{tag}: sweep.csv differs from the first run's")
        return child, out

    first_csv = None
    reference = None
    if workload.threads > 1 and not args.trace:
        # Output must not depend on the worker count: compare with one worker.
        ref, ref_out = sweep("reference-1w", threads=1)
        attempted = failed = 0  # preparation, not a measured round
        if ref is None:
            failures.append("the 1-worker reference run failed")
        else:
            reference = (ref_out / "sweep.csv").read_bytes()

    setup_s, sweep_s, peak_mib, layers = [], [], [], []
    start = time.monotonic()
    round_no = 0
    while True:
        round_start = time.monotonic()
        if not args.trace:
            for i in range(SETUP_SAMPLES):
                v = ChildRun(["validate", "--config", config], work / f"validate-{round_no}-{i}.log", deadline)
                if not v.ok:
                    print(f"error: bcops validate exited {v.returncode}:\n{v.tail()}", file=sys.stderr)
                    return 1
                setup_s.append(v.wall_s)
        child, out = sweep(f"run-{round_no}")
        if child is not None:
            sweep_s.append(child.wall_s)
            peak_mib.append(child.peak_kib / 1024)
            if first_csv is None:
                first_csv = (out / "sweep.csv").read_bytes()
                failures += check_run(out, workload)
                if reference is not None and first_csv != reference:
                    failures.append("sweep.csv differs from the 1-worker run of the same config")
        if args.trace:
            traced, out = sweep(f"traced-{round_no}", traced=True)
            if traced is not None:
                record = json.loads((out / "trace.json").read_text(encoding="utf-8"))
                failures += [f"traced run, {f}" for f in record["failures"]]
                split = layer_metrics(record["spans"], traced.launched, record["done"])
                split["sweep.csv_bytes"] = sum(
                    (out / name).stat().st_size for name in ("sweep.csv", "summary.csv")
                )
                if workload.threads == 1 and abs(unattributed_s(split)) > PARTITION_SLACK_S:
                    failures.append(f"traced spans leave {unattributed_s(split):.6f} s unattributed")
                layers.append(split)
        round_no += 1
        now = time.monotonic()
        if now - start + (now - round_start) > args.seconds or now > deadline:
            break

    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    if not args.trace:
        if not sweep_s:
            print("error: no run completed", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": statistics.median(setup_s),
            "sweep_s": statistics.median(sweep_s),
            "peak_rss_mb": statistics.median(peak_mib),
        }
        units = END_TO_END_UNITS
    else:
        if not layers or not sweep_s:
            print("error: no traced run completed", file=sys.stderr)
            return 1
        metrics = {name: statistics.median(s[name] for s in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = metrics["trace.sweep_s"] - statistics.median(sweep_s)
        units = LAYER_UNITS
    print(f"{workload.name}: seed {args.seed}, {round_no} round(s), sweep_s {sweep_s}")
    print(_result(not failures, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
