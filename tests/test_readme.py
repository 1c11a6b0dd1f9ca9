"""The README's library example runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_library_example_runs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    # -W error: a warning fails the example, as it fails a test of the suite
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", blocks[0]],
        cwd=REPO, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # one record per class, the mean coverage and the abstention rate
    assert proc.stdout.count("MetricRecord(") == 4, proc.stdout
