"""The README's library example runs as printed, and its CLI lines name only
flags that the CLI has."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bcops.cli import cli_main

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


def _flags(command):
    """The flags of a subcommand and the required ones among them, read from
    the usage line of its --help, where an optional flag stands in brackets."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), pytest.raises(SystemExit):
        cli_main([command, "--help"])
    usage = text.getvalue().split("\n\n")[0]
    flags = set(re.findall(r"--[a-z][a-z-]*", usage))
    return flags, flags - set(re.findall(r"\[(--[a-z][a-z-]*)", usage))


def test_cli_flags_named_in_readme_exist():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    usages = {command: _flags(command) for command in ("run", "plot", "validate")}
    text, in_sh, commands = [], False, []
    for line in readme.splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("bcops "):
            commands.append(line.split())
        elif not in_sh or line.startswith("#"):  # the pip and pytest lines name their own flags
            text.append(line)
    assert {words[1] for words in commands} == set(usages)
    for words in commands:
        flags, required = usages[words[1]]
        named = {word for word in words if word.startswith("--")}
        assert named <= flags and required <= named, words
    every_flag = set().union(*(flags for flags, _ in usages.values()))
    assert set(re.findall(r"--[a-z][a-z-]*", "\n".join(text))) <= every_flag
