"""Run the bcops CLI from this checkout's sources, optionally traced.

    python3 benchmarks/launch.py <bcops arguments>
    python3 benchmarks/launch.py --trace SPANS.json <bcops arguments>

``python -m bcops.cli`` returns without running anything (cli.py has no
``__main__`` guard), so this calls ``bcops.cli.cli_main`` itself.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list) -> int:
    if argv[:1] == ["--trace"]:
        from tracing import run_traced

        return run_traced(argv[2:], Path(argv[1]))
    from bcops.cli import cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
