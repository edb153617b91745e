#!/usr/bin/env python
"""Strict-typing ratchet runner: ``mypy --strict`` over the typed surface.

The typed surface is :data:`repro.lint.config.STRICT_TYPED_MODULES` --
the single source of truth shared with the ``typing-missing-annotation``
lint rule (which enforces the AST-checkable half of the contract even
where mypy is not installed).  The ratchet: modules are only ever added
to that tuple, so the strictly-typed surface monotonically grows.

mypy is an *optional* dependency (the test container does not ship it),
so a missing mypy skips gracefully:

* default: print a notice and exit 0 when mypy is absent;
* ``--require``: exit 3 instead (the CI lint job installs mypy and
  passes this so a silently-skipped gate cannot look green).

Exit codes: 0 clean/skipped, 1 type errors, 2 usage error, 3 mypy
missing under ``--require``.
"""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def strict_typed_files() -> list[Path]:
    """The committed strict-typed surface, as existing file paths."""
    sys.path.insert(0, str(SRC))
    from repro.lint.config import STRICT_TYPED_MODULES

    files = []
    for rel in STRICT_TYPED_MODULES:
        path = SRC / rel
        if not path.is_file():
            raise SystemExit(f"strict-typed module missing on disk: {rel}")
        files.append(path)
    return files


def main(argv: list[str] | None = None) -> int:
    """Run the ratchet; see the module docstring for exit codes."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--require",
        action="store_true",
        help="fail (exit 3) when mypy is not installed instead of skipping",
    )
    args = parser.parse_args(argv)

    files = strict_typed_files()
    if importlib.util.find_spec("mypy") is None:
        message = (
            f"typecheck: mypy is not installed; skipping the strict gate "
            f"over {len(files)} module(s)"
        )
        if args.require:
            print(f"{message} -- and --require forbids skipping", file=sys.stderr)
            return 3
        print(message)
        return 0

    cmd = [
        sys.executable,
        "-m",
        "mypy",
        "--config-file",
        str(REPO / "mypy.ini"),
        *map(str, files),
    ]
    print(f"typecheck: mypy --strict over {len(files)} module(s)")
    return subprocess.run(cmd, cwd=REPO).returncode


if __name__ == "__main__":
    sys.exit(main())
