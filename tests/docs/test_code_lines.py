"""``tools/code_lines.py``: the counter behind every size figure in
ROADMAP.md and CHANGES.md."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

SOURCE = '''"""Module docstring."""

import os  # trailing comments do not make a line count twice


def f(x):
    """One-line docstring."""
    # a comment line
    return os.path.join(
        x,
        "y",
    )
'''


def test_counts_lines_that_hold_code():
    assert tool.code_lines(SOURCE) == 6


def test_comment_only_and_docstring_only_edits_leave_the_count_unchanged():
    more_comments = SOURCE.replace("    # a comment line\n", "    # one\n    # two\n\n    # three\n")
    longer_docstring = SOURCE.replace(
        '"""One-line docstring."""', '"""Now\n\n    three lines.\n    """'
    )
    assert more_comments != SOURCE and longer_docstring != SOURCE
    assert tool.code_lines(more_comments) == tool.code_lines(SOURCE)
    assert tool.code_lines(longer_docstring) == tool.code_lines(SOURCE)


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return [(int(count), name) for count, name in map(str.split, done.stdout.splitlines())]


def test_directory_argument_equals_the_sum_of_its_files(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "b.py").write_text(SOURCE)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "sub" / "c.py").write_text("y = 2\nz = 3\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    rows = _run(tmp_path / "pkg")
    files = [tmp_path / "pkg" / "a.py", tmp_path / "pkg" / "b.py", tmp_path / "pkg" / "sub" / "c.py"]
    assert rows == [(1, str(files[0])), (6, str(files[1])), (2, str(files[2])), (9, "total")]
    # The same files named one by one give the same lines and total ...
    assert _run(*files) == rows
    # ... and a single file prints no total line.
    assert _run(files[1]) == [(6, str(files[1]))]
