"""Print the lines of ``src/sembit`` that a pytest run never executes.

Runs pytest in process on the given arguments (default: the tier-1
suite, ``-q --continue-on-collection-errors`` over the ``testpaths`` of
``pyproject.toml``) with a ``sys.settrace`` hook that traces only code
objects whose file lies under ``src/sembit``, and records each line they
run.  A module's executable lines are those that the code objects
compiled from its source list in ``co_lines``, nested code objects
included.  Standard library only: no coverage package is needed.

Prints, per file with any, its unrun line numbers, then the unrun and
executable line totals and pytest's exit status.  The lines are
printed, not judged: the exit status is 0.

Usage:
    python tools/line_coverage.py [PYTEST_ARG ...]

``src`` goes on the import path and pytest runs from the root of the
checkout, so test paths are relative to it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sembit"
DEFAULT_ARGS = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """Line numbers that the code objects compiled from ``path`` can run."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # A module's first instruction sits on line 0.
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Pytest's exit status on ``args``, and the lines run per file under :data:`PACKAGE`."""
    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        mine = inside.get(name)
        if mine is None:
            mine = inside[name] = os.path.realpath(name).startswith(prefix)
        return local if mine else None

    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    by_file: dict[str, set[int]] = {}
    for name, line in ran:
        by_file.setdefault(os.path.realpath(name), set()).add(line)
    return int(status), by_file


def spans(lines: list[int]) -> str:
    """Sorted ``lines`` as comma-separated runs, such as ``3, 7-9``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    status, ran = run_traced(argv or DEFAULT_ARGS)
    unrun_total = total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        unrun = sorted(lines - ran.get(os.path.realpath(path), set()))
        total += len(lines)
        unrun_total += len(unrun)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {spans(unrun)} ({len(unrun)} lines)")
    print(f"unrun: {unrun_total} of {total} executable lines; pytest exit status {status}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
