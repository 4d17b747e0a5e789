"""List the statements of ``src/cocmap`` that the test suite never executes.

Usage:

    python3 tools/unreached_lines.py [PYTEST_ARGS...]

Runs pytest on ``tests/`` in this process, with a ``sys.settrace`` line
tracer on every frame whose code lives under ``src/cocmap``, then prints
each module's statement lines that never ran, as line ranges.  A statement
line is a line that holds bytecode (``code.co_lines``), so comments and
blank lines never count.  Extra arguments go to pytest (``-k``, ``-x``, ...).
It needs only the standard library and pytest, so it runs where no coverage
package is installed.  The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cocmap"


def statement_lines(path: Path) -> set[int]:
    """Every line of a module that holds bytecode, in any nested code object."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's entry
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines) -> str:
    """``[1, 2, 3, 7]`` -> ``"1-3, 7"``."""
    out: list[list[int]] = []
    for line in sorted(lines):
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    executed: dict[str, set[int]] = {name: set() for name in files}

    def on_call(frame, event, arg):
        hit = executed.get(frame.f_code.co_filename)
        if hit is None:
            return None  # no line events outside the package

        def on_line(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                              str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\nstatements never executed:")
    for name, path in files.items():
        missed = statement_lines(path) - executed[name]
        if missed:
            print(f"{path.relative_to(ROOT)}: {ranges(missed)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
