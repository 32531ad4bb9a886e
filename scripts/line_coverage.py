#!/usr/bin/env python3
"""List the lines of src/ioncavity that the test suite never runs.

An opt-in line tracer built on the standard library's `sys.settrace`: it
runs pytest in this process, records every line event in a package file,
and reports the executable lines (those of the files' code objects) with no
event. It is not a test gate: the suite runs about 50 % slower under it.

    PYTHONPATH=src python scripts/line_coverage.py [pytest arguments]
"""

import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ioncavity"
SOURCES = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
seen: dict[str, set] = {name: set() for name in SOURCES}
_resolved: dict[str, str | None] = {}


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _resolved:
        real = os.path.realpath(name)
        _resolved[name] = real if real in seen else None
    if _resolved[name] is None:
        return None
    if event == "line":
        seen[_resolved[name]].add(frame.f_lineno)
    return _trace


def _executable(code) -> set:
    found = {row for _, _, row in code.co_lines() if row}  # 0 marks a module's entry
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            found |= _executable(const)
    return found


if __name__ == "__main__":
    sys.settrace(_trace)
    try:
        code = pytest.console_main()  # the pytest arguments are this script's own
    finally:
        sys.settrace(None)
    total = missed = 0
    for name, path in SOURCES.items():
        rows = _executable(compile(path.read_text(), name, "exec"))
        never = sorted(rows - seen[name])
        total, missed = total + len(rows), missed + len(never)
        if never:
            print(f"{path.relative_to(PACKAGE.parents[1])}: {', '.join(map(str, never))}")
    print(f"{missed} of {total} executable lines never run ({100 * (total - missed) / total:.1f} % run)")
    sys.exit(code)
