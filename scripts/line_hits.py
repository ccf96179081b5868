#!/usr/bin/env python3
"""Statement lines of each ``coxlift`` module that the test suite never runs.

    python3 scripts/line_hits.py [PYTEST_ARGS...]

Runs pytest in this process (by default ``-q tests``) under a
``sys.settrace`` line tracer that records only lines of this checkout's
``src/coxlift`` files, then prints, per module, how many statement lines
never ran out of all, followed by those line numbers, and then each of
those lines with the dotted name of the function or class around it and
its source text, so checks can be named by function and message.  A
statement line is the first line of an ``ast`` statement that the
compiler gives code, so docstrings and ``global``/``nonlocal``
declarations do not count.  Only the standard library is used.  The exit
status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "coxlift"


def statement_lines(path: Path) -> set:
    """First lines of the statements in path that have code."""
    source = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    coded, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        coded.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return starts & coded


def owners(path: Path) -> dict:
    """Line -> dotted name of the innermost function or class around it."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
                out.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1), name))
            visit(child, name)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def ranges(lines) -> str:
    """Sorted line numbers with runs folded, as "3, 7-9, 12"."""
    out = []
    for n in sorted(lines):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv) -> int:
    hits = {str(p): set() for p in sorted(PKG.glob("*.py"))}

    def tracer(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name, lines in hits.items():
        stmts = statement_lines(Path(name))
        missed = stmts - lines
        print(f"{Path(name).name}: {len(missed)} of {len(stmts)} never run")
        if missed:
            print(f"    {ranges(missed)}")
            text = Path(name).read_text(encoding="utf-8").splitlines()
            owner = owners(Path(name))
            for n in sorted(missed):
                print(f"    {n} {owner.get(n, '<module>')}: {text[n - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
