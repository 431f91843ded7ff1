"""List every statement of src/ofdmsee that a pytest run does not reach.

    python tests/linecov.py [pytest arguments]

Runs pytest in this process, by default on the Tier-1 test paths, with a line
tracer installed through sys.settrace and threading.settrace (the worker
threads of the Monte Carlo chain run package code too), then prints each
unreached statement as `module.py:line  source`, a count per module and the
total. The coverage package is not needed. Lines run only in a subprocess,
such as those of the CLI runs some tests start, are not seen. The tracer
slows every Python call, so tests with a deadline or a time bound may fail
here; a failure does not change which lines ran. pytest does not collect this
file: its name does not match test_*.py.

A compound statement (if, for, while, with, try, def, class) counts as
reached when its header or its first body statement is: some headers emit no
line event of their own. Docstrings run no code and are not listed.
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ofdmsee"
_BODIES = ("body", "orelse", "finalbody", "handlers")


def _statements(tree):
    # (first line, last header line, first body line or None) of every
    # statement that runs code: a compound statement's header ends where its
    # first body statement starts
    out = []
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            doc = body[0].value
            if isinstance(doc, ast.Constant) and isinstance(doc.value, str):
                body[0].docstring = True
        if not isinstance(node, ast.stmt) or getattr(node, "docstring", False):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        inner = [s for field in _BODIES for s in getattr(node, field, []) if isinstance(s, ast.stmt)]
        if inner:
            out.append((first, max(first, inner[0].lineno - 1), inner[0].lineno))
        else:
            out.append((first, node.end_lineno, None))
    return out


def unreached(hits):
    """{module file name: [(line, source)]} of the statements not in hits, a
    {path: set of line numbers} of the lines run."""
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        ran = hits.get(str(path), set())
        missed = []
        for first, last, body in _statements(ast.parse(text)):
            if ran.isdisjoint(range(first, last + 1)) and (body is None or body not in ran):
                missed.append((first, lines[first - 1].strip()))
        report[path.name] = sorted(missed)
    return report


def main(argv):
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + os.sep
    hits = defaultdict(set)
    ours = {}

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, _arg):
        code = frame.f_code
        mine = ours.get(code)
        if mine is None:
            mine = ours[code] = os.path.realpath(code.co_filename).startswith(prefix)
        if not mine:
            return None
        hits[code.co_filename].add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), str(ROOT / "perfbench" / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    resolved = defaultdict(set)
    for name, lines in hits.items():
        resolved[os.path.realpath(name)] |= lines
    report = unreached(resolved)
    for module, missed in report.items():
        for line, source in missed:
            print(f"{module}:{line}  {source}")
    for module, missed in report.items():
        print(f"{module}: {len(missed)} unreached")
    print(f"total: {sum(len(m) for m in report.values())} unreached statements (pytest exit {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
