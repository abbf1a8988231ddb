#!/usr/bin/env python3
"""Record the statements of ``src/locint`` that tier-1 leaves unexecuted.

    python3 scripts/coverage.py

Runs tier-1 (pytest on ``tests/``) in this process under a ``sys.settrace``
line tracer installed from outside the library, as ``count_calls.py``
installs its wrappers, so the library pays nothing when it is not traced.
A small pytest plugin installs the tracer again before each phase of each
test: Hypothesis replaces a running tracer with its own, and a tracer
installed once per process misses what the tests after it run.  Tests
that run the library in a subprocess are not traced there.

Two tests fail under any tracer, because of the tracer's own frames and
allocations, and pass untraced; they are deselected and named in the
output.  Statements are counted with ``ast``: every statement of a module,
docstrings excluded, is executed when a line of its header (its decorators,
and for a compound statement the lines before its body) ran.  The record,
``tests/golden/coverage.json``, lists per module each unexecuted statement's
line and source text.  It is a record, not a bound, and not part of tier-1.
"""

from __future__ import annotations

import ast
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "locint"
RECORD = ROOT / "tests" / "golden" / "coverage.json"
FAIL_UNDER_A_TRACER = [
    "tests/test_birkhoff.py::test_building_a_lattice_allocates_no_pair_list_or_tables",
    "tests/test_reference_cycles.py::test_dropped_objects_need_no_cycle_collection",
]

hits = defaultdict(set)  # file name -> the lines that ran
PREFIX = str(PACKAGE) + "/"


def _lines(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(PREFIX) else None


def install() -> None:
    sys.settrace(_calls)
    threading.settrace(_calls)


class Retrace:
    """Installs the tracer again before each phase of each test."""

    def pytest_runtest_setup(self, item):
        install()

    def pytest_runtest_call(self, item):
        install()

    def pytest_runtest_teardown(self, item):
        install()


def statements(source: str):
    """(first line, the lines of its header) of each statement, docstrings
    excluded."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and id(node) not in docstrings:
            body = getattr(node, "body", None)
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
            yield first, range(first, max(first, last) + 1)


def census() -> dict:
    modules, total, missed = {}, 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = hits.get(str(path), set())
        found = sorted(set(statements(source)), key=lambda s: (s[0], s[1].stop))
        unexecuted = [[first, text[first - 1].strip()] for first, header in found
                      if not ran.intersection(header)]
        modules[path.name] = {"statements": len(found), "unexecuted": unexecuted}
        total, missed = total + len(found), missed + len(unexecuted)
    return {"statements": total, "unexecuted": missed, "deselected": FAIL_UNDER_A_TRACER,
            "modules": modules}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    install()
    deselect = [arg for test in FAIL_UNDER_A_TRACER for arg in ("--deselect", test)]
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                        str(ROOT / "tests"), *deselect], plugins=[Retrace()])
    sys.settrace(None)
    threading.settrace(None)
    record = census()
    RECORD.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"{record['unexecuted']} of {record['statements']} statements of src/locint "
          f"unexecuted; written to {RECORD.relative_to(ROOT)}")
    print("deselected, since they fail under any tracer: " + ", ".join(FAIL_UNDER_A_TRACER))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
