"""Run the test suite under a line trace of src/tailkit and fail on any statement it never reaches.

    PYTHONPATH=src python scripts/line_reach.py [pytest args]

A stdlib ``sys.settrace`` hook line-traces only frames whose code lives in
src/tailkit; every other frame gets no local tracer.  A statement counts as
reached when any line of its span had a line event, so a compound statement is
reached with its body, and a line-event quirk of one Python version does not
matter.  Docstrings and other bare constants, which compile to nothing, are not
statements here; nor are ``global`` and ``nonlocal``.

A statement the suite never reaches must be listed in tests/unreached.txt, one
entry a line: ``<file> | <function> | <stripped line text> | <reason>``, with the
file relative to src/tailkit and ``<module>`` for module-level code.  Keyed by
text, not line number, an entry survives edits elsewhere in the file.  An entry
that matches no unreached statement is stale and fails the run too.

Exit status: pytest's, if it failed; else 1 on an unlisted or stale entry, else 0.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tailkit"
ALLOWED = ROOT / "tests" / "unreached.txt"


def statements(path: Path):
    """(scope, first line, last line, stripped text of the first line) of every statement in `path`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.stmt) and not isinstance(child, (ast.Global, ast.Nonlocal)):
                bare_constant = isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                if not bare_constant:
                    found.append((scope, child.lineno, child.end_lineno, lines[child.lineno - 1].strip()))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse("\n".join(lines), str(path)), "<module>")
    return found


def load_allowed():
    """{(file, scope, text): reason} from tests/unreached.txt; '#' starts a comment line."""
    allowed = {}
    for number, line in enumerate(ALLOWED.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            file, scope, rest = line.split(" | ", 2)
            text, reason = rest.rsplit(" | ", 1)
        except ValueError:
            raise SystemExit(f"{ALLOWED}:{number}: want '<file> | <function> | <line text> | <reason>'") from None
        if not reason.strip():
            raise SystemExit(f"{ALLOWED}:{number}: an entry needs a reason")
        allowed[file, scope, text] = reason
    return allowed


def main(argv) -> int:
    prefix = str(PACKAGE) + os.sep
    files = {}  # code file name -> its real path, or None outside src/tailkit
    hits = {}  # real path -> line numbers with a line event

    def local(frame, event, arg):
        if event == "line":
            hits[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            real = os.path.realpath(name)
            files[name] = real if real.startswith(prefix) else None
            if files[name]:
                hits.setdefault(real, set())
        return local if files[name] else None

    sys.settrace(on_call)  # the suite and tailkit start no thread, so one hook sees every frame
    try:
        status = pytest.main(["-q", *argv])
    finally:
        sys.settrace(None)
    if status != 0:
        return status

    allowed, used, unlisted = load_allowed(), set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        file, seen = path.relative_to(PACKAGE).as_posix(), hits.get(os.path.realpath(path), set())
        for scope, first, last, text in statements(path):
            if seen.isdisjoint(range(first, last + 1)):
                key = (file, scope, text)
                if key in allowed:
                    used.add(key)
                else:
                    unlisted.append(f"src/tailkit/{file}:{first}: {scope}: {text}")
    stale = [" | ".join(key) for key in allowed if key not in used]
    for line in unlisted:
        print(f"unreached and not in tests/unreached.txt: {line}")
    for line in stale:
        print(f"stale entry in tests/unreached.txt (reached, or no such line): {line}")
    print(f"line reach: {len(unlisted)} unlisted, {len(stale)} stale, {len(used)} listed and unreached")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
