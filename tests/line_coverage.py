"""Lines of ``src/foliations`` that the tier-1 tests never run, per function.

    python tests/line_coverage.py

runs the tier-1 tests (``pytest -q -p no:cacheprovider tests``, writing to
stderr) in this process under a ``sys.settrace`` line collector, and prints,
for every function of the package with executable lines that no test ran,
a line ``MODULE.QUALNAME COUNT`` and then each such line, indented, with its
number and text.  A comprehension's lines count for the function around
it.  Requests that tests run in fresh interpreters are not seen.

It exits 1 when any line is never run, and 2 if the tests fail.  Each
Python version's line tables decide which lines are executable; CI runs it
on Python 3.11.
"""

from __future__ import annotations

import contextlib
import re
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "foliations"
_COMPREHENSION = re.compile(r"\.<locals>\.<(?:listcomp|setcomp|dictcomp|genexpr)>")


def executable_lines(path: Path) -> dict[int, str]:
    """Each executable line of the module at ``path``, with the qualified
    name of the innermost function that holds it (a comprehension's lines
    count for the function around it)."""
    owner: dict[int, str] = {}

    def walk(code):
        name = _COMPREHENSION.sub("", getattr(code, "co_qualname", code.co_name))
        for _, _, line in code.co_lines():
            if line:
                owner[line] = name
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const)

    walk(compile(path.read_text(), str(path), "exec"))
    return owner


def run_tests(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for ``argv`` and the lines run in each file of the
    package.  A function's first line counts as run when it is called: no
    line event marks the instruction that starts its frame."""
    ran: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        ran.setdefault(code.co_filename, set()).add(code.co_firstlineno)
        return local

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # stdout is the list
            code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def never_run(ran: dict[str, set[int]]) -> dict[str, list[tuple[int, str]]]:
    """Per ``MODULE.QUALNAME``, the executable lines not in ``ran``, with their text."""
    out: dict[str, list[tuple[int, str]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        lines = ran.get(str(path), set())
        for line, name in sorted(executable_lines(path).items()):
            if line not in lines:
                out.setdefault(f"{path.stem}.{name}", []).append((line, text[line - 1].strip()))
    return out


def main() -> int:
    code, ran = run_tests(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if code != 0:
        print(f"the tests failed (pytest exit code {code})", file=sys.stderr)
        return 2
    missed = never_run(ran)
    for name, lines in sorted(missed.items()):
        print(f"{name} {len(lines)}")
        for line, text in lines:
            print(f"    {line}: {text}")
    print(f"{sum(map(len, missed.values()))} never-run lines", file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
