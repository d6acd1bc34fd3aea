"""Lines of ``src/foliations`` that the tier-1 tests never run, per function.

    python tests/line_coverage.py [EXPECTED]

runs the tier-1 tests (``pytest -q -p no:cacheprovider tests``, writing to
stderr) in this process under a ``sys.settrace`` line collector, and prints,
for every function of the package with executable lines that no test ran,
a line ``MODULE.QUALNAME COUNT`` and then each such line, indented, with its
number and text.  A comprehension's lines count for the function around
it.  Requests that tests run in fresh interpreters are not seen.

With EXPECTED, a file of ``MODULE.QUALNAME COUNT`` lines (indented lines are
ignored), it exits 1 when a function has more never-run lines than EXPECTED
gives it, none for a function not listed; fewer pass.  The unindented lines
of the output are such a file: ``tests/line_coverage.txt`` is

    python tests/line_coverage.py | grep -v '^ ' > tests/line_coverage.txt

run on Python 3.11, since each version's line tables decide which lines are
executable.  It exits 2 if the tests fail.
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


def read_expected(path: str) -> dict[str, int]:
    counts = {}
    for row in Path(path).read_text().splitlines():
        if row.strip() and not row[0].isspace():
            name, count = row.split()
            counts[name] = int(count)
    return counts


def main(argv: list[str]) -> int:
    code, ran = run_tests(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if code != 0:
        print(f"the tests failed (pytest exit code {code})", file=sys.stderr)
        return 2
    missed = never_run(ran)
    for name, lines in sorted(missed.items()):
        print(f"{name} {len(lines)}")
        for line, text in lines:
            print(f"    {line}: {text}")
    if not argv:
        return 0
    expected = read_expected(argv[0])
    grown = {name: len(lines) for name, lines in missed.items() if len(lines) > expected.get(name, 0)}
    for name, count in sorted(grown.items()):
        print(f"{name}: {count} never-run lines, {expected.get(name, 0)} expected", file=sys.stderr)
    total, listed = sum(map(len, missed.values())), sum(expected.values())
    print(f"{total} never-run lines; {argv[0]} lists {listed}", file=sys.stderr)
    return 1 if grown else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
