"""``fol`` never loads numpy: no subcommand imports it.  Importing the
package loads neither ``dataclasses`` nor ``inspect`` either, and importing
the CLI loads no ``pathlib``.

pytest itself has numpy loaded, so every check runs in a fresh interpreter.
"""

import pytest

from foliations.cli import FoliationFile, save_foliation_file

from helpers import run_python, sl2

# runs the argv lists in order; prints their exit codes and whether a numpy
# module is loaded (a None entry, which blocks the import, is not one)
_RUN = (
    "import contextlib, io, sys\n"
    "{prelude}"
    "from foliations.cli import run\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    codes = [run(argv) for argv in {argvs!r}]\n"
    "print(*codes, sys.modules.get('numpy') is not None)\n"
)


@pytest.fixture
def sl2_file(tmp_path):
    path = str(tmp_path / "sl2.fol")
    save_foliation_file(FoliationFile(path=path, spec=sl2()), path)
    return path


@pytest.mark.parametrize("module", ["foliations", "foliations.cli"])
def test_import_leaves_numpy_unloaded(module):
    # records are named tuples: no ``dataclasses``, and through it no ``inspect``
    names = ("numpy", "dataclasses", "inspect")
    proc = run_python(f"import sys\nimport {module}\nprint(*[m in sys.modules for m in {names!r}])\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False False\n"


def test_cli_import_leaves_pathlib_unloaded():
    # under -S no site hook preloads pathlib (and through it fnmatch, ntpath, urllib, ...)
    proc = run_python("import sys\nimport foliations.cli\nprint('pathlib' in sys.modules)\n", "-S")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


_NUMERIC = [
    ["flowbox", "--gen", "1", "--point", "1,0"],
    ["jet", "--word", "1,0,0@1; 0,1,0@-0.5", "--point", "0,0"],
    ["jet-exact", "--word", "1,0,0@1; 0,1,0@-0.5"],
    ["germ-eq", "--word1", "1,0,0@1", "--word2", "1,0,0@0.25; 1,0,0@0.75", "--point", "0,0"],
    ["pushforward", "--coeffs", "1,1,0", "--time", "0.75"],
]


@pytest.mark.parametrize(
    "args",
    [
        ["check"],
        ["member", "--field", "x^2*dx - x*y*dy"],
        ["syzygy"],
        ["singular"],
        ["localgens", "--point", "1,0"],
        ["dims", "--grid", "-1:1:1"],
        ["leaf", "--point", "1,0", "--steps", "5", "--seed", "3"],
        ["flow", "--word", "0,1,0@1", "--point", "1,1"],
        ["chart-rank", "--point", "1,0", "--samples", "2", "--seed", "3"],
        *_NUMERIC,
    ],
    ids=lambda args: args[0],
)
def test_exact_and_flow_requests_leave_numpy_unloaded(sl2_file, args):
    proc = run_python(_RUN.format(prelude="", argvs=[[args[0], sl2_file, *args[1:]]]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False\n"


def test_numeric_requests_run_without_numpy(sl2_file):
    # with a None entry in sys.modules any import of numpy raises ImportError
    argvs = [[args[0], sl2_file, *args[1:]] for args in _NUMERIC]
    proc = run_python(_RUN.format(prelude="sys.modules['numpy'] = None\n", argvs=argvs))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 " * len(argvs) + "False\n"
