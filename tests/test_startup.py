"""``fol`` never loads numpy: no subcommand imports it.  Importing the
package loads neither ``dataclasses`` nor ``inspect`` either, and importing
the CLI loads no ``pathlib``; nor do requests load ``json`` or ``heapq``.

pytest itself has numpy loaded, so every check runs in a fresh interpreter.
"""

import json
from pathlib import Path

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


def test_cli_import_leaves_pathlib_unloaded(sl2_file):
    # under -S no site hook preloads pathlib (and through it fnmatch, ntpath, urllib, ...);
    # nor does a request load argparse and the gettext it imports: fol reads its own argv.
    # No report loads json, written whole (check) or with grid rows or leaf points
    # streamed (dims --grid, leaf), and no Groebner run loads heapq
    names = ("pathlib", "argparse", "gettext", "json", "heapq")
    argvs = [
        ["check", sl2_file],
        ["dims", sl2_file, "--grid", "-1:1:1"],
        ["leaf", sl2_file, "--point", "1,0", "--steps", "5", "--seed", "3"],
    ]
    script = _RUN.format(prelude="", argvs=argvs) + f"print(*[m in sys.modules for m in {names!r}])\n"
    proc = run_python(script, "-S")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0 0 False\nFalse False False False False\n"


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


def test_the_name_flow_is_the_function():
    # the package binds ``flow`` to the function, after its submodule's import
    # has bound the module there; ``sys.modules`` keeps the module
    proc = run_python(
        "import sys\nimport foliations.flow, foliations.holonomy, foliations.cli\n"
        "from foliations import flow\nprint(flow is sys.modules['foliations.flow'].flow)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


_TRACER = str(Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py")


@pytest.mark.parametrize(
    "args, layer",
    [(["check"], "modalg.is_involutive"), (["flow", "--word", "0,1,0@1", "--point", "1,1"], "flow.flow")],
    ids=["check", "flow"],
)
def test_the_tracer_runs_an_exact_and_a_flow_request(sl2_file, tmp_path, args, layer):
    # perfbench/tracer.py imports foliations.cli, then wraps the public names
    # of all five layers, looked up in sys.modules: the import of the CLI must
    # load every layer, or the traced benchmark pass fails on every request
    spans = tmp_path / "spans.json"
    argv = [_TRACER, str(spans), "r1", "--", args[0], sl2_file, *args[1:]]
    proc = run_python(f"import runpy, sys\nsys.argv = {argv!r}\nrunpy.run_path(sys.argv[0], run_name='__main__')\n")
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    assert trace["request"] == "r1" and trace["spans"]
    assert trace["names"].index(layer) in [name for name, *_ in trace["spans"]]
