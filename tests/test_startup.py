"""numpy stays off the start-up path: only float linear algebra loads it.

pytest itself has numpy loaded, so every check runs in a fresh interpreter.
"""

import pytest

from foliations.cli import FoliationFile, save_foliation_file

from helpers import run_python, sl2

_RUN = (
    "import contextlib, io, sys\n"
    "from foliations.cli import run\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = run({argv!r})\n"
    "print(code, 'numpy' in sys.modules)\n"
)


@pytest.fixture
def sl2_file(tmp_path):
    path = str(tmp_path / "sl2.fol")
    save_foliation_file(FoliationFile(path=path, spec=sl2()), path)
    return path


@pytest.mark.parametrize("module", ["foliations", "foliations.cli"])
def test_import_leaves_numpy_unloaded(module):
    proc = run_python(f"import sys\nimport {module}\nprint('numpy' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize(
    "args",
    [
        ["check"],
        ["member", "--field", "x^2*dx - x*y*dy"],
        ["syzygy"],
        ["dims", "--grid", "-1:1:1"],
        ["leaf", "--point", "1,0", "--steps", "5", "--seed", "3"],
        ["chart-rank", "--point", "1,0", "--samples", "2", "--seed", "3"],
    ],
    ids=lambda args: args[0],
)
def test_exact_and_flow_requests_leave_numpy_unloaded(sl2_file, args):
    proc = run_python(_RUN.format(argv=[args[0], sl2_file, *args[1:]]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False\n"


def test_jet_request_loads_numpy(sl2_file):
    # the guard sees the import where float linear algebra does run
    proc = run_python(_RUN.format(argv=["jet", sl2_file, "--word", "1,0,0@1", "--point", "0,0"]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 True\n"
