"""CLI integration: file loading, subcommands, exit codes, JSON shape."""

import hashlib
import json
import math
import re
import sys
import warnings
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

pytest.importorskip("jsonschema")
import jsonschema

from foliations import __version__
from foliations.cli import _COMMANDS as _TABLE
from foliations.cli import (
    _COMMON,
    _MAX_POINTS,
    _TYPES,
    FoliationFile,
    _dims_at,
    _lattice,
    load_foliation,
    load_foliation_file,
    run,
    save_foliation_file,
)
from foliations.errors import BudgetError, ParseError, UnknownVariableError
from foliations.flow import XorShift64Star
from foliations.modalg import _dims, _generator_rows, _syzygy_rows, syzygy_basis
from foliations.vfparse import FoliationSpec, Poly, VectorField

from helpers import gl2, make_spec, nonintegrable, random_field, rank_oracle, run_python, so3

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report.schema.json").read_text()
)

SL2 = """\
# two-leaf plane example
name: sl2
description: linear action with a fixed point
vars: x y
generators:
  x*dx - y*dy
  y*dx
  x*dy
"""

NONINT = """\
vars: x y
generators:
  dx
  x*dy
"""

FOLK2 = """\
vars: x
generators:
  x^2*dx
"""


XYZ = ("x", "y", "z")
GL3 = "vars: x y z\ngenerators:\n" + "".join(f"  {a}*d{b}\n" for a in XYZ for b in XYZ)

SO3 = """\
vars: x y z
generators:
  -y*dx + x*dy
  -z*dy + y*dz
  z*dx - x*dz
"""

CSTAR = """\
vars: x y
generators:
  x*dx + y*dy
  -y*dx + x*dy
"""

GL2 = "vars: x y\ngenerators:\n  x*dx\n  y*dy\n  y*dx\n  x*dy\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    specs = (
        ("sl2", SL2), ("nonint", NONINT), ("folk2", FOLK2), ("gl3", GL3), ("so3", SO3), ("cstar", CSTAR),
        ("gl2", GL2),
    )
    for name, body in specs:
        p = tmp_path / f"{name}.fol"
        p.write_text(body)
        paths[name] = str(p)
    return paths


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def invoke(capsys, args):
    code = run(args)
    out = capsys.readouterr().out
    report = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(report, SCHEMA)
    return code, report, out


def failure(capsys, args, code, error_type):
    """Run a request that must fail: one schema-valid error report with
    exit ``code`` and nothing on stderr; returns its diagnostics."""
    got = run(args)
    out, err = capsys.readouterr()
    report = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(report, SCHEMA)
    assert (got, report["results"], err) == (code, {}, "")
    assert report["diagnostics"]["error_type"] == error_type
    return report["diagnostics"]


# -- file format --------------------------------------------------------------


def test_load_foliation(files):
    spec = load_foliation(files["sl2"])
    assert spec.k == 3
    assert spec.var_names == ("x", "y")


def test_load_metadata(files):
    ff = load_foliation_file(files["sl2"])
    assert ff.name == "sl2"
    assert ff.description.startswith("linear action")


def test_load_unknown_variable_names_offender(tmp_path):
    p = tmp_path / "bad.fol"
    p.write_text("vars: x y\ngenerators:\n  z*dx\n")
    with pytest.raises(UnknownVariableError) as exc:
        load_foliation(p)
    assert exc.value.name == "z"
    assert exc.value.line == 3


def test_load_syntax_error_has_line(tmp_path):
    p = tmp_path / "bad.fol"
    p.write_text("vars: x\ngenerators:\n  x*dx +\n")
    with pytest.raises(ParseError) as exc:
        load_foliation(p)
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "generator, error, text",
    [
        ("x*dx +", ParseError, "trailing operator (line 3, column 9)"),
        ("z*dx", UnknownVariableError, "unknown variable 'z' (line 3, column 3)"),
        ("x^2000*dy", BudgetError, "exponent 2000 exceeds the cap 1000 (line 3, column 4)"),
    ],
)
def test_file_errors_render_line_and_column(tmp_path, generator, error, text):
    p = tmp_path / "bad.fol"
    p.write_text(f"vars: x y\ngenerators:\n  {generator}\n")
    with pytest.raises(error) as exc:
        load_foliation(p)
    assert type(exc.value) is error
    assert str(exc.value) == text


def test_non_utf8_file_exit_2(capsys, tmp_path):
    data = b"vars: x y\ngenerators:\n  y*dx \xff\n"
    p = tmp_path / "latin1.fol"
    p.write_bytes(data)
    code = run(["check", str(p)])
    out, err = capsys.readouterr()
    rep = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(rep, SCHEMA)
    assert (code, rep["results"], err) == (2, {}, "")
    bad = data.index(0xFF) + 1  # counted from 1
    assert rep["diagnostics"] == {
        "error": f"file is not UTF-8 text (byte {bad})", "error_type": "ParseError",
    }


@pytest.mark.parametrize(
    "text, error",
    [
        ("vars: x\ngenerators:\nx*dx\n", "generator lines must be indented (line 3, column 1)"),
        ("generators:\n  dx\n", "'vars:' must come before 'generators:' (line 2)"),
        ("vars:\ngenerators:\n", "'vars:' declares no variables (line 1)"),
        ("name: empty\n", "file declares no 'vars:' line"),
        ("vars: x y\nvars: x\ngenerators:\n  x*dx\n", "'vars:' is declared twice (line 2)"),
    ],
    ids=["unindented-generator", "generators-before-vars", "no-variables", "no-vars-line", "second-vars-line"],
)
def test_file_structure_errors_exit_2(capsys, tmp_path, text, error):
    p = tmp_path / "bad.fol"
    p.write_text(text)
    assert failure(capsys, ["check", str(p)], 2, "ParseError")["error"] == error


def test_load_empty_generators(tmp_path):
    p = tmp_path / "zero.fol"
    p.write_text("vars: x y\ngenerators:\n")
    assert load_foliation(p).k == 0


def test_save_load_roundtrip(files, tmp_path):
    ff = load_foliation_file(files["sl2"])
    out = tmp_path / "copy.fol"
    save_foliation_file(ff, out)
    again = load_foliation_file(out)
    assert again.spec == ff.spec
    assert again.name == ff.name
    assert again.description == ff.description
    # canonical form is a fixed point of save/load
    out2 = tmp_path / "copy2.fol"
    save_foliation_file(again, out2)
    assert out.read_text() == out2.read_text()


# -- subcommands ---------------------------------------------------------------


def test_dims_point(files, capsys):
    code, rep, _ = invoke(capsys, ["dims", files["sl2"], "--point", "0,0"])
    assert code == 0
    assert rep["results"] == {"fiber": 3, "isotropy": 3, "point": "0,0", "tangent": 0}


def test_dims_needs_point_or_grid(files, capsys):
    diags = failure(capsys, ["dims", files["sl2"]], 2, "_UsageError")
    assert diags["error"] == "dims needs --point and/or --grid"


def test_dims_checks_fiber_against_tangent(files, monkeypatch):
    # a tangent rank above the fiber dimension is an internal error; dims
    # takes the checked path that isotropy_dim takes, and the check is an
    # explicit raise, so it holds under python -O too
    modalg = sys.modules["foliations.modalg"]
    rank_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    monkeypatch.setattr(modalg, "_generator_rows", lambda spec: lambda *xs: rank_3)
    with pytest.raises(AssertionError, match="fiber dimension below tangent dimension"):
        run(["dims", files["sl2"], "--point", "1,0"])


def test_dims_grid(files, capsys):
    code, rep, _ = invoke(capsys, ["dims", files["sl2"], "--grid", "-1:1:1"])
    assert code == 0
    grid = rep["results"]["grid"]
    assert len(grid) == 9
    at_origin = [row for row in grid if row["point"] == "0,0"]
    assert at_origin[0]["fiber"] == 3
    # --jobs is accepted and changes nothing; a count below 1 is a usage error
    code, rep2, _ = invoke(capsys, ["dims", files["sl2"], "--grid", "-1:1:1", "--jobs", "2"])
    assert code == 0 and rep2["results"] == rep["results"]
    code, _, _ = invoke(capsys, ["dims", files["sl2"], "--grid", "-1:1:1", "--jobs", "0"])
    assert code == 2


# sha256 of json.dumps(results, sort_keys=True), recorded when the ranks were
# still taken by Gaussian elimination over Fractions
GRID_DIGESTS = [
    (
        ["gl3", "--grid", "-4/3:4/3:1/3"],
        729,
        "1c7d88506289895533540dd383fee96855e2f87a7a3def25d43a5ad18fe79ab4",
    ),
    (
        ["so3", "--point", "1,0,-5/4", "--grid", "-7/3:7/3:1/3"],
        3375,
        "b5c940217e69ba2dbaff614edb7359b246853420765ee80949582fd40c41f182",
    ),
]


@pytest.mark.parametrize("args, count, digest", GRID_DIGESTS, ids=["gl3", "so3"])
def test_dims_grid_results_match_golden_digests(files, capsys, args, count, digest):
    code, rep, _ = invoke(capsys, ["dims", files[args[0]]] + args[1:])
    assert code == 0 and len(rep["results"]["grid"]) == count
    assert hashlib.sha256(json.dumps(rep["results"], sort_keys=True).encode()).hexdigest() == digest


# sha256 of the whole stdout, run from the spec files' directory, recorded
# while json.dumps still wrote every byte of the report; they pin the layout
# (indent, key order, escapes) that GRID_DIGESTS cannot see
GRID_STDOUT_DIGESTS = [
    (
        ["gl3.fol", "--grid", "-4/3:4/3:1/3"],
        "5238d60274879ccdf381c650a991b62cc89c0b84e66033039ee95738a1742531",
    ),
    (
        ["so3.fol", "--point", "1,0,-5/4", "--grid", "-7/3:7/3:1/3"],
        "b8a1313f8b108f0589de9ef1ba6ac22abbb9ec21b9341d1f105d6eda60631b04",
    ),
    (
        ["folk2.fol", "--grid", "0:0:1"],
        "885b872ccb8bab89d0060224aaa46aa411c68e58f247682718cd76d707b853e0",
    ),
]


@pytest.mark.parametrize("args, digest", GRID_STDOUT_DIGESTS, ids=["gl3", "so3", "one-point"])
def test_dims_grid_output_matches_golden_digests(files, capsys, monkeypatch, args, digest):
    monkeypatch.chdir(Path(files["sl2"]).parent)
    code, _, out = invoke(capsys, ["dims", *args])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _counted(monkeypatch, name):
    """The argument tuples of every call of ``modalg.<name>`` from now on."""
    modalg = sys.modules["foliations.modalg"]
    original, calls = getattr(modalg, name), []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(modalg, name, counted)
    return calls


@pytest.mark.parametrize("grid, count", [("-1:1:1", 27), ("-2:2:1/4", 4913)])
def test_dims_grid_compiles_each_evaluator_once(files, capsys, monkeypatch, grid, count):
    # one generator-row, one syzygy-row and one witness-minor evaluator,
    # whatever the point count; the --point request builds no witness
    for cache in (_generator_rows, _syzygy_rows):
        cache.cache_clear()
    compiled = _counted(monkeypatch, "_compile_rows")
    code, rep, _ = invoke(capsys, ["dims", files["gl3"], "--point", "1,2,3", "--grid", grid])
    assert code == 0 and len(rep["results"]["grid"]) == count
    assert _generator_rows.cache_info().misses == 1
    assert _syzygy_rows.cache_info().misses == 1
    assert len(compiled) == 3


# eliminations (_pivots calls) of dims --grid on the corpus-shaped grids;
# before the witness minor every point took two: 5,832, 6,750, 1,458, 5,000
# and 8,192.  A point on the witness's zero set still takes two, and so does
# every point up to the first where fiber = tangent; the witness's rows and
# columns are the pivots of that point's elimination, so it eliminates nothing
GRID_ELIMINATIONS = [
    ("sl2", "-27/2:13:1/2", 2916, 110, [0, 1]),
    ("so3", "-7/3:7/3:1/3", 3375, 872, [0, 1]),
    ("gl3", "-4/3:4/3:1/3", 729, 164, [0, 1, 2]),
    ("gl2", "-25/2:12:1/2", 2500, 200, [0, 1]),
    ("cstar", "-16:31/2:1/2", 4096, 4, [0, 1]),
]


@pytest.mark.parametrize(
    "name, grid, points, eliminations, pivots", GRID_ELIMINATIONS, ids=[case[0] for case in GRID_ELIMINATIONS]
)
def test_dims_grid_eliminations_are_pinned(files, capsys, monkeypatch, name, grid, points, eliminations, pivots):
    ranks, witnesses = _counted(monkeypatch, "_pivots"), _counted(monkeypatch, "_witness")
    code, rep, _ = invoke(capsys, ["dims", files[name], "--grid", grid])
    assert code == 0 and len(rep["results"]["grid"]) == points
    assert (len(ranks), len(witnesses)) == (eliminations, 1)
    # the witness minor's rows and columns, ascending
    [(_, rows, cols, _, _)] = witnesses
    assert (list(rows), list(cols)) == (pivots, pivots)


@pytest.mark.parametrize("args", [["--point", "1,2,3"], ["--grid", "1:1:1"]], ids=["point", "one-point-grid"])
def test_dims_of_one_point_builds_no_witness(files, capsys, monkeypatch, args):
    ranks, witnesses = _counted(monkeypatch, "_pivots"), _counted(monkeypatch, "_witness")
    code, rep, _ = invoke(capsys, ["dims", files["so3"], *args])
    assert code == 0
    assert (len(ranks), len(witnesses)) == (2, 0)


# each spec on a grid whose D (the lcm of the denominators of its start
# and step) exceeds the denominator lcm of some of its points; the
# shifted gl2 vanishes at (-4/3, 1/6), a point of the grid -7/3:2:1/2
LATTICE_CASES = {
    "gl2": (gl2, "-7/3:2:1/2"),
    "gl2-shifted": (
        lambda: make_spec(("x", "y"), ("(x+4/3)*dx", "(y-1/6)*dy", "(y-1/6)*dx", "(x+4/3)*dy")),
        "-7/3:2:1/2",
    ),
    "dense": (
        lambda: FoliationSpec(("x", "y"), tuple(random_field(XorShift64Star(41), 2, 3) for _ in range(3))),
        "-3/4:1:1/6",
    ),
}


@pytest.mark.parametrize("name", sorted(LATTICE_CASES))
def test_dims_grid_matches_pointwise_references(tmp_path, capsys, name):
    make, grid = LATTICE_CASES[name]
    spec = make()
    path = tmp_path / f"{name}.fol"
    save_foliation_file(FoliationFile(str(path), spec), path)
    code, rep, _ = invoke(capsys, ["dims", str(path), "--grid", grid])
    assert code == 0
    a, b, step = map(Fraction, grid.split(":"))
    axis = [a + i * step for i in range(int((b - a) / step) + 1)]
    points = [(u, v) for u in axis for v in axis]
    d = math.lcm(a.denominator, step.denominator)
    assert any(math.lcm(*(c.denominator for c in pt)) < d for pt in points)
    rows = rep["results"]["grid"]
    assert len(rows) == len(points)
    rels = syzygy_basis(spec).relations
    for row, pt in zip(rows, points):
        # the point scaled by itself, and ranks over Q of the rows evaluated in Fractions
        assert row == _dims_at(spec, pt)
        fiber = spec.k - rank_oracle([[p(pt) for p in rel] for rel in rels])
        tangent = rank_oracle([g(pt) for g in spec.generators])
        assert (row["fiber"], row["tangent"], row["isotropy"]) == (fiber, tangent, fiber - tangent)
    if name == "gl2-shifted":
        drop = rows[points.index((Fraction(-4, 3), Fraction(1, 6)))]
        assert (drop["fiber"], drop["tangent"]) == (4, 0)
        assert {row["tangent"] for row in rows} == {0, 2}


def _crossed_spec(rng, n):
    """k = 1-3 random fields of degree <= 1, each times a linear factor that
    vanishes on a hyperplane through points of the grid -1:1:1/2"""
    names = ("x", "y", "z")[:n]
    gens = []
    for _ in range(rng.randint(1, 3)):
        i, c = rng.randint(0, n - 1), Fraction(rng.randint(-2, 2), 2)
        factor = Poly.variable(i, n) - Poly.constant(c, n)
        gens.append(random_field(rng, n, 1).scale(factor))
    return FoliationSpec(names, tuple(gens))


WITNESS_CASES = {
    "zero-generators": (lambda: FoliationSpec(("x", "y"), (VectorField.zero(2),) * 2), "-1:1:1/2", 0),
    "no-generators": (lambda: FoliationSpec(("x", "y"), ()), "-1:1:1/2", 0),
    "so3": (so3, "-1:1:1/2", 1),
    "nonintegrable": (nonintegrable, "-1:1:1/2", 1),
    "inside-singular-set": (lambda: make_spec(("x",), ("(x^2 - x)*dx",)), "0:1:1", 0),
}
WITNESS_CASES.update(
    (f"random-n{n}-seed{seed}", (lambda n=n, seed=seed: _crossed_spec(XorShift64Star(seed), n), "-1:1:1/2", 1))
    for n, seeds in ((2, range(1, 9)), (3, range(9, 13)))
    for seed in seeds
)


@pytest.mark.parametrize("name", list(WITNESS_CASES))
def test_dims_grid_witness_matches_pointwise_oracles(monkeypatch, name):
    # every row, whether certified by the witness minor or eliminated, is the
    # row of the point ranked by itself and the rank over Q of the rows
    # evaluated in Fractions
    make, grid, witnesses = WITNESS_CASES[name]
    spec = make()
    n = spec.nvars
    bounds = tuple(map(Fraction, grid.split(":")))
    d, xs, labels = _lattice(bounds, n)
    built = _counted(monkeypatch, "_witness")
    dims = _dims(spec, list(product(xs, repeat=n)), d)
    assert len(built) == witnesses
    rels = syzygy_basis(spec).relations if spec.k else ()
    for (f, t), label in zip(dims, product(labels, repeat=n)):
        pt = tuple(map(Fraction, label))
        assert _dims_at(spec, pt) == {"point": ",".join(label), "fiber": f, "tangent": t, "isotropy": f - t}
        fiber = spec.k - rank_oracle([[p(pt) for p in rel] for rel in rels])
        assert (f, t) == (fiber, rank_oracle([g(pt) for g in spec.generators])), label


def test_witness_check_survives_python_O():
    # a witness minor that vanishes at its own point is caught with asserts stripped
    proc = run_python(
        "import sys\n"
        "from foliations import modalg\n"
        "from foliations.vfparse import Poly\n"
        "from helpers import sl2\n"
        "modalg._det = lambda mat, spent: Poly.zero(2)\n"
        "try:\n"
        "    modalg._dims(sl2(), [(1, 0), (0, 1)], 1)\n"
        "except AssertionError as e:\n"
        "    print(sys.flags.optimize, e)\n",
        "-O",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 internal error: the witness minor vanishes at its own point\n"


@pytest.mark.parametrize(
    "extra, calls", [([], 0), (["--point", "1,2,3"], 1)], ids=["grid", "grid-and-point"]
)
def test_dims_grid_scales_no_point_by_itself(files, capsys, monkeypatch, extra, calls):
    # the grid is scaled once, as a whole; only --point goes through as_point
    original = sys.modules["foliations.modalg"].as_point
    scaled = []

    def counted(*args):
        scaled.append(args)
        return original(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("foliations") and getattr(mod, "as_point", None) is original:
            monkeypatch.setattr(mod, "as_point", counted)
    code, rep, _ = invoke(capsys, ["dims", files["gl3"], "--grid", "-2:2:1/4"] + extra)
    assert code == 0 and len(rep["results"]["grid"]) == 4913
    assert len(scaled) == calls


def test_dims_grid_too_large_exit_3(files, capsys):
    # 10^9 + 1 points per axis: refused from the count, before any point is built
    code, rep, _ = invoke(capsys, ["dims", files["sl2"], "--grid", "0:1000:1/1000000"])
    assert code == 3
    assert rep["results"] == {}
    assert rep["diagnostics"]["error_type"] == "BudgetError"
    assert str(1000000001**2) in rep["diagnostics"]["error"]


def test_grid_point_cap_is_exact():
    assert len(_lattice((Fraction(0), Fraction(99999), Fraction(1)), 1)[1]) == _MAX_POINTS
    with pytest.raises(BudgetError, match="100001 points"):
        _lattice((Fraction(0), Fraction(100000), Fraction(1)), 1)
    with pytest.raises(BudgetError, match=f"{317**2} points"):
        _lattice((Fraction(0), Fraction(316), Fraction(1)), 2)
    # the axis holds exactly the points a, a + step, ... up to b, over D = 4
    d, xs, labels = _lattice((Fraction(-1, 2), Fraction(1, 3), Fraction(1, 4)), 1)
    assert (d, xs, labels) == (4, [-2, -1, 0, 1], ["-1/2", "-1/4", "0", "1/4"])
    # D is the lcm of the denominators of a and step, not of each point's own
    d, xs, labels = _lattice((Fraction(-7, 3), Fraction(2), Fraction(1, 2)), 1)
    assert d == 6 and xs == [-14 + 3 * i for i in range(9)]
    assert [Fraction(x, d) for x in xs] == [Fraction(label) for label in labels]
    assert labels[1] == "-11/6" and labels[-1] == "5/3"


# exponents whose powers of ten, or a grid's point count, str() refuses
# (LONG) or still writes (SHORT)
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG, SHORT = _DIGITS + 700, (_DIGITS - 1) // 2


@pytest.mark.skipif(not _DIGITS, reason="the interpreter converts integers of any length to strings")
@pytest.mark.parametrize(
    "args, code, error",
    [
        (["--point", f"1e{LONG},0"], 2, "--point has a number too long to print"),
        (["--point", f"1e-{LONG},0"], 2, "--point has a number too long to print"),
        (["--grid", f"1e{LONG}:1e{LONG}:1"], 2, "--grid has a number too long to print"),
        (["--grid", f"0:1e{LONG}:1"], 3, f"--grid has more than {_MAX_POINTS} points"),
        (["--grid", f"0:1e{SHORT}:1"], 3, f"--grid has {(10**SHORT + 1) ** 2} points, more than {_MAX_POINTS}"),
    ],
    ids=["point", "point-denominator", "grid-label", "grid-count", "grid-count-printed"],
)
def test_overlong_dims_numbers_end_in_a_report(files, capsys, args, code, error):
    # a number str() cannot write is a usage error naming its flag; a grid
    # over the point cap is a budget error however many digits its count has
    error_type = "_UsageError" if code == 2 else "BudgetError"
    assert failure(capsys, ["dims", files["sl2"], *args], code, error_type)["error"] == error


# short literals whose product has more digits than str() writes
_TOO_LONG = "*".join(["10^1000"] * (_DIGITS // 1000 + 1))


@pytest.mark.skipif(not _DIGITS, reason="the interpreter converts integers of any length to strings")
@pytest.mark.parametrize(
    "cmd, generators, extra",
    [
        ("member", ["x*dx - y*dy", "y*dx", "x*dy"], ["--field", f"{_TOO_LONG}*x*dy"]),
        ("singular", [f"{_TOO_LONG}*x*dy"], []),
        ("syzygy", [f"{_TOO_LONG}*x*dx", "y*dx"], []),
        ("check", ["dx", f"{_TOO_LONG}*x*dy"], []),
    ],
    ids=["certificate", "minor", "relation", "bracket-witness"],
)
def test_answers_too_long_to_print_exit_3(capsys, tmp_path, cmd, generators, extra):
    # the parser's literal check cannot see the product; the one printer of
    # exact coefficients refuses it, and the report names the result
    path = tmp_path / "long.fol"
    path.write_text("vars: x y\ngenerators:\n" + "".join(f"  {g}\n" for g in generators))
    diagnostics = failure(capsys, [cmd, str(path), *extra], 3, "BudgetError")
    assert diagnostics["error"] == "answer has a number too long to print"


@pytest.mark.parametrize(
    "cmd, flag, extra",
    [("leaf", "--steps", ["--seed", "1"]), ("chart-rank", "--samples", ["--seed", "1"])],
)
def test_point_counts_over_the_cap_exit_3(files, capsys, monkeypatch, cmd, flag, extra):
    # refused from the count, before any point is built
    def no_points(*args, **kwargs):
        raise AssertionError("built points past the cap")

    for name in ("leaf_sample", "random_rational_points"):
        monkeypatch.setattr(f"foliations.cli.{name}", no_points)
    count = _MAX_POINTS + 1
    diags = _budget_report(capsys, [cmd, files["so3"], "--point", "1,0,0", flag, str(count), *extra])
    assert f"{flag} has {count} points, more than {_MAX_POINTS}" in diags["error"]


def test_check_involutive(files, capsys):
    code, rep, _ = invoke(capsys, ["check", files["sl2"]])
    assert code == 0
    assert rep["results"]["closed"] is True


def test_check_non_involutive_exit_1(files, capsys):
    code, rep, _ = invoke(capsys, ["check", files["nonint"]])
    assert code == 1
    assert rep["results"]["witnesses"] == [{"bracket": "dy", "i": 1, "j": 2}]


def test_member_false_exit_0(files, capsys):
    code, rep, _ = invoke(capsys, ["member", files["folk2"], "--field", "x*dx"])
    assert code == 0
    assert rep["results"]["member"] is False


def test_member_true_with_certificate(files, capsys):
    code, rep, _ = invoke(capsys, ["member", files["folk2"], "--field", "x^3*dx"])
    assert code == 0
    assert rep["results"]["member"] is True
    assert rep["results"]["certificate"] == ["x"]


def test_syzygy(files, capsys):
    code, rep, _ = invoke(capsys, ["syzygy", files["sl2"]])
    assert code == 0
    assert len(rep["results"]["relations"]) == 1


def test_singular(files, capsys):
    code, rep, _ = invoke(capsys, ["singular", files["sl2"]])
    assert code == 0
    assert rep["results"]["generic_rank"] == 2
    assert sorted(rep["results"]["minor_ideal"]) == ["x*y", "x^2", "y^2"]


def test_localgens(files, capsys):
    code, rep, _ = invoke(capsys, ["localgens", files["sl2"], "--point", "1,0"])
    assert code == 0
    assert rep["results"]["indices"] == [1, 3]


@pytest.mark.parametrize("point, indices", [("1,0", [1, 3]), ("0,0", [1, 2, 3])])
def test_localgens_is_one_elimination(files, capsys, monkeypatch, point, indices):
    # the syzygy rows over the unit rows; before, one more per generator tried
    ranks = _counted(monkeypatch, "_pivots")
    code, rep, _ = invoke(capsys, ["localgens", files["sl2"], "--point", point])
    assert (code, rep["results"]["indices"], len(ranks)) == (0, indices, 1)


def test_flow(files, capsys):
    code, rep, _ = invoke(capsys, ["flow", files["sl2"], "--word", "0,1,0@1", "--point", "0,1"])
    assert code == 0
    end = rep["results"]["endpoint"]
    assert abs(end[0] - 1.0) < 1e-6 and abs(end[1] - 1.0) < 1e-6


def test_word_step_without_duration_exit_2(files, capsys):
    diags = failure(capsys, ["flow", files["sl2"], "--word", "1,0,0", "--point", "1,1"], 2, "_UsageError")
    assert diags["error"] == "word step '1,0,0' is missing '@duration'"


def test_word_empty_chunks_are_skipped(files, capsys):
    args = ["flow", files["sl2"], "--point", "1,1", "--word"]
    code, rep, _ = invoke(capsys, args + ["0,1,0@1;; 1,0,0@1/2;"])
    assert code == 0
    assert rep["results"] == invoke(capsys, args + ["0,1,0@1; 1,0,0@1/2"])[1]["results"]


@pytest.mark.parametrize("h", ["0", "nan", "-1"])
def test_flow_bad_step_size_exit_2(files, capsys, h):
    code, rep, _ = invoke(
        capsys, ["flow", files["sl2"], "--word", "0,1,0@1", "--point", "0,1", "--h", h]
    )
    assert code == 2
    assert "step_size" in rep["diagnostics"]["error"]


@pytest.mark.parametrize(
    "args, flag",
    [
        (["flow", "sl2", "--word", "1,0,0@1", "--point", "1,1", "--h", "inf"], "step_size"),
        (["pushforward", "sl2", "--coeffs", "1,0,0", "--time", "nan"], "--time"),
        (["germ-eq", "sl2", "--word1", "1,0,0@1", "--word2", "0,0,0@1", "--point", "0,0", "--tol", "nan"], "--tol"),
        (["leaf", "sl2", "--point", "1,1", "--steps", "-3", "--seed", "1"], "step count"),
        (["chart-rank", "sl2", "--point", "1,1", "--samples", "-2", "--seed", "1"], "--samples"),
    ],
    ids=["flow-h-inf", "pushforward-time-nan", "germ-eq-tol-nan", "leaf-steps-neg", "chart-rank-samples-neg"],
)
def test_bad_numeric_input_exit_2(files, capsys, args, flag):
    args = [args[0], files[args[1]]] + args[2:]
    code, rep, _ = invoke(capsys, args)
    assert code == 2
    assert rep["results"] == {}
    assert flag in rep["diagnostics"]["error"]


def test_non_finite_result_exit_3(files, capsys):
    # exp(800 A) and exp(1e300 A) overflow to infinities, whose products are
    # NaN; the report says so and nothing reaches stderr
    for args in (
        ["pushforward", files["sl2"], "--coeffs", "1,0,0", "--time", "800"],
        ["jet-exact", files["sl2"], "--word", "1,0,0@1e300"],
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(args)
        out, err = capsys.readouterr()
        rep = json.loads(out, parse_constant=_reject_constant)
        jsonschema.validate(rep, SCHEMA)
        assert code == 3
        assert rep["results"] == {}
        assert "not finite" in rep["diagnostics"]["error"]
        assert caught == [] and err == ""


def test_zero_weight_on_an_overflowing_generator(capsys, tmp_path):
    # 10^400 is beyond the float range: the zero weight leaves it out of the
    # combined field, but the pushforward still conjugates it and is not finite
    p = tmp_path / "huge.fol"
    p.write_text("vars: x y\ngenerators:\n  10^400*x*dx\n  y*dy\n")
    diags = failure(capsys, ["pushforward", str(p), "--coeffs", "0,1", "--time", "1"], 3, "ArithmeticError")
    assert diags["error"] == "result is not finite"
    code, rep, _ = invoke(capsys, ["jet-exact", str(p), "--word", "0,1@1"])
    assert (code, rep["results"]) == (0, {"jet": [[1.0, 0.0], [0.0, 2.718281828459046]]})
    word = ["--word1", "0,1@1", "--word2", "0,1@1", "--point", "0,0"]
    code, rep, _ = invoke(capsys, ["germ-eq", str(p), *word])
    assert (code, rep["results"]) == (0, {"equal": True})


@pytest.mark.parametrize(
    "args",
    [
        ["jet-exact", "--word", "2,0,0@1e308"],
        ["jet-exact", "--word", "1e400,0,0@1"],
        ["pushforward", "--coeffs", "2,0,0", "--time", "1e308"],
        ["germ-eq", "--word1", "2,0,0@1e308", "--word2", "0,0,0@1", "--point", "0,0"],
    ],
    ids=["norm-overflow", "coefficient-overflow", "pushforward", "germ-eq"],
)
def test_overflowing_exponential_exit_3(files, capsys, args):
    # a matrix whose 1-norm or coefficients overflow a float has no scaling
    # exponent; the exponential is non-finite, and the report says so
    code = run([args[0], files["sl2"], *args[1:]])
    out, err = capsys.readouterr()
    rep = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(rep, SCHEMA)
    assert code == 3 and err == ""
    assert "not finite" in rep["diagnostics"]["error"]


@pytest.mark.parametrize(
    "args, code",
    [
        (["flow", "--word", "1,0,0@1e400", "--point", "1,1"], 2),
        (["jet", "--word", "1,0,0@1e400", "--point", "0,0"], 2),
        (["jet-exact", "--word", "1,0,0@1e400"], 2),
        (["germ-eq", "--word1", "1,0,0@1e400", "--word2", "0,0,0@1", "--point", "0,0"], 2),
        (["flow", "--word", "1,0,0@1", "--point", "1e400,1"], 2),
        (["leaf", "--point", "1e400,1", "--steps", "3", "--seed", "1"], 2),
        (["flowbox", "--gen", "1", "--point", "1e400,1"], 2),
        (["chart-rank", "--point", "1e400,1", "--samples", "2", "--seed", "1"], 2),
        (["flow", "--word", "1e400,0,0@1", "--point", "1,1"], 3),
    ],
    ids=[
        "flow-duration", "jet-duration", "jet-exact-duration", "germ-eq-duration", "flow-point",
        "leaf-point", "flowbox-point", "chart-rank-point", "flow-coefficient",
    ],
)
def test_rational_beyond_float_range(files, capsys, args, code):
    # a duration or point coordinate that no float holds is a violated
    # precondition; a coefficient that large is an infinity, and the first
    # step leaves the domain box
    got = run([args[0], files["sl2"], *args[1:]])
    out, err = capsys.readouterr()
    rep = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(rep, SCHEMA)
    assert (got, rep["results"], err) == (code, {}, "")
    assert rep["diagnostics"]["error_type"] == ("PreconditionError" if code == 2 else "BlowUpError")


def test_flow_blowup_exit_3(files, capsys):
    code, rep, _ = invoke(capsys, ["flow", files["folk2"], "--word", "1@1", "--point", "2"])
    assert code == 3
    assert rep["diagnostics"]["error_type"] == "BlowUpError"


_WALK = ["--steps", "100000", "--seed", "1", "--h", "1e-6"]


@pytest.mark.parametrize(
    "cmd, args",
    [
        ("flow", ["--word", "1,0,0@600; 0,1,0@600"]),
        ("jet", ["--word", "1,0,0@600; 0,1,0@600"]),
        ("flow", ["--word", "1,0,0@1e307"]),
        ("leaf", _WALK),
    ],
    ids=["flow-word", "jet-word", "flow-duration-over-float-range", "leaf-walk"],
)
def test_flow_over_the_step_cap_exit_3(files, capsys, monkeypatch, cmd, args):
    # each 600 segment takes 600,001 RK4 steps, under the 1e6 cap, and the
    # word is over it; 1e307 / 1e-3 steps is beyond the float range; each
    # walk step takes at most 0.1 / 1e-6 + 1 steps, and the walk is over
    # the cap.  All are refused before the first step
    monkeypatch.setattr(sys.modules["foliations.flow"], "_runner", lambda *a: pytest.fail("RK4 ran"))
    code = run([cmd, files["sl2"], *args, "--point", "0,0"])
    out, err = capsys.readouterr()
    rep = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(rep, SCHEMA)
    assert (code, rep["results"], err) == (3, {}, "")
    assert rep["diagnostics"] == {
        "error": "flow would need more than 1000000 steps", "error_type": "BudgetError",
    }


def test_leaf_blowup_time_counts_from_the_start_of_the_walk(files, capsys):
    # x' = x^2 from 50 leaves the box in walk step 30, after 1.4975 time units
    args = ["leaf", files["folk2"], "--point", "50", "--steps", "200", "--seed", "1"]
    code, rep, _ = invoke(capsys, args)
    assert code == 3
    assert rep["diagnostics"]["error"] == "trajectory left the domain box (t = 1.49753)"


_SO3_WORD = "; ".join(["1/2,1/4,-1/8@0.3", "-1/3,1/5,1/7@0.25", "1/6,-1/2,1/3@0.4"] * 3)
_CSTAR_WORD = "; ".join(["1/2,1@0.7", "-1/4,1/3@0.45", "0,-1@0.2"] * 2)

# sha256 of the whole stdout, run from the spec files' directory, recorded
# while the RK4 kernel was still called once per step
NUMERIC_DIGESTS = [
    (
        ["leaf", "gl3.fol", "--point", "1,1/2,-1/4", "--steps", "600", "--seed", "11"],
        0,
        "3b6186e795207c83c23fed45fdb3a82cd8c559c18c44efc9615bf926d1094def",
    ),
    (
        ["flow", "so3.fol", "--word", _SO3_WORD, "--point", "1,2,-1/2"],
        0,
        "e82acac5af451aae557f0b12984027001133f39e17175483b8aa1fcb06555446",
    ),
    (
        ["jet", "so3.fol", "--word", _SO3_WORD, "--point", "0,0,0"],
        0,
        "d02a53badb098f1a87cb7a1cf0a170047cda2465674928fef6ebb3d67df46814",
    ),
    (
        ["jet", "cstar.fol", "--word", _CSTAR_WORD, "--point", "0,0"],
        0,
        "e309f62cdeb8f09fee37953f344af1c3377d92cd7696f64e21c7307f2498311e",
    ),
    (
        ["chart-rank", "sl2.fol", "--point", "1,0", "--samples", "4", "--seed", "3"],
        0,
        "d2b1c4ea442dc19bf17d534d27e898ecd0f5dd5ddb2a29ff1117ba7ce98fa8c0",
    ),
    (
        ["flowbox", "sl2.fol", "--gen", "2", "--point", "1,1"],
        0,
        "0e4f9035377fc5fc85e6524d5b4b24679fc6c8642155b4d58d42c731fdd1c78e",
    ),
    # x' = x^2 from 2 leaves the box near t = 1/2: in a full step (t = 0.501),
    # and with h = 0.3 in the remainder step (t = 0.7)
    (
        ["flow", "folk2.fol", "--word", "1@1", "--point", "2"],
        3,
        "75619eceee6ff2d30550716fa818af8a280d80356199a6af20e25bf5a81aec4a",
    ),
    (
        ["flow", "folk2.fol", "--h", "0.3", "--word", "1@0.7", "--point", "2"],
        3,
        "cff95785728419a1ecc09f055e5bf57aae8765917e85e4e975c0a5ea305225fa",
    ),
]


@pytest.mark.parametrize(
    "args, code, digest",
    NUMERIC_DIGESTS,
    ids=[
        "leaf-gl3", "flow-so3", "jet-so3", "jet-cstar", "chart-rank-sl2", "flowbox-sl2",
        "blowup-mid-segment", "blowup-remainder-step",
    ],
)
def test_numeric_output_matches_golden_digests(files, capsys, monkeypatch, args, code, digest):
    monkeypatch.chdir(Path(files["sl2"]).parent)
    got, _, out = invoke(capsys, args)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_leaf_requires_seed(files, capsys):
    code, rep, _ = invoke(capsys, ["leaf", files["sl2"], "--point", "1,0", "--steps", "5"])
    assert code == 2


def test_leaf_seeded(files, capsys):
    args = ["leaf", files["sl2"], "--point", "1,0", "--steps", "5", "--seed", "11"]
    code, rep, out1 = invoke(capsys, args)
    assert code == 0
    assert rep["seed"] == 11
    assert len(rep["results"]["points"]) == 6
    _, _, out2 = invoke(capsys, args)
    assert out1 == out2  # byte-identical rerun


def test_chart_rank(files, capsys):
    args = ["chart-rank", files["sl2"], "--point", "1,0", "--samples", "6", "--seed", "4"]
    code, rep, out1 = invoke(capsys, args)
    assert code == 0
    assert rep["results"]["ok"] is True
    assert len(rep["results"]["entries"]) == 7
    # --jobs does not change the payload
    code2, rep2, _ = invoke(capsys, args + ["--jobs", "3"])
    assert rep2["results"] == rep["results"]


def test_flowbox(files, capsys):
    code, rep, _ = invoke(capsys, ["flowbox", files["sl2"], "--gen", "1", "--point", "1,0"])
    assert code == 0
    assert rep["results"]["invertible"] is True
    code, rep, _ = invoke(capsys, ["flowbox", files["sl2"], "--gen", "2", "--point", "1,0"])
    assert code == 2  # generator vanishes at the point


def test_jet_and_exact(files, capsys):
    code, rep, _ = invoke(capsys, ["jet", files["sl2"], "--word", "0,1,0@1", "--point", "0,0"])
    assert code == 0
    jet = rep["results"]["jet"]
    assert abs(jet[0][1] - 1.0) < 1e-6
    code, rep2, _ = invoke(capsys, ["jet-exact", files["sl2"], "--word", "0,1,0@1"])
    assert code == 0
    for i in range(2):
        for j in range(2):
            assert abs(rep["results"]["jet"][i][j] - rep2["results"]["jet"][i][j]) < 1e-6


def test_jet_non_fixed_point_exit_2(files, capsys):
    code, rep, _ = invoke(capsys, ["jet", files["sl2"], "--word", "1,0,0@1", "--point", "1,0"])
    assert code == 2
    assert rep["diagnostics"]["error_type"] == "NotFixedPointError"


def test_germ_eq(files, capsys):
    code, rep, _ = invoke(
        capsys,
        ["germ-eq", files["sl2"], "--word1", "0,1,0@1", "--word2", "0,0,1@1", "--point", "0,0"],
    )
    assert code == 0
    assert rep["results"]["equal"] is False


@pytest.mark.parametrize("point", ["0", "0,0,0"])
def test_germ_eq_point_of_the_wrong_length_exit_2(files, capsys, point):
    args = ["germ-eq", files["sl2"], "--word1", "1,0,0@1", "--word2", "1,0,0@1", "--point", point]
    diags = failure(capsys, args, 2, "ArityError")
    assert diags["error"] == f"point has {point.count(',') + 1} coordinates, expected 2"


def test_germ_eq_non_finite_jet_exit_3(files, capsys):
    # exp(1e300 A) overflows; the answer is an error, not "equal": false
    args = ["germ-eq", files["sl2"], "--word1", "1,0,0@1e300", "--word2", "0,0,0@1", "--point", "0,0"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(args)
    out, err = capsys.readouterr()
    rep = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(rep, SCHEMA)
    assert code == 3
    assert rep["results"] == {}
    assert rep["diagnostics"]["error_type"] == "BlowUpError"
    assert "not finite" in rep["diagnostics"]["error"]
    assert caught == [] and err == ""


def test_pushforward(files, capsys):
    code, rep, _ = invoke(
        capsys, ["pushforward", files["sl2"], "--coeffs", "1,1,0", "--time", "0.5"]
    )
    assert code == 0
    assert rep["results"]["ok"] is True


def test_parse_error_exit_2_with_location(files, capsys, tmp_path):
    p = tmp_path / "bad.fol"
    p.write_text("vars: x y\ngenerators:\n  z*dx\n")
    code, rep, _ = invoke(capsys, ["check", str(p)])
    assert code == 2
    assert "z" in rep["diagnostics"]["error"]
    assert rep["diagnostics"]["line"] == 3


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter converts integer strings of any length",
)
@pytest.mark.parametrize("template, column", [("{}*x*dx", 1), ("x^{}*dx", 3)])
def test_overlong_integer_literal_exit_2(files, capsys, tmp_path, template, column):
    field = template.format("7" * (sys.get_int_max_str_digits() + 1))
    code, rep, _ = invoke(capsys, ["member", files["sl2"], "--field", field])
    assert code == 2
    assert rep["diagnostics"]["error_type"] == "ParseError"
    assert rep["diagnostics"]["column"] == column
    assert "too long" in rep["diagnostics"]["error"]
    p = tmp_path / "long.fol"
    p.write_text(f"vars: x y\ngenerators:\n  y*dx\n  {field}\n")
    code, rep, _ = invoke(capsys, ["check", str(p)])
    assert code == 2
    assert rep["diagnostics"]["error_type"] == "ParseError"
    assert (rep["diagnostics"]["line"], rep["diagnostics"]["column"]) == (4, column + 2)


def _nested(depth):
    return "(" * depth + "x" + ")" * depth + "*dy"


def test_parentheses_100_deep_parse(files, capsys, tmp_path):
    code, rep, _ = invoke(capsys, ["member", files["sl2"], "--field", _nested(100)])
    assert (code, rep["results"]["member"]) == (0, True)
    p = tmp_path / "deep.fol"
    p.write_text(f"vars: x y\ngenerators:\n  {_nested(100)}\n")
    assert invoke(capsys, ["check", str(p)])[0] == 0


@pytest.mark.parametrize("depth", [101, 300])
def test_parentheses_nested_too_deep_exit_2(files, capsys, tmp_path, depth):
    # the parser recurses once per level, so it stops at the 101st '('
    # instead of running out of stack
    diags = failure(capsys, ["member", files["sl2"], "--field", _nested(depth)], 2, "ParseError")
    assert (diags["error"], diags["column"]) == ("parentheses nested deeper than 100 (column 101)", 101)
    p = tmp_path / "deep.fol"
    p.write_text(f"vars: x y\ngenerators:\n  y*dx\n  {_nested(depth)}\n")
    diags = failure(capsys, ["check", str(p)], 2, "ParseError")
    assert (diags["line"], diags["column"]) == (4, 103)


def test_huge_exponent_exit_3(files, capsys):
    # refused by the parser's exponent cap before the power is expanded
    code = run(["member", files["sl2"], "--field", "x^1000000000*dx"])
    out, err = capsys.readouterr()
    rep = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(rep, SCHEMA)
    assert code == 3 and err == ""
    assert rep["results"] == {}
    assert rep["diagnostics"]["error_type"] == "BudgetError"
    assert "exponent 1000000000" in rep["diagnostics"]["error"]


def _budget_report(capsys, args):
    return failure(capsys, args, 3, "BudgetError")


def test_budget_error_in_file_has_location(capsys, tmp_path):
    p = tmp_path / "pow.fol"
    p.write_text("vars: x y\ngenerators:\n  y*dx\n  x^2000*dy\n")
    diags = _budget_report(capsys, ["check", str(p)])
    assert "exponent 2000" in diags["error"]
    assert (diags["line"], diags["column"]) == (4, 4)


def test_long_product_exit_3(files, capsys, tmp_path):
    # 30 factors would expand to 46,376 terms; the parser's running count of
    # term products passes its cap at the 21st factor and stops there
    field = "*".join(["(x+y+z+w+1)"] * 30) + "*dx"
    p = tmp_path / "product.fol"
    p.write_text(f"vars: x y z w\ngenerators:\n  {field}\n")
    diags = _budget_report(capsys, ["check", str(p)])
    assert "more than 250000" in diags["error"]
    assert (diags["line"], diags["column"]) == (3, 2 + 20 * 12)  # the 20th '*'


def test_powers_join_the_running_product_count(files, capsys):
    # (x+y)^350 may form 350 * 2 * 351 = 245,700 term products: one power
    # parses, and a second one passes the cap at its '^'
    field = "(x+y)^350*dx + (x+y)^350*dy"
    diags = _budget_report(capsys, ["member", files["sl2"], "--field", field])
    assert "245700 term products, 491751 in all, more than 250000" in diags["error"]
    assert diags["column"] == field.rindex("^") + 1


def _geometric(var, count):
    return "(" + " + ".join(["1"] + [f"{var}^{e}" for e in range(1, count)]) + ")"


@pytest.mark.parametrize(
    "generator, point",
    [
        ("x^1000*y^1000*z^1000*dx", "1,1,1"),
        # one component of 16 * 15 * 15 = 3,600 terms; at x = -1 its x-sum is 0
        ("*".join([_geometric("x", 16), _geometric("y", 15), _geometric("z", 15)]) + "*dx", "1/2,1/2,1/2"),
    ],
    ids=["degree-3000", "3600-terms"],
)
def test_long_and_high_degree_fields(capsys, tmp_path, generator, point):
    # operator chains past the compiler's depth limit are cut into temporaries
    p = tmp_path / "long.fol"
    p.write_text(f"vars: x y z\ngenerators:\n  {generator}\n")
    fixed = "0,0,0" if generator.startswith("x^") else "-1,0,0"
    for args in (["flow", "--word", "1@0.001", "--point", point], ["jet", "--word", "1@0.001", "--point", fixed]):
        code = run([args[0], str(p), *args[1:]])
        out, err = capsys.readouterr()
        rep = json.loads(out, parse_constant=_reject_constant)
        jsonschema.validate(rep, SCHEMA)
        assert code == 0 and err == "", rep["diagnostics"]
    assert abs(rep["results"]["jet"][1][1] - 1.0) == 0.0


def test_singular_locus_over_its_product_cap_exit_3(capsys, tmp_path):
    # 9 quadratic generators in 7 variables: 36 minors of size 7 to expand
    rng = XorShift64Star(5)
    names = tuple("abcdefg")
    spec = FoliationSpec(names, tuple(random_field(rng, 7, 2) for _ in range(9)))
    p = tmp_path / "dense.fol"
    save_foliation_file(FoliationFile(str(p), spec), p)
    diags = _budget_report(capsys, ["singular", str(p)])
    assert "more than 250000 term products (0 minors done)" in diags["error"]


def _rank_one_file(tmp_path, n):
    # n copies of x0*dx0 in n variables: every minor above size 1 is zero
    p = tmp_path / f"rank1-{n}.fol"
    p.write_text("vars: " + " ".join(f"x{i}" for i in range(n)) + "\ngenerators:\n" + "  x0*dx0\n" * n)
    return str(p)


def test_singular_locus_over_its_minor_cap_exit_3(capsys, monkeypatch, tmp_path):
    # the scan visits the 64 minors of size 1, then the 784 of size 2; these
    # are zero and form no term product, so only the minor cap stops it
    monkeypatch.setattr("foliations.modalg._MAX_MINORS", 500)
    diags = _budget_report(capsys, ["singular", _rank_one_file(tmp_path, 8)])
    assert "more than 500 minors (500 minors done)" in diags["error"]


def test_singular_locus_of_rank_one_skips_the_larger_minors(capsys, monkeypatch, tmp_path):
    # rank 1 at the point (1, .., 10), so the scan starts at size 1 and stops
    # after the zero size-2 minors: 100 + 2,025 of them, not the millions of
    # sizes 3 to 10
    monkeypatch.setattr("foliations.modalg._MAX_MINORS", 2125)
    code, rep, _ = invoke(capsys, ["singular", _rank_one_file(tmp_path, 10)])
    assert code == 0
    assert rep["results"] == {"generic_rank": 1, "minor_ideal": ["x0"] * 10}
    monkeypatch.setattr("foliations.modalg._MAX_MINORS", 2124)
    diags = _budget_report(capsys, ["singular", _rank_one_file(tmp_path, 10)])
    assert "more than 2124 minors (2124 minors done)" in diags["error"]


def test_missing_file_exit_2(capsys):
    code, rep, _ = invoke(capsys, ["check", "/nonexistent/nope.fol"])
    assert code == 2


def test_usage_error_exit_2(capsys):
    code, rep, _ = invoke(capsys, ["dims"])  # missing file
    assert code == 2


# malformed requests and the error each reports, in argparse's words
_USAGE_ERRORS = [
    ([], "the following arguments are required: cmd"),
    (["check"], "the following arguments are required: file"),
    (["leaf", "{sl2}"], "the following arguments are required: --point, --steps, --seed"),
    (["leaf", "{sl2}", "--point", "1,0", "--steps", "x", "--seed", "1"], "argument --steps: invalid int value: 'x'"),
    (["localgens", "{sl2}", "--point"], "argument --point: expected one argument"),
    (["check", "{sl2}", "--json=1"], "argument --json: ignored explicit argument '1'"),
    (["-h"], "the following arguments are required: cmd"),
    (["dims", "{sl2}", "--pointx", "1"], "unrecognized arguments: --pointx 1"),
    # the arguments as given, not joined into '--field=-1:1:1'
    (["singular", "{sl2}", "--field", "-1:1:1"], "unrecognized arguments: --field -1:1:1"),
]


def test_usage_error_messages(files, capsys):
    for argv, error in _USAGE_ERRORS:
        diags = failure(capsys, [a.format(**files) for a in argv], 2, "_UsageError")
        assert diags["error"] == error, argv
    diags = failure(capsys, ["bogus", files["sl2"]], 2, "_UsageError")
    head, _, choices = diags["error"].partition(" (choose from ")
    assert head == "argument cmd: invalid choice: 'bogus'"
    # quoted or not, depending on the Python version
    assert re.findall(r"[\w-]+", choices) == list(_COMMANDS)


@pytest.mark.parametrize("argv", [["--help"], ["check", "{sl2}", "-h"]], ids=["fol", "subcommand"])
def test_help_is_a_usage_error(files, capsys, argv):
    # there is no help text: every invocation ends in one JSON report
    code = run([a.format(**files) for a in argv])
    out, err = capsys.readouterr()
    rep = json.loads(out, parse_constant=_reject_constant)  # one document, or "Extra data"
    jsonschema.validate(rep, SCHEMA)
    assert (code, rep["results"], err) == (2, {}, "")


# one request per flag that takes a value, with a value starting with '-',
# and part of the report it gives: results, or diagnostics when it fails
_ORIGIN = ["--point", "0,0"]
_NEGATIVE_VALUES = {
    "--point": (["dims", "--point", "-1,0"], 0, {"point": "-1,0", "tangent": 2}),
    "--grid": (
        ["dims", "--grid", "-1:-1:1"],
        0,
        {"grid": [{"point": "-1,-1", "fiber": 2, "tangent": 2, "isotropy": 0}]},
    ),
    "--word": (["jet-exact", "--word", "-1,0,0@0"], 0, {"jet": [[1.0, 0.0], [0.0, 1.0]]}),
    "--word1": (["germ-eq", "--word1", "-1,0,0@1", "--word2", "0,0,0@0", *_ORIGIN], 0, {"equal": False}),
    "--word2": (["germ-eq", "--word1", "0,0,0@0", "--word2", "-1,0,0@0", *_ORIGIN], 0, {"equal": True}),
    "--coeffs": (["pushforward", "--coeffs", "-1,0,0", "--time", "1"], 0, {"ok": True}),
    "--time": (["pushforward", "--coeffs", "1,0,0", "--time", "-1e-1"], 0, {"ok": True}),
    "--field": (["member", "--field", "-x*dy"], 0, {"member": True, "certificate": ["0", "0", "-1"]}),
    # read as the flag's value, then refused by its own check
    "--h": (
        ["flow", "--word", "1,0,0@1", "--point", "1,1", "--h", "-1e-3"],
        2,
        {"error": "step_size must be finite and strictly positive"},
    ),
    "--tol": (
        ["germ-eq", "--word1", "1,0,0@1", "--word2", "0,0,0@0", *_ORIGIN, "--tol", "-1"],
        2,
        {"error": "tolerance must be positive, got -1.0"},
    ),
}


def test_every_value_flag_has_a_negative_value_case():
    # every flag in the table that takes a string or a float
    flags = {flag.strip("[]") for usage in (_COMMON, *(usage for _, usage in _TABLE.values())) for flag in usage.split()}
    assert set(_NEGATIVE_VALUES) == {flag for flag in flags if _TYPES.get(flag, str) in (str, float)}


@pytest.mark.parametrize("flag", sorted(_NEGATIVE_VALUES))
def test_negative_values_accepted(files, capsys, flag):
    args, code, expected = _NEGATIVE_VALUES[flag]
    got, rep, _ = invoke(capsys, [args[0], files["sl2"], *args[1:]])
    part = rep["results"] if code == 0 else rep["diagnostics"]
    assert (got, {key: part.get(key) for key in expected}) == (code, expected)


def test_equals_values_and_the_end_of_the_flags(files, capsys):
    # '--flag=value' gives the value in one argument, and after '--' every
    # argument is the file or unrecognized
    code, rep, _ = invoke(capsys, ["dims", "--point=-1,0", files["sl2"]])
    assert (code, rep["results"]["point"]) == (0, "-1,0")
    code, rep, _ = invoke(capsys, ["check", "--json", "--", files["sl2"]])
    assert (code, rep["inputs"]["file"]) == (0, files["sl2"])
    diags = failure(capsys, ["dims", files["sl2"], "--point", "1,0", "--", "--grid", "0:1:1"], 2, "_UsageError")
    assert diags["error"] == "unrecognized arguments: --grid 0:1:1"
    # an int flag takes a value with one leading '-' too, and int() judges it
    diags = failure(capsys, ["leaf", files["sl2"], "--point", "1,0", "--steps", "-x", "--seed", "1"], 2, "_UsageError")
    assert diags["error"] == "argument --steps: invalid int value: '-x'"


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_germ_eq_tolerance_must_be_positive(files, capsys, tol):
    # no gap is below a tolerance of 0, so two equal words would compare unequal
    args = ["germ-eq", files["sl2"], "--word1", "0,0,0@0", "--word2", "0,0,0@0", "--point", "0,0"]
    diags = failure(capsys, [*args, "--tol", tol], 2, "PreconditionError")
    assert diags["error"] == f"tolerance must be positive, got {float(tol)}"
    code, rep, _ = invoke(capsys, [*args, "--tol", "1e-300"])
    assert (code, rep["results"]) == (0, {"equal": True})


@pytest.mark.parametrize("value", ["1,0", "-1,0"])
def test_abbreviated_flags_are_usage_errors(files, capsys, value):
    # flags are written in full, whatever their value looks like
    diags = failure(capsys, ["dims", files["sl2"], "--poi", value], 2, "_UsageError")
    assert diags["error"] == f"unrecognized arguments: --poi {value}"
    diags = failure(capsys, ["dims", files["sl2"], "--point", value, "--js"], 2, "_UsageError")
    assert diags["error"] == "unrecognized arguments: --js"


def test_readme_command_table_names_each_subcommands_flags():
    # README's table lists every subcommand with its own flags in table
    # order, an optional one in brackets; the global flags are listed apart
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme[readme.index("| subcommand |"):readme.index("Syntax:")]
    documented = {
        name: " ".join(f"[{flag}]" if bracket else flag for bracket, flag in re.findall(r"(\[?)(--[\w-]+)", usage))
        for name, usage in re.findall(r"^\| `([\w-]+)([^`]*)` \|", table, re.M)
    }
    assert list(documented.items()) == [(name, usage) for name, (_, usage) in _TABLE.items()]


@pytest.mark.parametrize(
    "args, code",
    [
        (["check", "{nonint}"], 1),
        (["leaf", "{sl2}", "--point", "1,0", "--steps", "100001", "--seed", "1"], 3),
    ],
    ids=["not-involutive", "over-the-point-cap"],
)
def test_main_passes_the_exit_code_to_the_shell(files, args, code):
    # the installed ``fol`` script calls main(), which exits with run's code
    argv = [a.format(**files) for a in args]
    proc = run_python(f"import sys\nsys.argv[1:] = {argv!r}\nfrom foliations.cli import main\nmain()\n")
    assert (proc.returncode, proc.stderr) == (code, "")
    jsonschema.validate(json.loads(proc.stdout, parse_constant=_reject_constant), SCHEMA)


# -- the report writer ---------------------------------------------------------
#
# _emit splices the dims --grid rows and the leaf points into what json.dumps
# writes for the rest of the report; json.dumps of the whole report is the oracle


def _written_and_expected(monkeypatch, capsys, argv):
    """run(argv)'s exit code and stdout, and json.dumps of the last report it
    emitted, its (label, fiber, tangent) grid rows expanded to the report's objects."""
    cli = sys.modules["foliations.cli"]
    emit, reports = cli._emit, []

    def record(command, inputs, results, diagnostics, **seed):
        grid = [
            {"point": label, "fiber": f, "tangent": t, "isotropy": f - t}
            for label, f, t in results.get("grid", ())
        ]
        reports.append(
            {"command": command, "inputs": inputs, "results": {**results, "grid": grid} if grid else results,
             "diagnostics": diagnostics, "version": __version__, **seed}
        )
        emit(command, inputs, results, diagnostics, **seed)

    monkeypatch.setattr(cli, "_emit", record)
    code = run(argv)
    out, err = capsys.readouterr()
    assert err == ""
    return code, out, json.dumps(reports[-1], indent=2, sort_keys=True, allow_nan=False) + "\n"


# the specs of the `files` fixture by variable count
_WRITER_SPECS = (("folk2", 1), ("sl2", 2), ("cstar", 2), ("gl3", 3), ("so3", 3))
_COORDS = ("0", "1", "-1", "1/2", "-3/4", "2/3", "-5/6")


def _writer_case(rng, files):
    name, n = _pick(rng, _WRITER_SPECS)
    point = ",".join(_pick(rng, _COORDS) for _ in range(n))
    if rng.uniform() < 0.4:
        steps = _pick(rng, ("0", "1", "8", "40"))
        return ["leaf", files[name], "--point", point, "--steps", steps, "--seed", str(rng.randint(0, 999))]
    # negative starts, steps over mixed denominators, one-point axes
    a = Fraction(-rng.randint(0, 9), rng.randint(1, 4))
    step = Fraction(rng.randint(1, 3), rng.randint(1, 6))
    per_axis = rng.randint(1, (30, 9, 4)[n - 1])
    b = a + (per_axis - 1) * step + step * rng.randint(0, 2) / 3
    argv = ["dims", files[name], "--grid", f"{a}:{b}:{step}"]
    return argv + ["--point", point] if rng.uniform() < 0.4 else argv


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_report_writer_matches_json_dumps(files, capsys, monkeypatch, seed):
    rng = XorShift64Star(seed)
    for _ in range(25):
        argv = _writer_case(rng, files)
        code, out, expected = _written_and_expected(monkeypatch, capsys, argv)
        assert code == 0 and out == expected, argv


@pytest.mark.parametrize(
    "args",
    [
        ["dims", "--grid", "-5/2:-5/2:1"],
        ["dims", "--grid", "0:0:1", "--point", "0"],
        ["dims", "--grid", "-7/3:3/4:5/6"],
        ["leaf", "--point", "1/3", "--steps", "0", "--seed", "1"],
        ["leaf", "--point", "-1/2", "--steps", "5", "--seed", "2"],
    ],
    ids=["one-point", "one-point-and-point", "mixed-denominators", "walk-of-0-steps", "walk"],
)
def test_report_writer_one_variable(files, capsys, monkeypatch, args):
    code, out, expected = _written_and_expected(monkeypatch, capsys, [args[0], files["folk2"], *args[1:]])
    assert code == 0 and out == expected


@pytest.mark.parametrize("stem", ['"grid": []', '"points": []', "ψ é", '"grid": [] ψ'])
@pytest.mark.parametrize(
    "args",
    [
        ["dims", "--point", "1,0", "--grid", "-1:1:1/2"],
        ["leaf", "--point", "1,0", "--steps", "5", "--seed", "3"],
        ["dims", "--point", '"grid": []'],
    ],
    ids=["dims", "leaf", "usage-error"],
)
def test_report_writer_escapes_argv(files, capsys, monkeypatch, tmp_path, stem, args):
    # the spliced key's text in a file name (so in both argv and file), or a non-ASCII one
    path = tmp_path / f"{stem}.fol"
    path.write_text(SL2, encoding="utf-8")
    code, out, expected = _written_and_expected(monkeypatch, capsys, [args[0], str(path), *args[1:]])
    assert code == (2 if args[-1] == '"grid": []' else 0)
    assert out == expected and out.isascii()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_leaf_point_exit_3(files, capsys, monkeypatch, bad):
    # the fast path raises as allow_nan=False does: one error report, nothing else
    cli = sys.modules["foliations.cli"]
    monkeypatch.setattr(cli, "leaf_sample", lambda *args: [(1.0, 0.0), (0.5, bad), (0.25, 0.0)])
    args = ["leaf", files["sl2"], "--point", "1,0", "--steps", "2", "--seed", "1"]
    diags = failure(capsys, args, 3, "ArithmeticError")
    assert diags["error"] == "result is not finite"


# -- seeded fuzz ---------------------------------------------------------------

_COMMANDS = (
    "check", "dims", "member", "syzygy", "singular", "localgens", "leaf",
    "flow", "chart-rank", "flowbox", "jet", "jet-exact", "germ-eq", "pushforward",
)
# mostly small rationals; also zero, a rational beyond the float range and junk
_NUMBERS = ("0", "1", "-1", "1/2", "-3/4", "2", "7/3", "1", "-1/3", "1e400", "nan", "x", "1/0")


def _pick(rng, items):
    return items[rng.randint(0, len(items) - 1)]


def _number(rng):
    return _pick(rng, _NUMBERS[:9] if rng.uniform() < 0.9 else _NUMBERS)


def _fuzz_point(rng, n):
    count = n if rng.uniform() < 0.85 else rng.randint(0, n + 1)
    if rng.uniform() < 0.4:  # a fixed point of every linear family
        return ",".join(["0"] * count)
    return ",".join(_number(rng) for _ in range(count))


def _fuzz_word(rng, k):
    if rng.uniform() < 0.08:  # every segment under the RK4 step cap, the word over it
        return "; ".join([",".join(["1"] * k) + "@400"] * 3)
    steps = []
    for _ in range(rng.randint(0, 3)):
        coeffs = ",".join(_number(rng) for _ in range(k if rng.uniform() < 0.9 else k + 1))
        duration = _pick(rng, ("1/2", "-1/4", "1", "0", "3/2") if rng.uniform() < 0.9 else ("1e400", "x"))
        steps.append(f"{coeffs}@{duration}")
    return "; ".join(steps) if rng.uniform() < 0.98 else "1@"


def _fuzz_field(rng, names, linear):
    comps = []
    for v in names:
        if rng.uniform() < 0.6:
            text = ""
            for _ in range(rng.randint(1, 2)):
                degree = 1 if linear else rng.randint(0, 2)
                text += _pick(rng, (" + ", " - ")) + _pick(rng, ("1", "2", "1/2", "3"))
                text += "".join("*" + _pick(rng, names) for _ in range(degree))
            comps.append(f"({text[3:]})*d{v}")
    text = " + ".join(comps) or f"{names[-1]}*d{names[0]}"
    roll = rng.uniform()
    if roll < 0.05:
        return f"{names[0]}^2000*d{names[0]}"  # over the parser's exponent cap
    if roll < 0.15:  # short literals whose product str() cannot write
        return "10^1000*" * 5 + f"{_pick(rng, names)}*d{_pick(rng, names)}"
    if roll < 0.22:  # one junk character somewhere
        i = rng.randint(0, len(text))
        return text[:i] + _pick(rng, "^*+()/@#d1") + text[i:]
    return text


def _fuzz_case(rng, cmd, path):
    names = ("x", "y", "z")[: rng.randint(1, 3)]
    k = rng.randint(1, 3) if rng.uniform() < 0.9 else 0
    linear = rng.uniform() < 0.6  # the linear-only subcommands need it
    text = "vars: " + " ".join(names) + "\ngenerators:\n"
    text += "".join(f"  {_fuzz_field(rng, names, linear)}\n" for _ in range(k))
    if rng.uniform() < 0.05:
        text = text.replace("vars:", "variables:")
    path.write_text(text)
    n = len(names)
    args = {
        "dims": lambda: [
            "--point", _fuzz_point(rng, n),
            "--grid", _pick(rng, ("-1:1:1", "0:1:1/2", "1:0:1", "0:1", "0:1000:1/1000000")),
        ],
        "member": lambda: ["--field", _fuzz_field(rng, names, False)],
        "localgens": lambda: ["--point", _fuzz_point(rng, n)],
        "leaf": lambda: [
            "--point", _fuzz_point(rng, n), "--steps", _pick(rng, ("0", "3", "20", "-1", "100001")),
            "--seed", str(rng.randint(0, 99)),
        ],
        "flow": lambda: ["--word", _fuzz_word(rng, k), "--point", _fuzz_point(rng, n)],
        "chart-rank": lambda: [
            "--point", _fuzz_point(rng, n), "--samples", _pick(rng, ("0", "2", "-1", "100001")),
            "--seed", str(rng.randint(0, 99)),
        ],
        "flowbox": lambda: ["--gen", str(rng.randint(0, k + 1)), "--point", _fuzz_point(rng, n)],
        "jet": lambda: ["--word", _fuzz_word(rng, k), "--point", _fuzz_point(rng, n)],
        "jet-exact": lambda: ["--word", _fuzz_word(rng, k)],
        "germ-eq": lambda: [
            "--word1", _fuzz_word(rng, k), "--word2", _fuzz_word(rng, k),
            "--point", _fuzz_point(rng, n) if rng.uniform() < 0.3 else ",".join(["0"] * n),
            "--tol", _pick(rng, ("1e-6", "1e-6", "0", "nan")),
        ],
        "pushforward": lambda: [
            "--coeffs", ",".join(_number(rng) for _ in range(k)),
            "--time", _pick(rng, ("1/2", "1", "-2", "800", "nan", "inf")),
        ],
    }.get(cmd, lambda: [])()
    if rng.uniform() < 0.2:
        # 1e-12 asks for more RK4 steps than the step budget allows
        args += ["--h", _pick(rng, ("0.01", "0.05", "0.1", "0", "nan", "1e-12"))]
    if rng.uniform() < 0.1:
        args += ["--jobs", _pick(rng, ("2", "2", "0"))]
    file = str(path) if rng.uniform() < 0.97 else str(path) + ".missing"
    return [cmd, file, *args]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_seeded_cli_fuzz(capsys, tmp_path, seed):
    # every input ends in one schema-valid report with a documented exit
    # code and nothing on stderr; the work is bounded by the budgets alone
    rng = XorShift64Star(seed)
    for i in range(5 * len(_COMMANDS)):
        argv = _fuzz_case(rng, _COMMANDS[i % len(_COMMANDS)], tmp_path / f"case{i}.fol")
        code = run(argv)
        out, err = capsys.readouterr()
        rep = json.loads(out, parse_constant=_reject_constant)
        jsonschema.validate(rep, SCHEMA)
        assert code in (0, 1, 2, 3) and err == "", argv
