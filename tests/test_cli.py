"""CLI integration: file loading, subcommands, exit codes, JSON shape."""

import json
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("jsonschema")
import jsonschema

from foliations.cli import (
    _GRID_MAX_POINTS,
    FoliationFile,
    _grid_points,
    load_foliation,
    load_foliation_file,
    run,
    save_foliation_file,
)
from foliations.errors import BudgetError, ParseError, UnknownVariableError

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


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, body in (("sl2", SL2), ("nonint", NONINT), ("folk2", FOLK2)):
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


def test_dims_grid_too_large_exit_3(files, capsys):
    # 10^9 + 1 points per axis: refused from the count, before any point is built
    code, rep, _ = invoke(capsys, ["dims", files["sl2"], "--grid", "0:1000:1/1000000"])
    assert code == 3
    assert rep["results"] == {}
    assert rep["diagnostics"]["error_type"] == "BudgetError"
    assert str(1000000001**2) in rep["diagnostics"]["error"]


def test_grid_point_cap_is_exact():
    assert len(_grid_points((Fraction(0), Fraction(99999), Fraction(1)), 1)) == _GRID_MAX_POINTS
    with pytest.raises(BudgetError, match="100001 points"):
        _grid_points((Fraction(0), Fraction(100000), Fraction(1)), 1)
    # the axis holds exactly the points a, a + step, ... up to b
    axis = _grid_points((Fraction(-1, 2), Fraction(1, 3), Fraction(1, 4)), 1)
    assert axis == [(Fraction(-1, 2),), (Fraction(-1, 4),), (Fraction(0),), (Fraction(1, 4),)]


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


def test_flow(files, capsys):
    code, rep, _ = invoke(capsys, ["flow", files["sl2"], "--word", "0,1,0@1", "--point", "0,1"])
    assert code == 0
    end = rep["results"]["endpoint"]
    assert abs(end[0] - 1.0) < 1e-6 and abs(end[1] - 1.0) < 1e-6


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
    # exp(800 A) overflows to infinities, whose products are NaN
    with np.errstate(all="ignore"):
        code, rep, _ = invoke(capsys, ["pushforward", files["sl2"], "--coeffs", "1,0,0", "--time", "800"])
    assert code == 3
    assert rep["results"] == {}
    assert "not finite" in rep["diagnostics"]["error"]


def test_flow_blowup_exit_3(files, capsys):
    code, rep, _ = invoke(capsys, ["flow", files["folk2"], "--word", "1@1", "--point", "2"])
    assert code == 3
    assert rep["diagnostics"]["error_type"] == "BlowUpError"


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


def test_missing_file_exit_2(capsys):
    code, rep, _ = invoke(capsys, ["check", "/nonexistent/nope.fol"])
    assert code == 2


def test_usage_error_exit_2(capsys):
    code, rep, _ = invoke(capsys, ["dims"])  # missing file
    assert code == 2


def test_negative_values_accepted(files, capsys):
    code, rep, _ = invoke(capsys, ["dims", files["sl2"], "--point", "-1,0"])
    assert code == 0
    assert rep["results"]["tangent"] == 2
