"""Properties of the package source itself."""

import ast
from pathlib import Path

import foliations

SRC = Path(foliations.__file__).resolve().parent


def test_the_package_holds_no_assert_statement():
    # python -O strips asserts: every check of the package raises explicitly
    paths = sorted(SRC.glob("*.py"))
    assert "modalg.py" in {p.name for p in paths}
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_a_number_becomes_a_float_only_in_flow_float():
    # one conversion, so that a rational beyond the float range is a signed
    # infinity, or a refused point, wherever it meets a float
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(node)
            for fn in ast.walk(tree)
            if path.name == "flow.py" and isinstance(fn, ast.FunctionDef) and fn.name == "_float"
            for node in ast.walk(fn)
        }
        assert inside or path.name != "flow.py"
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and id(node) not in inside
        ]
    assert found == []
