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
