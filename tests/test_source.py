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


def test_only_cli_main_ends_the_process_with_os_exit():
    # os._exit skips every caller's cleanup: only the ``fol`` script's own
    # main() may end the process that way, and no library function can
    found, in_main = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(node)
            for fn in ast.walk(tree)
            if path.name == "cli.py" and isinstance(fn, ast.FunctionDef) and fn.name == "main"
            for node in ast.walk(fn)
        }
        assert inside or path.name != "cli.py"
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute) and node.attr == "_exit"
                or isinstance(node, ast.Name) and node.id == "_exit"
                or isinstance(node, ast.alias) and node.name == "_exit"
            ):
                if id(node) in inside:
                    in_main += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert (found, in_main) == ([], 1)
