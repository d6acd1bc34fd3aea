"""Properties of the package source itself."""

import ast
import importlib
import inspect
import typing
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


def test_a_number_from_outside_becomes_a_fraction_only_in_modalg_rational():
    # one reader, which bounds a decimal exponent before Fraction writes
    # 10**exponent out; vfparse._as_fraction reads only the int or Fraction
    # coefficients of a Poly, and Fraction(n) of an int literal or int(..)
    # reads nothing from outside
    readers = {"modalg.py": "_rational", "vfparse.py": "_as_fraction"}
    found, seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and readers.get(path.name) == fn.name
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"
                and len(node.args) + len(node.keywords) == 1
            ):
                continue
            [arg] = node.args + [k.value for k in node.keywords]
            if isinstance(arg, ast.Constant) and type(arg.value) is int:
                continue
            if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id == "int":
                continue
            if id(node) in inside:
                seen.add(path.name)
            else:
                found.append(f"{path.name}:{node.lineno}")
    assert (found, seen) == ([], set(readers))


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


def test_every_budget_is_charged_in_errors_charge():
    # one rule for every cap: a count past its limit raises from
    # errors._charge; the four other raises refuse what is not a count
    # past a limit: format_poly a number too long to print,
    # _require_points a count too long to print, _lattice a count before
    # it is formed, and singular_locus adds "(N minors done)" to a charge
    places = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):  # outer functions come first, so the innermost one wins
            if isinstance(fn, ast.FunctionDef):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) == "BudgetError" or getattr(exc, "attr", None) == "BudgetError":
                    places.append(f"{path.stem}.{owner.get(id(node))}")
    assert sorted(places) == [
        "cli._lattice",
        "cli._require_points",
        "errors._charge",
        "modalg.singular_locus",
        "vfparse.format_poly",
    ]


def test_every_public_annotation_resolves():
    # typing.get_type_hints evaluates each annotation in its module: one
    # naming a type the module never imports (numpy's, say) is a NameError
    checked = []
    for layer in ("vfparse", "modalg", "flow", "holonomy", "cli"):
        module = importlib.import_module(f"foliations.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj):
                continue
            members = vars(obj).values() if inspect.isclass(obj) else ()
            methods = [getattr(m, "fget", getattr(m, "__func__", m)) for m in members]
            for f in [obj, *filter(inspect.isfunction, methods)]:
                typing.get_type_hints(f)
                checked.append(f.__qualname__)
    jets = {"matrix_exp", "linear_generator_matrices", "holonomy_jet", "jet_exact_linear", "CarriedDiffeo.jacobian"}
    assert jets <= set(checked)
