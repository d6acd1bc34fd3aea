"""The ``fol`` command line: one subcommand per library operation.

Every invocation writes a single JSON report to stdout.  Exit codes:

* 0 - success (including query results like ``member = false``)
* 1 - a checked property is false (``check`` on a non-involutive family,
      ``chart-rank`` mismatches, ``pushforward`` residual too large,
      ``flowbox`` with a singular Jacobian)
* 2 - parse or usage error, including violated preconditions
* 3 - numerical failure (trajectory blow-up, budget exceeded, a result
      that is not finite, an answer with a number too long to print;
      reports never carry NaN or infinities)

Foliation files (``.fol``) are line-oriented UTF-8 text::

    # comment
    name: sl2
    vars: x y
    generators:
      x*dx - y*dy
      y*dx
      x*dy

Flags are read from ``_COMMANDS``: a value may start with one '-' or follow
'=', and '--' ends the flags.  Randomized subcommands (``leaf``,
``chart-rank``) require ``--seed``.  Output is byte-identical for identical
invocations and seeds, and so is its layout: exactly what ``json.dumps(report,
indent=2, sort_keys=True)`` writes (2-space indent, sorted keys, ASCII only)
and one trailing newline.  ``--jobs N`` (N >= 1) is accepted and has no effect.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from itertools import chain, product
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import NamedTuple, Sequence

from . import __version__
from .errors import (
    ArityError,
    BlowUpError,
    BudgetError,
    ParseError,
    PreconditionError,
    _Located,
)
from .flow import (
    FlowWord,
    NumericOptions,
    XorShift64Star,
    chart_at,
    chart_rank_check,
    flow,
    flow_box,
    flow_jet,
    leaf_sample,
    random_rational_points,
)
from .holonomy import (
    _jet_exact_rows,
    _require_fixed_point,
    check_pushforward_linear,
    germ_equal_at_fixed_point,
)
from .modalg import (
    _dims,
    as_point,
    contains,
    is_involutive,
    minimal_local_generators,
    module_groebner,
    singular_locus,
    syzygy_basis,
)
from .vfparse import (
    FoliationSpec,
    _over_lcm,
    format_poly,
    format_vector_field,
    parse_vector_field,
)

__all__ = ["FoliationFile", "load_foliation", "load_foliation_file", "save_foliation_file", "run", "main"]


class FoliationFile(NamedTuple):
    path: str
    spec: FoliationSpec
    name: str | None = None
    description: str | None = None


def load_foliation_file(path) -> FoliationFile:
    """Parse a ``.fol`` file; errors carry 1-based line/column."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"file is not UTF-8 text (byte {e.start + 1})") from None
    var_names: tuple[str, ...] | None = None
    name = None
    description = None
    generators = []
    in_generators = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if in_generators:
            if line[0] not in " \t":
                raise ParseError(
                    "generator lines must be indented", line=lineno, column=1
                )
            if var_names is None:
                raise ParseError("'vars:' must come before 'generators:'", line=lineno)
            try:
                generators.append(parse_vector_field(line, var_names))
            except _Located as e:
                e.line = lineno
                raise
            continue
        stripped = line.strip()
        if stripped.startswith("vars:"):
            if var_names is not None:
                raise ParseError("'vars:' is declared twice", line=lineno)
            var_names = tuple(stripped[len("vars:") :].split())
            if not var_names:
                raise ParseError("'vars:' declares no variables", line=lineno)
        elif stripped.startswith("name:"):
            name = stripped[len("name:") :].strip()
        elif stripped.startswith("description:"):
            description = stripped[len("description:") :].strip()
        elif stripped == "generators:":
            in_generators = True
        else:
            raise ParseError(f"unrecognized line {stripped!r}", line=lineno, column=1)
    if var_names is None:
        raise ParseError("file declares no 'vars:' line")
    spec = FoliationSpec(var_names, generators)
    return FoliationFile(path=str(path), spec=spec, name=name, description=description)


def load_foliation(path) -> FoliationSpec:
    return load_foliation_file(path).spec


def save_foliation_file(ff: FoliationFile, path) -> None:
    """Write the canonical form; load/save round-trips the spec exactly."""
    lines = []
    if ff.name:
        lines.append(f"name: {ff.name}")
    if ff.description:
        lines.append(f"description: {ff.description}")
    lines.append("vars: " + " ".join(ff.spec.var_names))
    lines.append("generators:")
    for g in ff.spec.generators:
        lines.append("  " + format_vector_field(g, ff.spec.var_names))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"cannot parse rational {text!r}")


def _parse_point(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_rational(c) for c in text.split(","))


def _parse_word(spec: FoliationSpec, text: str) -> FlowWord:
    steps = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "@" not in chunk:
            raise _UsageError(f"word step {chunk!r} is missing '@duration'")
        cpart, tpart = chunk.rsplit("@", 1)
        coeffs = tuple(_parse_rational(c) for c in cpart.split(","))
        steps.append((coeffs, _parse_rational(tpart)))
    try:
        return FlowWord(spec, steps)
    except ArityError as e:
        raise _UsageError(str(e))


def _parse_grid(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError("--grid expects 'a:b:step'")
    a, b, step = (_parse_rational(p) for p in parts)
    if step <= 0 or b < a:
        raise _UsageError("--grid needs step > 0 and b >= a")
    return a, b, step


# the most points a request may visit: ``dims --grid`` points, ``leaf
# --steps`` and ``chart-rank --samples``; more exit 3, before any is built
_MAX_POINTS = 100_000


def _require_points(flag: str, count: int) -> None:
    if count > _MAX_POINTS:
        try:
            raise BudgetError(f"{flag} has {count} points, more than {_MAX_POINTS}")
        except ValueError:  # a count too long to print
            raise BudgetError(f"{flag} has more than {_MAX_POINTS} points") from None


def _lattice(bounds, nvars: int) -> tuple[int, list[int], list[str]]:
    """The grid's axis scaled to one denominator: (D, X, labels), D the lcm
    of the denominators of a and step, X[i] = D*(a + i*step) and labels[i]
    = str(a + i*step), for the points a, a + step, ... up to b."""
    a, b, step = bounds
    per_axis = math.floor((b - a) / step) + 1
    _require_points("--grid", per_axis**nvars)
    (a_d, step_d), d = _over_lcm((a, step))
    labels = [_fmt_point((a + i * step,), "--grid") for i in range(per_axis)]
    return d, [a_d + i * step_d for i in range(per_axis)], labels


def _fmt_point(pt, flag: str = "--point") -> str:
    """``pt`` joined by commas; a number str() cannot write is a usage error naming ``flag``."""
    try:
        return ",".join(map(str, pt))
    except ValueError:
        raise _UsageError(f"{flag} has a number too long to print") from None


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (exit_code, results, diagnostics)
# ---------------------------------------------------------------------------


def _opts_from(ns) -> NumericOptions:
    kwargs = {}
    if ns.h is not None:
        kwargs["step_size"] = ns.h
    try:
        return NumericOptions(**kwargs)
    except ValueError as e:
        raise _UsageError(str(e))


def _finite(flag: str, value: float) -> float:
    if not math.isfinite(value):
        raise _UsageError(f"{flag} must be finite, got {value}")
    return value


def _cmd_check(ns, spec):
    report = is_involutive(spec)
    witnesses = [
        {"i": w.i, "j": w.j, "bracket": format_vector_field(w.bracket, spec.var_names)}
        for w in report.witnesses
    ]
    return (
        0 if report.closed else 1,
        {"closed": report.closed, "witnesses": witnesses},
        {},
    )


def _dims_at(spec, pt) -> dict:
    """The dims row of one point, scaled to integers by its own denominators."""
    label = _fmt_point(pt)
    xs, d = _over_lcm(as_point(pt, spec.nvars))
    [(f, t)] = _dims(spec, [xs], d)
    return {"point": label, "fiber": f, "tangent": t, "isotropy": f - t}


def _cmd_dims(ns, spec):
    if ns.point is None and ns.grid is None:
        raise _UsageError("dims needs --point and/or --grid")
    results = {}
    if ns.point is not None:
        results.update(_dims_at(spec, _parse_point(ns.point)))
    if ns.grid is not None:
        # every grid point is a tuple of scaled axis values over one D; its row
        # stays a (label, fiber, tangent) tuple until _rows_json writes it
        d, xs, labels = _lattice(_parse_grid(ns.grid), spec.nvars)
        n = spec.nvars
        dims = _dims(spec, list(product(xs, repeat=n)), d)
        results["grid"] = [
            (",".join(label), f, t) for label, (f, t) in zip(product(labels, repeat=n), dims)
        ]
    return 0, results, {}


def _cmd_member(ns, spec):
    field = parse_vector_field(ns.field, spec.var_names)
    gb = module_groebner(spec)
    res = contains(gb, field)
    cert = None
    if res.member:
        cert = [format_poly(p, spec.var_names) for p in res.certificate]
    return 0, {"member": res.member, "certificate": cert}, {}


def _cmd_syzygy(ns, spec):
    syz = syzygy_basis(spec)
    rels = [[format_poly(p, spec.var_names) for p in rel] for rel in syz.relations]
    return 0, {"relations": rels}, {}


def _cmd_singular(ns, spec):
    rep = singular_locus(spec)
    return (
        0,
        {
            "generic_rank": rep.generic_rank,
            "minor_ideal": [format_poly(p, spec.var_names) for p in rep.minor_ideal],
        },
        {},
    )


def _cmd_localgens(ns, spec):
    pt = _parse_point(ns.point)
    indices = minimal_local_generators(spec, pt)
    return 0, {"indices": list(indices), "fiber": len(indices)}, {"index_base": 1}


def _cmd_leaf(ns, spec):
    opts = _opts_from(ns)
    _require_points("--steps", ns.steps)
    pt = _parse_point(ns.point)
    pts = leaf_sample(spec, pt, ns.steps, ns.seed, opts)
    return (
        0,
        {"points": pts},
        {"step_size": opts.step_size},
    )


def _cmd_flow(ns, spec):
    opts = _opts_from(ns)
    word = _parse_word(spec, ns.word)
    pt = _parse_point(ns.point)
    end = flow(spec, word, pt, opts)
    return (
        0,
        {"endpoint": end},
        {"step_size": opts.step_size, "tolerance_hint": 1e-6},
    )


def _cmd_chart_rank(ns, spec):
    opts = _opts_from(ns)
    if ns.samples < 0:
        raise _UsageError(f"--samples must be non-negative, got {ns.samples}")
    _require_points("--samples", ns.samples)
    pt = _parse_point(ns.point)
    rng = XorShift64Star(ns.seed)
    samples = random_rational_points(rng, spec.nvars, ns.samples)
    chart = chart_at(spec, pt, opts)
    report = chart_rank_check(chart, pt, samples)
    rows = [
        {"point": _fmt_point(e.point), "rank": e.rank, "tangent": e.tangent, "match": e.match}
        for e in report.entries
    ]
    diags = {
        "fd_epsilon": opts.fd_epsilon,
        "rank_rel_threshold": opts.rank_rel_threshold,
        "step_size": opts.step_size,
    }
    return (0 if report.ok else 1), {"ok": report.ok, "entries": rows}, diags


def _cmd_flowbox(ns, spec):
    opts = _opts_from(ns)
    pt = _parse_point(ns.point)
    rep = flow_box(spec, ns.gen, pt, None, opts)
    return (
        0 if rep.invertible else 1,
        {"jacobian": rep.jacobian, "invertible": rep.invertible},
        {"fd_epsilon": opts.fd_epsilon, "rank_rel_threshold": opts.rank_rel_threshold},
    )


def _cmd_jet(ns, spec):
    opts = _opts_from(ns)
    word = _parse_word(spec, ns.word)
    pt = _parse_point(ns.point)
    _require_fixed_point(spec, word, pt)
    _, jet = flow_jet(spec, word, pt, opts)
    return (
        0,
        {"jet": jet},
        {"step_size": opts.step_size, "tolerance_hint": 1e-6},
    )


def _cmd_jet_exact(ns, spec):
    word = _parse_word(spec, ns.word)
    jet = _jet_exact_rows(spec, word)
    return 0, {"jet": jet}, {"method_accuracy": 1e-12}


def _cmd_germ_eq(ns, spec):
    w1 = _parse_word(spec, ns.word1)
    w2 = _parse_word(spec, ns.word2)
    pt = _parse_point(ns.point)
    tol = _finite("--tol", ns.tol) if ns.tol is not None else 1e-6
    equal = germ_equal_at_fixed_point(spec, w1, w2, pt, tol)
    return 0, {"equal": equal}, {"tolerance": tol}


def _cmd_pushforward(ns, spec):
    coeffs = _parse_point(ns.coeffs)
    rep = check_pushforward_linear(spec, coeffs, _finite("--time", ns.time))
    return (
        0 if rep.ok else 1,
        {"ok": rep.ok, "residuals": rep.residuals},
        {"threshold": rep.threshold},
    )


# the command line, declared once: each subcommand's handler and its flags
# after the file, in usage order (a bracketed flag is optional), the flags
# every subcommand takes, and each flag's type under every subcommand
# (--json is a switch, and a flag not in _TYPES takes a string)
_COMMANDS = {
    "check": (_cmd_check, ""),
    "dims": (_cmd_dims, "[--point] [--grid]"),
    "member": (_cmd_member, "--field"),
    "syzygy": (_cmd_syzygy, ""),
    "singular": (_cmd_singular, ""),
    "localgens": (_cmd_localgens, "--point"),
    "leaf": (_cmd_leaf, "--point --steps --seed"),
    "flow": (_cmd_flow, "--word --point"),
    "chart-rank": (_cmd_chart_rank, "--point --samples --seed"),
    "flowbox": (_cmd_flowbox, "--gen --point"),
    "jet": (_cmd_jet, "--word --point"),
    "jet-exact": (_cmd_jet_exact, "--word"),
    "germ-eq": (_cmd_germ_eq, "--word1 --word2 --point"),
    "pushforward": (_cmd_pushforward, "--coeffs --time"),
}
_COMMON = "[--json] [--h] [--tol] [--jobs]"
_TYPES = {
    "--json": bool,
    "--steps": int, "--seed": int, "--samples": int, "--gen": int, "--jobs": int,
    "--time": float, "--h": float, "--tol": float,
}


def _read_argv(argv: list[str]) -> SimpleNamespace:
    """``cmd``, ``file`` and one attribute per flag of the subcommand; errors in argparse's words."""
    unknown, args = [], list(argv)
    while args and args[0].startswith("-") and args[0] not in ("-", "--"):
        unknown.append(args.pop(0))
    if not args:
        raise _UsageError("the following arguments are required: cmd")
    cmd = args.pop(0)
    if cmd not in _COMMANDS:
        raise _UsageError(f"argument cmd: invalid choice: {cmd!r} (choose from {', '.join(map(repr, _COMMANDS))})")
    usage = f"{_COMMON} {_COMMANDS[cmd][1]}".split()
    flags = {flag.strip("[]"): _TYPES.get(flag.strip("[]"), str) for flag in usage}
    ns = SimpleNamespace(**{flag[2:]: None for flag in flags} | {"cmd": cmd, "file": None, "json": False, "jobs": 1})
    ended = False  # by '--': every later argument is the file or unrecognized
    while args:
        arg = args.pop(0)
        flag, eq, value = arg.partition("=")
        if ended or arg == "-" or not arg.startswith("-"):
            if ns.file is None:
                ns.file = arg
            else:
                unknown.append(arg)
        elif arg == "--":
            ended = True
        elif flag not in flags:
            unknown.append(arg)
        elif flags[flag] is bool and eq:
            raise _UsageError(f"argument {flag}: ignored explicit argument {value!r}")
        elif flags[flag] is bool:
            setattr(ns, flag[2:], True)
        elif not eq and (not args or args[0].startswith("--")):  # else the next argument is the value
            raise _UsageError(f"argument {flag}: expected one argument")
        else:
            value = value if eq else args.pop(0)
            try:
                setattr(ns, flag[2:], flags[flag](value))
            except ValueError:
                raise _UsageError(f"argument {flag}: invalid {flags[flag].__name__} value: {value!r}") from None
    missing = [name for name in ("file", *usage) if name[0] != "[" and getattr(ns, name.lstrip("-")) is None]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    if unknown:
        raise _UsageError("unrecognized arguments: " + " ".join(unknown))
    return ns


# one dims --grid row, as json.dumps(indent=2) writes it in a report
_GRID_ROW = '\n      {\n        "fiber": %d,\n        "isotropy": %d,\n        "point": %s,\n        "tangent": %d\n      }'


def _rows_json(key: str, rows: list) -> str:
    """The items of ``results[key]``, the leaf points or the grid rows, as
    ``json.dumps(indent=2, allow_nan=False)`` writes them in a report; a
    grid row's (label, fiber, tangent) becomes its object, isotropy included."""
    if key == "grid":
        return ",".join(_GRID_ROW % (f, f - t, encode_basestring_ascii(label), t) for label, f, t in rows)
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise ValueError("Out of range float values are not JSON compliant")
    row = "\n      [" + ",".join(["\n        %r"] * len(rows[0])) + "\n      ]"
    return ",".join(row % tuple(p) for p in rows)


def _emit(command: str, inputs: dict, results: dict, diagnostics: dict, **seed) -> None:
    """Print one report as ``json.dumps(report, indent=2, sort_keys=True)``
    writes it (2-space indent, sorted keys, ASCII only), and a newline; a NaN
    or infinity in it raises ValueError, and nothing is printed.

    The pure-Python encoder that ``indent`` needs is slow on the two large
    arrays, so json.dumps writes the report with the array left empty, and
    its items are spliced in from one row template.  A JSON string escapes
    every '"', so the unescaped text '"grid": []' can only be the results key
    (and so for "points")."""
    key = next((k for k in ("grid", "points") if results.get(k)), None)
    report = {
        "command": command,
        "inputs": inputs,
        "results": {**results, key: []} if key else results,
        "diagnostics": diagnostics,
        "version": __version__,
        **seed,
    }
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if key:
        text = text.replace(f'"{key}": []', f'"{key}": [{_rows_json(key, results[key])}\n    ]', 1)
    sys.stdout.write(text + "\n")


def _fail(command: str | None, argv: list[str], exc: Exception, code: int) -> int:
    """Print the error report for ``exc``; returns the exit code."""
    diagnostics = {"error": str(exc), "error_type": type(exc).__name__}
    if isinstance(exc, _Located):
        if exc.line is not None:
            diagnostics["line"] = exc.line
        if exc.column is not None:
            diagnostics["column"] = exc.column
    _emit(command or "", {"argv": argv}, {}, diagnostics)
    return code


def run(argv: Sequence[str] | None = None) -> int:
    """Run one CLI invocation; prints a JSON report, returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    command = None
    try:
        ns = _read_argv(argv)
        command = ns.cmd
        if ns.jobs < 1:
            raise _UsageError("--jobs must be at least 1")
        ff = load_foliation_file(ns.file)
        code, results, diagnostics = _COMMANDS[command][0](ns, ff.spec)
    except (OSError, _UsageError, ParseError, ArityError, PreconditionError) as e:
        return _fail(command, argv, e, 2)
    except (BudgetError, BlowUpError) as e:
        return _fail(command, argv, e, 3)
    seed = {"seed": ns.seed} if hasattr(ns, "seed") else {}
    try:
        _emit(command, {"argv": argv, "file": ns.file}, results, diagnostics, **seed)
    except ValueError:  # a NaN or infinity in the results, which JSON cannot carry
        return _fail(command, argv, ArithmeticError("result is not finite"), 3)
    return code


def main() -> None:
    sys.exit(run())
