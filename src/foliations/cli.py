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
* 120 - the report cannot be written (``main``)

Every error a request can report is reported before the first byte of
output.  ``dims --grid`` rows are ranked, formatted and written as one
stream, a chunk of rows at a time, so its memory does not depend on the
size of the grid.

Foliation files (``.fol``) are line-oriented UTF-8 text of at most
``_MAX_FILE_BYTES`` (1 MiB)::

    # comment
    name: sl2
    vars: x y
    generators:
      x*dx - y*dy
      y*dx
      x*dy

Flags are read from ``_COMMANDS``: a value may start with one '-' or follow
'=', and '--' ends the flags.  Each value is checked as its reader in
``_TYPES`` reads it, before the file is opened: a float must be finite and a
count reach its value in ``_LEAST`` (else exit 2).  ``--jobs N`` has no effect.
Randomized subcommands (``leaf``, ``chart-rank``) require ``--seed``.  Output
is byte-identical for identical invocations and seeds, and so is its layout:
exactly what ``json.dumps(report, indent=2, sort_keys=True)`` writes (2-space
indent, sorted keys, ASCII only) and one trailing newline.  The report is
written by ``_dumps`` and ``_quote``, this module's own writer of that layout
and of JSON strings, so that ``fol`` does not import ``json``.
"""

from __future__ import annotations

import errno
import math
import os
import sys
from fractions import Fraction
from itertools import chain, islice, product
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple, Sequence

from . import __version__
from .errors import (
    ArityError,
    BlowUpError,
    BudgetError,
    ParseError,
    PreconditionError,
    _charge,
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
    _rational,
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


# the longest ``.fol`` file read, in bytes; a longer one is refused after
# reading one byte more (the largest file the tests and corpora write, the
# 4,301-variable wide.fol of a grid-count test, is 24,723 bytes)
_MAX_FILE_BYTES = 1 << 20


def load_foliation_file(path) -> FoliationFile:
    """Parse a ``.fol`` file of at most ``_MAX_FILE_BYTES`` bytes; errors carry 1-based line/column."""
    with open(path, "rb") as f:
        data = f.read(_MAX_FILE_BYTES + 1)
    _charge(len(data), _MAX_FILE_BYTES, "file is longer than {limit} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"file is not UTF-8 text (byte {e.start + 1})") from None
    var_names: tuple[str, ...] | None = None
    name = None
    description = None
    generators = []
    in_generators = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        try:  # every error of the line carries its number
            if in_generators:
                if line[0] not in " \t":
                    raise ParseError("generator lines must be indented", column=1)
                if var_names is None:
                    raise ParseError("'vars:' must come before 'generators:'")
                generators.append(parse_vector_field(line, var_names))
            elif stripped.startswith("vars:"):
                if var_names is not None:
                    raise ParseError("'vars:' is declared twice")
                var_names = tuple(stripped[len("vars:") :].split())
                if not var_names:
                    raise ParseError("'vars:' declares no variables")
                FoliationSpec(var_names)  # distinct, valid names
            elif stripped.startswith("name:"):
                name = stripped[len("name:") :].strip()
            elif stripped.startswith("description:"):
                description = stripped[len("description:") :].strip()
            elif stripped == "generators:":
                in_generators = True
            else:
                raise ParseError(f"unrecognized line {stripped!r}", column=1)
        except _Located as e:
            e.line = lineno
            raise
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
        return _rational(text, f"cannot parse rational {text!r}")
    except PreconditionError as e:
        raise _UsageError(str(e)) from None


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
# --steps`` and ``chart-rank --samples``
_MAX_POINTS = 100_000


def _require_points(flag: str, count: int) -> None:
    try:
        _charge(count, _MAX_POINTS, flag + " has {count} points, more than {limit}")
    except ValueError:  # a count too long to print
        raise BudgetError(f"{flag} has more than {_MAX_POINTS} points") from None


# the most random numbers a request may draw: ``leaf --steps`` draws k + 1
# per step and ``chart-rank --samples`` nvars per sample (a million took
# 1.2 s as walk steps and 2.8 s as sample points, Python 3.11 on a shared
# 2-CPU x86-64 host)
_MAX_DRAWS = 1_000_000


def _require_draws(flag: str, count: int, each: int) -> None:
    _require_points(flag, count)
    _charge(count * each, _MAX_DRAWS, flag + " needs {count} random numbers, more than {limit}")


def _lattice(bounds, nvars: int) -> tuple[int, range, Callable[[int], str]]:
    """The grid's axis scaled to one denominator: (D, X, label), D the lcm
    of the denominators of a and step, X the range of D*(a + i*step) for the
    points a, a + step, ... up to b, and label(x) = str(x/D).

    Every label is known to print before this returns: at once when D and
    the extreme values of X do, since no label has more digits, and else by
    formatting each."""
    a, b, step = bounds
    per_axis = math.floor((b - a) / step) + 1
    # a count over 16**digits has more digits than str() writes: refuse it
    # from the bit length, before forming it
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if (per_axis.bit_length() - 1) * nvars > 4 * digits:
        raise BudgetError(f"--grid has more than {_MAX_POINTS} points")
    _require_points("--grid", pow(per_axis, nvars))
    (a_d, step_d), d = _over_lcm((a, step))
    xs = range(a_d, a_d + per_axis * step_d, step_d)

    def label(x: int) -> str:
        return _fmt_point((Fraction(x, d),), "--grid")

    if max(d, abs(xs[0]), abs(xs[-1])) >= 10**digits:
        for x in xs:
            label(x)
    return d, xs, label


def _grid(axis, nvars: int) -> Iterator[tuple]:
    """The points of the ``nvars``-fold product of ``axis``, in order, as
    tuples.  ``product`` holds its input as a tuple, which is small for more
    than one variable (at most 316 values); one variable is read as a stream."""
    return zip(axis) if nvars == 1 else product(axis, repeat=nvars)


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
        results.update(_dims_at(spec, ns.point))
    if ns.grid is not None:
        # every grid point is a tuple of scaled axis values over one D; its row
        # is a (label, fiber, tangent) tuple, ranked when _emit asks for it
        n = spec.nvars
        d, xs, label = _lattice(ns.grid, n)
        dims = _dims(spec, _grid(xs, n), d)
        results["grid"] = ((",".join(p), f, t) for p, (f, t) in zip(_grid(map(label, xs), n), dims))
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
    indices = minimal_local_generators(spec, ns.point)
    return 0, {"indices": list(indices), "fiber": len(indices)}, {"index_base": 1}


def _cmd_leaf(ns, spec):
    opts = _opts_from(ns)
    _require_draws("--steps", ns.steps, spec.k + 1)
    pts = leaf_sample(spec, ns.point, ns.steps, ns.seed, opts)
    return (
        0,
        {"points": pts},
        {"step_size": opts.step_size},
    )


def _cmd_flow(ns, spec):
    opts = _opts_from(ns)
    end = flow(spec, _parse_word(spec, ns.word), ns.point, opts)
    return (
        0,
        {"endpoint": end},
        {"step_size": opts.step_size, "tolerance_hint": 1e-6},
    )


def _cmd_chart_rank(ns, spec):
    opts = _opts_from(ns)
    _require_draws("--samples", ns.samples, spec.nvars)
    rng = XorShift64Star(ns.seed)
    samples = random_rational_points(rng, spec.nvars, ns.samples)
    chart = chart_at(spec, ns.point, opts)
    report = chart_rank_check(chart, ns.point, samples)
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
    rep = flow_box(spec, ns.gen, ns.point, None, opts)
    return (
        0 if rep.invertible else 1,
        {"jacobian": rep.jacobian, "invertible": rep.invertible},
        {"fd_epsilon": opts.fd_epsilon, "rank_rel_threshold": opts.rank_rel_threshold},
    )


def _cmd_jet(ns, spec):
    opts = _opts_from(ns)
    word = _parse_word(spec, ns.word)
    _require_fixed_point(spec, word, ns.point)
    _, jet = flow_jet(spec, word, ns.point, opts)
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
    tol = ns.tol if ns.tol is not None else 1e-6
    equal = germ_equal_at_fixed_point(spec, w1, w2, ns.point, tol)
    return 0, {"equal": equal}, {"tolerance": tol}


def _cmd_pushforward(ns, spec):
    rep = check_pushforward_linear(spec, ns.coeffs, ns.time)
    return (
        0 if rep.ok else 1,
        {"ok": rep.ok, "residuals": rep.residuals},
        {"threshold": rep.threshold},
    )


# the command line, declared once: each subcommand's handler and its flags
# after the file, in usage order (a bracketed flag is optional), the flags
# every subcommand takes, each flag's reader (--json is a switch, a flag not
# in _TYPES takes a string; a float must be finite) and each count's least value
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
    "--point": _parse_point, "--coeffs": _parse_point, "--grid": _parse_grid,
}
_LEAST = {"--steps": 0, "--samples": 0, "--jobs": 1}


def _read_argv(argv: list[str]) -> SimpleNamespace:
    """``cmd``, ``file`` and one attribute per flag, each value checked as it is read; errors in argparse's words."""
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
    ns = SimpleNamespace(**{flag[2:]: None for flag in flags} | {"cmd": cmd, "file": None})
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
                read = flags[flag](value)
            except ValueError:
                raise _UsageError(f"argument {flag}: invalid {flags[flag].__name__} value: {value!r}") from None
            if flags[flag] is float and not math.isfinite(read):
                raise _UsageError(f"{flag} must be finite, got {read}")
            if flag in _LEAST and read < _LEAST[flag]:
                raise _UsageError(f"{flag} must be at least {_LEAST[flag]}, got {read}")
            setattr(ns, flag[2:], read)
    missing = [name for name in ("file", *usage) if name[0] != "[" and getattr(ns, name.lstrip("-")) is None]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    if unknown:
        raise _UsageError("unrecognized arguments: " + " ".join(unknown))
    return ns


# str.translate's table of the ASCII characters a JSON string escapes: the
# control characters and DEL as \u00XX, five of them by their short escape,
# and '"' and '\'
_ESCAPES = {c: f"\\u{c:04x}" for c in (*range(32), 127)} | {
    ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')
}


def _wide(c: str) -> str:
    """The escape of the non-ASCII character ``c``: ``\\uXXXX``, a surrogate pair above U+FFFF."""
    n = ord(c)
    if n > 0xFFFF:
        n -= 0x10000
        return "\\u%04x\\u%04x" % (0xD800 | n >> 10, 0xDC00 | n & 0x3FF)
    return "\\u%04x" % n


def _quote(s: str) -> str:
    """``s`` as a JSON string, ASCII only, as ``json.dumps`` writes it."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:  # nothing to escape
        return f'"{s}"'
    s = s.translate(_ESCAPES)
    if not s.isascii():
        s = "".join(c if c < "\x80" else _wide(c) for c in s)
    return f'"{s}"'


def _dumps(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False)`` writes it; ``indent``, a newline and the spaces of
    ``value``'s depth, starts each line after the first.  A NaN or infinity
    raises ValueError, and a value JSON has no form for TypeError."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("Out of range float values are not JSON compliant")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{_quote(k)}: {_dumps(v, inner)}" for k, v in sorted(value.items())]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _dumps(v, inner) for v in value]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# one dims --grid row, as _dumps writes it in a report
_GRID_ROW = '\n      {\n        "fiber": %d,\n        "isotropy": %d,\n        "point": %s,\n        "tangent": %d\n      }'


# grid rows and leaf points are formatted and written this many at a time
_CHUNK_ROWS = 1024


def _rows_json(key: str, rows: list) -> str:
    """``rows``, items of ``results[key]`` (the leaf points or the grid rows),
    joined by commas as ``_dumps`` writes them in a report; a grid row's
    (label, fiber, tangent) becomes its object, isotropy included."""
    if not rows:
        return ""
    if key == "grid":
        return ",".join(_GRID_ROW % (f, f - t, _quote(label), t) for label, f, t in rows)
    row = "\n      [" + ",".join(["\n        %r"] * len(rows[0])) + "\n      ]"
    return ",".join(row % tuple(p) for p in rows)


def _emit(command: str, inputs: dict, results: dict, diagnostics: dict, **seed) -> None:
    """Print one report as ``json.dumps(report, indent=2, sort_keys=True)``
    writes it (2-space indent, sorted keys, ASCII only), and a newline; a NaN
    or infinity in it raises ValueError, and nothing is printed.

    ``_dumps`` writes the report with the array of grid rows or leaf points
    left empty, and the text up to it is printed, then the items
    ``_CHUNK_ROWS`` at a time from one row template, then the rest.
    ``results["grid"]``, the dims rows, may be any iterable, read once as a
    stream, so a report's memory does not grow with its rows.  The leaf
    points (``results["points"]``, a list) are checked to be finite first.
    A JSON string escapes every '"', so the unescaped text '"grid": []' can
    only be the results key (and so for "points")."""
    key = next((k for k in ("grid", "points") if k in results), None)
    if key == "points" and not all(map(math.isfinite, chain.from_iterable(results[key]))):
        raise ValueError("Out of range float values are not JSON compliant")
    report = {
        "command": command,
        "inputs": inputs,
        "results": {**results, key: []} if key else results,
        "diagnostics": diagnostics,
        "version": __version__,
        **seed,
    }
    text = _dumps(report)
    write = sys.stdout.write
    if key:
        rows = iter(results[key])
        chunk = _rows_json(key, list(islice(rows, _CHUNK_ROWS)))
        if chunk:  # else _dumps wrote the empty array
            head, text = text.split(f'"{key}": []', 1)
            write(f'{head}"{key}": [{chunk}')
            while chunk := _rows_json(key, list(islice(rows, _CHUNK_ROWS))):
                write("," + chunk)
            text = "\n    ]" + text
    write(text + "\n")


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
    """The ``fol`` script: exit with ``run()``'s code.

    The process ends by ``os._exit`` once stdout and stderr are flushed, so
    the interpreter does not clear every module and free every object first,
    about 9 ms of a request that needs none of it: nothing is left open (the
    ``.fol`` file is read inside ``with``), no thread runs, and no ``atexit``
    hook is registered.  A report that cannot be written ends with exit 120
    and one message: if the last flush raises OSError (a full disk, a reader
    gone before a small report was flushed), ``sys.exit`` leaves it to the
    interpreter, as at any script's end; if a write fails before that
    (stdout closed at start, a reader gone in the middle of a grid), it is
    ``fol: cannot write the report: <error>``."""
    streams = (sys.stdout, sys.stderr)
    try:
        if sys.stdout is None:  # fd 1 was closed at start
            raise OSError(errno.EBADF, "stdout is closed")
        code = run()
    except OSError as e:
        code, streams = 120, (sys.stderr,)
        if sys.stderr is not None:
            sys.stderr.write(f"fol: cannot write the report: {e}\n")
    try:
        for stream in streams:
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)
