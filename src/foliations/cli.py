"""The ``fol`` command line: one subcommand per library operation.

Every invocation writes a single JSON report to stdout.  Exit codes:

* 0 - success (including query results like ``member = false``)
* 1 - a checked property is false (``check`` on a non-involutive family,
      ``chart-rank`` mismatches, ``pushforward`` residual too large,
      ``flowbox`` with a singular Jacobian)
* 2 - parse or usage error, including violated preconditions
* 3 - numerical failure (trajectory blow-up, budget exceeded, a result
      that is not finite; reports never carry NaN or infinities)

Foliation files (``.fol``) are line oriented::

    # comment
    name: sl2
    vars: x y
    generators:
      x*dx - y*dy
      y*dx
      x*dy

Randomized subcommands (``leaf``, ``chart-rank``) require ``--seed``.
Output is byte-identical for identical invocations and seeds.  ``--jobs N``
is accepted and has no effect (N must be at least 1).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import __version__
from .errors import (
    ArityError,
    BlowUpError,
    BudgetError,
    ParseError,
    PreconditionError,
)
from .flow import (
    FlowWord,
    NumericOptions,
    XorShift64Star,
    chart_at,
    chart_rank_check,
    flow,
    flow_box,
    leaf_sample,
    random_rational_points,
)
from .holonomy import (
    check_pushforward_linear,
    germ_equal_at_fixed_point,
    holonomy_jet,
    jet_exact_linear,
)
from .modalg import (
    contains,
    fiber_dim,
    is_involutive,
    minimal_local_generators,
    module_groebner,
    singular_locus,
    syzygy_basis,
    tangent_dim,
)
from .vfparse import (
    FoliationSpec,
    format_poly,
    format_vector_field,
    parse_vector_field,
)

__all__ = ["FoliationFile", "load_foliation", "load_foliation_file", "save_foliation_file", "run", "main"]


@dataclass
class FoliationFile:
    path: str
    spec: FoliationSpec
    name: str | None = None
    description: str | None = None


def load_foliation_file(path) -> FoliationFile:
    """Parse a ``.fol`` file; errors carry 1-based line/column."""
    text = Path(path).read_text()
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
            except ParseError as e:
                raise type(e)(
                    *((e.name,) if hasattr(e, "name") else (e.message,)),
                    line=lineno,
                    column=e.column,
                ) from None
            continue
        stripped = line.strip()
        if stripped.startswith("vars:"):
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
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"cannot parse rational {text!r}")


def _parse_point(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_rational(c) for c in text.split(","))


def _parse_word(spec: FoliationSpec, text: str) -> FlowWord:
    steps = []
    text = text.strip()
    if text:
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "@" not in chunk:
                raise _UsageError(f"word step {chunk!r} is missing '@duration'")
            cpart, tpart = chunk.rsplit("@", 1)
            coeffs = tuple(_parse_rational(c) for c in cpart.split(","))
            steps.append((coeffs, float(_parse_rational(tpart))))
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


# the most points a ``dims --grid`` scan may have; larger grids exit 3
_GRID_MAX_POINTS = 100_000


def _grid_points(bounds, nvars: int) -> list[tuple[Fraction, ...]]:
    a, b, step = bounds
    per_axis = math.floor((b - a) / step) + 1
    count = per_axis**nvars
    if count > _GRID_MAX_POINTS:
        raise BudgetError(f"--grid has {count} points, more than {_GRID_MAX_POINTS}")
    axis = [a + i * step for i in range(per_axis)]
    points = [()]
    for _ in range(nvars):
        points = [p + (c,) for p in points for c in axis]
    return points


def _fmt_q(q: Fraction) -> str:
    return str(q)


def _fmt_point(pt) -> str:
    return ",".join(_fmt_q(c) for c in pt)


def _json_matrix(rows) -> list[list[float]]:
    return [[float(v) for v in row] for row in rows]


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (exit_code, results, diagnostics, seed)
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
        None,
    )


def _dims_at(spec, pt):
    f = fiber_dim(spec, pt)
    t = tangent_dim(spec, pt)
    return {"point": _fmt_point(pt), "fiber": f, "tangent": t, "isotropy": f - t}


def _cmd_dims(ns, spec):
    if ns.point is None and ns.grid is None:
        raise _UsageError("dims needs --point and/or --grid")
    results = {}
    if ns.point is not None:
        pt = _parse_point(ns.point)
        results.update(_dims_at(spec, pt))
    if ns.grid is not None:
        pts = _grid_points(_parse_grid(ns.grid), spec.nvars)
        results["grid"] = [_dims_at(spec, p) for p in pts]
    return 0, results, {}, None


def _cmd_member(ns, spec):
    field = parse_vector_field(ns.field, spec.var_names)
    gb = module_groebner(spec)
    res = contains(gb, field)
    cert = None
    if res.member:
        cert = [format_poly(p, spec.var_names) for p in res.certificate]
    return 0, {"member": res.member, "certificate": cert}, {}, None


def _cmd_syzygy(ns, spec):
    syz = syzygy_basis(spec)
    rels = [[format_poly(p, spec.var_names) for p in rel] for rel in syz.relations]
    return 0, {"relations": rels}, {}, None


def _cmd_singular(ns, spec):
    rep = singular_locus(spec)
    return (
        0,
        {
            "generic_rank": rep.generic_rank,
            "minor_ideal": [format_poly(p, spec.var_names) for p in rep.minor_ideal],
        },
        {},
        None,
    )


def _cmd_localgens(ns, spec):
    pt = _parse_point(ns.point)
    indices = minimal_local_generators(spec, pt)
    return 0, {"indices": list(indices), "fiber": len(indices)}, {"index_base": 1}, None


def _cmd_leaf(ns, spec):
    opts = _opts_from(ns)
    pt = _parse_point(ns.point)
    pts = leaf_sample(spec, [float(c) for c in pt], ns.steps, ns.seed, opts)
    return (
        0,
        {"points": [[float(v) for v in p] for p in pts]},
        {"step_size": opts.step_size},
        ns.seed,
    )


def _cmd_flow(ns, spec):
    opts = _opts_from(ns)
    word = _parse_word(spec, ns.word)
    pt = _parse_point(ns.point)
    end = flow(spec, word, [float(c) for c in pt], opts)
    return (
        0,
        {"endpoint": [float(v) for v in end]},
        {"step_size": opts.step_size, "tolerance_hint": 1e-6},
        None,
    )


def _cmd_chart_rank(ns, spec):
    opts = _opts_from(ns)
    if ns.samples < 0:
        raise _UsageError(f"--samples must be non-negative, got {ns.samples}")
    pt = _parse_point(ns.point)
    rng = XorShift64Star(ns.seed)
    samples = random_rational_points(rng, spec.nvars, ns.samples)
    chart = chart_at(spec, [float(c) for c in pt], opts)
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
    return (0 if report.ok else 1), {"ok": report.ok, "entries": rows}, diags, ns.seed


def _cmd_flowbox(ns, spec):
    opts = _opts_from(ns)
    pt = _parse_point(ns.point)
    rep = flow_box(spec, ns.gen, pt, None, opts)
    return (
        0 if rep.invertible else 1,
        {"jacobian": _json_matrix(rep.jacobian), "invertible": rep.invertible},
        {"fd_epsilon": opts.fd_epsilon, "rank_rel_threshold": opts.rank_rel_threshold},
        None,
    )


def _cmd_jet(ns, spec):
    opts = _opts_from(ns)
    word = _parse_word(spec, ns.word)
    pt = _parse_point(ns.point)
    jet = holonomy_jet(spec, word, pt, opts)
    return (
        0,
        {"jet": _json_matrix(jet)},
        {"step_size": opts.step_size, "tolerance_hint": 1e-6},
        None,
    )


def _cmd_jet_exact(ns, spec):
    word = _parse_word(spec, ns.word)
    jet = jet_exact_linear(spec, word)
    return 0, {"jet": _json_matrix(jet)}, {"method_accuracy": 1e-12}, None


def _cmd_germ_eq(ns, spec):
    w1 = _parse_word(spec, ns.word1)
    w2 = _parse_word(spec, ns.word2)
    pt = _parse_point(ns.point)
    tol = _finite("--tol", ns.tol) if ns.tol is not None else 1e-6
    equal = germ_equal_at_fixed_point(spec, w1, w2, pt, tol)
    return 0, {"equal": equal}, {"tolerance": tol}, None


def _cmd_pushforward(ns, spec):
    coeffs = _parse_point(ns.coeffs)
    rep = check_pushforward_linear(spec, coeffs, _finite("--time", ns.time))
    return (
        0 if rep.ok else 1,
        {"ok": rep.ok, "residuals": [float(r) for r in rep.residuals]},
        {"threshold": rep.threshold},
        None,
    )


_HANDLERS = {
    "check": _cmd_check,
    "dims": _cmd_dims,
    "member": _cmd_member,
    "syzygy": _cmd_syzygy,
    "singular": _cmd_singular,
    "localgens": _cmd_localgens,
    "leaf": _cmd_leaf,
    "flow": _cmd_flow,
    "chart-rank": _cmd_chart_rank,
    "flowbox": _cmd_flowbox,
    "jet": _cmd_jet,
    "jet-exact": _cmd_jet_exact,
    "germ-eq": _cmd_germ_eq,
    "pushforward": _cmd_pushforward,
}


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="JSON output (the default and only format)")
    common.add_argument("--h", type=float, default=None, help="integrator step size (default 1e-3)")
    common.add_argument("--tol", type=float, default=None, help="comparison tolerance where applicable")
    common.add_argument("--jobs", type=int, default=1, help="accepted and has no effect (must be at least 1)")

    parser = _Parser(prog="fol", description="singular-foliation workbench")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.add_argument("file", help="foliation file (.fol)")
        return p

    add("check", help="involutivity check")
    p = add("dims", help="fiber/tangent/isotropy dimensions")
    p.add_argument("--point", default=None)
    p.add_argument("--grid", default=None, metavar="a:b:step")
    p = add("member", help="module membership with certificate")
    p.add_argument("--field", required=True)
    add("syzygy", help="relations among the generators")
    add("singular", help="generic rank and minor ideal")
    p = add("localgens", help="minimal local generator indices at a point")
    p.add_argument("--point", required=True)
    p = add("leaf", help="random orbit walk")
    p.add_argument("--point", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p = add("flow", help="apply a flow word to a point")
    p.add_argument("--word", required=True)
    p.add_argument("--point", required=True)
    p = add("chart-rank", help="chart parameter-derivative rank vs tangent dimension")
    p.add_argument("--point", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p = add("flowbox", help="flow-box Jacobian at a point")
    p.add_argument("--gen", type=int, required=True, help="1-based generator index")
    p.add_argument("--point", required=True)
    p = add("jet", help="holonomy jet of a word at a fixed point")
    p.add_argument("--word", required=True)
    p.add_argument("--point", required=True)
    p = add("jet-exact", help="exact jet for linear generators")
    p.add_argument("--word", required=True)
    p = add("germ-eq", help="germ equality of two words at the origin (linear only)")
    p.add_argument("--word1", required=True)
    p.add_argument("--word2", required=True)
    p.add_argument("--point", required=True)
    p = add("pushforward", help="conjugation stays in the generator span (linear only)")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--time", type=float, required=True)
    return parser


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _error_report(command: str | None, argv, exc: Exception) -> dict:
    diagnostics = {"error": str(exc), "error_type": type(exc).__name__}
    if isinstance(exc, ParseError):
        if exc.line is not None:
            diagnostics["line"] = exc.line
        if exc.column is not None:
            diagnostics["column"] = exc.column
    return {
        "command": command or "",
        "inputs": {"argv": list(argv)},
        "results": {},
        "diagnostics": diagnostics,
        "version": __version__,
    }


_VALUE_FLAGS = {
    "--point", "--grid", "--word", "--word1", "--word2", "--coeffs",
    "--field", "--time", "--h", "--tol",
}


def _normalize_argv(argv: list[str]) -> list[str]:
    # let value flags accept arguments with a leading '-' (negative numbers)
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt and nxt.startswith("-") and not nxt.startswith("--"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv: Sequence[str] | None = None) -> int:
    """Run one CLI invocation; prints a JSON report, returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(_normalize_argv(argv))
    except _UsageError as e:
        _emit(_error_report(None, argv, e))
        return 2
    inputs = {"argv": argv, "file": ns.file}
    try:
        if ns.jobs < 1:
            raise _UsageError("--jobs must be at least 1")
        ff = load_foliation_file(ns.file)
        code, results, diagnostics, seed = _HANDLERS[ns.cmd](ns, ff.spec)
    except (OSError, _UsageError, ParseError, ArityError, PreconditionError) as e:
        _emit(_error_report(ns.cmd, argv, e))
        return 2
    except (BudgetError, BlowUpError) as e:
        _emit(_error_report(ns.cmd, argv, e))
        return 3
    report = {
        "command": ns.cmd,
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics,
        "version": __version__,
    }
    if seed is not None:
        report["seed"] = seed
    try:
        _emit(report)
    except ValueError:  # a NaN or infinity in the results, which JSON cannot carry
        _emit(_error_report(ns.cmd, argv, ArithmeticError("result is not finite")))
        return 3
    return code


def main() -> None:
    sys.exit(run())
