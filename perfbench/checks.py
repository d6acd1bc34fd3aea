"""Answer checks for one ``fol`` request, independent of the code under test.

A request passes when its exit code is the expected one, its stdout is
exactly one JSON document (bare ``NaN``/``Infinity`` rejected) that
satisfies ``docs/report.schema.json``, and its results agree with the
benchmark's own arithmetic (:mod:`oracle`): certificates, relations and
minors are evaluated at seeded rational points, tangent dimensions are
exact ranks, flows and jets of linear specs are compared with exp(tA).
For the default seed the ``results`` of the exact subcommands must also
match the digests recorded in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from fractions import Fraction

from corpus import LINEAR, XorShift64Star, fmt_point, random_rational_points
from oracle import (
    Expr,
    bracket_at,
    combined,
    expv,
    field_value,
    max_abs_diff,
    minors_at,
    rank_q,
    word_matrix,
)

EXACT_COMMANDS = ("check", "syzygy", "member", "singular", "localgens", "dims")
TOLERANCE = 1e-6  # the README's tolerance hint for flows and jets


class CheckFailed(Exception):
    pass


def _require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


def _reject_constant(name):
    raise CheckFailed(f"non-JSON constant {name} in report")


def parse_report(stdout: str) -> dict:
    """Exactly one JSON object; NaN and the infinities are failures."""
    try:
        doc = json.loads(stdout, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise CheckFailed(f"stdout is not one JSON document: {e}") from None
    _require(isinstance(doc, dict), "report is not a JSON object")
    return doc


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}
_ANNOTATIONS = {"$schema", "title", "description"}


def validate_schema(doc, schema: dict, where: str = "report"):
    """The draft-07 subset the report schema uses; other keywords are refused."""
    unknown = set(schema) - _ANNOTATIONS - {"type", "required", "additionalProperties", "properties"}
    if unknown:
        raise ValueError(f"schema keyword(s) not supported by the checker: {sorted(unknown)}")
    if "type" in schema:
        _require(_TYPES[schema["type"]](doc), f"{where} is not of type {schema['type']}")
    if isinstance(doc, dict):
        for key in schema.get("required", ()):
            _require(key in doc, f"{where} lacks required key {key!r}")
        props = schema.get("properties", {})
        if schema.get("additionalProperties", True) is False:
            extra = set(doc) - set(props)
            _require(not extra, f"{where} has unexpected keys {sorted(extra)}")
        for key, sub in props.items():
            if key in doc:
                validate_schema(doc[key], sub, f"{where}.{key}")


def results_digest(results) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _points(req, n: int, count: int = 3):
    """Seeded rational test points, different for every request."""
    rng = XorShift64Star(zlib.crc32(req.id.encode()) + 17)
    return [tuple(Fraction(rng.randint(-20, 20), 7) for _ in range(n)) for _ in range(count)]


def _q(text) -> Fraction:
    return Fraction(str(text))


def _point_of(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in text.split(","))


def _generic_rank(gens, pts) -> int:
    return max(rank_q([field_value(g, p) for g in gens]) for p in pts)


def _arg(req, flag: str) -> str:
    return req.argv[req.argv.index(flag) + 1]


# ---------------------------------------------------------------------------
# per-subcommand checks: (req, spec, results, diagnostics, code)
# ---------------------------------------------------------------------------


def _check_check(req, spec, res, diag, code):
    closed = res["closed"]
    _require(isinstance(closed, bool), "closed is not a boolean")
    _require(code == (0 if closed else 1), f"exit {code} does not match closed={closed}")
    if req.expect.get("closed") is not None:
        _require(closed == req.expect["closed"], f"closed={closed}, expected {req.expect['closed']}")
    _require(closed == (not res["witnesses"]), "witness list disagrees with the verdict")
    gens = spec.exprs()
    pts = _points(req, spec.n, 2)
    for w in res["witnesses"]:
        i, j = w["i"], w["j"]
        _require(1 <= i < j <= spec.k, f"witness pair ({i}, {j}) out of range")
        printed = Expr(w["bracket"], spec.var_names)
        for p in pts:
            want = bracket_at(gens[i - 1], gens[j - 1], p)
            _require(tuple(printed.field(p)) == want, f"witness [{i},{j}] is not the bracket")


def _check_syzygy(req, spec, res, diag, code):
    gens = spec.exprs()
    pts = _points(req, spec.n)
    rels = res["relations"]
    for rel in rels:
        _require(len(rel) == spec.k, "relation has the wrong length")
        polys = [Expr(t, spec.var_names) for t in rel]
        nonzero = False
        for p in pts:
            vals = [f.value(p) for f in polys]
            nonzero = nonzero or any(v != 0 for v in vals)
            total = [sum(v * field_value(g, p)[j] for v, g in zip(vals, gens)) for j in range(spec.n)]
            _require(all(t == 0 for t in total), "relation does not annihilate the generators")
        _require(nonzero, "relation is zero")
    _require(bool(rels) == (spec.k > _generic_rank(gens, pts)),
             "relations must exist exactly when k exceeds the generic rank")


def _check_member(req, spec, res, diag, code):
    _require(res["member"] is req.expect["member"], f"member={res['member']}, expected {req.expect['member']}")
    if not res["member"]:
        _require(res["certificate"] is None, "non-member carries a certificate")
        return
    gens = spec.exprs()
    target = Expr(_arg(req, "--field"), spec.var_names)
    cert = res["certificate"]
    _require(len(cert) == spec.k, "certificate has the wrong length")
    polys = [Expr(t, spec.var_names) for t in cert]
    for p in _points(req, spec.n):
        vals = [f.value(p) for f in polys]
        combo = tuple(sum(v * field_value(g, p)[j] for v, g in zip(vals, gens)) for j in range(spec.n))
        _require(combo == tuple(target.field(p)), "certificate does not reproduce the field")


def _check_singular(req, spec, res, diag, code):
    gens = spec.exprs()
    pts = _points(req, spec.n, 2)
    r = _generic_rank(gens, pts)
    _require(res["generic_rank"] == r, f"generic_rank {res['generic_rank']}, expected {r}")
    minors = [Expr(t, spec.var_names) for t in res["minor_ideal"]]
    if r == 0:
        _require(not minors, "rank 0 with a nonempty minor ideal")
        return
    per_point = [minors_at([list(field_value(g, p)) for g in gens], r) for p in pts]
    nonzero = [i for i in range(len(per_point[0])) if any(vals[i] != 0 for vals in per_point)]
    _require(len(minors) == len(nonzero), f"{len(minors)} minors printed, {len(nonzero)} expected")
    for m, idx in zip(minors, nonzero):
        for p, vals in zip(pts, per_point):
            _require(m.value(p) == vals[idx], "printed minor differs from the determinant")


def _dims_row(row, pt, gens, k):
    _require(row["point"] == fmt_point(pt), f"row point {row['point']} != {fmt_point(pt)}")
    t = rank_q([field_value(g, pt) for g in gens])
    _require(row["tangent"] == t, f"tangent {row['tangent']} at {row['point']}, expected {t}")
    _require(t <= row["fiber"] <= k, f"fiber {row['fiber']} outside [tangent, k]")
    _require(row["isotropy"] == row["fiber"] - t, "isotropy != fiber - tangent")


def _grid(text: str, n: int):
    a, b, step = (Fraction(p) for p in text.split(":"))
    axis = []
    v = a
    while v <= b:
        axis.append(v)
        v += step
    pts = [()]
    for _ in range(n):
        pts = [p + (c,) for p in pts for c in axis]
    return pts


def _check_dims(req, spec, res, diag, code):
    gens = spec.exprs()
    if "--point" in req.argv:
        _dims_row(res, _point_of(_arg(req, "--point")), gens, spec.k)
    if "--grid" in req.argv:
        pts = _grid(_arg(req, "--grid"), spec.n)
        rows = res["grid"]
        _require(len(rows) == len(pts), f"{len(rows)} grid rows, expected {len(pts)}")
        for row, pt in zip(rows, pts):
            _dims_row(row, pt, gens, spec.k)


def _check_localgens(req, spec, res, diag, code):
    idx = res["indices"]
    _require(all(isinstance(i, int) for i in idx), "indices are not integers")
    _require(idx == sorted(set(idx)) and all(1 <= i <= spec.k for i in idx), "indices not increasing in 1..k")
    _require(res["fiber"] == len(idx), "fiber != number of indices")
    _require(diag.get("index_base") == 1, "index_base is not 1")
    pt = _point_of(_arg(req, "--point"))
    t = rank_q([field_value(g, pt) for g in spec.exprs()])
    _require(t <= len(idx) <= spec.k, f"fiber {len(idx)} outside [tangent={t}, k]")


def _close(got, want, tol, what):
    _require(len(got) == len(want), f"{what} has {len(got)} entries, expected {len(want)}")
    got = [float(v) for v in got]
    _require(all(math.isfinite(v) for v in got), f"{what} is not finite")
    scale = max(1.0, max(abs(float(v)) for v in want))
    diff = max_abs_diff(got, want)
    _require(diff <= tol * scale, f"{what} off by {diff:.3g} (tolerance {tol * scale:.3g})")


def _check_leaf(req, spec, res, diag, code):
    pts = res["points"]
    steps = req.expect["steps"]
    _require(len(pts) == steps + 1, f"{len(pts)} leaf points, expected {steps + 1}")
    start = [float(c) for c in _point_of(req.expect["point"])]
    _require(pts[0] == start, "leaf does not start at the given point")
    _require(spec.name in LINEAR, "leaf checks need a linear spec")
    mats = spec.matrices()
    rng = XorShift64Star(req.expect["seed"])
    norm0 = math.sqrt(sum(v * v for v in start))
    for prev, cur in zip(pts, pts[1:]):
        coeffs = [rng.symmetric() for _ in range(spec.k)]
        duration = 0.1 * rng.uniform()
        m = [[duration * v for v in row] for row in combined(mats, coeffs)]
        _close(cur, expv(m, prev), TOLERANCE, "leaf step")
        if spec.name == "so3":
            norm = math.sqrt(sum(v * v for v in cur))
            _require(abs(norm - norm0) <= TOLERANCE * max(1.0, norm0), "so3 leaf point left its sphere")


def _word(expect_word):
    return [([_q(c) for c in coeffs], _q(t)) for coeffs, t in expect_word]


def _check_flow(req, spec, res, diag, code):
    mats = spec.matrices()
    x = [float(c) for c in _point_of(req.expect["point"])]
    for coeffs, t in _word(req.expect["word"]):
        m = [[float(t) * v for v in row] for row in combined(mats, coeffs)]
        x = expv(m, x)
    _close(res["endpoint"], x, TOLERANCE, "flow endpoint")


def _flat(mat):
    return [v for row in mat for v in row]


def _check_jet(req, spec, res, diag, code, tol=TOLERANCE):
    want = word_matrix(spec.matrices(), _word(req.expect["word"]))
    _require(len(res["jet"]) == spec.n and all(len(r) == spec.n for r in res["jet"]), "jet has the wrong shape")
    _close(_flat(res["jet"]), _flat(want), tol, "jet")


def _check_jet_exact(req, spec, res, diag, code):
    _check_jet(req, spec, res, diag, code, tol=1e-9)


def _check_germ_eq(req, spec, res, diag, code):
    _require(res["equal"] is req.expect["equal"], f"equal={res['equal']}, expected {req.expect['equal']}")


def _check_chart_rank(req, spec, res, diag, code):
    gens = spec.exprs()
    samples = random_rational_points(req.expect["seed"], spec.n, req.expect["samples"])
    pts = [_point_of(req.expect["point"])] + samples
    entries = res["entries"]
    _require(len(entries) == len(pts), f"{len(entries)} chart entries, expected {len(pts)}")
    for e, pt in zip(entries, pts):
        _require(e["point"] == fmt_point(pt), f"entry point {e['point']} != {fmt_point(pt)}")
        t = rank_q([field_value(g, pt) for g in gens])
        _require(e["tangent"] == t, f"tangent {e['tangent']} at {e['point']}, expected {t}")
        _require(e["match"] == (e["rank"] == t), "match flag disagrees with rank and tangent")
    _require(res["ok"] == all(e["match"] for e in entries), "ok disagrees with the entries")
    _require(res["ok"], "chart rank differs from the tangent dimension")


def _check_flowbox(req, spec, res, diag, code):
    pt = _point_of(req.expect["point"])
    value = [float(v) for v in field_value(spec.exprs()[req.expect["gen"] - 1], pt)]
    drop = max(range(spec.n), key=lambda i: abs(value[i]))
    cols = [value] + [[1.0 if i == j else 0.0 for i in range(spec.n)] for j in range(spec.n) if j != drop]
    want = [[cols[c][r] for c in range(spec.n)] for r in range(spec.n)]
    _close(_flat(res["jacobian"]), _flat(want), TOLERANCE, "flow-box Jacobian")
    _require(res["invertible"] is True, "flow-box Jacobian reported singular")


def _check_pushforward(req, spec, res, diag, code):
    _require(len(res["residuals"]) == spec.k, "one residual per generator expected")
    thr = diag["threshold"]
    _require(all(r < thr for r in res["residuals"]), "conjugation left the generator span")
    _require(res["ok"] is True, "pushforward reported not ok")


CHECKERS = {
    "check": _check_check,
    "syzygy": _check_syzygy,
    "member": _check_member,
    "singular": _check_singular,
    "dims": _check_dims,
    "localgens": _check_localgens,
    "leaf": _check_leaf,
    "flow": _check_flow,
    "jet": _check_jet,
    "jet-exact": _check_jet_exact,
    "germ-eq": _check_germ_eq,
    "chart-rank": _check_chart_rank,
    "flowbox": _check_flowbox,
    "pushforward": _check_pushforward,
}

RANDOMIZED = ("leaf", "chart-rank")


def check_output(req, spec, code: int, stdout: str, schema: dict, digests: dict | None = None):
    """None if the request's answer is right, else the reason it is not."""
    try:
        if req.exit is not None:
            _require(code == req.exit, f"exit code {code}, expected {req.exit}")
        else:
            _require(code in (0, 1), f"exit code {code}, expected 0 or 1")
        doc = parse_report(stdout)
        validate_schema(doc, schema)
        _require(doc["command"] == req.cmd, f"command {doc['command']!r}, expected {req.cmd!r}")
        _require(doc["inputs"].get("argv") == req.argv, "inputs.argv does not echo the invocation")
        if req.cmd in RANDOMIZED:
            _require(doc.get("seed") == req.expect["seed"], "seed missing or wrong")
        else:
            _require("seed" not in doc, "seed present on a deterministic subcommand")
        CHECKERS[req.cmd](req, spec, doc["results"], doc["diagnostics"], code)
        if digests is not None and req.id in digests:
            _require(results_digest(doc["results"]) == digests[req.id], "results differ from the recorded digest")
    except CheckFailed as e:
        return str(e)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError, AttributeError) as e:
        return f"malformed results: {type(e).__name__}: {e}"
    return None
