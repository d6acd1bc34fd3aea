"""Shared builders and independent oracles for the test suite.

The membership oracle here is deliberately separate from the library's
Groebner machinery: it solves the degree-bounded linear system for the
combination coefficients by dense Gaussian elimination over Q.  The rank
oracle is Gaussian elimination in Fractions, apart from the library's
fraction-free integer elimination.  The product oracle multiplies term by
term in Fractions, apart from the library's integer products.  The
Groebner check divides with its own module division, on terms kept in
dicts, and uses no pair criteria.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from foliations.flow import XorShift64Star
from foliations.modalg import _MAX_DECIMAL_EXPONENT
from foliations.vfparse import FoliationSpec, Poly, VectorField, parse_vector_field

_TESTS = Path(__file__).resolve().parent


def run_python(code: str, *flags: str, **run_args) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter (with ``flags``, e.g. ``-O``) that
    imports the package from ``src`` and these helpers.  Its stdout is
    block-buffered, as a shell starts it on a pipe or file, whatever the
    caller's PYTHONUNBUFFERED.  stdout and stderr are captured as text, and the
    run times out after 120 s, unless ``run_args`` (keywords of
    ``subprocess.run``) say otherwise."""
    path = [str(_TESTS.parent / "src"), str(_TESTS), os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    run_args = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, "timeout": 120, **run_args}
    return subprocess.run([sys.executable, *flags, "-c", code], env=env, **run_args)


def bounded_fraction(value, *rest) -> Fraction:
    """``Fraction(value, *rest)``, failing the test if ``value`` is a text or
    a Decimal with a decimal exponent over the bound: Fraction writes
    10**exponent out in full, so no reader may hand it one."""
    if isinstance(value, Decimal):
        exponent = value.as_tuple().exponent if value.is_finite() else 0
    else:
        m = re.search(r"[eE][+-]?([0-9_]+)\s*$", value) if isinstance(value, str) else None
        exponent = 0 if m is None else int(m[1].replace("_", ""))
    if abs(exponent) > _MAX_DECIMAL_EXPONENT:
        pytest.fail(f"Fraction read {value!r}")
    return Fraction(value, *rest)


def make_spec(var_names, exprs) -> FoliationSpec:
    return FoliationSpec(
        tuple(var_names), tuple(parse_vector_field(e, var_names) for e in exprs)
    )


def sl2() -> FoliationSpec:
    return make_spec(("x", "y"), ("x*dx - y*dy", "y*dx", "x*dy"))


def gl2() -> FoliationSpec:
    return make_spec(("x", "y"), ("x*dx", "y*dy", "y*dx", "x*dy"))


def cstar() -> FoliationSpec:
    return make_spec(("x", "y"), ("x*dx + y*dy", "-y*dx + x*dy"))


def xk(k: int) -> FoliationSpec:
    return make_spec(("x",), (f"x^{k}*dx" if k > 1 else "x*dx",))


def nonintegrable() -> FoliationSpec:
    return make_spec(("x", "y"), ("dx", "x*dy"))


def so3() -> FoliationSpec:
    return make_spec(("x", "y", "z"), ("-y*dx + x*dy", "-z*dy + y*dz", "z*dx - x*dz"))


def gl3() -> FoliationSpec:
    xyz = ("x", "y", "z")
    return make_spec(xyz, tuple(f"{a}*d{b}" for a in xyz for b in xyz))


def float_root() -> FoliationSpec:
    """(x - r)^2*dx written out, r the rational that the float 1000006.9
    stores: it vanishes exactly at (1000006.9, 0.0), where evaluating it in
    floats gives -2^-13."""
    r = Fraction(1000006.9)
    return make_spec(("x", "y"), (f"(x^2 - 2*{r}*x + {r * r})*dx",))


LINEAR_EXAMPLES = {"sl2": sl2, "gl2": gl2, "cstar": cstar}


def geometric(var: str, count: int) -> str:
    """The text ``(1 + var^1 + ... + var^(count-1))``."""
    return "(" + " + ".join(["1"] + [f"{var}^{e}" for e in range(1, count)]) + ")"


# -- randomized inputs -------------------------------------------------------


def random_fraction(rng: XorShift64Star, max_numer: int = 8, denominator: int = 4) -> Fraction:
    return Fraction(rng.randint(-max_numer, max_numer), denominator)


def random_poly(rng: XorShift64Star, nvars: int, max_deg: int, n_terms: int = 3) -> Poly:
    terms = []
    for _ in range(n_terms):
        expt = [0] * nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            expt[rng.randint(0, nvars - 1)] += 1
        terms.append((tuple(expt), random_fraction(rng)))
    return Poly(nvars, terms)


def random_field(rng: XorShift64Star, nvars: int, max_deg: int) -> VectorField:
    return VectorField(tuple(random_poly(rng, nvars, max_deg) for _ in range(nvars)))


def random_word(rng: XorShift64Star, spec: FoliationSpec, max_steps: int = 4, t_max: float = 1.0):
    from foliations.flow import FlowWord

    n_steps = rng.randint(1, max_steps)
    steps = []
    for _ in range(n_steps):
        coeffs = tuple(Fraction(rng.randint(-16, 16), 16) for _ in range(spec.k))
        duration = t_max * rng.symmetric()
        steps.append((coeffs, duration))
    return FlowWord(spec, steps)


# -- exact linear algebra oracle ---------------------------------------------


def solve_exact(rows, rhs):
    """One solution of A x = b over Q (free variables set to 0), or None."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        m[row] = [v / pv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    for r in range(row, len(m)):
        if m[r][-1]:
            return None  # inconsistent
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][-1]
    return x


def rank_oracle(rows) -> int:
    """Rank over Q by Gaussian elimination in Fractions, no thresholds."""
    m = [[Fraction(v) for v in r] for r in rows]
    if not m:
        return 0
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def monomials_up_to(nvars: int, max_deg: int):
    out = []
    for expt in product(range(max_deg + 1), repeat=nvars):
        if sum(expt) <= max_deg:
            out.append(expt)
    out.sort()
    return out


def brute_force_member(spec: FoliationSpec, x: VectorField, degree_bound: int):
    """Search coefficients f_i with deg f_i <= degree_bound and sum f_i X_i = X.

    Returns the coefficient tuple (as Poly) on success, None if no
    combination exists within the degree bound.
    """
    n, k = spec.nvars, spec.k
    monos = monomials_up_to(n, degree_bound)
    gen_deg = max((g.components[j].degree() for g in spec.generators for j in range(n)), default=0)
    eq_deg = degree_bound + max(gen_deg, 0)
    eq_deg = max(eq_deg, max((c.degree() for c in x.components), default=0))
    eq_monos = monomials_up_to(n, eq_deg)
    eq_index = {m: i for i, m in enumerate(eq_monos)}
    nrows = n * len(eq_monos)
    ncols = k * len(monos)
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    rhs = [Fraction(0)] * nrows
    for j in range(n):
        for expt, coeff in x.components[j].terms:
            rhs[j * len(eq_monos) + eq_index[expt]] = coeff
    for i, g in enumerate(spec.generators):
        for mi, mono in enumerate(monos):
            col = i * len(monos) + mi
            for j in range(n):
                shifted = g.components[j].mul_term(mono, Fraction(1))
                for expt, coeff in shifted.terms:
                    rows[j * len(eq_monos) + eq_index[expt]][col] += coeff
    sol = solve_exact(rows, rhs)
    if sol is None:
        return None
    coeff_polys = []
    for i in range(k):
        terms = []
        for mi, mono in enumerate(monos):
            c = sol[i * len(monos) + mi]
            if c:
                terms.append((mono, c))
        coeff_polys.append(Poly(n, terms))
    # the oracle checks its own answer symbolically
    combo = VectorField.zero(n)
    for f, g in zip(coeff_polys, spec.generators):
        combo = combo + g.scale(f)
    if combo != x:  # explicit, so the check also runs under python -O
        raise AssertionError("oracle produced an invalid combination")
    return tuple(coeff_polys)


# -- product and Groebner oracles ---------------------------------------------


def product_oracle(a: Poly, b: Poly) -> Poly:
    """a * b, term by term in Fractions, built by the validating constructor."""
    return Poly(a.nvars, [
        (tuple(x + y for x, y in zip(ea, eb)), ca * cb) for ea, ca in a.terms for eb, cb in b.terms
    ])


def power_oracle(p: Poly, exponent: int) -> Poly:
    """p ** exponent as ``exponent`` products by p."""
    out = Poly(p.nvars, [((0,) * p.nvars, 1)])
    for _ in range(exponent):
        out = product_oracle(out, p)
    return out


def _order_key(split: int | None):
    """Sort key of a module term (position, exponents): grevlex on the
    exponents, the lower position on ties; with ``split``, any position below
    it first (the block order that eliminates those positions)."""

    def key(term):
        pos, expt = term
        grevlex = (sum(expt), tuple(-e for e in reversed(expt)))
        return (pos < split if split is not None else 0, grevlex, -pos)

    return key


def _as_terms(elem) -> dict:
    return {(pos, expt): c for pos, p in enumerate(elem) for expt, c in p.terms}


def _shifted(terms: dict, expt, coeff) -> dict:
    return {(pos, tuple(a + b for a, b in zip(e, expt))): c * coeff for (pos, e), c in terms.items()}


def _normal_form(terms: dict, basis: list, key) -> dict:
    """Remainder of full division of ``terms`` by ``basis`` (term dicts)."""
    heads = [max(g, key=key) for g in basis]
    work, rem = dict(terms), {}
    while work:
        pos, expt = lead = max(work, key=key)
        c = work.pop(lead)
        for g, (gpos, gexpt) in zip(basis, heads):
            if gpos == pos and all(a <= b for a, b in zip(gexpt, expt)):
                factor = tuple(a - b for a, b in zip(expt, gexpt))
                for t, v in _shifted(g, factor, -c / g[(gpos, gexpt)]).items():
                    if t != lead:
                        v += work.get(t, 0)
                        if v:
                            work[t] = v
                        else:
                            work.pop(t, None)
                break
        else:
            rem[lead] = c
    return rem


def groebner_failures(gens, basis, split: int | None = None) -> list[str]:
    """What keeps ``basis`` from being a Groebner basis containing ``gens``
    (both sequences of tuples of Poly) under the order of ``_order_key``:
    each generator and each S-pair of two basis elements whose leads share a
    position must divide to zero.  Empty when it is one."""
    key = _order_key(split)
    elems = [_as_terms(b) for b in basis]
    failures = [f"generator {i}" for i, g in enumerate(gens) if _normal_form(_as_terms(g), elems, key)]
    heads = [max(g, key=key) for g in elems]
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            (pi, ei), (pj, ej) = heads[i], heads[j]
            if pi != pj:
                continue
            lcm = tuple(map(max, ei, ej))
            s = _shifted(elems[i], tuple(a - b for a, b in zip(lcm, ei)), 1 / elems[i][heads[i]])
            for t, v in _shifted(elems[j], tuple(a - b for a, b in zip(lcm, ej)), -1 / elems[j][heads[j]]).items():
                s[t] = s.get(t, 0) + v
            if _normal_form({t: v for t, v in s.items() if v}, elems, key):
                failures.append(f"S-pair {i},{j}")
    return failures


# -- interpreted RK4 reference -----------------------------------------------


def _terms_value(terms, x):
    # c*x*x*y products and left-to-right sums, as the generated kernels do
    total = None
    for expt, c in terms:
        v = c
        for xi, e in zip(x, expt):
            for _ in range(e):
                v = v * xi
        total = v if total is None else total + v
    return 0.0 if total is None else total


def _terms_derivative(terms, m):
    return [
        (expt[:m] + (expt[m] - 1,) + expt[m + 1 :], c * expt[m]) for expt, c in terms if expt[m]
    ]


def rk4_reference_step(comb, state, h, variation=False):
    """One classical RK4 step of the field whose per-component float terms
    are ``comb`` (as from ``flow._combined_terms``), interpreted term by term
    in the generated kernels' order of operations.

    With ``variation`` the state is the point followed by the row-major
    n x n linearization, which evolves by v' = J(x) v.
    """
    n = len(comb)

    def slope(pt):
        x = pt[:n]
        k = [_terms_value(terms, x) for terms in comb]
        if variation:
            jac = [[_terms_value(_terms_derivative(comb[j], m), x) for m in range(n)] for j in range(n)]
            for j in range(n):
                for l in range(n):
                    acc = jac[j][0] * pt[n + l]
                    for m in range(1, n):
                        acc = acc + jac[j][m] * pt[n + m * n + l]
                    k.append(acc)
        return k

    k1 = slope(state)
    k2 = slope([x + 0.5 * h * k for x, k in zip(state, k1)])
    k3 = slope([x + 0.5 * h * k for x, k in zip(state, k2)])
    k4 = slope([x + h * k for x, k in zip(state, k3)])
    return tuple(
        x + h * (a + 2.0 * b + 2.0 * c + d) / 6.0 for x, a, b, c, d in zip(state, k1, k2, k3, k4)
    )
