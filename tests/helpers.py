"""Shared builders and independent oracles for the test suite.

The membership oracle here is deliberately separate from the library's
Groebner machinery: it solves the degree-bounded linear system for the
combination coefficients by dense Gaussian elimination over Q.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

from foliations.flow import XorShift64Star
from foliations.vfparse import FoliationSpec, Poly, VectorField, parse_vector_field

_TESTS = Path(__file__).resolve().parent


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter (with ``flags``, e.g. ``-O``) that
    imports the package from ``src`` and these helpers; stdout is text."""
    path = [str(_TESTS.parent / "src"), str(_TESTS), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


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


LINEAR_EXAMPLES = {"sl2": sl2, "gl2": gl2, "cstar": cstar}


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
