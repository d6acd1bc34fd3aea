"""Invariance oracles: the answers depend on the module, not on the
generators chosen for it or on the coordinates.

A singular foliation is the module its generators span, and the fiber
F / I_x F and the tangent space F(x) are the module's (Androulidakis and
Skandalis).  So, on seeded specs drawn like ``helpers.random_field``:

* the same module under other generators (X_i += f*X_j, a reordering, a
  nonzero rational scale, one redundant generator f*X_1 + g*X_k) has the
  same reduced Groebner basis (unique for a module and an order), the same
  involutivity verdict, the same fiber and tangent dimensions at every
  point (a redundant generator adds one to k and one to the rank of the
  relations), the same ``contains`` verdicts and the same ``dims --grid``
  rows;
* under affine coordinates x = A*y + b, with Y = A^-1 X(A*y + b), the
  involutivity verdict is the same, the dimensions at y are those at
  A*y + b, and a transported field is a member exactly when the field is.

These hold for every correct engine and need no recorded answer.  A
BudgetError on either side is reported with its seed, and each test
asserts how many specs it compared.
"""

from fractions import Fraction
from itertools import product

import pytest

from foliations.errors import BudgetError
from foliations.flow import XorShift64Star
from foliations.modalg import _dims, contains, fiber_dim, is_involutive, module_groebner, tangent_dim
from foliations.vfparse import FoliationSpec, Poly, VectorField

from helpers import random_field, random_fraction, random_poly

NAMES = ("x", "y", "z")
SPECS = 40  # seeds per family
GRID = (-1, 0, 2)  # grid coordinates X of the points X / 2


def _spec(rng, n: int, k: int) -> FoliationSpec:
    return FoliationSpec(NAMES[:n], tuple(random_field(rng, n, 2) for _ in range(k)))


def _draw(seed: int) -> tuple[XorShift64Star, FoliationSpec]:
    rng = XorShift64Star(seed)
    n, k = rng.randint(1, 2), rng.randint(1, 3)
    return rng, _spec(rng, n, k)


def _points(rng, n: int) -> list[tuple[Fraction, ...]]:
    return [tuple(random_fraction(rng, 4, rng.randint(1, 3)) for _ in range(n)) for _ in range(3)]


def _queries(rng, spec: FoliationSpec) -> list[VectorField]:
    """Two random fields and one member of the module."""
    n = spec.nvars
    member = VectorField.zero(n)
    for g in spec.generators:
        member = member + g.scale(random_poly(rng, n, 1))
    return [random_field(rng, n, 3), random_field(rng, n, 2), member]


def _same_module(rng, spec: FoliationSpec) -> list[FoliationSpec]:
    """Specs of the same module under other generators."""
    gens, n, k = list(spec.generators), spec.nvars, spec.k
    out = []
    if k > 1:
        i, j = rng.randint(0, k - 1), rng.randint(0, k - 2)
        j += j >= i
        sheared = list(gens)
        sheared[i] = gens[i] + gens[j].scale(random_poly(rng, n, 1))
        out.append(sheared)
        out.append(gens[1:] + gens[:1])
    scaled = list(gens)
    scaled[-1] = gens[-1].scale(Fraction(rng.randint(1, 7), rng.randint(1, 5)) * (-1) ** rng.randint(0, 1))
    out.append(scaled)
    redundant = gens[0].scale(random_poly(rng, n, 1)) + gens[-1].scale(random_poly(rng, n, 1))
    out.append(gens + [redundant])
    return [FoliationSpec(spec.var_names, tuple(g)) for g in out]


def _report(failures: list[str], budget: list[int]) -> str:
    return "\n".join(failures + [f"seed {s}: BudgetError" for s in budget])


def test_the_same_module_under_other_generators():
    compared, failures, budget = 0, [], []
    for seed in range(SPECS):
        rng, spec = _draw(seed)
        n = spec.nvars
        points = _points(rng, n)
        queries = _queries(rng, spec)
        grid = list(product(GRID, repeat=n))
        try:
            basis = module_groebner(spec).basis
            closed = is_involutive(spec).closed
            dims = [(fiber_dim(spec, p), tangent_dim(spec, p)) for p in points]
            verdicts = [contains(module_groebner(spec), q).member for q in queries]
            rows = list(_dims(spec, grid, 2))
            for other in _same_module(rng, spec):
                gb = module_groebner(other)
                got = (
                    gb.basis == basis,
                    is_involutive(other).closed == closed,
                    [(fiber_dim(other, p), tangent_dim(other, p)) for p in points] == dims,
                    [contains(gb, q).member for q in queries] == verdicts,
                    list(_dims(other, grid, 2)) == rows,
                )
                if not all(got):
                    failures.append(f"seed {seed}, {other}: {got}")
                compared += 1
        except BudgetError:
            budget.append(seed)
    assert not failures and not budget, _report(failures, budget)
    assert compared == 132


def _affine(rng, n: int) -> tuple[list[list[Fraction]], list[Fraction], list[list[Fraction]]]:
    """(A, b, A^-1): an invertible rational n x n matrix A and a shift b."""
    while True:
        a = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        det = a[0][0] if n == 1 else a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if det:
            break
    inv = [[1 / det]] if n == 1 else [[a[1][1] / det, -a[0][1] / det], [-a[1][0] / det, a[0][0] / det]]
    return a, [random_fraction(rng, 3, 2) for _ in range(n)], inv


def _pull_back(x: VectorField, a, b, inv) -> VectorField:
    """A^-1 X(A*y + b), by composing each component with the affine map."""
    n = x.nvars
    ys = [Poly.variable(i, n) for i in range(n)]
    image = [sum((a[i][j] * ys[j] for j in range(n)), Poly.constant(b[i], n)) for i in range(n)]
    comps = [p(image) if not p.is_zero else Poly.zero(n) for p in x.components]
    return VectorField(tuple(sum((inv[i][j] * comps[j] for j in range(n)), Poly.zero(n)) for i in range(n)))


def test_affine_coordinates_transport_the_answers():
    compared, failures, budget = 0, [], []
    for seed in range(SPECS):
        rng, spec = _draw(1_000 + seed)
        n = spec.nvars
        a, b, inv = _affine(rng, n)
        moved = FoliationSpec(spec.var_names, tuple(_pull_back(g, a, b, inv) for g in spec.generators))
        ys = _points(rng, n)
        xs = [tuple(sum((a[i][j] * y[j] for j in range(n)), b[i]) for i in range(n)) for y in ys]
        queries = _queries(rng, spec)
        try:
            gb, moved_gb = module_groebner(spec), module_groebner(moved)
            got = (
                is_involutive(moved).closed == is_involutive(spec).closed,
                [(fiber_dim(moved, y), tangent_dim(moved, y)) for y in ys]
                == [(fiber_dim(spec, x), tangent_dim(spec, x)) for x in xs],
                [contains(moved_gb, _pull_back(q, a, b, inv)).member for q in queries]
                == [contains(gb, q).member for q in queries],
            )
            if not all(got):
                failures.append(f"seed {seed}, {spec} -> {moved}: {got}")
            compared += 1
        except BudgetError:
            budget.append(seed)
    assert not failures and not budget, _report(failures, budget)
    assert compared == SPECS


@pytest.mark.parametrize("seed", [3, 11])
def test_the_pull_back_is_a_change_of_coordinates(seed):
    # the transform itself: X at A*y + b equals A times the pulled-back field at y
    rng = XorShift64Star(seed)
    x = random_field(rng, 2, 2)
    a, b, inv = _affine(rng, 2)
    y = (Fraction(1, 3), Fraction(-2, 5))
    point = tuple(a[i][0] * y[0] + a[i][1] * y[1] + b[i] for i in range(2))
    moved = _pull_back(x, a, b, inv)(y)
    assert tuple(a[i][0] * moved[0] + a[i][1] * moved[1] for i in range(2)) == x(point)
