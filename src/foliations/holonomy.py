"""First-jet holonomy at fixed points, with exact oracles for linear fields.

A slice {y0} x M of the parametrized chart carries the diffeomorphism
x -> time-1 flow of sum_i y0_i X_i; its linearization comes from the
first-variation integration in :mod:`foliations.flow`.  At a common
fixed point the jets of flow words multiply like the words compose, and
for families of *linear* vector fields the jet is computed exactly (in
method) from matrix exponentials, giving an independent oracle.

Jet equality is offered as a germ test only for linear families at the
origin, where distinct linearizations are known to give distinct germs;
everywhere else the operation raises instead of guessing.

The matrix exponential is scaling-and-squaring with the order-13 Pade
approximant of Higham (2005), accuracy target 1e-12 on the scales handled
here.  It and the linear oracles compute on rows, lists of floats: the
matrices are a few rows wide, and ``fol`` never loads numpy.  The
functions that return a matrix (``matrix_exp``,
``linear_generator_matrices``, ``holonomy_jet``, ``jet_exact_linear`` and
``CarriedDiffeo.jacobian``) import numpy to wrap their rows in an
ndarray; the CLI calls the row cores instead.  The cores raise nothing on
overflow: an infinite, NaN or singular intermediate gives non-finite
entries, which the callers report.
"""

from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import ArityError, BlowUpError, NotFixedPointError, NotLinearError, PreconditionError
from .flow import (
    DEFAULT_OPTIONS,
    FlowChart,
    FlowWord,
    NumericOptions,
    _exact_or_float,
    _float,
    _jet,
    _residual,
    _vanishes,
    _word_steps,
    flow_jet,
)
from .vfparse import FoliationSpec

if TYPE_CHECKING:
    # A first jet is an n x n float matrix; plain ndarray, row-major.
    from numpy import ndarray as JetMatrix

__all__ = [
    "CarriedDiffeo",
    "PushforwardReport",
    "matrix_exp",
    "linear_generator_matrices",
    "carried_diffeo",
    "holonomy_jet",
    "jet_exact_linear",
    "germ_equal_at_fixed_point",
    "check_pushforward_linear",
]

_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152


Rows = list[list[float]]


def _eye(n: int) -> Rows:
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def _nan(n: int) -> Rows:
    return [[math.nan] * n for _ in range(n)]


def _matmul(a: Rows, b: Rows) -> Rows:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _comb(*terms) -> Rows:
    """Entrywise sum of ``c * M`` over the ``(c, M)`` pairs, left to right."""
    (c0, m0), *rest = terms
    out = [[c0 * v for v in row] for row in m0]
    for c, m in rest:
        out = [[x + c * v for x, v in zip(r, row)] for r, row in zip(out, m)]
    return out


def _solve(a: Rows, b: Rows) -> Rows:
    """X with a X = b, by elimination with partial pivoting; NaN if a is singular."""
    n = len(a)
    rows = [ra + rb for ra, rb in zip(a, b)]
    for c in range(n):
        p = max(range(c, n), key=lambda i: abs(rows[i][c]))
        if rows[p][c] == 0.0:
            return _nan(n)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        for i in range(c + 1, n):
            f = rows[i][c] / pivot[c]
            rows[i] = [x - f * y for x, y in zip(rows[i], pivot)]
    x: Rows = [[]] * n
    for i in reversed(range(n)):
        row = rows[i]
        x[i] = [
            (row[n + j] - sum(row[k] * x[k][j] for k in range(i + 1, n))) / row[i]
            for j in range(len(b[i]))
        ]
    return x


def _expm(a: Rows) -> Rows:
    """exp(a) by scaling-and-squaring with the order-13 Pade approximant.

    Input with an infinite or NaN entry, or whose 1-norm overflows, gives
    NaN entries, as does a singular Pade denominator.
    """
    n = len(a)
    norm = max((sum(abs(row[j]) for row in a) for j in range(n)), default=0.0)
    if not norm < math.inf:
        return _nan(n)
    s = math.ceil(math.log2(norm / _PADE13_THETA)) if norm > _PADE13_THETA else 0
    scale = 2.0**s
    m = [[v / scale for v in row] for row in a]
    b = _PADE13_B
    ident = _eye(n)
    m2 = _matmul(m, m)
    m4 = _matmul(m2, m2)
    m6 = _matmul(m4, m2)
    inner_u = _matmul(m6, _comb((b[13], m6), (b[11], m4), (b[9], m2)))
    u = _matmul(m, _comb((1.0, inner_u), (b[7], m6), (b[5], m4), (b[3], m2), (b[1], ident)))
    inner_v = _matmul(m6, _comb((b[12], m6), (b[10], m4), (b[8], m2)))
    v = _comb((1.0, inner_v), (b[6], m6), (b[4], m4), (b[2], m2), (b[0], ident))
    r = _solve(_comb((1.0, v), (-1.0, u)), _comb((1.0, v), (1.0, u)))
    for _ in range(s):
        r = _matmul(r, r)
    return r


def _weighted_sum(coeffs: Sequence, mats: list[Rows], n: int) -> Rows:
    """The n x n rows of sum_i c_i A_i, over the nonzero c_i."""
    return _comb((1.0, [[0.0] * n] * n), *((_float(c), a) for c, a in zip(coeffs, mats) if c))


def _linear_rows(spec: FoliationSpec) -> list[Rows]:
    """Matrices A_i with X_i(x) = A_i x, as rows; raises NotLinearError otherwise."""
    n = spec.nvars
    mats = []
    for g in spec.generators:
        a = [[0.0] * n for _ in range(n)]
        for j, comp in enumerate(g.components):
            for expt, coeff in comp.terms:
                if sum(expt) != 1:
                    raise NotLinearError(
                        "generators must be linear (homogeneous of degree 1)"
                    )
                a[j][expt.index(1)] = _float(coeff)
        mats.append(a)
    return mats


def _jet_exact_rows(spec: FoliationSpec, word: FlowWord) -> Rows:
    """Rows of the product over steps of exp(t * sum_i c_i A_i), in action order."""
    steps = _word_steps(spec, word)
    mats = _linear_rows(spec)
    n = spec.nvars
    acc = _eye(n)
    for step in steps:
        m = _weighted_sum(step.coeffs, mats, n)
        acc = _matmul(_expm(_comb((step.duration, m))), acc)
    return acc


def _array(rows) -> JetMatrix:
    """``rows`` as a float ndarray; numpy loads on the first call."""
    import numpy as np

    return np.array(rows, dtype=float)


def matrix_exp(a: Sequence) -> JetMatrix:
    """exp(A) by scaling-and-squaring with the order-13 Pade approximant."""
    rows = [[_float(v) for v in row] for row in a]
    return _array(_expm(rows)).reshape(len(rows), len(rows))


def linear_generator_matrices(spec: FoliationSpec) -> list[JetMatrix]:
    """Matrices A_i with X_i(x) = A_i x; raises NotLinearError otherwise."""
    return [_array(a) for a in _linear_rows(spec)]


class CarriedDiffeo(NamedTuple):
    """The local diffeomorphism carried by the bisection {y0} x M of a chart."""

    chart: FlowChart
    y0: tuple[float, ...]

    def evaluate(self, x: Sequence) -> tuple[float, ...]:
        """Time-1 flow of sum_i y0_i X_i from x."""
        return self.chart.target(self.y0, x)

    def jacobian(self, x: Sequence) -> JetMatrix:
        """Derivative at x, from the first-variation integration."""
        _, rows = _jet(self.chart.spec, [(self.y0, 1.0)], x, self.chart.opts)
        return _array(rows)


def carried_diffeo(chart: FlowChart, y0: Sequence) -> CarriedDiffeo:
    """The diffeomorphism carried by the chart at parameter value y0."""
    y = tuple(_float(c) for c in y0)
    chart._check_y(y)
    return CarriedDiffeo(chart=chart, y0=y)


def _require_fixed_point(spec: FoliationSpec, word: FlowWord, x_fix: Sequence):
    pt = _exact_or_float(x_fix, spec.nvars)
    values = [g(pt) for g in spec.generators]
    for step in word.steps:
        combined = [  # a zero value adds 0 whatever its coefficient; a float one multiplies _float(c)
            sum(_float(c) * x if isinstance(x, float) else c * x for c, x in zip(step.coeffs, col) if x)
            for col in zip(*values)
        ]
        if not _vanishes(combined):
            raise NotFixedPointError("point is not a fixed point of every step's combined field")


def holonomy_jet(
    spec: FoliationSpec,
    word: FlowWord,
    x_fix: Sequence,
    opts: NumericOptions = DEFAULT_OPTIONS,
) -> JetMatrix:
    """Linearization at a fixed point of the word's diffeomorphism.

    The point must be fixed by every step's combined field: checked
    exactly for rational coordinates, and for float coordinates up to
    1e-12 in each component (``flow._vanishes``).  The result is the product of the step linearizations in
    action order, obtained by integrating the first-variation system
    along the stationary trajectory.
    """
    _require_fixed_point(spec, word, x_fix)
    _, rows = flow_jet(spec, word, x_fix, opts)
    return _array(rows)


def jet_exact_linear(spec: FoliationSpec, word: FlowWord) -> JetMatrix:
    """Jet at the origin for linear generators: product over steps of
    exp(t * sum_i c_i A_i), exact in method (matrix exponentials).
    """
    return _array(_jet_exact_rows(spec, word))


def germ_equal_at_fixed_point(
    spec: FoliationSpec,
    w1: FlowWord,
    w2: FlowWord,
    x_fix: Sequence,
    tol: float = 1e-6,
) -> bool:
    """Whether two words define the same germ at the origin of a linear family.

    True iff the exact jets agree entrywise within ``tol``, which must be
    positive.  Jet equality certifies germ equality only for linear
    families at 0, so any other input is rejected rather than answered.  A
    jet that overflows raises BlowUpError (at the word's total duration)
    instead of comparing unequal.
    """
    if not tol > 0:  # no gap is below a tolerance of 0, not even between equal jets
        raise PreconditionError(f"tolerance must be positive, got {tol}")
    if any(c != 0 for c in _exact_or_float(x_fix, spec.nvars)):
        raise PreconditionError("germ comparison is only offered at the origin")
    j1 = _jet_exact_rows(spec, w1)
    j2 = _jet_exact_rows(spec, w2)
    for w, j in ((w1, j1), (w2, j2)):
        if not all(math.isfinite(v) for row in j for v in row):
            raise BlowUpError("exact jet is not finite", sum(step.duration for step in w.steps))
    gap = max((abs(a - b) for r1, r2 in zip(j1, j2) for a, b in zip(r1, r2)), default=0.0)
    return gap < tol


class PushforwardReport(NamedTuple):
    residuals: tuple[float, ...]
    threshold: float
    ok: bool


def check_pushforward_linear(
    spec: FoliationSpec, coeffs: Sequence, time: float, threshold: float = 1e-8
) -> PushforwardReport:
    """Check that conjugation by g = exp(t * sum c_i A_i) preserves the span
    of the generator matrices: the distance of each g A_j g^-1 from
    span{A_1..A_k} (the norm of its component orthogonal to the span), one
    residual per generator.  Dependent generators span what they span.
    """
    mats = _linear_rows(spec)
    if len(coeffs) != spec.k:
        raise ArityError(f"{len(coeffs)} coefficients for {spec.k} generators")
    m = _weighted_sum(coeffs, mats, spec.nvars)
    t = _float(time)
    g = _expm(_comb((t, m)))
    g_inv = _expm(_comb((-t, m)))
    basis = [[v for row in a for v in row] for a in mats]
    residuals = []
    for a in mats:
        b = [v for row in _matmul(_matmul(g, a), g_inv) for v in row]
        residuals.append(math.hypot(*_residual(basis, b)))
    return PushforwardReport(
        residuals=tuple(residuals),
        threshold=threshold,
        ok=all(r < threshold for r in residuals),
    )
