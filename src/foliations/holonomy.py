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
approximant (accuracy target 1e-12 on the scales handled here).

numpy is imported on first use, inside each function that computes with
it, so importing this module (and the exact subcommands of ``fol``) does
not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import ArityError, BlowUpError, NotFixedPointError, NotLinearError, PreconditionError
from .flow import (
    DEFAULT_OPTIONS,
    FlowChart,
    FlowWord,
    NumericOptions,
    _float_point,
    _flow_segment,
    _segment,
    _var_step_fn,
    flow_jet,
)
from .modalg import as_point
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


def matrix_exp(a: Sequence) -> JetMatrix:
    """exp(A) by scaling-and-squaring with the order-13 Pade approximant."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    # an overflow yields inf/NaN entries, which the callers' finiteness
    # checks report; numpy's warnings would only reach stderr
    with np.errstate(all="ignore"):
        norm = float(np.abs(a).sum(axis=0).max()) if a.size else 0.0
        s = 0
        if norm > _PADE13_THETA:
            s = int(math.ceil(math.log2(norm / _PADE13_THETA)))
        m = a / (2.0**s)
        b = _PADE13_B
        ident = np.eye(n)
        m2 = m @ m
        m4 = m2 @ m2
        m6 = m4 @ m2
        u = m @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2) + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * ident)
        v = m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2) + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * ident
        r = np.linalg.solve(v - u, v + u)
        for _ in range(s):
            r = r @ r
    return r


def linear_generator_matrices(spec: FoliationSpec) -> list[JetMatrix]:
    """Matrices A_i with X_i(x) = A_i x; raises NotLinearError otherwise."""
    import numpy as np

    mats = []
    for g in spec.generators:
        a = np.zeros((spec.nvars, spec.nvars))
        for j, comp in enumerate(g.components):
            for expt, coeff in comp.terms:
                if sum(expt) != 1:
                    raise NotLinearError(
                        "generators must be linear (homogeneous of degree 1)"
                    )
                a[j][expt.index(1)] = float(coeff)
        mats.append(a)
    return mats


@dataclass(frozen=True)
class CarriedDiffeo:
    """The local diffeomorphism carried by the bisection {y0} x M of a chart."""

    chart: FlowChart
    y0: tuple[float, ...]

    def evaluate(self, x: Sequence) -> tuple[float, ...]:
        """Time-1 flow of sum_i y0_i X_i from x."""
        pt = _float_point(x, self.chart.spec.nvars)
        return _flow_segment(self.chart.spec, self.y0, 1.0, pt, self.chart.opts)

    def jacobian(self, x: Sequence) -> JetMatrix:
        """Derivative at x, from the first-variation integration."""
        import numpy as np

        n = self.chart.spec.nvars
        ident = tuple(1.0 if i == j else 0.0 for i in range(n) for j in range(n))
        state = _float_point(x, n) + ident
        out = _segment(1.0, state, self.chart.opts, 0.0, _var_step_fn(self.chart.spec, self.y0))
        return np.array(out[n:], dtype=float).reshape(n, n)


def carried_diffeo(chart: FlowChart, y0: Sequence) -> CarriedDiffeo:
    """The diffeomorphism carried by the chart at parameter value y0."""
    y = tuple(float(c) for c in y0)
    if len(y) != chart.k:
        raise ArityError(f"parameter has {len(y)} entries, expected {chart.k}")
    return CarriedDiffeo(chart=chart, y0=y)


def _require_fixed_point(spec: FoliationSpec, word: FlowWord, x_fix: Sequence):
    # exact input is checked exactly; float input up to a 1e-12 residual
    exact = all(isinstance(c, (int, Fraction)) for c in x_fix)
    pt = as_point(x_fix, spec.nvars) if exact else tuple(float(v) for v in x_fix)
    values = [g(pt) for g in spec.generators]
    for step in word.steps:
        combined = [0] * spec.nvars
        for c, val in zip(step.coeffs, values):
            for j in range(spec.nvars):
                combined[j] += c * val[j]
        if any(combined) if exact else max(map(abs, combined), default=0.0) >= 1e-12:
            raise NotFixedPointError("point is not a fixed point of every step's combined field")


def holonomy_jet(
    spec: FoliationSpec,
    word: FlowWord,
    x_fix: Sequence,
    opts: NumericOptions = DEFAULT_OPTIONS,
) -> JetMatrix:
    """Linearization at a fixed point of the word's diffeomorphism.

    The point must be fixed by every step's combined field: checked
    symbolically for rational coordinates, numerically (norm < 1e-12)
    otherwise.  The result is the product of the step linearizations in
    action order, obtained by integrating the first-variation system
    along the stationary trajectory.
    """
    import numpy as np

    _require_fixed_point(spec, word, x_fix)
    _, rows = flow_jet(spec, word, x_fix, opts)
    return np.array(rows, dtype=float)


def jet_exact_linear(spec: FoliationSpec, word: FlowWord) -> JetMatrix:
    """Jet at the origin for linear generators: product over steps of
    exp(t * sum_i c_i A_i), exact in method (matrix exponentials).
    """
    import numpy as np

    if word.spec != spec:
        raise ArityError("word was built over a different spec")
    mats = linear_generator_matrices(spec)
    n = spec.nvars
    acc = np.eye(n)
    for step in word.steps:
        m = np.zeros((n, n))
        for c, a in zip(step.coeffs, mats):
            if c:
                m += float(c) * a
        acc = matrix_exp(step.duration * m) @ acc
    return acc


def germ_equal_at_fixed_point(
    spec: FoliationSpec,
    w1: FlowWord,
    w2: FlowWord,
    x_fix: Sequence,
    tol: float = 1e-6,
) -> bool:
    """Whether two words define the same germ at the origin of a linear family.

    True iff the exact jets agree entrywise within ``tol``.  Jet equality
    certifies germ equality only for linear families at 0, so any other
    input is rejected rather than answered.  A jet that overflows raises
    BlowUpError (at the word's total duration) instead of comparing unequal.
    """
    import numpy as np

    if any(c != 0 for c in x_fix):
        raise PreconditionError("germ comparison is only offered at the origin")
    with np.errstate(all="ignore"):
        j1 = jet_exact_linear(spec, w1)
        j2 = jet_exact_linear(spec, w2)
        for w, j in ((w1, j1), (w2, j2)):
            if not np.isfinite(j).all():
                raise BlowUpError("exact jet is not finite", sum(step.duration for step in w.steps))
        return bool(np.abs(j1 - j2).max() < tol)


@dataclass(frozen=True)
class PushforwardReport:
    residuals: tuple[float, ...]
    threshold: float
    ok: bool


def check_pushforward_linear(
    spec: FoliationSpec, coeffs: Sequence, time: float, threshold: float = 1e-8
) -> PushforwardReport:
    """Check that conjugation by g = exp(t * sum c_i A_i) preserves the span
    of the generator matrices: least-squares residual of g A_j g^-1 against
    span{A_1..A_k}, one residual per generator.
    """
    import numpy as np

    mats = linear_generator_matrices(spec)
    if len(coeffs) != spec.k:
        raise ArityError(f"{len(coeffs)} coefficients for {spec.k} generators")
    n = spec.nvars
    m = np.zeros((n, n))
    for c, a in zip(coeffs, mats):
        m += float(c) * a
    g = matrix_exp(time * m)
    g_inv = matrix_exp(-time * m)
    basis = np.stack([a.flatten() for a in mats], axis=1)
    residuals = []
    with np.errstate(all="ignore"):  # non-finite residuals are reported by the caller
        for a in mats:
            b = (g @ a @ g_inv).flatten()
            sol, *_ = np.linalg.lstsq(basis, b, rcond=None)
            residuals.append(float(np.linalg.norm(basis @ sol - b)))
    return PushforwardReport(
        residuals=tuple(residuals),
        threshold=threshold,
        ok=all(r < threshold for r in residuals),
    )
