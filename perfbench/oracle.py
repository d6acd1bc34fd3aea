"""Reference arithmetic for the answer checks, independent of ``foliations``.

Nothing here imports the package under test.  Printed polynomials and
vector fields are evaluated at rational points with ``Fraction`` (or
with exact dual numbers when a derivative is needed), ranks and minors
come from Gaussian elimination over Q, and matrix exponentials from a
scaled Taylor series in floats.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")


class Dual:
    """a + b*eps with eps^2 = 0, over Q: carries one directional derivative."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = a, b

    @staticmethod
    def _lift(o):
        return o if isinstance(o, Dual) else Dual(o)

    def __add__(self, o):
        o = self._lift(o)
        return Dual(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __sub__(self, o):
        return self + (-self._lift(o))

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        return Dual(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, o):
        # only division by a constant occurs in the grammar (rational literals)
        return Dual(self.a / o, self.b / o)


def _tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        num, ident, op = m.groups()
        pos = m.end()
        if num is not None:
            out.append(("num", num))
        elif ident is not None:
            out.append(("id", ident))
        elif op.strip():
            out.append((op, op))
    out.append(("end", ""))
    return out


class Expr:
    """A parsed polynomial or vector-field expression over ``var_names``.

    Grammar: sums of products of powers of integers, variables, ``d<var>``
    symbols and parenthesised sub-expressions; ``/`` divides by a constant.
    ``value(point)`` returns the scalar; ``field(point)`` the components of
    the ``d<var>`` part.
    """

    def __init__(self, text: str, var_names):
        self.var_names = tuple(var_names)
        self._toks = _tokenize(text)
        self._i = 0
        self.tree = self._sum()
        if self._toks[self._i][0] != "end":
            raise ValueError(f"trailing input in {text!r}")
        del self._toks

    # -- parsing -------------------------------------------------------------
    def _peek(self):
        return self._toks[self._i][0]

    def _take(self):
        tok = self._toks[self._i]
        self._i += 1
        return tok

    def _sum(self):
        sign = 1
        while self._peek() in ("+", "-"):
            if self._take()[0] == "-":
                sign = -sign
        node = self._product()
        if sign < 0:
            node = ("neg", node)
        while self._peek() in ("+", "-"):
            op = self._take()[0]
            rhs = self._product()
            node = ("add", node, rhs) if op == "+" else ("sub", node, rhs)
        return node

    def _product(self):
        node = self._power()
        while self._peek() in ("*", "/"):
            op = self._take()[0]
            rhs = self._power()
            node = ("mul", node, rhs) if op == "*" else ("div", node, rhs)
        return node

    def _power(self):
        node = self._atom()
        if self._peek() == "^":
            self._take()
            kind, text = self._take()
            if kind != "num":
                raise ValueError("exponent must be an integer literal")
            node = ("pow", node, int(text))
        return node

    def _atom(self):
        kind, text = self._take()
        if kind == "num":
            return ("const", Fraction(int(text)))
        if kind == "id":
            if text in self.var_names:
                return ("var", self.var_names.index(text))
            if text.startswith("d") and text[1:] in self.var_names:
                return ("dvar", self.var_names.index(text[1:]))
            raise ValueError(f"unknown identifier {text!r}")
        if kind == "(":
            node = self._sum()
            if self._take()[0] != ")":
                raise ValueError("missing ')'")
            return node
        if kind in ("+", "-"):
            inner = self._atom()
            return inner if kind == "+" else ("neg", inner)
        raise ValueError(f"unexpected token {text!r}")

    # -- evaluation ----------------------------------------------------------
    # A value is (scalar, vector-or-None); vectors hold the d<var> coefficients.
    def _eval(self, node, point):
        tag = node[0]
        if tag == "const":
            return node[1], None
        if tag == "var":
            return point[node[1]], None
        if tag == "dvar":
            n = len(self.var_names)
            return 0, tuple(1 if j == node[1] else 0 for j in range(n))
        if tag == "neg":
            s, v = self._eval(node[1], point)
            return -s, None if v is None else tuple(-c for c in v)
        if tag in ("add", "sub"):
            s1, v1 = self._eval(node[1], point)
            s2, v2 = self._eval(node[2], point)
            if tag == "sub":
                s2, v2 = -s2, None if v2 is None else tuple(-c for c in v2)
            if v1 is None and v2 is None:
                return s1 + s2, None
            n = len(self.var_names)
            v1 = v1 or (0,) * n
            v2 = v2 or (0,) * n
            return s1 + s2, tuple(a + b for a, b in zip(v1, v2))
        if tag == "mul":
            s1, v1 = self._eval(node[1], point)
            s2, v2 = self._eval(node[2], point)
            if v1 is not None and v2 is not None:
                raise ValueError("product of two differentials")
            if v1 is None and v2 is None:
                return s1 * s2, None
            if v1 is None:
                return s1 * s2, tuple(s1 * c for c in v2)
            return s1 * s2, tuple(c * s2 for c in v1)
        if tag == "div":
            s1, v1 = self._eval(node[1], point)
            s2, v2 = self._eval(node[2], point)
            if v2 is not None or isinstance(s2, Dual) or s2 == 0:
                raise ValueError("division by a non-constant or zero")
            return s1 / s2, None if v1 is None else tuple(c / s2 for c in v1)
        if tag == "pow":
            s, v = self._eval(node[1], point)
            if v is not None:
                raise ValueError("power of a differential")
            out = 1
            for _ in range(node[2]):
                out = out * s
            return out, None
        raise AssertionError(tag)

    def value(self, point):
        s, v = self._eval(self.tree, point)
        if v is not None and any(c != 0 for c in v):
            raise ValueError("expected a polynomial, got a vector field")
        return s

    def field(self, point):
        s, v = self._eval(self.tree, point)
        if s != 0:
            raise ValueError("vector field has a scalar part")
        return v if v is not None else (0,) * len(self.var_names)


def field_value(components, point):
    """Values of a field given as per-component :class:`Expr` polynomials."""
    return tuple(c.value(point) for c in components)


def bracket_at(x_comps, y_comps, point):
    """[X, Y](p) = DY(p) X(p) - DX(p) Y(p), exact via dual numbers."""
    n = len(point)
    xp = field_value(x_comps, point)
    yp = field_value(y_comps, point)
    out = [Fraction(0)] * n
    for m in range(n):
        dual_pt = tuple(Dual(point[i], 1 if i == m else 0) for i in range(n))
        dy = [Dual._lift(c.value(dual_pt)).b for c in y_comps]
        dx = [Dual._lift(c.value(dual_pt)).b for c in x_comps]
        for j in range(n):
            out[j] += xp[m] * dy[j] - yp[m] * dx[j]
    return tuple(out)


def rank_q(rows) -> int:
    """Rank of a matrix of rationals (Gaussian elimination over Q)."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col] != 0:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def det_q(mat) -> Fraction:
    m = [list(r) for r in mat]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        pv = m[col][col]
        det *= pv
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def minors_at(matrix, size: int):
    """All size x size minors of ``matrix`` in row-, then column-combination order."""
    k, n = len(matrix), len(matrix[0])
    return [
        det_q([[matrix[r][c] for c in cols] for r in rows])
        for rows in combinations(range(k), size)
        for cols in combinations(range(n), size)
    ]


# -- float matrices ------------------------------------------------------------


def matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def matvec(a, x):
    return [sum(a[i][t] * x[t] for t in range(len(x))) for i in range(len(a))]


def identity(n):
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def expm(a):
    """exp(A): Taylor series of A/2^s (norm <= 1/2) to full precision, squared s times."""
    n = len(a)
    norm = max((sum(abs(v) for v in row) for row in a), default=0.0)
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    scaled = [[v / 2.0**s for v in row] for row in a]
    out = identity(n)
    term = identity(n)
    i = 0
    while max(abs(v) for row in term for v in row) > 1e-18:
        i += 1
        term = [[v / i for v in row] for row in matmul(term, scaled)]
        out = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(out, term)]
    for _ in range(s):
        out = matmul(out, out)
    return out


def expv(a, x):
    """exp(A) x by Taylor series on the vector, in substeps of norm <= 1/2."""
    norm = max((sum(abs(v) for v in row) for row in a), default=0.0)
    s = max(1, math.ceil(norm / 0.5))
    scaled = [[v / s for v in row] for row in a]
    x = [float(v) for v in x]
    for _ in range(s):
        out = list(x)
        term = x
        i = 0
        while max(abs(v) for v in term) > 1e-18 * (1.0 + max(abs(v) for v in out)):
            i += 1
            term = [v / i for v in matvec(scaled, term)]
            out = [p + q for p, q in zip(out, term)]
        x = out
    return x


def combined(mats, coeffs):
    """sum_i c_i A_i as a float matrix."""
    n = len(mats[0])
    return [[sum(float(c) * m[j][l] for c, m in zip(coeffs, mats)) for l in range(n)] for j in range(n)]


def word_matrix(mats, word):
    """Jet of a flow word of linear fields: product of exp(t M) in action order."""
    n = len(mats[0])
    acc = identity(n)
    for coeffs, t in word:
        m = combined(mats, coeffs)
        acc = matmul(expm([[float(t) * v for v in row] for row in m]), acc)
    return acc


def max_abs_diff(a, b) -> float:
    return max(abs(float(x) - float(y)) for x, y in zip(a, b))
