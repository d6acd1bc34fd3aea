"""Exact polynomial vector fields over the rationals.

Provides multivariate polynomials with arbitrary-precision rational
coefficients (:class:`Poly`), vector fields as tuples of coefficient
polynomials (:class:`VectorField`), finitely generated families of such
fields (:class:`FoliationSpec`), the Lie bracket, and a small textual
language for writing fields down.

Grammar (whitespace-insensitive)::

    expr := ['+'|'-'] term (('+'|'-') term)*
    term := poly '*' 'd'var | 'd'var
    poly := sums / products / powers of integer or rational literals
            ('p/q') and variables, '^' for exponents, parentheses nested
            at most 100 deep

Example: ``(x^2 - 1/2*y)*dx + 3*dy``.

All values in this module are immutable: ``Poly``, ``VectorField`` and
``FoliationSpec`` (and ``flow.FlowWord``) derive from ``_Frozen``.  A
value is its ``_init`` slots: it is compared, hashed and pickled by them,
and hashed on first use.  The base refuses setting and deleting
attributes and copies a value as itself.  No floating point enters the
symbolic layer.  Terms are kept in graded-reverse-lexicographic order so
equal polynomials have identical representations (and identical hashes).
The public ``Poly(nvars, terms)`` validates and sorts its input; the
arithmetic builds results that are canonical by construction (sums as one
merge of two sorted term tuples, monomial multiples and derivatives in the
order they already have) and wraps them through a trusted internal
constructor.

Coefficients are exact rationals at the API; the inner loops of
multiplication run on integer term dicts ``{exponents: nonzero int}``:
``_product_terms`` is their one product and ``_int_power`` (e products one
by one; binary powering was measured slower on dense bases) their one
power, for ``Poly`` and the parser alike.  Each drops the zero terms it
forms, so nothing downstream filters again.  ``Poly`` scales a factor of
two or more terms to integers over the lcm of its denominators and makes
one Fraction per result term before one grevlex sort; a one-term operand
(a constant, a monomial) is ``_times``, unchecked, which keeps the term
order, and ``mul_term`` checks its term and then calls it.  The parser's
values are integer term dicts over one common denominator, and each
component of a parsed field becomes a Poly once, at the end.

``_sum_lines`` is the one emitter of polynomial source code: the RK4
kernels in ``flow`` and the integer row evaluators in ``modalg`` both
write their sums with it, each term the product of its ``term_factors``.
CPython's compiler recurses once per operand of an operator chain and
gives up near 3,000, so a product or sum of more than ``_MAX_CHAIN``
operands is written as prefix temporaries (``t = a*b*..``, then
``t*c*..``): the same operations in the same order, so the same rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add, attrgetter
from typing import Iterable, Sequence

from .errors import ArityError, BudgetError, ParseError, UnknownVariableError, _charge

__all__ = [
    "Poly",
    "VectorField",
    "FoliationSpec",
    "parse_vector_field",
    "differentiate",
    "lie_bracket",
    "format_poly",
    "format_vector_field",
    "grevlex_key",
]


def grevlex_key(expt: tuple[int, ...]) -> tuple:
    """Sort key: bigger key = bigger monomial under grevlex."""
    return (sum(expt), tuple(-e for e in reversed(expt)))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational coefficient, got {type(value).__name__}")


def _check_expt(expt: tuple, nvars: int) -> None:
    if len(expt) != nvars:
        raise ArityError(f"exponent vector {expt} has length {len(expt)}, expected {nvars}")
    if any(e < 0 or not isinstance(e, int) for e in expt):
        raise ArityError(f"exponents must be nonnegative integers, got {expt}")


def _add_terms(a: tuple, b: tuple) -> tuple:
    """Canonical terms of the sum of two canonical term tuples: one merge.

    Of two distinct monomials the one of higher degree is bigger; between
    equal degrees, the one with the smaller exponent in the last variable
    where they differ.
    """
    if not a:
        return b
    if not b:
        return a
    out = []
    append = out.append
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ea, ca = a[i]
        eb, cb = b[j]
        if ea == eb:
            c = ca + cb
            if c:
                append((ea, c))
            i += 1
            j += 1
        else:
            da, db = sum(ea), sum(eb)
            if da > db or (da == db and ea[::-1] < eb[::-1]):
                append(a[i])
                i += 1
            else:
                append(b[j])
                j += 1
    return tuple(out) + a[i:] + b[j:]


def _neg_terms(terms: tuple) -> tuple:
    return tuple((e, -c) for e, c in terms)


def _over_lcm(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(X, D) with D the lcm of the denominators of ``values`` and X = D*values."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _int_terms(terms: tuple) -> tuple[dict, int]:
    """(integer term dict, D): ``terms`` times D, the lcm of their denominators."""
    ints, d = _over_lcm([c for _, c in terms])
    return {e: c for (e, _), c in zip(terms, ints)}, d


def _scaled_terms(terms: dict, f: int) -> dict:
    return terms if f == 1 else {e: c * f for e, c in terms.items()}


def _product_terms(a: dict, b: dict) -> dict:
    """The nonzero terms of the product of two integer term dicts; by one
    term, a scale or shift that keeps every term."""
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        [(mon, f)] = b.items()
        if any(mon):
            return {tuple(map(add, e, mon)): c * f for e, c in a.items()}
        return _scaled_terms(a, f)
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    b = list(b.items())
    for ea, ca in a.items():
        for eb, cb in b:
            key = tuple(map(add, ea, eb))
            acc[key] = get(key, 0) + ca * cb
    return {e: c for e, c in acc.items() if c}


def _int_power(terms: dict, exponent: int) -> dict:
    """The nonzero terms of the power ``exponent`` >= 1 of the integer term
    dict ``terms``: its products one by one, or one term for a power of at
    most one term.

    The products run on packed monomials: x^e is the int sum of e[m] shifted
    by m fields of ``width`` bits, wide enough for any exponent of the power,
    so that multiplying two monomials adds their ints."""
    if len(terms) <= 1:
        return {tuple(x * exponent for x in e): c**exponent for e, c in terms.items()}
    width = (exponent * max(map(max, terms))).bit_length()
    base = [(sum(x << width * m for m, x in enumerate(e)), c) for e, c in terms.items()]
    acc = dict(base)
    for _ in range(exponent - 1):
        out: dict[int, int] = {}
        get = out.get
        for ka, ca in acc.items():
            for kb, cb in base:
                out[ka + kb] = get(ka + kb, 0) + ca * cb
        acc = out
    mask, n = (1 << width) - 1, len(next(iter(terms)))
    return {tuple(k >> width * m & mask for m in range(n)): c for k, c in acc.items() if c}


def _from_int_terms(nvars: int, acc: dict, d: int) -> "Poly":
    """The Poly of the nonzero integer terms ``acc`` over the denominator
    ``d``: one Fraction per term, one sort."""
    terms = sorted(
        ((e, Fraction(c, d)) for e, c in acc.items()),
        key=lambda t: grevlex_key(t[0]),
        reverse=True,
    )
    return Poly._canonical(nvars, tuple(terms))


def term_factors(expt: tuple[int, ...], coeff: str, names: Sequence[str]) -> list[str]:
    """Source operands of the term ``coeff * x^expt``: the coefficient source,
    then each variable of ``names`` written out once per power."""
    factors = [coeff]
    for name, e in zip(names, expt):
        factors.extend([name] * e)
    return factors


# the most operands of one emitted operator chain (see the module docstring)
_MAX_CHAIN = 400


def _chain(name: str, operands: list[str], op: str) -> list[str]:
    """Lines binding ``name`` to ``operands`` joined by ``op``, left to right,
    through prefix temporaries ``name__0``, .. when there are more than
    ``_MAX_CHAIN``."""
    lines: list[str] = []
    while len(operands) > _MAX_CHAIN:
        lines.append(f"{name}__{len(lines)} = {op.join(operands[:_MAX_CHAIN])}")
        operands = [f"{name}__{len(lines) - 1}"] + operands[_MAX_CHAIN:]
    return lines + [f"{name} = {op.join(operands)}"]


def _sum_lines(name: str, terms, names: Sequence[str], zero: str) -> list[str]:
    """Lines binding ``name`` to the sum of ``terms``, pairs ``(exponents,
    coefficient source)``, at the variables ``names``; the empty sum is the
    literal ``zero`` of the caller's number type (``0.0`` keeps float code
    on floats, whose arithmetic is faster than an int's with a float).  A
    term with too many factors is bound first, as ``name_t<i>``."""
    lines: list[str] = []
    parts = []
    for i, (expt, c) in enumerate(terms):
        factors = term_factors(expt, c, names)
        if len(factors) > _MAX_CHAIN:
            lines += _chain(f"{name}_t{i}", factors, "*")
            factors = [f"{name}_t{i}"]
        parts.append("*".join(factors))
    return lines + _chain(name, parts or [zero], " + ")


class _Frozen:
    """Base of the immutable value types.  A value is its ``_init`` slots,
    the arguments its constructor is called with: it is compared, hashed
    and pickled by them, and hashed on first use, into ``_hash``.  Equality
    holds only between values of one type.

    Setting or deleting an attribute raises AttributeError; constructors
    write their slots with ``object.__setattr__``.  The values are deeply
    immutable, so a copy, shallow or deep, is the object itself.
    Unpickling calls the constructor with the ``_init`` slots instead of
    restoring every slot: a cached hash can hash strings, which hash
    differently in each process.
    """

    __slots__ = ("_hash",)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __init_subclass__(cls, **kwargs):
        # _args(value), one per class: the tuple of the value's _init slots
        # (attrgetter of one name gives the slot itself, not a 1-tuple)
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._init)
        cls._args = staticmethod(get if len(cls._init) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._args(self) == self._args(other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._args(self)))
            return self._hash

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__

    def __reduce__(self):
        return type(self), self._args(self)


class Poly(_Frozen):
    """A multivariate polynomial over Q in ``nvars`` variables.

    ``terms`` is a tuple of ``(exponent_tuple, Fraction)`` pairs with no
    zero coefficients, sorted descending in grevlex order.

    The public constructor validates: it checks arity and exponents, merges
    duplicate monomials, drops zeros and sorts.  Arithmetic on Polys builds
    its result through the trusted :meth:`_canonical`, which stores an
    already canonical ``terms`` tuple as given.  An int or Fraction equals
    the constant polynomial of its value.
    """

    __slots__ = ("nvars", "terms")
    _init = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Iterable[tuple[tuple[int, ...], Fraction]] = ()):
        if nvars < 1:
            raise ArityError("nvars must be positive")
        acc: dict[tuple[int, ...], Fraction] = {}
        for expt, coeff in terms:
            expt = tuple(expt)
            _check_expt(expt, nvars)
            c = acc.get(expt, Fraction(0)) + _as_fraction(coeff)
            if c:
                acc[expt] = c
            elif expt in acc:
                del acc[expt]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(
            self, "terms", tuple(sorted(acc.items(), key=lambda t: grevlex_key(t[0]), reverse=True))
        )

    @classmethod
    def _canonical(cls, nvars: int, terms: tuple) -> "Poly":
        """Wrap ``terms`` unchecked: distinct exponent tuples of length
        ``nvars``, nonzero Fractions, grevlex descending."""
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors ------------------------------------------------------

    # these check their arguments and build through _canonical

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        if nvars < 1:
            raise ArityError("nvars must be positive")
        return cls._canonical(nvars, ())

    @classmethod
    def constant(cls, value, nvars: int) -> "Poly":
        c = _as_fraction(value)
        zero = cls.zero(nvars)  # checks nvars
        return cls._canonical(nvars, (((0,) * nvars, c),)) if c else zero

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Poly":
        if not 0 <= index < nvars:
            raise ArityError(f"variable index {index} out of range for {nvars} variables")
        expt = tuple(1 if i == index else 0 for i in range(nvars))
        return cls._canonical(nvars, ((expt, Fraction(1)),))

    @classmethod
    def term(cls, nvars: int, expt: tuple[int, ...], coeff) -> "Poly":
        return cls(nvars, ((expt, coeff),))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e, _ in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms[0][1]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return max(sum(e) for e, _ in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ArityError("polynomials have different numbers of variables")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(other, self.nvars)
        return None

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return Poly._canonical(self.nvars, _add_terms(self.terms, p.terms))

    __radd__ = __add__

    def __neg__(self):
        return Poly._canonical(self.nvars, _neg_terms(self.terms))

    def __sub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return Poly._canonical(self.nvars, _add_terms(self.terms, _neg_terms(p.terms)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        if len(p.terms) == 1:
            return self._times(*p.terms[0])
        if len(self.terms) == 1:
            return p._times(*self.terms[0])
        a, da = _int_terms(self.terms)
        b, db = _int_terms(p.terms)
        return _from_int_terms(self.nvars, _product_terms(a, b), da * db)

    __rmul__ = __mul__

    def mul_term(self, expt: tuple[int, ...], coeff) -> "Poly":
        """Multiply by a single term coeff * x^expt."""
        c = _as_fraction(coeff)
        if not c:
            return Poly.zero(self.nvars)
        _check_expt(expt, self.nvars)
        return self._times(expt, c)

    def _times(self, expt: tuple[int, ...], c: Fraction) -> "Poly":
        """Multiply by the term c * x^expt, unchecked: a nonzero Fraction c
        and ``nvars`` nonnegative int exponents, as in a canonical term."""
        one = c == 1  # a bare monomial leaves the coefficients as they are
        # multiplying by a monomial keeps the term order
        return Poly._canonical(
            self.nvars,
            tuple((tuple(map(add, e, expt)), q if one else q * c) for e, q in self.terms),
        )

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if exponent == 0:
            return Poly.constant(1, self.nvars)
        base, d = _int_terms(self.terms)
        return _from_int_terms(self.nvars, _int_power(base, exponent), d**exponent)

    def differentiate(self, var_index: int) -> "Poly":
        """Exact formal partial derivative with respect to variable ``var_index``."""
        if not 0 <= var_index < self.nvars:
            raise ArityError(f"variable index {var_index} out of range for {self.nvars} variables")
        out = []
        for expt, coeff in self.terms:
            e = expt[var_index]
            if e:
                new = list(expt)
                new[var_index] = e - 1
                out.append((tuple(new), coeff * e))
        # dividing the surviving monomials by x_i keeps their order
        return Poly._canonical(self.nvars, tuple(out))

    def __call__(self, point: Sequence):
        """Evaluate at a point; exact over rationals, float if coords are floats."""
        if len(point) != self.nvars:
            raise ArityError(f"point has {len(point)} coordinates, expected {self.nvars}")
        total = Fraction(0)
        for expt, coeff in self.terms:
            v = coeff
            for x, e in zip(point, expt):
                if e:
                    v = v * x**e
            total = total + v
        return total

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self.nvars)
        return super().__eq__(other)

    __hash__ = _Frozen.__hash__  # a class that defines __eq__ alone is unhashable

    def __repr__(self):
        names = tuple(f"x{i}" for i in range(self.nvars))
        return f"Poly<{format_poly(self, names)}>"


class VectorField(_Frozen):
    """A polynomial vector field: component ``i`` multiplies d/dx_i."""

    __slots__ = ("components",)
    _init = ("components",)

    def __init__(self, components: Sequence[Poly]):
        components = tuple(components)
        if not components:
            raise ArityError("a vector field needs at least one component")
        n = components[0].nvars
        for p in components:
            if not isinstance(p, Poly):
                raise TypeError("components must be Poly instances")
            if p.nvars != n:
                raise ArityError("all components must share the same number of variables")
        if len(components) != n:
            raise ArityError(f"{len(components)} components for {n} variables")
        object.__setattr__(self, "components", components)

    @classmethod
    def zero(cls, nvars: int) -> "VectorField":
        return cls(tuple(Poly.zero(nvars) for _ in range(nvars)))

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.components)

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ArityError("vector fields have different numbers of variables")
        return VectorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return VectorField(tuple(-p for p in self.components))

    def scale(self, factor) -> "VectorField":
        """Multiply every component by a Poly or exact rational."""
        if not isinstance(factor, Poly):
            factor = Poly.constant(factor, self.nvars)
        return VectorField(tuple(factor * p for p in self.components))

    def apply_to(self, f: Poly) -> Poly:
        """Directional derivative X(f) = sum_i X_i * df/dx_i."""
        if f.nvars != self.nvars:
            raise ArityError("function and field have different numbers of variables")
        out = Poly.zero(self.nvars)
        for i, comp in enumerate(self.components):
            out = out + comp * f.differentiate(i)
        return out

    def __call__(self, point: Sequence) -> tuple:
        return tuple(p(point) for p in self.components)

    def __repr__(self):
        names = tuple(f"x{i}" for i in range(self.nvars))
        return f"VectorField<{format_vector_field(self, names)}>"


class FoliationSpec(_Frozen):
    """An ordered, finitely generated family of polynomial vector fields.

    The module generated by ``generators`` over the polynomial ring in
    ``var_names`` is the object all other operations work with.  An empty
    generator list is legal and denotes the zero module.
    """

    __slots__ = ("nvars", "var_names", "generators")
    _init = ("var_names", "generators")

    def __init__(self, var_names: Sequence[str], generators: Sequence[VectorField] = ()):
        var_names = tuple(var_names)
        if not var_names:
            raise ArityError("at least one variable is required")
        if len(set(var_names)) != len(var_names):
            raise ParseError("variable names must be distinct")
        for name in var_names:
            if not name.isidentifier():
                raise ParseError(f"invalid variable name '{name}'")
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, VectorField):
                raise TypeError("generators must be VectorField instances")
            if g.nvars != len(var_names):
                raise ArityError(
                    f"generator has {g.nvars} components, expected {len(var_names)}"
                )
        object.__setattr__(self, "nvars", len(var_names))
        object.__setattr__(self, "var_names", var_names)
        object.__setattr__(self, "generators", generators)

    @property
    def k(self) -> int:
        """Number of generators."""
        return len(self.generators)

    def __repr__(self):
        gens = "; ".join(format_vector_field(g, self.var_names) for g in self.generators)
        return f"FoliationSpec(vars={' '.join(self.var_names)}; {gens or '0'})"


def differentiate(p: Poly, var_index: int) -> Poly:
    """Exact formal partial derivative of ``p`` with respect to variable ``var_index``."""
    return p.differentiate(var_index)


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket [X,Y]^i = X(Y^i) - Y(X^i), exact over Q."""
    if x.nvars != y.nvars:
        raise ArityError("vector fields have different numbers of variables")
    return VectorField(
        tuple(x.apply_to(b) - y.apply_to(a) for a, b in zip(x.components, y.components))
    )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_OPERATORS = set("+-*/^()")
# the deepest nesting of parentheses a field may have: the parser recurses
# once per level, and deeper text would exhaust the interpreter's stack
_MAX_DEPTH = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in _OPERATORS:
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", column=i + 1)
    tokens.append(("end", "", n))
    return tokens


def _int_literal(tok: tuple[str, str, int]) -> int:
    try:
        return int(tok[1])
    except ValueError:  # longer than the interpreter converts (sys.get_int_max_str_digits)
        raise ParseError(
            f"integer literal of {len(tok[1])} digits is too long", column=tok[2] + 1
        ) from None


# caps on a parsed power p^e, checked before it is expanded: ``_int_power``
# multiplies by p e times, so its work grows with e, with the terms of p and
# with the terms of the powers in between.  _MAX_POWER_PRODUCTS caps the
# term-by-term products of all the powers and ``*`` of one parse together,
# counted as they come, a power by its bound, and a product by the nonzero
# terms of its two sides.  A power repeated in one parse (equal integer
# terms, whatever the denominator) is expanded once, in the parser's memo,
# and counted at every occurrence.
_MAX_EXPONENT = 1_000
_MAX_POWER_PRODUCTS = 250_000


def _power_products(terms: dict, exponent: int) -> int:
    """Upper bound on the term-by-term products the power ``exponent`` of
    the polynomial of the integer ``terms`` forms.

    No power p^i with i <= exponent has more terms than the multisets of
    ``exponent`` terms of p, nor more than the monomials of degree at most
    ``exponent * deg p`` in the variables p uses.
    """
    t = len(terms)
    if not t:
        return 0
    used = sum(any(e) for e in zip(*terms))
    most = min(comb(t + exponent - 1, exponent), comb(used + exponent * max(map(sum, terms)), used))
    return exponent * t * most


def _sum_terms(a: dict, b: dict) -> dict:
    """The nonzero terms of the sum of two integer term dicts."""
    out = dict(a)
    for e, c in b.items():
        c += out.get(e, 0)
        if c:
            out[e] = c
        else:
            del out[e]
    return out


class _Val:
    """Intermediate parse value: (p + sum_i d[i]*dx_i) / den, for integer
    term dicts p and d[i] ({exponents: nonzero int}) and an int den > 0.

    ``d`` maps a variable index i to the polynomial coefficient of dx_i.
    """

    __slots__ = ("p", "d", "den")

    def __init__(self, p: dict, d: dict[int, dict] | None = None, den: int = 1):
        self.p = p
        self.d = d or {}
        self.den = den

    def size(self) -> int:
        """Terms of the scalar and the differential parts together."""
        return len(self.p) + sum(map(len, self.d.values()))


class _Parser:
    def __init__(self, text: str, var_names: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = len(var_names)
        self.var_index = {name: i for i, name in enumerate(var_names)}
        self.products = 0  # term-by-term products of every power and '*' so far
        self.powers: dict[tuple[frozenset, int], dict] = {}  # each distinct power, expanded once
        self.depth = 0  # parentheses open at the current token
        self.origin = (0,) * self.nvars  # the exponents of a constant

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r} but found {tok[1] or 'end of input'!r}", column=tok[2] + 1
            )
        return tok

    # value algebra -------------------------------------------------------

    def _neg(self, v: _Val) -> _Val:
        return _Val(_scaled_terms(v.p, -1), {i: _scaled_terms(q, -1) for i, q in v.d.items()}, v.den)

    def _add(self, a: _Val, b: _Val) -> _Val:
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        d = {i: _scaled_terms(q, fa) for i, q in a.d.items()}
        for i, q in b.d.items():
            d[i] = _sum_terms(d[i], _scaled_terms(q, fb)) if i in d else _scaled_terms(q, fb)
        return _Val(_sum_terms(_scaled_terms(a.p, fa), _scaled_terms(b.p, fb)), d, den)

    def _mul(self, a: _Val, b: _Val, op_col: int) -> _Val:
        if a.d and b.d:
            raise ParseError("product of two differentials is not a vector field", column=op_col)
        self.products = _charge(
            self.products + a.size() * b.size(),
            _MAX_POWER_PRODUCTS,
            "products need {count} term products, more than {limit}",
            column=op_col,
        )
        if b.d:
            a, b = b, a
        # now b is purely scalar
        d = {i: _product_terms(q, b.p) for i, q in a.d.items()}
        return _Val(_product_terms(a.p, b.p), d, a.den * b.den)

    def _div(self, a: _Val, b: _Val, op_col: int) -> _Val:
        if b.d:
            raise ParseError("cannot divide by a differential", column=op_col)
        if any(map(any, b.p)):
            raise ParseError("division only by nonzero rational constants", column=op_col)
        c = b.p.get(self.origin, 0)
        if not c:
            raise ParseError("division by zero", column=op_col)
        # (a / a.den) / (c / b.den), with a positive denominator
        f = b.den if c > 0 else -b.den
        return _Val(_scaled_terms(a.p, f), {i: _scaled_terms(q, f) for i, q in a.d.items()}, a.den * abs(c))

    def _pow(self, a: _Val, exponent: int, op_col: int) -> _Val:
        if a.d:
            if exponent == 1:
                return a
            raise ParseError("cannot raise a differential to a power", column=op_col)
        _charge(exponent, _MAX_EXPONENT, "exponent {count} exceeds the cap {limit}", column=op_col)
        products = _power_products(a.p, exponent)
        self.products = _charge(
            self.products + products,
            _MAX_POWER_PRODUCTS,
            f"power ^{exponent} of a {len(a.p)}-term polynomial needs up to {products} term products"
            + (", {count} in all" if self.products else "") + ", more than {limit}",
            column=op_col,
        )
        if exponent == 0:
            return _Val({self.origin: 1})
        # charged above at every occurrence, so the budget does not depend on the memo
        key = (frozenset(a.p.items()), exponent)
        if key not in self.powers:
            self.powers[key] = _int_power(a.p, exponent)
        return _Val(self.powers[key], None, a.den**exponent)

    # grammar -------------------------------------------------------------

    def parse_atom(self) -> _Val:
        tok = self.take()
        kind, text, pos = tok
        if kind == "int":
            c = _int_literal(tok)
            return _Val({self.origin: c} if c else {})
        if kind == "name":
            if text in self.var_index:
                i = self.var_index[text]
                return _Val({self.origin[:i] + (1,) + self.origin[i + 1 :]: 1})
            if len(text) > 1 and text[0] == "d" and text[1:] in self.var_index:
                return _Val({}, {self.var_index[text[1:]]: {self.origin: 1}})
            raise UnknownVariableError(text, column=pos + 1)
        if kind == "(":
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {_MAX_DEPTH}", column=pos + 1)
            val = self.parse_sum()
            self.expect(")")
            self.depth -= 1
            return val
        raise ParseError(f"unexpected token {text or 'end of input'!r}", column=pos + 1)

    def parse_power(self) -> _Val:
        base = self.parse_atom()
        if self.peek()[0] == "^":
            _, _, op_pos = self.take()
            tok = self.expect("int")
            base = self._pow(base, _int_literal(tok), op_pos + 1)
        return base

    def parse_product(self) -> _Val:
        val = self.parse_power()
        while self.peek()[0] in ("*", "/"):
            op, _, op_pos = self.take()
            rhs = self.parse_power()
            if op == "*":
                val = self._mul(val, rhs, op_pos + 1)
            else:
                val = self._div(val, rhs, op_pos + 1)
        return val

    def parse_sum(self, top: bool = False) -> _Val:
        """Signed terms joined by '+' and '-'; at the ``top`` of a field, differentials."""
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        val = None
        while True:
            kind, _, pos = self.peek()
            if top and kind == "end":
                raise ParseError(
                    "empty expression" if val is None else "trailing operator", column=pos + 1
                )
            term = self.parse_product()
            if top and not term.d:
                raise ParseError(
                    "term has no differential direction (expected '*d<var>')", column=pos + 1
                )
            if top and term.p:
                raise ParseError("term mixes scalar and differential parts", column=pos + 1)
            if sign < 0:
                term = self._neg(term)
            val = term if val is None else self._add(val, term)
            if self.peek()[0] not in ("+", "-"):
                return val
            sign = 1 if self.take()[0] == "+" else -1


def parse_vector_field(text: str, var_names: Sequence[str]) -> VectorField:
    """Parse ``text`` into the vector field it denotes over ``var_names``.

    Every top-level term must carry a differential direction (``dx``,
    ``3*dy``, ``(x^2-1)*dx`` ...).  Raises :class:`ParseError` with a
    1-based column on malformed input, :class:`UnknownVariableError` for
    undeclared identifiers.
    """
    parser = _Parser(text, var_names)
    val = parser.parse_sum(top=True)
    kind, tok, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {tok!r}", column=pos + 1)
    n = parser.nvars
    return VectorField(tuple(_from_int_terms(n, val.d.get(i, {}), val.den) for i in range(n)))


# ---------------------------------------------------------------------------
# Printing (canonical; parse(format(X)) == X exactly)
# ---------------------------------------------------------------------------


def _format_monomial(expt: tuple[int, ...], var_names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(var_names, expt):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: Poly, var_names: Sequence[str]) -> str:
    """Canonical text form of a polynomial (terms in grevlex-descending order);
    a coefficient longer than ``str()`` writes is a BudgetError."""
    if p.is_zero:
        return "0"
    out = []
    try:
        for expt, coeff in p.terms:
            mono = _format_monomial(expt, var_names)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not out:
                out.append(body if coeff > 0 else f"-{body}")
            else:
                out.append(f" + {body}" if coeff > 0 else f" - {body}")
    except ValueError:
        raise BudgetError("answer has a number too long to print") from None
    return "".join(out)


def format_vector_field(x: VectorField, var_names: Sequence[str]) -> str:
    """Canonical text form of a vector field; the zero field prints as ``0*d<var>``."""
    pieces = []
    for i, p in enumerate(x.components):
        if p.is_zero:
            continue
        body = format_poly(p, var_names)
        if len(p.terms) > 1:
            body = f"({body})*"
        elif body in ("1", "-1"):  # dx and -dx
            body = body[:-1]
        else:
            body += "*"
        pieces.append(f"{body}d{var_names[i]}")
    if not pieces:
        return f"0*d{var_names[0]}"
    out = pieces[0]
    for s in pieces[1:]:
        out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
    return out
