"""Module membership, involutivity and pointwise invariants.

Everything here is exact.  The generated submodule of the rank-n free
module over Q[x_1..x_n] is handled through a Buchberger-style Groebner
basis; relations among the generators (syzygies) come from a second
Groebner run in rank n+k under a block order that eliminates the value
components.

Inside the engine (``_groebner``, ``_reduce``, ``contains``) an element of
a free module is one tuple of ``(position, exponents, coefficient)``
terms in descending module order; outside it, a tuple of Polys, one per
position.  One integer ``split`` sets the order: a term in a position
below ``split`` comes first, then the bigger monomial in grevlex, then the
lower position.  ``split = 0`` is term-over-position (``module_groebner``,
``contains``), ``split = n`` the elimination block of ``syzygy_basis``.
The lead is the first term, and a monomial factor keeps the order, so a
reduction step and an S-pair are each one ``_merge`` of term tuples.
The pending S-pairs are one list, sorted by degree of lcm and then by index
whenever an element arrives, and taken lowest first.
S-pairs are pruned by two of the Gebauer-Moeller criteria
(Gebauer & Moeller 1988): when an element h arrives, B drops each pending
pair (i, l) of h's position whose lcm the lead of h divides, unless
lcm(i, h) or lcm(l, h) equals it, and F keeps only the first of the new
pairs (i, h) with equal lcms.  Buchberger's product criterion (coprime
leads) does not hold for modules and is absent.  So is the M criterion
(drop a new pair whose lcm another new pair's lcm properly divides): it
changes the order elements arrive in, so ``module_groebner``'s reprs and
the membership certificates built from them, and on a dense (2,4,2) spec
it let coefficients grow to thousands of digits.
Pointwise data at a rational point x:

* tangent dimension  = rank of the k x n matrix of generator values,
* fiber dimension    = k - rank of the evaluated syzygy generators
  (evaluation is a ring map, so the evaluated image of the relation
  module equals the span of the evaluated generators),
* isotropy dimension = fiber - tangent.

Both ranks are exact and use integers only.  A point x is given to them
as integers X and D > 0 with x = X/D, scaled by ``vfparse._over_lcm``
(the one scaler of rationals to integers): a pointwise function scales
its point by its own lcm.  ``fol dims --grid`` scales its whole grid once, to
the lcm of the denominators of its start and step, so there X/D need not
be in lowest terms.  Each spec's generator rows and syzygy rows are
compiled once into an evaluator of X and D that returns every row scaled
to integers (by the lcm of its coefficient denominators times D^deg), with
its source written by ``vfparse._sum_lines``, the emitter of the RK4
kernels in ``flow``.  A rank is one fraction-free (Bareiss) elimination,
which also gives its pivot rows and columns; the minimal local generators
are the unit rows that are pivots of one elimination of the evaluated
syzygy generators over the k unit rows.  Each evaluated row is a positive
multiple of the row at x, whether X/D is in lowest terms or not, and
scaling a row by a nonzero constant changes neither rank nor pivots.

Over many points (``fol dims --grid``) most points are regular, and there
one witness minor answers without elimination.  Let G be the k x n
generator matrix, r its generic rank and S the matrix of syzygy
generators.  S*G = 0, and S spans the relations over the fraction field,
so at every point rank G(p) <= r <= k - rank S(p).  At the first point p0
where elimination finds fiber = tangent, r is therefore tangent(p0).  The
pivot rows I and columns J of the elimination that ranked G(p0) give an
r x r minor m = det G[I, J] nonzero at p0; m is expanded once by cofactors
(under the same product cap as ``singular_locus``) and compiled like the
rows.  At a later point p with m(p) != 0, fiber = tangent = r:

* rank G(p) >= r, as m(p) != 0; every (r+1)-minor of G is the zero
  polynomial, so rank G(p) <= r;
* for each j not in I, Cramer's rule gives the relation m*X_j - sum_{i in
  I} c_ij*X_i, with polynomial cofactors c_ij.  These k - r relations are
  independent at p (m(p) sits alone in column j) and lie in the row span
  of S(p), so rank S(p) = k - r.

Points before p0 and points on m = 0 are eliminated as before.  With a
single point, k = 0, r = 0 or m over the product cap no witness is built.

Note: the coefficient ring is the polynomial ring, standing in for the
ring of smooth functions.  On the homogeneous examples shipped with the
test-suite the fiber dimensions agree with the smooth ones, but equality
of polynomial and smooth fiber data is not claimed in general.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ArityError, BudgetError, PreconditionError
from .vfparse import FoliationSpec, Poly, VectorField, _over_lcm, _sum_lines, grevlex_key, lie_bracket

__all__ = [
    "Budget",
    "DEFAULT_BUDGET",
    "ModuleGB",
    "SyzygyBasis",
    "MembershipResult",
    "InvolutivityReport",
    "BracketWitness",
    "SingularLocusReport",
    "module_groebner",
    "contains",
    "is_involutive",
    "syzygy_basis",
    "fiber_dim",
    "tangent_dim",
    "isotropy_dim",
    "singular_locus",
    "minimal_local_generators",
    "rank_exact",
    "as_point",
]

Element = tuple[Poly, ...]  # an element of a free module R^r


class Budget(NamedTuple):
    """Termination guard for basis computations.

    Exceeding either limit raises :class:`BudgetError`; results are never
    silently truncated.
    """

    max_pair_degree: int = 20
    max_reduction_steps: int = 1_000_000


DEFAULT_BUDGET = Budget()


class ModuleGB(NamedTuple):
    """Groebner basis of the submodule of R^n generated by the spec's fields.

    ``basis`` elements are monic and autoreduced, under the
    term-over-position order (grevlex; lower position wins ties).
    """

    source: FoliationSpec
    basis: tuple[Element, ...]
    reprs: tuple[Element, ...] = ()
    # reprs[j] expresses basis[j] as a combination of the original generators

    def __repr__(self):
        return f"ModuleGB(source={self.source!r}, basis={self.basis!r})"


class SyzygyBasis(NamedTuple):
    """Generating set of the relation module of the spec's generators.

    Every ``relations`` entry r satisfies sum_i r[i] * X_i = 0 exactly.
    """

    source: FoliationSpec
    relations: tuple[Element, ...]


class MembershipResult(NamedTuple):
    member: bool
    certificate: tuple[Poly, ...] | None  # coefficients f with sum f_i X_i = X

    def __bool__(self) -> bool:
        return self.member


class BracketWitness(NamedTuple):
    i: int  # 1-based generator indices
    j: int
    bracket: VectorField


class InvolutivityReport(NamedTuple):
    closed: bool
    witnesses: tuple[BracketWitness, ...]


class SingularLocusReport(NamedTuple):
    generic_rank: int
    minor_ideal: tuple[Poly, ...]


# the largest decimal exponent a rational string or Decimal may have: ``Fraction``
# writes out 10**exponent in full before anything else can bound the work
_MAX_DECIMAL_EXPONENT = 10_000


def _bounded_exponent(text: str) -> str:
    """``text``, once a decimal exponent in it is found to be at most
    ``_MAX_DECIMAL_EXPONENT`` in either direction (else PreconditionError)."""
    _, e, digits = text.lower().rpartition("e")
    digits = digits.strip().lstrip("+-").replace("_", "").lstrip("0")
    bound = _MAX_DECIMAL_EXPONENT
    if e and digits.isdecimal() and (len(digits) > len(str(bound)) or int(digits) > bound):
        raise PreconditionError(f"rational {text!r} has an exponent beyond {bound}")
    return text


def as_point(coords: Sequence, nvars: int) -> tuple[Fraction, ...]:
    """A library point as exact rationals, the one reader of a point: each
    coordinate an int, a Fraction, a finite float, a Decimal or a rational
    string such as ``"1/2"``.  A string or Decimal with a decimal exponent
    beyond ``_MAX_DECIMAL_EXPONENT`` raises PreconditionError before it is
    read, and so does anything else unreadable, ``"1/0"`` included; a point
    of the wrong length raises ArityError."""
    if any(isinstance(c, float) and not math.isfinite(c) for c in coords):
        raise PreconditionError("point coordinate is not finite")
    try:
        pt = tuple(Fraction(_bounded_exponent(str(c)) if isinstance(c, (str, Decimal)) else c) for c in coords)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError):
        raise PreconditionError("point coordinate is not a rational number") from None
    if len(pt) != nvars:
        raise ArityError(f"point has {len(pt)} coordinates, expected {nvars}")
    return pt


# ---------------------------------------------------------------------------
# Groebner engine on free-module elements
# ---------------------------------------------------------------------------


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _merge(a: tuple, b: tuple, split: int) -> tuple:
    """The sum of two elements, by one merge in the module order of
    ``split``; terms that cancel are dropped."""
    out = []
    append = out.append
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        (pa, ea, ca), (pb, eb, cb) = a[i], b[j]
        if ea == eb and pa == pb:
            c = ca + cb
            if c:
                append((pa, ea, c))
            i += 1
            j += 1
        # the order: the block below split, grevlex, the lower position
        elif (pa < split, sum(ea), eb[::-1], pb) > (pb < split, sum(eb), ea[::-1], pa):
            append(a[i])
            i += 1
        else:
            append(b[j])
            j += 1
    return tuple(out) + a[i:] + b[j:]


def _shift(terms: tuple, mon: tuple[int, ...], coeff: Fraction) -> tuple:
    """``terms`` times coeff*x^mon."""
    return tuple((p, tuple(map(add, e, mon)), c * coeff) for p, e, c in terms)


def _flat(elem: Element, split: int) -> tuple:
    """The element of a tuple of Polys, in the module order of ``split``."""
    out: tuple = ()
    for pos, p in enumerate(elem):
        out = _merge(out, tuple((pos, e, c) for e, c in p.terms), split)
    return out


# the input terms that the reduction merges of one Groebner run, or of one
# ``contains`` reduction, may take in all; one more is a BudgetError, raised
# before its merge
_MAX_MERGED_TERMS = 2_000_000


def _reduce(
    elem: tuple, basis: list[tuple], split: int, counter: list[int], budget: Budget, skip: int = -1
):
    """Full normal form of the element ``elem`` modulo the monic elements
    ``basis`` but ``basis[skip]``; returns (rem, quotients).

    ``counter`` holds the reduction steps and the merged input terms of the
    run so far; a step past ``budget.max_reduction_steps``, or a merge past
    ``_MAX_MERGED_TERMS`` terms, raises BudgetError.

    ``quotients`` is a list of Polys aligned with ``basis``, and
    elem = sum quotients[b] * basis[b] + rem.  Each step takes the lead of
    ``work``: with no reducer it moves to ``rem``; else the two leads cancel,
    and the reducer's tail times the quotient term is subtracted from the
    rest in one merge.  So the leads of ``work`` strictly decrease: the
    terms of ``rem`` arrive in module order, and those of each quotient in
    grevlex order, since a reducer always acts at the position of its lead.
    """
    work = elem
    rem = []
    quots: list[list] = [[] for _ in basis]
    while work:
        pos, mon, coeff = work[0]
        reducer = -1
        for bi, g in enumerate(basis):
            if bi != skip and g[0][0] == pos and _divides(g[0][1], mon):
                reducer = bi
                break
        counter[0] += 1
        if counter[0] > budget.max_reduction_steps:
            raise BudgetError(
                f"reduction step budget of {budget.max_reduction_steps} exceeded"
            )
        if reducer < 0:
            rem.append(work[0])
            work = work[1:]
        else:
            g = basis[reducer]
            counter[1] += len(work) + len(g) - 2
            if counter[1] > _MAX_MERGED_TERMS:
                raise BudgetError(f"reduction merge budget of {_MAX_MERGED_TERMS} terms exceeded")
            fac_mon = tuple(a - b for a, b in zip(mon, g[0][1]))
            work = _merge(work[1:], _shift(g[1:], fac_mon, -coeff), split)
            quots[reducer].append((fac_mon, coeff))
    return tuple(rem), [Poly._canonical(len(g[0][1]), tuple(q)) for g, q in zip(basis, quots)]


def _minus_quotients(rep: Element, quots: list[Poly], reprs: Sequence[Element]) -> Element:
    """rep - sum_b quots[b] * reprs[b]"""
    for b, q in enumerate(quots):
        if not q.is_zero:
            rep = tuple(r - q * s for r, s in zip(rep, reprs[b]))
    return rep


def _unit_row(nvars: int, length: int, index: int) -> Element:
    return tuple(
        Poly.constant(1, nvars) if i == index else Poly.zero(nvars) for i in range(length)
    )


def _groebner(
    gens: Sequence[Element],
    nvars: int,
    split: int,
    budget: Budget,
    track: bool = False,
):
    """Buchberger in the module order of ``split``, with optional tracking
    of combinations of the inputs.

    ``gens`` and the returned basis are tuples of Polys; the run holds term
    tuples (see the module docstring).  Returns (basis, reprs);
    ``reprs[j]`` (rank len(gens)) expresses basis[j] in the inputs when
    ``track`` is set, else ().
    """
    k = len(gens)
    basis: list[tuple] = []
    reprs: list[Element] = []
    counter = [0, 0]  # reduction steps, merged terms

    def push(elem: tuple, rep: Element | None):
        inv = Fraction(1) / elem[0][2]
        basis.append(tuple((p, e, c * inv) for p, e, c in elem))
        if track:
            reprs.append(tuple(p * inv for p in rep))

    for idx, g in enumerate(gens):
        elem = _flat(g, split)
        if elem:
            push(elem, _unit_row(nvars, k, idx) if track else None)

    # pending S-pairs (degree of lcm, i, j, lcm), i < j, sorted descending
    # once per add_pairs and popped from the end, so lowest first; no two are
    # equal (j is new at each add_pairs), so this is the order a heap pops
    pairs: list[tuple[int, int, int, tuple[int, ...]]] = []

    def lcm_of(i: int, j: int) -> tuple[int, ...]:
        return tuple(map(max, basis[i][0][1], basis[j][0][1]))

    def add_pairs(j: int):
        pos, mon, _ = basis[j][0]
        # B: drop a pending pair (i, l) of this position whose lcm the new
        # lead divides, unless lcm(i, j) or lcm(l, j) equals that lcm
        pairs[:] = [
            pair
            for pair in pairs
            if basis[pair[1]][0][0] != pos
            or not _divides(mon, pair[3])
            or pair[3] == lcm_of(pair[1], j)
            or pair[3] == lcm_of(pair[2], j)
        ]
        # F: of the new pairs with equal lcms, only the first
        seen = set()
        for i in range(j):
            if basis[i][0][0] == pos:
                lcm = lcm_of(i, j)
                if lcm not in seen:
                    seen.add(lcm)
                    pairs.append((sum(lcm), i, j, lcm))
        pairs.sort(reverse=True)

    for j in range(len(basis)):
        add_pairs(j)

    one = Fraction(1)
    while pairs:
        deg, i, j, lcm = pairs.pop()
        if deg > budget.max_pair_degree:
            raise BudgetError(
                f"S-pair degree {deg} exceeds cap {budget.max_pair_degree}"
            )
        ui = tuple(a - b for a, b in zip(lcm, basis[i][0][1]))
        uj = tuple(a - b for a, b in zip(lcm, basis[j][0][1]))
        # ui*basis[i] - uj*basis[j], whose monic leads cancel
        s = _merge(_shift(basis[i][1:], ui, one), _shift(basis[j][1:], uj, -one), split)
        rem, quots = _reduce(s, basis, split, counter, budget)
        if not rem:
            continue
        rep = None
        if track:
            rep = tuple(p.mul_term(ui, one) - q.mul_term(uj, one) for p, q in zip(reprs[i], reprs[j]))
            rep = _minus_quotients(rep, quots, reprs)
        push(rem, rep)
        add_pairs(len(basis) - 1)

    # minimalize: drop elements whose lead is divisible by another's lead
    # (strict divisibility cannot cycle; among equal leads the first stays)
    def _redundant(i: int) -> bool:
        pos, mon, _ = basis[i][0]
        for j, g in enumerate(basis):
            if j != i and g[0][0] == pos and _divides(g[0][1], mon):
                if g[0][1] != mon or j < i:
                    return True
        return False

    kept = [i for i in range(len(basis)) if not _redundant(i)]
    basis = [basis[i] for i in kept]
    if track:
        reprs = [reprs[i] for i in kept]

    # tail-reduce each element against the others (leads stay fixed)
    for i in range(len(basis)):
        basis[i], quots = _reduce(basis[i], basis, split, counter, budget, skip=i)
        if track:
            reprs[i] = _minus_quotients(reprs[i], quots, reprs)

    # by descending lead, each element as a tuple of Polys
    def lead_key(i: int) -> tuple:
        pos, mon, _ = basis[i][0]
        return (pos < split, grevlex_key(mon), -pos)

    def polys(elem: tuple) -> Element:
        return tuple(
            Poly._canonical(nvars, tuple((e, c) for p, e, c in elem if p == pos))
            for pos in range(len(gens[0]))
        )

    order = sorted(range(len(basis)), key=lead_key, reverse=True)
    return tuple(polys(basis[i]) for i in order), (tuple(reprs[i] for i in order) if track else ())


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def module_groebner(spec: FoliationSpec, budget: Budget = DEFAULT_BUDGET) -> ModuleGB:
    """Groebner basis of the generated submodule of R^n.

    Deterministic for a fixed spec: the basis is monic, autoreduced and
    sorted by leading term.
    """
    gens = [g.components for g in spec.generators]
    basis, reprs = _groebner(gens, spec.nvars, 0, budget, track=True)
    return ModuleGB(source=spec, basis=basis, reprs=reprs)


def _combination(spec: FoliationSpec, coeffs: Sequence[Poly]) -> VectorField:
    """sum_i coeffs[i] * X_i, exactly: per component, over the nonzero
    coeffs[i] only, and one VectorField at the end."""
    terms = [(f, gen.components) for f, gen in zip(coeffs, spec.generators) if not f.is_zero]
    zero = Poly.zero(spec.nvars)
    return VectorField(tuple(sum((f * c[j] for f, c in terms), zero) for j in range(spec.nvars)))


def contains(gb: ModuleGB, x: VectorField, budget: Budget = DEFAULT_BUDGET) -> MembershipResult:
    """Decide membership of ``x`` in the module; certificates are re-checked.

    On membership the returned coefficients f satisfy sum f_i X_i = X
    exactly (verified symbolically before returning).  The reduction of
    ``x`` counts against ``budget.max_reduction_steps`` and
    ``_MAX_MERGED_TERMS``.
    """
    spec = gb.source
    if x.nvars != spec.nvars:
        raise ArityError("vector field arity does not match the spec")
    if len(gb.reprs) != len(gb.basis):
        raise PreconditionError(
            "the basis has no representation table (reprs): build it with module_groebner"
        )
    basis = [_flat(b, 0) for b in gb.basis]
    rem, quots = _reduce(_flat(x.components, 0), basis, 0, [0, 0], budget)
    if rem:
        return MembershipResult(member=False, certificate=None)
    zeros = tuple(Poly.zero(spec.nvars) for _ in range(spec.k))
    cert = tuple(-p for p in _minus_quotients(zeros, quots, gb.reprs))
    # paranoia: a certificate must re-verify exactly
    if _combination(spec, cert) != x:
        raise AssertionError("internal error: membership certificate failed verification")
    return MembershipResult(member=True, certificate=cert)


# the most term products the Lie brackets of one ``is_involutive`` call may
# form in all; one more is a BudgetError, raised before the bracket that
# would form it.  The tests and benchmark corpora form at most 110; the
# bracket of (x+y+z+1)^e*dx and (x+y+z+2)^e*dy forms 331,240 at e = 12,
# whose reduction the merge cap ends, and 5,454,680 at e = 20
_MAX_BRACKET_PRODUCTS = 1_000_000


def _bracket_products(x: VectorField, y: VectorField) -> int:
    """The term products ``lie_bracket(x, y)`` forms: X(Y^i) multiplies each
    X_j by the terms of Y^i that have x_j in them, and Y(X^i) the same."""
    return sum(
        len(c.terms) * sum(1 for e, _ in comp.terms if e[j])
        for u, v in ((x, y), (y, x))
        for comp in v.components
        for j, c in enumerate(u.components)
    )


def is_involutive(spec: FoliationSpec, budget: Budget = DEFAULT_BUDGET) -> InvolutivityReport:
    """Check closure under Lie brackets; failing pairs come with the bracket.

    The brackets may form ``_MAX_BRACKET_PRODUCTS`` term products in all;
    a bracket past that raises BudgetError before it is formed."""
    gb = module_groebner(spec, budget)
    witnesses = []
    spent = 0
    for a, b in combinations(range(spec.k), 2):
        spent += _bracket_products(spec.generators[a], spec.generators[b])
        if spent > _MAX_BRACKET_PRODUCTS:
            raise BudgetError(f"Lie brackets need more than {_MAX_BRACKET_PRODUCTS} term products")
        br = lie_bracket(spec.generators[a], spec.generators[b])
        if not contains(gb, br, budget).member:
            witnesses.append(BracketWitness(i=a + 1, j=b + 1, bracket=br))
    return InvolutivityReport(closed=not witnesses, witnesses=tuple(witnesses))


def syzygy_basis(spec: FoliationSpec, budget: Budget = DEFAULT_BUDGET) -> SyzygyBasis:
    """Generating set of the relation module {r : sum r_i X_i = 0}.

    Computed from a rank-(n+k) Groebner basis of the elements
    (X_i ; e_i) under a block order in which value components dominate;
    basis elements with vanishing value block are exactly a generating
    set (indeed a Groebner basis) of the relation module.
    """
    if spec.k < 1:
        raise ArityError("syzygy_basis needs at least one generator")
    n, k = spec.nvars, spec.k
    augmented = []
    for i, g in enumerate(spec.generators):
        augmented.append(g.components + _unit_row(n, k, i))
    basis, _ = _groebner(augmented, n, n, budget)
    relations = []
    for elem in basis:
        if all(p.is_zero for p in elem[:n]):
            relations.append(elem[n:])
    for rel in relations:
        if not _combination(spec, rel).is_zero:
            raise AssertionError("internal error: relation does not annihilate the generators")
    return SyzygyBasis(source=spec, relations=tuple(relations))


def _pivots(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Pivot rows (ascending) and columns of an integer matrix, by one
    fraction-free (Bareiss) elimination; the rank is their number.

    Each step pivots on the first remaining row with a nonzero entry in the
    leading column, eliminates that column from the other rows and drops
    it, with the pivot row and every row that became zero.  The remaining
    entries are then minors of the input, so the division by the previous
    pivot is exact.

    The pivot rows are the greedy ones, each not in the span of the rows
    before it.  The steps are linear and send pivot and dropped rows to 0,
    so if row i is a combination of earlier rows, the remaining row i is a
    combination of the remaining earlier rows: one of them is nonzero in
    the leading column whenever row i is, and is taken first.  So every
    pivot row is greedy, and both sets have rank many rows.  Row operations
    keep the relations among the columns, so the pivot columns are the
    greedy ones, of the matrix and of its pivot rows.
    """
    m = [(i, r) for i, r in enumerate(rows) if any(r)]
    pivots: list[tuple[int, int]] = []  # (row, column) of each step
    col, prev = -1, 1
    while m:
        col += 1
        for at, (i, top) in enumerate(m):
            if top[0]:
                break
        else:
            m = [(i, r[1:]) for i, r in m]
            continue
        del m[at]
        pv, tail = top[0], top[1:]
        rest = []
        for j, r in m:
            a = r[0]
            r = [(pv * x - a * y) // prev for x, y in zip(r[1:], tail)]
            if any(r):
                rest.append((j, r))
        m, prev = rest, pv
        pivots.append((i, col))
    return sorted(i for i, _ in pivots), [j for _, j in pivots]


def rank_exact(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix of exact rationals (no thresholds).

    Each row is scaled to integers by the lcm of its denominators, then
    ranked by fraction-free elimination.
    """
    return len(_pivots([_over_lcm([Fraction(v) for v in row])[0] for row in rows])[0])


def _compile_rows(rows: Sequence[Element], nvars: int):
    """Evaluator ``f(X0, .., X{nvars-1}, D)`` of the polynomial ``rows`` at
    the point x = X/D, returning each row scaled to integers by the lcm of
    its coefficient denominators times D^deg(row).

    A term c*x^e of a row of degree deg becomes c*L * X^e * D^(deg - |e|);
    the integer coefficients c*L are bound when the evaluator is built.
    Powers are products of the repeated squares ``X0_2 = X0*X0``,
    ``X0_4 = X0_2*X0_2``, ..., computed once per call; entry m of row r is
    bound as ``r<r>_<m>`` by ``vfparse._sum_lines``.
    """

    def power(a: str, j: int) -> str:  # the name of a^(2^j)
        return f"{a}_{1 << j}" if j else a

    bits = max([p.degree() for row in rows for p in row] + [1]).bit_length()
    args = [f"X{i}" for i in range(nvars)] + ["D"]
    names = [power(a, j) for a in args for j in range(bits)]
    lines = [f"{power(a, j + 1)} = {power(a, j)}*{power(a, j)}" for a in args for j in range(bits - 1)]
    coeffs: list[int] = []
    row_srcs = []
    for r, row in enumerate(rows):
        deg = max(p.degree() for p in row)
        ints = iter(_over_lcm([c for p in row for _, c in p.terms])[0])
        for m, p in enumerate(row):
            terms = []
            for expt, _ in p.terms:
                full = expt + (deg - sum(expt),)
                terms.append((tuple(e >> j & 1 for e in full for j in range(bits)), f"c{len(coeffs)}"))
                coeffs.append(next(ints))
            lines += _sum_lines(f"r{r}_{m}", terms, names, "0")
        row_srcs.append("(" + "".join(f"r{r}_{m}, " for m in range(len(row))) + ")")
    src = [f"def make({', '.join(f'c{i}' for i in range(len(coeffs)))}):"]
    src += [f"    def rows({', '.join(args)}):"] + ["        " + line for line in lines]
    src += ["        return (" + "".join(f"{r}, " for r in row_srcs) + ")", "    return rows"]
    ns: dict = {}
    exec(compile("\n".join(src), "<generated rows>", "exec"), ns)
    return ns["make"](*coeffs)


@lru_cache(maxsize=128)
def _generator_rows(spec: FoliationSpec):
    """Integer evaluator of the k x n generator matrix (see ``_compile_rows``)."""
    return _compile_rows([g.components for g in spec.generators], spec.nvars)


@lru_cache(maxsize=128)
def _syzygy_rows(spec: FoliationSpec, budget: Budget = DEFAULT_BUDGET):
    """Integer evaluator of the syzygy generators, one row per relation."""
    return _compile_rows(syzygy_basis(spec, budget).relations, spec.nvars)


def _witness(spec: FoliationSpec, rows: Sequence[int], cols: Sequence[int], xs: Sequence[int], d: int):
    """Integer evaluator (see ``_compile_rows``) of the minor m of the
    generator matrix on ``rows`` and ``cols``, the pivots of its elimination
    at x = X/D, so that m is nonzero there; None if expanding m would form
    more than ``_MAX_MINOR_PRODUCTS`` term products.  The module docstring
    says why m(x') != 0 certifies fiber = tangent = r at another point x'."""
    gens = [spec.generators[i].components for i in rows]
    try:
        minor = _det([[g[j] for j in cols] for g in gens], [0])
    except BudgetError:
        return None
    evaluate = _compile_rows([(minor,)], spec.nvars)
    if not evaluate(*xs, d)[0][0]:
        raise AssertionError("internal error: the witness minor vanishes at its own point")
    return evaluate


def _dims(
    spec: FoliationSpec, points: Iterable[Sequence[int]], d: int, budget: Budget = DEFAULT_BUDGET
) -> Iterator[tuple[int, int]]:
    """Fiber and tangent dimensions at each x = X/D, X in ``points``, for one
    integer D > 0, checked to give nonnegative isotropy dimensions: an
    iterator that ranks one point per step.  The evaluators are built by the
    call, so a syzygy budget error is raised before any point is ranked.

    Points are ranked by elimination up to the first one where fiber equals
    tangent, r; its pivots build the witness minor of size r when a next
    point arrives, which then gets (r, r) unranked where the minor is nonzero
    (see the module docstring).  A single point, k = 0, r = 0 or a minor
    over the product cap builds no witness.
    """
    k = spec.k
    gens = _generator_rows(spec)
    syz = _syzygy_rows(spec, budget) if k else None

    def ranked():
        # first: the pivots and point of the first fiber = tangent, for the witness
        pending, first, witness, r = k > 0, None, None, 0
        for xs in points:
            if first:
                witness, first = _witness(spec, *first, d), None
            if witness is not None and witness(*xs, d)[0][0]:
                yield r, r
                continue
            rows, cols = _pivots(gens(*xs, d))
            t = len(rows)
            f = k - len(_pivots(syz(*xs, d))[0]) if k else 0
            if f < t:
                raise AssertionError("internal error: fiber dimension below tangent dimension")
            if pending and f == t:
                pending = False
                if t:
                    first, r = (rows, cols, xs), t
            yield f, t

    return ranked()


def tangent_dim(spec: FoliationSpec, point: Sequence) -> int:
    """Dimension of the span of the generator values at a rational point."""
    xs, d = _over_lcm(as_point(point, spec.nvars))
    return len(_pivots(_generator_rows(spec)(*xs, d))[0])


def fiber_dim(spec: FoliationSpec, point: Sequence, budget: Budget = DEFAULT_BUDGET) -> int:
    """k minus the rank of the syzygy generators evaluated at the point."""
    xs, d = _over_lcm(as_point(point, spec.nvars))
    return spec.k - len(_pivots(_syzygy_rows(spec, budget)(*xs, d))[0]) if spec.k else 0


def isotropy_dim(spec: FoliationSpec, point: Sequence, budget: Budget = DEFAULT_BUDGET) -> int:
    """fiber_dim - tangent_dim; nonnegative."""
    xs, d = _over_lcm(as_point(point, spec.nvars))
    [(f, t)] = _dims(spec, [xs], d, budget)
    return f - t


# the most term products the cofactor expansions of ``singular_locus`` may
# form, and so may a witness minor of ``_dims``; one more is a BudgetError,
# raised before that product is formed
_MAX_MINOR_PRODUCTS = 250_000
# the most minors ``singular_locus`` may visit, zero or not (a zero minor
# forms no product); one more is a BudgetError, raised before it is expanded
_MAX_MINORS = 100_000


def _det(mat: list[list[Poly]], spent: list[int]) -> Poly:
    """Determinant of a square matrix of polynomials, by cofactors along its
    first row.  ``spent[0]`` counts the term products formed, and one more
    than ``_MAX_MINOR_PRODUCTS`` is a BudgetError, raised before it is formed."""
    if len(mat) == 1:
        return mat[0][0]
    out = Poly.zero(nvars=mat[0][0].nvars)
    for j, entry in enumerate(mat[0]):
        if entry.is_zero:
            continue
        minor = _det([row[:j] + row[j + 1 :] for row in mat[1:]], spent)
        spent[0] += len(entry.terms) * len(minor.terms)
        if spent[0] > _MAX_MINOR_PRODUCTS:
            raise BudgetError(f"minors need more than {_MAX_MINOR_PRODUCTS} term products")
        term = entry * minor
        out = out + term if j % 2 == 0 else out - term
    return out


def singular_locus(spec: FoliationSpec) -> SingularLocusReport:
    """Generic rank of the generator matrix plus the minor ideal cutting out
    the locus where the rank drops.

    ``minor_ideal`` lists the nonzero r x r minors (r the generic rank) of
    the k x n coefficient matrix, in row/column enumeration order.  No
    radical or primary decomposition is attempted.  The rank a of the
    matrix evaluated at the point (1, 2, .., n) is at most r, so the minors
    are enumerated by size upward from max(a, 1), up to the first size whose
    minors are all zero, and r is the size below it; no size above r + 1 is
    visited.  The minors are expanded by cofactors; more than
    ``_MAX_MINOR_PRODUCTS`` term products or ``_MAX_MINORS`` minors in all
    raise BudgetError.
    """
    k, n = spec.k, spec.nvars
    report = SingularLocusReport(generic_rank=0, minor_ideal=())
    if k == 0:
        return report
    point = tuple(range(1, n + 1))
    start = max(rank_exact([g(point) for g in spec.generators]), 1)
    matrix = [list(g.components) for g in spec.generators]
    spent, done = [0], 0
    for size in range(start, min(k, n) + 1):
        minors = []
        for rows in combinations(range(k), size):
            for cols in combinations(range(n), size):
                if done >= _MAX_MINORS:
                    raise BudgetError(
                        f"the minor ideal needs more than {_MAX_MINORS} minors ({done} minors done)"
                    )
                try:
                    d = _det([[matrix[r][c] for c in cols] for r in rows], spent)
                except BudgetError as e:
                    raise BudgetError(f"{e} ({done} minors done)") from None
                done += 1
                if not d.is_zero:
                    minors.append(d)
        if not minors:
            break
        report = SingularLocusReport(generic_rank=size, minor_ideal=tuple(minors))
    return report


def minimal_local_generators(
    spec: FoliationSpec, point: Sequence, budget: Budget = DEFAULT_BUDGET
) -> tuple[int, ...]:
    """Greedy lowest-index set of generators whose fiber classes at the point
    form a basis.  Returned indices are 1-based (file order); the size equals
    the fiber dimension (one elimination, see the module docstring).
    """
    if spec.k < 1:
        raise ArityError("minimal_local_generators needs at least one generator")
    xs, d = _over_lcm(as_point(point, spec.nvars))
    syz = _syzygy_rows(spec, budget)(*xs, d)
    units = [[int(j == i) for j in range(spec.k)] for i in range(spec.k)]
    rows, _ = _pivots([*syz, *units])
    return tuple(i - len(syz) + 1 for i in rows if i >= len(syz))
