"""Module membership, involutivity and pointwise invariants.

Everything here is exact.  The generated submodule of the rank-n free
module over Q[x_1..x_n] is handled through a Buchberger-style Groebner
basis; relations among the generators (syzygies) come from a second
Groebner run in rank n+k under a block order that eliminates the value
components.

Inside the engine (``_groebner`` and ``contains``, on the ``_Basis`` of a
run) an element of a free module is one tuple of ``(key, int)`` terms in
descending key order; outside it, a tuple of Polys, one per position.  One
integer ``split`` sets the order: a term in a position below ``split``
comes first, then the bigger monomial in grevlex, then the lower position.
``split = 0`` is term-over-position (``module_groebner``, ``contains``),
``split = n`` the elimination block of ``syzygy_basis``.  A key packs that
order into one int, as the packed exponent vectors of Monagan & Pearce
(CASC 2007): from the most significant field down, the block bit
``pos < split``, the degree, the partial sums deg - e[n-1],
deg - e[n-1] - e[n-2], .., e[0], and ``npos - 1 - pos``, each field
``_W`` = 64 bits wide.  Each field is linear in the exponents, so a
monomial multiple is one addition per term and a merge compares two ints.
A degree wider than a field is refused (BudgetError) when a run reads its
input and at every shift, so no field ever carries into the next.
Exponents are decoded only from a lead, for the divisibility test.  The
lead is the first term, and a monomial factor keeps the order, so a
reduction step and an S-pair are each one ``_merge`` of term tuples.

The coefficients are integers, fraction-free: each element of a run is
primitive (coprime coefficients) with a positive lead.  An S-pair and a
reduction step multiply their two sides by the other side's lead over the
gcd of the two leads, so that the leads cancel; the content is removed
once per result, and Fractions are formed once, when the monic basis, its
``reprs`` and the certificates are returned.  By induction each element is
a positive multiple of the one a run on monic rational elements holds at
the same point.  Reducer choice, pair creation and the pair criteria
depend only on leads, and ``reprs`` are scaled with their elements, so both
runs take the same steps and return the same basis, reprs and
certificates.
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
from operator import mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ArityError, BudgetError, PreconditionError, _charge
from .vfparse import FoliationSpec, Poly, VectorField, _int_terms, _over_lcm, _sum_lines, lie_bracket

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


def _rational(value, unreadable: str) -> Fraction:
    """``value`` as an exact rational, the one reader of a number from
    outside: an int, a Fraction, a float, a Decimal or a rational string
    such as ``"1/2"``.  A string or Decimal with a decimal exponent beyond
    ``_MAX_DECIMAL_EXPONENT`` in either direction raises PreconditionError
    before it is read, and anything ``Fraction`` cannot read, ``"1/0"``
    included, raises PreconditionError(``unreadable``)."""
    if isinstance(value, (str, Decimal)):
        value = str(value)
        _, e, digits = value.lower().rpartition("e")
        digits = digits.strip().lstrip("+-").replace("_", "").lstrip("0")
        bound = _MAX_DECIMAL_EXPONENT
        if e and digits.isdecimal() and (len(digits) > len(str(bound)) or int(digits) > bound):
            raise PreconditionError(f"rational {value!r} has an exponent beyond {bound}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError):
        raise PreconditionError(unreadable) from None


def as_point(coords: Sequence, nvars: int) -> tuple[Fraction, ...]:
    """A library point as exact rationals, the one reader of a point: each
    coordinate a finite float or anything else ``_rational`` reads; a
    point of the wrong length raises ArityError."""
    if any(isinstance(c, float) and not math.isfinite(c) for c in coords):
        raise PreconditionError("point coordinate is not finite")
    pt = tuple(_rational(c, "point coordinate is not a rational number") for c in coords)
    if len(pt) != nvars:
        raise ArityError(f"point has {len(pt)} coordinates, expected {nvars}")
    return pt


# ---------------------------------------------------------------------------
# Groebner engine on free-module elements
# ---------------------------------------------------------------------------


# the bits of each field of an order key (see the module docstring); a
# degree wider than a field is a BudgetError, never a misordered term
_W = 64
_MASK = (1 << _W) - 1
_WIDE = f"degree {{count}} does not fit the {_W}-bit field of an order key"


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _merge(a: tuple, b: tuple) -> tuple:
    """The sum of two elements, by one merge of their descending keys;
    terms that cancel are dropped."""
    out = []
    append = out.append
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ta, tb = a[i], b[j]
        if ta[0] > tb[0]:
            append(ta)
            i += 1
        elif ta[0] < tb[0]:
            append(tb)
            j += 1
        else:
            c = ta[1] + tb[1]
            if c:
                append((ta[0], c))
            i += 1
            j += 1
    return tuple(out) + a[i:] + b[j:]


# the input terms that the reduction merges of one Groebner run, or of one
# ``contains`` reduction, may take in all
_MAX_MERGED_TERMS = 2_000_000


class _Basis:
    """The elements of one engine run on ``npos`` positions of polynomials
    in ``nvars`` variables, keyed in the module order of ``split`` (see the
    module docstring).  ``elems[b]`` is ``(terms, position, exponents,
    top)``: a primitive integer element with a positive lead, as
    descending ``(key, int)`` terms, its lead's position and exponents,
    and the highest degree of its terms.  ``steps`` and ``merged`` count the
    reduction steps and merged input terms of the run so far, against
    ``budget.max_reduction_steps`` and ``_MAX_MERGED_TERMS``.
    """

    def __init__(self, nvars: int, npos: int, split: int, budget: Budget):
        self.nvars, self.npos, self.split, self.budget = nvars, npos, split, budget
        self.steps = self.merged = 0
        # field j holds e[0] + .. + e[j] from bit _W*(j + 1), so e[m] counts in fields m..n-1
        self.shifts = [_W * (j + 1) for j in range(nvars)]
        self.weights = [sum(1 << s for s in self.shifts[m:]) for m in range(nvars)]
        self.block = 1 << _W * (nvars + 1)
        self.elems: list[tuple[tuple, int, tuple[int, ...], int]] = []

    def mon(self, expt: Sequence[int]) -> int:
        """The key of the monomial x^expt: the shift that multiplies by it."""
        return sum(map(mul, expt, self.weights))

    def exponents(self, key: int) -> tuple[int, ...]:
        s = [key >> at & _MASK for at in self.shifts]
        return (s[0], *map(sub, s[1:], s))

    def flat(self, elem: Element) -> tuple[tuple, int]:
        """(terms, d): d times the tuple of Polys ``elem`` as descending
        integer terms, d the lcm of its denominators; a degree wider than a
        key field raises BudgetError."""
        _charge(max((p.degree() for p in elem), default=-1), _MASK, _WIDE)
        ints, d = _over_lcm([c for p in elem for _, c in p.terms])
        last = self.npos - 1
        keys = (
            (self.block if pos < self.split else 0) + self.mon(e) + last - pos
            for pos, p in enumerate(elem)
            for e, _ in p.terms
        )
        return tuple(sorted(zip(keys, ints), reverse=True)), d

    def put(self, terms: tuple, at: int | None = None) -> int:
        """Store the primitive part of the nonzero ``terms``, its lead made
        positive, as a new element or as element ``at``; returns the signed
        content it was divided by."""
        c = math.gcd(*(v for _, v in terms))
        if terms[0][1] < 0:
            c = -c
        if c != 1:
            terms = tuple((k, v // c) for k, v in terms)
        lead, deg = terms[0][0], self.shifts[-1]
        elem = (terms, self.npos - 1 - (lead & _MASK), self.exponents(lead), max(k >> deg & _MASK for k, _ in terms))
        if at is None:
            self.elems.append(elem)
        else:
            self.elems[at] = elem
        return c

    def shift(self, b: int, u: int, f: int) -> tuple:
        """The tail of element b times f*x^u, for the key u of a monomial."""
        terms, _, _, top = self.elems[b]
        _charge(top + (u >> self.shifts[-1]), _MASK, _WIDE)
        return tuple((k + u, c * f) for k, c in terms[1:])

    def reduce(self, elem: tuple, skip: int = -1):
        """Full normal form of the terms ``elem`` modulo every element but
        element ``skip``: (rem, scale, quots), with scale > 0 and
        scale*elem = sum_b quots[b]*elems[b] + rem, quots[b] a list of
        (monomial key, int) in descending order.  Each step and each merge
        is charged to ``steps`` and ``merged``.

        Each step takes the lead a*x^m of ``work``: with no reducer it moves
        to ``rem``; else, for the reducer's lead c*x^l and h = gcd(a, c), work
        becomes (c/h)*work - (a/h)*x^(m-l)*reducer, one merge in which the
        leads cancel.  So the leads of ``work`` strictly decrease, and each
        element is a positive multiple of the work the monic reduction
        would hold.  The factors c/h are not applied to the remainder and
        quotient terms already found at each step, but once at the end.
        """
        elems, most, last = self.elems, self.budget.max_reduction_steps, self.npos - 1
        work = elem
        # (b, key, coefficient): a term of quots[b], of rem for b = -1, or
        # for b = None the factor ``key`` of everything before it
        out: list = []
        while work:
            key, a = work[0]
            pos, mon = last - (key & _MASK), self.exponents(key)
            reducer = -1
            for b, (_, gpos, gmon, _) in enumerate(elems):
                if b != skip and gpos == pos and _divides(gmon, mon):
                    reducer = b
                    break
            self.steps = _charge(self.steps + 1, most, "reduction step budget of {limit} exceeded")
            if reducer < 0:
                out.append((-1, key, a))
                work = work[1:]
                continue
            g = elems[reducer][0]
            self.merged = _charge(
                self.merged + len(work) + len(g) - 2,
                _MAX_MERGED_TERMS,
                "reduction merge budget of {limit} terms exceeded",
            )
            c = g[0][1]
            h = math.gcd(a, c)
            rest = work[1:]
            if c != h:
                out.append((None, c // h, 0))
                rest = tuple((k, v * (c // h)) for k, v in rest)
            u = key - g[0][0]
            work = _merge(rest, self.shift(reducer, u, -(a // h)))
            out.append((reducer, u, a // h))
        rem: list = []
        quots: list[list] = [[] for _ in elems]
        scale = 1
        for b, k, v in reversed(out):
            if b is None:
                scale *= k
            else:
                (rem if b < 0 else quots[b]).append((k, v * scale))
        rem.reverse()
        for q in quots:
            q.reverse()
        return tuple(rem), scale, quots

    def poly(self, terms: Iterable[tuple[int, int]], den: int) -> Poly:
        """The Poly of the descending ``(key, int)`` terms of one position,
        or of monomial keys, over ``den``; zeros dropped."""
        return Poly._canonical(self.nvars, tuple((self.exponents(u), Fraction(q, den)) for u, q in terms if q))

    def polys(self, terms: tuple) -> Element:
        """The element ``terms`` over its lead coefficient, as a tuple of Polys."""
        last = self.npos - 1
        return tuple(self.poly([t for t in terms if last - (t[0] & _MASK) == pos], terms[0][1]) for pos in range(self.npos))


def _minus_quotients(rep: Element, quots: list[Poly], reprs: Sequence[Element]) -> Element:
    """rep - sum_b quots[b] * reprs[b]"""
    for b, q in enumerate(quots):
        if not q.is_zero:
            rep = tuple(r - q * s for r, s in zip(rep, reprs[b]))
    return rep


def _scaled(rep: Element, f: Fraction) -> Element:
    return rep if f == 1 else tuple(p * f for p in rep)


def _unit_row(nvars: int, length: int, index: int, value=1) -> Element:
    return tuple(
        Poly.constant(value, nvars) if i == index else Poly.zero(nvars) for i in range(length)
    )


def _groebner(
    gens: Sequence[Element],
    nvars: int,
    split: int,
    budget: Budget,
    track: bool = False,
):
    """Buchberger in the module order of ``split``, fraction-free, with
    optional tracking of combinations of the inputs.

    ``gens`` and the returned basis are tuples of Polys; the run holds the
    primitive integer elements of a ``_Basis``.  Returns (basis, reprs):
    the basis monic and sorted by descending lead, and ``reprs[j]`` (rank
    len(gens)) expressing basis[j] in the inputs when ``track`` is set,
    else ().  Each element of the run is a positive multiple of the one
    the monic run holds at the same point, and ``reprs`` are scaled with
    their elements, so both runs take the same steps in the same order
    and return the same basis and reprs.
    """
    k = len(gens)
    run = _Basis(nvars, len(gens[0]) if gens else 0, split, budget)
    elems = run.elems
    reprs: list[Element] = []  # reprs[b] expresses elems[b] in the inputs

    for idx, g in enumerate(gens):
        terms, d = run.flat(g)
        if terms:
            c = run.put(terms)
            if track:
                reprs.append(_unit_row(nvars, k, idx, Fraction(d, c)))

    # pending S-pairs (degree of lcm, i, j, lcm), i < j, sorted descending
    # once per add_pairs and popped from the end, so lowest first; no two are
    # equal (j is new at each add_pairs), so this is the order a heap pops
    pairs: list[tuple[int, int, int, tuple[int, ...]]] = []

    def lcm_of(i: int, j: int) -> tuple[int, ...]:
        return tuple(map(max, elems[i][2], elems[j][2]))

    def add_pairs(j: int):
        _, pos, mon, _ = elems[j]
        # B: drop a pending pair (i, l) of this position whose lcm the new
        # lead divides, unless lcm(i, j) or lcm(l, j) equals that lcm
        pairs[:] = [
            pair
            for pair in pairs
            if elems[pair[1]][1] != pos
            or not _divides(mon, pair[3])
            or pair[3] == lcm_of(pair[1], j)
            or pair[3] == lcm_of(pair[2], j)
        ]
        # F: of the new pairs with equal lcms, only the first
        seen = set()
        for i in range(j):
            if elems[i][1] == pos:
                lcm = lcm_of(i, j)
                if lcm not in seen:
                    seen.add(lcm)
                    pairs.append((sum(lcm), i, j, lcm))
        pairs.sort(reverse=True)

    for j in range(len(elems)):
        add_pairs(j)

    while pairs:
        deg, i, j, lcm = pairs.pop()
        _charge(deg, budget.max_pair_degree, "S-pair degree {count} exceeds cap {limit}")
        ui = tuple(map(sub, lcm, elems[i][2]))
        uj = tuple(map(sub, lcm, elems[j][2]))
        # fi*x^ui*elems[i] - fj*x^uj*elems[j], whose leads cancel
        ai, aj = elems[i][0][0][1], elems[j][0][0][1]
        h = math.gcd(ai, aj)
        fi, fj = aj // h, ai // h
        s = _merge(run.shift(i, run.mon(ui), fi), run.shift(j, run.mon(uj), -fj))
        rem, scale, quots = run.reduce(s)
        if not rem:
            continue
        c = run.put(rem)
        if track:
            f = Fraction(scale, c)
            rep = tuple(p._times(ui, f * fi) - q._times(uj, f * fj) for p, q in zip(reprs[i], reprs[j]))
            reprs.append(_minus_quotients(rep, [run.poly(q, c) for q in quots], reprs))
        add_pairs(len(elems) - 1)

    # minimalize: drop elements whose lead is divisible by another's lead
    # (strict divisibility cannot cycle; among equal leads the first stays)
    def _redundant(i: int) -> bool:
        _, pos, mon, _ = elems[i]
        for j, (_, gpos, gmon, _) in enumerate(elems):
            if j != i and gpos == pos and _divides(gmon, mon):
                if gmon != mon or j < i:
                    return True
        return False

    kept = [i for i in range(len(elems)) if not _redundant(i)]
    run.elems = elems = [elems[i] for i in kept]
    if track:
        reprs = [reprs[i] for i in kept]

    # tail-reduce each element against the others (leads stay fixed)
    for i in range(len(elems)):
        rem, scale, quots = run.reduce(elems[i][0], skip=i)
        c = run.put(rem, i)
        if track:
            reprs[i] = _minus_quotients(_scaled(reprs[i], Fraction(scale, c)), [run.poly(q, c) for q in quots], reprs)

    # by descending lead, each element monic and as a tuple of Polys
    order = sorted(range(len(elems)), key=lambda i: elems[i][0][0][0], reverse=True)
    basis = tuple(run.polys(elems[i][0]) for i in order)
    if not track:
        return basis, ()
    return basis, tuple(_scaled(reprs[i], Fraction(1, elems[i][0][0][1])) for i in order)


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


def _keyed(gb: ModuleGB, budget: Budget) -> _Basis:
    """The monic basis of ``gb`` as the elements of a run: each element is
    its lead coefficient times the basis element."""
    run = _Basis(gb.source.nvars, gb.source.nvars, 0, budget)
    for b in gb.basis:
        run.put(run.flat(b)[0])
    return run


def _member(gb: ModuleGB, run: _Basis, x: VectorField) -> MembershipResult:
    """``contains`` on the basis of ``gb`` keyed as ``run``, its reduction
    counted from 0."""
    spec = gb.source
    terms, d = run.flat(x.components)
    run.steps = run.merged = 0
    rem, scale, quots = run.reduce(terms)
    if rem:
        return MembershipResult(member=False, certificate=None)
    # scale*d*x = sum_b quots[b]*elems[b], and elems[b] = lead_b*gb.basis[b]:
    # entry i of the certificate is sum_b quots[b]*lead_b*reprs[b][i] over
    # scale*d, summed in integers over the lcm of the reprs' denominators
    cert = []
    for i in range(spec.k):
        parts = [(_int_terms(rep[i].terms), qb, g[0][1]) for qb, (g, *_), rep in zip(quots, run.elems, gb.reprs) if qb]
        den = math.lcm(*(dr for (_, dr), _, _ in parts))
        acc: dict[int, int] = {}
        for (ints, dr), qb, lead in parts:
            for e, c in ints.items():
                m, f = run.mon(e), c * lead * (den // dr)
                for u, q in qb:
                    acc[u + m] = acc.get(u + m, 0) + q * f
        cert.append(run.poly(sorted(acc.items(), reverse=True), den * scale * d))
    cert = tuple(cert)
    # paranoia: a certificate must re-verify exactly
    if _combination(spec, cert) != x:
        raise AssertionError("internal error: membership certificate failed verification")
    return MembershipResult(member=True, certificate=cert)


def contains(gb: ModuleGB, x: VectorField, budget: Budget = DEFAULT_BUDGET) -> MembershipResult:
    """Decide membership of ``x`` in the module; certificates are re-checked.

    On membership the returned coefficients f satisfy sum f_i X_i = X
    exactly (verified symbolically before returning).  The reduction of
    ``x`` counts against ``budget.max_reduction_steps`` and
    ``_MAX_MERGED_TERMS``.
    """
    if x.nvars != gb.source.nvars:
        raise ArityError("vector field arity does not match the spec")
    if len(gb.reprs) != len(gb.basis):
        raise PreconditionError(
            "the basis has no representation table (reprs): build it with module_groebner"
        )
    return _member(gb, _keyed(gb, budget), x)


# the most term products the Lie brackets of one ``is_involutive`` call may
# form in all.  The tests and benchmark corpora form at most 110; the
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

    The brackets may form ``_MAX_BRACKET_PRODUCTS`` term products in all."""
    gb = module_groebner(spec, budget)
    run = _keyed(gb, budget)  # once, for every bracket
    witnesses = []
    spent = 0
    for a, b in combinations(range(spec.k), 2):
        cost = _bracket_products(spec.generators[a], spec.generators[b])
        spent = _charge(spent + cost, _MAX_BRACKET_PRODUCTS, "Lie brackets need more than {limit} term products")
        br = lie_bracket(spec.generators[a], spec.generators[b])
        if not _member(gb, run, br).member:
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
    ranked by fraction-free elimination.  Entries are read by ``_rational``.
    """
    rows = [_over_lcm([_rational(v, "matrix entry is not a rational number") for v in row])[0] for row in rows]
    return len(_pivots(rows)[0])


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
# form, and so may a witness minor of ``_dims``
_MAX_MINOR_PRODUCTS = 250_000
# the most minors ``singular_locus`` may visit, zero or not (a zero minor
# forms no product)
_MAX_MINORS = 100_000


def _det(mat: list[list[Poly]], spent: list[int]) -> Poly:
    """Determinant of a square matrix of polynomials, by cofactors along its
    first row.  ``spent[0]`` counts the term products formed, against
    ``_MAX_MINOR_PRODUCTS``."""
    if len(mat) == 1:
        return mat[0][0]
    out = Poly.zero(nvars=mat[0][0].nvars)
    for j, entry in enumerate(mat[0]):
        if entry.is_zero:
            continue
        minor = _det([row[:j] + row[j + 1 :] for row in mat[1:]], spent)
        cost = len(entry.terms) * len(minor.terms)
        spent[0] = _charge(spent[0] + cost, _MAX_MINOR_PRODUCTS, "minors need more than {limit} term products")
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
                # refused at the first minor past the cap, so the cap's many are done
                _charge(done + 1, _MAX_MINORS, "the minor ideal needs more than {limit} minors ({limit} minors done)")
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
