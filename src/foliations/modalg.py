"""Module membership, involutivity and pointwise invariants.

Everything here is exact.  The generated submodule of the rank-n free
module over Q[x_1..x_n] is handled through a Buchberger-style Groebner
basis; relations among the generators (syzygies) come from a second
Groebner run in rank n+k under a block order that eliminates the value
components.  S-pairs are pruned by two of the Gebauer-Moeller criteria
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
as integers X and D > 0 with x = X/D: ``as_point`` scales one point by the
lcm of its denominators, and the point it returns carries (X, D) to every
pointwise function.  ``fol dims --grid`` scales its whole grid once, to
the lcm of the denominators of its start and step, so there X/D need not
be in lowest terms.  Each spec's generator rows and syzygy rows are
compiled once into an evaluator of X and D that returns every row scaled
to integers (by the lcm of its coefficient denominators times D^deg), with
its source written by ``vfparse._sum_lines``, the emitter of the RK4
kernels in ``flow``.  The rank is taken by fraction-free (Bareiss)
elimination.  Each evaluated row is a positive multiple of the row at x,
whether X/D is in lowest terms or not, and scaling a row by a nonzero
constant does not change the rank.

Over many points (``fol dims --grid``) most points are regular, and there
one witness minor answers without elimination.  Let G be the k x n
generator matrix, r its generic rank and S the matrix of syzygy
generators.  S*G = 0, and S spans the relations over the fraction field,
so at every point rank G(p) <= r <= k - rank S(p).  At the first point p0
where elimination finds fiber = tangent, r is therefore tangent(p0).  Pick
pivot rows I and columns J of G(p0) with the r x r minor m = det G[I, J]
nonzero at p0; m is expanded once by cofactors (under the same product cap
as ``singular_locus``) and compiled like the rows.  At a later point p with
m(p) != 0, fiber = tangent = r:

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

import heapq
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations
from math import lcm
from typing import Callable, NamedTuple, Sequence

from .errors import ArityError, BudgetError
from .vfparse import FoliationSpec, Poly, VectorField, _sum_lines, grevlex_key, lie_bracket

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


def _over_lcm(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(X, D) with D the lcm of the denominators of ``values`` and X = D*values."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


class _Point(tuple):
    """Exact rational coordinates; ``scaled`` is their ``_over_lcm``."""


def _cached(fn):
    """``lru_cache`` of ``fn(spec, budget=DEFAULT_BUDGET)`` keyed on both
    arguments however they are passed, so that ``fn(spec)`` and
    ``fn(spec, DEFAULT_BUDGET)`` share one entry."""
    cached = lru_cache(maxsize=128)(fn)

    @wraps(fn)
    def call(spec: FoliationSpec, budget: Budget = DEFAULT_BUDGET):
        return cached(spec, budget)

    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


def as_point(coords: Sequence, nvars: int) -> tuple[Fraction, ...]:
    """Coerce a coordinate sequence to exact rationals, checking arity.

    The result also carries the point scaled to integers, so passing it on
    to several pointwise functions scales it once.
    """
    if type(coords) is _Point and len(coords) == nvars:
        return coords
    pt = _Point(Fraction(c) for c in coords)
    if len(pt) != nvars:
        raise ArityError(f"point has {len(pt)} coordinates, expected {nvars}")
    pt.scaled = _over_lcm(pt)
    return pt


# ---------------------------------------------------------------------------
# Groebner engine on free-module elements
# ---------------------------------------------------------------------------

KeyFn = Callable[[tuple[int, ...], int], tuple]


def _top_key(mon: tuple[int, ...], pos: int) -> tuple:
    # term-over-position: grevlex on monomials, lower position wins ties
    return (grevlex_key(mon), -pos)


def _make_elim_key(split: int) -> KeyFn:
    # any term in positions < split beats any term in positions >= split
    def key(mon: tuple[int, ...], pos: int) -> tuple:
        return (1 if pos < split else 0, grevlex_key(mon), -pos)

    return key


def _lead(elem: Element, key: KeyFn):
    """(key, position, monomial, coefficient) of the leading term, or None."""
    best = None
    for pos, p in enumerate(elem):
        if p.terms:
            mon, coeff = p.terms[0]
            k = key(mon, pos)
            if best is None or k > best[0]:
                best = (k, pos, mon, coeff)
    return best


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _scale(elem: Element, coeff: Fraction) -> Element:
    return tuple(p * coeff for p in elem)


def _s_poly(a: Element, ui: tuple[int, ...], b: Element, uj: tuple[int, ...]) -> Element:
    """ui*a - uj*b, for the monomials ui and uj"""
    one = Fraction(1)
    return tuple(p.mul_term(ui, one) - q.mul_term(uj, one) for p, q in zip(a, b))


def _is_zero(elem: Element) -> bool:
    return all(p.is_zero for p in elem)


def _reduce(
    elem: Element,
    basis: list[Element],
    leads: list,
    key: KeyFn,
    counter: list[int],
    budget: Budget,
    skip: int = -1,
):
    """Full normal form of ``elem`` modulo ``basis``; returns (rem, quotients).

    ``quotients`` is aligned with ``basis`` and satisfies
    elem = sum quotients[b] * basis[b] + rem.

    ``basis`` is monic, so a reducer's multiplier is the coefficient it
    cancels.  The leads of ``work`` strictly decrease, and the key compares
    terms of one position by grevlex, so each remainder receives its terms
    in descending order; so does each quotient, since a reducer always acts
    at the position of its own lead.  Both are collected as term lists and
    wrapped once at the end.
    """
    nvars = elem[0].nvars
    work = list(elem)
    rem: list[list] = [[] for _ in elem]
    quots: list[list] = [[] for _ in basis]
    while True:
        ld = _lead(work, key)
        if ld is None:
            break
        _, pos, mon, coeff = ld
        reducer = -1
        for bi, lb in enumerate(leads):
            if bi != skip and lb[1] == pos and _divides(lb[2], mon):
                reducer = bi
                break
        counter[0] += 1
        if counter[0] > budget.max_reduction_steps:
            raise BudgetError(
                f"reduction step budget of {budget.max_reduction_steps} exceeded"
            )
        if reducer < 0:
            rem[pos].append((mon, coeff))
            work[pos] = Poly._canonical(nvars, work[pos].terms[1:])
        else:
            lb = leads[reducer]
            fac_mon = tuple(a - b for a, b in zip(mon, lb[2]))
            g = basis[reducer]
            for i in range(len(work)):
                if g[i].terms:
                    work[i] = work[i] + g[i].mul_term(fac_mon, -coeff)
            quots[reducer].append((fac_mon, coeff))
    return (
        tuple(Poly._canonical(nvars, tuple(t)) for t in rem),
        [Poly._canonical(nvars, tuple(t)) for t in quots],
    )


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
    key: KeyFn,
    budget: Budget,
    track: bool = False,
):
    """Buchberger with optional tracking of combinations of the inputs.

    Returns (basis, reprs); ``reprs[j]`` (rank len(gens)) expresses
    basis[j] in the inputs when ``track`` is set, else ().
    """
    k = len(gens)
    basis: list[Element] = []
    reprs: list[Element] = []
    leads: list = []
    counter = [0]

    def push(elem: Element, rep: Element | None):
        ld = _lead(elem, key)
        inv = Fraction(1) / ld[3]
        basis.append(_scale(elem, inv))
        leads.append((ld[0], ld[1], ld[2], Fraction(1)))
        if track:
            reprs.append(_scale(rep, inv))

    for idx, g in enumerate(gens):
        if _is_zero(g):
            continue
        push(g, _unit_row(nvars, k, idx) if track else None)

    # pending S-pairs (degree of lcm, i, j, lcm), i < j, popped lowest first
    pairs: list[tuple[int, int, int, tuple[int, ...]]] = []

    def lcm_of(i: int, j: int) -> tuple[int, ...]:
        return tuple(map(max, leads[i][2], leads[j][2]))

    def add_pairs(j: int):
        pos, mon = leads[j][1], leads[j][2]
        # B: drop a pending pair (i, l) of this position whose lcm the new
        # lead divides, unless lcm(i, j) or lcm(l, j) equals that lcm
        kept = [
            pair
            for pair in pairs
            if leads[pair[1]][1] != pos
            or not _divides(mon, pair[3])
            or pair[3] == lcm_of(pair[1], j)
            or pair[3] == lcm_of(pair[2], j)
        ]
        if len(kept) < len(pairs):
            pairs[:] = kept
            heapq.heapify(pairs)
        # F: of the new pairs with equal lcms, only the first
        seen = set()
        for i in range(j):
            if leads[i][1] == pos:
                lcm = lcm_of(i, j)
                if lcm not in seen:
                    seen.add(lcm)
                    heapq.heappush(pairs, (sum(lcm), i, j, lcm))

    for j in range(len(basis)):
        add_pairs(j)

    while pairs:
        deg, i, j, lcm = heapq.heappop(pairs)
        if deg > budget.max_pair_degree:
            raise BudgetError(
                f"S-pair degree {deg} exceeds cap {budget.max_pair_degree}"
            )
        ui = tuple(a - b for a, b in zip(lcm, leads[i][2]))
        uj = tuple(a - b for a, b in zip(lcm, leads[j][2]))
        rem, quots = _reduce(_s_poly(basis[i], ui, basis[j], uj), basis, leads, key, counter, budget)
        if _is_zero(rem):
            continue
        rep = None
        if track:
            rep = _minus_quotients(_s_poly(reprs[i], ui, reprs[j], uj), quots, reprs)
        push(rem, rep)
        add_pairs(len(basis) - 1)

    # minimalize: drop elements whose lead is divisible by another's lead
    # (strict divisibility cannot cycle; among equal leads the first stays)
    def _redundant(i: int) -> bool:
        for j in range(len(basis)):
            if j == i or leads[j][1] != leads[i][1]:
                continue
            if _divides(leads[j][2], leads[i][2]):
                if leads[j][2] != leads[i][2] or j < i:
                    return True
        return False

    kept = [i for i in range(len(basis)) if not _redundant(i)]
    basis = [basis[i] for i in kept]
    leads = [leads[i] for i in kept]
    if track:
        reprs = [reprs[i] for i in kept]

    # tail-reduce each element against the others (leads stay fixed)
    for i in range(len(basis)):
        rem, quots = _reduce(basis[i], basis, leads, key, counter, budget, skip=i)
        basis[i] = rem
        if track:
            reprs[i] = _minus_quotients(reprs[i], quots, reprs)

    order = sorted(range(len(basis)), key=lambda i: leads[i][0], reverse=True)
    basis = [basis[i] for i in order]
    if track:
        reprs = [reprs[i] for i in order]
    return tuple(basis), tuple(reprs)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


@_cached
def module_groebner(spec: FoliationSpec, budget: Budget = DEFAULT_BUDGET) -> ModuleGB:
    """Groebner basis of the generated submodule of R^n.

    Deterministic for a fixed spec: the basis is monic, autoreduced and
    sorted by leading term.
    """
    gens = [g.components for g in spec.generators]
    basis, reprs = _groebner(gens, spec.nvars, _top_key, budget, track=True)
    return ModuleGB(source=spec, basis=basis, reprs=reprs)


def _combination(spec: FoliationSpec, coeffs: Sequence[Poly]) -> VectorField:
    """sum_i coeffs[i] * X_i, exactly."""
    out = VectorField.zero(spec.nvars)
    for f, gen in zip(coeffs, spec.generators):
        out = out + gen.scale(f)
    return out


def contains(gb: ModuleGB, x: VectorField, budget: Budget = DEFAULT_BUDGET) -> MembershipResult:
    """Decide membership of ``x`` in the module; certificates are re-checked.

    On membership the returned coefficients f satisfy sum f_i X_i = X
    exactly (verified symbolically before returning).  The reduction of
    ``x`` counts against ``budget.max_reduction_steps``.
    """
    spec = gb.source
    if x.nvars != spec.nvars:
        raise ArityError("vector field arity does not match the spec")
    counter = [0]
    leads = [_lead(b, _top_key) for b in gb.basis]
    rem, quots = _reduce(
        x.components, list(gb.basis), leads, _top_key, counter, budget
    )
    if not _is_zero(rem):
        return MembershipResult(member=False, certificate=None)
    zeros = tuple(Poly.zero(spec.nvars) for _ in range(spec.k))
    cert = tuple(-p for p in _minus_quotients(zeros, quots, gb.reprs))
    # paranoia: a certificate must re-verify exactly
    if _combination(spec, cert) != x:
        raise AssertionError("internal error: membership certificate failed verification")
    return MembershipResult(member=True, certificate=cert)


def is_involutive(spec: FoliationSpec, budget: Budget = DEFAULT_BUDGET) -> InvolutivityReport:
    """Check closure under Lie brackets; failing pairs come with the bracket."""
    gb = module_groebner(spec, budget)
    witnesses = []
    for a, b in combinations(range(spec.k), 2):
        br = lie_bracket(spec.generators[a], spec.generators[b])
        if not contains(gb, br, budget).member:
            witnesses.append(BracketWitness(i=a + 1, j=b + 1, bracket=br))
    return InvolutivityReport(closed=not witnesses, witnesses=tuple(witnesses))


@_cached
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
    basis, _ = _groebner(augmented, n, _make_elim_key(n), budget, track=False)
    relations = []
    for elem in basis:
        if all(p.is_zero for p in elem[:n]):
            relations.append(elem[n:])
    for rel in relations:
        if not _combination(spec, rel).is_zero:
            raise AssertionError("internal error: relation does not annihilate the generators")
    return SyzygyBasis(source=spec, relations=tuple(relations))


def _rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    Each step takes a pivot in the leading column, eliminates that column
    from the other rows and drops it, with the pivot row and every row that
    became zero.  The remaining entries are then minors of the input, so the
    division by the previous pivot is exact.
    """
    m = [r for r in rows if any(r)]
    rank, prev = 0, 1
    while m:
        for i, top in enumerate(m):
            if top[0]:
                break
        else:
            m = [r[1:] for r in m]
            continue
        del m[i]
        pv, tail = top[0], top[1:]
        rest = []
        for r in m:
            a = r[0]
            r = [(pv * x - a * y) // prev for x, y in zip(r[1:], tail)]
            if any(r):
                rest.append(r)
        m, prev = rest, pv
        rank += 1
    return rank


def rank_exact(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix of exact rationals (no thresholds).

    Each row is scaled to integers by the lcm of its denominators, then
    ranked by fraction-free elimination.
    """
    return _rank_int([_over_lcm([Fraction(v) for v in row])[0] for row in rows])


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
        scale = lcm(*(c.denominator for p in row for _, c in p.terms))
        for m, p in enumerate(row):
            terms = []
            for expt, c in p.terms:
                full = expt + (deg - sum(expt),)
                terms.append((tuple(e >> j & 1 for e in full for j in range(bits)), f"c{len(coeffs)}"))
                coeffs.append(c.numerator * (scale // c.denominator))
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


def _independent(rows: Sequence[Sequence[int]], r: int) -> list[int]:
    """Indices of the first ``r`` linearly independent ``rows``, taken greedily
    in order; ``rows`` must have rank at least r."""
    picked: list[int] = []
    for i, row in enumerate(rows):
        if len(picked) == r:
            break
        if _rank_int([rows[j] for j in picked] + [row]) > len(picked):
            picked.append(i)
    return picked


def _witness(spec: FoliationSpec, values: Sequence[Sequence[int]], r: int, xs: Sequence[int], d: int):
    """Integer evaluator (see ``_compile_rows``) of an r x r minor m of the
    generator matrix that is nonzero at x = X/D, where the generator rows
    evaluate to ``values`` of rank r > 0; None if expanding m would form more
    than ``_MAX_MINOR_PRODUCTS`` term products.  The module docstring says
    why m(x') != 0 certifies fiber = tangent = r at another point x'."""
    rows = _independent(values, r)
    cols = _independent(list(zip(*(values[i] for i in rows))), r)
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
    spec: FoliationSpec, points: Sequence[Sequence[int]], d: int, budget: Budget = DEFAULT_BUDGET
) -> list[tuple[int, int]]:
    """Fiber and tangent dimensions at each x = X/D, X in ``points``, for one
    integer D > 0; checked to give nonnegative isotropy dimensions.

    Points are ranked by elimination up to the first one where fiber equals
    tangent, r; from there on a point where the witness minor of size r is
    nonzero gets (r, r) unranked (see the module docstring).  A single point,
    k = 0, r = 0 or a minor over the product cap builds no witness.
    """
    k = spec.k
    gens = _generator_rows(spec)
    syz = _syzygy_rows(spec, budget) if k else None
    # a witness may still be built until the first point where fiber = tangent
    pending = k > 0 and len(points) > 1
    witness, r = None, 0
    dims = []
    for xs in points:
        if witness is not None and witness(*xs, d)[0][0]:
            dims.append((r, r))
            continue
        values = gens(*xs, d)
        t = _rank_int(values)
        f = k - _rank_int(syz(*xs, d)) if k else 0
        if f < t:
            raise AssertionError("internal error: fiber dimension below tangent dimension")
        dims.append((f, t))
        if pending and f == t:
            pending = False
            if t:
                witness, r = _witness(spec, values, t, xs, d), t
    return dims


def tangent_dim(spec: FoliationSpec, point: Sequence) -> int:
    """Dimension of the span of the generator values at a rational point."""
    xs, d = as_point(point, spec.nvars).scaled
    return _rank_int(_generator_rows(spec)(*xs, d))


def fiber_dim(spec: FoliationSpec, point: Sequence, budget: Budget = DEFAULT_BUDGET) -> int:
    """k minus the rank of the syzygy generators evaluated at the point."""
    xs, d = as_point(point, spec.nvars).scaled
    return spec.k - _rank_int(_syzygy_rows(spec, budget)(*xs, d)) if spec.k else 0


def isotropy_dim(spec: FoliationSpec, point: Sequence, budget: Budget = DEFAULT_BUDGET) -> int:
    """fiber_dim - tangent_dim; nonnegative."""
    xs, d = as_point(point, spec.nvars).scaled
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
    the fiber dimension.
    """
    if spec.k < 1:
        raise ArityError("minimal_local_generators needs at least one generator")
    xs, d = as_point(point, spec.nvars).scaled
    k = spec.k
    rows = list(_syzygy_rows(spec, budget)(*xs, d))
    rank = _rank_int(rows)
    target = k - rank
    picked: list[int] = []
    for i in range(k):
        if len(picked) == target:
            break
        candidate = rows + [tuple(int(j == i) for j in range(k))]
        r = _rank_int(candidate)
        if r > rank:
            rows = candidate
            rank = r
            picked.append(i + 1)
    if len(picked) != target:
        raise AssertionError("internal error: independent subset smaller than fiber")
    return tuple(picked)
