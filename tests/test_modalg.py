"""Groebner/syzygy machinery and pointwise invariants."""

import hashlib
import tracemalloc
from fractions import Fraction
from functools import cmp_to_key
from math import lcm

import pytest

from foliations import modalg
from foliations.errors import ArityError, BudgetError, PreconditionError
from foliations.flow import XorShift64Star, chart_at, chart_rank_check
from foliations.modalg import (
    Budget,
    ModuleGB,
    _bracket_products,
    _pivots,
    as_point,
    contains,
    fiber_dim,
    is_involutive,
    isotropy_dim,
    minimal_local_generators,
    module_groebner,
    rank_exact,
    singular_locus,
    syzygy_basis,
    tangent_dim,
)
from foliations.vfparse import (
    FoliationSpec,
    Poly,
    VectorField,
    _over_lcm,
    format_poly,
    grevlex_key,
    lie_bracket,
    parse_vector_field,
)

from helpers import (
    brute_force_member,
    cstar,
    gl2,
    gl3,
    groebner_failures,
    make_spec,
    nonintegrable,
    product_oracle,
    random_field,
    random_fraction,
    random_poly,
    rank_oracle,
    run_python,
    sl2,
    so3,
    xk,
)


def span_equal(rels_a, rels_b, nvars):
    """Mutual membership of two relation families (tuples of Polys in
    ``nvars`` variables) in each other's module, by module_groebner and
    contains.  A relation of k entries becomes a field of m = max(nvars, k)
    components in m variables, padded with zeros: Q[x, z] is free over Q[x],
    so membership does not change."""
    k = len((rels_a + rels_b)[0])
    m = max(nvars, k)
    names = tuple(f"v{i}" for i in range(m))

    def lift(rel):
        comps = [Poly(m, [(e + (0,) * (m - nvars), c) for e, c in p.terms]) for p in rel]
        return VectorField(comps + [Poly.zero(m)] * (m - k))

    def contains_all(base, others):
        gb = module_groebner(FoliationSpec(names, tuple(lift(r) for r in base)))
        return all(contains(gb, lift(r)).member for r in others)

    return contains_all(rels_a, rels_b) and contains_all(rels_b, rels_a)


# -- module_groebner ---------------------------------------------------------


def test_groebner_principal_and_reduction():
    spec = xk(2)
    gb = module_groebner(spec)
    assert len(gb.basis) == 1
    x = Poly.variable(0, 1)
    assert gb.basis[0] == (x**2,)


def test_groebner_redundant_generator():
    spec = make_spec(("x",), ("x*dx", "x^2*dx"))
    gb = module_groebner(spec)
    assert gb.basis == ((Poly.variable(0, 1),),)


def test_groebner_empty():
    spec = FoliationSpec(("x", "y"), ())
    gb = module_groebner(spec)
    assert gb.basis == ()


def test_groebner_generators_reduce_to_zero():
    for spec in (sl2(), gl2(), cstar(), nonintegrable()):
        gb = module_groebner(spec)
        for g in spec.generators:
            assert contains(gb, g).member


def test_groebner_autoreduced_and_deterministic():
    spec = sl2()
    gb1 = module_groebner(spec)
    gb2 = module_groebner(make_spec(("x", "y"), ("x*dx - y*dy", "y*dx", "x*dy")))
    assert gb1.basis == gb2.basis
    # autoreduced: no leading term of one element divides any term of
    # another; a lead is the (position, exponents) of the largest term under
    # term over position (grevlex, then the lower position)
    leads = [
        max(((pos, p.terms[0][0]) for pos, p in enumerate(b) if p.terms), key=lambda t: (grevlex_key(t[1]), -t[0]))
        for b in gb1.basis
    ]
    for i, elem in enumerate(gb1.basis):
        for j, (lpos, lexp) in enumerate(leads):
            if i == j:
                continue
            for expt, _ in elem[lpos].terms:
                assert not all(a <= b for a, b in zip(lexp, expt))


def _module_order(split: int):
    """Sort key of a term (position, exponents) by the engine's order, as a
    comparison written out: the block below ``split`` first, then the higher
    degree, then the smaller reversed exponents, then the lower position."""

    def cmp(a, b):
        (pa, ea), (pb, eb) = a, b
        if a == b:
            return 0
        return 1 if (pa < split, sum(ea), eb[::-1], pb) > (pb < split, sum(eb), ea[::-1], pa) else -1

    return cmp_to_key(cmp)


@pytest.mark.parametrize("nvars, npos", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)])
def test_keys_sort_terms_in_the_module_order(nvars, npos):
    from foliations.modalg import DEFAULT_BUDGET, _Basis

    rng = XorShift64Star(10 * nvars + npos)
    wide = 1 << 62  # exponents near the top of a field, whose degree still fits
    terms = {
        (rng.randint(0, npos - 1), tuple(rng.randint(0, 4) + wide * rng.randint(0, 1) for _ in range(nvars)))
        for _ in range(300)
    }
    for split in (0, nvars):
        run = _Basis(nvars, npos, split, DEFAULT_BUDGET)

        def key(pos, expt):
            elem = tuple(Poly.term(nvars, expt, 1) if p == pos else Poly.zero(nvars) for p in range(npos))
            return run.flat(elem)[0][0][0]

        keys = {t: key(*t) for t in terms}
        assert sorted(terms, key=keys.get, reverse=True) == sorted(terms, key=_module_order(split), reverse=True)
        for (pos, expt), k in keys.items():
            assert run.exponents(k) == expt
            # a monomial multiple is one addition
            u = tuple(rng.randint(0, 3) for _ in range(nvars))
            assert k + run.mon(u) == key(pos, tuple(a + b for a, b in zip(expt, u)))


def test_a_degree_wider_than_a_key_field_is_refused():
    big = 1 << 64
    message = f"^degree {big} does not fit the 64-bit field of an order key$"
    zero = Poly.zero(2)
    wide = VectorField((Poly.term(2, (big - 5, 5), 1), zero))
    spec = FoliationSpec(("x", "y"), (wide,))
    for compute in (
        lambda: module_groebner(spec),
        lambda: syzygy_basis(spec),
        lambda: contains(module_groebner(xk(1)), VectorField((Poly.term(1, (big,), 1),))),
    ):
        with pytest.raises(BudgetError, match=message):
            compute()
    # the widest degree that fits is ordered as any other
    top = VectorField((Poly.term(2, (big - 1, 0), 1) + Poly.term(2, (0, big - 1), 1), zero))
    assert module_groebner(FoliationSpec(("x", "y"), (top,))).basis == (top.components,)
    # an S-pair that would shift a term past it is refused
    half = 1 << 63
    pair = FoliationSpec(("x", "y"), tuple(VectorField((Poly.term(2, e, 1), zero)) for e in ((half, 0), (0, half))))
    with pytest.raises(BudgetError, match=message):
        module_groebner(pair, Budget(max_pair_degree=big))


def test_budget_error_is_raised():
    with pytest.raises(BudgetError):
        module_groebner(make_spec(("x", "y"), ("x^3*dx", "y^3*dx", "(x + y)*dx")),
                        Budget(max_pair_degree=2))
    with pytest.raises(BudgetError):
        module_groebner(make_spec(("x", "y"), ("x^3*dx", "y^3*dx", "(x + y)*dx")),
                        Budget(max_reduction_steps=1))


# sha256 of the module basis, the syzygy relations and the involutivity
# verdict (witness brackets included) of seeded dense specs, as written by
# _exact_digests; recorded before Poly arithmetic gained its trusted paths
DENSE_DIGESTS = {
    (2, 3, 3, 11): (
        "eae2ba3858b6acbf7cba5a21ebd947027099c24538aa659028fffb8119108d49",
        "d83576b348be4be6bf5a096ace83f29388e8c3cd510609f78322ee3d90449e02",
        "472f0ab5c83b1f300d95cb8c636672a76684b1f146f2b4060e3c3590bbe7213e",
    ),
    (2, 3, 3, 12): (
        "b5a2875e8bdd8127badf3419b9aace396fefc36f3064f82a7d47b552cca692bf",
        "b4995c1112027579d154fb890205ae78628d0e63f8f3d2638b871a2141168167",
        "c07e3603ef576087dc8204abb8b1ea5af7f963961564147893c016b8aa9fe254",
    ),
    (2, 4, 2, 11): (
        "2646a87a3f21706b1982295c661d98983297803a7b428f9b91f7b51409e6a488",
        "f8e69e3733581cced090075912df84022463b1e71edc139c971e0fbcc8f8ea44",
        "546b9c2d89ef0a13595a96f72c08211c8a753992ccf96cce23c484065f5abc4a",
    ),
}


def _exact_digests(spec):
    def elem(e):
        return "(" + ", ".join(format_poly(p, spec.var_names) for p in e) + ")"

    inv = is_involutive(spec)
    texts = (
        ";".join(elem(b) for b in module_groebner(spec).basis),
        ";".join(elem(r) for r in syzygy_basis(spec).relations),
        f"{inv.closed} "
        + ";".join(f"{w.i},{w.j}:{elem(w.bracket.components)}" for w in inv.witnesses),
    )
    return tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)


def _dense_spec(n, k, deg, seed):
    rng = XorShift64Star(seed)
    return FoliationSpec(("x", "y", "z")[:n], tuple(random_field(rng, n, deg) for _ in range(k)))


@pytest.mark.parametrize("shape", list(DENSE_DIGESTS), ids=lambda s: "n{}k{}d{}-seed{}".format(*s))
def test_dense_spec_results_match_golden_digests(shape):
    assert _exact_digests(_dense_spec(*shape)) == DENSE_DIGESTS[shape]


_ORACLE_SPECS = {
    "sl2": sl2, "gl2": gl2, "so3": so3, "gl3": gl3,
    **{"n{}k{}d{}-seed{}".format(*s): (lambda s=s: _dense_spec(*s))
       for s in ((2, 3, 3, 11), (2, 3, 3, 12), (2, 4, 2, 11), (2, 4, 2, 12))},
}


@pytest.mark.parametrize("name", list(_ORACLE_SPECS))
def test_groebner_bases_pass_the_independent_check(name):
    from foliations.modalg import DEFAULT_BUDGET, _groebner, _unit_row

    spec = _ORACLE_SPECS[name]()
    n = spec.nvars
    gens = [g.components for g in spec.generators]
    gb = module_groebner(spec)
    assert groebner_failures(gens, gb.basis) == []
    # reprs[j] combines the generators into basis[j]
    for elem, rep in zip(gb.basis, gb.reprs, strict=True):
        for m in range(n):
            assert elem[m] == Poly(n, [t for f, g in zip(rep, gens) for t in product_oracle(f, g[m]).terms])
    # the block-order basis of the elements (X_i ; e_i) that syzygy_basis
    # reads its relations from
    augmented = [g + _unit_row(n, spec.k, i) for i, g in enumerate(gens)]
    basis, _ = _groebner(augmented, n, n, DEFAULT_BUDGET)
    assert groebner_failures(augmented, basis, split=n) == []
    # the check itself fails a basis that lacks an element
    assert groebner_failures(augmented, basis[1:], split=n) != []


# S-pair reductions (total, to zero) of module_groebner and syzygy_basis:
# exact counts of the work the pair criteria leave, pinned so that a change
# in algorithmic work fails here rather than in a timing
_PAIR_REDUCTIONS = {
    (2, 4, 2, 11): ((19, 11), (50, 28)),
    (2, 4, 2, 12): ((25, 16), (74, 47)),
}


def _reductions(monkeypatch, compute) -> tuple[int, int]:
    """(total, to zero) of the reductions ``compute`` runs, tail reductions
    of a finished basis aside."""
    log = []
    reduce = modalg._Basis.reduce

    def counted(run, elem, skip=-1):
        rem, scale, quots = reduce(run, elem, skip)
        if skip < 0:
            log.append(not rem)
        return rem, scale, quots

    monkeypatch.setattr(modalg._Basis, "reduce", counted)
    compute()
    monkeypatch.undo()
    return len(log), sum(log)


@pytest.mark.parametrize("shape", list(_PAIR_REDUCTIONS), ids=lambda s: "n{}k{}d{}-seed{}".format(*s))
def test_s_pair_reductions_are_pinned(monkeypatch, shape):
    spec = _dense_spec(*shape)
    counts = (
        _reductions(monkeypatch, lambda: module_groebner(spec)),
        _reductions(monkeypatch, lambda: syzygy_basis(spec)),
    )
    assert counts == _PAIR_REDUCTIONS[shape]


def test_involutivity_of_sl2_reductions_are_pinned(monkeypatch):
    # two S-pairs (one to zero), then the three brackets reduce to zero
    assert _reductions(monkeypatch, lambda: is_involutive(sl2())) == (5, 4)


# -- contains ---------------------------------------------------------------


def test_contains_examples():
    gb = module_groebner(xk(2))
    x = Poly.variable(0, 1)
    hit = contains(gb, VectorField((x**3,)))
    assert hit.member
    assert hit.certificate == (x,)
    assert not contains(gb, VectorField((x,))).member


def test_contains_arity():
    with pytest.raises(ArityError):
        contains(module_groebner(xk(2)), parse_vector_field("x*dx", ("x", "y")))


def test_contains_needs_the_representation_table():
    # the certificate is built from reprs: a basis without them is refused
    # up front, where it ended in an IndexError inside the quotient sum
    spec = sl2()
    gb = module_groebner(spec)
    with pytest.raises(PreconditionError, match=r"representation table \(reprs\)"):
        contains(ModuleGB(gb.source, gb.basis), spec.generators[0])
    assert contains(gb, spec.generators[0]).member


def test_contains_zero_field_and_zero_module():
    gb = module_groebner(FoliationSpec(("x",), ()))
    assert contains(gb, VectorField.zero(1)).member
    assert not contains(gb, parse_vector_field("x*dx", ("x",))).member


def test_reduce_builds_canonical_remainders_and_quotients():
    from foliations.modalg import DEFAULT_BUDGET, _Basis

    rng = XorShift64Star(4_242)
    for _ in range(30):
        nvars = rng.randint(1, 2)
        gens = tuple(random_field(rng, nvars, 3) for _ in range(rng.randint(1, 3)))
        gb = module_groebner(FoliationSpec(("x", "y")[:nvars], gens))
        query = random_field(rng, nvars, 4)
        run = _Basis(nvars, nvars, 0, DEFAULT_BUDGET)
        for b in gb.basis:
            run.put(run.flat(b)[0])
        terms, d = run.flat(query.components)
        rem, scale, quots = run.reduce(terms)
        # the remainder's keys strictly descend, and none of its terms is zero
        assert [k for k, _ in rem] == sorted({k for k, _ in rem}, reverse=True)
        assert all(c for _, c in rem)
        # scale*d*query = sum_b quots[b]*elems[b] + rem, each element its
        # lead coefficient times the monic basis element
        den = scale * d
        total = VectorField(run.polys(rem)).scale(Fraction(rem[0][1], den)) if rem else VectorField.zero(nvars)
        for q, b, (g, *_) in zip([run.poly(qb, den) for qb in quots], gb.basis, run.elems, strict=True):
            assert q.terms == Poly(nvars, q.terms).terms
            assert run.polys(g) == b
            total = total + VectorField(b).scale(q * g[0][1])
        assert total == query


def test_is_involutive_passes_its_budget_to_the_brackets():
    # the basis run takes 7 reduction steps, the reduction of the bracket 11
    spec = make_spec(("x", "y"), ("y*dx", "(x+1)^5*dy"))
    budget = Budget(max_reduction_steps=8)
    module_groebner(spec, budget)
    with pytest.raises(BudgetError):
        is_involutive(spec, budget)
    with pytest.raises(BudgetError):
        contains(module_groebner(spec), lie_bracket(*spec.generators), budget)
    assert not is_involutive(spec).closed


def test_reductions_count_the_terms_they_merge(monkeypatch):
    # the merges that reduce the bracket of (x+y+1)^2*dx and (x+y+2)^2*dy take
    # in 99 terms; the module basis needs no merge, and the contains call of
    # is_involutive counts from 0 again
    cap = "foliations.modalg._MAX_MERGED_TERMS"
    spec = make_spec(("x", "y"), ("(x+y+1)^2*dx", "(x+y+2)^2*dy"))
    gb = module_groebner(spec)
    bracket = lie_bracket(*spec.generators)
    monkeypatch.setattr(cap, 99)
    assert not contains(gb, bracket).member
    assert not is_involutive(spec).closed
    monkeypatch.setattr(cap, 98)
    with pytest.raises(BudgetError, match="^reduction merge budget of 98 terms exceeded$"):
        contains(gb, bracket)
    # the reductions of one syzygy run take in 16 terms in all
    spec = make_spec(("x", "y"), ("x^2*dx + y*dy", "x*y*dx + y^2*dy", "(x+1)*dy"))
    monkeypatch.setattr(cap, 16)
    assert syzygy_basis(spec).relations
    monkeypatch.setattr(cap, 15)
    with pytest.raises(BudgetError, match="^reduction merge budget of 15 terms exceeded$"):
        syzygy_basis(spec)


def test_each_bracket_reduction_counts_from_0(monkeypatch):
    # the module basis takes 18 reduction steps and merges 25 terms; the
    # three brackets take 6, 15 and 21 steps and merge 15, 125 and 152
    # terms, so a cap at the largest bracket passes only if no count
    # carries over from one bracket to the next
    spec = make_spec(("x", "y"), ("(x+y+1)^2*dx", "(x+y+2)^2*dx", "(x+1)^3*dy"))
    module_groebner(spec, Budget(max_reduction_steps=18))
    with pytest.raises(BudgetError, match="^reduction step budget of 17 exceeded$"):
        module_groebner(spec, Budget(max_reduction_steps=17))
    assert not is_involutive(spec, Budget(max_reduction_steps=21)).closed
    with pytest.raises(BudgetError, match="^reduction step budget of 20 exceeded$"):
        is_involutive(spec, Budget(max_reduction_steps=20))
    cap = "foliations.modalg._MAX_MERGED_TERMS"
    monkeypatch.setattr(cap, 25)
    module_groebner(spec)
    monkeypatch.setattr(cap, 24)
    with pytest.raises(BudgetError, match="^reduction merge budget of 24 terms exceeded$"):
        module_groebner(spec)
    monkeypatch.setattr(cap, 152)
    assert not is_involutive(spec).closed
    monkeypatch.setattr(cap, 151)
    with pytest.raises(BudgetError, match="^reduction merge budget of 151 terms exceeded$"):
        is_involutive(spec)


def test_bracket_products_are_counted_before_they_are_formed(monkeypatch):
    # _bracket_products is the number of term products lie_bracket forms,
    # on seeded fields; the cap covers the brackets of one is_involutive
    # call together, and a bracket past it is never formed
    formed = []
    mul = Poly.__mul__

    def counting(self, other):
        formed.append(len(self.terms) * len(other.terms))
        return mul(self, other)

    rng = XorShift64Star(4)
    fields = [random_field(rng, 3, 3) for _ in range(3)]
    monkeypatch.setattr(Poly, "__mul__", counting)
    counts = []
    for x, y in ((fields[0], fields[1]), (fields[0], fields[2]), (fields[1], fields[2])):
        formed.clear()
        lie_bracket(x, y)
        counts.append(_bracket_products(x, y))
        assert sum(formed) == counts[-1] > 0
    monkeypatch.undo()
    spec = FoliationSpec(("x", "y", "z"), tuple(fields))
    cap = "foliations.modalg._MAX_BRACKET_PRODUCTS"
    monkeypatch.setattr(cap, sum(counts))
    is_involutive(spec)
    monkeypatch.setattr(cap, sum(counts) - 1)
    brackets = []
    monkeypatch.setattr("foliations.modalg.lie_bracket", lambda x, y: brackets.append(1) or lie_bracket(x, y))
    with pytest.raises(BudgetError, match=f"^Lie brackets need more than {sum(counts) - 1} term products$"):
        is_involutive(spec)
    assert len(brackets) == 2  # the third bracket was refused before it was formed


# sha256 of the module basis and of what contains says on seeded queries:
# three random fields (a verdict, and a certificate when it is a member) and
# three members g1*X1 + g2*Xk with random g1, g2 (their certificates), for
# the dense specs of shapes (2,3,3) and (2,4,2), seeds 1-12; recorded before
# the engine held module elements as term tuples
CONTAINS_DIGESTS = {
    (2, 3, 3, 1): "beb20ca0e201ea77a1ba2261bd013098927e02b289abecb915369cfb0063f368",
    (2, 3, 3, 2): "a675a1c71b6fb680b6c1d03870d94439702fbd81f0dbfb85cbc0d7841e5cb7f1",
    (2, 3, 3, 3): "7c00f05c25d7fb67af3bb8945316494a6740b8b2fa3c549d2347814a07807fc8",
    (2, 3, 3, 4): "4d694ae7213a7b13dcb4fd93f27726530de2e2937463ea54dcdb39971df898bb",
    (2, 3, 3, 5): "57ec2d65d93b12bc528609767e04b39761a7ec35e03c5cb1e572db8d7bb9cf3e",
    (2, 3, 3, 6): "aab9e50997d196ac58c61204c3c38d93483b8812c4f0ddb57f7a17ef8b7671fd",
    (2, 3, 3, 7): "512320f7461f409a4091278a7a939d13d51c757f5b8bc19021e1beed7f4738c4",
    (2, 3, 3, 8): "7b88780cd5262915384d521c8fff9abc89329500e5409fa29d1434933b2d1186",
    (2, 3, 3, 9): "49c63e5507b648e1f85ba2f18a4fbcc4014d2cb423bf0f166921f6ab7d2a4ade",
    (2, 3, 3, 10): "6e654c99ddf798a28931ef913930162a1da2f149b837b8fcabcc68c4def2299a",
    (2, 3, 3, 11): "0daac1f6fb40c54156806f1187bcb52c47a6feeb537d52b909e93895ae96d9ec",
    (2, 3, 3, 12): "220d2ed553f0220e6c9da3e39e11e28603a72deab0fb9beeab574030ab174d10",
    (2, 4, 2, 1): "746d5bb052fe50ddff7e8bcf3ad074bd709e187e9127aabd05e6a846556e88a3",
    (2, 4, 2, 2): "c2319518a4f0e5b3696144a5e900fc44d4fefe404ab160b2b0294f8ea71991c6",
    (2, 4, 2, 3): "d99d0d90d5f9b44c56e4278820fd77665ab65039c27d3e9b7b9fedc60b588414",
    (2, 4, 2, 4): "2c3886451e774125f470ebd12217cdd940726491b486c7884a400e62542495e7",
    (2, 4, 2, 5): "b4d2bcd5aaafcc68bfaf9d6a74ad1a9ed380876ab87184534f7803b8d80b509c",
    (2, 4, 2, 6): "d903b21e6faf5f1112c5053e5c11fd317ced52579995a3e39dbb223175134b58",
    (2, 4, 2, 7): "44d2935f12f0fe4987ba07f98e06397689aa35fc9a4a0e587b350eee6cedc73e",
    (2, 4, 2, 8): "0c9e3a5c2852ab6903e6070cac68302bd697ed7d09097a7dcd86119e0cd57dd7",
    (2, 4, 2, 9): "cd47fdcd15e8f61757fdfb753e53e4c90a27fa97d419211fec56a6ad841c9062",
    (2, 4, 2, 10): "533934c7eb6722b35812700c543f41accb02f4b40df28a3c51af8c1c420b3f92",
    (2, 4, 2, 11): "88f8f7a64709199c7bcabaef76bbba76bc23f462ba1c027296a77164b537db4d",
    (2, 4, 2, 12): "1df0a6557464a3f01f8559694d867e46c44f1e6bcab4bbde8f30561458f5ca7a",
}


def _contains_digest(spec, seed):
    def elem(e):
        return "(" + ", ".join(format_poly(p, spec.var_names) for p in e) + ")"

    gb = module_groebner(spec)
    rng = XorShift64Star(1_000 + seed)
    parts = [";".join(elem(b) for b in gb.basis)]
    for _ in range(3):
        got = contains(gb, random_field(rng, spec.nvars, 3))
        parts.append(f"{got.member} " + (elem(got.certificate) if got.member else ""))
    for _ in range(3):
        g1, g2 = random_poly(rng, spec.nvars, 2), random_poly(rng, spec.nvars, 2)
        got = contains(gb, spec.generators[0].scale(g1) + spec.generators[-1].scale(g2))
        assert got.member
        parts.append(elem(got.certificate))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("shape", list(CONTAINS_DIGESTS), ids=lambda s: "n{}k{}d{}-seed{}".format(*s))
def test_contains_results_match_golden_digests(shape):
    assert _contains_digest(_dense_spec(*shape), shape[3]) == CONTAINS_DIGESTS[shape]


def test_contains_agrees_with_bruteforce_oracle():
    rng = XorShift64Star(7_771)
    agree_member = agree_nonmember = 0
    for trial in range(100):
        nvars = rng.randint(1, 2)
        k = rng.randint(1, 3)
        gens = tuple(random_field(rng, nvars, 3) for _ in range(k))
        names = ("x", "y")[:nvars]
        spec = FoliationSpec(names, gens)
        if trial % 2 == 0:
            coeffs = [random_poly(rng, nvars, 1) for _ in range(k)]
            query = VectorField.zero(nvars)
            for f, g in zip(coeffs, gens):
                query = query + g.scale(f)
        else:
            query = random_field(rng, nvars, 4)
        gb = module_groebner(spec)
        got = contains(gb, query)
        oracle = brute_force_member(spec, query, degree_bound=4)
        if oracle is not None:
            assert got.member, "oracle found a combination but contains said no"
        if got.member:
            cert_deg = max((f.degree() for f in got.certificate), default=-1)
            if cert_deg <= 4:
                assert oracle is not None, "certificate within bound but oracle missed it"
            agree_member += 1
        else:
            assert oracle is None
            agree_nonmember += 1
    assert agree_member >= 20 and agree_nonmember >= 20


# -- involutivity ------------------------------------------------------------


def test_involutive_examples():
    assert is_involutive(sl2()).closed
    assert is_involutive(gl2()).closed
    assert is_involutive(cstar()).closed
    for k in range(1, 6):
        assert is_involutive(xk(k)).closed


def test_not_involutive_with_witness():
    report = is_involutive(nonintegrable())
    assert not report.closed
    assert len(report.witnesses) == 1
    w = report.witnesses[0]
    assert (w.i, w.j) == (1, 2)
    assert w.bracket == parse_vector_field("dy", ("x", "y"))


# -- syzygies ----------------------------------------------------------------


def test_syzygy_sl2_matches_hand_computation():
    spec = sl2()
    syz = syzygy_basis(spec)
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    hand = (x * y, -(x**2), y**2)
    # every computed relation annihilates the generators
    for rel in syz.relations:
        combo = VectorField.zero(2)
        for f, g in zip(rel, spec.generators):
            combo = combo + g.scale(f)
        assert combo.is_zero
    # and the computed family generates the same module as the hand relation
    assert span_equal(list(syz.relations), [hand], 2)


def test_syzygy_trivial_cases():
    for k in range(1, 4):
        assert syzygy_basis(xk(k)).relations == ()
    assert syzygy_basis(cstar()).relations == ()
    with pytest.raises(ArityError):
        syzygy_basis(FoliationSpec(("x",), ()))


def test_syzygy_gl2():
    spec = gl2()
    syz = syzygy_basis(spec)
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    zero = Poly.zero(2)
    hand = [(y, zero, -x, zero), (zero, x, zero, -y)]
    assert span_equal(list(syz.relations), hand, 2)


def test_syzygy_determinism():
    assert syzygy_basis(sl2()).relations == syzygy_basis(
        make_spec(("x", "y"), ("x*dx - y*dy", "y*dx", "x*dy"))
    ).relations


# -- pointwise dimensions ----------------------------------------------------


def test_fiber_dims_linear_examples():
    assert fiber_dim(sl2(), (0, 0)) == 3
    assert fiber_dim(gl2(), (0, 0)) == 4
    assert fiber_dim(gl2(), (1, 0)) == 2
    assert fiber_dim(cstar(), (0, 0)) == 2
    assert fiber_dim(FoliationSpec(("x", "y"), ()), (0, 0)) == 0


def test_tangent_dims():
    assert tangent_dim(sl2(), (0, 0)) == 0
    assert tangent_dim(sl2(), (1, 0)) == 2
    assert tangent_dim(cstar(), (1, 0)) == 2
    assert tangent_dim(FoliationSpec(("x", "y"), ()), (1, 1)) == 0


def test_isotropy_dims():
    assert isotropy_dim(sl2(), (0, 0)) == 3
    assert isotropy_dim(sl2(), (1, 0)) == 0
    assert isotropy_dim(xk(2), (0,)) == 1


def test_fiber_at_least_tangent_on_samples():
    rng = XorShift64Star(99)
    for spec in (sl2(), gl2(), cstar(), xk(3)):
        for _ in range(20):
            pt = tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(spec.nvars))
            assert fiber_dim(spec, pt) >= tangent_dim(spec, pt)


# -- singular locus ----------------------------------------------------------


def poly_set(report, spec):
    from foliations.vfparse import format_poly

    return sorted(format_poly(p, spec.var_names) for p in report.minor_ideal)


def test_singular_locus_examples():
    spec = gl2()
    rep = singular_locus(spec)
    assert rep.generic_rank == 2
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    wanted = {x * y, x**2, y**2}
    got = {p if p.terms[0][1] > 0 else -p for p in rep.minor_ideal}
    assert got == wanted

    rep = singular_locus(cstar())
    assert rep.generic_rank == 2
    assert len(rep.minor_ideal) == 1
    assert rep.minor_ideal[0] == x**2 + y**2

    for k in range(1, 4):
        rep = singular_locus(xk(k))
        assert rep.generic_rank == 1
        assert rep.minor_ideal == (Poly.variable(0, 1) ** k,)

    assert singular_locus(FoliationSpec(("x",), ())).generic_rank == 0


def test_singular_locus_counts_its_term_products(monkeypatch):
    # gl3 forms 54 cofactor term products over its 84 3x3 minors; with one
    # fewer allowed, the last minor is refused before that product is formed
    cap = "foliations.modalg._MAX_MINOR_PRODUCTS"
    monkeypatch.setattr(cap, 54)
    assert singular_locus(gl3()).generic_rank == 3
    monkeypatch.setattr(cap, 53)
    with pytest.raises(BudgetError, match=r"more than 53 term products \(83 minors done\)"):
        singular_locus(gl3())


def test_singular_locus_counts_its_minors(monkeypatch):
    # gl3 visits 84 3x3 minors; with one fewer allowed, the last minor is
    # refused before it is expanded
    cap = "foliations.modalg._MAX_MINORS"
    monkeypatch.setattr(cap, 84)
    assert singular_locus(gl3()).generic_rank == 3
    monkeypatch.setattr(cap, 83)
    with pytest.raises(BudgetError, match=r"more than 83 minors \(83 minors done\)"):
        singular_locus(gl3())


def test_singular_locus_consistency_at_samples():
    rng = XorShift64Star(55)
    # so3 has generic rank 2 < min(k, n); the shifted gl2 has rank 0 at the
    # point (1, 2) where the minor scan takes its starting size
    shifted = make_spec(("x", "y"), ("(x-1)*dx", "(y-2)*dy", "(y-2)*dx", "(x-1)*dy"))
    for spec in (sl2(), gl2(), cstar(), so3(), shifted):
        rep = singular_locus(spec)
        for _ in range(25):
            pt = tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(spec.nvars))
            minors_vanish = all(m(pt) == 0 for m in rep.minor_ideal)
            if minors_vanish:
                assert tangent_dim(spec, pt) < rep.generic_rank
            else:
                assert tangent_dim(spec, pt) == rep.generic_rank


# -- minimal local generators -------------------------------------------------


def test_minimal_local_generators_examples():
    assert minimal_local_generators(sl2(), (1, 0)) == (1, 3)
    assert minimal_local_generators(sl2(), (0, 0)) == (1, 2, 3)
    assert minimal_local_generators(xk(3), (0,)) == (1,)
    with pytest.raises(ArityError):
        minimal_local_generators(FoliationSpec(("x",), ()), (0,))


def test_rank_exact():
    one = Fraction(1)
    assert rank_exact([[one, one], [one, one]]) == 1
    assert rank_exact([[one, 0], [0, one]]) == 2
    assert rank_exact([]) == 0
    assert rank_exact([[Fraction(0)]]) == 0


def test_as_point_returns_the_exact_tuple():
    pt = as_point(("1/2", 0.25, 3), 3)
    assert pt == (Fraction(1, 2), Fraction(1, 4), Fraction(3)) and type(pt) is tuple
    with pytest.raises(ArityError):
        as_point(pt, 2)
    # the pointwise functions scale it to integers over the lcm of its denominators
    assert _over_lcm(as_point(("1/2", 0.25, 3), 3)) == ([2, 1, 12], 4)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_point_coordinate_is_refused(bad):
    # Fraction(nan) is a ValueError and Fraction(inf) an OverflowError; every
    # pointwise function refuses both as a precondition
    spec = sl2()
    for fn in (tangent_dim, fiber_dim, isotropy_dim, minimal_local_generators):
        with pytest.raises(PreconditionError, match="^point coordinate is not finite$"):
            fn(spec, (bad, 0))
    with pytest.raises(PreconditionError, match="^point coordinate is not finite$"):
        chart_rank_check(chart_at(spec, (1.0, 0.0)), (1, 0), [(0, bad)])


def _random_matrix(rng, nrows, ncols):
    """Int or Fraction entries; some columns zero, some rows combinations of others."""
    entry = (lambda: rng.randint(-9, 9)) if rng.randint(0, 1) else (lambda: random_fraction(rng))
    m = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for c in range(ncols):
        if rng.uniform() < 0.2:
            for row in m:
                row[c] = 0
    for r in range(2, nrows):
        if rng.uniform() < 0.4:
            a, b = m[rng.randint(0, r - 1)], m[rng.randint(0, r - 1)]
            s, t = entry(), entry()
            m[r] = [s * x + t * y for x, y in zip(a, b)]
    for r in range(nrows - 1, 0, -1):  # move the planted rows anywhere
        j = rng.randint(0, r)
        m[r], m[j] = m[j], m[r]
    return m


def _greedy_rows(rows, base=()):
    """Indices of the ``rows`` not in the span of ``base`` and the rows
    before them, by ``rank_oracle``."""
    picked = []
    for i, row in enumerate(rows):
        kept = [*base, *(rows[j] for j in picked)]
        if rank_oracle(kept + [row]) > rank_oracle(kept):
            picked.append(i)
    return picked


def test_rank_exact_matches_oracle_fuzz():
    rng = XorShift64Star(2_024)
    ranks = set()
    for _ in range(400):
        m = _random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
        want = rank_oracle(m)
        assert rank_exact(m) == want
        ranks.add((want < min(len(m), len(m[0])), want))
        # the pivots are the greedy rows, and the greedy columns of those rows
        dens = [lcm(*(Fraction(v).denominator for v in row)) for row in m]
        rows, cols = _pivots([[int(v * d) for v in row] for row, d in zip(m, dens)])
        assert rows == _greedy_rows(m)
        assert cols == _greedy_rows(list(zip(*(m[i] for i in rows))))
        assert rank_oracle([[m[i][j] for j in cols] for i in rows]) == len(rows) == want
    assert len(ranks) > 12  # full and deficient ranks of many sizes


def test_rank_exact_entries_stay_minors():
    # fraction-free elimination divides each step exactly by the previous
    # pivot, so every entry stays a minor of the input, here under 400 bits
    # by Hadamard's bound; without that division the entries double in
    # length at every step, to about 80 kB each by the last one
    rng = XorShift64Star(5)
    for zeros in (0.0, 0.5):  # dense, and with zeros under many pivots
        m = [
            [rng.randint(-(2**20), 2**20) if rng.uniform() >= zeros else 0 for _ in range(16)]
            for _ in range(16)
        ]
        want = rank_oracle(m)
        tracemalloc.start()
        try:
            got = rank_exact(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want == 16
        assert peak < 256 * 1024


# shifted copies of sl2 and so3 vanish at SHIFT, a point with denominators,
# and their syzygies are not homogeneous
SHIFT = (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5))
X, Y, Z = (f"({v} - ({c}))" for v, c in zip("xyz", SHIFT))

POINTWISE_SPECS = {
    "so3": so3,
    "gl3": gl3,
    "sl2": sl2,
    "xk3": lambda: xk(3),
    "sl2-shifted": lambda: make_spec(("x", "y"), (f"{X}*dx - {Y}*dy", f"{Y}*dx", f"{X}*dy")),
    "so3-shifted": lambda: make_spec(
        ("x", "y", "z"), (f"-{Y}*dx + {X}*dy", f"-{Z}*dy + {Y}*dz", f"{Z}*dx - {X}*dz")
    ),
    "random-n2k2d2": lambda: FoliationSpec(
        ("x", "y"), tuple(random_field(XorShift64Star(31), 2, 2) for _ in range(2))
    ),
    "random-n2k3d2": lambda: FoliationSpec(
        ("x", "y"), tuple(random_field(XorShift64Star(32), 2, 2) for _ in range(3))
    ),
}


@pytest.mark.parametrize("name", sorted(POINTWISE_SPECS))
def test_pointwise_dims_match_oracle_fuzz(name):
    spec = POINTWISE_SPECS[name]()
    n = spec.nvars
    rng = XorShift64Star(sum(map(ord, name)))
    points = [(0,) * n, (1,) + (0,) * (n - 1), SHIFT[:n], (SHIFT[0],) + (Fraction(-2, 7),) * (n - 1)]
    points += [tuple(random_fraction(rng) for _ in range(n)) for _ in range(20)]
    points += [(0.1, -2.5, 0.3)[:n], (1e-3, 7.0, -0.25)[:n]]
    points += [tuple(rng.symmetric() for _ in range(n)) for _ in range(3)]
    rels = syzygy_basis(spec).relations
    for pt in points:
        # the oracle evaluates with Poly.__call__ at the exact rational point
        q = tuple(map(Fraction, pt))
        rel_rows = [[p(q) for p in rel] for rel in rels]
        fiber = spec.k - rank_oracle(rel_rows)
        tangent = rank_oracle([g(q) for g in spec.generators])
        assert (fiber_dim(spec, pt), tangent_dim(spec, pt)) == (fiber, tangent), pt
        assert isotropy_dim(spec, pt) == fiber - tangent
        # the picked generators are the lowest-index ones whose classes are
        # independent, and complete the evaluated relations to a basis
        picked = minimal_local_generators(spec, pt)
        units = [[int(j == i) for j in range(spec.k)] for i in range(spec.k)]
        assert list(picked) == [i + 1 for i in _greedy_rows(units, rel_rows)]
        assert len(picked) == fiber
        assert rank_oracle(rel_rows + [units[i - 1] for i in picked]) == spec.k


def test_pointwise_ranks_of_long_and_high_degree_polynomials():
    # 3,600 terms in one component, and terms of degree 3,000: both beyond a
    # single chain of additions or multiplications that Python compiles
    wide = Poly(3, [((i, j, 0), Fraction(1, 1 + i + j)) for i in range(60) for j in range(60)])
    deep = Poly(3, [((1000, 1000, 1000), 1), ((0, 0, 0), -1)])
    zero = Poly.zero(3)
    points = ((1, 1, 1), (-1, -1, 1), (Fraction(1, 2), 1, 1), (Fraction(1, 2), Fraction(-1, 3), 0))
    for p in (wide, deep):
        spec = FoliationSpec(("x", "y", "z"), (VectorField((p, zero, zero)),))
        for pt in points:
            assert tangent_dim(spec, pt) == rank_oracle([spec.generators[0](pt)])
            assert fiber_dim(spec, pt) == 1
    assert tangent_dim(spec, (1, 1, 1)) == 0


def test_certificate_check_survives_python_O():
    # a corrupted representation table must still be caught with asserts stripped
    proc = run_python(
        "import sys\n"
        "from foliations.modalg import ModuleGB, contains, module_groebner\n"
        "from foliations.vfparse import Poly\n"
        "from helpers import sl2\n"
        "spec = sl2()\n"
        "gb = module_groebner(spec)\n"
        "zero = tuple(Poly.zero(spec.nvars) for _ in range(spec.k))\n"
        "bad = ModuleGB(gb.source, gb.basis, (zero,) * len(gb.reprs))\n"
        "try:\n"
        "    contains(bad, spec.generators[0])\n"
        "except AssertionError as e:\n"
        "    print(sys.flags.optimize, e)\n",
        "-O",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 internal error: membership certificate failed verification\n"


# each re-verification raise, fired in process by a planted wrong answer, so
# that the line collector of tests/line_coverage.py sees it run


def test_certificate_check_fires():
    spec = sl2()
    gb = module_groebner(spec)
    zero = tuple(Poly.zero(spec.nvars) for _ in range(spec.k))
    bad = ModuleGB(gb.source, gb.basis, (zero,) * len(gb.reprs))
    with pytest.raises(AssertionError, match="^internal error: membership certificate failed verification$"):
        contains(bad, spec.generators[0])


def test_relation_check_fires(monkeypatch):
    # one basis element with zero value components: its relation block,
    # (1, 0, 0), says the first generator is zero, which it is not
    spec = sl2()
    n, k = spec.nvars, spec.k
    wrong = (*(Poly.zero(n) for _ in range(n)), Poly.constant(1, n), *(Poly.zero(n) for _ in range(k - 1)))
    monkeypatch.setattr(modalg, "_groebner", lambda *args: ([wrong], ()))
    with pytest.raises(AssertionError, match="^internal error: relation does not annihilate the generators$"):
        syzygy_basis(spec)


def test_witness_check_fires(monkeypatch):
    monkeypatch.setattr(modalg, "_det", lambda mat, spent: Poly.zero(2))
    with pytest.raises(AssertionError, match="^internal error: the witness minor vanishes at its own point$"):
        list(modalg._dims(sl2(), [(1, 0), (0, 1)], 1))


def test_module_gb_repr_and_membership_truth_are_pinned():
    gb = module_groebner(sl2())
    assert repr(gb) == (
        "ModuleGB(source=FoliationSpec(vars=x y; x*dx - y*dy; y*dx; x*dy), "
        "basis=((Poly<0>, Poly<x1^2>), (Poly<x0>, Poly<-x1>), (Poly<0>, Poly<x0>), (Poly<x1>, Poly<0>)))"
    )
    # a MembershipResult is true exactly when the field is a member
    assert bool(contains(gb, parse_vector_field("x^2*dx", ("x", "y")))) is True
    assert bool(contains(gb, parse_vector_field("dx", ("x", "y")))) is False
