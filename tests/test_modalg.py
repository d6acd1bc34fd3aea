"""Groebner/syzygy machinery and pointwise invariants."""

from fractions import Fraction

import pytest

from foliations.errors import ArityError, BudgetError
from foliations.flow import XorShift64Star
from foliations.modalg import (
    Budget,
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
from foliations.vfparse import FoliationSpec, Poly, VectorField, parse_vector_field

from helpers import (
    brute_force_member,
    cstar,
    gl2,
    make_spec,
    nonintegrable,
    random_field,
    random_poly,
    run_python,
    sl2,
    xk,
)


def span_equal(spec_vars, rels_a, rels_b, nvars):
    """Mutual membership of two relation families in each other's module."""
    from foliations.modalg import _groebner, _lead, _reduce, _top_key, DEFAULT_BUDGET, _is_zero

    def contains_all(base, others):
        if not base:
            return all(all(p.is_zero for p in r) for r in others)
        basis, _ = _groebner(list(base), nvars, _top_key, DEFAULT_BUDGET)
        leads = [_lead(b, _top_key) for b in basis]
        for r in others:
            rem, _ = _reduce(r, list(basis), leads, _top_key, [0], DEFAULT_BUDGET)
            if not _is_zero(rem):
                return False
        return True

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
    # autoreduced: no leading term of one element divides any term of another
    from foliations.modalg import _lead, _top_key, _divides

    leads = [_lead(b, _top_key) for b in gb1.basis]
    for i, elem in enumerate(gb1.basis):
        for j, lj in enumerate(leads):
            if i == j:
                continue
            for p_pos, p in enumerate(elem):
                for expt, _ in p.terms:
                    if p_pos == lj[1]:
                        assert not _divides(lj[2], expt)


def test_budget_error_is_raised():
    with pytest.raises(BudgetError):
        module_groebner(make_spec(("x", "y"), ("x^3*dx", "y^3*dx", "(x + y)*dx")),
                        Budget(max_pair_degree=2))
    with pytest.raises(BudgetError):
        module_groebner(make_spec(("x", "y"), ("x^3*dx", "y^3*dx", "(x + y)*dx")),
                        Budget(max_reduction_steps=1))


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


def test_contains_zero_field_and_zero_module():
    gb = module_groebner(FoliationSpec(("x",), ()))
    assert contains(gb, VectorField.zero(1)).member
    assert not contains(gb, parse_vector_field("x*dx", ("x",))).member


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
    assert span_equal(spec.var_names, list(syz.relations), [hand], 2)


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
    assert span_equal(spec.var_names, list(syz.relations), hand, 2)


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


def test_singular_locus_consistency_at_samples():
    rng = XorShift64Star(55)
    for spec in (sl2(), gl2(), cstar()):
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


def test_certificate_check_survives_python_O():
    # a corrupted representation table must still be caught with asserts stripped
    proc = run_python(
        "import dataclasses, sys\n"
        "from foliations.modalg import contains, module_groebner\n"
        "from foliations.vfparse import Poly\n"
        "from helpers import sl2\n"
        "spec = sl2()\n"
        "gb = module_groebner(spec)\n"
        "zero = tuple(Poly.zero(spec.nvars) for _ in range(spec.k))\n"
        "bad = dataclasses.replace(gb, reprs=(zero,) * len(gb.reprs))\n"
        "try:\n"
        "    contains(bad, spec.generators[0])\n"
        "except AssertionError as e:\n"
        "    print(sys.flags.optimize, e)\n",
        "-O",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 internal error: membership certificate failed verification\n"
