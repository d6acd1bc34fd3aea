"""Parser, printer, derivative and Lie-bracket tests, and the value types' protocols."""

import copy
import pickle
from fractions import Fraction
from math import comb

import pytest

from foliations import vfparse
from foliations.errors import ArityError, BudgetError, ParseError, UnknownVariableError
from foliations.vfparse import (
    _MAX_EXPONENT,
    _MAX_POWER_PRODUCTS,
    FoliationSpec,
    Poly,
    VectorField,
    differentiate,
    format_vector_field,
    lie_bracket,
    parse_vector_field,
)
from foliations.flow import FlowWord, XorShift64Star, chart_at
from foliations.modalg import module_groebner, syzygy_basis

from helpers import power_oracle, product_oracle, random_field, random_poly, run_python

XY = ("x", "y")


def P(text, vars=XY):
    return parse_vector_field(text, vars)


def test_parse_basic_examples():
    f = P("x*dx - y*dy")
    assert f.components[0] == Poly.variable(0, 2)
    assert f.components[1] == -Poly.variable(1, 2)

    g = P("y*dx")
    assert g.components[0] == Poly.variable(1, 2)
    assert g.components[1].is_zero

    h = parse_vector_field("x^2*dx", ("x",))
    assert h.components[0] == Poly.variable(0, 1) ** 2


def test_parse_rational_and_parens():
    f = P("(x^2 - 1/2*y)*dx + 3*dy")
    x2 = Poly.variable(0, 2) ** 2
    assert f.components[0] == x2 - Poly.variable(1, 2) * Fraction(1, 2)
    assert f.components[1] == Poly.constant(3, 2)


def test_parse_bare_differential_and_leading_minus():
    assert P("dx").components[0] == Poly.constant(1, 2)
    assert P("-dx").components[0] == Poly.constant(-1, 2)
    assert P("-x*dx + dy").components[0] == -Poly.variable(0, 2)


def test_parse_whitespace_insensitive():
    assert P(" x * dx\t-\ny * dy ") == P("x*dx-y*dy")


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as exc:
        P("x*dx + + ")
    assert exc.value.column is not None

    with pytest.raises(UnknownVariableError) as exc:
        P("z*dx")
    assert exc.value.name == "z"

    with pytest.raises(UnknownVariableError):
        P("x*dz")

    with pytest.raises(ParseError):
        P("x + y")  # no differential

    with pytest.raises(ParseError):
        P("dx*dy")  # differential squared

    with pytest.raises(ParseError):
        P("x/y*dx")  # non-constant divisor

    with pytest.raises(ParseError):
        P("1/0*dx")

    with pytest.raises(ParseError):
        P("")


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("", "empty expression", 1),
        ("+", "empty expression", 2),
        ("x*dx +", "trailing operator", 7),
        ("x + y", "term has no differential direction (expected '*d<var>')", 1),
        ("(x + dx)", "term mixes scalar and differential parts", 1),
        ("dx/dx", "cannot divide by a differential", 3),
        ("x*dx )", "unexpected token ')'", 6),
        # a superscript digit is a digit but not a decimal one
        ("²*dx", "unexpected character '²'", 1),
        ("2²*dx", "unexpected character '²'", 2),
        # the parser stops at the 101st '('
        *(
            pytest.param(
                "(" * d + "x" + ")" * d + "*dx", "parentheses nested deeper than 100", 101, id=f"depth-{d}"
            )
            for d in (101, 300)
        ),
    ],
)
def test_top_level_parse_error_messages_and_columns(text, message, column):
    with pytest.raises(ParseError) as exc:
        P(text)
    assert (exc.value.message, exc.value.column) == (message, column)
    assert str(exc.value) == f"{message} (column {column})"


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: FoliationSpec(()), ArityError, "at least one variable is required"),
        (lambda: FoliationSpec(("x", "x")), ParseError, "variable names must be distinct"),
        (lambda: FoliationSpec(("x", "1y")), ParseError, "invalid variable name '1y'"),
        (lambda: FoliationSpec(XY, (P("dx").components,)), TypeError, "generators must be VectorField instances"),
        (lambda: FoliationSpec(XY, (VectorField((Poly.zero(1),)),)), ArityError, "generator has 1 components, expected 2"),
        (lambda: VectorField(()), ArityError, "a vector field needs at least one component"),
        (lambda: VectorField((Poly.zero(1), 0)), TypeError, "components must be Poly instances"),
        (lambda: VectorField((Poly.zero(1), Poly.zero(2))), ArityError, "all components must share the same number of variables"),
        (lambda: VectorField((Poly.zero(2),)), ArityError, "1 components for 2 variables"),
    ],
    ids=["no-variables", "repeated-name", "invalid-name", "not-a-field", "field-arity", "no-components",
         "not-a-poly", "mixed-nvars", "component-count"],
)
def test_constructors_refuse_bad_arguments(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error and str(exc.value) == message


def test_deep_parentheses_and_decimal_digits_parse():
    assert P("(" * 100 + "x" + ")" * 100 + "*dx") == P("x*dx")
    assert P("٣*dx") == P("3*dx")  # ARABIC-INDIC DIGIT THREE


def test_differentiate_examples():
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    assert differentiate(x**2 * y, 0) == 2 * x * y
    assert differentiate(x**2, 1).is_zero
    assert differentiate(x**2 + 3 * x, 0) == 2 * x + 3
    with pytest.raises(ArityError):
        differentiate(x, 5)


def test_bracket_examples():
    assert lie_bracket(P("y*dx"), P("x*dy")) == P("-x*dx + y*dy")
    assert lie_bracket(P("dx"), P("x*dy")) == P("dy")
    f = P("(x^2 - y)*dx + x*y*dy")
    assert lie_bracket(f, f).is_zero


def test_bracket_arity_mismatch():
    with pytest.raises(ArityError):
        lie_bracket(P("x*dx"), parse_vector_field("x*dx", ("x",)))


def test_roundtrip_fuzz():
    rng = XorShift64Star(101)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        names = XY[:nvars] if nvars <= 2 else ("x", "y", "z")
        f = random_field(rng, nvars, max_deg=4)
        text = format_vector_field(f, names)
        assert parse_vector_field(text, names) == f


def test_bracket_antisymmetry_and_jacobi_fuzz():
    rng = XorShift64Star(202)
    for _ in range(40):
        x = random_field(rng, 2, 2)
        y = random_field(rng, 2, 2)
        z = random_field(rng, 2, 2)
        assert (lie_bracket(x, y) + lie_bracket(y, x)).is_zero
        jac = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert jac.is_zero


def test_bracket_leibniz_fuzz():
    rng = XorShift64Star(303)
    for _ in range(40):
        x = random_field(rng, 2, 2)
        y = random_field(rng, 2, 2)
        f = random_poly(rng, 2, 2)
        lhs = lie_bracket(x, y.scale(f))
        rhs = lie_bracket(x, y).scale(f) + y.scale(x.apply_to(f))
        assert lhs == rhs


def test_bracket_operator_identity_fuzz():
    # independent route: [X,Y] f == X(Y f) - Y(X f) for random test functions
    rng = XorShift64Star(404)
    for _ in range(25):
        x = random_field(rng, 2, 2)
        y = random_field(rng, 2, 2)
        br = lie_bracket(x, y)
        for _ in range(3):
            f = random_poly(rng, 2, 3)
            assert br.apply_to(f) == x.apply_to(y.apply_to(f)) - y.apply_to(x.apply_to(f))


def test_poly_canonical_representation():
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    a = x * y + x**2 + y**2
    b = y**2 + x**2 + y * x
    assert a == b and hash(a) == hash(b)
    assert a.terms == b.terms
    # grevlex-descending ordering of equal-degree terms: x^2, xy, y^2
    assert [e for e, _ in a.terms] == [(2, 0), (1, 1), (0, 2)]


def test_poly_zero_terms_dropped():
    x = Poly.variable(0, 1)
    assert (x - x).is_zero
    assert (x - x).terms == ()


def _derivative_terms(p, i):
    return [
        (e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i]) for e, c in p.terms if e[i]
    ]


def _assert_canonical(result, n, naive_terms):
    expected = Poly(n, naive_terms)
    assert result.terms == expected.terms
    assert hash(result) == hash(expected)


def test_arithmetic_matches_validating_constructor_fuzz():
    # every result of the trusted paths equals the public constructor's
    # merge-and-sort of the naive term list, terms and hash alike
    rng = XorShift64Star(60_606)
    for _ in range(150):
        n = rng.randint(1, 3)
        a = random_poly(rng, n, 4, rng.randint(0, 6))
        b = random_poly(rng, n, 4, rng.randint(0, 6))
        cut = rng.randint(0, len(a.terms))
        partial = Poly(n, [(e, -c) for e, c in a.terms[:cut]] + list(b.terms))
        for q in (b, a, -a, partial):
            _assert_canonical(a + q, n, a.terms + q.terms)
            _assert_canonical(a - q, n, a.terms + tuple((e, -c) for e, c in q.terms))
            _assert_canonical(a * q, n, product_oracle(a, q).terms)
            _assert_canonical(q * a, n, product_oracle(q, a).terms)
        assert (a - a).terms == () and (a + (-a)).terms == ()
        assert (a + partial).terms == Poly(n, a.terms[cut:] + b.terms).terms
        k = rng.randint(-3, 3)
        _assert_canonical(a + k, n, a.terms + (((0,) * n, k),))
        _assert_canonical(k - a, n, (((0,) * n, k),) + tuple((e, -c) for e, c in a.terms))
        _assert_canonical(-a, n, [(e, -c) for e, c in a.terms])
        mon = tuple(rng.randint(0, 2) for _ in range(n))
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        _assert_canonical(a.mul_term(mon, coeff), n, [
            (tuple(x + y for x, y in zip(e, mon)), c * coeff) for e, c in a.terms
        ])
        i = rng.randint(0, n - 1)
        _assert_canonical(a.differentiate(i), n, _derivative_terms(a, i))


def _mixed_poly(rng, n, deg, n_terms):
    # rational coefficients over several denominators
    return Poly(n, [(e, c / rng.randint(1, 9)) for e, c in random_poly(rng, n, deg, n_terms).terms])


def test_products_and_powers_match_the_fraction_oracle_fuzz():
    # the products run on integer numerators; each result equals the
    # term-by-term product in Fractions, terms and hash alike
    rng = XorShift64Star(14_014)
    for _ in range(80):
        n = rng.randint(1, 3)
        a = _mixed_poly(rng, n, 3, rng.randint(0, 5))
        b = _mixed_poly(rng, n, 3, rng.randint(0, 5))
        for p, q in ((a, b), (b, a), (a, a), (a, -b)):
            _assert_canonical(p * q, n, product_oracle(p, q).terms)
        e = rng.randint(0, 6)
        _assert_canonical(a**e, n, power_oracle(a, e).terms)
        _assert_canonical(b**e, n, power_oracle(b, e).terms)


def test_power_of_one_term_is_one_term(monkeypatch):
    y = Poly.variable(1, 2)
    one_term = (y, Poly.term(2, (1, 2), Fraction(-2, 3)), Poly.constant(Fraction(5, 7), 2), Poly.zero(2))
    for p in one_term:
        for e in (0, 1, 2, 7, 30):
            _assert_canonical(p**e, 2, power_oracle(p, e).terms)

    def no_products(*args):
        raise AssertionError("a one-term power formed a product")

    monkeypatch.setattr("foliations.vfparse._product_terms", no_products)
    monkeypatch.setattr(Poly, "mul_term", no_products)
    monkeypatch.setattr(Poly, "_times", no_products)
    assert (y**1000).terms == (((0, 1000), Fraction(1)),)
    assert (Poly.term(2, (1, 2), Fraction(-2, 3)) ** 3).terms == (((3, 6), Fraction(-8, 27)),)
    monkeypatch.undo()
    assert P("y^1000*dx").components[0] == y**1000


@pytest.mark.parametrize(
    "terms, error",
    [
        ([((1,), 1)], ArityError),
        ([((1, -1), 1)], ArityError),
        ([((1, 0), 0.5)], TypeError),
    ],
    ids=["wrong-length-exponent", "negative-exponent", "float-coefficient"],
)
def test_public_poly_constructor_validates(terms, error):
    with pytest.raises(error):
        Poly(2, terms)


def test_mul_term_validates_the_monomial():
    x = Poly.variable(0, 2)
    for bad in ((1,), (1, 0, 0), (1, -1)):
        with pytest.raises(ArityError):
            x.mul_term(bad, 1)
    with pytest.raises(TypeError):
        x.mul_term((1, 0), 0.5)


def test_poly_constructors_check_their_arguments():
    # zero, constant and variable skip the validating constructor but keep its checks
    for make in (lambda: Poly.zero(0), lambda: Poly.constant(1, 0), lambda: Poly.constant(0, 0),
                 lambda: Poly.variable(2, 2), lambda: Poly.variable(-1, 2)):
        with pytest.raises(ArityError):
            make()
    with pytest.raises(TypeError):
        Poly.constant(0.5, 2)
    assert Poly.zero(2).terms == Poly(2).terms == ()
    assert Poly.constant(0, 2).terms == ()
    assert Poly.constant(Fraction(-3, 2), 2).terms == Poly(2, [((0, 0), Fraction(-3, 2))]).terms
    assert Poly.variable(1, 3).terms == Poly(3, [((0, 1, 0), 1)]).terms


def test_parsing_builds_no_validated_poly_per_variable(monkeypatch):
    # the absent components share one zero, and no Poly is validated term by
    # term: a field over 1,000 variables costs no more Poly constructions
    # than one over 10 (13, 103 and 1,003 when each absent component was a
    # fresh Poly(nvars, ()))
    counts = []
    init = Poly.__init__
    for nvars in (10, 100, 1000):
        calls = [0]

        def counted(self, *args, calls=calls):
            calls[0] += 1
            init(self, *args)

        monkeypatch.setattr(Poly, "__init__", counted)
        field = P("x0*dx0", tuple(f"x{i}" for i in range(nvars)))
        monkeypatch.undo()
        assert field == VectorField((Poly.variable(0, nvars),) + (Poly.zero(nvars),) * (nvars - 1))
        counts.append(calls[0])
    assert counts[0] == counts[1] == counts[2]


def test_parsing_checks_no_exponent_of_a_product(monkeypatch):
    # a product by a one-term factor trusts the factor's canonical term:
    # parsing x0*dx0 checked two exponent vectors of all n entries (through
    # mul_term) before that
    check = vfparse._check_expt
    for nvars in (10, 100, 1000):
        calls = []

        def counted(*args, calls=calls):
            calls.append(args)
            check(*args)

        monkeypatch.setattr(vfparse, "_check_expt", counted)
        field = P("x0*dx0", tuple(f"x{i}" for i in range(nvars)))
        monkeypatch.undo()
        assert field.components[0] == Poly.variable(0, nvars)
        assert len(calls) == 0


@pytest.mark.parametrize(
    "component, coeff, expt, text",
    [
        (0, 1, (0, 0), "dx"),
        (0, -1, (0, 0), "-dx"),
        (0, 3, (0, 0), "3*dx"),
        (0, Fraction(-1, 2), (0, 0), "-1/2*dx"),
        (1, 1, (1, 0), "x*dy"),
        (1, -1, (2, 0), "-x^2*dy"),
        (0, 2, (1, 1), "2*x*y*dx"),
        (0, 0, (0, 0), "0*dx"),
    ],
)
def test_format_one_term_components(component, coeff, expt, text):
    comps = [Poly.zero(2), Poly.zero(2)]
    comps[component] = Poly.term(2, expt, coeff)
    assert format_vector_field(VectorField(comps), XY) == text


def test_format_joins_components_and_parenthesizes_sums():
    assert format_vector_field(P("-dx + x^2*dy"), XY) == "-dx + x^2*dy"
    assert format_vector_field(P("2*dx - 1/3*y*dy"), XY) == "2*dx - 1/3*y*dy"
    assert format_vector_field(P("(1 - x)*dx - dy"), XY) == "(-x + 1)*dx - dy"


def test_zero_field_roundtrip():
    zero = VectorField.zero(2)
    assert parse_vector_field(format_vector_field(zero, XY), XY) == zero


def test_evaluation_exact_and_float():
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    p = x**2 - Fraction(1, 2) * y
    assert p((Fraction(1, 2), Fraction(1))) == Fraction(-1, 4)
    assert abs(p((0.5, 1.0)) - (-0.25)) < 1e-15


def test_power_caps():
    # the corpus powers and larger ones parse: (x+y+1)^e has C(e+2, 2) terms
    for e in (13, 40):
        assert len(P(f"(x + y + 1)^{e}*dx").components[0].terms) == comb(e + 2, 2)
    assert P(f"x^{_MAX_EXPONENT}*dx").components[0].degree() == _MAX_EXPONENT
    with pytest.raises(BudgetError, match="exponent"):
        P(f"x^{_MAX_EXPONENT + 1}*dx")
    # (x+y+1)^60 would form up to 60 * 3 * C(62, 2) term products
    assert 60 * 3 * 1891 > _MAX_POWER_PRODUCTS > 40 * 3 * 861
    with pytest.raises(BudgetError, match="term products"):
        P("(x + y + 1)^60*dx")
    # a differential power stays a parse error, whatever the exponent
    with pytest.raises(ParseError, match="differential"):
        P("dx^1000000000")


def test_each_distinct_power_is_expanded_once(monkeypatch):
    # a member text of the benchmark corpus holds one (x + y + 1)^13 per
    # generator; one parse expands each distinct (base, exponent) once, by
    # the integer power routine that Poly.__pow__ shares
    expanded = []
    power = vfparse._int_power

    def counted(terms, e):
        expanded.append(e)
        return power(terms, e)

    monkeypatch.setattr(vfparse, "_int_power", counted)
    base = "(x + y + 1)^13"
    text = " + ".join(f"{base}*({c}/4)*x*dx" for c in (1, -3, 5, 7)) + " + (y+x+1)^13*dy + (x+1)^13*dy"
    field = P(text)
    assert sorted(expanded) == [13, 13]  # (x + y + 1)^13 and (x + 1)^13
    monkeypatch.undo()
    assert field == P(f"(5/2)*{base}*x*dx + ({base} + (x+1)^13)*dy")
    # each occurrence is still charged: one (x+y)^350 fits the budget, two do not
    P("(x+y)^350*dx")
    with pytest.raises(BudgetError, match="245700 term products, 491751 in all"):
        P("(x+y)^350*dx + (x+y)^350*dy")


def test_product_cap_counts_every_product(monkeypatch):
    # one running count per parse: each '*' adds len(a) * len(b), differential
    # parts included, and is refused before it multiplies once the count passes the cap
    cap = "foliations.vfparse._MAX_POWER_PRODUCTS"
    cube = "(x+1)*(x+1)*(x+1)*dx"  # 4 + 6 + 4 = 14 term products
    diff = "dx*(x+1)*(x+1)"  # 2 + 4 = 6
    monkeypatch.setattr(cap, 14)
    assert P(cube) == P("(x^3 + 3*x^2 + 3*x + 1)*dx")
    assert P(cube) == P("(x^3 + 3*x^2 + 3*x + 1)*dx")  # the count starts again
    monkeypatch.setattr(cap, 13)
    with pytest.raises(BudgetError, match="14 term products") as exc:
        P(cube)
    assert exc.value.column == 18  # the last '*'
    monkeypatch.setattr(cap, 6)
    assert P(diff) == P("(x^2 + 2*x + 1)*dx")
    monkeypatch.setattr(cap, 5)
    with pytest.raises(BudgetError, match="6 term products") as exc:
        P(diff)
    assert exc.value.column == 9


def test_reprs_are_pinned():
    field = parse_vector_field("x^2*dx - 1/2*y*dy", XY)
    assert repr(field.components[0]) == "Poly<x0^2>"
    assert repr(field) == "VectorField<x0^2*dx0 - 1/2*x1*dx1>"
    spec = FoliationSpec(XY, (parse_vector_field("x*dx - y*dy", XY), parse_vector_field("y*dx", XY)))
    assert repr(spec) == "FoliationSpec(vars=x y; x*dx - y*dy; y*dx)"
    assert repr(FoliationSpec(("x",))) == "FoliationSpec(vars=x; 0)"


def test_vector_field_difference_and_negation():
    x = parse_vector_field("x*dx + y*dy", XY)
    y = parse_vector_field("y*dx - 2*dy", XY)
    assert x - y == parse_vector_field("(x - y)*dx + (y + 2)*dy", XY)
    assert -x == parse_vector_field("-x*dx - y*dy", XY)
    assert x - x == VectorField.zero(2) and -(-x) == x
    assert x.__sub__(x.components[0]) is NotImplemented


def test_rare_error_branches_and_edge_parses():
    for make in (lambda: Poly(0), lambda: Poly.zero(0)):
        with pytest.raises(ArityError, match="^nvars must be positive$"):
            make()
    x = Poly.variable(0, 2)
    with pytest.raises(ValueError, match="^polynomial is not constant$"):
        x.constant_value()
    assert Poly.zero(2).constant_value() == 0
    assert Poly.constant(Fraction(-3, 4), 2).constant_value() == Fraction(-3, 4)
    with pytest.raises(ArityError, match="^point has 1 coordinates, expected 2$"):
        x((1,))
    # a differential to the power 1 is itself; the zero polynomial's power is zero
    assert P("dx^1") == P("dx")
    assert P("(x-x)^2*dx") == VectorField.zero(2)
    # a power 0 is the constant 1, of the zero polynomial too, and forms no product
    assert P("(x/3 + y)^0*dx + (x-x)^0*dy") == P("dx + dy")


def _values():
    """One of each immutable value type, by name."""
    x = parse_vector_field("x^2*dx - 1/2*y*dy", XY)
    spec = FoliationSpec(XY, (x, parse_vector_field("y*dx", XY)))
    return {
        "Poly": x.components[0],
        "VectorField": x,
        "FoliationSpec": spec,
        "FlowWord": FlowWord(spec, [((1, Fraction(1, 3)), 0.5), ((0, 1), -0.25)]),
    }


@pytest.mark.parametrize("name", ["Poly", "VectorField", "FoliationSpec", "FlowWord"])
def test_value_types_refuse_set_and_del(name):
    # before, del of a slot succeeded and left, say, a Poly whose p + p raised
    value = _values()[name]
    hash(value)  # a value caches its hash on first use, in the base's _hash slot
    for slot in [s for cls in type(value).__mro__ for s in getattr(cls, "__slots__", ())] + ["other"]:
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, slot, None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(value, slot)
    assert value == _values()[name] and hash(value) == hash(_values()[name])
    assert not hasattr(value, "__dict__")


def test_values_are_hashed_on_first_use():
    # before, a VectorField and a FoliationSpec were hashed in __init__, and a
    # FlowWord was hashed again on every call, with no _hash kept
    for name, value in _values().items():
        assert not hasattr(value, "_hash"), name
        h = hash(value)
        assert value._hash == h == hash(value), name


@pytest.mark.parametrize("name", ["Poly", "VectorField", "FoliationSpec", "FlowWord"])
def test_value_equality_and_hash_follow_init(name):
    values = _values()
    value = values[name]
    args = tuple(getattr(value, slot) for slot in type(value)._init)
    assert hash(value) == hash(args)
    rebuilt = type(value)(*args)
    assert rebuilt == value and rebuilt is not value and not rebuilt != value
    changed = {
        "Poly": lambda p: p + 1,
        "VectorField": lambda x: -x,
        "FoliationSpec": lambda s: FoliationSpec(("u", "v"), s.generators),
        "FlowWord": lambda w: FlowWord(w.spec, w.steps[:1]),
    }[name](value)
    assert changed != value and value != changed
    for other in values.values():
        if other is not value:
            assert value.__eq__(other) is NotImplemented and value != other
    assert Poly.constant(3, 1) == 3 and 3 == Poly.constant(3, 1) and Poly.constant(3, 1) != 2


def test_value_type_protocols_decline_other_types_and_check_arity():
    values = _values()
    p, x = values["Poly"], values["VectorField"]
    for method in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__eq__"):
        assert getattr(p, method)("1") is NotImplemented
    for value in values.values():
        assert value.__eq__("1") is NotImplemented and value != "1"
    assert x.__add__(p) is NotImplemented
    with pytest.raises(TypeError):
        p + 1.5
    # an int or Fraction is a constant polynomial
    assert Poly.constant(3, 2) == 3 and p != 3 and 3 - p == -(p - 3) == Poly.constant(3, 2) - p
    with pytest.raises(ValueError, match="^exponent must be a nonnegative integer$"):
        p**-1
    q = Poly.variable(0, 3)
    with pytest.raises(ArityError, match="^polynomials have different numbers of variables$"):
        p + q
    with pytest.raises(ArityError, match="^vector fields have different numbers of variables$"):
        x + parse_vector_field("dz", ("x", "y", "z"))
    with pytest.raises(ArityError, match="^function and field have different numbers of variables$"):
        x.apply_to(q)
    assert x.scale(Fraction(-2, 3)) == parse_vector_field("-2/3*x^2*dx + 1/3*y*dy", XY)


def test_value_types_copy_as_themselves_and_pickle_through_their_constructors():
    # before, copy.copy, copy.deepcopy and every unpickling raised "Poly is immutable"
    values = _values()
    spec = values["FoliationSpec"]
    records = {
        "ModuleGB": module_groebner(spec),
        "SyzygyBasis": syzygy_basis(spec),
        "FlowChart": chart_at(spec, (1, Fraction(1, 2))),
    }
    for name, value in {**values, **records}.items():
        if name in values:
            assert copy.copy(value) is value and copy.deepcopy(value) is value
        assert copy.deepcopy(value) == value
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value) and back == value and hash(back) == hash(value), name
    assert not hasattr(pickle.loads(pickle.dumps(values["Poly"])), "_hash")  # rebuilt, not restored


def test_a_pickled_spec_hashes_like_one_built_in_another_process(monkeypatch):
    # a spec's cached hash hashes its variable names, which hash differently
    # in each process: unpickling rebuilds it instead of restoring the hash
    monkeypatch.setenv("PYTHONHASHSEED", "1")
    made = run_python("import pickle, sys; from helpers import sl2; sys.stdout.write(pickle.dumps(sl2()).hex())")
    assert made.returncode == 0, made.stderr
    monkeypatch.setenv("PYTHONHASHSEED", "2")
    check = (
        f"import pickle; from helpers import sl2; spec = pickle.loads(bytes.fromhex({made.stdout!r}))\n"
        "print(spec == sl2(), hash(spec) == hash(sl2()), spec in {sl2()})"
    )
    loaded = run_python(check)
    assert (loaded.returncode, loaded.stdout) == (0, "True True True\n"), loaded.stderr
