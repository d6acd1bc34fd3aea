"""Numerical flows, words, charts, leaf sampling, flow box."""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from foliations.errors import ArityError, BlowUpError, BudgetError, PreconditionError
from foliations.flow import (
    DEFAULT_OPTIONS,
    ChartRankEntry,
    ChartRankReport,
    FlowWord,
    NumericOptions,
    Transversal,
    XorShift64Star,
    chart_at,
    chart_rank_check,
    flow,
    flow_box,
    flow_jet,
    leaf_sample,
    numerical_rank,
    random_rational_points,
    word_compose,
    word_inverse,
    _CHUNK_SEGMENTS,
    _combined_terms,
    _drive,
    _kernel,
    _residual,
    _walk_draws,
)
from foliations.holonomy import matrix_exp
from foliations import modalg
from foliations.modalg import as_point, fiber_dim, rank_exact, tangent_dim
from foliations.vfparse import _MAX_CHAIN, _sum_lines

from helpers import (
    bounded_fraction,
    cstar,
    float_root,
    geometric,
    gl2,
    gl3,
    make_spec,
    random_word,
    rk4_reference_step,
    sl2,
    so3,
    xk,
)

# the module itself: ``foliations.flow`` as an attribute is the function
flow_module = sys.modules["foliations.flow"]


def rational_round(pt):
    return tuple(Fraction(v).limit_denominator(10**6) for v in pt)


def test_flow_exponential_closed_form():
    spec = xk(1)
    end = flow(spec, FlowWord(spec, [((1,), 1.0)]), (2.0,))
    assert abs(end[0] - 2.0 * math.e) < 1e-6


def test_flow_riccati_closed_form():
    spec = xk(2)
    end = flow(spec, FlowWord(spec, [((1,), 0.5)]), (1.0,))
    assert abs(end[0] - 2.0) < 1e-6


@pytest.mark.parametrize("duration", [math.inf, -math.inf, math.nan, Fraction(10) ** 400])
def test_word_duration_must_be_a_finite_float(duration):
    spec = xk(1)
    with pytest.raises(PreconditionError, match="finite float"):
        FlowWord(spec, [((1,), duration)])


def test_flow_empty_word_is_identity():
    spec = sl2()
    assert flow(spec, FlowWord(spec, []), (1.25, -0.5)) == (1.25, -0.5)


def test_flow_backwards_duration():
    spec = xk(1)
    end = flow(spec, FlowWord(spec, [((1,), -1.0)]), (2.0,))
    assert abs(end[0] - 2.0 / math.e) < 1e-6


def test_flow_blowup_reports_escape_time():
    spec = xk(2)
    with pytest.raises(BlowUpError) as exc:
        flow(spec, FlowWord(spec, [((1,), 1.0)]), (2.0,))
    # solution 2/(1-2t) blows up at t = 0.5
    assert 0.4 < exc.value.time < 0.6


def test_flow_word_spec_mismatch():
    with pytest.raises(ArityError):
        flow(sl2(), FlowWord(gl2(), [((1, 0, 0, 0), 0.1)]), (1.0, 0.0))
    with pytest.raises(ArityError):
        FlowWord(sl2(), [((1, 0), 0.1)])


def test_word_inverse_and_compose():
    spec = sl2()
    w = FlowWord(spec, [((1, 0, 0), 0.25), ((0, 1, 0), 0.5)])
    inv = word_inverse(w)
    assert inv.steps[0].duration == -0.5 and inv.steps[0].coeffs == (0, 1, 0)
    assert word_compose(w, FlowWord(spec, [])) == w
    assert word_compose(FlowWord(spec, []), w) == w
    with pytest.raises(ArityError):
        word_compose(w, FlowWord(gl2(), []))


def test_group_property_and_roundtrip():
    spec = sl2()
    rng = XorShift64Star(17)
    x0 = (0.8, -0.4)
    for _ in range(10):
        w = random_word(rng, spec, max_steps=3, t_max=0.5)
        v = random_word(rng, spec, max_steps=3, t_max=0.5)
        lhs = flow(spec, w, flow(spec, v, x0))
        rhs = flow(spec, word_compose(w, v), x0)
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-5
        back = flow(spec, word_compose(w, word_inverse(w)), x0)
        assert max(abs(a - b) for a, b in zip(back, x0)) < 1e-5


def test_rk4_convergence_order():
    # halving h cuts the max error by >= 12x against both closed forms
    exp_spec, ric_spec = xk(1), xk(2)
    x0s = [-0.5, -0.25, 0.25, 0.5]
    times = [0.25, 0.5, 1.0]

    def max_err(h):
        opts = NumericOptions(step_size=h)
        worst = 0.0
        for x0 in x0s:
            for t in times:
                e = flow(exp_spec, FlowWord(exp_spec, [((1,), t)]), (x0,), opts)[0]
                worst = max(worst, abs(e - x0 * math.exp(t)))
                r = flow(ric_spec, FlowWord(ric_spec, [((1,), t)]), (x0,), opts)[0]
                worst = max(worst, abs(r - x0 / (1 - t * x0)))
        return worst

    h0 = 1.0 / 16.0
    e0, e1, e2 = max_err(h0), max_err(h0 / 2), max_err(h0 / 4)
    assert e0 / e1 >= 12.0
    assert e1 / e2 >= 12.0


def test_flow_jet_matches_finite_differences():
    spec = sl2()
    w = FlowWord(spec, [((1, Fraction(1, 2), 0), 0.4), ((0, 0, 1), -0.3)])
    x0 = (0.6, 0.2)
    _, rows = flow_jet(spec, w, x0)
    eps = 1e-6
    for j in range(2):
        xp = list(x0)
        xm = list(x0)
        xp[j] += eps
        xm[j] -= eps
        fp = flow(spec, w, xp)
        fm = flow(spec, w, xm)
        for i in range(2):
            fd = (fp[i] - fm[i]) / (2 * eps)
            assert abs(rows[i][j] - fd) < 1e-4


def test_flow_jet_endpoint_is_flow_endpoint():
    # both kernels come from one RK4 generator: the endpoints agree bit for bit
    so3 = make_spec(("x", "y", "z"), ("y*dz - z*dy", "z*dx - x*dz", "x*dy - y*dx"))
    w = random_word(XorShift64Star(31), so3)
    assert flow_jet(so3, w, (0.5, -0.25, 1.0))[0] == flow(so3, w, (0.5, -0.25, 1.0))
    spec = sl2()
    w = FlowWord(spec, [((1, Fraction(1, 2), 0), 0.4), ((0, 0, 1), -0.3)])
    assert flow_jet(spec, w, (0.6, 0.2))[0] == flow(spec, w, (0.6, 0.2))


def test_leaf_sample_deterministic_and_invariant():
    spec = sl2()
    a = leaf_sample(spec, (1.0, 0.0), 50, rng_seed=12345)
    b = leaf_sample(spec, (1.0, 0.0), 50, rng_seed=12345)
    assert a == b
    assert len(a) == 51
    for pt in a:
        rp = rational_round(pt)
        assert any(c != 0 for c in rp)
        assert tangent_dim(spec, rp) == 2


def test_leaf_sample_fixed_point_stays():
    for spec in (sl2(), gl2(), cstar()):
        pts = leaf_sample(spec, (0.0, 0.0), 20, rng_seed=3)
        assert all(p == (0.0, 0.0) for p in pts)


def test_leaf_sample_half_line():
    spec = xk(1)
    pts = leaf_sample(spec, (-1.0,), 100, rng_seed=77)
    assert all(p[0] < 0 for p in pts)


def test_leaf_sample_rejects_negative_step_count():
    with pytest.raises(PreconditionError):
        leaf_sample(sl2(), (1.0, 1.0), -3, rng_seed=1)
    assert leaf_sample(sl2(), (1.0, 1.0), 0, rng_seed=1) == [(1.0, 1.0)]


def test_chart_point_arity():
    chart = chart_at(sl2(), (0.0, 0.0))
    y = (0.1, 0.2, 0.3)
    for bad in [(1.0, 2.0, 3.0), (1.0,)]:
        with pytest.raises(ArityError):
            chart.target(y, bad)
        with pytest.raises(ArityError):
            chart.source(y, bad)


def test_chart_identity_at_zero_parameter():
    spec = sl2()
    chart = chart_at(spec, (1.0, 0.0))
    assert chart.k == 3
    for x in [(1.0, 0.0), (0.3, -0.7), (0.0, 0.0)]:
        assert chart.target((0, 0, 0), x) == x
        assert chart.source((0, 0, 0), x) == x


def test_chart_target_exponential():
    spec = xk(1)
    chart = chart_at(spec, (1.0,))
    for y, x in [(0.3, 1.0), (-0.5, 2.0), (1.0, 0.25)]:
        got = chart.target((y,), (x,))[0]
        assert abs(got - x * math.exp(y)) < 1e-6


def test_chart_target_matches_matrix_exponential():
    spec = sl2()
    mats = [
        np.array([[1.0, 0.0], [0.0, -1.0]]),
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
    ]
    chart = chart_at(spec, (0.0, 0.0))
    rng = XorShift64Star(31)
    for _ in range(20):
        y = [rng.symmetric() for _ in range(3)]
        x = np.array([rng.symmetric(), rng.symmetric()])
        expected = matrix_exp(sum(c * m for c, m in zip(y, mats))) @ x
        got = chart.target(y, tuple(x))
        assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-6


def test_chart_rank_examples():
    spec = sl2()
    chart = chart_at(spec, (1.0, 0.0))
    rep = chart_rank_check(chart, (Fraction(1), Fraction(0)), [(0, 0), (Fraction(1, 2), Fraction(1, 4))])
    assert rep.ok
    by_point = {e.point: e for e in rep.entries}
    assert by_point[(Fraction(1), Fraction(0))].rank == 2
    assert by_point[(Fraction(0), Fraction(0))].rank == 0

    one = xk(1)
    rep = chart_rank_check(chart_at(one, (1.0,)), (Fraction(1),))
    assert rep.entries[0].rank == 1 and rep.ok


def test_chart_rank_random_points():
    rng = XorShift64Star(2024)
    for spec in (sl2(), gl2(), cstar()):
        chart = chart_at(spec, (1.0, 0.0))
        samples = random_rational_points(rng, 2, 10)
        rep = chart_rank_check(chart, (Fraction(1), Fraction(0)), samples)
        assert rep.ok, rep.mismatches


def test_flow_box_translation():
    spec = make_spec(("x", "y"), ("dx",))
    rep = flow_box(spec, 1, (0, 0), Transversal(point=(0.0, 0.0), directions=((0.0, 1.0),)))
    assert rep.invertible
    assert np.abs(np.array(rep.jacobian) - np.eye(2)).max() < 1e-9
    # the transversal columns are the direction vectors themselves, not rounded differences
    x0 = (Fraction(1, 3), Fraction(2, 7))
    across = Transversal(point=(1 / 3, 2 / 7), directions=((0.3, 0.7),))
    rep = flow_box(spec, 1, x0, across)
    assert [row[1] for row in rep.jacobian] == [0.3, 0.7]


def test_flow_box_decides_vanishing_on_the_rational_a_float_point_stores():
    spec = float_root()
    with pytest.raises(PreconditionError, match="^the chosen generator vanishes at the base point$"):
        flow_box(spec, 1, (1000006.9, 0.0))
    # there the field is 1e-6, far above the float tolerance of 1e-12
    assert len(flow_box(spec, 1, (1000006.9 + 1e-3, 0.0)).jacobian) == 2


@pytest.mark.parametrize(
    "bad", [Fraction(10**400), math.nan, math.inf, -math.inf], ids=["beyond-the-float-range", "nan", "inf", "-inf"]
)
def test_flow_box_refuses_a_direction_that_is_not_finite(bad, monkeypatch):
    # before, the direction became a column with its NaN or infinity, and the
    # rank was taken around it: invertible=False with a NaN in the jacobian
    spec = sl2()
    calls = []
    monkeypatch.setattr(flow_module, "_drive", lambda *a, **kw: calls.append(a))
    for directions in (((bad, 0.0),), ((0.0, bad),)):
        with pytest.raises(PreconditionError, match="^transversal direction has an entry that is not finite$"):
            flow_box(spec, 2, (1, 1), Transversal((1.0, 1.0), directions))
    assert calls == []  # refused before any flow
    # the transversal's point is a point: beyond the float range it is refused
    spec = make_spec(("x", "y"), ("dx",))
    far = Transversal(point=(Fraction(10**400), 0), directions=((0, 1),))
    with pytest.raises(PreconditionError, match="beyond the float range"):
        flow_box(spec, 1, (0, 0), far)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_point_coordinate_is_refused(bad):
    # before, the empty word returned the NaN, a word ran until the box test
    # and flow_box reported a point off the transversal
    spec = sl2()
    calls = (
        lambda: flow(spec, FlowWord(spec, []), (bad, 0.0)),
        lambda: flow(spec, FlowWord(spec, [((1, 0, 0), 1.0)]), (bad, 0.0)),
        lambda: flow_jet(spec, FlowWord(spec, []), (0.0, bad)),
        lambda: flow_box(spec, 1, (bad, 1.0)),
        lambda: chart_at(spec, (bad, 0.0)),
        lambda: leaf_sample(spec, (bad, 0.0), 2, rng_seed=1),
    )
    for call in calls:
        with pytest.raises(PreconditionError, match="^point coordinate is not finite$"):
            call()


def _error(call):
    """The (type, message) of the error ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:  # any error: its type and message are compared
        return type(exc), str(exc)
    return None


# what as_point says of a coordinate it cannot read
_REFUSED_COORDINATES = {
    "1/0": "point coordinate is not a rational number",
    "abc": "point coordinate is not a rational number",
    "nan": "point coordinate is not a rational number",
    math.nan: "point coordinate is not finite",
    math.inf: "point coordinate is not finite",
    "1e4000000": "rational '1e4000000' has an exponent beyond 10000",
    Decimal("1e4000000"): "rational '1E+4000000' has an exponent beyond 10000",
    Decimal("-1e-4000000"): "rational '-1E-4000000' has an exponent beyond 10000",
}


@pytest.mark.parametrize(
    "point",
    [
        (3, 0),
        (Fraction(1, 3), 0),
        (0.25, 0),
        (-0.0, 0),
        (np.float64(0.5), -0.0),
        ("1/2", 0),
        ("abc", 0),
        ("nan", 0),
        ("inf", 0),
        (10**400, 0),
        (math.nan, 0),
        (math.inf, 0),
        (1, 2, 3),
        (10**400, 0, 0),
        ("1/0", 0),
        ("1e4000000", 0),
        (Decimal("0.25"), 0),
        (Decimal("1e4000000"), 0),
        (Decimal("-1e-4000000"), 0),
    ],
    ids=["int", "fraction", "float", "minus-zero", "numpy", "string", "junk", "nan-string",
         "inf-string", "huge", "nan", "inf", "arity", "huge-arity", "zero-denominator",
         "huge-exponent", "decimal", "huge-decimal-exponent", "tiny-decimal-exponent"],
)
def test_every_point_reader_reads_as_as_point(monkeypatch, point):
    # the exact side reads a point as as_point does; the float side keeps a
    # float coordinate as given, takes any other from its exact value, and
    # also refuses one beyond the float range
    monkeypatch.setattr(modalg, "Fraction", bounded_fraction)
    spec = make_spec(("x", "y"), ("dx", "x*dy"))
    if point[0] in _REFUSED_COORDINATES:
        assert _error(lambda: as_point(point, 2)) == (PreconditionError, _REFUSED_COORDINATES[point[0]])
    readers = {  # each gives the float point it read
        "flow": lambda: flow(spec, FlowWord(spec), point),
        "flow_jet": lambda: flow_jet(spec, FlowWord(spec), point)[0],
        "leaf_sample": lambda: leaf_sample(spec, point, 0, rng_seed=1)[0],
        "chart_at": lambda: chart_at(spec, point).base_point,
    }
    error = _error(lambda: as_point(point, 2))
    if error is None:
        exact = as_point(point, 2)
        assert fiber_dim(spec, point) == fiber_dim(spec, exact)
        try:
            floats = tuple(c if isinstance(c, float) else float(q) for c, q in zip(point, exact))
        except OverflowError:
            error = PreconditionError, "point coordinate is beyond the float range"
    else:
        assert _error(lambda: fiber_dim(spec, point)) == error
    if error is not None:
        readers["flow_box"] = lambda: flow_box(spec, 1, point)
        assert {name: _error(read) for name, read in readers.items()} == dict.fromkeys(readers, error)
        return
    for name, read in readers.items():
        got = read()
        assert [type(v) for v in got] == [float, float], name
        assert [v.hex() for v in got] == [v.hex() for v in floats], name
    assert flow_box(spec, 1, point) == flow_box(spec, 1, tuple(map(float, floats)))


@pytest.mark.parametrize("value", list(_REFUSED_COORDINATES))
def test_word_coefficients_and_matrix_entries_are_refused_as_coordinates_are(monkeypatch, value):
    # modalg._rational reads all three: a decimal exponent beyond the bound
    # is refused with one message, before Fraction reads it, and anything
    # else unreadable with the reader's own
    monkeypatch.setattr(modalg, "Fraction", bounded_fraction)
    said = _REFUSED_COORDINATES[value]
    bounded = said.startswith("rational ")
    spec = sl2()
    assert _error(lambda: FlowWord(spec, [((value, 0, 0), 1.0)])) == (
        PreconditionError,
        said if bounded else "step coefficient is not a rational number",
    )
    assert _error(lambda: rank_exact([[1, 0], [Fraction(1, 2), value]])) == (
        PreconditionError,
        said if bounded else "matrix entry is not a rational number",
    )


def test_chart_parameter_beyond_the_float_range_blows_up_in_the_first_step():
    # an infinity, as a word coefficient of that size is in flow
    spec = sl2()
    with pytest.raises(BlowUpError) as word:
        flow(spec, FlowWord(spec, [((Fraction(10**400), 0, 0), 1.0)]), (1.0, 0.0))
    with pytest.raises(BlowUpError) as target:
        chart_at(spec, (1.0, 0.0)).target((Fraction(10**400), 0, 0))
    assert target.value.time == word.value.time == 1e-3


def test_flow_box_1d():
    spec = xk(1)
    rep = flow_box(spec, 1, (1,))
    assert rep.invertible
    assert abs(rep.jacobian[0][0] - 1.0) < 1e-6


def test_flow_box_rejects_vanishing_generator():
    with pytest.raises(PreconditionError):
        flow_box(xk(1), 1, (0,))
    with pytest.raises(PreconditionError):
        flow_box(xk(2), 1, (0.0,))


def test_flow_box_rejects_point_off_transversal():
    spec = make_spec(("x", "y"), ("dx",))
    with pytest.raises(PreconditionError):
        flow_box(spec, 1, (1, 1), Transversal(point=(0.0, 0.0), directions=((0.0, 1.0),)))


@pytest.mark.parametrize(
    "directions, message",
    [
        ((), "transversal needs 1 direction vectors"),
        (((0.0, 1.0), (1.0, 0.0)), "transversal needs 1 direction vectors"),
        (((1.0,),), "transversal direction has wrong length"),
        (((0.0, 1.0, 0.0),), "transversal direction has wrong length"),
    ],
    ids=["none", "two", "short", "long"],
)
def test_flow_box_rejects_transversal_of_wrong_arity(directions, message):
    spec = make_spec(("x", "y"), ("dx",))
    with pytest.raises(ArityError) as exc:
        flow_box(spec, 1, (0, 0), Transversal(point=(0.0, 0.0), directions=directions))
    assert str(exc.value) == message


def test_flow_box_degenerate_transversal_not_invertible():
    spec = make_spec(("x", "y"), ("dx",))
    # transversal direction parallel to the flow direction
    rep = flow_box(spec, 1, (0, 0), Transversal(point=(0.0, 0.0), directions=((1.0, 0.0),)))
    assert not rep.invertible


def test_flow_box_rank_deficient_transversal():
    # two parallel directions span a line: points on it pass, points off it do not
    spec = make_spec(("x", "y", "z"), ("dx",))
    line = Transversal(point=(0.0, 0.0, 0.0), directions=((0.0, 1.0, 0.0), (0.0, 2.0, 0.0)))
    rep = flow_box(spec, 1, (0, Fraction(1, 2), 0), line)
    assert not rep.invertible
    for off in ((0, Fraction(1, 2), Fraction(1, 10**6)), (Fraction(1, 3), 0, 0)):
        with pytest.raises(PreconditionError):
            flow_box(spec, 1, off, line)
    # a zero direction spans nothing
    flat = Transversal(point=(0.0, 1.0, 0.0), directions=((0.0, 0.0, 0.0), (0.0, 0.0, 3.0)))
    flow_box(spec, 1, (0, 1, 5), flat)
    with pytest.raises(PreconditionError):
        flow_box(spec, 1, (0, 2, 5), flat)


def test_residual_drops_dependent_vectors():
    # (3, 0, -1) is orthogonal to (1, 2, 3); a multiple of (1, 2, 3) adds
    # nothing to the span, though rounding leaves it a remainder near 1e-17
    for c in (0.1, 0.3, 1 / 3, 0.7):
        got = _residual([(1.0, 2.0, 3.0), (c, 2 * c, 3 * c)], (3.0, 0.0, -1.0))
        assert max(abs(x - y) for x, y in zip(got, (3.0, 0.0, -1.0))) < 1e-12
    assert _residual([], (1.0, 2.0)) == [1.0, 2.0]
    # nearly parallel vectors: one pass leaves the basis far from orthogonal,
    # and v1 - v2 would keep a remainder of about 1e-9 of its size
    e = 1e-7
    vectors = [(1.0, e, 0.0, 0.0), (1.0, 0.0, e, 0.0), (1.0, 0.0, 0.0, e)]
    assert max(map(abs, _residual(vectors, (0.0, e, -e, 0.0)))) < 1e-12 * e
    assert max(map(abs, _residual([(1.0, 1.0), (1.0, -1.0)], (0.3, 0.7)))) < 1e-15


def test_numerical_rank():
    assert numerical_rank([[1.0, 0.0], [0.0, 1.0]]) == 2
    assert numerical_rank([[1.0, 2.0], [0.5, 1.0]]) == 1
    assert numerical_rank([[0.0, 0.0], [0.0, 0.0]]) == 0
    assert numerical_rank([[1.0, 0.0], [0.0, 1e-12]]) == 1
    assert numerical_rank([]) == 0
    # an entry beyond the float range is an infinity: every other pivot is below its threshold
    assert numerical_rank([[Fraction(10**400), 0], [0, 1]]) == 1


def test_xorshift_reproducible():
    a = XorShift64Star(42)
    b = XorShift64Star(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    # zero seed is remapped, not degenerate
    z = XorShift64Star(0)
    vals = {z.next_u64() for _ in range(10)}
    assert len(vals) == 10
    u = XorShift64Star(7).uniform()
    assert 0.0 <= u < 1.0


def test_numeric_options_validation():
    with pytest.raises(ValueError):
        NumericOptions(step_size=0.0)
    with pytest.raises(ValueError):
        NumericOptions(fd_epsilon=-1.0)
    with pytest.raises(ValueError):
        NumericOptions(step_size=float("nan"))
    with pytest.raises(ValueError):
        NumericOptions(step_size=float("inf"))
    with pytest.raises(ValueError):
        NumericOptions(domain_bound=float("inf"))
    assert NumericOptions()._replace(step_size=0.5) == NumericOptions(step_size=0.5)
    with pytest.raises(ValueError):
        NumericOptions()._replace(max_steps=0)


def test_max_steps_caps_the_whole_word(monkeypatch):
    # 0.9 takes 900 full steps and a remainder step: one segment is under a
    # 1,000-step cap, three are over it, like the single 2.7 segment
    spec = make_spec(("x", "y"), ["y*dx"])
    opts = NumericOptions(max_steps=1000)
    assert flow(spec, FlowWord(spec, [((1,), 0.9)]), (0, 1), opts) == pytest.approx((0.9, 1.0))
    monkeypatch.setattr(flow_module, "_kernel", lambda *args: pytest.fail("an RK4 step ran"))
    for steps in ([((1,), 0.9)] * 3, [((1,), 2.7)]):
        for run in (flow, flow_jet):
            with pytest.raises(BudgetError, match="^flow would need more than 1000 steps$"):
                run(spec, FlowWord(spec, steps), (0, 1), opts)
    with pytest.raises(BudgetError):
        chart_at(spec, (0, 1), NumericOptions(max_steps=1000, step_size=1e-4)).target((1,))
    # a leaf walk is one word: 100 walk steps of at most 101 RK4 steps each
    with pytest.raises(BudgetError, match="^flow would need more than 1000 steps$"):
        leaf_sample(sl2(), (1.0, 0.5), 100, rng_seed=5, opts=opts)


# -- compiled kernels ----------------------------------------------------------

KERNEL_SPECS = {"so3": so3, "sl2": sl2, "cstar": cstar, "gl2": gl2, "gl3": gl3, "x3": lambda: xk(3)}


def _coeff(rng, exact):
    return Fraction(rng.randint(-8, 8), rng.randint(1, 7)) if exact else rng.symmetric()


def _coeff_tuples(rng, k, count=12):
    # seeded float and Fraction tuples; about a third of the entries are
    # zero, so the tuples span several monomial supports
    return [
        tuple(_coeff(rng, t % 2) if rng.uniform() > 0.3 else 0 for _ in range(k))
        for t in range(count)
    ]


def _terms(spec, coeffs):
    # per component, the (exponent, float) pairs that ``rk4_reference_step`` takes
    support, values = _combined_terms(spec, *coeffs)
    it = iter(values)
    return [[(e, next(it)) for e in comp] for comp in support]


def _kernel_of(spec, variation, coeffs):
    # the kernel and the segment coefficients of one tuple, as ``_drive`` gets them
    support, values = _combined_terms(spec, *coeffs)
    return _kernel(support, variation), values


def _step(run, values, state, h):
    # one RK4 step: a segment of one full step
    return run(state, [(values, h, 1, None)], math.inf)[0][0]


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
@pytest.mark.parametrize("seed", [1, 2])
def test_kernels_bit_identical_to_interpreted_rk4(name, seed):
    spec = KERNEL_SPECS[name]()
    n = spec.nvars
    rng = XorShift64Star(seed)
    for coeffs in _coeff_tuples(rng, spec.k):
        comb = _terms(spec, coeffs)
        x = tuple(rng.symmetric() for _ in range(n))
        xv = x + tuple(float(i == j) for i in range(n) for j in range(n))
        (run, values), (var_run, _) = _kernel_of(spec, False, coeffs), _kernel_of(spec, True, coeffs)
        for h in (1e-3, -2e-3, 0.05):
            for _ in range(5):
                want, want_v = rk4_reference_step(comb, x, h), rk4_reference_step(comb, xv, h, True)
                x, xv = _step(run, values, x, h), _step(var_run, values, xv, h)
                assert _bits([x, xv]) == _bits([want, want_v])  # the sign of a zero too


def _long_chain_spec():
    # a 601-factor term and a 450-term component: both cut into temporaries
    return make_spec(("x", "y"), (f"x^300*y^300*dx + {geometric('x', 30)}*{geometric('y', 15)}*dy",))


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS) + ["long-chain"])
def test_segment_runs_equal_chained_single_steps(name):
    spec = _long_chain_spec() if name == "long-chain" else KERNEL_SPECS[name]()
    n = spec.nvars
    rng = XorShift64Star(5)
    for coeffs in _coeff_tuples(rng, spec.k, count=4):
        x = tuple(0.5 * rng.symmetric() for _ in range(n))
        xv = x + (1.0,) * n * n
        for state, variation in ((x, False), (xv, True)):
            run, values = _kernel_of(spec, variation, coeffs)
            for h in (1e-3, -2e-3, 0.05):
                for steps in (1, 7):
                    chained = state
                    for _ in range(steps):
                        chained = _step(run, values, chained, h)
                    assert run(state, [(values, h, steps, None)], math.inf) == ([chained], None)
                    # the remainder step is one more step, of its own size
                    assert run(state, [(values, h, steps - 1, h)], math.inf) == ([chained], None)
                    last = _step(run, values, chained, 0.3 * h)
                    assert run(state, [(values, h, steps, 0.3 * h)], math.inf) == ([last], None)


def test_segment_run_stops_where_the_state_leaves_the_box():
    spec = xk(2)  # x' = x^2 from 2 leaves any box near t = 1/2
    run, values = _kernel_of(spec, False, (1,))
    states = [(2.0,)]
    for _ in range(600):
        states.append(_step(run, values, states[-1], 1e-3))
    bound = 100.0
    first_out = next(i for i, s in enumerate(states) if abs(s[0]) > bound)

    def segment(n, r=None):
        return [(values, 1e-3, n, r)]

    # ``stop`` holds the segment, the index of the step that left (the
    # number of good steps before it) and the first state outside
    assert run((2.0,), segment(600), bound) == ([], (0, first_out - 1, states[first_out]))
    assert run((2.0,), segment(first_out - 1), bound) == ([states[first_out - 1]], None)
    # the remainder step is step n of its segment
    assert run((2.0,), segment(first_out - 1, 1e-3), bound) == (
        [], (0, first_out - 1, states[first_out])
    )
    assert run((bound + 1.0,), segment(5), bound)[1][1] == 0  # the state after a step is tested
    # NaN compares false with everything, so it stops a run too
    done, (s, i, state) = run((math.nan,), segment(5), bound)
    assert (done, s, i) == ([], 0, 0) and math.isnan(state[0])
    assert run((2.0,), segment(0), bound) == ([(2.0,)], None)
    # a later segment: the states before it are returned
    assert run((2.0,), segment(3) + segment(600), bound) == (
        [states[3]], (1, first_out - 4, states[first_out])
    )


def _one_at_a_time(spec, steps, x):
    states = [x]
    for step in steps:
        states.append(_drive(spec, [step], states[-1], DEFAULT_OPTIONS)[-1])
    return states


def test_segment_list_equals_segments_run_one_at_a_time(monkeypatch):
    # x^2*dx blows up from x near 1 within 0.1 when its coefficient is 50;
    # a zero coefficient drops a generator's terms and changes the support
    spec = make_spec(("x", "y"), ("x^2*dx", "-y*dx + x*dy"))
    steps = [
        ((0, 1), 0.3),
        ((Fraction(1, 2), 1.0), 0.0305),  # 30 full steps and a remainder step
        ((0.25, -0.5), -0.05),
        ((1, 1), 0.0),
        ((Fraction(1, 3), Fraction(-2, 3)), -0.0123),
        ((0, 1.5), 0.02),
        ((0, -0.75), 0.04),
    ]
    x = (0.9, 0.2)
    calls = _count_kernel_calls(monkeypatch)
    states = _drive(spec, steps, x, DEFAULT_OPTIONS)
    # the supports: rotation; both generators' four times; rotation twice
    assert [len(segments) for segments in calls] == [1, 4, 2]
    assert states == _one_at_a_time(spec, steps, x)
    blow = ((50, 0), 0.1)
    steps = steps * 20  # 140 pairs: the blow-up in the first chunk, or in the second
    for at in (1, 4, 100):
        head = _one_at_a_time(spec, steps[:at], x)
        with pytest.raises(BlowUpError) as alone:
            _drive(spec, [blow], head[-1], DEFAULT_OPTIONS)
        with pytest.raises(BlowUpError) as within:
            _drive(spec, steps[:at] + [blow] + steps[at:], x, DEFAULT_OPTIONS)
        t0 = 0.0
        for _, duration in steps[:at]:
            t0 += duration
        assert 0.0 < alone.value.time < 0.1 and alone.value.segment == 1
        assert (within.value.time, within.value.segment) == (t0 + alone.value.time, at + 1)
        assert str(within.value) == f"trajectory left the domain box in segment {at + 1} (t = {within.value.time:.6g})"


def _walk_pairs(seed, n_steps, k):
    # the walk's pairs drawn one call at a time: k coefficients, then a duration
    rng = XorShift64Star(seed)
    return [(tuple(rng.symmetric() for _ in range(k)), 0.1 * rng.uniform()) for _ in range(n_steps)], rng


@pytest.mark.parametrize("k", [0, 1, 3, 9])
def test_walk_draws_are_the_generator_draws(k):
    want, rng = _walk_pairs(7, 50, k)
    batch = XorShift64Star(7)
    draws = _walk_draws(batch, 50, k, DEFAULT_OPTIONS)
    flat = [v for coeffs, t in want for v in coeffs + (t,)]
    assert [v.hex() for v in draws.tolist()] == [v.hex() for v in flat]  # bit for bit
    assert len(draws) == 50 * (k + 1) and draws.itemsize == 8
    assert batch.next_u64() == rng.next_u64()  # the generator is left where the draws end


def test_a_refused_walk_stops_drawing_at_the_first_step_past_the_cap(monkeypatch):
    # a 10^6-step walk needs about 51 RK4 steps a walk step, so it passes the
    # default cap of 10^6 near walk step 20,000; before, every one of its
    # 4 * 10^6 draws was made first
    spec = sl2()
    total, past = 0, None
    for i, (_, t) in enumerate(_walk_pairs(1, 25_000, spec.k)[0]):
        total += int(t / DEFAULT_OPTIONS.step_size) + 1
        if total > DEFAULT_OPTIONS.max_steps:
            past = i + 1
            break
    assert 19_000 < past < 21_000
    draws = []
    next_u64 = XorShift64Star.next_u64
    monkeypatch.setattr(XorShift64Star, "next_u64", lambda rng: draws.append(1) or next_u64(rng))
    monkeypatch.setattr(flow_module, "_kernel", None)  # no RK4 step is taken
    with pytest.raises(BudgetError, match=r"^flow would need more than 1000000 steps$"):
        leaf_sample(spec, (1, 1), 10**6, 1)
    assert len(draws) == past * (spec.k + 1)


def test_an_accepted_walk_counts_its_rk4_steps_once(monkeypatch):
    # the walk's steps are counted while they are drawn; before, _drive
    # counted them a second time over the durations
    counted = []
    rk4_steps = flow_module._rk4_steps
    monkeypatch.setattr(flow_module, "_rk4_steps", lambda *a: counted.append(1) or rk4_steps(*a))
    points = leaf_sample(sl2(), (1, 1), 150, 1)
    assert (len(points), len(counted)) == (151, 150)


def test_a_walk_of_many_chunks_equals_its_pairs_run_one_at_a_time(monkeypatch):
    # 3 chunks and 5 pairs: each chunk is one kernel call, and the states are
    # those of one _drive call per pair
    spec = so3()
    n_steps = 3 * _CHUNK_SEGMENTS + 5
    pairs, _ = _walk_pairs(13, n_steps, spec.k)
    x = (0.5, 0.25, 1.0)
    calls = _count_kernel_calls(monkeypatch)
    states = leaf_sample(spec, x, n_steps, rng_seed=13)
    assert [len(segments) for segments in calls] == [_CHUNK_SEGMENTS] * 3 + [5]
    monkeypatch.undo()
    assert _bits(states) == _bits(_one_at_a_time(spec, pairs, x))


def test_leaf_blowup_names_the_walk_step():
    # x' = 50 c x^2 from 50: the walk leaves the box in step 30
    with pytest.raises(BlowUpError) as exc:
        leaf_sample(xk(2), (50,), 200, rng_seed=1)
    assert (exc.value.segment, f"{exc.value.time:.6g}") == (30, "1.49753")


def _combined_terms_per_term(spec, coeffs):
    # the fold as first written: every coefficient times the generators'
    # Fraction terms, exactly or (for a float coefficient) as c * float(q)
    out = []
    for j in range(spec.nvars):
        acc = {}
        for c, g in zip(coeffs, spec.generators):
            if not c:
                continue
            for expt, q in g.components[j].terms:
                acc[expt] = acc.get(expt, 0) + c * q
        out.append([(e, float(v)) for e, v in sorted(acc.items()) if float(v) != 0.0])
    return out


def _huge_spec():
    # a generator coefficient beyond the float range; four generators add
    # to x*dx, so the order of the sum shows in its rounding
    return make_spec(
        ("x", "y"),
        ("10^400*x*dx", "x*dx + y*dy", "1/3*x*dx - 1/7*y*dy", "3/11*x*dx + y^2*dx - x*y*dy"),
    )


def _fold_cases(name):
    rng = XorShift64Star(8)
    if name == "huge":
        # the oracle converts every sum to a float: the huge generator gets
        # zero or small exact coefficients, and -1 + 1.0 folds to 0.0
        small = Fraction(1, 10**399)
        return [
            (small, 0.5, 0.0, 0.1), (0.0, 0.25, -1.5, 0.7), (0, Fraction(1, 3), 2, 0.3),
            (-small / 10, 1.0, 0, 0), (3 * small, Fraction(-2, 7), 0.125, Fraction(1, 9)),
            (-small, 0.0, Fraction(5, 3), -0.6),
        ] + [(0,) + tuple(rng.symmetric() for _ in range(3)) for _ in range(8)]
    k = KERNEL_SPECS[name]().k
    mixed = [tuple(_coeff(rng, rng.uniform() < 0.5) for _ in range(k)) for _ in range(10)]
    return _coeff_tuples(rng, k, count=20) + mixed


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS) + ["huge"])
def test_float_and_exact_coefficients_bind_the_same_terms(name):
    spec = _huge_spec() if name == "huge" else KERNEL_SPECS[name]()
    for coeffs in _fold_cases(name):
        want = _combined_terms_per_term(spec, coeffs)
        got = _terms(spec, coeffs)
        hexes = [[[(e, c.hex()) for e, c in terms] for terms in out] for out in (got, want)]
        assert hexes[0] == hexes[1]  # the same floats, bit for bit


def _count_kernel_calls(monkeypatch):
    # the segment list of every kernel call
    calls = []
    kernel = flow_module._kernel

    def counting(*args):
        run = kernel(*args)

        def counted(state, segments, bound):
            calls.append(segments)
            return run(state, segments, bound)

        return counted

    monkeypatch.setattr(flow_module, "_kernel", counting)
    return calls


def test_leaf_sample_compiles_one_kernel():
    _kernel.cache_clear()
    leaf_sample(sl2(), (1.0, 0.5), 600, rng_seed=5)
    assert _kernel.cache_info().misses == 1


def test_leaf_sample_is_one_kernel_call_per_chunk(monkeypatch):
    # every walk tuple of sl2 folds to one support: a call per chunk of pairs
    assert _CHUNK_SEGMENTS == 64
    calls = _count_kernel_calls(monkeypatch)
    leaf_sample(sl2(), (1.0, 0.5), 600, rng_seed=5)
    assert [len(segments) for segments in calls] == [64] * 9 + [24]


def test_chart_rank_compiles_one_kernel_per_generator():
    spec = sl2()
    _kernel.cache_clear()
    chart = chart_at(spec, (1, 0))
    chart_rank_check(chart, (1, 0), random_rational_points(XorShift64Star(3), 2, 4))
    assert _kernel.cache_info().misses == spec.k


def _so3_word():
    # nine segments over three coefficient tuples of one monomial support
    spec = so3()
    rng = XorShift64Star(9)
    tuples = [tuple(Fraction(rng.randint(1, 16), 16) for _ in range(3)) for _ in range(3)]
    return spec, FlowWord(spec, [(tuples[i % 3], 0.05) for i in range(9)])


def test_flow_jet_compiles_one_variation_kernel_per_support():
    # a point that moves: the still kernel stops at the first segment, and
    # the full system runs the word; each is compiled once
    spec, word = _so3_word()
    _kernel.cache_clear()
    flow_jet(spec, word, (0.2, -0.1, 0.4))
    assert _kernel.cache_info().misses == 2
    support = _combined_terms(spec, *word.steps[0].coeffs)[0]
    _kernel(support, True, True), _kernel(support, True)
    assert _kernel.cache_info()[:2] == (2, 2)  # both were hits


def test_stationary_jet_compiles_no_full_variation_kernel():
    spec, word = _so3_word()
    _kernel.cache_clear()
    flow_jet(spec, word, (0, 0, 0))
    assert _kernel.cache_info().misses == 1
    support = _combined_terms(spec, *word.steps[0].coeffs)[0]
    _kernel(support, True, True)
    assert _kernel.cache_info()[:2] == (1, 1)  # the still kernel was the one compiled
    _kernel(support, True)
    assert _kernel.cache_info().misses == 2


def test_each_distinct_coefficient_tuple_is_folded_once_per_flow(monkeypatch):
    # a word of one chunk that cycles three tuples folds three times; every
    # walk tuple is new
    calls = []
    fold = flow_module._combined_terms

    def counted(spec, *coeffs):
        calls.append(coeffs)
        return fold(spec, *coeffs)

    monkeypatch.setattr(flow_module, "_combined_terms", counted)
    spec = so3()
    rng = XorShift64Star(9)
    tuples = [tuple(Fraction(rng.randint(1, 16), 16) for _ in range(3)) for _ in range(3)]
    flow(spec, FlowWord(spec, [(tuples[i % 3], 0.01) for i in range(60)]), (0.2, -0.1, 0.4))
    assert calls == tuples
    calls.clear()
    leaf_sample(sl2(), (1.0, 0.5), 50, rng_seed=5)
    assert len(calls) == 50


def test_flow_does_not_depend_on_earlier_chart_targets():
    # a float coefficient and the Fraction equal to it compare and hash
    # equal but fold differently, so no cache may serve one for the other
    spec = make_spec(("x", "y"), ("x*dx + y^2*dy", "1/3*x*dx + 1/7*x*y*dy"))
    y = (0.4460241624749317, 0.9896391258994854)
    word = FlowWord(spec, [(y, 1.0)])
    chart = chart_at(spec, (0.5, 0.5))
    _kernel.cache_clear()
    fresh_flow = flow(spec, word, (0.5, 0.5))
    _kernel.cache_clear()
    fresh_target = chart.target(y)
    assert (fresh_flow[0], fresh_target[0]) == (1.0862774748151356, 1.0862774748151354)
    assert flow(spec, word, (0.5, 0.5)) == fresh_flow
    _kernel.cache_clear()
    assert flow(spec, word, (0.5, 0.5)) == fresh_flow
    assert chart.target(y) == fresh_target


@pytest.mark.parametrize(
    "make, point", [(sl2, (Fraction(1, 3), Fraction(2, 7))), (so3, (1, 2, -1))], ids=["sl2", "so3"]
)
def test_flow_box_and_chart_rank_share_the_derivative(monkeypatch, make, point):
    spec = make()
    seen = []

    def capture(matrix, rel_threshold=1e-8):
        seen.append([list(row) for row in matrix])
        return numerical_rank(matrix, rel_threshold)

    monkeypatch.setattr(flow_module, "numerical_rank", capture)
    chart_rank_check(chart_at(spec, point), point)
    box = flow_box(spec, 1, point)
    chart_column = [row[0] for row in seen[0]]
    box_column = [row[0] for row in box.jacobian]
    assert chart_column == box_column  # bit for bit
    assert chart_column == pytest.approx([float(v) for v in spec.generators[0](point)], abs=1e-9)


def test_chart_rank_takes_two_rk4_steps_per_generator(monkeypatch):
    # the time-1 flow of eps*X_i is the time-eps flow of X_i: one step each way
    spec = gl3()
    calls = _count_kernel_calls(monkeypatch)
    samples = random_rational_points(XorShift64Star(2), 3, 4)
    report = chart_rank_check(chart_at(spec, (1, 2, 3)), (1, 2, 3), samples)
    assert len(report.entries) == 5
    steps = [n + (r is not None) for segments in calls for _, _, n, r in segments]
    assert sum(steps) == 2 * spec.k * 5


def test_short_chains_emit_the_same_source():
    names = ["x0", "x1"]
    assert _sum_lines("k1_0", [], names, "0.0") == ["k1_0 = 0.0"]
    assert _sum_lines("k1_0", [((0, 0), "a0")], names, "0.0") == ["k1_0 = a0"]
    terms = [((2, 1), "a0"), ((0, 3), "a1"), ((1, 0), "a2")]
    assert _sum_lines("k1_0", terms, names, "0.0") == ["k1_0 = a0*x0*x0*x1 + a1*x1*x1*x1 + a2*x0"]
    # at the cap, a product and a sum are still one chain each
    widest = [((_MAX_CHAIN - 1, 0), "a0")] * _MAX_CHAIN
    assert _sum_lines("k1_0", widest, names, "0.0") == [
        "k1_0 = " + " + ".join(["*".join(["a0"] + ["x0"] * (_MAX_CHAIN - 1))] * _MAX_CHAIN)
    ]
    # one factor more, and the product is bound first, through a prefix
    assert _sum_lines("k1_0", [((_MAX_CHAIN, 0), "a0")], names, "0.0") == [
        "k1_0_t0__0 = " + "*".join(["a0"] + ["x0"] * (_MAX_CHAIN - 1)),
        "k1_0_t0 = k1_0_t0__0*x0",
        "k1_0 = k1_0_t0",
    ]
    # one term more, and the sum is cut the same way
    assert _sum_lines("k1_0", [((1, 0), "a0")] * (_MAX_CHAIN + 1), names, "0.0") == [
        "k1_0__0 = " + " + ".join(["a0*x0"] * _MAX_CHAIN),
        "k1_0 = k1_0__0 + a0*x0",
    ]


def test_long_chain_kernels_bit_identical_to_interpreted_rk4():
    spec = _long_chain_spec()
    comb = _terms(spec, (1,))
    assert len(comb[1]) == 450
    x = (1.001, -0.5)
    xv = x + (1.0, 0.0, 0.0, 1.0)
    (run, values), (var_run, _) = _kernel_of(spec, False, (1,)), _kernel_of(spec, True, (1,))
    for h in (1e-3, -2e-3):
        for _ in range(3):
            want, want_v = rk4_reference_step(comb, x, h), rk4_reference_step(comb, xv, h, True)
            x, xv = _step(run, values, x, h), _step(var_run, values, xv, h)
            assert _bits([x, xv]) == _bits([want, want_v])


# -- jets at a fixed point: the still kernel ----------------------------------


def _jet_states(spec, steps, point):
    # the first-variation states after each pair, from the identity
    n = spec.nvars
    ident = tuple(float(i == j) for i in range(n) for j in range(n))
    return _drive(spec, steps, tuple(map(float, point)) + ident, DEFAULT_OPTIONS, True)


def _full_system(monkeypatch, spec, steps, point):
    # the same states with every pair run through the full system
    kernel = flow_module._kernel
    with monkeypatch.context() as m:
        m.setattr(flow_module, "_kernel", lambda support, variation, still=False: kernel(support, variation))
        return _jet_states(spec, steps, point)


def _kernel_kinds(monkeypatch):
    # the ``(variation, still)`` flags of every kernel ``_drive`` asks for
    kinds = []
    kernel = flow_module._kernel

    def recording(support, variation, still=False):
        kinds.append((variation, still))
        return kernel(support, variation, still)

    monkeypatch.setattr(flow_module, "_kernel", recording)
    return kinds


def _bits(states):
    # float.hex tells -0.0 from 0.0, which == does not
    return [[v.hex() for v in state] for state in states]


def _nonlinear():
    # its linear part at 0 is not zero, and its Jacobian entries depend on the point
    return make_spec(("x", "y"), ("(x + y^2)*dx + (x*y - y)*dy",))


STILL_CASES = {
    "so3": (so3, (0, 0, 0)),
    "cstar": (cstar, (0, 0)),
    "gl3": (gl3, (0, 0, 0)),
    "nonlinear": (_nonlinear, (0, 0)),
}


@pytest.mark.parametrize("name", sorted(STILL_CASES))
def test_still_jets_equal_the_full_system_bit_for_bit(monkeypatch, name):
    make, point = STILL_CASES[name]
    spec = make()
    rng = XorShift64Star(11)
    for _ in range(4):
        steps = list(random_word(rng, spec, max_steps=5).steps)
        steps.insert(rng.randint(0, len(steps)), (steps[-1].coeffs, 0.0))  # a zero-duration segment
        kinds = _kernel_kinds(monkeypatch)
        states = _jet_states(spec, steps, point)
        monkeypatch.undo()
        assert set(kinds) == {(True, True)}  # the still kernel ran every segment
        assert _bits(states) == _bits(_full_system(monkeypatch, spec, steps, point))


def test_a_point_whose_slopes_are_not_zero_takes_the_full_system(monkeypatch):
    spec = _nonlinear()
    steps = [((1,), 0.3), ((Fraction(-1, 2),), 0.25)]
    point = (1e-200, 0)  # x + y^2 is 1e-200 there, not 0.0
    kinds = _kernel_kinds(monkeypatch)
    states = _jet_states(spec, steps, point)
    monkeypatch.undo()
    assert kinds == [(True, True), (True, False)]
    assert states[-1][0] != 1e-200
    assert _bits(states) == _bits(_full_system(monkeypatch, spec, steps, point))


def test_a_negative_zero_coordinate_takes_the_full_system(monkeypatch):
    # -0.0 + h2*0.0 is 0.0: the full system turns the zeros positive
    spec = cstar()
    steps = [((1, 1), 0.3)]
    point = (-0.0, -0.0)
    kinds = _kernel_kinds(monkeypatch)
    endpoint, _ = flow_jet(spec, FlowWord(spec, steps), point)
    monkeypatch.undo()
    assert kinds == [(True, True), (True, False)]
    assert [v.hex() for v in endpoint] == ["0x0.0p+0", "0x0.0p+0"]
    assert _bits(_jet_states(spec, steps, point)) == _bits(_full_system(monkeypatch, spec, steps, point))


def test_a_stationary_point_outside_the_box_takes_the_full_system(monkeypatch):
    # the field vanishes at x = 10^11, outside [-1e10, 1e10]: the first step leaves the box
    spec = make_spec(("x", "y"), ("(x - 100000000000)*dx + y*dy",))
    kinds = _kernel_kinds(monkeypatch)
    with pytest.raises(BlowUpError) as exc:
        flow_jet(spec, FlowWord(spec, [((1,), 1.0)]), (10**11, 0))
    assert exc.value.time == 0.001
    assert kinds == [(True, True), (True, False)]


def test_a_word_whose_later_segments_move_takes_the_full_system_from_there(monkeypatch):
    # x*dx and dx share one support while both coefficients are nonzero:
    # (1, -1) fixes x = 1, and (1, 1) moves it
    spec = make_spec(("x",), ("x*dx", "dx"))
    steps = [((1, -1), 0.5), ((1, -1), 0.0), ((1, 1), 0.3), ((1, -1), 0.2), ((0, 1), 0.1), ((1, -1), 0.05)]
    kinds = _kernel_kinds(monkeypatch)
    calls = _count_kernel_calls(monkeypatch)
    states = _jet_states(spec, steps, (1,))
    monkeypatch.undo()
    # the first support's still call stops at the third segment; every later call starts off the fixed point
    assert [len(segments) for segments in calls] == [4, 2, 1, 1, 1, 1]
    assert kinds == [(True, True), (True, False)] * 3
    assert [state[0] == 1.0 for state in states[:4]] == [True, True, True, False]
    assert _bits(states) == _bits(_full_system(monkeypatch, spec, steps, (1,)))


def test_a_jet_whose_point_moves_across_a_chunk_boundary(monkeypatch):
    # (1, -1) fixes x = 1 and (1, 1) moves it, from the 61st pair on: the first
    # chunk's still call stops there, and at the second chunk the still
    # kernel checks the point again and hands over to the full system
    spec = make_spec(("x",), ("x*dx", "dx"))
    steps = [((1, -1), 0.01)] * 60 + [((1, 1), 0.01)] * 20
    kinds = _kernel_kinds(monkeypatch)
    calls = _count_kernel_calls(monkeypatch)
    states = _jet_states(spec, steps, (1,))
    monkeypatch.undo()
    assert _CHUNK_SEGMENTS == 64
    assert [len(segments) for segments in calls] == [64, 4, 16, 16]
    assert kinds == [(True, True), (True, False)] * 2
    assert [state[0] == 1.0 for state in states[59:63]] == [True, True, False, False]
    assert _bits(states) == _bits(_full_system(monkeypatch, spec, steps, (1,)))
    one_at_a_time = [states[0]]
    for step in steps:
        one_at_a_time.append(_drive(spec, [step], one_at_a_time[-1], DEFAULT_OPTIONS, True)[-1])
    assert _bits(states) == _bits(one_at_a_time)


def test_a_still_jet_that_leaves_the_box_reports_the_same_time(monkeypatch):
    # at the origin of cstar the linearization grows like exp(30 t)
    spec = cstar()
    steps = [((1, 0), 0.5), ((30, 0), 1.0)]
    with pytest.raises(BlowUpError) as still:
        _jet_states(spec, steps, (0, 0))
    with pytest.raises(BlowUpError) as full:
        _full_system(monkeypatch, spec, steps, (0, 0))
    assert 0.5 < still.value.time == full.value.time < 1.5


def test_flow_word_len_hash_and_repr_are_pinned():
    steps = [((1, 0, Fraction(1, 2)), 0.25), ((0, -1, 0), -1.5)]
    word = FlowWord(sl2(), steps)
    assert len(word) == 2 and len(FlowWord(sl2())) == 0
    # equal words hash equal: the hash is that of (spec, steps)
    assert hash(word) == hash(FlowWord(sl2(), steps)) == hash((word.spec, word.steps))
    assert repr(word) == "FlowWord[1,0,1/2@0.25; 0,-1,0@-1.5]"
    assert repr(FlowWord(sl2())) == "FlowWord[]"


def test_chart_rank_report_mismatches_are_the_entries_that_do_not_match():
    regular = ChartRankEntry((Fraction(1), Fraction(0)), 2, 2)
    origin = ChartRankEntry((Fraction(0), Fraction(0)), 1, 0)
    assert ChartRankReport((regular, origin, regular), False).mismatches == (origin,)
    assert ChartRankReport((regular,), True).mismatches == ()
