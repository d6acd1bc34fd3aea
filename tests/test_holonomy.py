"""Jets, exact linear oracles, germ tests, pushforward checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from foliations.errors import ArityError, BlowUpError, NotFixedPointError, NotLinearError, PreconditionError
from foliations.flow import FlowWord, XorShift64Star, chart_at, word_compose, word_inverse
from foliations.holonomy import (
    _expm,
    _solve,
    carried_diffeo,
    check_pushforward_linear,
    germ_equal_at_fixed_point,
    holonomy_jet,
    jet_exact_linear,
    linear_generator_matrices,
    matrix_exp,
)

from helpers import cstar, gl2, make_spec, random_word, sl2, xk

E_STEP = ((0, 1, 0), 1.0)
H_STEP = ((1, 0, 0), 1.0)


def test_matrix_exp_against_series():
    rng = XorShift64Star(5)
    for _ in range(25):
        a = np.array([[rng.symmetric() for _ in range(3)] for _ in range(3)])
        # plain scaled Taylor series as the reference
        ref = np.zeros((3, 3))
        term = np.eye(3)
        for k in range(1, 40):
            ref = ref + term
            term = term @ a / k
        assert np.abs(matrix_exp(a) - ref).max() < 1e-12


def _series_exp(a, terms):
    """Taylor series of exp(a) to ``terms`` terms for a rational matrix ``a``,
    summed exactly and rounded once."""
    n = len(a)
    term = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    total = term
    for k in range(1, terms):
        term = [[sum(term[i][l] * a[l][j] for l in range(n)) / k for j in range(n)] for i in range(n)]
        total = [[x + y for x, y in zip(r, t)] for r, t in zip(total, term)]
    return [[float(v) for v in row] for row in total]


def _max_gap(a, b):
    return max(abs(x - y) for r, s in zip(a, b) for x, y in zip(r, s))


def test_matrix_exp_rows_against_series():
    # the list core on its own, scaled (s > 0) and unscaled: skew matrices
    # exponentiate to rotations, whose entries are at most 1 in size
    rng = XorShift64Star(6)
    scaled = 0
    for scale in (1, 2, 3):
        for _ in range(4):
            b = [[Fraction(rng.randint(-8, 8), 4) for _ in range(3)] for _ in range(3)]
            a = [[scale * (b[i][j] - b[j][i]) for j in range(3)] for i in range(3)]
            rows = [[float(v) for v in row] for row in a]
            scaled += max(sum(abs(row[j]) for row in rows) for j in range(3)) > 5.371920351148152
            assert _max_gap(_expm(rows), _series_exp(a, 100)) < 1e-12
    assert scaled >= 6
    # general matrices of 1-norm up to 12: relative to the largest entry
    for _ in range(6):
        a = [[Fraction(rng.randint(-32, 32), 8) for _ in range(3)] for _ in range(3)]
        want = _series_exp(a, 80)
        size = max(abs(v) for row in want for v in row)
        assert _max_gap(_expm([[float(v) for v in row] for row in a]), want) < 1e-12 * size


def test_matrix_exp_rows_raise_nothing():
    # overflow, non-finite input and a singular system give NaN entries, not exceptions
    inf, big = math.inf, 1e308
    for a in ([[inf]], [[math.nan, 0.0], [0.0, 1.0]], [[big, big], [big, big]], [[800.0]]):
        out = _expm(a)
        assert len(out) == len(a) and not all(math.isfinite(v) for row in out for v in row)
    assert _expm([]) == []
    singular = _solve([[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]])
    assert all(math.isnan(v) for row in singular for v in row)
    assert _solve([[0.0, 2.0], [4.0, 0.0]], [[2.0], [8.0]]) == [[2.0], [1.0]]


def test_matrix_exp_entry_beyond_the_float_range_gives_nan():
    # an infinity, so NaN entries: no exception, and no numpy warning (warnings fail tests)
    assert np.isnan(matrix_exp([[10**400, 0], [0, 1]])).all()


def test_matrix_returning_functions_return_ndarrays():
    spec = sl2()
    word = FlowWord(spec, [E_STEP])
    diffeo = carried_diffeo(chart_at(spec, (0, 0)), (0.1, 0.2, 0.3))
    for value in (
        matrix_exp([[0.0, 1.0], [0.0, 0.0]]),
        *linear_generator_matrices(spec),
        holonomy_jet(spec, word, (0, 0)),
        jet_exact_linear(spec, word),
        diffeo.jacobian((0.5, 0.5)),
    ):
        assert isinstance(value, np.ndarray) and value.shape == (2, 2) and value.dtype == float
    assert matrix_exp(np.zeros((0, 0))).shape == (0, 0)


def test_matrix_exp_nilpotent_and_zero():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.abs(matrix_exp(n) - np.array([[1, 1], [0, 1]])).max() < 1e-12
    assert np.abs(matrix_exp(np.zeros((2, 2))) - np.eye(2)).max() < 1e-15
    big = np.array([[10.0, 0.0], [0.0, -3.0]])
    assert np.abs(matrix_exp(big) - np.diag([math.e**10, math.e**-3])).max() < 1e-8


def test_linear_matrices_extraction():
    mats = linear_generator_matrices(sl2())
    assert np.array_equal(mats[0], np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert np.array_equal(mats[1], np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(mats[2], np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(NotLinearError):
        linear_generator_matrices(xk(2))


def test_carried_diffeo_examples():
    one = xk(1)
    chart = chart_at(one, (1.0,))
    d = carried_diffeo(chart, (1.0,))
    assert abs(d.evaluate((2.0,))[0] - 2.0 * math.e) < 1e-6

    ident = carried_diffeo(chart, (0.0,))
    assert ident.evaluate((0.7,)) == (0.7,)
    assert np.abs(ident.jacobian((0.7,)) - np.eye(1)).max() < 1e-12


def test_carried_diffeo_jacobian_fd_crosscheck():
    spec = sl2()
    chart = chart_at(spec, (0.0, 0.0))
    d = carried_diffeo(chart, (0.4, -0.2, 0.1))
    for x in [(0.5, 0.5), (-0.25, 1.0)]:
        jac = d.jacobian(x)
        eps = 1e-6
        for j in range(2):
            xp, xm = list(x), list(x)
            xp[j] += eps
            xm[j] -= eps
            fp, fm = d.evaluate(xp), d.evaluate(xm)
            for i in range(2):
                assert abs(jac[i][j] - (fp[i] - fm[i]) / (2 * eps)) < 1e-4


def test_carried_diffeo_parameter_beyond_the_float_range_blows_up_in_the_first_step():
    diffeo = carried_diffeo(chart_at(sl2(), (1.0, 0.0)), (Fraction(10**400), 0, 0))
    for method in (diffeo.evaluate, diffeo.jacobian):
        with pytest.raises(BlowUpError) as exc:
            method((1.0, 0.0))
        assert exc.value.time == 1e-3


def test_carried_diffeo_arity():
    with pytest.raises(ArityError):
        carried_diffeo(chart_at(sl2(), (0.0, 0.0)), (1.0,))


@pytest.mark.parametrize("x", [(1.0, 2.0, 3.0), (1.0,)])
def test_carried_diffeo_point_arity(x):
    diffeo = carried_diffeo(chart_at(sl2(), (0, 0)), (0.1, 0.2, 0.3))
    with pytest.raises(ArityError):
        diffeo.jacobian(x)
    with pytest.raises(ArityError):
        diffeo.evaluate(x)


def test_holonomy_jet_examples():
    spec = sl2()
    jet = holonomy_jet(spec, FlowWord(spec, [E_STEP]), (Fraction(0), Fraction(0)))
    assert np.abs(jet - np.array([[1.0, 1.0], [0.0, 1.0]])).max() < 1e-6

    jet_h = holonomy_jet(spec, FlowWord(spec, [H_STEP]), (0, 0))
    assert np.abs(jet_h - np.diag([math.e, 1.0 / math.e])).max() < 1e-6

    empty = holonomy_jet(spec, FlowWord(spec, []), (0, 0))
    assert np.array_equal(empty, np.eye(2))


def test_holonomy_jet_rejects_non_fixed_point():
    spec = sl2()
    with pytest.raises(NotFixedPointError):
        holonomy_jet(spec, FlowWord(spec, [H_STEP]), (Fraction(1), Fraction(0)))
    with pytest.raises(NotFixedPointError):
        holonomy_jet(spec, FlowWord(spec, [H_STEP]), (1.0, 0.0))
    # (1,0) is fixed for the E flow specifically
    jet = holonomy_jet(spec, FlowWord(spec, [E_STEP]), (Fraction(1), Fraction(0)))
    assert jet.shape == (2, 2)
    jet = holonomy_jet(spec, FlowWord(spec, [H_STEP]), (0.0, 0.0))
    assert jet.shape == (2, 2)


def test_huge_coefficient_is_checked_in_floats_at_a_float_point():
    # 10**400 is past the float range: against a zero generator value it adds
    # nothing, and the flow leaves the box at once; against a nonzero one the
    # step's field is infinite, so the point is not fixed
    spec = sl2()
    word = FlowWord(spec, [((Fraction(10**400), 0, 0), 1.0)])
    with pytest.raises(BlowUpError) as info:
        holonomy_jet(spec, word, (0.0, 0.0))
    assert info.value.time == 0.001
    with pytest.raises(NotFixedPointError):
        holonomy_jet(spec, word, (1.0, 0.0))


def test_jet_exact_examples():
    spec = sl2()
    j = jet_exact_linear(spec, FlowWord(spec, [E_STEP]))
    assert np.abs(j - np.array([[1.0, 1.0], [0.0, 1.0]])).max() < 1e-12
    roundtrip = jet_exact_linear(
        spec, FlowWord(spec, [((1, 0, 0), 0.8), ((1, 0, 0), -0.8)])
    )
    assert np.abs(roundtrip - np.eye(2)).max() < 1e-12
    with pytest.raises(NotLinearError):
        jet_exact_linear(xk(2), FlowWord(xk(2), [((1,), 0.5)]))


def test_jet_oracle_agreement_random_words():
    spec = sl2()
    rng = XorShift64Star(616)
    for _ in range(15):
        w = random_word(rng, spec, max_steps=4, t_max=1.0)
        a = holonomy_jet(spec, w, (0, 0))
        b = jet_exact_linear(spec, w)
        assert np.abs(a - b).max() < 1e-6


def test_jet_homomorphism_and_inverse():
    spec = sl2()
    rng = XorShift64Star(617)
    for _ in range(8):
        w1 = random_word(rng, spec, max_steps=2, t_max=0.8)
        w2 = random_word(rng, spec, max_steps=2, t_max=0.8)
        j12 = holonomy_jet(spec, word_compose(w1, w2), (0, 0))
        j1 = holonomy_jet(spec, w1, (0, 0))
        j2 = holonomy_jet(spec, w2, (0, 0))
        assert np.abs(j12 - j1 @ j2).max() < 1e-5
        jinv = holonomy_jet(spec, word_inverse(w1), (0, 0))
        assert np.abs(jinv @ j1 - np.eye(2)).max() < 1e-5


def test_jet_determinant_one_for_traceless_family():
    spec = sl2()
    rng = XorShift64Star(618)
    for _ in range(10):
        w = random_word(rng, spec, max_steps=3, t_max=1.0)
        assert abs(np.linalg.det(holonomy_jet(spec, w, (0, 0))) - 1.0) < 1e-6


def test_germ_equality():
    spec = sl2()
    we = FlowWord(spec, [E_STEP])
    wf = FlowWord(spec, [((0, 0, 1), 1.0)])
    wh = FlowWord(spec, [H_STEP])
    assert germ_equal_at_fixed_point(spec, we, we, (0, 0))
    assert not germ_equal_at_fixed_point(spec, we, wf, (0, 0))
    assert germ_equal_at_fixed_point(
        spec, word_compose(wh, word_inverse(wh)), FlowWord(spec, []), (0, 0)
    )
    with pytest.raises(PreconditionError):
        germ_equal_at_fixed_point(spec, we, wf, (1, 0))
    for tol in (0, -1.0, float("nan")):  # no gap is below these, not even between equal jets
        with pytest.raises(PreconditionError, match="tolerance must be positive"):
            germ_equal_at_fixed_point(spec, we, we, (0, 0), tol)
    for point in ((0,), (0, 0, 0)):
        with pytest.raises(ArityError):
            germ_equal_at_fixed_point(spec, we, we, point)
    bad = xk(2)
    with pytest.raises(NotLinearError):
        germ_equal_at_fixed_point(bad, FlowWord(bad, []), FlowWord(bad, []), (0,))


def test_germ_distinctness_random():
    spec = sl2()
    rng = XorShift64Star(619)
    found = 0
    while found < 20:
        w1 = random_word(rng, spec, max_steps=3, t_max=1.0)
        w2 = random_word(rng, spec, max_steps=3, t_max=1.0)
        if np.abs(jet_exact_linear(spec, w1) - jet_exact_linear(spec, w2)).max() >= 1e-3:
            assert not germ_equal_at_fixed_point(spec, w1, w2, (0, 0))
            assert germ_equal_at_fixed_point(spec, w1, w1, (0, 0))
            found += 1


def test_pushforward_examples():
    rep = check_pushforward_linear(sl2(), (1, 1, 0), 0.75)
    assert rep.ok and max(rep.residuals) < 1e-8
    # conjugates of traceless matrices stay traceless
    mats = linear_generator_matrices(sl2())
    m = mats[0] + mats[1]
    g = matrix_exp(0.75 * m)
    gi = matrix_exp(-0.75 * m)
    for a in mats:
        assert abs(np.trace(g @ a @ gi)) < 1e-10

    assert check_pushforward_linear(gl2(), (1, 0, 0, 1), 1.0).ok
    # abelian family: conjugation is the identity on the span
    repc = check_pushforward_linear(cstar(), (1, 1), 0.5)
    assert repc.ok and max(repc.residuals) < 1e-12
    with pytest.raises(NotLinearError):
        check_pushforward_linear(xk(2), (1,), 0.5)
    with pytest.raises(ArityError):
        check_pushforward_linear(sl2(), (1, 0), 0.5)


def test_pushforward_dependent_generators():
    # a generator in the span of the others changes neither the span nor the verdict
    spec = make_spec(("x", "y"), ("x*dx - y*dy", "y*dx", "x*dy", "2*x*dx - 2*y*dy"))
    for coeffs in ((1, 1, 0, 0), (0, 1, -1, Fraction(1, 2)), (Fraction(-3, 4), 0, 1, 1)):
        rep = check_pushforward_linear(spec, coeffs, 0.75)
        assert rep.ok and len(rep.residuals) == 4 and max(rep.residuals) < 1e-8
    # span{E, F, 2E} is not closed: conjugating E by exp(F) gives E - H - F,
    # which leaves the span by H, of norm sqrt(2); F stays F
    open_span = make_spec(("x", "y"), ("y*dx", "x*dy", "2*y*dx"))
    rep = check_pushforward_linear(open_span, (0, 1, 0), 1.0)
    assert not rep.ok
    for got, want in zip(rep.residuals, (math.sqrt(2), 0.0, 2 * math.sqrt(2))):
        assert abs(got - want) < 1e-12
