"""Flows of generator combinations and the parametrized chart they induce.

The only integrator is classical fixed-step 4th-order Runge-Kutta
(reproducibility beats speed at this scale).  A duration t is split into
ceil(|t|/h) steps: full steps of the configured size plus one remainder
step, signed.  The RK4 kernel is compiled once per monomial support of
the combined field (the exponents with a nonzero coefficient) and takes
the float coefficients as data, so a walk through many coefficient
tuples compiles one kernel; each step does the float operations of a
kernel with the coefficients written in as constants.

One kernel call runs a list of segments, one per ``(coefficients,
duration)`` pair.  Per segment it binds the coefficients, takes every
full step and then the remainder step, with the state in local variables
and the domain box tested after each step, and keeps the state at the
segment's end.  What does not change from step to step is computed once
per segment: ``0.5*h`` (once more for the remainder step), and every
entry of the first-variation Jacobian that has no variable in it (all of
them for a linear field).  The operations and their order are those of
one step at a time, so the results are the same floats.

The first-variation system (point, linearization) shares the same
kernel: the linearization v evolves by v' = J(x(t)) v with J the matrix
of partial derivatives of the combined field, whose structural zeros
(entries with no term) are left out of the products.  A segment whose
point the field leaves where it is, every component exactly 0.0, steps
only the linearization: a "still" kernel binds J at the point once per
segment and holds the point, with the same floats as the full system
(see ``_kernel``).  When a segment's point moves, the rest of its kernel
call runs through the full system.  ``_rk4_fn`` is the single RK4 code
generator; the three kernels differ only in their right-hand side.
Their sums are written by ``vfparse._sum_lines``, the emitter that also
writes the integer row evaluators of ``modalg`` and cuts long operator
chains into temporaries.  ``_combined_terms`` folds a coefficient tuple
into the support and its float coefficients, by a plan made once per
spec.  ``_drive`` is the one driver: every flow, jet, leaf walk and chart
target runs a sequence of ``(coefficients, duration)`` pairs through it.
``NumericOptions.max_steps`` caps the RK4 steps of the whole sequence, a
leaf walk included, before any is taken.  Then the pairs are folded and
stepped ``_CHUNK_SEGMENTS`` at a time, consecutive pairs with the same
support in one kernel call, so that only the states are kept: a leaf
walk whose coefficients never fold to zero is one call per chunk.  A
walk draws all its steps first, into one buffer of 8-byte doubles, and
stops drawing at the first step past ``max_steps``; ``_Walk`` builds the
pairs of a chunk from the buffer.  A blow-up names the pair
(the walk step) that left the box.  A point enters through
``_float_point``, the float view of ``modalg.as_point``.

Derivatives along a generator X_i (chart-rank's columns, the flow box's
first column) are one central difference, ``_flow_derivative``: the
time-eps and time-(-eps) flows of X_i, each a single RK4 step when eps
is below the step size, as it is by default.

Randomness (leaf sampling, sample-point generation) comes from a
xorshift64* generator so that sequences are reproducible from a seed
across platforms and implementations:

    state ^= state >> 12
    state ^= (state << 25) mod 2^64
    state ^= state >> 27
    output = (state * 0x2545F4914F6CDD1D) mod 2^64

and uniform doubles in [0, 1) are ``(output >> 11) * 2^-53``.  A zero
seed is replaced by 0x9E3779B97F4A7C15.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import groupby
from operator import add, itemgetter
from typing import NamedTuple, Sequence

from .errors import ArityError, BlowUpError, PreconditionError, _charge
from .modalg import _rational, as_point, tangent_dim
from .vfparse import FoliationSpec, _Frozen, _sum_lines

__all__ = [
    "NumericOptions",
    "DEFAULT_OPTIONS",
    "FlowStep",
    "FlowWord",
    "FlowChart",
    "Transversal",
    "ChartRankEntry",
    "ChartRankReport",
    "FlowBoxReport",
    "XorShift64Star",
    "flow",
    "flow_jet",
    "word_inverse",
    "word_compose",
    "leaf_sample",
    "chart_at",
    "chart_rank_check",
    "flow_box",
    "numerical_rank",
    "random_rational_points",
]


class _NumericFields(NamedTuple):
    step_size: float = 1e-3
    max_steps: int = 1_000_000
    fd_epsilon: float = 1e-5
    rank_rel_threshold: float = 1e-8
    domain_bound: float = 1e10


class NumericOptions(_NumericFields):
    """Knobs for the numerical kernels; all finite and strictly positive.

    ``max_steps`` caps the RK4 steps of one flow word, all segments together.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and strictly positive")
        return self

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` checks its values too
        return cls(*iterable)


DEFAULT_OPTIONS = NumericOptions()


class XorShift64Star:
    """Seeded deterministic generator (xorshift64*, constants in module docs)."""

    _MASK = (1 << 64) - 1
    _MULT = 0x2545F4914F6CDD1D
    _ZERO_SEED = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        s = int(seed) & self._MASK
        self._state = s if s else self._ZERO_SEED

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & self._MASK
        x ^= x >> 27
        self._state = x
        return (x * self._MULT) & self._MASK

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def symmetric(self) -> float:
        """Uniform double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + int(self.uniform() * (hi - lo + 1))


def random_rational_points(
    rng: XorShift64Star, nvars: int, count: int, denominator: int = 4, max_numer: int = 8
) -> list[tuple[Fraction, ...]]:
    """Random rational points with coordinates m/denominator, |m| <= max_numer."""
    pts = []
    for _ in range(count):
        pts.append(
            tuple(
                Fraction(rng.randint(-max_numer, max_numer), denominator)
                for _ in range(nvars)
            )
        )
    return pts


class FlowStep(NamedTuple):
    """One flow of the combined field sum_i coeffs[i] * X_i for ``duration``."""

    coeffs: tuple[Fraction, ...]
    duration: float


class FlowWord(_Frozen):
    """A finite composition of generator-combination flows.

    Steps act in list order: the first step is applied first.  The empty
    word is the identity.  Coefficients are read by ``modalg._rational``.
    """

    __slots__ = ("spec", "steps")
    _init = ("spec", "steps")

    def __init__(self, spec: FoliationSpec, steps: Sequence = ()):
        norm = []
        for coeffs, duration in steps:
            coeffs = tuple(_rational(c, "step coefficient is not a rational number") for c in coeffs)
            if len(coeffs) != spec.k:
                raise ArityError(
                    f"step has {len(coeffs)} coefficients, expected {spec.k}"
                )
            duration = _float(duration)
            if not math.isfinite(duration):
                raise PreconditionError("step duration must be a finite float")
            norm.append(FlowStep(coeffs, duration))
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "steps", tuple(norm))

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self):
        body = "; ".join(
            ",".join(str(c) for c in s.coeffs) + f"@{s.duration:g}" for s in self.steps
        )
        return f"FlowWord[{body}]"


def word_inverse(word: FlowWord) -> FlowWord:
    """Reversed steps with negated durations (one-parameter group inverses)."""
    return FlowWord(
        word.spec, tuple(FlowStep(s.coeffs, -s.duration) for s in reversed(word.steps))
    )


def word_compose(w1: FlowWord, w2: FlowWord) -> FlowWord:
    """The word acting as w1 after w2 (function-composition order):
    flow(word_compose(w1, w2), x) == flow(w1, flow(w2, x)).
    """
    if w1.spec != w2.spec:
        raise ArityError("words are built over different specs")
    return FlowWord(w1.spec, w2.steps + w1.steps)


# ---------------------------------------------------------------------------
# Compiled RK4 kernels
# ---------------------------------------------------------------------------


def _float(q) -> float:
    """``float(q)``, with a rational beyond the float range as a signed
    infinity: the one place a number becomes a float.  A point's
    coordinates go through it too, by ``_float_point``, which refuses the
    infinity."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _sum_left(values) -> float:
    """``values`` added left to right from 0, as ``sum`` adds floats before
    Python 3.12, which compensates their rounding: so that every Python
    writes the same bits."""
    return reduce(add, values, 0)


@lru_cache(maxsize=64)
def _fold_plan(spec: FoliationSpec) -> tuple:
    """How ``_combined_terms`` folds ``spec``'s generators.

    The slots number the pairs (component, exponent) of all generators in
    sorted order.  Per generator: its terms as pairs (slot, coefficient),
    once with the Fraction coefficients and once with their floats; then
    the slots, and the support with every slot in it.
    """
    terms = [
        [(j, e, q) for j, comp in enumerate(g.components) for e, q in comp.terms]
        for g in spec.generators
    ]
    slots = sorted({(j, e) for g in terms for j, e, _ in g})
    index = {slot: i for i, slot in enumerate(slots)}
    exact = tuple(tuple((index[j, e], q) for j, e, q in g) for g in terms)
    floats = tuple(tuple((i, _float(q)) for i, q in g) for g in exact)
    support = tuple(tuple(e for j, e in slots if j == m) for m in range(spec.nvars))
    return exact, floats, slots, support


def _combined_terms(spec: FoliationSpec, *coeffs) -> tuple[tuple, tuple[float, ...]]:
    """The field sum_i coeffs[i] * X_i folded to floats: ``(support,
    values)``, where ``support[j]`` lists the exponents of component j in
    sorted order and ``values`` their float coefficients, component after
    component.  Terms that fold to 0.0 are left out.

    Each term sums, from 0 and in generator order, ``c * q`` over the
    nonzero coefficients c.  A float c multiplies the float copy of the
    generator's coefficient q: ``c * float(q)`` is the float ``c * q``
    gives for a Fraction q, without converting q on every call.  Exact
    coefficients sum exactly.
    """
    exact, floats, slots, support = _fold_plan(spec)
    acc = [0] * len(slots)
    for c, terms, float_terms in zip(coeffs, exact, floats):
        if c:
            for i, q in float_terms if isinstance(c, float) else terms:
                acc[i] += c * q
    values = tuple(map(_float, acc))
    if 0.0 not in values:
        return support, values
    kept: list[list] = [[] for _ in support]
    for (j, e), v in zip(slots, values):
        if v != 0.0:
            kept[j].append(e)
    return tuple(map(tuple, kept)), tuple(v for v in values if v != 0.0)


def _diff_terms(terms, var: int, setup: list[str]):
    """d/dx_var of named terms; each new coefficient c*e gets a line in ``setup``."""
    out = []
    for expt, c in terms:
        e = expt[var]
        if e:
            new = list(expt)
            new[var] = e - 1
            setup.append(f"d{len(setup)} = {c}*{e}")
            out.append((tuple(new), f"d{len(setup) - 1}"))
    return out


def _rk4_fn(size: int, rhs, params: list[str], setup: list[str], held: int = 0):
    """Compile ``run(state, segments, bound)``: classical RK4 over the last
    ``size`` of the floats in the tuple ``state``, through a list of
    segments; the first ``held`` floats are not stepped.

    A segment is ``(coefficients, h, n, r)``: the values of ``params``, a
    signed step ``h`` taken ``n`` times, then one remainder step ``r``
    unless it is None.  ``run`` returns ``(states, stop)``: ``states`` holds
    the state after each segment, and ``stop`` is None, or ``(s, i,
    state)`` when step ``i`` of segment ``s`` (``i == n`` for the remainder
    step) left the box ``[-bound, bound]`` (or gave NaN), ``state`` being
    that step's result.  ``rhs(s, names)`` returns the source lines that
    bind the stage-``s`` slopes ``k{s}_<i>`` of the stepped floats at the
    point named by ``names``.  ``setup`` lines run once per segment, after
    the coefficients are bound; they may end the run with ``return states,
    (len(states), None, None)``, a stop at segment ``len(states)`` before
    its first step.
    """
    xs = [f"x{i}" for i in range(held + size)]
    state = ", ".join(xs) + ("," if len(xs) == 1 else "")
    stepped = range(held, held + size)
    lines = []
    point = xs
    # h2*k is 0.5*h*k, which parses as (0.5*h)*k
    for s, scale in ((1, "h2"), (2, "h2"), (3, "h"), (4, None)):
        lines += rhs(s, point)
        if scale is not None:
            point = xs[:held] + [f"p{s}_{i}" for i in stepped]
            lines += [f"p{s}_{i} = x{i} + {scale}*k{s}_{i}" for i in stepped]
    lines += [
        f"x{i} = x{i} + h*(k1_{i} + 2.0*k2_{i} + 2.0*k3_{i} + k4_{i})/6.0" for i in stepped
    ]
    inside = " and ".join(f"lo <= x{i} <= bound" for i in stepped)
    lines += [f"if not ({inside}):", f"    return states, (len(states), i, ({state}))"]  # also NaN
    bind = [f"{', '.join(params)}{',' * (len(params) == 1)} = coeffs"] if params else []
    body = bind + setup + [
        "for h, i0, i1 in ((h, 0, n),) if r is None else ((h, 0, n), (r, n, n + 1)):",
        "    h2 = 0.5*h",
        "    for i in range(i0, i1):",
    ]
    src = ["def run(state, segments, bound):", f"    {state} = state", "    lo = -bound",
           "    states = []", "    for coeffs, h, n, r in segments:"]
    src += ["        " + line for line in body] + ["                " + line for line in lines]
    src += [f"        states.append(({state}))", "    return states, None"]
    ns: dict = {"copysign": math.copysign}
    exec(compile("\n".join(src), "<generated rk4>", "exec"), ns)
    return ns["run"]


@lru_cache(maxsize=256)
def _kernel(support: tuple, variation: bool, still: bool = False):
    """RK4 runner ``run(state, segments, bound)`` (see ``_rk4_fn``) for one
    monomial support, whose segments carry the ``values`` of
    ``_combined_terms``.

    ``support[j]`` lists the exponents of component j, in the order of the
    coefficients.  With ``variation`` the state is the first-variation
    system's: n point coordinates, then the n x n linearization row-major.
    A Jacobian entry without a variable (every entry of a linear field) is
    computed once per segment, as ``j_<j>_<m>``.  An entry with no term
    after differentiation is a structural zero: its products are left out,
    and a row of them is the slope ``0.0``.  No observable float changes:
    - For a finite factor such a product is a signed zero, and adding a
      signed zero changes at most the sign of a zero sum.  A linearization
      entry starts at ``+0.0`` or ``1.0`` and is never ``-0.0`` (a sum is
      ``-0.0`` only when both terms are), and neither is a stage point of
      it, so the sign of a zero slope never reaches them.
    - For an infinite or NaN factor the product is NaN where the sum
      without it may be finite or infinite.  With a step of at most 1 (the
      default is 1e-3) a stage entry ``x + h2*k`` is infinite or NaN only
      when its slope ``k`` is, and then the step's result is too: the step
      leaves the box either way, at the same reported time.  A larger step
      could overflow a stage entry from a finite slope; the result would
      differ only if the stages then cancelled exactly.

    With ``still`` as well the point is held, not stepped.  Per segment the
    kernel evaluates the field at the point once and, only if every
    component is exactly 0.0 with the point inside the box and no
    coordinate ``-0.0``, binds every Jacobian entry at the point once and
    steps the n x n entries alone.  Each stage point then equals the
    point, since ``x + h2*0.0`` is ``x`` for any ``x`` but ``-0.0``, so the
    full system would compute the same Jacobian at every stage and the same
    linearization, bit for bit.  Otherwise the run stops at that segment
    with ``(s, None, None)``, before its first step.
    """
    n = len(support)
    params = [f"a{i}" for i in range(sum(map(len, support)))]
    names = iter(params)
    comb = [[(expt, next(names)) for expt in comp] for comp in support]
    xs = [f"x{i}" for i in range(n)]

    def field(s: int, pt: list[str]) -> list[str]:
        return [
            line for j, terms in enumerate(comb) for line in _sum_lines(f"k{s}_{j}", terms, pt, "0.0")
        ]

    if not variation:
        return _rk4_fn(n, field, params, [])
    setup: list[str] = []
    jac = [[_diff_terms(comb[j], m, setup) for m in range(n)] for j in range(n)]
    once = {(j, m) for j in range(n) for m in range(n)
            if jac[j][m] and (still or not any(any(e) for e, _ in jac[j][m]))}
    if still:
        zero = " and ".join(f"k1_{j} == 0.0" for j in range(n))
        inside = " and ".join(f"lo <= {x} <= bound and ({x} != 0.0 or copysign(1.0, {x}) > 0.0)"
                              for x in xs)
        setup += field(1, xs) + [f"if not ({zero} and {inside}):",
                                 "    return states, (len(states), None, None)"]
    for j, m in sorted(once):
        setup += _sum_lines(f"j_{j}_{m}", jac[j][m], xs, "0.0")

    def linearization(s: int, v: list[str]) -> list[str]:
        entry = [[f"j_{j}_{m}" if (j, m) in once else f"j{s}_{j}_{m}" for m in range(n)]
                 for j in range(n)]
        return [
            f"k{s}_{n + j * n + l} = "
            + (" + ".join(f"{entry[j][m]}*{v[m * n + l]}" for m in range(n) if jac[j][m]) or "0.0")
            for j in range(n)
            for l in range(n)
        ]

    if still:
        return _rk4_fn(n * n, lambda s, pt: linearization(s, pt[n:]), params, setup, n)

    def rhs(s: int, pt: list[str]) -> list[str]:
        x = pt[:n]
        lines = [
            line
            for j in range(n)
            for m in range(n)
            if jac[j][m] and (j, m) not in once
            for line in _sum_lines(f"j{s}_{j}_{m}", jac[j][m], x, "0.0")
        ]
        return lines + field(s, x) + linearization(s, pt[n:])

    return _rk4_fn(n + n * n, rhs, params, setup)


def _split(duration: float, h: float) -> tuple[int, float]:
    """Full steps of size ``h`` in ``|duration|``, and the remainder."""
    total = abs(duration)
    n = int(total / h)
    return n, total - n * h


def _rk4_steps(duration: float, h: float, cap: int) -> int:
    """The RK4 steps ``max_steps`` counts for a pair of ``duration``: the
    full steps and the remainder step, counted always; none for a zero
    duration.  The quotient is clamped at ``cap``, which changes no verdict
    against it, so that an infinite one converts to an integer."""
    return int(min(abs(duration) / h, cap)) + 1 if duration else 0


# the most ``(coefficients, duration)`` pairs ``_drive`` folds and steps at
# a time, so that its memory beyond the states does not grow with the pairs
_CHUNK_SEGMENTS = 64


def _drive(
    spec: FoliationSpec, steps, state: tuple, opts: NumericOptions, variation: bool = False
) -> list[tuple]:
    """Run ``state`` through the flows of the ``(coeffs, duration)`` pairs
    ``steps``, a sequence (a word's steps, or a walk's ``_Walk``), in order;
    returns ``state`` followed by the state after each pair.  Each pair is
    one segment: ``ceil(|duration|/h)`` steps, the full ones and a remainder
    step above 1e-15.  ``opts.max_steps`` caps the RK4 steps of all the
    pairs together, as ``_rk4_steps`` counts them; a flow over the cap
    raises BudgetError before its first step.  A walk's ``_Walk`` was
    counted while it was drawn, and is not counted again.

    Then the pairs are folded and run ``_CHUNK_SEGMENTS`` at a time, and
    only the states are kept.  Consecutive pairs of a chunk whose fields
    share a monomial support run in one kernel call; with ``variation``
    that is a call of the still kernel, and from the first segment whose
    point moves, one of the full system's.  Each segment is stepped alone,
    so where a chunk ends changes no float.  Each distinct coefficient
    tuple of a chunk is folded once: the tuples of a call are all exact
    (words) or all floats (walks, chart targets), since
    ``(Fraction(1, 2),) == (0.5,)`` but the two fold differently.  A pair that leaves the domain box raises
    BlowUpError naming it (``segment``, 1-based) and the time from the
    start of the first pair."""
    h, cap = opts.step_size, opts.max_steps
    walk = isinstance(steps, _Walk)
    if not walk:
        _charge(sum(_rk4_steps(t, h, cap) for _, t in steps), cap, "flow would need more than {limit} steps")
    states = [state]
    for lo in range(0, len(steps), _CHUNK_SEGMENTS):
        chunk = steps[lo : lo + _CHUNK_SEGMENTS]
        folds: dict = {}
        runs = []
        for coeffs, duration in chunk:
            if coeffs not in folds:
                folds[coeffs] = _combined_terms(spec, *coeffs)
            support, values = folds[coeffs]
            n, rem = _split(duration, h)
            sign = 1.0 if duration > 0 else -1.0
            runs.append((support, (values, sign * h, n, sign * rem if rem > 1e-15 else None)))
        for support, group in groupby(runs, itemgetter(0)):
            segments = [seg for _, seg in group]
            run = _kernel(support, True, True) if variation else _kernel(support, False)
            done, stop = run(states[-1], segments, opts.domain_bound)
            states += done
            if stop is not None and stop[1] is None:  # the point moves in segment stop[0]
                done, stop = _kernel(support, True)(states[-1], segments[stop[0]:], opts.domain_bound)
                states += done
            if stop is not None:  # pair len(states) - 1 left the box
                index = len(states) - 1
                durations = steps.durations if walk else [t for _, t in steps]
                time = _blowup_time(durations[:index], durations[index], stop[1], h)
                raise BlowUpError("trajectory left the domain box", time=time, segment=index + 1)
    return states


def _blowup_time(before, duration: float, i: int, h: float) -> float:
    """When step ``i`` of the pair of ``duration`` left the box, summed step
    by step from the start of the pairs whose durations are ``before``."""
    t0 = _sum_left(before)
    n, rem = _split(duration, h)
    t = 0.0
    for _ in range(min(i + 1, n)):
        t += h
    if i == n:
        t += rem
    return t0 + (1.0 if duration > 0 else -1.0) * t


def _word_steps(spec: FoliationSpec, word: FlowWord) -> tuple[FlowStep, ...]:
    if word.spec != spec:
        raise ArityError("word was built over a different spec")
    return word.steps


def _vanishes(vector: Sequence, x: Sequence) -> bool:
    """Whether ``vector``, computed exactly at the point ``as_point`` reads
    from ``x``, is zero: exactly, or, if a coordinate of ``x`` is a float,
    below 1e-12 in absolute value in every component."""
    if any(isinstance(c, float) for c in x):
        return all(abs(v) < 1e-12 for v in vector)
    return not any(vector)


def _float_point(x: Sequence, n: int) -> tuple[float, ...]:
    """The float view of the point ``as_point`` reads from ``x``: a float
    coordinate as given (so -0.0 stays -0.0), any other from its exact
    value.  A coordinate beyond the float range raises PreconditionError."""
    pt = tuple(_float(c if isinstance(c, float) else q) for c, q in zip(x, as_point(x, n)))
    if not all(map(math.isfinite, pt)):
        raise PreconditionError("point coordinate is beyond the float range")
    return pt


def flow(
    spec: FoliationSpec, word: FlowWord, x0: Sequence, opts: NumericOptions = DEFAULT_OPTIONS
) -> tuple[float, ...]:
    """Endpoint of the word applied to x0; the empty word returns x0 exactly."""
    return _drive(spec, _word_steps(spec, word), _float_point(x0, spec.nvars), opts)[-1]


def flow_jet(
    spec: FoliationSpec, word: FlowWord, x0: Sequence, opts: NumericOptions = DEFAULT_OPTIONS
) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """Endpoint plus the derivative of the word's map at x0.

    The linearization is integrated alongside the point (first-variation
    system), which composes correctly across steps; returned row-major.
    """
    return _jet(spec, _word_steps(spec, word), x0, opts)


def _jet(
    spec: FoliationSpec, steps, x0: Sequence, opts: NumericOptions
) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """Endpoint and row-major derivative at x0 of the flows of ``steps``:
    the first-variation system driven from the identity linearization."""
    n = spec.nvars
    ident = tuple(1.0 if i == j else 0.0 for i in range(n) for j in range(n))
    state = _drive(spec, steps, _float_point(x0, n) + ident, opts, True)[-1]
    return state[:n], tuple(state[n + i * n : n + (i + 1) * n] for i in range(n))


def _walk_draws(rng: XorShift64Star, n_steps: int, k: int, opts: NumericOptions) -> memoryview:
    """The draws of ``n_steps`` walk steps, in one array of doubles: per
    step, k coefficients ``rng.symmetric()`` and then a duration
    ``0.1 * rng.uniform()``, appended as they are drawn.  Drawing stops at
    the first walk step whose RK4 steps (``_rk4_steps``) take the walk past
    ``opts.max_steps``, and raises BudgetError, as ``_drive`` does for a
    word over the cap."""
    from array import array  # only a walk needs it

    h, cap = opts.step_size, opts.max_steps
    draws = array("d")
    append, sym, uni = draws.append, rng.symmetric, rng.uniform
    total = 0
    for _ in range(n_steps):
        for _ in range(k):
            append(sym())
        append(t := 0.1 * uni())
        total = _charge(total + _rk4_steps(t, h, cap), cap, "flow would need more than {limit} steps")
    return memoryview(draws)


class _Walk:
    """A leaf walk's ``(coefficients, duration)`` pairs, built from its draws
    when sliced: pair i is the tuple of ``draws[w*i : w*i + k]`` and the
    float ``draws[w*i + k]``, with w = k + 1.  ``durations`` views the
    durations alone, without building the pairs."""

    __slots__ = ("draws", "k")

    def __init__(self, draws: memoryview, k: int):
        self.draws, self.k = draws, k

    def __len__(self) -> int:
        return len(self.draws) // (self.k + 1)

    def __getitem__(self, part: slice) -> list[tuple]:
        k, w = self.k, self.k + 1
        start, stop, _ = part.indices(len(self))
        flat = self.draws[start * w : stop * w].tolist()
        return [(tuple(flat[i : i + k]), flat[i + k]) for i in range(0, len(flat), w)]

    @property
    def durations(self) -> memoryview:
        return self.draws[self.k :: self.k + 1]


def leaf_sample(
    spec: FoliationSpec,
    x0: Sequence,
    n_steps: int,
    rng_seed: int,
    opts: NumericOptions = DEFAULT_OPTIONS,
) -> list[tuple[float, ...]]:
    """Random walk along the generated flows; returns the visited points.

    Per step the combination coefficients are uniform on [-1,1]^k and the
    duration uniform on [0, 0.1]; all randomness comes from the seeded
    xorshift64* generator, so output is reproducible.  Every step is drawn
    before the first is taken, 8 bytes a draw (``_walk_draws``), and the
    walk is driven as one word: ``opts.max_steps`` caps its RK4 steps as a
    whole, and a blow-up names its walk step and counts the time from the
    start.  A walk over the cap is refused while it is drawn: drawing stops
    at the first walk step past it, and BudgetError is raised before any
    RK4 step.
    """
    if n_steps < 0:
        raise PreconditionError(f"step count must be non-negative, got {n_steps}")
    rng = XorShift64Star(rng_seed)
    x = _float_point(x0, spec.nvars)
    return _drive(spec, _Walk(_walk_draws(rng, n_steps, spec.k, opts), spec.k), x, opts)


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------


class FlowChart(NamedTuple):
    """The parametrized chart R^k x M with source (y,x) -> x and target
    (y,x) -> time-1 flow of sum_i y_i X_i from x.
    """

    spec: FoliationSpec
    base_point: tuple[float, ...]
    k: int
    opts: NumericOptions = DEFAULT_OPTIONS

    def source(self, y: Sequence, x: Sequence) -> tuple[float, ...]:
        self._check_y(y)
        return _float_point(x, self.spec.nvars)

    def target(self, y: Sequence, x: Sequence | None = None) -> tuple[float, ...]:
        self._check_y(y)
        pt = self.base_point if x is None else _float_point(x, self.spec.nvars)
        coeffs = tuple(_float(c) for c in y)
        return _drive(self.spec, [(coeffs, 1.0)], pt, self.opts)[-1]

    def _check_y(self, y: Sequence):
        if len(y) != self.k:
            raise ArityError(f"parameter has {len(y)} entries, expected {self.k}")


def chart_at(
    spec: FoliationSpec, x0: Sequence, opts: NumericOptions = DEFAULT_OPTIONS
) -> FlowChart:
    """Chart centered at x0 with one parameter per generator."""
    return FlowChart(spec=spec, base_point=_float_point(x0, spec.nvars), k=spec.k, opts=opts)


def _flow_derivative(spec: FoliationSpec, i: int, x: tuple, opts: NumericOptions) -> list[float]:
    """X_i(x) as the derivative at t = 0 of the time-t flow of X_i from x:
    the central difference of the time-eps and time-(-eps) flows, with unit
    coefficients.  At y = 0 it is also the y_i-derivative of the chart
    target, because the time-1 flow of eps*X_i is the time-eps flow of X_i."""
    eps = opts.fd_epsilon
    coeffs = tuple(Fraction(int(j == i)) for j in range(spec.k))
    fp = _drive(spec, [(coeffs, eps)], x, opts)[-1]
    fm = _drive(spec, [(coeffs, -eps)], x, opts)[-1]
    return [(a - b) / (2.0 * eps) for a, b in zip(fp, fm)]


class ChartRankEntry(NamedTuple):
    point: tuple[Fraction, ...]
    rank: int
    tangent: int

    @property
    def match(self) -> bool:
        return self.rank == self.tangent


class ChartRankReport(NamedTuple):
    entries: tuple[ChartRankEntry, ...]
    ok: bool

    @property
    def mismatches(self) -> tuple[ChartRankEntry, ...]:
        return tuple(e for e in self.entries if not e.match)


def chart_rank_check(
    chart: FlowChart, x0: Sequence, samples: Sequence[Sequence] = ()
) -> ChartRankReport:
    """Check rank d(target)/dy|_(0,x) == tangent dimension at rational points.

    ``x0`` is checked first, then every point in ``samples``.  Points must
    be rational so the tangent dimension is exact.  Column i of the
    derivative is ``_flow_derivative`` of generator i: 2k RK4 steps per
    point.
    """
    spec = chart.spec
    points = [as_point(x0, spec.nvars)] + [as_point(p, spec.nvars) for p in samples]
    entries = []
    for pt in points:
        x = _float_point(pt, spec.nvars)
        cols = [_flow_derivative(spec, i, x, chart.opts) for i in range(spec.k)]
        jac = [[col[j] for col in cols] for j in range(spec.nvars)]
        rank = numerical_rank(jac, chart.opts.rank_rel_threshold)
        entries.append(ChartRankEntry(point=pt, rank=rank, tangent=tangent_dim(spec, pt)))
    return ChartRankReport(entries=tuple(entries), ok=all(e.match for e in entries))


# ---------------------------------------------------------------------------
# Flow-box map
# ---------------------------------------------------------------------------


class Transversal(NamedTuple):
    """Affine hyperplane: base point plus n-1 direction vectors."""

    point: tuple[float, ...]
    directions: tuple[tuple[float, ...], ...]


class FlowBoxReport(NamedTuple):
    jacobian: tuple[tuple[float, ...], ...]
    invertible: bool


def _default_transversal(spec: FoliationSpec, x0: tuple, value: tuple) -> Transversal:
    # coordinate hyperplane dropping the axis where the field is largest
    drop = max(range(spec.nvars), key=lambda i: abs(value[i]))
    dirs = tuple(
        tuple(1.0 if i == j else 0.0 for i in range(spec.nvars))
        for j in range(spec.nvars)
        if j != drop
    )
    return Transversal(point=x0, directions=dirs)


def flow_box(
    spec: FoliationSpec,
    gen_index: int,
    x0: Sequence,
    transversal: Transversal | None = None,
    opts: NumericOptions = DEFAULT_OPTIONS,
) -> FlowBoxReport:
    """Jacobian at (t,v)=(0,x0) of h(t,v) = (time-t flow of the chosen
    generator started on the transversal), with an invertibility verdict.

    ``gen_index`` is 1-based; the generator must not vanish at the exact x0
    (``_vanishes``).  Column 0 differentiates in t and approximates the
    generator value at x0; the other columns are the transversal directions,
    whose entries must be finite floats: one that is NaN, infinite or a
    rational beyond the float range raises PreconditionError, as a point
    coordinate does.
    """
    if not 1 <= gen_index <= spec.k:
        raise ArityError(f"generator index {gen_index} out of range 1..{spec.k}")
    n = spec.nvars
    value = spec.generators[gen_index - 1](as_point(x0, n))
    if _vanishes(value, x0):
        raise PreconditionError("the chosen generator vanishes at the base point")
    pt = _float_point(x0, n)
    if transversal is None:
        transversal = _default_transversal(spec, pt, value)
    if len(transversal.directions) != n - 1:
        raise ArityError(f"transversal needs {n - 1} direction vectors")
    # at t = 0 the flow is the identity, so d(h)/dv is the direction itself
    dirs = [[_float(b) for b in d] for d in transversal.directions]
    if any(len(d) != n for d in dirs):
        raise ArityError("transversal direction has wrong length")
    if not all(math.isfinite(b) for d in dirs for b in d):
        raise PreconditionError("transversal direction has an entry that is not finite")
    _require_on_transversal(pt, transversal)
    cols = [_flow_derivative(spec, gen_index - 1, pt, opts)] + dirs
    jac = tuple(tuple(cols[i][j] for i in range(n)) for j in range(n))
    invertible = numerical_rank(jac, opts.rank_rel_threshold) == n
    return FlowBoxReport(jacobian=jac, invertible=invertible)


def _require_on_transversal(pt: tuple, transversal: Transversal):
    r = [a - b for a, b in zip(pt, _float_point(transversal.point, len(pt)))]
    if not max(map(abs, _residual(transversal.directions, r)), default=0.0) <= 1e-9:
        raise PreconditionError("base point does not lie on the transversal")


def _residual(vectors: Sequence[Sequence[float]], b: Sequence[float]) -> list[float]:
    """``b`` minus its orthogonal projection onto the span of ``vectors``.

    Gram-Schmidt on floats: every vector, and then ``b``, is orthogonalised
    twice against the orthonormal basis built so far, and a vector that
    keeps less than 1e-12 of its norm is dependent and dropped, so the span
    of dependent or rank-deficient vectors is handled.
    """
    basis: list[list[float]] = []
    for v in vectors:
        w = [_float(x) for x in v]
        norm0 = math.hypot(*w)
        w = _orthogonalise(w, basis)
        norm = math.hypot(*w)
        if norm > 1e-12 * norm0:  # false for a zero or non-finite vector
            basis.append([x / norm for x in w])
    return _orthogonalise([_float(x) for x in b], basis)


def _orthogonalise(w: list[float], basis: list[list[float]]) -> list[float]:
    for _ in range(2):
        for q in basis:
            d = _sum_left(x * y for x, y in zip(q, w))
            w = [x - d * y for x, y in zip(w, q)]
    return w


# ---------------------------------------------------------------------------
# Numerical rank
# ---------------------------------------------------------------------------


def numerical_rank(matrix: Sequence[Sequence[float]], rel_threshold: float = 1e-8) -> int:
    """Rank by pivoted elimination; pivots below rel_threshold * (largest
    pivot) count as zero.  An exactly zero matrix has rank 0.
    """
    a = [list(map(_float, row)) for row in matrix]
    if not a or not a[0]:
        return 0
    nr, nc = len(a), len(a[0])
    threshold = None
    r = 0
    while r < min(nr, nc):
        best, bi, bj = 0.0, r, r
        for i in range(r, nr):
            for j in range(r, nc):
                v = abs(a[i][j])
                if v > best:
                    best, bi, bj = v, i, j
        if threshold is None:
            if best == 0.0:
                return 0
            threshold = rel_threshold * best
        if best < threshold:
            break
        a[r], a[bi] = a[bi], a[r]
        for row in a:
            row[r], row[bj] = row[bj], row[r]
        pv = a[r][r]
        for i in range(r + 1, nr):
            if a[i][r]:
                f = a[i][r] / pv
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r
