"""Seeded request corpora for the four ``fol`` workloads.

A corpus is a set of ``.fol`` files plus a list of requests (argv lists
for one ``fol`` process each).  It depends only on the workload name and
the seed: the same seed gives a byte-identical corpus (see
:func:`Corpus.serialize`).  Every request carries the data the answer
checks need (``expect``) and, for the numeric subcommands, the RK4 work it
implies (``work``), computed from the inputs and the step size with the
splitting rule the README documents.

Why these workloads:

* ``algebra`` - exact questions (``check``, ``syzygy``, ``member``,
  ``singular``, ``localgens``, ``dims --point``) on the named specs and on
  seeded dense specs, plus large-power ``member --field`` queries.  Groebner
  elimination in ``modalg`` and ``Poly`` arithmetic do the work; ``flow``
  does none.  Small named-spec requests put interpreter start-up and
  parsing at the median; dense specs and the large powers set the tail.
* ``scan`` - ``dims --grid`` over a few thousand rational points (half of
  them with ``--jobs 2``), plus ``dims --point`` and ``localgens``.  One
  cheap syzygy run per spec, then thousands of exact evaluations,
  ``rank_exact`` calls and a large JSON report: ``modalg`` as an
  evaluator, not an eliminator, and the thread pool the ROADMAP plans to
  remove.
* ``walk`` - ``leaf`` (450 to 750 segments each) and ``chart-rank``
  on bounded linear specs.  Almost every RK4 segment has a coefficient
  tuple not seen before in the process, so per-tuple kernel generation
  and compilation dominate; the exact layer does almost nothing.
* ``longflow`` - flow words and jets that cycle through two or three
  coefficient tuples for 2e4 to 1e5 RK4 steps, plus ``flowbox``,
  ``jet-exact``, ``germ-eq`` and ``pushforward``.  Each kernel compiles
  once and then steps, so a kernel that is cheaper to build but slower to
  step shows its cost here.

Dense specs use shape (n, k, deg) = (2, 3, 3) only: seeded draws of the
(2, 4, 2) and (3, 4, 2) shapes take from 0.3 s to over 20 s in
``syzygy_basis``, which no fixed-length run can hold steady.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from oracle import Expr, field_value, max_abs_diff, word_matrix

WORKLOADS = ("algebra", "scan", "walk", "longflow")

DEFAULT_H = 1e-3


class XorShift64Star:
    """The README's generator: x ^= x>>12; x ^= x<<25; x ^= x>>27; out = x*M."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        s = int(seed) & self._MASK
        self.state = s if s else 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & self._MASK
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & self._MASK

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def symmetric(self) -> float:
        return 2.0 * self.uniform() - 1.0

    def randint(self, lo: int, hi: int) -> int:
        return lo + int(self.uniform() * (hi - lo + 1))

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass
class Spec:
    """A foliation as per-generator component texts (``"0"`` for zero)."""

    name: str
    var_names: tuple[str, ...]
    gens: list[list[str]]
    closed: bool | None = None  # known involutivity verdict, None if unknown

    @property
    def k(self) -> int:
        return len(self.gens)

    @property
    def n(self) -> int:
        return len(self.var_names)

    def field_text(self, comps) -> str:
        terms = [f"({c})*d{v}" for c, v in zip(comps, self.var_names) if c != "0"]
        return " + ".join(terms) if terms else f"0*d{self.var_names[0]}"

    def file_text(self) -> str:
        lines = [f"name: {self.name}", "vars: " + " ".join(self.var_names), "generators:"]
        lines += ["  " + self.field_text(g) for g in self.gens]
        return "\n".join(lines) + "\n"

    def exprs(self) -> list[list[Expr]]:
        """Generator components parsed by the benchmark's own evaluator."""
        return [[Expr(c, self.var_names) for c in g] for g in self.gens]

    def matrices(self) -> list[list[list[Fraction]]]:
        """A_i with X_i(x) = A_i x (only meaningful for linear specs)."""
        exprs = self.exprs()
        unit = [tuple(Fraction(int(i == m)) for i in range(self.n)) for m in range(self.n)]
        mats = []
        for comps in exprs:
            cols = [field_value(comps, e) for e in unit]
            mats.append([[cols[m][j] for m in range(self.n)] for j in range(self.n)])
        return mats


def _named() -> dict[str, Spec]:
    xyz = ("x", "y", "z")
    specs = [
        Spec("sl2", ("x", "y"), [["x", "-y"], ["y", "0"], ["0", "x"]], True),
        Spec("gl2", ("x", "y"), [["x", "0"], ["0", "y"], ["y", "0"], ["0", "x"]], True),
        Spec("cstar", ("x", "y"), [["x", "y"], ["-y", "x"]], True),
        Spec("so3", xyz, [["-y", "x", "0"], ["0", "-z", "y"], ["z", "0", "-x"]], True),
        Spec("gl3", xyz, [[a if j == b else "0" for j in range(3)] for a in xyz for b in range(3)], True),
        Spec("xk2", ("x",), [["x^2"]], True),
        Spec("xk3", ("x",), [["x^3"]], True),
        Spec("xk4", ("x",), [["x^4"]], True),
        Spec("nonintegrable", ("x", "y"), [["1", "0"], ["0", "x"]], False),
    ]
    return {s.name: s for s in specs}


NAMED = _named()
LINEAR = ("sl2", "gl2", "cstar", "so3", "gl3")
# linear specs whose generators all vanish at the origin also make
# certain non-members: anything with a nonzero constant term
COMMON_ZERO = LINEAR + ("xk2", "xk3", "xk4")


def _fmt_q(q: Fraction) -> str:
    return str(q)


def _rand_q(rng: XorShift64Star, max_numer: int = 8, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-max_numer, max_numer), den)


def _rand_poly_text(rng: XorShift64Star, var_names, max_deg: int, n_terms: int) -> str:
    """Sum of ``n_terms`` seeded terms, as in the test suite's random_poly."""
    n = len(var_names)
    parts = []
    for _ in range(n_terms):
        expt = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            expt[rng.randint(0, n - 1)] += 1
        c = _rand_q(rng)
        if c == 0:
            continue
        mono = [v if e == 1 else f"{v}^{e}" for v, e in zip(var_names, expt) if e]
        parts.append("*".join([f"({_fmt_q(c)})"] + mono))
    return " + ".join(parts) if parts else "0"


def dense_spec(rng: XorShift64Star, name: str, n: int, k: int, deg: int) -> Spec:
    var_names = ("x", "y", "z")[:n]
    gens = [[_rand_poly_text(rng, var_names, deg, 3) for _ in range(n)] for _ in range(k)]
    return Spec(name, var_names, gens, None)


def rand_point(rng: XorShift64Star, n: int) -> tuple[Fraction, ...]:
    return tuple(_rand_q(rng) for _ in range(n))


def fmt_point(pt) -> str:
    return ",".join(_fmt_q(c) for c in pt)


def random_rational_points(seed: int, n: int, count: int):
    """The sample points ``chart-rank --seed`` draws (README generator)."""
    rng = XorShift64Star(seed)
    return [tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(n)) for _ in range(count)]


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass
class Request:
    id: str
    cmd: str
    spec: str  # key into Corpus.specs
    argv: list[str]
    exit: int | None  # expected exit code; None: 0 or 1, as the verdict says
    expect: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)  # computed RK4 work (numeric subcommands)


def rk4_steps(duration: float, h: float) -> int:
    """Steps for one segment: full steps of h plus one remainder step (README)."""
    total = abs(duration)
    if total == 0.0:
        return 0
    nfull = int(total / h)
    return nfull + (1 if total - nfull * h > 1e-15 else 0)


def _word_text(word) -> str:
    return "; ".join(",".join(_fmt_q(c) for c in coeffs) + f"@{_fmt_q(t)}" for coeffs, t in word)


def _word_work(word, h: float, kernel: str) -> dict:
    seen = set()
    fresh = 0
    for coeffs, _ in word:
        key = (kernel, tuple(coeffs))
        if key not in seen:
            seen.add(key)
            fresh += 1
    return {
        "segments": len(word),
        "rk4_steps": sum(rk4_steps(float(t), h) for _, t in word),
        "fresh": fresh,
    }


@dataclass
class Corpus:
    workload: str
    seed: int
    specs: dict[str, Spec] = field(default_factory=dict)
    requests: list[Request] = field(default_factory=list)

    def files(self) -> dict[str, str]:
        return {f"specs/{name}.fol": s.file_text() for name, s in sorted(self.specs.items())}

    def add(self, cmd: str, spec: Spec, args: list[str], exit: int | None = 0, expect=None, work=None):
        self.specs.setdefault(spec.name, spec)
        rid = f"{self.workload}-{len(self.requests):03d}"
        argv = [cmd, f"specs/{spec.name}.fol"] + args
        self.requests.append(Request(rid, cmd, spec.name, argv, exit, expect or {}, work or {}))

    def serialize(self) -> bytes:
        """Canonical bytes of the corpus: files, argv and expectations."""
        body = {
            "files": self.files(),
            "requests": [
                {"id": r.id, "argv": r.argv, "exit": r.exit, "expect": r.expect, "work": r.work}
                for r in self.requests
            ],
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


# -- exact subcommands ---------------------------------------------------------


_NONZERO = tuple(m for m in range(-8, 9) if m)


def _member_in(rng: XorShift64Star, c: Corpus, spec: Spec, power: int = 0):
    """A field sum f_i X_i, so membership is known; ``power`` multiplies in
    (x + y + 1)^power to make a large, parse-heavy query."""
    if power:  # f_i = (x + y + 1)^power * c_i * v_i: one cost per spec, up to the draws
        base = "(" + " + ".join(spec.var_names) + " + 1)^" + str(power)
        fs = [f"{base}*({_fmt_q(Fraction(rng.choice(_NONZERO), 4))})*{rng.choice(spec.var_names)}"
              for _ in range(spec.k)]
    else:
        fs = [_rand_poly_text(rng, spec.var_names, 2, 2) for _ in range(spec.k)]
    comps = []
    for j in range(spec.n):
        parts = [f"({f})*({g[j]})" for f, g in zip(fs, spec.gens) if f != "0" and g[j] != "0"]
        comps.append(" + ".join(parts) if parts else "0")
    c.add("member", spec, ["--field", spec.field_text(comps)], expect={"member": True})


def _member_out(rng: XorShift64Star, c: Corpus, spec: Spec):
    """sum f_i X_i plus a nonzero constant: every member vanishes at the
    origin (a common zero of the generators), this field does not."""
    fs = [_rand_poly_text(rng, spec.var_names, 1, 2) for _ in range(spec.k)]
    j0 = rng.randint(0, spec.n - 1)
    const = Fraction(rng.randint(1, 8), 4)
    comps = []
    for j in range(spec.n):
        parts = [f"({f})*({g[j]})" for f, g in zip(fs, spec.gens) if f != "0" and g[j] != "0"]
        if j == j0:
            parts.append(f"({_fmt_q(const)})")
        comps.append(" + ".join(parts) if parts else "0")
    c.add("member", spec, ["--field", spec.field_text(comps)], expect={"member": False})


def _exact_request(rng: XorShift64Star, c: Corpus, spec: Spec, kind: str):
    if kind == "check":
        exit = None if spec.closed is None else (0 if spec.closed else 1)
        c.add("check", spec, [], exit=exit, expect={"closed": spec.closed})
    elif kind in ("syzygy", "singular"):
        c.add(kind, spec, [])
    elif kind == "member-in":
        _member_in(rng, c, spec)
    elif kind == "member-out":
        _member_out(rng, c, spec)
    elif kind == "dims":
        c.add("dims", spec, ["--point", fmt_point(rand_point(rng, spec.n))])
    elif kind == "localgens":
        pt = rand_point(rng, spec.n) if rng.randint(0, 1) else (Fraction(0),) * spec.n
        c.add("localgens", spec, ["--point", fmt_point(pt)])
    else:
        raise ValueError(kind)


def _algebra(rng: XorShift64Star, c: Corpus):
    for spec in NAMED.values():
        _exact_request(rng, c, spec, "check")
    kinds = ("syzygy", "singular", "member-in", "member-out", "localgens", "dims")
    names = tuple(NAMED)
    for _ in range(30):
        spec = NAMED[rng.choice(names)]
        kind = rng.choice(kinds)
        if kind == "member-out" and spec.name not in COMMON_ZERO:
            kind = "member-in"
        _exact_request(rng, c, spec, kind)
    # the seed draws the inputs; the mix of specs and subcommands is fixed, and
    # each dense draw gets one request (a draw's cost varies by 0.7 of its
    # mean), so one run's total work varies little from seed to seed
    dense_kinds = ("syzygy", "dims", "localgens", "check", "member-in")
    for d in range(8):
        spec = dense_spec(rng, f"dense{d:02d}", 2, 3, 3)
        _exact_request(rng, c, spec, dense_kinds[d % len(dense_kinds)])
    for i in range(15):
        _member_in(rng, c, NAMED[("sl2", "gl2", "cstar")[i % 3]], power=13)


def _scan(rng: XorShift64Star, c: Corpus):
    # points per axis, sized so each grid costs roughly the same today
    axis = {"so3": 15, "gl3": 9, "sl2": 54, "gl2": 50, "cstar": 64}
    for i in range(20):
        name = tuple(axis)[i % len(axis)]
        j = 1 + (i // len(axis)) % 2  # each spec twice with --jobs 1, twice with --jobs 2
        spec = NAMED[name]
        m = axis[name]
        q = rng.randint(2, 4)
        a = Fraction(-(m // 2), q)
        b = a + Fraction(m - 1, q)
        args = ["--grid", f"{_fmt_q(a)}:{_fmt_q(b)}:1/{q}"]
        if rng.randint(0, 1):
            args = ["--point", fmt_point(rand_point(rng, spec.n))] + args
        c.add("dims", spec, args + ["--jobs", str(j)])
    for _ in range(10):
        spec = NAMED[rng.choice(tuple(NAMED))]
        _exact_request(rng, c, spec, rng.choice(("dims", "localgens")))


# -- numeric subcommands -------------------------------------------------------


def _nonzero_point(rng: XorShift64Star, n: int):
    while True:
        pt = rand_point(rng, n)
        if any(pt):
            return pt


def _walk(rng: XorShift64Star, c: Corpus):
    specs = ("so3", "gl3", "sl2", "cstar")
    for i in range(28):
        spec = NAMED[specs[i % len(specs)]]
        steps = rng.randint(450, 750)
        seed = rng.randint(1, 2**31 - 1)
        pt = _nonzero_point(rng, spec.n)
        # replay leaf_sample's draws: k coefficients in [-1,1), then a duration in [0, 0.1)
        walk = XorShift64Star(seed)
        tuples = set()
        n_steps = 0
        for _ in range(steps):
            coeffs = tuple(walk.symmetric() for _ in range(spec.k))
            n_steps += rk4_steps(0.1 * walk.uniform(), DEFAULT_H)
            tuples.add(coeffs)
        work = {"segments": steps, "rk4_steps": n_steps, "fresh": len(tuples)}
        c.add("leaf", spec, ["--point", fmt_point(pt), "--steps", str(steps), "--seed", str(seed)],
              expect={"seed": seed, "point": fmt_point(pt), "steps": steps}, work=work)
    # chart-rank runs 2k time-1 flows per sample point through a handful of
    # kernels; gl3 (k = 9) would turn the walk into a step-bound workload
    for i in range(6):
        spec = NAMED[("so3", "sl2", "cstar")[i % 3]]
        samples = rng.randint(8, 14)
        seed = rng.randint(1, 2**31 - 1)
        pt = _nonzero_point(rng, spec.n)
        # per sample point (base point first): +-eps on each parameter, time-1 flows
        segs = (1 + samples) * 2 * spec.k
        work = {"segments": segs, "rk4_steps": segs * rk4_steps(1.0, DEFAULT_H), "fresh": 2 * spec.k}
        c.add("chart-rank", spec,
              ["--point", fmt_point(pt), "--samples", str(samples), "--seed", str(seed)],
              expect={"seed": seed, "point": fmt_point(pt), "samples": samples}, work=work)


def _cycle_word(rng: XorShift64Star, spec: Spec, target_steps: int, h: float):
    """Few distinct coefficient tuples, cycled into a long bounded word."""
    if spec.name == "so3":
        tuples = []
        while len(tuples) < 3:
            t = tuple(Fraction(rng.randint(-4, 4), 4) for _ in range(3))
            if any(t) and t not in tuples:
                tuples.append(t)
    else:  # cstar: scaling parts cancel over a cycle, rotations stay bounded
        a = Fraction(rng.randint(1, 4), 4)
        tuples = [(a, Fraction(rng.randint(1, 4), 4)), (-a, Fraction(-rng.randint(1, 4), 4))]
    seg = Fraction(1, 2)
    n_seg = max(len(tuples), round(target_steps * h / float(seg)))
    n_seg -= n_seg % len(tuples)
    return [(tuples[i % len(tuples)], seg) for i in range(n_seg)]


def _longflow(rng: XorShift64Star, c: Corpus):
    for i in range(20):
        spec = NAMED[("so3", "so3", "cstar", "so3", "cstar")[i % 5]]
        h = (1e-3, 5e-4)[i % 2]
        word = _cycle_word(rng, spec, rng.randint(60_000, 90_000), h)
        pt = _nonzero_point(rng, spec.n)
        args = ["--word", _word_text(word), "--point", fmt_point(pt)]
        if h != DEFAULT_H:
            args += ["--h", repr(h)]
        c.add("flow", spec, args, expect={"word": _word_json(word), "point": fmt_point(pt), "h": h},
              work=_word_work(word, h, "flow"))
    for i in range(10):
        spec = NAMED[("so3", "cstar")[i % 2]]
        word = _cycle_word(rng, spec, rng.randint(20_000, 40_000), DEFAULT_H)
        origin = fmt_point((0,) * spec.n)
        c.add("jet", spec, ["--word", _word_text(word), "--point", origin],
              expect={"word": _word_json(word)}, work=_word_work(word, DEFAULT_H, "jet"))
    for _ in range(3):
        _linear_oracle_requests(rng, c)


def _linear_oracle_requests(rng: XorShift64Star, c: Corpus):
    """flowbox, jet-exact, germ-eq and pushforward on linear specs."""
    linear = tuple(LINEAR)
    # flowbox: two +-eps segments of one generator, each a single remainder step
    spec = NAMED[rng.choice(linear)]
    exprs = spec.exprs()
    while True:
        gen = rng.randint(1, spec.k)
        pt = rand_point(rng, spec.n)
        if any(field_value(exprs[gen - 1], pt)):
            break
    c.add("flowbox", spec, ["--gen", str(gen), "--point", fmt_point(pt)],
          expect={"gen": gen, "point": fmt_point(pt)},
          work={"segments": 2, "rk4_steps": 2 * rk4_steps(1e-5, DEFAULT_H), "fresh": 1})
    spec = NAMED[rng.choice(linear)]
    word = _short_word(rng, spec)
    c.add("jet-exact", spec, ["--word", _word_text(word)], expect={"word": _word_json(word)})
    spec = NAMED[rng.choice(("so3", "gl3", "sl2"))]
    while True:
        w1 = _short_word(rng, spec)
        if rng.randint(0, 1):  # the same flow, its first step split in two
            (coeffs, t), rest = w1[0], w1[1:]
            w2 = [(coeffs, t / 3), (coeffs, t - t / 3)] + rest
        else:  # reversed steps, or the inverse of a single step
            w2 = list(reversed(w1)) if len(w1) > 1 else [(w1[0][0], -w1[0][1])]
        mats = spec.matrices()
        gap = max_abs_diff(
            [v for row in word_matrix(mats, w1) for v in row],
            [v for row in word_matrix(mats, w2) for v in row],
        )
        if gap < 1e-9 or gap > 1e-3:  # far from the 1e-6 tolerance either way
            break
    origin = fmt_point((0,) * spec.n)
    c.add("germ-eq", spec,
          ["--word1", _word_text(w1), "--word2", _word_text(w2), "--point", origin],
          expect={"equal": gap < 1e-9})
    spec = NAMED[rng.choice(linear)]
    coeffs = [_fmt_q(Fraction(rng.randint(-4, 4), 4)) for _ in range(spec.k)]
    time = rng.randint(1, 8) / 4
    c.add("pushforward", spec, ["--coeffs", ",".join(coeffs), "--time", repr(time)])


def _short_word(rng: XorShift64Star, spec: Spec):
    n_steps = rng.randint(1, 3)
    word = []
    for _ in range(n_steps):
        coeffs = tuple(Fraction(rng.randint(-4, 4), 4) for _ in range(spec.k))
        word.append((coeffs, Fraction(rng.randint(1, 8), 8)))
    return word


def _word_json(word):
    return [[[_fmt_q(c) for c in coeffs], _fmt_q(t)] for coeffs, t in word]


_GENERATORS = {"algebra": _algebra, "scan": _scan, "walk": _walk, "longflow": _longflow}


def build(workload: str, seed: int) -> Corpus:
    """The corpus of ``workload`` for ``seed``, requests in seeded order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = XorShift64Star(seed * 4 + WORKLOADS.index(workload) + 1)
    c = Corpus(workload, seed)
    _GENERATORS[workload](rng, c)
    rng.shuffle(c.requests)
    for i, r in enumerate(c.requests):
        r.id = f"{workload}-{i:03d}"
    return c
