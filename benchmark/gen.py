"""Seeded input generators for the cpint benchmark.

Every generator draws its parameters from a seeded Stratified and returns
the callables handed to cpint together with independent oracles: the
closed-form primitive, its derivative and, where they exist, the values
a correct result must have.  The callables given to cpint count their
own evaluations on an :class:`Evals` object; the oracles never do, so
correctness checks add nothing to the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import special

HALF_PI = 0.5 * math.pi


class Stratified:
    """Latin hypercube draws over the blocks of a round.

    Draws come in named streams, one per operation kind (or variant):
    the j-th draw of a stream in block b is uniform within stratum
    perm[b] of `blocks` equal strata, where perm is a seeded permutation
    for that stream and j.  Every draw is still uniform over its range,
    but each round spans every parameter's range evenly, which keeps
    per-round totals steady from seed to seed.  A generator draws the
    same number of values whatever it draws, so that the j-th draw of a
    stream is the same parameter in every block.  Offers the parts of
    numpy's Generator interface that the generators use.
    """

    def __init__(self, seed_seq, blocks: int) -> None:
        self._rng = np.random.default_rng(seed_seq)
        self._n = blocks
        self._perms: dict[tuple[str, int], np.ndarray] = {}
        self._b = 0
        self._stream = ""
        self._j = 0

    def block(self, b: int, stream: str) -> None:
        """Start the draws of `stream` in block b."""
        self._b, self._stream, self._j = b, stream, 0

    def _unit(self) -> float:
        key = (self._stream, self._j)
        if key not in self._perms:
            self._perms[key] = self._rng.permutation(self._n)
        stratum = self._perms[key][self._b % self._n]
        self._j += 1
        return (stratum + self._rng.random()) / self._n

    def random(self) -> float:
        return self._unit()

    def uniform(self, lo: float, hi: float, size: Optional[int] = None):
        if size is None:
            return lo + (hi - lo) * self._unit()
        return np.array([lo + (hi - lo) * self._unit() for _ in range(size)])

    def integers(self, lo: int, hi: int) -> int:
        return min(hi - 1, lo + int((hi - lo) * self._unit()))


class Evals:
    """Number of points at which benchmark-supplied callables were
    evaluated.  One object per run, shared by every generated callable."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


@dataclass
class Prim:
    """A generated primitive on the finite reals.

    fn is the counted callable given to cpint, F the same function
    without counting.  lim_neg / lim_pos are the limits at -inf / +inf;
    total is lim_pos - lim_neg.  Where an oracle needs them, dF is the
    derivative, F_np the vectorised form and variation the total
    variation.
    """

    name: str
    fn: Callable[[float], float]
    F: Callable[[float], float]
    lim_neg: float
    lim_pos: float
    dF: Optional[Callable[[float], float]] = None
    F_np: Optional[Callable[[np.ndarray], np.ndarray]] = None
    variation: Optional[float] = None

    @property
    def total(self) -> float:
        return self.lim_pos - self.lim_neg


def counted(ev: Evals, F: Callable[[float], float]) -> Callable[[float], float]:
    def fn(x):
        ev.n += 1
        return F(x)
    return fn


def _prim(ev, name, F, lim_neg, lim_pos, **kw) -> Prim:
    return Prim(name, counted(ev, F), F, lim_neg, lim_pos, **kw)


# ---------------------------------------------------------------------------
# primitives with closed forms


def atan_ramp(ev: Evals, rng: Stratified) -> Prim:
    """A (atan(B (x - C)) + pi/2): monotone, total A pi.

    |A|/B stays below 1.25, so that the tail is within 1e-10 of its
    limit where the tail audits start sampling, at x = 2^34."""
    A = float(rng.uniform(0.5, 1.25)) * (1.0 if rng.random() < 0.5 else -1.0)
    B = float(rng.uniform(1.0, 2.0))
    C = float(rng.uniform(-2.0, 2.0))
    return _prim(ev, "atan_ramp", lambda x: A * (math.atan(B * (x - C)) + HALF_PI),
                 0.0, A * math.pi, variation=abs(A) * math.pi)


def cantor_function(x: float) -> float:
    """The Cantor-Lebesgue function on [0, 1], clamped outside."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    value = 0.0
    scale = 0.5
    for _ in range(52):
        x *= 3.0
        digit = int(x)
        if digit == 1:
            return value + scale
        if digit == 2:
            value += scale
        x -= digit
        scale *= 0.5
    return value


def cantor(ev: Evals, rng: Stratified) -> Prim:
    """A c((x - C) / W): singular, monotone, total A."""
    A = float(rng.uniform(0.5, 2.0))
    C = float(rng.uniform(-1.0, 1.0))
    W = float(rng.uniform(0.5, 2.0))
    return _prim(ev, "cantor", lambda x: A * cantor_function((x - C) / W), 0.0, A,
                 variation=A)


def si(ev: Evals, rng: Optional[Stratified] = None) -> Prim:
    """A Si(B x) on x > 0: conditionally convergent, total A pi/2."""
    A, B = (1.0, 1.0) if rng is None else (float(rng.uniform(0.5, 2.0)),
                                           float(rng.uniform(0.5, 2.0)))
    return _prim(ev, "si", lambda x: A * float(special.sici(B * x)[0]) if x > 0.0 else 0.0,
                 0.0, A * HALF_PI)


def fresnel(ev: Evals, rng: Optional[Stratified] = None) -> Prim:
    """A int_0^x sin(B t^2) dt on x > 0: total A sqrt(pi/(8B))."""
    A, B = (1.0, 1.0) if rng is None else (float(rng.uniform(0.5, 2.0)),
                                           float(rng.uniform(0.8, 1.25)))
    c = math.sqrt(math.pi / (2.0 * B))
    s = math.sqrt(2.0 * B / math.pi)
    return _prim(ev, "fresnel",
                 lambda x: A * c * float(special.fresnel(x * s)[0]) if x > 0.0 else 0.0,
                 0.0, 0.5 * A * c)


def quadratic_osc(ev: Evals, rng: Optional[Stratified] = None) -> Prim:
    """A (x/W)^2 cos((x/W)^-2) on [0, W], clamped: total A cos 1."""
    A, W = (1.0, 1.0) if rng is None else (float(rng.uniform(0.5, 2.0)),
                                           float(rng.uniform(0.5, 2.0)))

    def F(x):
        if x <= 0.0:
            return 0.0
        if x >= W:
            return A * math.cos(1.0)
        t = x / W
        return A * t * t * math.cos(t ** -2)
    return _prim(ev, "quadratic_osc", F, 0.0, A * math.cos(1.0))


def gaussian(ev: Evals, rng: Optional[Stratified] = None) -> Prim:
    """exp(-(x - C)^2): total 0, norm 1, variation 2."""
    C = 0.0 if rng is None else float(rng.uniform(-3.0, 3.0))
    return _prim(ev, "gaussian", lambda x: math.exp(-(x - C) ** 2), 0.0, 0.0,
                 variation=2.0)


def signed_bump(ev: Evals) -> Prim:
    """sin(x) exp(-x^2): both signs, total 0."""
    return _prim(ev, "signed_bump", lambda x: math.sin(x) * math.exp(-x * x), 0.0, 0.0,
                 dF=lambda x: (math.cos(x) - 2.0 * x * math.sin(x)) * math.exp(-x * x))


def sine_burst(ev: Evals, n: int) -> Prim:
    """n (cos(n pi) - cos(n x)) on |x| < pi: norm 2n."""
    def F(x):
        if abs(x) >= math.pi:
            return 0.0
        return n * (math.cos(n * math.pi) - math.cos(n * x))
    return _prim(ev, f"sine_burst{n}", F, 0.0, 0.0)


def gauss_mix(ev: Evals, rng: Stratified, k: Optional[int] = None) -> Prim:
    """k Gaussian bumps (1 to 3 when not given) plus an arctan ramp:
    smooth, both signs."""
    drawn = int(rng.integers(1, 4))
    k = drawn if k is None else k
    cs = [float(v) for v in rng.uniform(-5.0, 5.0, size=3)]
    ws = [float(v) for v in rng.uniform(0.5, 3.0, size=3)]
    amps = [float(v) for v in rng.uniform(-2.0, 2.0, size=3)]
    ramp = float(rng.uniform(-1.0, 1.0))
    rc = float(rng.uniform(-3.0, 3.0))
    terms = list(zip(amps, cs, ws))[:k]

    def F(x):
        v = 0.0
        for a, c, w in terms:
            v += a * math.exp(-((x - c) / w) ** 2)
        return v + ramp * (math.atan(x - rc) + HALF_PI) / math.pi

    def F_np(x):
        v = ramp * (np.arctan(x - rc) + HALF_PI) / math.pi
        for a, c, w in terms:
            v = v + a * np.exp(-((x - c) / w) ** 2)
        return v

    def dF(x):
        v = ramp / (math.pi * (1.0 + (x - rc) ** 2))
        for a, c, w in terms:
            t = (x - c) / w
            v -= 2.0 * a * t / w * math.exp(-t * t)
        return v
    return _prim(ev, "gauss_mix", F, 0.0, ramp, dF=dF, F_np=F_np)


def spike(ev: Evals, w: float) -> Prim:
    """exp(-((x - 0.3) / w)^2): norm 1 however narrow."""
    return _prim(ev, f"spike{w:g}", lambda x: math.exp(-((x - 0.3) / w) ** 2), 0.0, 0.0)


def ramp_indicator(ev: Evals) -> Prim:
    """Primitive of the indicator of [-1, 1]."""
    return _prim(ev, "ramp_indicator", lambda x: max(0.0, min(2.0, x + 1.0)), 0.0, 2.0)


def one_minus_exp(ev: Evals) -> Prim:
    """1 - exp(-x) on x > 0: Laplace transform 1/(z + 1)."""
    return _prim(ev, "one_minus_exp", lambda x: -math.expm1(-x) if x > 0.0 else 0.0,
                 0.0, 1.0)


def slow_algebraic_tail(ev: Evals) -> Prim:
    """sign(x) (1 - (1 + x^2)^(-1/4)): limits -1 and 1, approached like
    |x|^(-1/2)."""
    return _prim(ev, "slow_algebraic_tail",
                 lambda x: math.copysign(1.0 - (1.0 + x * x) ** -0.25, x), -1.0, 1.0)


# ---------------------------------------------------------------------------
# integrands for hake_from_integrand


@dataclass
class Integrand:
    """fn is the counted integrand given to cpint, f the same without
    counting, partial the exact integral over [0, x] (None when only
    quadrature gives it), total the integral over [0, inf)."""

    name: str
    fn: Callable[[float], float]
    f: Callable[[float], float]
    partial: Optional[Callable[[float], float]]
    total: float


def _integrand(ev, name, f, partial, total) -> Integrand:
    return Integrand(name, counted(ev, f), f, partial, total)


def sin_square(ev: Evals, rng: Stratified) -> Integrand:
    """sin(a x^2): total sqrt(pi/(8a))."""
    a = float(rng.uniform(0.9, 1.1))
    c = math.sqrt(math.pi / (2.0 * a))
    s = math.sqrt(2.0 * a / math.pi)
    return _integrand(ev, "sin_square", lambda x: math.sin(a * x * x),
                      lambda x: c * float(special.fresnel(x * s)[0]), 0.5 * c)


def sin_over_linear(ev: Evals, rng: Stratified) -> Integrand:
    """sin(b x)/(1 + x): total Ci(b) sin b + (pi/2 - Si(b)) cos b."""
    b = float(rng.uniform(0.8, 1.25))
    s_i, c_i = special.sici(b)
    total = float(c_i * math.sin(b) + (HALF_PI - s_i) * math.cos(b))
    return _integrand(ev, "sin_over_linear",
                      lambda x: math.sin(b * x) / (1.0 + x), None, total)


def gauss_integrand(ev: Evals, s: float = 1.0) -> Integrand:
    """exp(-(x/s)^2): total s sqrt(pi)/2."""
    h = 0.5 * s * math.sqrt(math.pi)
    return _integrand(ev, "gauss", lambda x: math.exp(-(x / s) ** 2),
                      lambda x: h * math.erf(x / s), h)


def rational_integrand(ev: Evals) -> Integrand:
    """1/(1 + x^2): total pi/2."""
    return _integrand(ev, "rational", lambda x: 1.0 / (1.0 + x * x), math.atan, HALF_PI)


# ---------------------------------------------------------------------------
# functions of bounded variation, described so that both cpint and the
# oracles can be built from the same numbers


@dataclass
class BVSpec:
    """kind is step, blocks, knots or ramp.  g is the uncounted value on
    the finite reals (right-continuous at breaks; the Lebesgue integral
    does not see point values), fn the counted piece function of a
    ramp, breaks the points where g is not smooth."""

    kind: str
    g: Callable[[float], float]
    breaks: tuple
    args: tuple = ()
    fn: Optional[Callable[[float], float]] = field(default=None, repr=False)


def step(rng: Stratified) -> BVSpec:
    """Indicator of [a, b]."""
    a = float(rng.uniform(-3.0, 2.0))
    b = a + float(rng.uniform(0.5, 3.0))
    return BVSpec("step", lambda x: 1.0 if a <= x <= b else 0.0, (a, b), (a, b))


def upward_step(rng: Stratified, clear_of=(), clearance: float = 0.02) -> BVSpec:
    """Indicator of [a, inf): monotone.  a is moved, where it must be,
    to at least `clearance` from every point of clear_of."""
    a = float(rng.uniform(-3.0, 2.0))
    for _ in range(len(clear_of)):
        near = min(clear_of, key=lambda c: abs(a - c))
        if abs(a - near) >= clearance:
            break
        a = near + (clearance if a >= near else -clearance)
    return BVSpec("step", lambda x: 1.0 if x >= a else 0.0, (a,), (a, math.inf))


def block_spec(rng: Stratified) -> BVSpec:
    """1 to 3 blocks of drawn heights."""
    spans = []
    t = float(rng.uniform(-5.0, -3.0))
    k = int(rng.integers(1, 4))
    for _ in range(3):
        a = t + float(rng.uniform(0.2, 1.0))
        b = a + float(rng.uniform(0.2, 1.5))
        spans.append((a, b, float(rng.uniform(-2.0, 2.0))))
        t = b
    spans = spans[:k]

    def g(x):
        for a, b, h in spans:
            if a <= x <= b:
                return h
        return 0.0
    return BVSpec("blocks", g, tuple(p for a, b, _ in spans for p in (a, b)),
                  (tuple(spans),))


def knots_spec(rng: Stratified, n: int = 3) -> BVSpec:
    """Piecewise linear through n knots whose values alternate in sign,
    so that no piece is flat."""
    xs = sorted(float(v) for v in rng.uniform(-4.0, 4.0, size=n))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    vs = [sign * (-1.0) ** i * float(rng.uniform(0.5, 1.5)) for i in range(n)]
    return BVSpec("knots", lambda x: float(np.interp(x, xs, vs)), tuple(xs), (xs, vs))


def monotone_knots_spec(rng: Stratified) -> BVSpec:
    lo = float(rng.uniform(-3.0, 2.0))
    hi = lo + float(rng.uniform(0.5, 2.0))
    base = float(rng.uniform(-1.0, 1.0))
    rise = float(rng.uniform(0.2, 2.0))
    xs, vs = [lo, hi], [base, base + rise]
    return BVSpec("knots", lambda x: float(np.interp(x, xs, vs)), tuple(xs), (xs, vs))


def ramp_spec(ev: Evals, rng: Stratified) -> BVSpec:
    """s atan((x - c)/w): one monotone piece with a benchmark-supplied
    evaluator."""
    s = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    c = float(rng.uniform(-2.0, 2.0))
    w = float(rng.uniform(0.5, 2.0))
    g = lambda x: s * math.atan((x - c) / w)
    return BVSpec("ramp", g, (), (-s * HALF_PI, s * HALF_PI), counted(ev, g))
