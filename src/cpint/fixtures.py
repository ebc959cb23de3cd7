"""Named distributions and seeded random generators used across the
test suites and the CLI.

Closed-form fixtures are built without re-running the continuity audit
when continuity is known structurally (piecewise-linear ramps, shifted
Gaussians); fixtures whose membership is the interesting claim (Cantor
primitive, the oscillatory quadratic primitive) go through the audited
constructor.
"""

from __future__ import annotations

import math

import numpy as np

from .bv import BVFunction, blocks, from_knots, indicator, monotone
from .cfun import ContinuousFunctionBar
from .space import Distribution, distribution_from_evaluator


def arctan_distribution() -> Distribution:
    """Derivative of arctan, anchored; total integral pi."""
    return distribution_from_evaluator(math.atan, -math.pi / 2, math.pi / 2)


def gaussian_distribution(center: float = 0.0) -> Distribution:
    """Distribution with primitive exp(-(x-center)^2)."""
    return Distribution(ContinuousFunctionBar(
        lambda x: math.exp(-(x - center) ** 2), 0.0, 0.0))


def signed_bump_distribution() -> Distribution:
    """Primitive sin(x) exp(-x^2): takes both signs, vanishes at +-inf."""
    return Distribution(ContinuousFunctionBar(
        lambda x: math.sin(x) * math.exp(-x * x), 0.0, 0.0))


def cantor_function(x: float) -> float:
    """The Cantor-Lebesgue singular function on [0,1], clamped outside."""
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


def cantor_distribution() -> Distribution:
    """Derivative of the Cantor function: a singular measure, integrable
    here even though it vanishes a.e. and is not Lebesgue-representable."""
    return distribution_from_evaluator(cantor_function, 0.0, 1.0)


def si_distribution() -> Distribution:
    """sin(t)/t on [0, inf): conditionally integrable, primitive Si."""
    from scipy import special

    def F(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return float(special.sici(x)[0])
    return distribution_from_evaluator(F, 0.0, math.pi / 2)


def quadratic_osc_distribution() -> Distribution:
    """Derivative of x^2 cos(x^-2) on [0,1] (clamped outside): the
    classical nonabsolutely integrable example."""
    def F(x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return math.cos(1.0)
        return x * x * math.cos(x ** -2)
    return distribution_from_evaluator(F, 0.0, math.cos(1.0))


def fresnel_distribution() -> Distribution:
    """sin(t^2) on [0, inf) through its closed-form primitive."""
    from scipy import special

    half = math.sqrt(math.pi / 2.0)

    def F(x: float) -> float:
        if x <= 0.0:
            return 0.0
        s, _ = special.fresnel(x * math.sqrt(2.0 / math.pi))
        return half * float(s)
    return distribution_from_evaluator(F, 0.0, half / 2.0)


FIXTURES = {
    "arctan": arctan_distribution,
    "gaussian": gaussian_distribution,
    "signed_bump": signed_bump_distribution,
    "cantor": cantor_distribution,
    "si": si_distribution,
    "quadratic_osc": quadratic_osc_distribution,
    "fresnel": fresnel_distribution,
}


# ---------------------------------------------------------------------------
# seeded random families


def random_distribution(rng: np.random.Generator) -> Distribution:
    """Random smooth distribution: Gaussian bumps plus an arctan ramp."""
    k = int(rng.integers(1, 4))
    centers = rng.uniform(-5.0, 5.0, size=k)
    widths = rng.uniform(0.5, 3.0, size=k)
    amps = rng.uniform(-2.0, 2.0, size=k)
    ramp = float(rng.uniform(-1.0, 1.0))
    ramp_c = float(rng.uniform(-3.0, 3.0))

    def F(x: float) -> float:
        v = sum(a * math.exp(-((x - c) / w) ** 2)
                for a, c, w in zip(amps, centers, widths))
        v += ramp * (math.atan(x - ramp_c) + math.pi / 2) / math.pi
        return v

    return Distribution(ContinuousFunctionBar(F, 0.0, ramp))


def random_monotone_bv(rng: np.random.Generator) -> BVFunction:
    """Random monotone BVFunction (continuous ramp or monotone steps)."""
    lo, hi = sorted(rng.uniform(-4.0, 4.0, size=2))
    kind = int(rng.integers(0, 3))
    sign = -1.0 if rng.random() < 0.5 else 1.0
    if kind == 0:
        scale = float(rng.uniform(0.2, 3.0))
        return monotone(lambda x, s=scale, g=sign: g * s * math.atan(x),
                        -sign * scale * math.pi / 2,
                        sign * scale * math.pi / 2)
    if kind == 1 and hi > lo:
        base = float(rng.uniform(-1.0, 1.0))
        rise = float(rng.uniform(0.2, 2.0))
        g = from_knots([lo, hi], [base, base + rise])
        return g
    # near-step: a very steep monotone ramp at lo
    h = float(rng.uniform(0.2, 2.0))
    return from_knots([lo, lo + 1e-9], [0.0, sign * h])


def random_bv(rng: np.random.Generator) -> BVFunction:
    """Random BVFunction drawn from the mixed constructor families."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        knots = np.sort(rng.uniform(-5.0, 5.0, size=int(rng.integers(2, 6))))
        knots = np.unique(knots)
        if len(knots) < 2:
            knots = np.array([-1.0, 1.0])
        values = rng.uniform(-2.0, 2.0, size=len(knots))
        return from_knots(list(knots), list(values))
    if kind == 1:
        a, b = sorted(rng.uniform(-4.0, 4.0, size=2))
        if a == b:
            b = a + 1.0
        return indicator(float(a), float(b),
                         include_left=bool(rng.random() < 0.5),
                         include_right=bool(rng.random() < 0.5))
    if kind == 2:
        spans = []
        t = float(rng.uniform(-5.0, -3.0))
        for _ in range(int(rng.integers(1, 4))):
            a = t + float(rng.uniform(0.2, 1.0))
            b = a + float(rng.uniform(0.2, 1.5))
            spans.append((a, b, float(rng.uniform(-2.0, 2.0))))
            t = b
        return blocks(spans)
    return random_monotone_bv(rng)
