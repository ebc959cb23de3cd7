"""Convergence modes for sequences of integrable distributions.

Strong convergence is uniform convergence of primitives; weak modes
pair the sequence against batteries of test functions or BV functions;
quasi-uniform convergence is the exact condition keeping the pointwise
limit of primitives continuous.  All verdicts are evidence-grade: a
finite battery and a finite n-range can falsify, never prove, so every
report carries its numeric evidence rows and the range tested.

An evidence row is (label, n, value).  For the weak pairings, the
theorem checkers and the BV limit, value is the pairing, sup or gap at
that n, one row per label and n on the ladder; for equicontinuity it is
the widest delta found, or 0.0 when there is none.  A quasi-uniform
report has one row per point: the first failing (N, eps), or
(n_max, 0.0) when the check holds.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from .bv import BVFunction, blocks, constant, heaviside, indicator, monotone
from .cfun import DEFAULT_TOL, ContinuousFunctionBar, TestFunction, bump
from .chart import INF, NEG_INF
from .errors import UnknownFixture
from .products import integral_product, pair_with_test
from .space import Distribution, linear_combine, norm

DEFAULT_N_MAX = 64
_N_LADDER = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
_TREND_WINDOW = 5
_TREND_DROP = 0.2      # final magnitude must fall below this times the first
_FAIL_FLOOR = 0.9      # final magnitude at or above this times the first


class Verdict(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DistributionSequence:
    generator: Callable[[int], Distribution]
    name: str
    params: dict = field(default_factory=dict)

    def __call__(self, n: int) -> Distribution:
        if n < 1:
            raise ValueError("sequence index starts at 1")
        return self.generator(n)


@dataclass(frozen=True)
class EvidenceRow:
    label: str
    n: int
    value: float


@dataclass(frozen=True)
class ConvergenceReport:
    mode: str
    verdict: Verdict
    element_verdicts: dict
    evidence: tuple
    n_range: tuple


def _trend_verdict(values: Sequence[float], tol: float) -> Verdict:
    """Classify a magnitude sequence: settling to zero, stuck, or unclear."""
    mags = [abs(v) for v in values]
    first = mags[0]
    tail = mags[-_TREND_WINDOW:]
    if all(m <= tol * (1.0 + first) for m in tail):
        return Verdict.HOLDS
    scale = first + tol
    if tail[-1] <= _TREND_DROP * scale and all(
            b <= a * 1.1 + tol for a, b in zip(tail, tail[1:])):
        return Verdict.HOLDS
    if tail[-1] >= _FAIL_FLOOR * scale or tail[-1] >= tail[0]:
        return Verdict.FAILS
    return Verdict.INCONCLUSIVE


def _combine(verdicts) -> Verdict:
    vs = set(verdicts)
    if Verdict.FAILS in vs:
        return Verdict.FAILS
    if Verdict.INCONCLUSIVE in vs:
        return Verdict.INCONCLUSIVE
    return Verdict.HOLDS


def strong_distance(seq: DistributionSequence, candidate: Distribution,
                    n: int) -> float:
    """Alexiewicz distance between the n-th element and the candidate."""
    return norm(linear_combine(-1.0, candidate, seq(n)))


def default_test_battery() -> list[TestFunction]:
    battery = [bump(c, w) for c in (-10, -5, -2, 0, 2, 5, 10)
               for w in (0.5, 1.0, 2.0, 4.0)]
    battery.append(bump(0.0, 20.0))
    return battery


def default_bv_battery() -> list[tuple[str, BVFunction]]:
    return [
        ("one", constant(1.0)),
        ("heaviside", heaviside()),
        ("indicator01", indicator(0.0, 1.0)),
        ("arctan_unit", monotone(lambda x: (math.atan(x) / math.pi) + 0.5,
                                 0.0, 1.0)),
        ("staircase", blocks([(1.0, 2.0, 1.0), (3.0, 4.0, 1.0)])),
    ]


def _ladder(n_max: int) -> list[int]:
    return [n for n in _N_LADDER if n <= n_max] or [n_max]


def _report(mode: str, ns: Sequence[int], series,
            classify: Callable[[list], Verdict]) -> ConvergenceReport:
    """One evidence row per (label, n) and one verdict per label, from
    (label, values at each n in ns) pairs."""
    rows = []
    verdicts = {}
    for label, vals in series:
        rows += [EvidenceRow(label, n, v) for n, v in zip(ns, vals)]
        verdicts[label] = classify(vals)
    return ConvergenceReport(mode, _combine(verdicts.values()), verdicts,
                             tuple(rows), (ns[0], ns[-1]))


def _pairing_report(mode, pair, seq, candidate, battery, n_max,
                    tol) -> ConvergenceReport:
    """Trends of pair(f_n - candidate, g, tol) for each (label, g)."""
    ns = _ladder(n_max)
    diffs = [linear_combine(-1.0, candidate, seq(n)) for n in ns]
    return _report(mode, ns, ((label, [pair(d, g, tol) for d in diffs])
                              for label, g in battery),
                   lambda vals: _trend_verdict(vals, tol))


def weak_d_report(seq: DistributionSequence, candidate: Distribution,
                  battery: Optional[Sequence[TestFunction]] = None,
                  n_max: int = DEFAULT_N_MAX,
                  tol: float = DEFAULT_TOL) -> ConvergenceReport:
    """Pairings <f_n - candidate, phi> across the battery, with trends."""
    phis = default_test_battery() if battery is None else battery
    return _pairing_report(
        "weak_d", pair_with_test, seq, candidate,
        [(f"bump(c={phi.center:g},w={phi.width:g})", phi) for phi in phis],
        n_max, tol)


def weak_bv_report(seq: DistributionSequence, candidate: Distribution,
                   battery: Optional[Sequence[tuple[str, BVFunction]]] = None,
                   n_max: int = DEFAULT_N_MAX,
                   tol: float = DEFAULT_TOL) -> ConvergenceReport:
    """Pairings int (f_n - candidate) g across the BV battery.

    The battery always contains g = 1, so the overall verdict controls
    convergence of the integrals themselves.
    """
    battery = list(battery) if battery is not None else default_bv_battery()
    if not any(isinstance(g, BVFunction) and g.variation() == 0.0
               and g.value_pos_inf == 1.0 for _, g in battery):
        battery = [("one", constant(1.0))] + battery
    return _pairing_report("weak_bv", integral_product, seq, candidate,
                           battery, n_max, tol)


_EPS_LADDER = (1.0, 0.5, 0.1, 0.05, 0.01)
_DELTA_LADDER = tuple(2.0 ** -k for k in range(0, 21))
_QU_SAMPLES = 33


def _neighborhood_samples(x: float, delta: float) -> list[float]:
    """Audit points for the delta-neighbourhood of x (the half-line
    y > 1/delta when x is +-inf).  Uniform coverage plus geometric
    points toward x so that narrow spikes cannot hide between samples."""
    if x == INF or x == NEG_INF:
        sign = 1.0 if x == INF else -1.0
        base = 1.0 / delta
        ys = [sign * base * (1.0 + i) for i in range(_QU_SAMPLES)]
        ys += [sign * base * 2.0 ** j for j in range(35)]
        return ys
    ys = [x - delta + 2.0 * delta * i / (_QU_SAMPLES - 1)
          for i in range(_QU_SAMPLES)]
    ys += [x + s * delta * 2.0 ** -j for s in (-1.0, 1.0) for j in range(1, 45)]
    return ys


def _widest_delta(gap: Callable[[float], float], x: float,
                  eps: float) -> float:
    """The widest delta on the ladder with |gap| < eps throughout the
    sampled delta-neighbourhood of x, or 0.0 when there is none."""
    return next((delta for delta in _DELTA_LADDER
                 if all(abs(gap(y)) < eps
                        for y in _neighborhood_samples(x, delta))), 0.0)


def quasi_uniform_check(seq: DistributionSequence,
                        F_limit: Callable[[float], float],
                        points: Sequence[float],
                        n_max: int = DEFAULT_N_MAX) -> ConvergenceReport:
    """Quasi-uniform convergence of the primitives to F_limit.

    For every probe point, every epsilon on a fixed ladder and every N,
    some n >= N and some delta must make |F_n - F| < eps throughout the
    sampled delta-neighbourhood (the half-lines y > 1/delta at +-inf).
    """
    prim = functools.cache(lambda n: seq(n).primitive)
    levels = [1, max(1, n_max // 4), max(1, n_max // 2)]
    rows = []
    verdicts = {}
    for x in points:
        # the first (N, eps) with no witness n >= N, or (n_max, 0.0)
        N, eps = next(((N, eps) for eps in _EPS_LADDER for N in levels
                       if not any(_widest_delta(
                           lambda y, Fn=prim(n): Fn(y) - F_limit(y), x, eps)
                           for n in range(N, n_max + 1))), (n_max, 0.0))
        verdicts[f"x={x:g}"] = Verdict.FAILS if eps else Verdict.HOLDS
        rows.append(EvidenceRow(f"x={x:g}", N, eps))
    return ConvergenceReport("quasi_uniform", _combine(verdicts.values()),
                             verdicts, tuple(rows), (1, n_max))


def theorem_checkers(seq: DistributionSequence,
                     candidate: Distribution,
                     compacts: Sequence[tuple[float, float]] = ((-2.0, 2.0),),
                     n_max: int = DEFAULT_N_MAX,
                     tol: float = DEFAULT_TOL) -> dict:
    """Audit the hypotheses of the sufficient-condition theorems.

    Returns per-hypothesis reports: uniform boundedness of primitives on
    each compact, pointwise convergence at probe points, equicontinuity
    on the extended line via shared-delta search, and, when the passing
    hypothesis set licenses it, a numeric verification of the licensed
    conclusion.
    """
    ns = _ladder(n_max)
    prims = {n: seq(n).primitive for n in ns}
    F = candidate.primitive

    def gaps(xs):
        # F_n(x) - F(x) along the ladder at each probe x
        return [(f"x={x:g}", [prims[n](x) - F(x) for n in ns]) for x in xs]

    def trend(vals):
        return _trend_verdict(vals, max(tol, 1e-6))

    def bounded(sups):
        # sup |F_n| on a compact must stop growing
        tail = sups[-_TREND_WINDOW:]
        head_max = max(sups[:max(1, len(sups) - _TREND_WINDOW)])
        growing = all(b > a * 1.05 for a, b in zip(tail, tail[1:])) \
            and tail[-1] > 2.0 * (head_max + tol)
        return Verdict.FAILS if growing else Verdict.HOLDS

    def steady(deltas):
        # the delta needed at a probe must not shrink to 0 as n grows
        tail = deltas[-_TREND_WINDOW:]
        shrinking = 0.0 in tail or min(tail) <= max(deltas[:3]) / 32.0
        return Verdict.FAILS if shrinking else Verdict.HOLDS

    probes = [NEG_INF, -5.0, -1.0, 0.0, 1.0, 5.0, INF]
    sup_series = ((f"[{a:g},{b:g}]",
                   [max(abs(prims[n](a + (b - a) * i / 256))
                        for i in range(257)) for n in ns])
                  for a, b in compacts)
    delta_series = ((f"x={x:g}",
                     [_widest_delta(lambda y, Fn=prims[n], ref=prims[n](x):
                                    Fn(y) - ref, x, 0.5) for n in ns])
                    for x in probes)
    out = {"uniform_bounded": _report("uniform_bounded", ns, sup_series,
                                      bounded),
           "pointwise": _report("pointwise", ns, gaps(probes), trend),
           "equicontinuous": _report("equicontinuous", ns, delta_series,
                                     steady)}
    # licensed conclusion: when uniform boundedness and pointwise
    # convergence both pass, the integrals over (-inf, x] must converge
    if (out["uniform_bounded"].verdict is Verdict.HOLDS
            and out["pointwise"].verdict is Verdict.HOLDS):
        out["conclusion_integrals"] = _report(
            "conclusion_integrals", ns, gaps((-1.0, 0.0, 2.0, INF)), trend)
    return out


def bv_limit_check(f: Distribution,
                   g_seq: Callable[[int], BVFunction],
                   g_limit: BVFunction,
                   n_max: int = 32,
                   tol: float = DEFAULT_TOL) -> ConvergenceReport:
    """Uniform-variation convergence: Vg_n <= M and g_n -> g pointwise
    force int f g_n -> int f g; verifies both hypothesis and conclusion."""
    ns = _ladder(n_max)
    target = integral_product(f, g_limit, tol)
    variations = [g_seq(n).variation() for n in ns]
    bounded = max(variations) <= 2.0 * max(variations[0], 1.0) + tol
    rep = _report("bv_limit", ns, [(
        "int_f_gn_minus_target",
        [integral_product(f, g_seq(n), tol) - target for n in ns])],
        lambda vals: (_trend_verdict(vals, max(tol, 1e-6)) if bounded
                      else Verdict.INCONCLUSIVE))
    return replace(rep, element_verdicts={"int_f_gn": rep.verdict})


# ---------------------------------------------------------------------------
# the named sequence families


def _clamp(x, lo, hi):
    return max(lo, min(hi, x))


def _ramp_primitive(n: int) -> ContinuousFunctionBar:
    return ContinuousFunctionBar(lambda x, n=n: _clamp(x - n, 0.0, 1.0),
                                 0.0, 1.0)


def _signed_primitive(n: int) -> ContinuousFunctionBar:
    return ContinuousFunctionBar(
        lambda x, n=n: max(0.0, 1.0 - abs(x - n)), 0.0, 0.0)


def _power_primitive(n: int) -> ContinuousFunctionBar:
    return ContinuousFunctionBar(
        lambda x, n=n: _clamp(x, 0.0, 1.0) ** n, 0.0, 1.0)


def _sine_burst_primitive(n: int) -> ContinuousFunctionBar:
    def F(x, n=n):
        if abs(x) >= math.pi:
            return 0.0
        return n * (math.cos(n * math.pi) - math.cos(n * x))
    return ContinuousFunctionBar(F, 0.0, 0.0)


def _triangle_out_primitive(n: int, a_n: float) -> ContinuousFunctionBar:
    def F(x, n=n, a=a_n):
        if x <= n - 1 or x >= n + 1:
            return 0.0
        return a * (x - n + 1) if x <= n else a * (n + 1 - x)
    return ContinuousFunctionBar(F, 0.0, 0.0)


def _triangle_in_primitive(n: int, a_n: float) -> ContinuousFunctionBar:
    def F(x, n=n, a=a_n):
        if x <= 0.0 or x >= 2.0 / n:
            return 0.0
        return a * x if x <= 1.0 / n else a * (2.0 / n - x)
    return ContinuousFunctionBar(F, 0.0, 0.0)


def fixtures(name: str, params: Optional[dict] = None) -> DistributionSequence:
    """Named sequence families, exactly the displayed step and ramp
    constructions plus the sine burst."""
    params = dict(params or {})

    def a_of(n: int) -> float:
        if "a_power" in params:
            return float(n) ** float(params["a_power"])
        if "a_const" in params:
            return float(params["a_const"])
        return float(n) ** 3

    makers = {
        "traveling_block": lambda n: Distribution(_ramp_primitive(n)),
        "signed_blocks": lambda n: Distribution(_signed_primitive(n)),
        "power_ramp": lambda n: Distribution(_power_primitive(n)),
        "sine_burst": lambda n: Distribution(_sine_burst_primitive(n)),
        "triangle_out": lambda n: Distribution(
            _triangle_out_primitive(n, a_of(n))),
        "triangle_in": lambda n: Distribution(
            _triangle_in_primitive(n, a_of(n))),
    }
    if name not in makers:
        raise UnknownFixture(f"no sequence family named {name!r}; choose "
                             f"from {sorted(makers)}")
    return DistributionSequence(makers[name], name, params)
