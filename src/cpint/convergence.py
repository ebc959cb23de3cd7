"""Convergence modes for sequences of integrable distributions.

Strong convergence is uniform convergence of primitives; weak modes
pair the sequence against batteries of test functions or BV functions;
quasi-uniform convergence is the exact condition keeping the pointwise
limit of primitives continuous.  All verdicts are evidence-grade: a
finite battery and a finite n-range can falsify, never prove, so every
report carries its numeric evidence rows and the range tested.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
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


def weak_d_report(seq: DistributionSequence, candidate: Distribution,
                  battery: Optional[Sequence[TestFunction]] = None,
                  n_max: int = DEFAULT_N_MAX,
                  tol: float = DEFAULT_TOL) -> ConvergenceReport:
    """Pairings <f_n - candidate, phi> across the battery, with trends."""
    battery = list(battery) if battery is not None else default_test_battery()
    ns = [n for n in _N_LADDER if n <= n_max] or [n_max]
    rows = []
    verdicts = {}
    for i, phi in enumerate(battery):
        label = f"bump(c={phi.center:g},w={phi.width:g})"
        vals = []
        for n in ns:
            diff = linear_combine(-1.0, candidate, seq(n))
            v = pair_with_test(diff, phi, tol)
            vals.append(v)
            rows.append(EvidenceRow(label, n, v))
        verdicts[label] = _trend_verdict(vals, tol)
    return ConvergenceReport("weak_d", _combine(verdicts.values()),
                             verdicts, tuple(rows), (ns[0], ns[-1]))


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
    ns = [n for n in _N_LADDER if n <= n_max] or [n_max]
    rows = []
    verdicts = {}
    for label, g in battery:
        vals = []
        for n in ns:
            diff = linear_combine(-1.0, candidate, seq(n))
            v = integral_product(diff, g, tol)
            vals.append(v)
            rows.append(EvidenceRow(label, n, v))
        verdicts[label] = _trend_verdict(vals, tol)
    return ConvergenceReport("weak_bv", _combine(verdicts.values()),
                             verdicts, tuple(rows), (ns[0], ns[-1]))


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


def _qu_holds_at(seq_prims, F_limit, x: float, eps: float, N: int,
                 n_max: int) -> bool:
    """Search n >= N and a delta witnessing quasi-uniformity at x."""
    for n in range(N, n_max + 1):
        Fn = seq_prims(n)
        for delta in _DELTA_LADDER:
            if all(abs(Fn(y) - F_limit(y)) < eps
                   for y in _neighborhood_samples(x, delta)):
                return True
    return False


def quasi_uniform_check(seq: DistributionSequence,
                        F_limit: Callable[[float], float],
                        points: Sequence[float],
                        n_max: int = DEFAULT_N_MAX) -> ConvergenceReport:
    """Quasi-uniform convergence of the primitives to F_limit.

    For every probe point, every epsilon on a fixed ladder and every N,
    some n >= N and some delta must make |F_n - F| < eps throughout the
    sampled delta-neighbourhood (the half-lines y > 1/delta at +-inf).
    """
    prim_cache: dict[int, ContinuousFunctionBar] = {}

    def prims(n: int):
        if n not in prim_cache:
            prim_cache[n] = seq(n).primitive
        return prim_cache[n]

    rows = []
    verdicts = {}
    ns_levels = [1, max(1, n_max // 4), max(1, n_max // 2)]
    for x in points:
        ok = True
        for eps in _EPS_LADDER:
            for N in ns_levels:
                if not _qu_holds_at(prims, F_limit, x, eps, N, n_max):
                    ok = False
                    rows.append(EvidenceRow(f"x={x:g}", N, eps))
                    break
            if not ok:
                break
        verdicts[f"x={x:g}"] = Verdict.HOLDS if ok else Verdict.FAILS
        if ok:
            rows.append(EvidenceRow(f"x={x:g}", n_max, 0.0))
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
    ns = [n for n in _N_LADDER if n <= n_max] or [n_max]
    prims = {n: seq(n).primitive for n in ns}
    F = candidate.primitive
    out = {}

    # uniform boundedness on compacts: sup |F_n| must stop growing
    bound_rows = []
    bound_verdicts = {}
    for (a, b) in compacts:
        xs = [a + (b - a) * i / 256 for i in range(257)]
        sups = []
        for n in ns:
            Fn = prims[n]
            sups.append(max(abs(Fn(x)) for x in xs))
            bound_rows.append(EvidenceRow(f"[{a:g},{b:g}]", n, sups[-1]))
        tail = sups[-_TREND_WINDOW:]
        head_max = max(sups[:max(1, len(sups) - _TREND_WINDOW)])
        growing = all(b2 > a2 * 1.05 for a2, b2 in zip(tail, tail[1:])) \
            and tail[-1] > 2.0 * (head_max + tol)
        bound_verdicts[f"[{a:g},{b:g}]"] = (
            Verdict.FAILS if growing else Verdict.HOLDS)
    out["uniform_bounded"] = ConvergenceReport(
        "uniform_bounded", _combine(bound_verdicts.values()),
        bound_verdicts, tuple(bound_rows), (ns[0], ns[-1]))

    # pointwise convergence of primitives at probe points
    probes = [NEG_INF, -5.0, -1.0, 0.0, 1.0, 5.0, INF]
    pw_rows = []
    pw_verdicts = {}
    for x in probes:
        vals = [prims[n](x) - F(x) for n in ns]
        pw_verdicts[f"x={x:g}"] = _trend_verdict(vals, max(tol, 1e-6))
        pw_rows.extend(EvidenceRow(f"x={x:g}", n, v)
                       for n, v in zip(ns, vals))
    out["pointwise"] = ConvergenceReport(
        "pointwise", _combine(pw_verdicts.values()), pw_verdicts,
        tuple(pw_rows), (ns[0], ns[-1]))

    # equicontinuity: the delta needed at each probe must not shrink to 0
    # as n grows
    eq_rows = []
    eq_verdicts = {}
    eps = 0.5
    for x in probes:
        deltas = []
        for n in ns:
            Fn = prims[n]
            ref = Fn(x)
            found = 0.0
            for delta in _DELTA_LADDER:
                if all(abs(Fn(y) - ref) < eps
                       for y in _neighborhood_samples(x, delta)):
                    found = delta
                    break
            deltas.append(found)
            eq_rows.append(EvidenceRow(f"x={x:g}", n, found))
        tail = deltas[-_TREND_WINDOW:]
        shrinking = 0.0 in tail or min(tail) <= max(deltas[:3]) / 32.0
        eq_verdicts[f"x={x:g}"] = (Verdict.FAILS if shrinking
                                   else Verdict.HOLDS)
    out["equicontinuous"] = ConvergenceReport(
        "equicontinuous", _combine(eq_verdicts.values()), eq_verdicts,
        tuple(eq_rows), (ns[0], ns[-1]))

    # licensed conclusion: when uniform boundedness and pointwise
    # convergence both pass, the integrals over (-inf, x] must converge
    if (out["uniform_bounded"].verdict is Verdict.HOLDS
            and out["pointwise"].verdict is Verdict.HOLDS):
        conc_rows = []
        conc_verdicts = {}
        for x in (-1.0, 0.0, 2.0, INF):
            vals = [prims[n](x) - F(x) for n in ns]
            conc_verdicts[f"x={x:g}"] = _trend_verdict(vals, max(tol, 1e-6))
            conc_rows.extend(EvidenceRow(f"x={x:g}", n, v)
                             for n, v in zip(ns, vals))
        out["conclusion_integrals"] = ConvergenceReport(
            "conclusion_integrals", _combine(conc_verdicts.values()),
            conc_verdicts, tuple(conc_rows), (ns[0], ns[-1]))
    return out


def bv_limit_check(f: Distribution,
                   g_seq: Callable[[int], BVFunction],
                   g_limit: BVFunction,
                   n_max: int = 32,
                   tol: float = DEFAULT_TOL) -> ConvergenceReport:
    """Uniform-variation convergence: Vg_n <= M and g_n -> g pointwise
    force int f g_n -> int f g; verifies both hypothesis and conclusion."""
    ns = [n for n in _N_LADDER if n <= n_max] or [n_max]
    target = integral_product(f, g_limit, tol)
    variations = [g_seq(n).variation() for n in ns]
    bounded = max(variations) <= 2.0 * max(variations[0], 1.0) + tol
    rows = []
    vals = []
    for n in ns:
        v = integral_product(f, g_seq(n), tol) - target
        vals.append(v)
        rows.append(EvidenceRow("int_f_gn_minus_target", n, v))
    verdict = _trend_verdict(vals, max(tol, 1e-6))
    if not bounded:
        verdict = Verdict.INCONCLUSIVE
    return ConvergenceReport("bv_limit", verdict,
                             {"int_f_gn": verdict}, tuple(rows),
                             (ns[0], ns[-1]))


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
