"""The acceptance suite: twelve end-to-end checks with frozen oracle
values, shared by `cpint selftest` and the test suite.

Each criterion returns a CriterionResult; a criterion that raises is
reported as failed with the exception text.  Randomized criteria seed
their generator from the CPINT_SEED environment variable when set.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import convergence, transforms
from .bv import blocks
from .cfun import ContinuousFunctionBar, bump
from .chart import NEG_INF
from .convergence import Verdict, fixtures as sequence_fixtures
from .errors import CpintError
from .fixtures import (FIXTURES, arctan_distribution, cantor_function,
                       gaussian_distribution, quadratic_osc_distribution,
                       random_bv, random_distribution, random_monotone_bv,
                       si_distribution, signed_bump_distribution)
from .lattice import LatticeKind, Order, abs_norm, compare, lattice_op, parts
from .products import (TaylorInput, change_of_variables, holder_bound,
                       integral_product, second_mvt_xi, taylor_expand)
from .quadrature import hake_from_integrand
from .space import (Distribution, NormKind, equal, integral, linear_combine,
                    norm, translate, zero)

DEFAULT_SEED = 20260824

_COS1 = 0.5403023058681398          # cos(1)
_FRESNEL = 0.6266570686577501       # sqrt(pi) / 2^(3/2)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _seed() -> int:
    env = os.environ.get("CPINT_SEED")
    return int(env) if env else DEFAULT_SEED


def _indicator_boundary() -> Distribution:
    """The indicator of [-1, 1] as a distribution (ramp primitive)."""
    return Distribution(ContinuousFunctionBar(
        lambda x: max(0.0, min(2.0, x + 1.0)), 0.0, 2.0))


def _all_fixtures() -> list[tuple[str, Distribution]]:
    return [(name, maker()) for name, maker in FIXTURES.items()]


# ---------------------------------------------------------------------------
# criteria


def _criterion_1(tol: float) -> tuple[bool, str]:
    f = quadratic_osc_distribution()
    got = integral(f, 0.0, 1.0)
    err = abs(got - _COS1)
    ok = err <= 1e-12
    res = abs_norm(f)
    ok = ok and res.divergent and res.value > 1.0
    return ok, (f"integral err {err:.2e}; abs_norm divergent={res.divergent} "
                f"lower bound {res.value:.3g}")


def _criterion_2(tol: float) -> tuple[bool, str]:
    t0 = time.perf_counter()
    h = hake_from_integrand(lambda x: math.sin(x * x), tol=tol)
    dt = time.perf_counter() - t0
    err = abs(h.total - _FRESNEL)
    ok = err <= 1e-6 and dt < 10.0
    return ok, f"err {err:.2e} ({h.lobes_used} lobes)"


def _criterion_3(tol: float) -> tuple[bool, str]:
    worst = 0.0
    for n in range(1, 9):
        f = sequence_fixtures("sine_burst")(n)
        worst = max(worst, abs(norm(f) - 2.0 * n))
    for p in (1.0, 2.0, 3.0):
        for n in range(1, 5):
            a_n = float(n) ** p
            fo = sequence_fixtures("triangle_out", {"a_power": p})(n)
            fi = sequence_fixtures("triangle_in", {"a_power": p})(n)
            worst = max(worst, abs(norm(fo) - a_n))
            worst = max(worst, abs(norm(fi) - a_n / n))
    return worst <= 1e-9, f"worst norm error {worst:.2e}"


def _criterion_4(tol: float) -> tuple[bool, str]:
    rng = np.random.default_rng(_seed())
    violations = 0
    slack = 1e-9
    for _ in range(100):
        f = random_distribution(rng)
        g = random_bv(rng)
        got = abs(integral_product(f, g, tol))
        b = holder_bound(f, g)
        if got > b.jump_form + slack or got > b.bv_norm_form + slack:
            violations += 1
    return violations == 0, f"{violations} violations in 100 pairs"


def _criterion_5(tol: float) -> tuple[bool, str]:
    notes = []
    ok = True

    block = sequence_fixtures("traveling_block")
    wd = convergence.weak_d_report(block, zero(), n_max=32, tol=tol)
    wb = convergence.weak_bv_report(block, zero(), n_max=32, tol=tol)
    ones = [r.value for r in wb.evidence if r.label == "one"]
    c_ok = (wd.verdict is Verdict.HOLDS and wb.verdict is Verdict.FAILS
            and all(abs(v - 1.0) <= 1e-9 for v in ones))
    ok &= c_ok
    notes.append(f"block wD={wd.verdict.value} wBV={wb.verdict.value}")

    signed = sequence_fixtures("signed_blocks")
    wb2 = convergence.weak_bv_report(signed, zero(), n_max=32, tol=tol)
    dist = convergence.strong_distance(signed, zero(), 32)
    c_ok = wb2.verdict is Verdict.HOLDS and abs(dist - 1.0) <= 1e-9
    ok &= c_ok
    notes.append(f"signed wBV={wb2.verdict.value} strong dist {dist:.3g}")

    g = blocks([(2.0 * k - 1.0, 2.0 * k, 1.0 / (k * k))
                for k in range(1, 17)])
    tri = sequence_fixtures("triangle_out", {"a_power": 3.0})
    worst = max(abs(integral_product(tri(2 * n), g, tol) - 8.0 * n)
                for n in range(1, 9))
    ok &= worst <= 1e-9
    notes.append(f"triangle pairing err {worst:.2e}")

    ramp = sequence_fixtures("power_ramp")
    interior = [bump(0.3, 0.25), bump(0.5, 0.3), bump(0.7, 0.2)]
    wd3 = convergence.weak_d_report(ramp, zero(), battery=interior,
                                    n_max=64, tol=tol)
    ints = [integral(ramp(n), 0.0, 1.0) for n in (1, 2, 4, 8, 16, 32, 64)]
    c_ok = (wd3.verdict is Verdict.HOLDS
            and all(abs(v - 1.0) <= 1e-12 for v in ints))
    ok &= c_ok
    notes.append(f"ramp wD={wd3.verdict.value} integrals pinned at 1")
    return bool(ok), "; ".join(notes)


def _criterion_6(tol: float) -> tuple[bool, str]:
    rng = np.random.default_rng(_seed() + 1)
    bad_axioms = 0
    worst_norm = 0.0

    def leq(a, b):
        return compare(a, b).order in (Order.LESS_OR_EQUAL, Order.EQUAL)

    for _ in range(200):
        f = random_distribution(rng)
        g = random_distribution(rng)
        h = random_distribution(rng)
        join = lattice_op(f, g, LatticeKind.JOIN)
        meet = lattice_op(f, g, LatticeKind.MEET)
        # (i) the join dominates, the meet is dominated
        if not leq(meet, f):
            bad_axioms += 1
        if not leq(f, join):
            bad_axioms += 1
        # (ii) translation compatibility: f<=g implies f+h <= g+h
        if not leq(linear_combine(1.0, f, h), linear_combine(1.0, join, h)):
            bad_axioms += 1
        # (iii) modular identity: join + meet = f + g
        if not equal(linear_combine(1.0, join, meet),
                     linear_combine(1.0, f, g)):
            bad_axioms += 1
        _, _, f_abs = parts(f)
        worst_norm = max(worst_norm,
                         abs(norm(f_abs) - norm(f)))
    bad_pointwise = 0
    for _, f in _all_fixtures():
        _, _, f_abs = parts(f)
        xs = rng.uniform(-30.0, 30.0, size=100)
        for x in xs:
            if abs(integral(f, NEG_INF, float(x))) > \
                    integral(f_abs, NEG_INF, float(x)) + 1e-9:
                bad_pointwise += 1
    ok = bad_axioms == 0 and worst_norm <= 1e-9 and bad_pointwise == 0
    return ok, (f"axiom failures {bad_axioms}; lattice-abs norm err "
                f"{worst_norm:.2e}; pointwise failures {bad_pointwise}")


def _criterion_7(tol: float) -> tuple[bool, str]:
    ok = True
    worst = 0.0
    for name, f in _all_fixtures():
        a = norm(f, NormKind.ALEXIEWICZ)
        s = norm(f, NormKind.INTERVAL_SUP)
        d = norm(f, NormKind.DUAL_BV_LOWER)
        if not (a - 1e-12 <= s <= 2.0 * a + 1e-12 and d <= a + 1e-12):
            ok = False
        for t in (-10.0, -1.0, -0.1, 0.1, 1.0, 10.0):
            worst = max(worst, abs(norm(translate(f, t)) - a))
    ok = ok and worst <= 1e-9
    return ok, f"sandwich holds on all fixtures; translation err {worst:.2e}"


def _criterion_8(tol: float) -> tuple[bool, str]:
    rng = np.random.default_rng(_seed() + 2)
    bad = 0
    for _ in range(100):
        f = random_distribution(rng)
        g = random_monotone_bv(rng)
        try:
            second_mvt_xi(f, g, tol)
        except CpintError:
            bad += 1
    return bad == 0, f"{bad} residual failures in 100 monotone cases"


def _criterion_9(tol: float) -> tuple[bool, str]:
    worst = 0.0
    for d in range(1, 7):
        for n in range(0, d):
            fall = math.prod(range(d, d - n, -1)) if n else 1

            def top(t, p=d - n, c=float(fall)):
                return c * t ** p

            inp = TaylorInput(n, 0.0, 1.0, top, [0.0] * (n + 1))
            for x in (0.25, 0.7, 1.0):
                res = taylor_expand(inp, x, tol)
                worst = max(worst, abs(res.remainder - x ** d))
    exact_ok = worst <= 1e-10

    bound_ok = True
    for n, top, coeffs in [
            (1, math.cos, [0.0, 1.0]),
            (2, lambda t: -math.sin(t), [0.0, 1.0, 0.0]),
            (3, lambda t: -math.cos(t), [0.0, 1.0, 0.0, -1.0]),
            (2, math.exp, [1.0, 1.0, 1.0])]:
        inp = TaylorInput(n, 0.0, 1.5, top, coeffs)
        for x in (0.3, 0.9, 1.5):
            res = taylor_expand(inp, x, tol)
            if abs(res.remainder) > res.bound_pointwise + 1e-12:
                bound_ok = False
            if res.bound_pointwise > res.bound_uniform + 1e-12:
                bound_ok = False

    inp0 = TaylorInput(0, 0.0, 1.0, lambda t: t * t * math.cos(t ** -2.0)
                       if t != 0.0 else 0.0, [0.0])
    r0 = taylor_expand(inp0, 1.0, tol).remainder
    ftc = integral(quadratic_osc_distribution(), 0.0, 1.0)
    zero_ok = abs(r0 - ftc) <= 1e-12
    ok = exact_ok and bound_ok and zero_ok
    return ok, (f"monomial err {worst:.2e}; bounds "
                f"{'ok' if bound_ok else 'VIOLATED'}; n=0 vs integrate "
                f"err {abs(r0 - ftc):.2e}")


def _criterion_10(tol: float) -> tuple[bool, str]:
    f = _indicator_boundary()
    worst = 0.0
    for x in np.linspace(-3.0, 3.0, 10):
        for y in np.geomspace(0.1, 5.0, 10):
            got = transforms.poisson(f, transforms.HalfPlanePoint(
                float(x), float(y)), tol)
            exact = (math.atan((x + 1.0) / y)
                     - math.atan((x - 1.0) / y)) / math.pi
            worst = max(worst, abs(got - exact))
    grid_ok = worst <= 1e-8

    hs = [1e-1, 1e-2, 1e-3]
    res = [abs(transforms.laplacian_probe(
        f, transforms.HalfPlanePoint(0.3, 0.5), h)) for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
    slope_ok = abs(slope - 2.0) <= 0.1

    gaps = [transforms.boundary_norm_gap(f, y, probes=11, tol=tol)
            for y in (1.0, 0.1, 0.01)]
    gap_ok = gaps[0] > gaps[1] > gaps[2]
    ok = grid_ok and slope_ok and gap_ok
    return ok, (f"grid err {worst:.2e}; slope {slope:.3f}; gaps "
                + "/".join(f"{g:.3g}" for g in gaps))


def _criterion_11(tol: float) -> tuple[bool, str]:
    def Fe(x):
        return 0.0 if x <= 0.0 else -math.expm1(-x)

    fe = Distribution(ContinuousFunctionBar(Fe, 0.0, 1.0))
    worst = 0.0
    for r in (0.5, 1.0, 2.0, 4.0):
        for theta in np.linspace(-1.0, 1.0, 5):
            z = complex(r * math.cos(theta), r * math.sin(theta))
            worst = max(worst, abs(transforms.laplace(fe, z, tol)
                                   - 1.0 / (z + 1.0)))
    cone_ok = worst <= 1e-8

    diff_ok = True
    for z in (1.0 + 0j, 1.0 + 1.0j):
        d1 = transforms.laplace_derivative(fe, z, 1, tol)
        for h in (2e-2, 1e-2):
            central = (transforms.laplace(fe, z + h, tol)
                       - transforms.laplace(fe, z - h, tol)) / (2.0 * h)
            if abs(d1 - central) > h * h:
                diff_ok = False

    at0 = transforms.laplace(fe, 0.0, tol)
    zero_ok = at0 == complex(fe.total, 0.0)

    radii = [1.0, 2.0, 4.0, 8.0]
    trend_ok = True
    for f in (fe, si_distribution()):
        vals = transforms.growth_probe(f, 0.5, radii, angles=9, tol=tol)
        if not all(a > b for a, b in zip(vals, vals[1:])):
            trend_ok = False
    ok = cone_ok and diff_ok and zero_ok and trend_ok
    return ok, (f"cone err {worst:.2e}; central-difference "
                f"{'ok' if diff_ok else 'VIOLATED'}; transform at 0 exact "
                f"{zero_ok}; growth trend {'ok' if trend_ok else 'BROKEN'}")


def _criterion_12(tol: float) -> tuple[bool, str]:
    five = [arctan_distribution(), gaussian_distribution(),
            signed_bump_distribution(), si_distribution(),
            quadratic_osc_distribution()]
    exact = 0
    for f in five:
        got = change_of_variables(f, cantor_function, 0.0, 1.0, tol=tol)
        F = f.primitive
        if got == F(1.0) - F(0.0):
            exact += 1
    return exact == 5, f"{exact}/5 fixtures bitwise-exact through the " \
                       f"singular substitution"


_CRITERIA: list[tuple[str, Callable[[float], tuple[bool, str]]]] = [
    ("nonabsolute-ftc", _criterion_1),
    ("hake-fresnel", _criterion_2),
    ("norm-table", _criterion_3),
    ("holder-suite", _criterion_4),
    ("convergence-matrix", _criterion_5),
    ("lattice-axioms", _criterion_6),
    ("equivalent-norms", _criterion_7),
    ("second-mvt", _criterion_8),
    ("taylor", _criterion_9),
    ("poisson", _criterion_10),
    ("laplace", _criterion_11),
    ("cov-singular", _criterion_12),
]


def run_criterion(index: int, tol: float = 1e-10) -> CriterionResult:
    """Run a single criterion (1-based index)."""
    name, fn = _CRITERIA[index - 1]
    t0 = time.perf_counter()
    try:
        passed, detail = fn(tol)
    except Exception as exc:  # a crashing criterion is a failing criterion
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CriterionResult(index, name, passed, detail,
                           time.perf_counter() - t0)


def run_all(tol: float = 1e-10) -> list[CriterionResult]:
    return [run_criterion(i, tol)
            for i in range(1, len(_CRITERIA) + 1)]
