import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpint.bv import (BVFunction, Piece, blocks, constant, from_callable,
                      from_knots, heaviside, indicator, monotone,
                      normalize_nbv, rs_integral, variation)
from cpint.cfun import ContinuousFunctionBar, bump
from cpint.chart import INF, NEG_INF
from cpint.errors import BudgetExceeded, IntervalEmpty, MalformedPieces
from cpint.products import pair_with_test
from cpint.space import Distribution
from cpint.transforms import poisson_kernel_bv


class TestVariation:
    def test_constant_is_zero(self):
        assert variation(constant(3.0)) == 0.0

    def test_heaviside_is_one(self):
        assert variation(heaviside()) == 1.0

    def test_indicator_is_two(self):
        assert variation(indicator(0.0, 1.0)) == 2.0

    def test_blocks_sum_heights(self):
        g = blocks([(0.0, 1.0, 1.0), (2.0, 3.0, 0.25)])
        assert variation(g) == 2.0 * (1.0 + 0.25)

    def test_monotone_is_rise(self):
        g = monotone(math.atan, -math.pi / 2, math.pi / 2)
        assert variation(g) == pytest.approx(math.pi, abs=1e-15)

    def test_piecewise_linear_zigzag(self):
        g = from_knots([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, -1.0, 1.0])
        assert variation(g) == 2.0 + 3.0 + 2.0

    @given(st.lists(st.floats(min_value=-5.0, max_value=5.0,
                              allow_nan=False),
                    min_size=2, max_size=8),
           st.lists(st.floats(min_value=-5.0, max_value=5.0,
                              allow_nan=False),
                    min_size=2, max_size=8))
    @settings(max_examples=60)
    def test_subadditive_under_addition(self, v1, v2):
        k = min(len(v1), len(v2))
        v1, v2 = v1[:k], v2[:k]
        knots = [float(i) for i in range(k)]
        g1 = from_knots(knots, v1)
        g2 = from_knots(knots, v2)
        gs = from_knots(knots, [a + b for a, b in zip(v1, v2)])
        assert variation(gs) <= variation(g1) + variation(g2) + 1e-12


class TestPointValuesAndLimits:
    def test_heaviside_point_value(self):
        g = heaviside()
        assert g(0.0) == 1.0
        assert g.left_limit(0.0) == 0.0
        assert g.right_limit(0.0) == 1.0

    def test_nbv_right_continuous(self):
        g = normalize_nbv(indicator(0.0, 1.0, include_left=False,
                                    include_right=True))
        assert g(0.0) == g.right_limit(0.0)
        assert g(1.0) == g.right_limit(1.0)

    def test_nbv_variation_drops_point_spikes(self):
        # a point value differing from both one-sided limits is a null
        # modification; the NBV representative forgets it
        zero = lambda x: 0.0
        from cpint.bv import Piece
        g = BVFunction([Piece(NEG_INF, 0.0, zero, 0.0, 0.0),
                        Piece(0.0, INF, zero, 0.0, 0.0)],
                       point_values={0.0: 5.0})
        assert variation(g) == 10.0
        assert variation(normalize_nbv(g)) == 0.0

    def test_malformed_pieces_rejected(self):
        with pytest.raises(MalformedPieces):
            blocks([(1.0, 2.0, 1.0), (1.5, 3.0, 1.0)])  # overlap


class TestRsIntegral:
    def _arctan(self):
        return ContinuousFunctionBar(math.atan, -math.pi / 2, math.pi / 2)

    def test_against_heaviside_samples_at_jump(self):
        F = self._arctan()
        got = rs_integral(F, heaviside(), NEG_INF, INF)
        assert got == pytest.approx(math.atan(0.0), abs=1e-14)

    def test_linear_weight_equals_classical_integral(self):
        # dg = dx on [0, 2]: int_0^2 atan(x) dx, closed form
        g = from_knots([0.0, 2.0], [0.0, 2.0])
        exact = 2.0 * math.atan(2.0) - 0.5 * math.log(5.0)
        got = rs_integral(self._arctan(), g, NEG_INF, INF)
        assert got == pytest.approx(exact, abs=1e-11)

    def test_smooth_weight_against_quadrature(self):
        from scipy import integrate
        g = monotone(lambda x: math.tanh(x), -1.0, 1.0)
        exact, _ = integrate.quad(
            lambda x: math.atan(x) / math.cosh(x) ** 2, -50, 50)
        got = rs_integral(self._arctan(), g, NEG_INF, INF)
        assert got == pytest.approx(exact, abs=1e-10)

    def test_endpoint_jump_terms(self):
        # integrating across only half of the jump interval picks up the
        # one-sided endpoint correction exactly
        F = self._arctan()
        got = rs_integral(F, indicator(0.0, 1.0), 0.0, 0.5)
        # g jumps 0 -> 1 at the left endpoint 0 (g(0)=1, g(0-)=0) but the
        # endpoint term uses g(a+) - g(a) = 0; interior has dg = 0
        assert got == 0.0

    def test_empty_interval_raises(self):
        with pytest.raises(IntervalEmpty):
            rs_integral(self._arctan(), heaviside(), 1.0, 0.0)

    def test_oscillating_primitive_against_mpmath(self):
        # x^2 cos(x^-2) oscillates without bound near 0
        def F(x):
            if x <= 0.0:
                return 0.0
            if x > 1.0:
                return math.cos(1.0)
            return x * x * math.cos(x ** -2)

        g = from_knots([0.0, 1.0], [0.0, 1.0])
        got = rs_integral(ContinuousFunctionBar(F, 0.0, math.cos(1.0)), g,
                          NEG_INF, INF)
        assert got == pytest.approx(-0.0103903289258551575, abs=1e-10)

    def test_square_root_cusp(self):
        F = ContinuousFunctionBar(
            lambda x: math.sqrt(x - 0.2) if x > 0.2 else 0.0, 0.0, 0.0)
        g = from_knots([0.0, 1.0], [0.0, 1.0])
        got = rs_integral(F, g, NEG_INF, 1.0)
        assert got == pytest.approx(2.0 / 3.0 * 0.8 ** 1.5, abs=1e-10)

    def test_kinked_primitive_within_tolerance(self):
        # the ramp primitive of the indicator of [-1, 1] has kinks at
        # +-1, where the difference of two nested rules can vanish by
        # coincidence: alone it gave errors of 5.7e-10 and 4.8e-10 here
        F = ContinuousFunctionBar(lambda x: max(0.0, min(2.0, x + 1.0)),
                                  0.0, 2.0)
        for x, y in [(-3.2427, 0.2276), (-3.9577, 0.5072)]:
            exact = -(math.atan((x + 1.0) / y)
                      - math.atan((x - 1.0) / y)) / math.pi
            got = rs_integral(F, poisson_kernel_bv(x, y), NEG_INF, INF)
            assert got == pytest.approx(exact, abs=1e-10)

    def test_nan_from_evaluator_raises(self):
        # math.sqrt raises below 0.2, which the evaluator wrapper turns
        # into NaN; that must not come back as the integral
        F = ContinuousFunctionBar(lambda x: math.sqrt(x - 0.2), 0.0, 0.0)
        g = from_knots([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(BudgetExceeded, match="non-finite"):
            rs_integral(F, g, NEG_INF, 1.0)

    def test_depth_cap_names_the_panel(self):
        # a jump in F at 0.3 cannot be resolved to 1e-16 by bisection
        F = ContinuousFunctionBar(lambda x: 1.0 if x > 0.3 else 0.0,
                                  0.0, 1.0)
        g = from_knots([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(BudgetExceeded, match="panels") as info:
            rs_integral(F, g, NEG_INF, INF, tol=1e-16)
        lo, hi = (float(v) for v in re.search(
            r"x in \[([^,]+), ([^\]]+)\]", str(info.value)).groups())
        assert lo <= 0.3 <= hi

    def test_depth_cap_names_the_chart_panel(self):
        # the same jump against a kernel over the whole line, whose
        # segment is bisected in the compact chart, still names x
        F = ContinuousFunctionBar(lambda x: 1.0 if x > 0.3 else 0.0,
                                  0.0, 1.0)
        g = monotone(math.atan, -math.pi / 2, math.pi / 2)
        with pytest.raises(BudgetExceeded, match="panels") as info:
            rs_integral(F, g, NEG_INF, INF, tol=1e-16)
        lo, hi = (float(v) for v in re.search(
            r"x in \[([^,]+), ([^\]]+)\]", str(info.value)).groups())
        assert lo <= 0.3 <= hi

    @pytest.mark.parametrize("r", [0.01, 0.015, 0.02])
    def test_fast_growth_on_long_finite_piece(self, r):
        # int x^5 d(-e^(-rx)) on [0, L] = 5!/r^5 up to e^(-73) relative.
        # In the compact chart x near 577 is quantized to 3.7e-11, so
        # x^5 carries noise far above the roundoff floor of the goal and
        # the bisection never reached it; a finite piece runs in x
        calls = 0

        def quintic(x):
            nonlocal calls
            calls += 1
            if calls > 50_000:
                raise RuntimeError("error sum never reached the goal")
            return x ** 5

        g = monotone(lambda t: -math.exp(-r * t), NEG_INF, 0.0)
        L = (math.log(1e10) + 50.0) / r
        assert rs_integral(quintic, g, 0.0, L) == pytest.approx(
            120.0 / r ** 5, rel=1e-12)

    @pytest.mark.parametrize("tol", [1e-10, 1e-12], ids=["default", "fine"])
    def test_error_sum_reaches_goal(self, tol):
        # int t^3 d(-e^(-0.1 t)) on [0, 1000] = 6 / 0.1^3 up to e^(-100).
        # The first estimate is 1.1e7, whose roundoff in a running sum
        # stays above the goal of 1e-11 long after the estimates are
        # below it; a goal of 1e-13 is below the roundoff of 6000 itself
        calls = 0

        def cube(x):
            nonlocal calls
            calls += 1
            if calls > 50_000:
                raise RuntimeError("error sum never reached the goal")
            return x ** 3

        g = monotone(lambda t: -math.exp(-0.1 * t), NEG_INF, 0.0)
        assert rs_integral(cube, g, 0.0, 1000.0, tol) == pytest.approx(
            6000.0, rel=1e-14)


def _counted(fn):
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return fn(x)

    return wrapped, calls


def _guard_smooth():
    F, f_calls = _counted(lambda x: math.atan(x - 0.4))
    G, g_calls = _counted(math.tanh)
    return (lambda: rs_integral(
        ContinuousFunctionBar(F, -math.pi / 2, math.pi / 2),
        monotone(G, -1.0, 1.0), NEG_INF, INF)), f_calls, g_calls


def _guard_kinked():
    F, f_calls = _counted(lambda x: max(0.0, 1.0 - abs(x - 0.3)))
    G, g_calls = _counted(math.atan)
    return (lambda: rs_integral(
        ContinuousFunctionBar(F, 0.0, 0.0),
        monotone(G, -math.pi / 2, math.pi / 2), NEG_INF, INF)), \
        f_calls, g_calls


def _guard_jumps():
    # jumps at -1 and 0.5 with point values off both one-sided limits,
    # -1 an endpoint of the integral
    F, f_calls = _counted(math.atan)
    G, g_calls = _counted(lambda x: math.exp(-x))
    g = BVFunction([Piece(NEG_INF, -1.0, lambda x: 0.0, 0.0, 0.0),
                    Piece(-1.0, 0.5, lambda x: G(x) - 3.0, math.e - 3.0,
                          math.exp(-0.5) - 3.0),
                    Piece(0.5, INF, G, math.exp(-0.5), 0.0)],
                   point_values={-1.0: 0.7, 0.5: -0.2})
    return (lambda: rs_integral(
        ContinuousFunctionBar(F, -math.pi / 2, math.pi / 2), g,
        -1.0, 2.0)), f_calls, g_calls


def _guard_poisson():
    F, f_calls = _counted(lambda x: max(0.0, min(2.0, x + 1.0)))
    return (lambda: rs_integral(ContinuousFunctionBar(F, 0.0, 2.0),
                                poisson_kernel_bv(1.0, 0.1),
                                NEG_INF, INF)), f_calls, [0]


def _guard_bump():
    F, f_calls = _counted(lambda x: math.atan(x) + 0.5 * math.exp(-x * x))
    f = Distribution(ContinuousFunctionBar(F, -math.pi / 2, math.pi / 2))
    return (lambda: pair_with_test(f, bump(0.5, 0.5))), f_calls, [0]


class TestRsIntegralPinned:
    """Values bit for bit and evaluator calls of the Stieltjes engine,
    pinned so that a change to its refinement loop shows here."""

    @pytest.mark.parametrize("case,value,f_calls,g_calls", [
        (_guard_smooth, "-0x1.1cb571a10d980p-1", 615, 615),
        (_guard_kinked, "0x1.ab274760490bap-1", 1455, 1455),
        (_guard_jumps, "0x1.490cc495d46ccp+1", 217, 213),
        (_guard_poisson, "-0x1.efb751fbad6a8p-2", 1023, 0),
        (_guard_bump, "0x1.05eafd85cfcd6p-4", 399, 0),
    ], ids=["smooth", "kinked", "jumps", "poisson", "bump"])
    def test_values_and_calls(self, case, value, f_calls, g_calls):
        run, f_seen, g_seen = case()
        assert run().hex() == value
        assert (f_seen[0], g_seen[0]) == (f_calls, g_calls)


class TestFromCallable:
    def test_splits_at_extrema(self):
        g = from_callable(lambda t: math.sin(t), 0.0, 2.0 * math.pi,
                          0.0, math.sin(2.0 * math.pi))
        assert variation(g) == pytest.approx(4.0, rel=1e-6)

    def test_matches_function_values(self):
        g = from_callable(lambda t: math.cos(t), 0.0, 7.0, 1.0,
                          math.cos(7.0))
        for t in np.linspace(0.3, 6.7, 20):
            assert g(float(t)) == pytest.approx(math.cos(t), abs=1e-9)

    def test_cuts_at_extrema(self):
        g = from_callable(lambda t: math.cos(t), 0.0, 7.0, 1.0,
                          math.cos(7.0))
        cuts = [b for b in g.breakpoints if 0.0 < b < 7.0]
        # cos rounds to -1 or 1 within 1.05e-8 of pi and 2*pi, so no
        # comparison of values can place a cut closer than that
        assert cuts == pytest.approx([math.pi, 2.0 * math.pi], abs=2e-8)
        assert [math.cos(b) for b in cuts] == [-1.0, 1.0]

    def test_finite_hi_is_one_breakpoint(self):
        g = from_callable(lambda t: math.cos(t), 0.0, 7.0, 1.0,
                          math.cos(7.0))
        assert g.breakpoints.count(7.0) == 1
        # 4 from the two half swings, then cos 7 back up to 1; constant
        # cos 7 past the window, so no jump there
        assert variation(g) == pytest.approx(
            4.0 + (1.0 - math.cos(7.0)), rel=1e-12)
