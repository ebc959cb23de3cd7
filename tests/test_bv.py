import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpint import bv
from cpint.bv import (BVFunction, Piece, blocks, constant, cut_at,
                      from_callable, from_knots, heaviside, indicator,
                      monotone, normalize_nbv, rs_integral, variation)
from cpint.cfun import ContinuousFunctionBar, bump
from cpint.chart import INF, NEG_INF, compactify, decompactify
from cpint.errors import BudgetExceeded, IntervalEmpty, MalformedPieces
from cpint.fixtures import gaussian_distribution
from cpint.products import integral_product, pair_with_test
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

    @pytest.mark.parametrize("lo,hi", [(-1.0, 2.0), (NEG_INF, 2.0),
                                       (-1.0, INF), (NEG_INF, INF)])
    def test_piece_ends_read_the_stored_limits(self, lo, hi):
        # fn agrees with neither stored limit, so only the clamp gives
        # them back, at, below and above each end, without calling fn
        seen = []

        def fn(x):
            seen.append(x)
            return 10.0 + x

        p = Piece(lo, hi, fn, -7.0, 7.5)
        for x in (lo, math.nextafter(lo, NEG_INF), lo - 1.0, NEG_INF):
            assert p.value(x) == -7.0
        for x in (hi, math.nextafter(hi, INF), hi + 1.0, INF):
            assert p.value(x) == 7.5
        assert seen == []
        assert p.value(0.5) == 10.5 and seen == [0.5]

    def test_limits_and_stieltjes_ends_read_the_stored_limits(self):
        # one-sided limits at the breakpoints and at +-inf, and the
        # Stieltjes ends of each piece, are the stored limits; against
        # F = 1 the integral is the sum of the jumps and the rises
        seen = []

        def fn(x):
            seen.append(x)
            return 10.0 + x

        g = BVFunction([Piece(NEG_INF, -1.0, fn, -3.0, -2.0),
                        Piece(-1.0, 2.0, fn, -1.0, 1.0),
                        Piece(2.0, INF, fn, 4.0, 5.0)])
        assert [g.left_limit(x) for x in (-1.0, 2.0, INF)] == [-2.0, 1.0, 5.0]
        assert [g.right_limit(x) for x in (NEG_INF, -1.0, 2.0)] == [
            -3.0, -1.0, 4.0]
        assert seen == []
        one = ContinuousFunctionBar(lambda x: 1.0, 1.0, 1.0)
        assert rs_integral(one, g, NEG_INF, INF) == 8.0
        assert rs_integral(one, g, -1.0, 2.0) == 5.0
        assert rs_integral(one, g, -0.5, 0.5) == 1.0

    def test_malformed_pieces_rejected(self):
        with pytest.raises(MalformedPieces):
            blocks([(1.0, 2.0, 1.0), (1.5, 3.0, 1.0)])  # overlap

    def test_zero_length_piece_rejected(self):
        zero = lambda x: 0.0
        with pytest.raises(MalformedPieces):
            BVFunction([Piece(NEG_INF, 0.0, zero, 0.0, 0.0),
                        Piece(0.0, 0.0, zero, 0.0, 1.0),
                        Piece(0.0, INF, zero, 1.0, 1.0)])


class TestPointIndicator:
    """indicator(a, a): zero on both sides of a, its value at a stored."""

    def test_limits_and_variation(self):
        g = indicator(0.0, 0.0)
        assert g.breakpoints == (0.0,)
        assert (g.left_limit(0.0), g(0.0), g.right_limit(0.0)) == (
            0.0, 1.0, 0.0)
        assert variation(g) == 2.0

    @pytest.mark.parametrize("left,right", [(True, False), (False, True),
                                            (False, False)])
    def test_half_open_point_is_empty(self, left, right):
        g = indicator(0.5, 0.5, include_left=left, include_right=right)
        assert g(0.5) == 0.0
        assert variation(g) == 0.0

    def test_product_is_zero(self):
        f = gaussian_distribution()
        assert integral_product(f, indicator(0.0, 0.0)) == 0.0
        assert integral_product(f, indicator(0.0, 1e-300)) == 0.0

    def test_point_at_infinity(self):
        top, bottom = indicator(INF, INF), indicator(NEG_INF, NEG_INF)
        assert (top(NEG_INF), top(0.0), top(INF)) == (0.0, 0.0, 1.0)
        assert (bottom(NEG_INF), bottom(0.0), bottom(INF)) == (1.0, 0.0, 0.0)
        assert top.breakpoints == bottom.breakpoints == ()


class TestLookupScaling:
    def test_limits_and_variation_of_20000_knots(self):
        # every lookup is one bisection, so this is n log n; a scan of
        # the breakpoints per lookup took tens of seconds
        n = 20000
        g = from_knots([float(i) for i in range(n)],
                       [math.sin(i) for i in range(n)])
        start = time.perf_counter()
        for p in g.breakpoints:
            g.left_limit(p)
            g.right_limit(p)
        v = g.variation()
        assert time.perf_counter() - start < 2.0
        assert v == pytest.approx(sum(abs(math.sin(i + 1) - math.sin(i))
                                      for i in range(n - 1)), rel=1e-12)


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

    def test_raising_kernel_raises_typed_error(self):
        # a piece of g read at the panel nodes: a call that raises one of
        # errors.UNDEFINED reads as NaN, like F's, whether the round
        # holds one piece of g or several
        fn = lambda x: x / (abs(x - 0.5) > 0.05)
        for g in (monotone(fn, -math.inf, math.inf),
                  cut_at(fn, [0.0, 0.25, 1.0])):
            with pytest.raises(BudgetExceeded, match="non-finite"):
                rs_integral(self._arctan(), g, 0.0, 1.0)

    def test_raising_primitive_at_a_jump_raises(self):
        # F(0.3) reads as NaN, and g jumps there: the jump term is not a
        # number, which must not come back as the integral
        F = ContinuousFunctionBar(
            lambda x: 1.0 / 0.0 if x == 0.3 else math.atan(x),
            -math.pi / 2, math.pi / 2)
        with pytest.raises(BudgetExceeded,
                           match=r"non-finite value at x=0\.3$"):
            rs_integral(F, indicator(0.3, INF), NEG_INF, INF)

    def test_raising_kernel_at_an_end_raises(self):
        # Piece.value reads the kernel at the end 0.5 of the integral
        # through cfun._safe: NaN, not the kernel's ZeroDivisionError
        g = monotone(lambda t: 1.0 / 0.0 if t == 0.5 else math.atan(t),
                     -math.pi / 2, math.pi / 2)
        assert math.isnan(g(0.5))
        with pytest.raises(BudgetExceeded,
                           match=r"non-finite value at x=0\.5$"):
            rs_integral(self._arctan(), g, 0.5, 1.0)

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
        # the limits at +-inf are never read on [0, L]
        F = ContinuousFunctionBar(quintic, 0.0, 0.0)
        assert rs_integral(F, g, 0.0, L) == pytest.approx(
            120.0 / r ** 5, rel=1e-12)

    def test_segment_cap_stops_a_stalled_run(self, monkeypatch):
        # int F d(-e^(-0.01 t)) on [0, inf] for F = x^5/(1 + (x/1e4)^5)
        # never reaches its goal: at the full cap it raises after 15.7M
        # F calls, on x near 886.  The cap, lowered here, raises the same
        # typed error; the call guard fails the test if it never comes
        monkeypatch.setattr(bv, "_RS_SEGMENT_CAP", 20_000)
        calls = 0

        def quintic(x):
            nonlocal calls
            calls += 1
            if calls > 2_000_000:
                raise RuntimeError("segment cap never reached")
            return x ** 5 / (1.0 + (x / 1e4) ** 5)

        F = ContinuousFunctionBar(quintic, 1e20, 1e20)
        g = monotone(lambda t: -math.exp(-0.01 * t), NEG_INF, 0.0)
        with pytest.raises(BudgetExceeded, match="segment cap") as info:
            rs_integral(F, g, 0.0, INF)
        lo, hi = (float(v) for v in re.search(
            r"x in \[([^,]+), ([^\]]+)\]", str(info.value)).groups())
        assert 0.0 < lo <= hi < INF

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
        # the limits at +-inf are never read on [0, 1000]
        F = ContinuousFunctionBar(cube, 0.0, 0.0)
        assert rs_integral(F, g, 0.0, 1000.0, tol) == pytest.approx(
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

    def test_cut_at_lo_is_dropped(self):
        # a spike at the second sample that golden section never sees: the
        # sampled maximum refines to lo itself, a cut equal to the last
        x1 = decompactify(compactify(1.0) / 2048)
        fn = lambda x: max(0.0, 1.0 - abs(x - x1) / 1e-9) - x
        g = from_callable(fn, 0.0, 1.0, fn(0.0), fn(1.0))
        assert g.breakpoints == (0.0, 1.0)
        assert variation(g) == 1.0

    def test_finite_hi_is_one_breakpoint(self):
        g = from_callable(lambda t: math.cos(t), 0.0, 7.0, 1.0,
                          math.cos(7.0))
        assert g.breakpoints.count(7.0) == 1
        # 4 from the two half swings, then cos 7 back up to 1; constant
        # cos 7 past the window, so no jump there
        assert variation(g) == pytest.approx(
            4.0 + (1.0 - math.cos(7.0)), rel=1e-12)


def test_from_callable_reads_fn_inside_its_interval_only():
    # the cuts are refined in the chart, where the first sample u(lo)
    # maps back to x just below this lo; sqrt(t - lo) is undefined there,
    # and its peak lies between the first samples, whose bracket starts
    # at u(lo)
    lo = 0.9385958677423489
    assert decompactify(compactify(lo)) < lo
    seen = []

    def fn(t):
        seen.append(t)
        return math.sqrt(t - lo) * math.exp(-1500.0 * (t - lo))

    g = from_callable(fn, lo, lo + 1.0, 0.0, fn(lo + 1.0))
    assert lo <= min(seen) and max(seen) <= lo + 1.0
    assert variation(g) == pytest.approx(
        2.0 * math.sqrt(1.0 / 3000.0) * math.exp(-0.5), rel=1e-12)
