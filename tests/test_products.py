import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from cpint.bv import constant, from_knots, indicator, monotone
from cpint.cfun import ContinuousFunctionBar, bump
from cpint.chart import INF, NEG_INF
from cpint.errors import DomainError, NonMonotone
from cpint.fixtures import (arctan_distribution, cantor_function,
                            gaussian_distribution, quadratic_osc_distribution,
                            random_bv, random_distribution,
                            random_monotone_bv, signed_bump_distribution)
from cpint.products import (TaylorInput, change_of_variables, holder_bound,
                            integral_product, multiply_bv, pair_with_test,
                            second_mvt_xi, taylor_expand)
from cpint.space import Distribution, integral


class TestIntegralProduct:
    def test_indicator_recovers_interval_integral(self):
        f = arctan_distribution()
        got = integral_product(f, indicator(0.0, 1.0))
        assert got == pytest.approx(integral(f, 0.0, 1.0), abs=1e-12)

    def test_constant_weight_scales_total(self):
        f = gaussian_distribution()
        assert integral_product(f, constant(3.0)) == pytest.approx(
            3.0 * f.total, abs=1e-12)

    def test_odd_symmetry_cancels(self):
        f = arctan_distribution()      # even density 1/(1+x^2)
        g = monotone(math.atan, -math.pi / 2, math.pi / 2)  # odd weight
        assert integral_product(f, g) == pytest.approx(0.0, abs=1e-11)

    def test_against_classical_quadrature(self):
        f = gaussian_distribution()    # density -2x exp(-x^2)
        g = monotone(math.tanh, -1.0, 1.0)
        exact, _ = integrate.quad(
            lambda x: -2.0 * x * math.exp(-x * x) * math.tanh(x), -30, 30)
        assert integral_product(f, g) == pytest.approx(exact, abs=1e-10)

    def test_multiply_bv_then_total(self):
        f = gaussian_distribution()
        g = monotone(math.tanh, -1.0, 1.0)
        prod = multiply_bv(f, g)
        assert prod.total == pytest.approx(integral_product(f, g), abs=1e-9)


class TestPairWithTest:
    def test_delta_like_pairing_approaches_density_value(self):
        # f has density -2x exp(-x^2); narrow unit-mass bumps at 0.5
        f = gaussian_distribution()
        density = lambda x: -2.0 * x * math.exp(-x * x)
        # unit-mass bumps of width 1/n
        vals = [pair_with_test(f, bump(0.5, 1.0 / n,
                                       1.0 / bump(0.5, 1.0 / n).mass))
                for n in (4, 16, 64)]
        errs = [abs(v - density(0.5)) for v in vals]
        assert errs[-1] < errs[0]
        assert errs[-1] < 1e-3


class TestHolder:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_both_bounds(self, seed):
        rng = np.random.default_rng(seed)
        f = random_distribution(rng)
        g = random_bv(rng)
        got = abs(integral_product(f, g))
        b = holder_bound(f, g)
        assert got <= b.jump_form + 1e-9
        assert got <= b.bv_norm_form + 1e-9


class TestChangeOfVariables:
    def test_smooth_strictly_monotone(self):
        f = arctan_distribution()
        got = change_of_variables(f, lambda t: t ** 3, 0.0, 2.0)
        F = f.primitive
        assert got == F(8.0) - F(0.0)

    def test_non_monotone_substitution(self):
        f = gaussian_distribution()
        got = change_of_variables(f, math.sin, 0.0, 4.0 * math.pi)
        # G(0) = G(4 pi) = 0: the integral vanishes despite the motion
        assert got == 0.0

    def test_cantor_substitution_exact(self):
        for f in (arctan_distribution(), signed_bump_distribution(),
                  quadratic_osc_distribution()):
            got = change_of_variables(f, cantor_function, 0.0, 1.0)
            F = f.primitive
            assert got == F(1.0) - F(0.0)

    def test_escaping_substitution_with_declared_endpoint(self):
        f = arctan_distribution()
        got = change_of_variables(f, lambda t: math.tan(t),
                                  -math.pi / 2, math.pi / 2,
                                  G_a=NEG_INF, G_b=INF)
        assert got == pytest.approx(math.pi, abs=1e-12)

    def test_reversed_interval_raises(self):
        with pytest.raises(DomainError):
            change_of_variables(arctan_distribution(), lambda t: t, 1.0, 0.0)


class TestSecondMvt:
    def test_residual_identity(self):
        f = gaussian_distribution()
        g = monotone(lambda x: (math.atan(x) / math.pi) + 0.5, 0.0, 1.0)
        xi = second_mvt_xi(f, g)
        F = f.primitive
        total = integral_product(f, g)
        resid = abs(g.value_neg_inf * F(xi)
                    + g.value_pos_inf * (F.limit_pos - F(xi)) - total)
        assert resid <= 1e-8 * (1.0 + abs(total))

    def test_leftmost_xi(self):
        # F - target is 2.6e-12 at x = -2.26 and at the ramp's foot x = 3
        f = gaussian_distribution(0.37)
        xi = second_mvt_xi(f, from_knots([3.0, 3.0 + 1e-9], [0.0, 1.0]))
        assert xi == pytest.approx(-2.26, abs=1e-6)

    def test_root_inside_one_grid_cell(self):
        # F exceeds the target F(a) only on (a, 3.44e-4), narrower than
        # the scan's cells there
        f = Distribution(ContinuousFunctionBar(
            lambda x: math.exp(-(x - 2.44e-4) ** 2), 0.0, 0.0))
        xi = second_mvt_xi(f, indicator(1.44e-4, INF))
        assert xi == pytest.approx(1.44e-4, abs=1e-12)

    def test_grid_read_through_the_table(self):
        # with its 4,097-point table held, the scan calls F 4,095 times
        # fewer, and finds the same xi
        g = monotone(lambda x: (math.atan(x) / math.pi) + 0.5, 0.0, 1.0)
        seen = []

        def gauss():
            def ev(x):
                seen.append(x)
                return math.exp(-(x - 0.3) ** 2)
            return Distribution(ContinuousFunctionBar(ev, 0.0, 0.0))
        xi = second_mvt_xi(gauss(), g)
        cold = len(seen)
        f = gauss()
        f.primitive.on_grid(4097)
        del seen[:]
        assert second_mvt_xi(f, g) == xi
        assert len(seen) == cold - 4095

    def test_constant_weight_convention(self):
        xi = second_mvt_xi(gaussian_distribution(), constant(2.0))
        assert xi == NEG_INF

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotone):
            second_mvt_xi(gaussian_distribution(), indicator(0.0, 1.0))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_seeded_monotone_cases(self, seed):
        rng = np.random.default_rng(seed)
        f = random_distribution(rng)
        g = random_monotone_bv(rng)
        second_mvt_xi(f, g)    # raises ResidualTooLarge on failure


class TestTaylor:
    def test_monomial_tail_reproduced(self):
        # f(t) = t^5 about 0: order-2 remainder must be exactly t^5
        def top(t):
            return 20.0 * t ** 3
        inp = TaylorInput(2, 0.0, 1.0, top, [0.0, 0.0, 0.0])
        for x in (0.3, 1.0):
            assert taylor_expand(inp, x).remainder == pytest.approx(
                x ** 5, abs=1e-12)

    def test_sin_expansion_matches_series(self):
        inp = TaylorInput(3, 0.0, 1.0, lambda t: -math.cos(t),
                          [0.0, 1.0, 0.0, -1.0])
        res = taylor_expand(inp, 1.0)
        assert res.polynomial + res.remainder == pytest.approx(math.sin(1.0),
                                                               abs=1e-10)
        assert abs(res.remainder) <= res.bound_pointwise + 1e-12
        assert res.bound_pointwise <= res.bound_uniform + 1e-12

    def test_order_zero_is_plain_integral(self):
        # with n = 0 the remainder is the integral of the distributional
        # derivative of the supplied function: endpoint evaluation
        inp = TaylorInput(0, 0.0, 1.0, math.sin, [math.sin(0.0)])
        res = taylor_expand(inp, 1.0)
        assert res.remainder == math.sin(1.0) - math.sin(0.0)

    def test_bad_coefficients_rejected(self):
        with pytest.raises(DomainError):
            TaylorInput(2, 0.0, 1.0, math.sin, [0.0])

    @pytest.mark.parametrize("a,bad,n,pointwise,uniform", [
        # NaN at the first sample of the deviation scans: a = -0.0 is
        # sampled as -0.0 + 0.0 = +0.0, where the derivative is NaN, while
        # fn(a) itself is finite; the bounds are NaN, as max(list) is
        (-0.0, 0.0, 0, math.nan, math.nan),
        (-0.0, 0.0, 2, math.nan, math.nan),
        # NaN at a later sample of each scan is passed over
        (0.0, 3 / 2048, 0, 0.45969769413186023, 1.4161468365471424),
        (0.0, 10 / 2048, 2, 0.22984884706593012, 2.8322936730942847),
    ])
    def test_nan_sample_of_top_derivative(self, a, bad, n, pointwise, uniform):
        def top(t):
            if t == bad and math.copysign(1.0, t) > 0.0:
                return math.nan
            return math.cos(t)
        inp = TaylorInput(n, a, 2.0, top, [1.0, 0.0, -1.0][:n + 1])
        res = taylor_expand(inp, 1.0)
        for got, want in ((res.bound_pointwise, pointwise),
                          (res.bound_uniform, uniform)):
            assert got == want or math.isnan(got) and math.isnan(want)

    def test_point_outside_window_rejected(self):
        inp = TaylorInput(1, 0.0, 1.0, math.cos, [0.0, 1.0])
        with pytest.raises(DomainError):
            taylor_expand(inp, 2.0)
