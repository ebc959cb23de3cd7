import math

import pytest

from cpint.cfun import ContinuousFunctionBar
from cpint.errors import DomainError, NoLimitAtInfinity
from cpint.fixtures import si_distribution
from cpint.space import Distribution
from cpint.transforms import (HalfPlanePoint, boundary_norm_gap, growth_probe,
                              laplace, laplace_derivative, laplacian_probe,
                              poisson, poisson_kernel_bv, weighted_integral)


def indicator_distribution():
    """The indicator of [-1, 1] as a distribution (ramp primitive)."""
    return Distribution(ContinuousFunctionBar(
        lambda x: max(0.0, min(2.0, x + 1.0)), 0.0, 2.0))


def exp_decay_distribution():
    """f(t) = exp(-t) on [0, inf)."""
    return Distribution(ContinuousFunctionBar(
        lambda x: 0.0 if x <= 0.0 else -math.expm1(-x), 0.0, 1.0))


class TestPoisson:
    def test_kernel_variation(self):
        from cpint.bv import variation
        g = poisson_kernel_bv(0.7, 0.25)
        assert variation(g) == pytest.approx(2.0 / (math.pi * 0.25),
                                             abs=1e-14)

    def test_indicator_closed_form(self):
        f = indicator_distribution()
        for x, y in ((0.0, 1.0), (0.5, 0.3), (-2.0, 2.0)):
            got = poisson(f, HalfPlanePoint(x, y))
            exact = (math.atan((x + 1.0) / y)
                     - math.atan((x - 1.0) / y)) / math.pi
            assert got == pytest.approx(exact, abs=1e-10)

    def test_mean_value_at_height(self):
        # total mass is preserved: u(x, y) -> 0 as y -> inf like mass/(pi y)
        f = indicator_distribution()
        y = 50.0
        got = poisson(f, HalfPlanePoint(0.0, y))
        assert got == pytest.approx(f.total / (math.pi * y), rel=1e-2)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            HalfPlanePoint(0.0, -1.0)

    def test_laplacian_probe_small(self):
        f = indicator_distribution()
        r = laplacian_probe(f, HalfPlanePoint(0.3, 0.5), 1e-2)
        assert abs(r) < 1e-3     # discretization residual only

    def test_boundary_gap_shrinks(self):
        f = indicator_distribution()
        g1 = boundary_norm_gap(f, 1.0, probes=11)
        g2 = boundary_norm_gap(f, 0.1, probes=11)
        assert g2 < g1


class TestLaplace:
    def test_exponential_closed_form(self):
        fe = exp_decay_distribution()
        for z in (1.0 + 0j, 2.5 + 0j, 1.0 + 2.0j, 0.3 + 5.0j):
            assert abs(laplace(fe, z) - 1.0 / (z + 1.0)) < 1e-9

    def test_at_zero_equals_total(self):
        fe = exp_decay_distribution()
        assert laplace(fe, 0.0) == complex(fe.total, 0.0)

    def test_sine_integral_closed_form(self):
        # transform of sin(t)/t is atan(1/z)
        si = si_distribution()
        got = laplace(si, 1.0 + 0j)
        assert abs(got - math.atan(1.0)) < 1e-9

    def test_derivative_closed_form(self):
        fe = exp_decay_distribution()
        for n in (1, 2):
            got = laplace_derivative(fe, 1.0 + 0j, n)
            exact = (-1.0) ** n * math.factorial(n) / 2.0 ** (n + 1)
            assert abs(got - exact) < 1e-9

    def test_left_half_plane_rejected(self):
        with pytest.raises(DomainError):
            laplace(exp_decay_distribution(), -1.0 + 0j)

    def test_growth_probe_decreasing(self):
        fe = exp_decay_distribution()
        vals = growth_probe(fe, 0.5, [1.0, 4.0, 16.0], angles=9)
        assert vals[0] > vals[1] > vals[2]


class TestWeightedIntegral:
    def test_constant_density(self):
        # f = 1 with weight exp(-t): integral 1
        assert weighted_integral(lambda x: x, 1.0) == pytest.approx(
            1.0, abs=1e-9)

    def test_cosine_density(self):
        # f = cos with weight exp(-t/2): r/(r^2+1) = 0.4
        assert weighted_integral(math.sin, 0.5) == pytest.approx(
            0.4, abs=1e-9)

    def test_membership_gate(self):
        with pytest.raises(NoLimitAtInfinity):
            weighted_integral(lambda x: x, 0.0)

    def test_divergent_under_weight_raises(self):
        # f = 2 e^(2t) against e^(-t): the integrand grows like e^t, and
        # F_r must not freeze at the quadrature cap
        with pytest.raises(NoLimitAtInfinity):
            weighted_integral(lambda x: math.exp(2.0 * x), 1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            weighted_integral(lambda x: x, -1.0)

    def test_slow_tail_without_weight_raises(self):
        # 1 - (1 + x)^(-1/2) tends to 1, but only like x^(-1/2): the tail
        # audit must not return the mean of samples short of the limit
        with pytest.raises(NoLimitAtInfinity):
            weighted_integral(lambda x: 1.0 - (1.0 + x) ** -0.5, 0.0)
