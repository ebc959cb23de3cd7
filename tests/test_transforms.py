import math
import random

import numpy as np
import pytest

from cpint.cfun import ContinuousFunctionBar
from cpint.errors import DomainError, NoLimitAtInfinity
from cpint.fixtures import si_distribution
from cpint.space import Distribution
from cpint.transforms import (HalfPlanePoint, _laplace_kernel_bv,
                              boundary_norm_gap, growth_probe, laplace,
                              laplace_derivative, laplacian_probe, poisson,
                              poisson_kernel_bv, weighted_integral)


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

    @pytest.mark.parametrize("t", [1e155, -1e155, 1e300, -1e300])
    def test_kernel_far_from_its_peak(self, t):
        # (x - t) ** 2 overflows past |x - t| = 1.3e154; the kernel is
        # 0.0 there, as it already is from 7.6e153 on
        g = poisson_kernel_bv(0.0, 1.0)
        assert g(t) == 0.0
        assert g(7.5e153) > 0.0 == g(7.6e153)

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

    def test_near_imaginary_axis(self):
        # a kernel cut by sampling put neighbouring cuts out of order here
        fe = exp_decay_distribution()
        for z in (0.1 + 3.0j, 0.02 + 7.0j):
            assert abs(laplace(fe, z) - 1.0 / (z + 1.0)) < 1e-12

    def test_derivative_at_complex_z(self):
        fe = exp_decay_distribution()
        for z in (1.0 + 1.0j, 0.5 + 2.0j):
            for n in (1, 2):
                exact = (-1.0) ** n * math.factorial(n) / (z + 1.0) ** (n + 1)
                assert abs(laplace_derivative(fe, z, n) - exact) < 1e-12

    def test_sine_integral_derivative(self):
        # d/dz atan(1/z) = -1/(1 + z^2)
        si = si_distribution()
        for z in (1.0 + 0.5j, 1.5 - 0.5j):
            got = laplace_derivative(si, z, 1)
            assert abs(got + 1.0 / (1.0 + z * z)) < 1e-10

    def test_left_half_plane_rejected(self):
        with pytest.raises(DomainError):
            laplace(exp_decay_distribution(), -1.0 + 0j)

    def test_growth_probe_decreasing(self):
        fe = exp_decay_distribution()
        vals = growth_probe(fe, 0.5, [1.0, 4.0, 16.0], angles=9)
        assert vals[0] > vals[1] > vals[2]


class TestLaplaceKernel:
    """The kernel's cuts are exactly the extrema of t^n e^(-zt) on (0, T)."""

    @staticmethod
    def slope(z, part, n, t):
        w = (n * t ** (n - 1) - z * t ** n) * np.exp(-z * t)
        return w.real if part == "re" else w.imag

    def points(self):
        rng = random.Random(16)
        zs = [complex(rng.uniform(0.5, 2.0), sign * rng.uniform(0.3, 4.0))
              for sign in (1.0, -1.0) for _ in range(3)]
        zs.append(complex(rng.uniform(0.5, 2.0), 0.0))
        return [(z, part, n) for z in zs for part in ("re", "im")
                for n in range(4)]

    def test_pieces_monotone(self):
        for z, part, n in self.points():
            _laplace_kernel_bv(z, part, n, 1e-10).audit_monotone_pieces()

    def test_slope_changes_sign_at_each_cut(self):
        for z, part, n in self.points():
            g = _laplace_kernel_bv(z, part, n, 1e-10)
            for c in g.breakpoints[1:-1]:
                h = 1e-6 * max(1.0, c)
                assert (self.slope(z, part, n, c - h)
                        * self.slope(z, part, n, c + h)) < 0.0, (z, part, n, c)

    def test_cuts_are_all_extrema(self):
        for z, part, n in self.points():
            g = _laplace_kernel_bv(z, part, n, 1e-10)
            T = g.breakpoints[-1] if len(g.breakpoints) > 1 else 40.0 / z.real
            ts = np.linspace(0.0, T, 64 * int(T * (abs(z.imag) + 1.0)) + 1)
            s = np.sign(self.slope(z, part, n, ts[1:-1]))
            extrema = int(np.count_nonzero(s[1:] * s[:-1] < 0.0))
            assert len(g.breakpoints[1:-1]) == extrema, (z, part, n)


class TestWeightedIntegral:
    def test_constant_density(self):
        # f = 1 with weight exp(-t): integral 1
        assert weighted_integral(lambda x: x, 1.0) == pytest.approx(
            1.0, abs=1e-9)

    def test_cosine_density(self):
        # f = cos with weight exp(-t/2): r/(r^2+1) = 0.4
        assert weighted_integral(math.sin, 0.5) == pytest.approx(
            0.4, abs=1e-9)

    def test_fast_growth_slow_weight(self):
        # f = 5 x^4 against e^(-x/100): 5!/0.01^5 = 1.2e12
        assert weighted_integral(lambda x: x ** 5, 0.01) == pytest.approx(
            1.2e12, rel=1e-12)

    def test_oscillating_density_within_tol(self):
        # f = 2x cos(x^2) against e^(-x); mpmath's value over [0, 80]
        # to 30 digits.  The value must be within the default tol 1e-10
        assert weighted_integral(lambda x: math.sin(x * x), 1.0) == \
            pytest.approx(0.270513580162214144, abs=1e-10)

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
