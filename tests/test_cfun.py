import math

import pytest
from hypothesis import given, settings, strategies as st

from cpint.cfun import (_PROFILE_MASS, ContinuousFunctionBar, audit_on_interval,
                        build_continuous, bump, delta_sequence, extremes,
                        sup_norm)
from cpint.errors import NoLimitAtInfinity, NotContinuous


class TestBuildContinuous:
    def test_accepts_smooth(self):
        F = build_continuous(math.atan, -math.pi / 2, math.pi / 2)
        assert F(1.0) == math.atan(1.0)
        assert F(float("inf")) == math.pi / 2

    def test_rejects_jump(self):
        with pytest.raises(NotContinuous):
            build_continuous(lambda x: 0.0 if x < 0.3 else 1.0, 0.0, 1.0)

    def test_rejects_wrong_tail_limit(self):
        with pytest.raises(NoLimitAtInfinity):
            build_continuous(math.atan, -math.pi / 2, 1.0)

    def test_rejects_oscillating_tail(self):
        with pytest.raises(NoLimitAtInfinity):
            build_continuous(math.sin, 0.0, 0.0)

    def test_accepts_rapid_but_continuous_oscillation(self):
        # continuous with unbounded oscillation rate near 0; must pass
        def F(x):
            if x == 0.0:
                return 0.0
            c = min(abs(x), 1.0)
            return c * c * math.cos(c ** -2.0)
        build_continuous(F, math.cos(1.0), math.cos(1.0))

    def test_interval_audit_rejects_interior_jump(self):
        with pytest.raises(NotContinuous):
            audit_on_interval(lambda x: math.copysign(1.0, x - 0.5),
                              0.0, 1.0)


class TestExtremes:
    def test_kinked_peak_found_to_high_precision(self):
        # piecewise-linear spike of height 64 at x = 4 (off the scan grid)
        def F(x):
            if 3.0 < x < 5.0:
                return 64.0 * (1.0 - abs(x - 4.0))
            return 0.0
        hi, lo = extremes(ContinuousFunctionBar(F, 0.0, 0.0))
        assert hi == pytest.approx(64.0, abs=1e-9)
        assert lo == 0.0

    def test_sup_norm_two_sided(self):
        F = ContinuousFunctionBar(
            lambda x: math.sin(x) * math.exp(-x * x), 0.0, 0.0)
        # max of sin(x) exp(-x^2): frozen from dense scan
        assert sup_norm(F) == pytest.approx(0.39665296108547105, abs=1e-10)


class TestBump:
    def test_support_and_positivity(self):
        phi = bump(2.0, 0.5)
        assert phi(2.0) > 0.0
        assert phi(2.49) > 0.0
        assert phi(2.5) == 0.0
        assert phi(1.5) == 0.0

    def test_delta_sequence_mass_one(self):
        from scipy import integrate
        for n in (1, 4, 16):
            phi = delta_sequence(0.0, n)
            lo, hi = phi.support
            mass, _ = integrate.quad(phi, lo, hi)
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_profile_mass_against_mpmath(self):
        import mpmath
        with mpmath.workdps(40):
            mass = 2 * mpmath.quad(lambda s: mpmath.exp(1 / (s - 1)), [0, 1])
        assert _PROFILE_MASS == float(mass)


class TestAlgebra:
    @given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
           st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=50)
    def test_translation_and_scaling(self, x, c):
        F = ContinuousFunctionBar(math.atan, -math.pi / 2, math.pi / 2)
        assert F.translated(c)(x) == F(x - c)
        assert F.scaled(2.0)(x) == 2.0 * F(x)

    def test_pointwise_lattice(self):
        F = ContinuousFunctionBar(math.atan, -math.pi / 2, math.pi / 2)
        G = F.scaled(-1.0)
        top = F.pointwise_max(G)
        assert top(2.0) == abs(math.atan(2.0))
        assert top(-2.0) == abs(math.atan(-2.0))
