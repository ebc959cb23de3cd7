import math

import numpy as np
import pytest
from scipy import special

from cpint.errors import BudgetExceeded, NoLimitAtInfinity, NotContinuous
from cpint.quadrature import epsilon_limit, gauss_segment, hake_from_integrand

FRESNEL_TOTAL = 0.6266570686577501   # sqrt(pi) / 2^(3/2)
SI_TOTAL = math.pi / 2.0


class TestGaussSegment:
    def test_polynomial_exact(self):
        got = gauss_segment(lambda x: x ** 7 - 3.0 * x ** 2 + 1.0, -1.0, 2.0)
        exact = (2.0 ** 8 - 1.0) / 8.0 - (2.0 ** 3 + 1.0) + 3.0
        assert got == pytest.approx(exact, abs=1e-12)


class TestEpsilonLimit:
    def test_accelerates_alternating_series(self):
        partial = []
        s = 0.0
        for k in range(1, 30):
            s += (-1.0) ** (k + 1) / k
            partial.append(s)
        assert epsilon_limit(partial) == pytest.approx(math.log(2.0),
                                                       abs=1e-10)


class TestHake:
    def test_fresnel_total(self):
        h = hake_from_integrand(lambda x: math.sin(x * x))
        assert h.total == pytest.approx(FRESNEL_TOTAL, abs=1e-6)
        assert h.defect_bound <= 2e-2

    def test_fresnel_primitive_matches_special_function(self):
        h = hake_from_integrand(lambda x: math.sin(x * x))
        F = h.distribution.primitive
        half = math.sqrt(math.pi / 2.0)
        for x in (0.5, 2.0, 10.0, 50.0):
            s, _ = special.fresnel(x * math.sqrt(2.0 / math.pi))
            assert F(x) == pytest.approx(half * float(s), abs=1e-9)

    def test_fresnel_tail_model_within_defect(self):
        h = hake_from_integrand(lambda x: math.sin(x * x))
        F = h.distribution.primitive
        half = math.sqrt(math.pi / 2.0)
        for x in (2e2, 1e4, 1e6):
            s, _ = special.fresnel(x * math.sqrt(2.0 / math.pi))
            assert abs(F(x) - half * float(s)) <= h.defect_bound

    def test_sine_integral(self):
        h = hake_from_integrand(
            lambda x: math.sin(x) / x if x != 0.0 else 1.0)
        assert h.total == pytest.approx(SI_TOTAL, abs=1e-6)
        F = h.distribution.primitive
        for x in (1.0, 5.0, 20.0):
            assert F(x) == pytest.approx(float(special.sici(x)[0]),
                                         abs=1e-8)

    def test_divergent_oscillation_rejected(self):
        with pytest.raises(NoLimitAtInfinity):
            hake_from_integrand(math.sin)

    def test_nonoscillatory_path(self):
        h = hake_from_integrand(lambda x: math.exp(-x))
        assert h.total == pytest.approx(1.0, abs=1e-9)
        assert h.distribution.primitive(2.0) == pytest.approx(
            -math.expm1(-2.0), abs=1e-9)


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
class TestHakeSettled:
    """The non-oscillatory path: int h dx against the compact chart."""

    @pytest.mark.parametrize("h,total", [
        # scales on which a primitive by adaptive quadrature at its
        # default tolerance looked like a jump to the 1e-10 audit
        (lambda x: 1.0 / (1.0 + (x / 1.175) ** 2), 1.175 * math.pi / 2.0),
        (lambda x: math.exp(-(x / 1.010639680486078) ** 2),
         1.010639680486078 * math.sqrt(math.pi) / 2.0),
    ], ids=["rational", "gauss"])
    def test_scaled_totals(self, h, total):
        assert hake_from_integrand(h).total == pytest.approx(total, abs=1e-10)

    @pytest.mark.parametrize("h,primitive", [
        (lambda x: math.exp(-x * x),
         lambda x: math.sqrt(math.pi) / 2.0 * math.erf(x)),
        (lambda x: 1.0 / (1.0 + x * x), math.atan),
    ], ids=["gauss", "rational"])
    def test_primitive_makes_no_integrand_call(self, h, primitive):
        calls = []
        F = hake_from_integrand(
            lambda x: calls.append(x) or h(x)).distribution.primitive
        built = len(calls)
        for x in (0.1, 1.0, 3.0, 12.0, 1e3):
            assert F(x) == pytest.approx(primitive(x), abs=1e-12)
        assert len(calls) == built

    def test_just_above_start(self):
        # the chart maps the next double above this a one ulp below u(a)
        a = 0.08155261736351271
        F = hake_from_integrand(lambda x: math.exp(-x * x),
                                a=a).distribution.primitive
        assert abs(F(math.nextafter(a, 1.0))) < 1e-15

    @pytest.mark.parametrize("h", [lambda x: (1.0 + x) ** -1.5,
                                   lambda x: 1.0 / (1.0 + x)],
                             ids=["power_1.5", "power_1"])
    def test_slow_or_divergent_tail_raises(self, h):
        # (1+x)^(-3/2) has total 2 but decays too slowly for the chart's
        # end panel; 1/(1+x) has no total
        with pytest.raises((BudgetExceeded, NoLimitAtInfinity)):
            hake_from_integrand(h)

    def test_large_integrand_stops(self):
        # 1e8 exp(-x^2) carries roundoff near 1e-8, far above the default
        # goal of 1e-11: the heap stops at the roundoff of its values and
        # the audit at tol reports that roundoff; a tol above it builds
        calls = 0

        def h(x):
            nonlocal calls
            calls += 1
            if calls > 50_000:
                raise RuntimeError("the panel heap did not stop")
            return 1e8 * math.exp(-x * x)

        with pytest.raises(NotContinuous):
            hake_from_integrand(h)
        calls = 0
        assert hake_from_integrand(h, tol=1e-6).total == pytest.approx(
            1e8 * math.sqrt(math.pi) / 2.0, abs=1e-6)

    def test_unresolved_wiggle_hits_panel_cap(self):
        # positive, but 1e4 wiggles on [0, 6] to resolve to tol
        with pytest.raises(BudgetExceeded, match="panel cap"):
            hake_from_integrand(lambda x: math.exp(-x * x)
                                * (1.0 + 1e-3 * math.sin(1e4 * x)))

    def test_singular_start_raises(self):
        # the heap evaluates h at a, so h must be finite on [a, inf)
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(BudgetExceeded, match="non-finite"):
            hake_from_integrand(lambda x: np.exp(-x) / np.sqrt(x))
