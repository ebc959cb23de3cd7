import math
import re
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy import special

from cpint.bv import _refine
from cpint.errors import BudgetExceeded, NoLimitAtInfinity
from cpint.quadrature import (_SCAN_STEPS, _SEGMENT_CAP, _gauss_panels,
                              _primitive_table, _scan_sign_changes,
                              epsilon_limit, hake_from_integrand)

FRESNEL_TOTAL = 0.6266570686577501   # sqrt(pi) / 2^(3/2)
# integrand calls that a depth-cap raise of the settled path may cost
_FAILURE_CALLS = 2_000
SI_TOTAL = math.pi / 2.0


class TestGaussSegment:
    """The lobe table: antiderivatives of the interpolants through the
    integrand at 20 Gauss-Legendre nodes."""

    def test_polynomial_exact(self):
        # degree 19: the interpolant is the polynomial itself, so the
        # table is its primitive at every point, bisected or not
        p = np.polynomial.Polynomial(
            np.random.default_rng(7).uniform(-1.0, 1.0, 20))
        P = p.integ(lbnd=-1.0)
        segments, _ = _refine(partial(_gauss_panels, p),
                              [(-1.0, 2.0, None, None, None)], 1e-10,
                              "segment", lambda key, x: x, 64)
        assert len(segments) > 1
        F, total = _primitive_table(segments)
        scale = np.abs(P(np.linspace(-1.0, 2.0, 301))).max()
        assert total == pytest.approx(P(2.0), abs=1e-14 * scale)
        for x in np.linspace(-1.0, 2.0, 301).tolist():
            assert F(x) == pytest.approx(P(x), abs=1e-14 * scale)

    def test_first_lobe_of_slow_decay_against_mpmath(self):
        # a single degree-19 interpolant misses by 2e-10 on this lobe;
        # the table bisects it to tol
        b = 0.8
        F = hake_from_integrand(
            lambda x: math.sin(b * x) / (1.0 + x)).distribution.primitive
        for x in np.linspace(0.05, math.pi / b, 24).tolist():
            want = mpmath.quad(lambda t: mpmath.sin(b * t) / (1 + t), [0, x])
            assert F(x) == pytest.approx(float(want), abs=1e-12)


class TestEpsilonLimit:
    def test_accelerates_alternating_series(self):
        partial = []
        s = 0.0
        for k in range(1, 30):
            s += (-1.0) ** (k + 1) / k
            partial.append(s)
        assert epsilon_limit(partial) == pytest.approx(math.log(2.0),
                                                       abs=1e-10)

    @pytest.mark.parametrize("partial, want", [
        ([0.75], 0.75),
        ([1.0, 0.5], 0.5),      # one difference: no even column yet
        ([0.5, 0.5], 0.5),      # a zero difference returns the later sum
    ])
    def test_one_and_two_sums(self, partial, want):
        assert epsilon_limit(partial) == want


class TestSignChanges:
    @pytest.mark.parametrize("f,zero", [
        (lambda x: math.sin(x * x), lambda k: math.sqrt(k * math.pi)),
        # regula falsi alone stalls at a zero of multiplicity 5
        (lambda x: math.sin(x) ** 5, lambda k: k * math.pi),
    ], ids=["fresnel", "fifth_power"])
    def test_zeros_within_bracket(self, f, zero):
        zs = _scan_sign_changes(f, 0.0, 0.5)
        for k in range(1, 301):
            assert abs(next(zs) - zero(k)) <= 1e-15 * (1.0 + zero(k))


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

    def test_cutoff_where_the_loop_stopped(self):
        # the lobes before 2 pi are scaled by 1e-3, below _DEFECT_TARGET
        # long before the limit settles: the table keeps them and every
        # lobe after them, up to the one that stopped the loop
        two_pi = 2.0 * math.pi
        res = hake_from_integrand(
            lambda x: (1e-3 if x < two_pi else 1.0) * math.sin(x) / (1.0 + x))
        assert res.cutoff > 200.0
        assert res.defect_bound < 0.02

        def P(x):   # a primitive of sin(x)/(1+x), by Si and Ci at 1+x
            s = 1 + mpmath.mpf(x)
            return mpmath.cos(1) * mpmath.si(s) - mpmath.sin(1) * mpmath.ci(s)

        F = res.distribution.primitive
        with mpmath.workdps(30):
            head = 1e-3 * (P(two_pi) - P(0.0)) - P(two_pi)
            for x in (20.0, 50.0, 150.0):
                assert abs(F(x) - float(head + P(x))) <= 1e-12

    @pytest.mark.parametrize("h,primitive", [
        (lambda x: math.sin(x * x),
         lambda x: math.sqrt(math.pi / 2.0) * float(
             special.fresnel(x * math.sqrt(2.0 / math.pi))[0])),
        (lambda x: math.sin(x) / (1.0 + x),
         lambda x: float(mpmath.quad(lambda t: mpmath.sin(t) / (1 + t),
                                     [0, x]))),
    ], ids=["fresnel", "sin_over_linear"])
    def test_primitive_makes_no_integrand_call(self, h, primitive):
        calls = []
        F = hake_from_integrand(
            lambda x: calls.append(x) or h(x)).distribution.primitive
        built = len(calls)
        for x in (0.1, 1.0, 3.0, 12.0, 40.0):
            assert F(x) == pytest.approx(primitive(x), abs=1e-11)
        assert len(calls) == built

    def test_fresnel_integrand_calls(self):
        # one pass over each lobe and Illinois zeros; 475,933 calls when
        # F reran a Gauss rule and zeros were bisected
        calls = 0

        def h(x):
            nonlocal calls
            calls += 1
            return math.sin(x * x)

        hake_from_integrand(h)
        assert calls <= 150_000

    def test_non_finite_lobe_raises(self):
        calls = 0

        def h(x):
            nonlocal calls
            calls += 1
            return math.nan if abs(x - 7.0) < 0.05 else math.sin(x * x)

        with pytest.raises(BudgetExceeded, match="non-finite") as info:
            hake_from_integrand(h)
        lo, hi = (float(v) for v in
                  str(info.value).split("[")[1].rstrip("]").split(", "))
        assert lo < 7.05 and hi > 6.95
        assert calls < 10_000

    def test_unresolved_lobe_hits_depth_cap(self):
        # a convergent integral with an integrable singularity inside the
        # first lobe: the interpolant converges too slowly near it for
        # any depth to reach tol
        with pytest.raises(BudgetExceeded, match="lobe depth cap"):
            hake_from_integrand(
                lambda x: math.sin(x) / (1.0 + x)
                + 1e-3 * math.exp(-x) / math.sqrt(abs(x - 1.1)))

    def test_large_integrand_stops(self):
        # 1e12 sin(x^2) carries noise near 1e-2 in its values past x = 25,
        # where x^2 is rounded before the sine, far above the default
        # goal of 1e-11: bisection cannot reach it, and the table stops
        # at its segment cap; a tol above the noise builds
        calls = 0

        def h(x):
            nonlocal calls
            calls += 1
            if calls > 2_000_000:
                raise RuntimeError("the lobe bisection did not stop")
            return 1e12 * math.sin(x * x)

        with pytest.raises(BudgetExceeded, match="lobe segment cap"):
            hake_from_integrand(h)
        calls = 0
        assert hake_from_integrand(h, tol=1.0).total == pytest.approx(
            1e12 * FRESNEL_TOTAL, rel=1e-14)

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

    @pytest.mark.parametrize("h,primitive", [
        (lambda x: math.exp(-x * x),
         lambda x: math.sqrt(math.pi) / 2.0 * math.erf(x)),
        (lambda x: 1.0 / (1.0 + x * x), math.atan),
    ], ids=["gauss", "rational"])
    def test_defect_bound_covers_error(self, h, primitive):
        r = hake_from_integrand(h)
        F = r.distribution.primitive
        xs = np.concatenate([np.linspace(0.0, 12.0, 601),
                             np.geomspace(12.0, 1e12, 50)]).tolist()
        err = max(abs(F(x) - primitive(x)) for x in xs)
        assert r.defect_bound > 0.0
        assert err <= r.defect_bound

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
        # end segment; 1/(1+x) has no total.  The error names the end
        # segment in x, [2^40 - 1, inf], not in u.  The scan's 121 calls
        # and 81 segments of 20 calls bisect it to the depth cap: 1,741
        calls = [0]

        def counted(x):
            calls[0] += 1
            return h(x)

        with pytest.raises(BudgetExceeded, match="depth cap") as info:
            hake_from_integrand(counted)
        lo, hi = (float(v) for v in re.search(
            r"x in \[([^,]+), ([^\]]+)\]", str(info.value)).groups())
        assert (lo, hi) == (2.0 ** 40 - 1.0, math.inf)
        assert calls[0] <= _FAILURE_CALLS

    def test_large_integrand_stops(self):
        # 1e8 exp(-x^2) carries roundoff near 1e-8, far above the default
        # goal of 1e-11: the heap stops at the roundoff of its values, and
        # the audit's floor at the roundoff of the primitive's values
        # tells that roundoff from a jump, at the default tol and above it
        calls = 0

        def h(x):
            nonlocal calls
            calls += 1
            if calls > 50_000:
                raise RuntimeError("the panel heap did not stop")
            return 1e8 * math.exp(-x * x)

        for tol in (1e-10, 1e-6):
            calls = 0
            assert hake_from_integrand(h, tol=tol).total == pytest.approx(
                1e8 * math.sqrt(math.pi) / 2.0, rel=1e-14)

    def test_wiggle_against_mpmath(self):
        # positive, with 1e4 wiggles on [0, 6] to resolve to tol
        h = hake_from_integrand(lambda x: math.exp(-x * x)
                                * (1.0 + 1e-3 * math.sin(1e4 * x)))
        assert h.total == pytest.approx(0.88622702545276001365, abs=1e-10)

    def test_unresolved_wiggle_hits_segment_cap(self):
        # 1e6 wiggles on [0, 6] need more than _SEGMENT_CAP segments; the
        # scan's 121 points, none of them a sign change, and 20 calls per
        # segment evaluated bound the work
        calls = 0

        def h(x):
            nonlocal calls
            calls += 1
            return math.exp(-x * x) * (1.0 + 1e-3 * math.sin(1e6 * x))

        with pytest.raises(BudgetExceeded, match="segment cap"):
            hake_from_integrand(h)
        assert calls <= 121 + 20 * 2 * _SEGMENT_CAP

    @pytest.mark.parametrize("h", [lambda x: np.exp(-x) / np.sqrt(x),
                                   lambda x: math.exp(-x) / math.sqrt(x)],
                             ids=["numpy", "math"])
    def test_singular_start_raises(self, h):
        # an integrable singularity at a: no depth brings the segment at
        # a to tol.  The Gauss nodes never evaluate h at a itself; only
        # the scan does, and it reads the infinite value, or the
        # ZeroDivisionError of the math form, as no sign change
        calls = [0]

        def counted(x):
            calls[0] += 1
            return h(x)

        with np.errstate(divide="ignore"), \
                pytest.raises(BudgetExceeded, match="depth cap") as info:
            hake_from_integrand(counted)
        assert str(info.value).endswith(
            f"x in [0.0, {2.0 ** -40 / (1.0 - 2.0 ** -40)!r}]")
        # 1,821 calls when segments were bisected one at a time, 1,861 in
        # rounds
        assert calls[0] <= _FAILURE_CALLS


class TestArrayForm:
    """Both tables evaluate arrays bit for bit as the scalar primitive."""

    @pytest.mark.parametrize("h,a", [
        (lambda x: math.exp(-x * x), 0.5),
        (lambda x: 1.0 / (1.0 + x * x), -2.0),
        (lambda x: math.sin(2.0 * x) / (1.0 + x), 0.0),
        (lambda x: math.sin(1.3 * x * x), 1.0),
    ], ids=["gauss", "rational", "sin_over_linear", "sin_square"])
    def test_matches_scalar(self, h, a):
        res = hake_from_integrand(h, a)
        F = res.distribution.primitive
        rng = np.random.default_rng(5)
        edges = [a] + ([res.cutoff] if math.isfinite(res.cutoff) else [])
        xs = np.concatenate([
            [math.inf, -math.inf, 0.0, -0.0, math.nan],
            [np.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)],
            edges,
            rng.uniform(a - 5.0, a + 3.0 * (res.cutoff if math.isfinite(
                res.cutoff) else 40.0), 4000)])
        us = np.concatenate([[-1.0, 1.0], np.linspace(-1.0, 1.0, 20001)])
        for many, scalar in (
                (F.eval_many(xs), [F(x) for x in xs.tolist()]),
                (F.at_u_many(us), [F.at_u(u) for u in us.tolist()])):
            assert (np.asarray(many).view(np.uint64)
                    == np.array(scalar).view(np.uint64)).all()


class TestScan:
    """The sign-change scan is the one sampler of h besides the Gauss
    rule; it ends after _SCAN_STEPS steps without a sign change."""

    def test_settled_integrand_scanned_once(self):
        seen = []
        hake_from_integrand(lambda x: seen.append(x) or math.exp(-x * x))
        assert len(seen) <= 400
        assert seen[:121] == [0.5 * k for k in range(121)]

    def test_constant_ends_scan(self):
        seen = []
        zs = _scan_sign_changes(lambda x: seen.append(x) or 1.0, 0.0, 0.5)
        assert list(zs) == []
        assert len(seen) == _SCAN_STEPS + 1 == 121

    def test_ends_after_last_zero(self):
        zs = _scan_sign_changes(lambda x: (x - 1.25) * (x - 3.25), 0.0, 0.5)
        assert list(zs) == [1.25, 3.25]

    def test_zero_on_a_scan_point(self):
        seen = []
        zs = _scan_sign_changes(
            lambda x: seen.append(x) or (x - 1.0) * (x - 3.0), 0.0, 0.5)
        # yielded with no search: every call up to there is a scan point
        assert (next(zs), next(zs)) == (1.0, 3.0)
        assert seen == [0.5 * k for k in range(8)]
        assert list(zs) == []

    def test_double_zero_on_a_scan_point_is_no_sign_change(self):
        zs = _scan_sign_changes(lambda x: (x - 1.0) ** 2 * (x - 3.0), 0.0, 0.5)
        assert list(zs) == [3.0]

    def test_triangle_wave_with_integer_zeros(self):
        # (-1)^k t (1 - t) / (1 + x), k = floor(x), t = x - k: every zero
        # is an integer, so the first two fall on scan points.  The lobe
        # sum against mpmath's nsum, 0.0737216011824942090764785734038
        def h(x):
            k = math.floor(x)
            t = x - k
            return (-1.0) ** k * t * (1.0 - t) / (1.0 + x)

        result = hake_from_integrand(h)
        assert result.lobes_used > 0
        assert result.total == pytest.approx(0.0737216011824942091,
                                             abs=1e-12)


class TestFiniteSignChanges:
    """h that changes sign finitely often: the scan ends after the last
    zero, and the settled path integrates h over the whole chart."""

    @pytest.mark.parametrize("h,total", [
        (lambda x: (x - 1.0) * (x - 3.0) * math.exp(-x), 1.0),
        (lambda x: (16.0 * x ** 4 - 48.0 * x * x + 12.0) * math.exp(-x * x),
         0.0),
        # a dip below 0 near 1.1, between the scan's points 1.0 and 1.5
        (lambda x: math.exp(-x) - 0.6 * math.exp(-((x - 1.1) / 0.05) ** 2),
         1.0 - 0.03 * math.sqrt(math.pi)),
    ], ids=["two_zeros", "hermite_4", "narrow_dip"])
    def test_total_against_closed_form(self, h, total):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            if calls > 100_000:
                raise RuntimeError("the lobe loop waits for a zero")
            return h(x)

        assert abs(hake_from_integrand(counted).total - total) <= 1e-12


class TestIntegrandReads:
    """The Gauss rule reads h at its nodes through cfun._many: h's array
    form where it carries one, else one call at each node, a call that
    raises one of errors.UNDEFINED reading as NaN, as in the scan."""

    @staticmethod
    def _outcome(h):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return h(x)

        with pytest.raises(BudgetExceeded) as info:
            hake_from_integrand(counted)
        return str(info.value), calls

    @pytest.mark.parametrize("c,calls", [(7.0, 464), (70.0, 43_944)],
                             ids=["first_lobes", "in_a_batch"])
    def test_raising_node_reads_as_nan(self, c, calls):
        def raising(x):
            if abs(x - c) < 0.05:
                raise ValueError("undefined")
            return math.sin(x * x)

        got = self._outcome(raising)
        assert got == self._outcome(
            lambda x: math.nan if abs(x - c) < 0.05 else math.sin(x * x))
        assert got[0].startswith("lobe non-finite value after 0 panels")
        assert got[1] == calls

    def test_raising_tail_ends_on_the_settled_path(self):
        # past x = 90 the scan reads NaN and finds no sign change, so the
        # settled path's first panel meets the raising calls
        assert self._outcome(
            lambda x: 1.0 / 0.0 if x > 90.0 else math.sin(x * x)) == (
            "settled non-finite value after 0 panels on x in [0.0, inf]",
            71_798)

    @pytest.mark.parametrize("width", [1e-3, 1e-12],
                             ids=["near_a_node", "at_the_zero_only"])
    def test_raising_zero_search_reads_as_nan(self, width):
        # sin(x^2) raises within width of its third zero, which only the
        # scan's zero search reads: there it is NaN, as at a scan point.
        # Within 1e-3 the Gauss nodes of the lobe read it too; within
        # 1e-12 they do not, and the total is the Fresnel one
        zero = 3.069980123839467

        def raising(x):
            if abs(x - zero) < width:
                raise ValueError("undefined")
            return math.sin(x * x)

        if width > 1e-6:
            with pytest.raises(BudgetExceeded, match=(
                    r"lobe non-finite value after 0 panels on x in "
                    r"\[2\.5066")):
                hake_from_integrand(raising)
        else:
            result = hake_from_integrand(raising)
            assert (result.total, result.lobes_used) == (
                0.6266570686577493, 3184)

    def test_array_form_matches_scalar_integrand(self):
        scalar_calls = 0
        many_points = []

        def h(x):
            nonlocal scalar_calls
            scalar_calls += 1
            return math.sin(x * x)

        def h_many(xs):
            many_points.append(len(xs))
            return np.array([math.sin(x * x) for x in xs.tolist()])

        h.many = h_many
        got = hake_from_integrand(h)
        want = hake_from_integrand(lambda x: math.sin(x * x))
        assert (got.total, got.cutoff, got.lobes_used, got.defect_bound) == (
            want.total, want.cutoff, want.lobes_used, want.defect_bound)
        xs = np.random.default_rng(5).uniform(0.0, want.cutoff, 3000)
        F, F_want = got.distribution.primitive, want.distribution.primitive
        assert (F.eval_many(xs).view(np.uint64)
                == F_want.eval_many(xs).view(np.uint64)).all()
        # the scan calls h; every Gauss node goes through h.many
        assert (scalar_calls, len(many_points), sum(many_points)) == (
            24_808, 78, 63_680)
