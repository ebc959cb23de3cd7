import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpint.cfun import DEFAULT_TOL, ContinuousFunctionBar
from cpint.chart import NEG_INF, decompactify_many, u_grid
from cpint.convergence import fixtures as sequence_fixtures
from cpint.fixtures import (arctan_distribution, gaussian_distribution,
                            quadratic_osc_distribution, random_distribution,
                            si_distribution, signed_bump_distribution)
from cpint.lattice import (LatticeKind, Order, abs_norm, compare, lattice_op,
                           parts)
from cpint.space import (Distribution, equal, integral, linear_combine, norm,
                         zero)


class TestCompare:
    def test_nonnegative_density_above_zero(self):
        assert compare(zero(), arctan_distribution()).order is \
            Order.LESS_OR_EQUAL

    def test_self_comparison_equal(self):
        f = gaussian_distribution()
        assert compare(f, f).order is Order.EQUAL

    def test_incomparable_with_witnesses(self):
        f = signed_bump_distribution()   # primitive takes both signs
        res = compare(f, zero())
        assert res.order is Order.INCOMPARABLE
        assert res.witness_below is not None
        assert res.witness_above is not None
        F = f.primitive
        assert F(res.witness_below) < 0.0
        assert F(res.witness_above) > 0.0

    def test_calls_pinned(self):
        # each primitive is read once at each of the grid's 4,095 finite
        # points, F's then G's, at the same points; the witnesses are the
        # first x that shows each side
        seen = []
        xs = decompactify_many(u_grid(4097))[1:-1].tolist()

        def counted(fn, lim):
            def ev(x):
                seen.append(x)
                return fn(x)
            return Distribution(ContinuousFunctionBar(ev, 0.0, lim))
        bump = counted(lambda x: math.sin(x) * math.exp(-x * x), 0.0)
        res = compare(bump, zero())
        assert (res.order, res.witness_below, res.witness_above) == (
            Order.INCOMPARABLE, -3.1373737373737374, -4.785310734463277)
        assert seen == xs       # zero() reads its grid as one array
        del seen[:]

        def gauss():
            return counted(lambda x: math.exp(-(x - 0.3) ** 2), 0.0)
        assert compare(gauss(), gauss()).order is Order.EQUAL
        assert seen == xs + xs


class TestLatticeOps:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_absorption_laws(self, seed):
        rng = np.random.default_rng(seed)
        f = random_distribution(rng)
        g = random_distribution(rng)
        join = lattice_op(f, g, LatticeKind.JOIN)
        meet = lattice_op(f, g, LatticeKind.MEET)
        assert equal(lattice_op(f, meet, LatticeKind.JOIN), f)
        assert equal(lattice_op(f, join, LatticeKind.MEET), f)
        # join + meet = f + g (primitive identity max + min = a + b)
        assert equal(linear_combine(1.0, join, meet),
                     linear_combine(1.0, f, g))


class TestParts:
    def test_decomposition_identities(self):
        f = signed_bump_distribution()
        f_plus, f_minus, f_abs = parts(f)
        assert equal(linear_combine(-1.0, f_minus, f_plus), f)
        assert equal(linear_combine(1.0, f_plus, f_minus), f_abs)
        # lattice absolute value preserves the norm exactly
        assert norm(f_abs) == pytest.approx(norm(f), abs=1e-12)

    def test_zero_primitive_has_array_form(self):
        # parts compares F with the primitive of zero(), one array call
        # for every grid of F +- 0
        Z = zero().primitive
        assert zero() is zero()
        assert getattr(Z.evaluator, "many", None) is not None
        xs = np.array([-1e16, -2.5, -0.0, 0.0, 3.0, 1e300])
        assert np.array_equal(Z.eval_many(xs), np.zeros(6))
        assert not np.signbit(Z.eval_many(xs)).any()
        f = signed_bump_distribution()
        f_plus, f_minus, _ = parts(f)
        us = np.linspace(-1.0, 1.0, 257)
        assert (f_plus.primitive.at_u_many(us).tolist()
                == [f_plus.primitive.at_u(u) for u in us.tolist()])
        assert (f_minus.primitive.at_u_many(us).tolist()
                == [f_minus.primitive.at_u(u) for u in us.tolist()])

    def test_pointwise_domination(self):
        f = signed_bump_distribution()
        _, _, f_abs = parts(f)
        for x in (-3.0, -1.0, 0.5, 2.0):
            assert abs(integral(f, NEG_INF, x)) <= \
                integral(f_abs, NEG_INF, x) + 1e-12


def _counted(f):
    """f with a primitive that counts its evaluator calls, scalar and
    array, in the returned one-element list."""
    F = f.primitive
    ev, many = F.evaluator, getattr(F.evaluator, "many", None)
    calls = [0]

    def scalar(x):
        calls[0] += 1
        return ev(x)
    if many is not None:
        def array(xs):
            calls[0] += len(xs)
            return many(xs)
        scalar.many = array
    return Distribution(ContinuousFunctionBar(scalar, F.limit_neg,
                                              F.limit_pos)), calls


def _variation_over_zeros(F, dF, lim_neg, lim_pos, lo=-30.0, hi=30.0):
    """sum |F(z[k+1]) - F(z[k])| in mpmath over the zeros z of dF, which
    are located by sign changes on a 0.05 grid of [lo, hi] and refined by
    mpmath.findroot, with the limits at -inf and +inf as the ends."""
    with mpmath.workdps(30):
        xs = [mpmath.mpf(lo) + mpmath.mpf(k) / 20
              for k in range(int((hi - lo) * 20) + 1)]
        ds = [dF(x) for x in xs]
        zeros = [mpmath.findroot(dF, (a, b), solver="anderson")
                 for a, b, da, db in zip(xs, xs[1:], ds, ds[1:])
                 if da * db < 0]
        vals = [mpmath.mpf(lim_neg)] + [F(z) for z in zeros] + \
            [mpmath.mpf(lim_pos)]
        return float(sum(abs(b - a) for a, b in zip(vals, vals[1:])))


def _assert_partition_sum_of(res, exact):
    """A settled value is a partition sum: at most the variation, up to
    the roundoff of the sum, and within tol of it."""
    assert not res.divergent
    assert res.value <= exact + 1e-14 * (1.0 + exact)
    assert res.value >= exact - DEFAULT_TOL * (1.0 + exact)


class TestAbsNorm:
    def test_monotone_primitive_converges(self):
        res = abs_norm(arctan_distribution())
        assert not res.divergent
        assert res.value == pytest.approx(math.pi, abs=1e-8)
        assert res.extrema == 0

    def test_signed_fixture_converges(self):
        # the quadrature is split at the kinks of |F'|, the zeros of F'
        from scipy import integrate, optimize

        def dF(x):
            return (math.cos(x) - 2.0 * x * math.sin(x)) * math.exp(-x * x)
        xs = np.linspace(-20.0, 20.0, 4001)
        kinks = [optimize.brentq(dF, a, b, xtol=1e-15)
                 for a, b in zip(xs[:-1], xs[1:]) if dF(a) * dF(b) < 0.0]
        exact, _ = integrate.quad(lambda x: abs(dF(x)), -20, 20,
                                  points=kinks, limit=400)
        res = abs_norm(signed_bump_distribution())
        assert not res.divergent
        assert res.value == pytest.approx(exact, abs=1e-12)

    def test_conditionally_integrable_diverges(self):
        f, calls = _counted(si_distribution())
        res = abs_norm(f)
        assert res.divergent
        assert res.value > 2.0     # growing lower bound, certified
        assert calls[0] <= 20_000

    def test_oscillatory_ftc_fixture_diverges(self):
        f, calls = _counted(quadratic_osc_distribution())
        res = abs_norm(f)
        assert res.divergent
        assert res.value > 1.0
        assert calls[0] <= 20_000

    def test_gaussian_off_grid_peak(self):
        # the peak at x = 0.3 lies between grid points at every level
        res = abs_norm(Distribution(ContinuousFunctionBar(
            lambda x: math.exp(-((x - 0.3) / 0.1) ** 2), 0.0, 0.0)))
        _assert_partition_sum_of(res, 2.0)
        assert res.extrema == 1

    @pytest.mark.parametrize("w, exact", [
        (5.0, 5.8560891999811158),
        (20.0, 22.62379331770917),
        (80.0, 90.28443480401049),
    ])
    def test_oscillating_gaussian_against_mpmath(self, w, exact):
        # variation of sin(wx) exp(-x^2), summed in mpmath over the
        # zeros of its derivative
        res = abs_norm(Distribution(ContinuousFunctionBar(
            lambda x: math.sin(w * x) * math.exp(-x * x), 0.0, 0.0)))
        _assert_partition_sum_of(res, exact)

    @pytest.mark.parametrize("n", [4, 8])
    def test_sine_burst(self, n):
        # n (cos(n pi) - cos(nx)) on |x| < pi: 2n half-waves of rise 2n
        res = abs_norm(sequence_fixtures("sine_burst")(n))
        _assert_partition_sum_of(res, 4.0 * n * n)

    def test_random_draws_against_mpmath(self):
        rng, params = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(5):
            f, calls = _counted(random_distribution(rng))
            # the same draws as random_distribution, in the same order
            k = int(params.integers(1, 4))
            centers = params.uniform(-5.0, 5.0, size=k).tolist()
            widths = params.uniform(0.5, 3.0, size=k).tolist()
            amps = params.uniform(-2.0, 2.0, size=k).tolist()
            ramp = float(params.uniform(-1.0, 1.0))
            ramp_c = float(params.uniform(-3.0, 3.0))
            terms = list(zip(amps, centers, widths))

            def F(x):
                arc = mpmath.atan(x - ramp_c) + mpmath.pi / 2
                return sum(a * mpmath.exp(-((x - c) / w) ** 2)
                           for a, c, w in terms) + ramp * arc / mpmath.pi

            def dF(x):
                return sum(-2 * a * (x - c) / w ** 2
                           * mpmath.exp(-((x - c) / w) ** 2)
                           for a, c, w in terms) + \
                    ramp / (mpmath.pi * (1 + (x - ramp_c) ** 2))
            for x in (-3.0, 0.0, 1.5):
                assert f.primitive(x) == pytest.approx(float(F(x)), abs=1e-14)
            res = abs_norm(f)
            exact = _variation_over_zeros(F, dF, 0.0, ramp)
            _assert_partition_sum_of(res, exact)
            assert calls[0] <= 2_000
