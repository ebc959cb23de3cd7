import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpint.chart import NEG_INF
from cpint.fixtures import (arctan_distribution, gaussian_distribution,
                            quadratic_osc_distribution, random_distribution,
                            si_distribution, signed_bump_distribution)
from cpint.lattice import (LatticeKind, Order, abs_norm, compare, lattice_op,
                           parts)
from cpint.space import equal, integral, linear_combine, norm, zero


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

    def test_pointwise_domination(self):
        f = signed_bump_distribution()
        _, _, f_abs = parts(f)
        for x in (-3.0, -1.0, 0.5, 2.0):
            assert abs(integral(f, NEG_INF, x)) <= \
                integral(f_abs, NEG_INF, x) + 1e-12


class TestAbsNorm:
    def test_monotone_primitive_converges(self):
        res = abs_norm(arctan_distribution())
        assert not res.divergent
        assert res.value == pytest.approx(math.pi, abs=1e-8)

    def test_signed_fixture_converges(self):
        res = abs_norm(signed_bump_distribution())
        from scipy import integrate
        exact, _ = integrate.quad(
            lambda x: abs(math.cos(x) * math.exp(-x * x)
                          - 2.0 * x * math.sin(x) * math.exp(-x * x)),
            -20, 20, limit=200)
        assert not res.divergent
        assert res.value == pytest.approx(exact, rel=1e-6)

    def test_conditionally_integrable_diverges(self):
        res = abs_norm(si_distribution())
        assert res.divergent
        assert res.value > 2.0     # growing lower bound, certified

    def test_oscillatory_ftc_fixture_diverges(self):
        res = abs_norm(quadratic_osc_distribution())
        assert res.divergent
        assert res.value > 1.0
