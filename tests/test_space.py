import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpint.cfun import ContinuousFunctionBar, extremes
from cpint.chart import INF, NEG_INF, decompactify_many, u_grid
from cpint.errors import IntervalEmpty, NoLimitAtInfinity
from cpint.fixtures import (arctan_distribution, gaussian_distribution,
                            quadratic_osc_distribution, random_distribution,
                            signed_bump_distribution)
from cpint.lattice import Order, compare
from cpint.space import (Distribution, NormKind, distribution_from_evaluator,
                         equal, hake_extend, integral, linear_combine, norm,
                         translate, zero)

COS1 = 0.5403023058681398


class TestIntegral:
    def test_nonabsolute_ftc(self):
        f = quadratic_osc_distribution()
        assert integral(f, 0.0, 1.0) == pytest.approx(COS1, abs=1e-12)

    def test_whole_line(self):
        f = arctan_distribution()
        assert integral(f, NEG_INF, INF) == pytest.approx(math.pi, abs=1e-14)

    def test_additive_over_adjacent_intervals(self):
        f = gaussian_distribution()
        whole = integral(f, -2.0, 3.0)
        assert integral(f, -2.0, 1.0) + integral(f, 1.0, 3.0) == \
            pytest.approx(whole, abs=1e-15)

    def test_degenerate_interval_is_zero(self):
        assert integral(arctan_distribution(), 1.0, 1.0) == 0.0

    def test_reversed_interval_raises(self):
        with pytest.raises(IntervalEmpty):
            integral(arctan_distribution(), 1.0, 0.0)

    @pytest.mark.parametrize("a,b", [(math.nan, 1.0), (0.0, math.nan)])
    def test_nan_end_raises(self, a, b):
        with pytest.raises(IntervalEmpty):
            integral(arctan_distribution(), a, b)


class TestNorms:
    def test_arctan_norm_values(self):
        # primitive after anchoring: atan(x) + pi/2, range (0, pi)
        f = arctan_distribution()
        assert norm(f, NormKind.ALEXIEWICZ) == pytest.approx(math.pi,
                                                             abs=1e-12)
        assert norm(f, NormKind.INTERVAL_SUP) == pytest.approx(math.pi,
                                                               abs=1e-12)
        assert norm(f, NormKind.DUAL_BV_LOWER) == pytest.approx(math.pi,
                                                                abs=1e-12)

    def test_interval_sup_counts_both_signs(self):
        f = signed_bump_distribution()
        a = norm(f, NormKind.ALEXIEWICZ)
        s = norm(f, NormKind.INTERVAL_SUP)
        assert s == pytest.approx(2.0 * a, rel=1e-9)

    def test_zero_norm_only_for_zero(self):
        assert norm(zero()) == 0.0
        assert norm(gaussian_distribution()) > 0.0

    def test_three_norms_cost_one_extremes(self):
        # the three kinds read one (sup, inf), kept on the primitive:
        # together they make exactly the calls of one extremes scan
        seen = []

        def bump():
            def ev(x):
                seen.append(x)
                return math.sin(x) * math.exp(-x * x)
            return Distribution(ContinuousFunctionBar(ev, 0.0, 0.0))
        hi, lo = extremes(bump().primitive)
        one_scan = list(seen)
        del seen[:]
        f = bump()
        got = [norm(f, kind) for kind in NormKind]
        assert seen == one_scan
        assert got == [max(abs(hi), abs(lo)), hi - lo, max(hi, -lo)]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_norm_axioms(self, seed):
        rng = np.random.default_rng(seed)
        f = random_distribution(rng)
        g = random_distribution(rng)
        nf, ng = norm(f), norm(g)
        assert norm(linear_combine(1.0, f, g)) <= nf + ng + 1e-9
        assert norm(linear_combine(-2.5, f, zero())) == \
            pytest.approx(2.5 * nf, rel=1e-9)

    def test_translation_invariance(self):
        f = gaussian_distribution()
        base = norm(f)
        for t in (-10.0, -0.1, 0.1, 10.0):
            assert norm(translate(f, t)) == pytest.approx(base, abs=1e-9)

    def test_translation_moves_mass(self):
        f = gaussian_distribution()
        gshift = translate(f, 2.0)
        assert gshift.primitive(2.0) == pytest.approx(f.primitive(0.0),
                                                      abs=1e-15)


class TestConstruction:
    def test_anchoring_subtracts_left_limit(self):
        f = distribution_from_evaluator(math.atan, -math.pi / 2, math.pi / 2)
        assert f.primitive(NEG_INF) == 0.0
        assert f.total == pytest.approx(math.pi, abs=1e-14)

    def test_hake_extend_estimates_limits(self):
        f = hake_extend(lambda x: math.atan(x))
        assert f.total == pytest.approx(math.pi, abs=1e-9)

    def test_hake_extend_rejects_divergent(self):
        with pytest.raises(NoLimitAtInfinity):
            hake_extend(lambda x: x)

    def test_equal_detects_difference(self):
        assert equal(gaussian_distribution(), gaussian_distribution())
        assert not equal(gaussian_distribution(), arctan_distribution())

    def test_equal_calls_pinned(self):
        # each primitive is read once at each of the grid's 1,023 finite
        # points, F's then G's, at the same points
        seen = []
        xs = decompactify_many(u_grid(1025))[1:-1].tolist()

        def counted(fn):
            def ev(x):
                seen.append(x)
                return fn(x)
            return Distribution(ContinuousFunctionBar(ev, 0.0, 0.0))
        def gauss():
            return counted(lambda x: math.exp(-(x - 0.3) ** 2))
        bump = counted(lambda x: math.sin(x) * math.exp(-x * x))
        assert not equal(bump, gauss())
        assert seen == xs + xs
        del seen[:]
        assert equal(gauss(), gauss())
        assert seen == xs + xs

    def test_equal_agrees_with_compare(self):
        # a bump of 5e-10, past the default tol of both semi-decisions
        f = arctan_distribution()
        g = distribution_from_evaluator(
            lambda x: math.atan(x) + 5e-10 * math.exp(-x * x),
            -math.pi / 2, math.pi / 2)
        assert compare(f, g).order is Order.LESS_OR_EQUAL
        assert not equal(f, g)

    def test_linearity_of_integral(self):
        f = gaussian_distribution()
        g = arctan_distribution()
        h = linear_combine(2.0, f, g)
        got = integral(h, -1.0, 4.0)
        assert got == pytest.approx(
            2.0 * integral(f, -1.0, 4.0) + integral(g, -1.0, 4.0),
            abs=1e-13)
