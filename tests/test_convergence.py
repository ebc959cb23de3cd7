import math

import pytest

from cpint.bv import BVFunction, Piece, blocks, monotone
from cpint.cfun import bump
from cpint.chart import INF, NEG_INF
from cpint.convergence import (Verdict, bv_limit_check, fixtures,
                               quasi_uniform_check, strong_distance,
                               theorem_checkers, weak_bv_report,
                               weak_d_report)
from cpint.errors import UnknownFixture
from cpint.fixtures import gaussian_distribution
from cpint.products import integral_product
from cpint.space import integral, zero


class TestSequenceFamilies:
    def test_unknown_name_rejected(self):
        for name in ("no_such_family", "char_interval"):
            with pytest.raises(UnknownFixture, match="traveling_block"):
                fixtures(name)

    def test_traveling_block_mass_one(self):
        seq = fixtures("traveling_block")
        for n in (1, 5, 20):
            assert seq(n).total == 1.0

    def test_sine_burst_norm_grows_linearly(self):
        from cpint.space import norm
        seq = fixtures("sine_burst")
        for n in (1, 3, 8):
            assert norm(seq(n)) == pytest.approx(2.0 * n, abs=1e-9)

    def test_triangle_peak_parameters(self):
        out = fixtures("triangle_out", {"a_power": 2.0})
        assert out(3).primitive(3.0) == 9.0
        inner = fixtures("triangle_in", {"a_const": 1.0})
        # peak value a_n / n at x = 1/n
        assert inner(4).primitive(0.25) == 0.25


class TestWeakConvergence:
    def test_traveling_block_matrix_entry(self):
        seq = fixtures("traveling_block")
        wd = weak_d_report(seq, zero(), n_max=32)
        wb = weak_bv_report(seq, zero(), n_max=32)
        assert wd.verdict is Verdict.HOLDS
        assert wb.verdict is Verdict.FAILS
        # the escape to infinity is invisible to test functions but not
        # to the constant BV weight: the pairing with g = 1 sticks at 1
        ones = [r.value for r in wb.evidence if r.label == "one"]
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in ones)

    def test_signed_blocks_weak_but_not_strong(self):
        seq = fixtures("signed_blocks")
        wb = weak_bv_report(seq, zero(), n_max=32)
        assert wb.verdict is Verdict.HOLDS
        assert strong_distance(seq, zero(), 32) == pytest.approx(1.0,
                                                                 abs=1e-9)

    def test_power_ramp_weak_d_with_interior_battery(self):
        seq = fixtures("power_ramp")
        battery = [bump(0.3, 0.25), bump(0.5, 0.3), bump(0.7, 0.2)]
        wd = weak_d_report(seq, zero(), battery=battery, n_max=64)
        assert wd.verdict is Verdict.HOLDS
        for n in (1, 4, 16, 64):
            assert integral(seq(n), 0.0, 1.0) == 1.0

    def test_triangle_pairing_unbounded_along_subsequence(self):
        g = blocks([(2.0 * k - 1.0, 2.0 * k, 1.0 / (k * k))
                    for k in range(1, 17)])
        seq = fixtures("triangle_out", {"a_power": 3.0})
        for n in (1, 2, 5, 8):
            assert integral_product(seq(2 * n), g) == pytest.approx(
                8.0 * n, abs=1e-9)


class TestQuasiUniform:
    def test_triangle_families_hold(self):
        for name in ("triangle_out", "triangle_in"):
            seq = fixtures(name, {"a_const": 1.0})
            rep = quasi_uniform_check(seq, lambda x: 0.0,
                                      points=[0.0, 1.0, INF], n_max=32)
            assert rep.verdict is Verdict.HOLDS


class TestTheoremCheckers:
    def test_triangle_out_fails_equicontinuity_at_infinity(self):
        seq = fixtures("triangle_out", {"a_const": 1.0})
        out = theorem_checkers(seq, zero(), n_max=32)
        eq = out["equicontinuous"]
        assert eq.verdict is Verdict.FAILS
        assert eq.element_verdicts["x=inf"] is Verdict.FAILS
        assert eq.element_verdicts["x=0"] is Verdict.HOLDS

    def test_triangle_in_fails_equicontinuity_at_zero(self):
        # a_n = n keeps the peak height a_n/n = 1 while the spike
        # narrows to x = 0: pointwise limit 0, equicontinuity broken
        seq = fixtures("triangle_in", {"a_power": 1.0})
        out = theorem_checkers(seq, zero(), n_max=32)
        eq = out["equicontinuous"]
        assert eq.element_verdicts["x=0"] is Verdict.FAILS
        assert out["uniform_bounded"].verdict is Verdict.HOLDS

    def test_unbounded_growth_flagged(self):
        seq = fixtures("triangle_in", {"a_power": 3.0})
        out = theorem_checkers(seq, zero(), compacts=((0.0, 1.0),),
                               n_max=32)
        assert out["uniform_bounded"].verdict is Verdict.FAILS

    def test_licensed_conclusion_for_convergent_family(self):
        seq = fixtures("signed_blocks")
        out = theorem_checkers(seq, zero(), n_max=32)
        assert out["uniform_bounded"].verdict is Verdict.HOLDS
        assert "conclusion_integrals" in out
        assert out["conclusion_integrals"].verdict is Verdict.HOLDS


class TestBvLimit:
    def test_uniform_variation_limit(self):
        f = gaussian_distribution()

        def g_seq(n):
            scale = 1.0 / math.atan(n)
            return monotone(lambda x, n=n, s=scale: s * math.atan(n * x),
                            -(math.pi / 2) * scale, (math.pi / 2) * scale)

        g_limit = BVFunction(
            [Piece(NEG_INF, 0.0, lambda x: -1.0, -1.0, -1.0),
             Piece(0.0, INF, lambda x: 1.0, 1.0, 1.0)],
            point_values={0.0: 0.0})
        rep = bv_limit_check(f, g_seq, g_limit, n_max=16)
        assert rep.verdict is Verdict.HOLDS
