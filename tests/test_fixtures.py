import math

import numpy as np
import pytest

from cpint.bv import variation
from cpint.fixtures import (FIXTURES, cantor_function, random_bv,
                            random_distribution, random_monotone_bv)


class TestCantorFunction:
    def test_endpoint_values(self):
        assert cantor_function(0.0) == 0.0
        assert cantor_function(1.0) == 1.0

    def test_self_similarity(self):
        for x in (0.1, 0.23, 0.31):
            assert cantor_function(x / 3.0) == pytest.approx(
                cantor_function(x) / 2.0, abs=1e-12)

    def test_constant_on_middle_third(self):
        assert cantor_function(0.4) == 0.5
        assert cantor_function(0.5) == 0.5
        assert cantor_function(0.55) == 0.5

    def test_monotone(self):
        xs = np.linspace(0.0, 1.0, 1000)
        vals = [cantor_function(float(x)) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestNamedFixtures:
    def test_all_construct_and_have_finite_totals(self):
        for name, maker in FIXTURES.items():
            f = maker()
            assert math.isfinite(f.total), name

    @pytest.mark.parametrize("name,total", [
        ("arctan", math.pi),
        ("gaussian", 0.0),
        ("signed_bump", 0.0),
        ("cantor", 1.0),
        ("si", math.pi / 2.0),
        ("quadratic_osc", math.cos(1.0)),
        ("fresnel", math.sqrt(math.pi) / 2.0 ** 1.5),
    ])
    def test_frozen_totals(self, name, total):
        assert FIXTURES[name]().total == pytest.approx(total, abs=1e-12)


class TestRandomFamilies:
    def test_deterministic_given_seed(self):
        a = random_distribution(np.random.default_rng(7))
        b = random_distribution(np.random.default_rng(7))
        for x in (-3.0, 0.0, 2.0):
            assert a.primitive(x) == b.primitive(x)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_distribution_as_numpy_scalars(self, seed):
        # the same arithmetic on np.float64 parameters, as the mixture was
        # once written; huge |x| overflows (x - c)^2 there, to 0 bumps
        rng = np.random.default_rng(seed)
        F = random_distribution(rng).primitive
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        centers = rng.uniform(-5.0, 5.0, size=k)
        widths = rng.uniform(0.5, 3.0, size=k)
        amps = rng.uniform(-2.0, 2.0, size=k)
        ramp = float(rng.uniform(-1.0, 1.0))
        ramp_c = float(rng.uniform(-3.0, 3.0))

        def ref(x):
            v = sum(a * math.exp(-((x - c) / w) ** 2)
                    for a, c, w in zip(amps, centers, widths))
            return v + ramp * (math.atan(x - ramp_c) + math.pi / 2) / math.pi
        xs = np.random.default_rng(50 + seed).uniform(-12.0, 12.0, 2000)
        xs = xs.tolist() + [0.0, -0.0, 1e16, -1e16, 1e200, -1e300]
        with np.errstate(over="ignore"):
            want = [float(ref(x)) for x in xs]
        got = [F(x) for x in xs]
        assert all(type(v) is float for v in got)
        assert np.array(got).view(np.uint64).tolist() == \
            np.array(want).view(np.uint64).tolist()

    def test_random_bv_has_finite_variation(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_bv(rng)
            assert math.isfinite(variation(g))

    def test_random_monotone_is_monotone(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g = random_monotone_bv(rng)
            v = variation(g)
            assert v == pytest.approx(
                abs(g.value_pos_inf - g.value_neg_inf), rel=1e-9)
