import math

import pytest
from hypothesis import given, strategies as st

from cpint.chart import (INF, NEG_INF, compactify, decompactify,
                         format_extended, parse_extended, scan_root,
                         uniform_u_grid)


class TestCompactify:
    def test_fixed_points(self):
        assert compactify(0.0) == 0.0
        assert compactify(INF) == 1.0
        assert compactify(NEG_INF) == -1.0

    def test_known_values(self):
        assert compactify(1.0) == 0.5
        assert compactify(-1.0) == -0.5
        assert compactify(3.0) == 0.75

    @given(st.floats(min_value=-1e15, max_value=1e15,
                     allow_nan=False))
    def test_round_trip(self, x):
        # beyond ~1e16 the chart saturates to u = 1 in double precision,
        # which is exactly the tail the audits treat as infinity
        # inverting u = x/(1+|x|) loses eps*(1+|x|)^2 absolute precision
        u = compactify(x)
        back = decompactify(u)
        assert abs(back - x) <= 1e-15 * (1.0 + abs(x)) ** 2

    @given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
           st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
    def test_monotone(self, x, y):
        if x < y:
            assert compactify(x) < compactify(y)

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_inverse_round_trip(self, u):
        x = decompactify(u)
        assert math.isclose(compactify(x), u, rel_tol=1e-12, abs_tol=1e-15)


class TestGrid:
    def test_endpoints_and_size(self):
        g = uniform_u_grid(1025)
        assert len(g) == 1025
        assert g[0] == -1.0 and g[-1] == 1.0
        assert all(a < b for a, b in zip(g, g[1:]))


class TestScanRoot:
    GRID = [i / 10 for i in range(11)]

    def _root(self, fn, tol=1e-10):
        return scan_root(fn, self.GRID, [fn(t) for t in self.GRID], tol)

    def test_grid_point_within_tol(self):
        assert self._root(lambda t: t - 0.5 + 1e-12) == 0.5

    def test_earlier_of_two_sign_changes(self):
        root = self._root(lambda t: (t - 0.33) * (t - 0.77))
        assert root == pytest.approx(0.33, abs=1e-15)

    def test_crossing_inside_one_cell(self):
        # positive only on (0.42, 0.44): every grid value is negative
        root = self._root(lambda t: 1e-4 - (t - 0.43) ** 2)
        assert root == pytest.approx(0.42, abs=1e-15)

    def test_no_root_when_sign_is_kept(self):
        assert self._root(lambda t: 1e-4 + (t - 0.43) ** 2) is None


class TestExtendedParsing:
    @pytest.mark.parametrize("text,value", [
        ("inf", INF), ("-inf", NEG_INF), ("0", 0.0), ("2.5", 2.5),
        ("1e3", 1000.0),
    ])
    def test_parse(self, text, value):
        assert parse_extended(text) == value

    def test_format_round_trip(self):
        for v in (INF, NEG_INF, 0.0, -1.25):
            assert parse_extended(format_extended(v)) == v
