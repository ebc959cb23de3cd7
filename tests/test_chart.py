import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cpint.chart import (INF, NEG_INF, compactify, decompactify,
                         format_extended, golden_max, parse_extended,
                         scan_max, scan_root, u_grid, uniform_u_grid)


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
        # the doubles near u = 1 are 1.1e-16 apart, so beyond |x| = 1e7
        # nearby x share a u (adjacent integers do near 1e12)
        if x < y:
            if max(abs(x), abs(y)) < 1e7:
                assert compactify(x) < compactify(y)
            else:
                assert compactify(x) <= compactify(y)

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

    @pytest.mark.parametrize("n", [2, 17, 1025, 4097, 8193])
    def test_array_built_once_and_read_only(self, n):
        us = u_grid(n)
        assert us is u_grid(n)
        assert us.tolist() == uniform_u_grid(n)
        with pytest.raises(ValueError):
            us[0] = 0.0


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

    def test_touching_zero_inside_one_cell(self):
        # zero only on [0.429, 0.431]: golden refinement of the cell lands
        # on the zero, which is returned as found
        fn = lambda t: max(0.0, abs(t - 0.43) - 1e-3)
        root = self._root(fn, tol=0.0)
        assert 0.429 <= root <= 0.431 and fn(root) == 0.0

    def test_no_root_when_sign_is_kept(self):
        assert self._root(lambda t: 1e-4 + (t - 0.43) ** 2) is None


def _reference_scan_max(fn, grid, vals, top_k):
    """scan_max on Python lists, one comparison per point: the list form
    the array version must reproduce, calls included."""
    n = len(grid)
    edge = 1e-12 * 0.5 * (grid[-1] - grid[0])
    best = max(vals)
    cand = [i for i in range(n)
            if (i == 0 or vals[i] >= vals[i - 1])
            and (i == n - 1 or vals[i] >= vals[i + 1])]
    cand.sort(key=lambda i: -vals[i])
    for i in cand[:top_k]:
        lo = max(grid[max(i - 1, 0)], grid[0] + edge)
        hi = min(grid[min(i + 1, n - 1)], grid[-1] - edge)
        if lo < hi:
            best = max(best, golden_max(fn, lo, hi)[1])
    return best


def _step_profile(rng):
    """A function of plateaus, ties and both signed zeros, with its
    largest values at the left end, the right end or inside."""
    w, p = float(rng.uniform(1.0, 9.0)), float(rng.uniform(0.0, 6.3))
    q = float(rng.choice([0.5, 1.0]))
    tilt = float(rng.choice([-3.0, 0.0, 3.0]))

    def fn(t):
        # the scale's sign flips along t, so a 0 step is 0.0 or -0.0
        s = q if math.floor(7.0 * t) % 2 else -q
        v = s * math.floor(2.0 * math.sin(w * t + p))
        k = math.floor(tilt * t)
        return v + k if k else v
    return fn


def _scan_both(fn, grid, top_k):
    vals = [fn(t) for t in grid]
    ref_calls, calls = [], []

    def logged(log):
        def f(t):
            log.append(t)
            return fn(t)
        return f
    ref = _reference_scan_max(logged(ref_calls), grid, vals, top_k)
    got = scan_max(logged(calls), np.array(grid), np.array(vals), top_k)
    return ref, got, ref_calls, calls


def _same_float(a, b):
    if math.isnan(a):
        return math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestScanMax:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_best_and_calls_as_lists(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([2, 3, 5, 17, 64, 257]))
        lo = float(rng.uniform(-2.0, 0.0))
        grid = [lo + i * (1.0 / (n - 1)) for i in range(n)]
        top_k = int(rng.choice([1, 3, 8, 32]))
        fn = _step_profile(rng)
        ref, got, ref_calls, calls = _scan_both(fn, grid, top_k)
        assert type(got) is float
        assert _same_float(ref, got)
        assert calls == ref_calls

    @pytest.mark.parametrize("seed", range(30))
    def test_drawn_values_with_ties(self, seed):
        # values from a small set, so that most points tie a neighbour;
        # from seed 20 on the largest value is a zero of either sign
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 60))
        grid = uniform_u_grid(n)
        values = [-1.0, -0.0, 0.0] + ([1.0, 2.0] if seed < 20 else [])
        table = rng.choice(values, size=n + 1).tolist()
        top_k = int(rng.integers(1, 6))

        def fn(t):
            return table[int((t + 1.0) * 0.5 * n)]
        ref, got, ref_calls, calls = _scan_both(fn, grid, top_k)
        assert _same_float(ref, got)
        assert calls == ref_calls

    @pytest.mark.parametrize("where", [0, 1, 5])
    def test_nan_as_python_max(self, where):
        # max(list) is NaN only when the first value is; a later NaN is
        # passed over (products._max_deviation feeds such values)
        grid = uniform_u_grid(9)
        vals = [0.25 * i for i in range(9)]
        vals[where] = math.nan
        ref = _reference_scan_max(lambda t: 0.0, grid, vals, 8)
        got = scan_max(lambda t: 0.0, np.array(grid), np.array(vals), 8)
        assert _same_float(ref, got)
        assert math.isnan(got) == (where == 0)


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
