"""compare, equal and scan_root on arrays against point-by-point walks.

The reference walks the fixed x grid one point at a time, as compare and
equal once did: F, then G, at each x from -inf up, stopping at the first
x that decides the result.  scan_root's reference visits the grid scan as
Python lists, one comparison per point.  compare's order and both
witnesses, equal's verdict and scan_root's root are checked against them
bit for bit, and scan_root's calls of fn point for point.
"""

import math

import numpy as np
import pytest

from cpint.cfun import DEFAULT_TOL, ContinuousFunctionBar
from cpint.chart import (decompactify_many, golden_max, illinois_zero,
                         scan_root, u_grid)
from cpint.fixtures import random_distribution
from cpint.lattice import LatticeKind, Order, compare, lattice_op
from cpint.space import Distribution, equal, linear_combine, zero


# -- the reference: walks of the grid, one point at a time ------------------

_COMPARE_XS = tuple(decompactify_many(u_grid(4097)).tolist())
_EQUALITY_XS = tuple(decompactify_many(u_grid(1025)).tolist())


def ref_compare(f, g, tol=DEFAULT_TOL):
    F, G = f.primitive, g.primitive
    below = above = None
    for x in _COMPARE_XS:
        d = F(x) - G(x)
        if d < -tol and below is None:
            below = x
        elif d > tol and above is None:
            above = x
        if below is not None and above is not None:
            return Order.INCOMPARABLE, below, above
    if below is None and above is None:
        return Order.EQUAL, None, None
    if above is None:
        return Order.LESS_OR_EQUAL, below, None
    return Order.GREATER_OR_EQUAL, None, above


def ref_equal(f, g, tol=DEFAULT_TOL):
    F, G = f.primitive, g.primitive
    for x in _EQUALITY_XS:
        if not abs(F(x) - G(x)) <= tol:
            return False
    return True


def ref_scan_root(fn, grid, vals, tol):
    for i, v in enumerate(vals):
        if abs(v) <= tol:
            return grid[i]
        if i == 0:
            continue
        lo, vlo = grid[i - 1], vals[i - 1]
        s = math.copysign(1.0, v)
        if s * vlo < 0.0:
            hi, vhi = grid[i], v
        elif i + 1 < len(vals) and s * vlo > s * v < s * vals[i + 1]:
            hi, w = golden_max(lambda x: -s * fn(x), lo, grid[i + 1])
            if w < 0.0:
                continue
            if w == 0.0:
                return hi
            vhi = -s * w
        else:
            continue
        return illinois_zero(fn, lo, vlo, hi, vhi)
    return None


# -- helpers ----------------------------------------------------------------

def _bits(v):
    """v as its exact bits, sign of zero included; None stays None."""
    if v is None:
        return None
    assert type(v) is float
    return v.hex()


def _dist(fn, lim_neg=0.0, lim_pos=0.0):
    """An unaudited distribution with primitive fn and the given limits."""
    return Distribution(ContinuousFunctionBar(fn, lim_neg, lim_pos))


def _spike(w):
    return _dist(lambda x: math.exp(-((x - 0.3) / w) ** 2))


def _holes(x):
    """atan, undefined on part of the line: NaN on (1, 2), a ValueError
    on (-3, -2) and a ZeroDivisionError on (3, 4)."""
    if 1.0 < x < 2.0:
        return math.nan
    if -3.0 < x < -2.0:
        return math.sqrt(-1.0)
    if 3.0 < x < 4.0:
        return 1.0 / 0.0
    return math.atan(x) + math.pi / 2


def _infinite(x):
    """inf on (-1, 1), and values whose differences overflow beyond 5."""
    if -1.0 < x < 1.0:
        return math.inf
    return 1e308 if x > 5.0 else 0.0


def _named_pairs():
    atan = _dist(lambda x: math.atan(x) + math.pi / 2, 0.0, math.pi)
    holes = _dist(_holes, 0.0, math.pi)
    inf_pos = _dist(_infinite)
    inf_neg = _dist(lambda x: -_infinite(x))
    ends = _dist(lambda x: 0.0, -1.0, 1.0)     # differs from zero() only at +-inf
    right = _dist(lambda x: 0.0, 0.0, 2.0)     # only at +inf
    return {
        "spike 1e-4": (_spike(1e-4), zero()),
        "spike 1e-5": (_spike(1e-5), zero()),
        "zero vs spike 1e-4": (zero(), _spike(1e-4)),
        "zero vs spike 1e-5": (zero(), _spike(1e-5)),
        "holes vs atan": (holes, atan),
        "atan vs holes": (atan, holes),
        "holes vs itself": (holes, holes),
        "infinite vs itself": (inf_pos, inf_pos),
        "infinite vs its negative": (inf_pos, inf_neg),
        "negative vs infinite": (inf_neg, inf_pos),
        "limits at both ends": (ends, zero()),
        "zero vs limits at both ends": (zero(), ends),
        "limit at +inf": (right, zero()),
        "zero vs limit at +inf": (zero(), right),
    }


NAMED = _named_pairs()


def _random_pairs(seed):
    rng = np.random.default_rng(seed)
    f, g = random_distribution(rng), random_distribution(rng)
    join = lattice_op(f, g, LatticeKind.JOIN)
    meet = lattice_op(f, g, LatticeKind.MEET)
    return [(f, g), (g, f), (f, f), (f, join), (join, f), (meet, f),
            (linear_combine(1.0, join, meet), linear_combine(1.0, f, g))]


# -- compare and equal ------------------------------------------------------

def _check_compare_and_equal(f, g, tol):
    res = compare(f, g, tol)
    order, below, above = ref_compare(f, g, tol)
    assert res.order is order
    assert _bits(res.witness_below) == _bits(below)
    assert _bits(res.witness_above) == _bits(above)
    assert equal(f, g, tol) is ref_equal(f, g, tol)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0, 1e-3])
def test_random_pairs_match_reference(seed, tol):
    for f, g in _random_pairs(seed):
        _check_compare_and_equal(f, g, tol)


def test_random_pairs_reach_every_order():
    orders = {compare(f, g).order for seed in range(8)
              for f, g in _random_pairs(seed)}
    assert orders == set(Order)


@pytest.mark.parametrize("name", sorted(NAMED))
@pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.5])
def test_named_pairs_match_reference(name, tol):
    _check_compare_and_equal(*NAMED[name], tol)


def test_named_pairs_give_what_they_show():
    # undefined values show neither side, and are never equal
    assert compare(*NAMED["holes vs itself"]).order is Order.EQUAL
    assert not equal(*NAMED["holes vs itself"])
    assert not equal(*NAMED["infinite vs itself"])
    res = compare(*NAMED["limits at both ends"])
    assert (res.order, res.witness_below, res.witness_above) == (
        Order.INCOMPARABLE, -math.inf, math.inf)
    res = compare(*NAMED["zero vs limit at +inf"])
    assert (res.order, res.witness_below) == (Order.LESS_OR_EQUAL, math.inf)


# -- scan_root --------------------------------------------------------------

def _logged(fn, log):
    def f(t):
        log.append(t)
        return fn(t)
    return f


def _check_scan_root(fn, grid, tol):
    vals = [fn(t) for t in grid]
    ref_calls, calls = [], []
    ref = ref_scan_root(_logged(fn, ref_calls), grid, vals, tol)
    got = scan_root(_logged(fn, calls), np.array(grid), np.array(vals), tol)
    assert _bits(got) == _bits(ref)
    assert calls == ref_calls
    return got, calls


def _polynomial(rng):
    """c * prod (t - r)^m over 1 to 3 roots in (-1, 1) of multiplicity
    1, 2 or 3, moved up or down by a tiny amount now and then."""
    k = int(rng.integers(1, 4))
    roots = rng.uniform(-1.0, 1.0, size=k).tolist()
    mults = rng.integers(1, 4, size=k).tolist()
    c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    lift = float(rng.choice([0.0, 0.0, 1e-9, -1e-9]))

    def fn(t):
        v = c
        for r, m in zip(roots, mults):
            v *= (t - r) ** m
        return v + lift
    return fn


@pytest.mark.parametrize("seed", range(60))
def test_random_polynomials_match_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([3, 11, 64, 257, 4097]))
    grid = u_grid(n).tolist()
    tol = float(rng.choice([0.0, 1e-12, DEFAULT_TOL, 1e-4]))
    _check_scan_root(_polynomial(rng), grid, tol)


def test_touching_zero():
    # zero only on [0.429, 0.431], between grid points: golden refinement
    # lands on it and returns the point found
    fn = lambda t: max(0.0, abs(t - 0.43) - 1e-3)
    root, calls = _check_scan_root(fn, [i / 10 for i in range(11)], 0.0)
    assert fn(root) == 0.0 and calls


def test_dip_that_stays_clear_of_zero():
    # a strict dip whose refinement stays positive is passed over
    fn = lambda t: 1e-4 + (t - 0.43) ** 2 if t < 0.8 else 0.9 - t
    root, calls = _check_scan_root(fn, [i / 10 for i in range(11)], 0.0)
    assert root == pytest.approx(0.9, abs=1e-15) and calls


@pytest.mark.parametrize("nan", [math.nan, -math.nan])
@pytest.mark.parametrize("where", [0, 3, 4, 5, 10])
def test_nan_value(nan, where):
    # a NaN's sign bit reads as its sign, in both walks: next to a value
    # of the other sign it is closed as a sign change
    grid = [i / 10 for i in range(11)]
    bad = grid[where]

    def fn(t):
        return nan if abs(t - bad) < 0.02 else (t - 0.55) * (t + 2.0)
    _check_scan_root(fn, grid, DEFAULT_TOL)


@pytest.mark.parametrize("root", [0.123456789, -0.5, 0.9999])
def test_triple_zero(root):
    fn = lambda t: (t - root) ** 3
    got, _ = _check_scan_root(fn, u_grid(4097).tolist(), 0.0)
    assert got == pytest.approx(root, abs=1e-5)


def test_grid_point_within_tol_and_no_root():
    grid = u_grid(257).tolist()
    assert _check_scan_root(lambda t: t - 0.5 + 1e-12, grid, 1e-10)[0] == 0.5
    assert _check_scan_root(lambda t: 2.0 + t, grid, 0.0) == (None, [])
