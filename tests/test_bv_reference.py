"""BVFunction's bisection lookups against a linear-scan reference.

The reference finds a breakpoint with a membership test and
tuple.index, as BVFunction once did.  Every value, one-sided limit, jump,
variation and inf |g| is compared with it bit for bit, on seeded random
BV functions and on the library's own kernels.  The callers that build
their kernels with bv.cut_at are pinned to the values they gave when
every lookup scanned the breakpoints.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest

from cpint.bv import blocks, constant, from_knots, heaviside, indicator
from cpint.cfun import ContinuousFunctionBar, bump
from cpint.chart import INF, NEG_INF
from cpint.fixtures import (gaussian_distribution, random_bv,
                            random_monotone_bv)
from cpint.products import TaylorInput, pair_with_test, taylor_expand
from cpint.space import Distribution
from cpint.transforms import (_laplace_kernel_bv, laplace,
                              laplace_derivative, poisson_kernel_bv)


# -- the reference: linear scans of the breakpoints -------------------------

def ref_call(g, x):
    if x == NEG_INF:
        return g.value_neg_inf
    if x == INF:
        return g.value_pos_inf
    if x in g.point_values:
        return g.point_values[x]
    if x in g.breakpoints:
        j = g.breakpoints.index(x)
        return g.pieces[j + 1].lo_val
    return g.pieces[bisect_right(g.breakpoints, x)].value(x)


def ref_left(g, x):
    if x == INF:
        return g.pieces[-1].hi_val
    if x in g.breakpoints:
        j = g.breakpoints.index(x)
        return g.pieces[j].hi_val
    return g.pieces[bisect_right(g.breakpoints, x)].value(x)


def ref_right(g, x):
    if x == NEG_INF:
        return g.pieces[0].lo_val
    if x in g.breakpoints:
        j = g.breakpoints.index(x)
        return g.pieces[j + 1].lo_val
    return g.pieces[bisect_right(g.breakpoints, x)].value(x)


def ref_jump(g, p):
    v = ref_call(g, p)
    return abs(v - ref_left(g, p)) + abs(ref_right(g, p) - v)


def ref_variation(g):
    v = sum(p.rise() for p in g.pieces)
    v += sum(ref_jump(g, p) for p in g.breakpoints)
    v += abs(ref_right(g, NEG_INF) - g.value_neg_inf)
    v += abs(g.value_pos_inf - ref_left(g, INF))
    return v


def ref_inf_abs(g):
    best = math.inf
    for p in g.pieces:
        lo, hi = p.lo_val, p.hi_val
        if min(lo, hi) <= 0.0 <= max(lo, hi):
            return 0.0
        best = min(best, abs(lo), abs(hi))
    for p in g.breakpoints:
        best = min(best, abs(ref_call(g, p)))
    return best


# -- inputs -----------------------------------------------------------------

def _random_family(seed):
    rng = np.random.default_rng(seed)
    return [random_bv(rng) for _ in range(12)] + [
        random_monotone_bv(rng) for _ in range(6)]


def _blocks():
    return [blocks([(0.0, 1.0, 1.0), (2.0, 3.0, 0.25)]),
            blocks([(-4.0, -3.5, -2.0), (-3.5 + 1e-12, 1.0, 0.5),
                    (1e3, 1e3 + 1.0, 3.0)])]


def _indicators():
    ends = [(-1.5, 2.0), (NEG_INF, 2.0), (-1.5, INF), (NEG_INF, INF),
            (0.5, 0.5), (NEG_INF, NEG_INF), (INF, INF)]
    return [indicator(a, b, left, right) for a, b in ends
            for left in (True, False) for right in (True, False)]


def _kernels():
    ks = [poisson_kernel_bv(x, y)
          for x, y in ((0.0, 1.0), (1.0, 0.1), (-3.5, 1e-6))]
    for z in (1.0 + 2.0j, 0.3 + 5.0j, 2.0 + 0.0j, 0.5 - 3.0j):
        for part in ("re", "im"):
            for n in (0, 1, 3):
                ks.append(_laplace_kernel_bv(z, part, n, 1e-10))
    return ks


def _others():
    xs = [float(i) * 0.37 - 5.0 for i in range(40)]
    return [constant(2.5), heaviside(),
            from_knots(xs, [math.sin(3.0 * x) for x in xs])]


FAMILIES = {"random_seed_%d" % s: (lambda s=s: _random_family(s))
            for s in range(4)}
FAMILIES.update(blocks=_blocks, indicators=_indicators, kernels=_kernels,
                others=_others)


def _probes(g, rng):
    xs = [0.0, -0.0, 1e-300, -1e15, 1e15]
    for p in g.breakpoints:
        xs += [p, math.nextafter(p, NEG_INF), math.nextafter(p, INF)]
    xs += rng.uniform(-6.0, 6.0, size=40).tolist()
    xs += (rng.standard_normal(10) * 1e6).tolist()
    return xs


def _bits(v):
    return float(v).hex()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lookups_match_reference(family):
    rng = np.random.default_rng(sorted(FAMILIES).index(family))
    for g in FAMILIES[family]():
        xs = _probes(g, rng)
        for x in xs + [NEG_INF, INF]:
            assert _bits(g(x)) == _bits(ref_call(g, x)), x
        for x in xs + [INF]:
            assert _bits(g.left_limit(x)) == _bits(ref_left(g, x)), x
        for x in xs + [NEG_INF]:
            assert _bits(g.right_limit(x)) == _bits(ref_right(g, x)), x
        for p in g.breakpoints:
            assert _bits(g.jump_magnitude(p)) == _bits(ref_jump(g, p)), p
        assert _bits(g.variation()) == _bits(ref_variation(g))
        assert _bits(g.inf_abs()) == _bits(ref_inf_abs(g))


# -- the callers of bv.cut_at, pinned -----------------------------------------

def _atan_bump():
    return Distribution(ContinuousFunctionBar(
        lambda x: math.atan(x) + 0.5 * math.exp(-x * x),
        -math.pi / 2, math.pi / 2))


def _exp_decay():
    return Distribution(ContinuousFunctionBar(
        lambda x: 0.0 if x <= 0.0 else -math.expm1(-x), 0.0, 1.0))


@pytest.mark.parametrize("make_f,phi,value", [
    (gaussian_distribution, bump(0.5, 0.5), "-0x1.bcafe5a8e6088p-4"),
    (gaussian_distribution, bump(-1.0, 2.0, -1.5), "-0x1.a10fdc0a8f692p-2"),
    (gaussian_distribution, bump(0.3, 0.25, 1.0 / bump(0.3, 0.25).mass),
     "-0x1.13c3942b6e77dp-1"),
    (_atan_bump, bump(-1.0, 2.0, -1.5), "-0x1.614c64085dec1p-1"),
    (_atan_bump, bump(0.3, 0.25, 1.0 / bump(0.3, 0.25).mass),
     "0x1.4a01289200aeep-1"),
])
def test_pair_with_test_pinned(make_f, phi, value):
    assert pair_with_test(make_f(), phi).hex() == value


@pytest.mark.parametrize("inp,x,value", [
    (TaylorInput(1, 0.0, 1.0, math.cos, [0.0, 1.0]), 0.4,
     "-0x1.5abd60dc64600p-7"),
    (TaylorInput(2, 0.0, 1.0, lambda t: -math.sin(t), [0.0, 1.0, 0.0]), 0.7,
     "-0x1.c8f7fd204cacep-5"),
    (TaylorInput(3, -0.5, 1.0, math.sin,
                 [math.cos(-0.5), -math.sin(-0.5), -math.cos(-0.5),
                  math.sin(-0.5)]), 0.25,
     "0x1.92bb6d9ab62cbp-7"),
])
def test_taylor_remainder_pinned(inp, x, value):
    assert taylor_expand(inp, x).remainder.hex() == value


@pytest.mark.parametrize("z,re,im", [
    (1.0 + 2.0j, "0x1.ffffffffffffcp-3", "-0x1.0000000000003p-2"),
    (0.3 + 5.0j, "0x1.8f02c814b7c55p-5", "-0x1.7faa0f279d042p-3"),
    (2.0 + 0.0j, "0x1.5555555555555p-2", "0x0.0p+0"),
    (0.02 + 7.0j, "0x1.4df6b8cc209a8p-6", "-0x1.1e7d0f77e4b57p-3"),
])
def test_laplace_pinned(z, re, im):
    v = laplace(_exp_decay(), z)
    assert (v.real.hex(), v.imag.hex()) == (re, im)


def test_laplace_derivative_pinned():
    v = laplace_derivative(_exp_decay(), 1.0 + 1.0j, 2)
    assert (v.real.hex(), v.imag.hex()) == (
        "0x1.0624dd2f1a9f6p-5", "-0x1.6872b020c49bap-3")
