"""The round loop of bv._refine against the loop that bisects one segment
at a time, bit for bit.

The reference is the engine as it was before refinement went in rounds:
a heap from which the worst segment is popped and bisected, one at a
time, with a rule that evaluates one segment per call: the 17-node
Stieltjes panel with F and G read as scalars, and the 20-node Gauss
panel through one matrix-vector product.  Under one goal, a round pops
only segments that the reference would bisect too, and it ends where
the heap doubles and the goal is renewed, so the two mostly end on the
same partition.  The library's rules stack the products one panel makes
alone, so every panel keeps its bits.  On seeded smooth, kinked, jump,
knot, Poisson, Laplace-kernel and Hake-table cases the value bits and
the F and G calls are checked against the reference; DIFFERS names each
case where they part, with the reason.  Where a run fails, the reason
and the segment named must be the reference's.
"""

import heapq
import math
from itertools import count

import numpy as np
import pytest
from numpy.polynomial import chebyshev, legendre

from cpint.bv import (_DEPTH_CAP, _MID, _NODES, _RESIDUAL, _RESIDUAL_SHARE,
                      _RS_SEGMENT_CAP, _STEP, BVFunction, Piece, _goal,
                      _stieltjes_matrix, from_knots, monotone, rs_integral)
from cpint.cfun import ContinuousFunctionBar
from cpint.chart import INF, NEG_INF, compactify, decompactify
from cpint.errors import BudgetExceeded
from cpint.quadrature import (_SEGMENT_CAP, _primitive_table,
                              _settled_table)
from cpint.transforms import _laplace_kernel_bv, poisson_kernel_bv

# -- the reference: one segment at a time -----------------------------------

_D_FINE = _stieltjes_matrix(_NODES)
_D_NESTED = _D_FINE.copy()
_D_NESTED[::2, ::2] -= _stieltjes_matrix(_NODES[::2])


def ref_panel(F, G, x_of, ua, left, ub, right):
    (fa, ga), (fb, gb) = left, right
    if ga == gb:
        return None
    us = (0.5 * (ua + ub) + 0.5 * (ub - ua) * _NODES).tolist()
    xs = [x_of(u) for u in us[1:-1]]
    fg = np.array([[fa] + [F(x) for x in xs] + [fb],
                   [ga] + [G(x) for x in xs] + [gb]])
    fm, gm = fg[:, _MID]
    d = fg - fg[:, _MID:_MID + 1]
    df, dg = d
    value = float(fm * (gb - ga) + df @ _D_FINE @ dg)
    miss = np.abs(d @ _RESIDUAL)
    steps = np.abs(d @ _STEP)
    residual = miss[0] @ steps[1] + miss[1] @ steps[0]
    err = float(max(abs(df @ _D_NESTED @ dg), _RESIDUAL_SHARE * residual))
    return value, err, abs(value), (float(fm), float(gm))


def ref_refine(segments, tol, what, cap=math.inf):
    """segments are (rule, x_of, lo, left, hi, right), rule(lo, left, hi,
    right) one segment's (value, err, scale, mid) or None."""
    heap = []
    serial = count()

    def fail(reason, x_of, lo, hi):
        raise BudgetExceeded(
            f"{what} {reason} after {next(serial)} panels on x in "
            f"[{x_of(lo)!r}, {x_of(hi)!r}]")

    def push(rule, x_of, depth, lo, left, hi, right, out):
        if out is None:
            return 0.0
        value, err, scale, mid = out
        if not math.isfinite(err + scale):
            fail("non-finite value", x_of, lo, hi)
        heapq.heappush(heap, (-err, next(serial), value, scale, depth, rule,
                              x_of, lo, left, mid, hi, right))
        return err

    err_sum = 0.0
    for rule, x_of, lo, left, hi, right in segments:
        err_sum += push(rule, x_of, 0, lo, left, hi, right,
                        rule(lo, left, hi, right))
    goal = _goal(tol, 0.0)
    while heap:
        n = len(heap)
        if err_sum <= goal or n & (n - 1) == 0:
            err_sum = math.fsum([-p[0] for p in heap])
            goal = _goal(tol, math.fsum([p[3] for p in heap]))
            if err_sum <= goal:
                break
        neg_err, _, _, _, depth, rule, x_of, lo, left, mid, hi, right = \
            heapq.heappop(heap)
        if depth == _DEPTH_CAP:
            fail(f"depth cap {_DEPTH_CAP} reached", x_of, lo, hi)
        if n >= cap:
            fail("segment cap reached", x_of, lo, hi)
        m = 0.5 * (lo + hi)
        err_sum += (neg_err + push(rule, x_of, depth + 1, lo, left, m, mid,
                                   rule(lo, left, m, mid))
                    + push(rule, x_of, depth + 1, m, mid, hi, right,
                           rule(m, mid, hi, right)))
    return [(p[7], p[10], p[2]) for p in heap], err_sum


def ref_rs_integral(F, g, a, b, tol=1e-10):
    # the pieces of g on [a, b], each read at its two ends once, and F
    # read once at each partition point
    spans = [(max(p.lo, a), min(p.hi, b), p) for p in g.pieces
             if max(p.lo, a) < min(p.hi, b)]
    ends = [(piece.value(lo), piece.value(hi)) for lo, hi, piece in spans]
    F_at = {x: F(x) for x in [a] + [hi for _, hi, _ in spans]}
    total = 0.0
    for x, jump in ([(a, ends[0][0] - g(a)), (b, g(b) - ends[-1][1])]
                    + [(lo, right[0] - left[1]) for (lo, _, _), left, right
                       in zip(spans[1:], ends, ends[1:])]):
        if jump:
            total += F_at[x] * jump
    segments = []
    for (lo, hi, piece), (ga, gb) in zip(spans, ends):
        left, right = (F_at[lo], ga), (F_at[hi], gb)
        if ga == gb:
            continue
        x_of, u_of = ((float, float) if math.isfinite(hi - lo)
                      else (decompactify, compactify))
        segments.append((
            lambda lo, left, hi, right, G=piece.value, x_of=x_of:
            ref_panel(F, G, x_of, lo, left, hi, right),
            x_of, u_of(lo), left, u_of(hi), right))
    panels, _ = ref_refine(segments, tol, "Stieltjes", _RS_SEGMENT_CAP)
    return total + math.fsum(value for _, _, value in panels)


_GAUSS_NODES = legendre.leggauss(20)[0]
_INTERPOLANT = np.linalg.inv(chebyshev.chebvander(_GAUSS_NODES, 19))
_ANTIDERIVATIVE = chebyshev.chebint(_INTERPOLANT, lbnd=-1)


def ref_gauss_rule(h):
    def rule(lo, left, hi, right):
        half = 0.5 * (hi - lo)
        vals = np.array([h(x) for x in (lo + half * (_GAUSS_NODES + 1.0))
                         .tolist()], dtype=float)
        c = _INTERPOLANT @ vals
        return (half * (_ANTIDERIVATIVE @ vals),
                float(half * (abs(c[-2]) + abs(c[-1]))),
                half * float(np.abs(vals).sum()), None)
    return rule


def ref_settled_segments(h, a, tol):
    def H(u):
        x = decompactify(u)
        return h(x) * (1.0 + abs(x)) ** 2
    return ref_refine([(ref_gauss_rule(H), decompactify, compactify(a), None,
                        1.0, None)], tol, "settled", _SEGMENT_CAP)


# -- the cases --------------------------------------------------------------

def _counted(fn, calls):
    def counted(x):
        calls[0] += 1
        return fn(x)
    return counted


def _counted_bv(g, calls):
    """g with every piece's fn counted."""
    return BVFunction([Piece(p.lo, p.hi, _counted(p.fn, calls), p.lo_val,
                             p.hi_val) for p in g.pieces],
                      g.point_values, g.value_neg_inf, g.value_pos_inf)


def _smooth(rng):
    c, s, w = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0), \
        rng.uniform(0.3, 3.0)
    return (ContinuousFunctionBar(lambda x: s * math.atan(x - c),
                                  -s * math.pi / 2, s * math.pi / 2),
            monotone(lambda x: math.tanh(x / w), -1.0, 1.0), NEG_INF, INF)


def _kinked(rng):
    c, w = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
    return (ContinuousFunctionBar(lambda x: max(0.0, 1.0 - abs(x - c) / w),
                                  0.0, 0.0),
            monotone(math.atan, -math.pi / 2, math.pi / 2), NEG_INF, INF)


def _jump(rng):
    p, q = sorted(rng.uniform(-2.0, 2.0, 2).tolist())
    e = math.exp
    g = BVFunction([Piece(NEG_INF, p, lambda x: 0.0, 0.0, 0.0),
                    Piece(p, q, lambda x: e(-x) - 3.0, e(-p) - 3.0,
                          e(-q) - 3.0),
                    Piece(q, INF, lambda x: e(-x), e(-q), 0.0)],
                   point_values={p: 0.7, q: -0.2})
    return (ContinuousFunctionBar(math.atan, -math.pi / 2, math.pi / 2), g,
            p, q + rng.uniform(0.5, 3.0))


def _knots(rng):
    knots = np.sort(rng.uniform(-3.0, 3.0, 6)).tolist()
    values = rng.uniform(-1.0, 1.0, 6).tolist()
    c = rng.uniform(-1.0, 1.0)
    return (ContinuousFunctionBar(lambda x: math.exp(-(x - c) ** 2), 0.0, 0.0),
            from_knots(knots, values), NEG_INF, INF)


def _poisson(rng):
    return (ContinuousFunctionBar(lambda x: max(0.0, min(2.0, x + 1.0)),
                                  0.0, 2.0),
            poisson_kernel_bv(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 2.5)),
            NEG_INF, INF)


def _laplace(rng):
    z = complex(rng.uniform(0.05, 2.0), rng.uniform(-8.0, 8.0))
    part = "re" if rng.random() < 0.5 else "im"
    return (ContinuousFunctionBar(
                lambda x: 0.0 if x <= 0.0 else -math.expm1(-x), 0.0, 1.0),
            _laplace_kernel_bv(z, part, int(rng.integers(0, 3)), 1e-10),
            NEG_INF, INF)


_FAMILIES = {"smooth": _smooth, "kinked": _kinked, "jump": _jump,
             "knots": _knots, "poisson": _poisson, "laplace": _laplace}
# Cases where the two loops part, with the reason.  The goal is renewed
# as the heap doubles, and where the roundoff floor of the summed scales
# outweighs tol/10, the renewed goal is coarser.  The reference stops at
# that renewal; a round that ends on the same heap size has bisected
# segments of the same count but, lacking the children of its own pops,
# not always the same ones, and it may reach the renewal one bisection
# later.  A sweep of seeds 0 to 39 of every family, at tol 1e-10, 1e-12
# and 1e-13, parted on these three of 666 cases.  There the value must
# agree within tol and the round loop may make one bisection more.
DIFFERS = {
    ("laplace", 23, 1e-13): "same calls, another partition",
    ("laplace", 30, 1e-13): "one bisection more",
    ("laplace", 35, 1e-13): "same calls, another partition",
}
_ONE_BISECTION = 2 * (len(_NODES) - 2)     # calls of F, and of G
_CASES = ([(f"{name}[{seed}]", name, seed) for name in _FAMILIES
           for seed in range(3)]
          + [(f"{name}[{seed}]", name, seed) for name, seed, _ in DIFFERS])


def _run(integral, name, seed, tol):
    F, g, a, b = _FAMILIES[name](np.random.default_rng([seed, 26]))
    f_calls, g_calls = [0], [0]
    F = ContinuousFunctionBar(_counted(F.evaluator, f_calls), F.limit_neg,
                              F.limit_pos)
    value = integral(F, _counted_bv(g, g_calls), a, b, tol)
    return value.hex(), f_calls[0], g_calls[0]


@pytest.mark.parametrize("tol", [1e-10, 1e-13], ids=["default", "fine"])
@pytest.mark.parametrize("name,family,seed", _CASES,
                         ids=[c[0] for c in _CASES])
def test_rs_integral_same_bits_and_calls(name, family, seed, tol):
    want = _run(ref_rs_integral, family, seed, tol)
    got = _run(rs_integral, family, seed, tol)
    if (family, seed, tol) not in DIFFERS:
        assert got == want
        return
    assert got != want
    assert abs(float.fromhex(got[0]) - float.fromhex(want[0])) <= tol
    assert want[1] <= got[1] <= want[1] + _ONE_BISECTION
    assert want[2] <= got[2] <= want[2] + _ONE_BISECTION


@pytest.mark.parametrize("h", [
    lambda x: math.exp(-(x / 1.37) ** 2),
    lambda x: 1.0 / (1.0 + (x / 0.83) ** 2),
    lambda x: math.exp(-x) * (1.0 + 1e-3 * math.sin(40.0 * x)),
    lambda x: 1e8 * math.exp(-x * x),
], ids=["gauss", "rational", "wiggle", "large"])
def test_settled_table_same_bits_and_calls(h):
    want_calls, got_calls = [0], [0]
    segments, want_err = ref_settled_segments(_counted(h, want_calls), 0.3,
                                              1e-10)
    at_u, want_total = _primitive_table(segments)
    at, total, err = _settled_table(_counted(h, got_calls), 0.3, 1e-10)
    assert (got_calls, total.hex(), err.hex()) == (
        want_calls, want_total.hex(), want_err.hex())
    xs = np.random.default_rng(26).uniform(0.3, 40.0, 400).tolist()
    assert [at(x).hex() for x in xs] == [at_u(compactify(x)).hex()
                                         for x in xs]


@pytest.mark.parametrize("make,tol", [
    # a jump in F: no panel at it settles to 1e-16 before the depth cap
    (lambda: (ContinuousFunctionBar(lambda x: 1.0 if x > 0.3 else 0.0,
                                    0.0, 1.0),
              from_knots([0.0, 1.0], [0.0, 1.0])), 1e-16),
    (lambda: (ContinuousFunctionBar(lambda x: 1.0 if x > 0.3 else 0.0,
                                    0.0, 1.0),
              monotone(math.atan, -math.pi / 2, math.pi / 2)), 1e-16),
    (lambda: (ContinuousFunctionBar(lambda x: math.sqrt(x - 0.2), 0.0, 0.0),
              from_knots([0.0, 1.0], [0.0, 1.0])), 1e-10),
], ids=["depth_cap", "depth_cap_chart", "non_finite"])
def test_same_failure_within_one_bisection(make, tol):
    outcomes = []
    for integral in (ref_rs_integral, rs_integral):
        F, g = make()
        calls = [0]
        F = ContinuousFunctionBar(_counted(F.evaluator, calls), F.limit_neg,
                                  F.limit_pos)
        with pytest.raises(BudgetExceeded) as info:
            integral(F, g, NEG_INF, INF, tol)
        message = str(info.value)
        outcomes.append((message[:message.index(" after")],
                         message[message.index(" on x in"):], calls[0]))
    (want_reason, want_where, want_calls), (reason, where, calls) = outcomes
    assert (reason, where) == (want_reason, want_where)
    assert calls <= want_calls + _ONE_BISECTION
