"""Functions of bounded variation on the extended real line.

Representation-first: a BVFunction is an ordered list of monotone pieces
covering [-inf, inf] plus explicit point values at breakpoints and at the
two infinities.  Variation is then exact (piece rises plus jump
magnitudes) and the Stieltjes integral can align its partitions with the
jump set.  Jumps "at infinity" (point value differing from the limit)
are handled by closed-form endpoint terms, never by refinement.

Every piece has positive length, so the breakpoints, the pieces' inner
ends, are strictly increasing and finite.  That sorted tuple is the one
table every query reads: a value or a one-sided limit is one bisection.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import count, repeat
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from numpy.polynomial import legendre

from .chart import (INF, NEG_INF, compactify, decompactify,
                    decompactify_many, refined_extrema)
from .cfun import _ROUNDOFF, ContinuousFunctionBar, _safe
from .errors import BudgetExceeded, IntervalEmpty, MalformedPieces, check_tol

_MONO_SAMPLES = 65
_MONO_SLACK = 1e-12
_CUT_SAMPLES = 2049     # uniform points in u sampled by from_callable


@dataclass(frozen=True)
class Piece:
    """One monotone continuous segment of a BV function.

    lo_val / hi_val are the one-sided limits of fn at the ends, which
    for infinite ends cannot be read off the evaluator itself.
    """

    lo: float
    hi: float
    fn: Callable[[float], float]
    lo_val: float
    hi_val: float

    def value(self, x: float) -> float:
        """fn(x) inside the piece, read through cfun._safe, so that a
        call raising one of errors.UNDEFINED reads as NaN; the stored end
        limits at and beyond its ends."""
        if x <= self.lo:
            return self.lo_val
        if x >= self.hi:
            return self.hi_val
        return _safe(self.fn, x)

    def rise(self) -> float:
        return abs(self.hi_val - self.lo_val)


class BVFunction:
    """Piecewise-monotone function of bounded variation on [-inf, inf]."""

    def __init__(self, pieces: Sequence[Piece],
                 point_values: Optional[dict[float, float]] = None,
                 value_neg_inf: Optional[float] = None,
                 value_pos_inf: Optional[float] = None):
        if not pieces:
            raise MalformedPieces("at least one piece required")
        if not all(p.lo < p.hi for p in pieces):
            raise MalformedPieces("every piece needs lo < hi")
        ps = sorted(pieces, key=lambda p: p.lo)
        if ps[0].lo != NEG_INF or ps[-1].hi != INF:
            raise MalformedPieces("pieces must cover [-inf, inf]")
        for left, right in zip(ps, ps[1:]):
            if left.hi != right.lo:
                raise MalformedPieces("pieces must abut")
        self.pieces = tuple(ps)
        self.breakpoints = tuple(p.hi for p in ps[:-1])
        self.point_values = dict(point_values or {})
        known = set(self.breakpoints)
        for p in self.point_values:
            if p not in known:
                raise MalformedPieces(f"point value at {p} is not a breakpoint")
        # default point value at a breakpoint: the right limit
        self.value_neg_inf = (self.pieces[0].lo_val
                              if value_neg_inf is None else value_neg_inf)
        self.value_pos_inf = (self.pieces[-1].hi_val
                              if value_pos_inf is None else value_pos_inf)

    # -- pointwise access ---------------------------------------------------

    def __call__(self, x: float) -> float:
        if x == NEG_INF:
            return self.value_neg_inf
        if x == INF:
            return self.value_pos_inf
        if x in self.point_values:
            return self.point_values[x]
        # no explicit value stored: default to right continuity
        return self.right_limit(x)

    def left_limit(self, x: float) -> float:
        if x == NEG_INF:
            raise ValueError("no left limit at -inf")
        return self.pieces[bisect_left(self.breakpoints, x)].value(x)

    def right_limit(self, x: float) -> float:
        if x == INF:
            raise ValueError("no right limit at +inf")
        return self.pieces[bisect_right(self.breakpoints, x)].value(x)

    # -- audits and exact quantities ---------------------------------------

    def audit_monotone_pieces(self) -> None:
        for p in self.pieces:
            ua, ub = compactify(p.lo), compactify(p.hi)
            xs = [decompactify(ua + (ub - ua) * i / (_MONO_SAMPLES - 1))
                  for i in range(_MONO_SAMPLES)]
            vs = [p.value(x) for x in xs]
            scale = 1.0 + max(abs(v) for v in vs)
            up = all(b - a >= -_MONO_SLACK * scale for a, b in zip(vs, vs[1:]))
            down = all(a - b >= -_MONO_SLACK * scale for a, b in zip(vs, vs[1:]))
            if not (up or down):
                raise MalformedPieces(
                    f"piece on [{p.lo}, {p.hi}] is not monotone")

    def jump_magnitude(self, p: float) -> float:
        """Total variation contributed by the breakpoint p."""
        v = self(p)
        return abs(v - self.left_limit(p)) + abs(self.right_limit(p) - v)

    def variation(self) -> float:
        v = sum(p.rise() for p in self.pieces)
        v += sum(self.jump_magnitude(p) for p in self.breakpoints)
        v += abs(self.right_limit(NEG_INF) - self.value_neg_inf)
        v += abs(self.value_pos_inf - self.left_limit(INF))
        return v

    def bv_norm(self) -> float:
        return abs(self.value_neg_inf) + self.variation()

    def inf_abs(self) -> float:
        """Infimum over the finite reals of |g|."""
        best = math.inf
        for p in self.pieces:
            lo, hi = p.lo_val, p.hi_val
            if min(lo, hi) <= 0.0 <= max(lo, hi):
                return 0.0
            best = min(best, abs(lo), abs(hi))
        for p in self.breakpoints:
            best = min(best, abs(self(p)))
        return best


def variation(g: BVFunction) -> float:
    """Exact variation of g over the extended real line."""
    g.audit_monotone_pieces()
    return g.variation()


def normalize_nbv(g: BVFunction) -> BVFunction:
    """Right-continuous representative; equals g off the jump set."""
    return BVFunction(g.pieces)


# ---------------------------------------------------------------------------
# constructors


def _const_piece(lo: float, hi: float, c: float) -> Piece:
    return Piece(lo, hi, lambda x, c=c: c, c, c)


def constant(c: float) -> BVFunction:
    return BVFunction([_const_piece(NEG_INF, INF, c)])


def heaviside() -> BVFunction:
    return indicator(0.0, INF)


def indicator(a: float, b: float, include_left: bool = True,
              include_right: bool = True) -> BVFunction:
    """Characteristic function of an interval with endpoints a <= b.

    Constant on (-inf, a), (a, b) and (b, inf), less those of zero
    length; an infinite end is always in the interval, and [a, a] holds
    a only when both ends are included."""
    if a > b:
        raise IntervalEmpty("indicator needs a <= b")
    ends = (NEG_INF, a, b, INF)
    pieces = [_const_piece(lo, hi, c)
              for lo, hi, c in zip(ends, ends[1:], (0.0, 1.0, 0.0)) if lo < hi]
    inside = {a: include_left, b: include_right}
    if a == b:
        inside[a] = include_left and include_right
    return BVFunction(pieces,
                      {p: float(v) for p, v in inside.items()
                       if math.isfinite(p)},
                      value_neg_inf=float(a == NEG_INF),
                      value_pos_inf=float(b == INF))


def blocks(spans: Iterable[tuple[float, float, float]]) -> BVFunction:
    """Sum of closed-interval indicator blocks (a, b, height); spans must
    be disjoint and sorted."""
    pieces = []
    pv = {}
    prev = NEG_INF
    for a, b, h in spans:
        if not prev < a < b:
            raise MalformedPieces("blocks must be sorted and disjoint")
        pieces.append(_const_piece(prev, a, 0.0))
        pieces.append(_const_piece(a, b, h))
        pv[a] = h
        pv[b] = h
        prev = b
    pieces.append(_const_piece(prev, INF, 0.0))
    return BVFunction(pieces, point_values=pv)


def monotone(fn: Callable[[float], float], limit_neg: float,
             limit_pos: float) -> BVFunction:
    """Single monotone continuous piece over the whole line."""
    return _cut([fn], [NEG_INF, INF], [limit_neg, limit_pos])


def from_knots(knots: Sequence[float], values: Sequence[float]) -> BVFunction:
    """Continuous piecewise-linear interpolant through (knots, values),
    constant beyond the first and last knot."""
    if len(knots) != len(values) or len(knots) < 2:
        raise MalformedPieces("need matching knots and values, at least two")
    spans = list(zip(knots, knots[1:], values, values[1:]))
    if not all(NEG_INF < x0 < x1 < INF for x0, x1, _, _ in spans):
        raise MalformedPieces("knots must be strictly increasing")
    return _cut([lambda x, x0=x0, v0=v0, slope=(v1 - v0) / (x1 - x0):
                 v0 + slope * (x - x0) for x0, x1, v0, v1 in spans],
                knots, values)


def cut_at(fn: Callable[[float], float],
           knots: Sequence[float]) -> BVFunction:
    """fn cut into pieces at strictly increasing finite knots, constant
    beyond the first and last: the shape of the library's own kernels,
    whose extrema are known."""
    return _cut(repeat(fn), knots, [fn(k) for k in knots])


def _cut(fns: Iterable[Callable[[float], float]], knots: Sequence[float],
         vals: Sequence[float]) -> BVFunction:
    """The continuous BV function that is the i-th of fns between the
    i-th and (i+1)-th of strictly increasing knots, where it takes the
    values vals, and constant beyond a finite first or last knot.  Every
    continuous BV function the library builds is assembled here."""
    ends = [(NEG_INF, knots[0], vals[0]), (knots[-1], INF, vals[-1])]
    return BVFunction(
        [Piece(a, b, fn, va, vb)
         for fn, a, b, va, vb in zip(fns, knots, knots[1:], vals, vals[1:])]
        + [_const_piece(*end) for end in ends if end[0] < end[1]])


def from_callable(fn: Callable[[float], float], lo: float, hi: float,
                  limit_lo: float, limit_hi: float) -> BVFunction:
    """Split a sampled continuous function on [lo, hi] into monotone
    pieces at numerically located extrema; constant outside [lo, hi].

    A fallback for user kernels whose extrema have no closed form; the
    library's own kernels are cut at their extrema directly.  fn is
    sampled at _CUT_SAMPLES points uniform in the compact chart, which
    must resolve every oscillation of fn on [lo, hi]: they thin out as
    |x| grows.  The cuts are the sampled turning points, each refined in
    the chart by chart.refined_extrema, which reads fn at finite x in
    [lo, hi] only and returns the value at the cut.
    """
    ua, ub = compactify(lo), compactify(hi)
    us = ua + (ub - ua) * np.arange(_CUT_SAMPLES) / (_CUT_SAMPLES - 1)
    vs = ([fn(lo) if math.isfinite(lo) else limit_lo]
          + [fn(x) for x in decompactify_many(us[1:-1]).tolist()]
          + [fn(hi) if math.isfinite(hi) else limit_hi])
    x_of = lambda u: min(max(decompactify(u), lo), hi)
    cuts = refined_extrema(lambda u: fn(x_of(u)), us, np.array(vs), set(),
                           0.0)
    return _cut(repeat(fn), [lo] + [x_of(t) for t, _ in cuts] + [hi],
                [limit_lo] + [v for _, v in cuts] + [limit_hi])


# ---------------------------------------------------------------------------
# the Riemann-Stieltjes engine, and the bisection loop of every table


def _lagrange_basis(t: np.ndarray) -> np.ndarray:
    """Legendre coefficients of the Lagrange basis on the nodes t, one
    column per node."""
    return np.linalg.inv(legendre.legvander(t, len(t) - 1))


def _stieltjes_matrix(t: np.ndarray) -> np.ndarray:
    """D[i, k] = int_{-1}^{1} l_i l_k' dt for the Lagrange basis l on the
    nodes t, so that F(t) . D . g(t) integrates the interpolant of F
    against the interpolant of g."""
    basis = _lagrange_basis(t)
    x, w = legendre.leggauss(len(t))  # exact up to degree 2n - 1
    values = legendre.legval(x, basis)
    slopes = legendre.legval(x, legendre.legder(basis))
    return (values * w) @ slopes.T


# 17 Chebyshev-Lobatto nodes on [-1, 1], ascending and exactly odd about
# the middle one.  The nine even-indexed nodes carry the nested coarse
# rule; its interpolants, read at the eight odd-indexed nodes, give the
# residuals of the error estimate.
_NODES = np.sin(np.pi * np.arange(-8, 9) / 16.0)
_MID = 8
# the fine rule and, for the error estimate, the fine rule minus the
# coarse one, stacked so that one np.matmul applies both
_D_RULES = np.stack([_stieltjes_matrix(_NODES)] * 2)
_D_RULES[1, ::2, ::2] -= _stieltjes_matrix(_NODES[::2])
# d @ _RESIDUAL: value minus coarse interpolant at each odd node;
# d @ _STEP: increment across the two even nodes around it
_RESIDUAL = np.eye(17)[:, 1::2]
_RESIDUAL[::2] -= legendre.legval(_NODES[1::2], _lagrange_basis(_NODES[::2]))
_STEP = np.diff(np.eye(17)[:, ::2], axis=1)
# A kink or a square-root cusp of F inside a panel can make the nested
# difference vanish by coincidence: for |t - t0| and sqrt|t - t0| it fell
# to 2e-4 of the true error at some t0, while the residual sum stayed
# above 3.9 times that error at every t0 tried.  A sixteenth of the sum
# is a floor under the estimate that still leaves smooth panels, and
# oscillation too fast to resolve, to the nested difference, which costs
# far fewer evaluations there.
_RESIDUAL_SHARE = 1.0 / 16.0
_GOAL = 0.1         # _refine stops when the estimates sum to tol * _GOAL,
                    # or to _ROUNDOFF of the summed scales
_DEPTH_CAP = 40     # bisections of one segment before BudgetExceeded
_ROUND_FLOOR = 1e-6     # a round of _refine pops no segment whose
                        # estimate is below this share of its worst
_RS_SEGMENT_CAP = 2 ** 19   # segments of one rs_integral run: 50% above
                            # the 350,005 of its oscillating mpmath test


def _goal(tol: float, scale: float) -> float:
    """Error goal of a refinement to the absolute tol, floored at the
    roundoff of values that sum to scale in magnitude."""
    return _GOAL * tol + _ROUNDOFF * scale


class _StieltjesRule:
    """The Stieltjes rule of _refine in rs_integral, on k segments at
    once: int F dG over each [lo, hi] at its 17 panel nodes.  A
    segment's key is the index of its piece of g in pieces, bisected in
    x or, where charts[key] (an infinite end), in the compact chart; its
    ends carry the pair (F, G) there, and the middle node's pair is the
    children's shared end.  A call reads F once at the interior nodes of
    all k segments, through F.eval_many, and G at each node through its
    piece's Piece.value.  Every product is a stack of the products one
    panel makes alone (np.matmul runs one BLAS call per stacked panel),
    so a panel's bits do not depend on the panels it is evaluated with.
    A segment on a flat stretch of G contributes nothing: its value is
    None and no node of it is read."""

    def __init__(self, F, pieces, charts):
        self.F_many = F.eval_many
        self.pieces = pieces
        self.charts = charts

    def x_of(self, key, u):
        return decompactify(u) if self.charts[key] else u

    def __call__(self, los, his, keys, lefts, rights):
        k = len(los)
        values, mids = [None] * k, [None] * k
        errs, scales = [0.0] * k, [0.0] * k
        live = [i for i in range(k) if lefts[i][1] != rights[i][1]]
        if not live:
            return values, errs, scales, mids
        if len(live) < k:
            los, his, keys, lefts, rights = (
                [col[i] for i in live]
                for col in (los, his, keys, lefts, rights))
        ua, ub = np.array(los), np.array(his)
        xs = ((0.5 * (ua + ub))[:, None]
              + (0.5 * (ub - ua))[:, None] * _NODES[1:-1])
        chart = [self.charts[p] for p in keys]
        if any(chart):
            xs[chart] = decompactify_many(xs[chart])
        fg = np.empty((len(live), 2, len(_NODES)))
        fg[:, :, 0], fg[:, :, -1] = lefts, rights
        fg[:, 0, 1:-1] = self.F_many(xs.ravel()).reshape(xs.shape)
        fg[:, 1, 1:-1] = [list(map(self.pieces[p].value, row))
                          for p, row in zip(keys, xs.tolist())]
        with np.errstate(all="ignore"):
            # centred on the middle node, the product's roundoff scales
            # with the panel's own variation rather than with |F| |g|
            d = fg - fg[:, :, _MID:_MID + 1]
            df, dg = d[:, 0, None, None, :], d[:, 1, None, :, None]
            fine, nested = np.matmul(np.matmul(df, _D_RULES), dg)[..., 0, 0].T
            value = fg[:, 0, _MID] * (fg[:, 1, -1] - fg[:, 1, 0]) + fine
            # Stieltjes sum of what the coarse interpolants miss at the
            # odd nodes: |F - pF| against |dg| plus |g - pg| against |dF|
            miss = np.abs(np.matmul(d, _RESIDUAL))
            steps = np.abs(np.matmul(d, _STEP))
            cross = np.matmul(miss[:, :, None, :],
                              steps[:, ::-1, :, None])[..., 0, 0]
            residual = _RESIDUAL_SHARE * (cross[:, 0] + cross[:, 1])
        err = np.where(residual > abs(nested), residual, abs(nested))
        for i, v, e, mid in zip(live, value.tolist(), err.tolist(),
                                fg[:, :, _MID].tolist()):
            values[i], errs[i], scales[i], mids[i] = v, e, abs(v), tuple(mid)
        return values, errs, scales, mids


def _refine(rule, segments, tol: float, what: str, x_of,
            cap: float = math.inf, first=None):
    """Worst-first bisection in rounds, the one adaptive integration
    loop: of rs_integral and of both tables of
    quadrature.hake_from_integrand.

    segments are (lo, hi, key, left, right), in a coordinate u whose x is
    x_of(key, u).  rule(los, his, keys, lefts, rights) evaluates k
    segments in one call and returns k values, error estimates, scales
    (magnitudes, for the roundoff floor) and midpoint states, which left
    and right carry at the ends; mids is None where segments carry no
    states, and a value None marks a segment that adds nothing, which is
    dropped.  A caller that has already run the rule on the given
    segments passes its outputs as first, and the loop continues from
    them: no segment is evaluated twice.

    Each round pops the worst segments while the estimates left in the
    heap sum above the goal, and then runs the rule once over all their
    children.  The goal is _goal(tol, summed scales), renewed with an
    exact error sum as the heap doubles (the running sum drifts by the
    roundoff of the largest estimates it held), and a round ends where
    the heap would double.  Under one goal, the loop that bisects one
    segment at a time would bisect every segment a round pops: when such
    a segment is its worst, the heap it holds still sums above the goal.
    Where the roundoff floor outweighs tol/10, the renewed goal is
    coarser, and the two loops can stop on different partitions of the
    same size, or one bisection apart.  A round stops popping at a
    segment whose estimate is below _ROUND_FLOOR of the round's worst,
    so that a dominant segment that never settles meets the depth cap
    in about as many panels as it does one at a time, not the segment
    cap.  A non-finite estimate or scale, a segment bisected _DEPTH_CAP
    times, or a round that would leave more than cap segments raises
    BudgetExceeded on x in [x_of(lo), x_of(hi)]; the last two raise
    before any child of the round is evaluated.  Returns the final (lo,
    hi, value), unordered, and their summed estimate."""
    if not segments:
        return [], 0.0
    heap = []
    serial = count()

    def fail(reason, segment):
        lo, hi, key, _, _ = segment
        raise BudgetExceeded(
            f"{what} {reason} after {next(serial)} panels on x in "
            f"[{x_of(key, lo)!r}, {x_of(key, hi)!r}]")

    def evaluated(segments, outs=None):
        """(segment, value, err, scale, mid) of each segment, from the
        rule's outputs outs, or from one call of the rule."""
        values, errs, scales, mids = outs or rule(*zip(*segments))
        return zip(segments, values, np.asarray(errs).tolist(),
                   np.asarray(scales).tolist(), mids or repeat(None))

    def push(depth, segment, value, err, scale, mid) -> float:
        if value is None:
            return 0.0
        if not math.isfinite(err + scale):
            fail("non-finite value", segment)
        heapq.heappush(heap, (-err, next(serial), value, scale, depth,
                              segment, mid))
        return err

    err_sum = 0.0
    for row in evaluated(segments, first):
        err_sum += push(0, *row)
    goal = _goal(tol, 0.0)
    renew = 1 << (len(heap) - 1).bit_length()
    while heap:
        n = len(heap)
        if err_sum <= goal or n >= renew:
            err_sum = math.fsum([-p[0] for p in heap])
            goal = _goal(tol, math.fsum([p[3] for p in heap]))
            renew = 1 << n.bit_length()
            if err_sum <= goal:
                break
        floor = -_ROUND_FLOOR * heap[0][0]
        left_sum = err_sum
        popped = []
        while (heap and left_sum > goal and n + len(popped) < renew
               and (not popped or -heap[0][0] >= floor)):
            neg_err, _, _, _, depth, segment, mid = heapq.heappop(heap)
            if depth == _DEPTH_CAP:
                fail(f"depth cap {_DEPTH_CAP} reached", segment)
            if n + len(popped) >= cap:
                fail("segment cap reached", segment)
            left_sum += neg_err
            popped.append((neg_err, depth + 1, segment, mid))
        children = []
        for _, _, (lo, hi, key, left, right), mid in popped:
            m = 0.5 * (lo + hi)
            children += [(lo, m, key, left, mid), (m, hi, key, mid, right)]
        rows = evaluated(children)
        for neg_err, depth, _, _ in popped:
            err_sum += (neg_err + push(depth, *next(rows))
                        + push(depth, *next(rows)))
    return [(p[5][0], p[5][1], p[2]) for p in heap], err_sum


def rs_integral(F: ContinuousFunctionBar, g: BVFunction, a: float, b: float,
                tol: float = 1e-10) -> float:
    """Stieltjes integral of continuous F against BV g over [a, b].

    Interior jumps of g contribute F(p) times the jump; point values of g
    at the integration endpoints (including jumps at +-inf) contribute
    the endpoint correction terms; the continuous monotone remainder is
    integrated by Chebyshev-Lobatto panels, in x on a finite piece and in
    the compact chart on one with an infinite end.  One run of _refine,
    with one _StieltjesRule, holds the panels of every piece and bisects
    them in rounds: each round bisects the worst panels at once, reads F
    at all their nodes in one array call and each piece's G at its own,
    until the estimates sum to tol/10, or to _ROUNDOFF of the summed
    |panel values| if coarser.  Each round bisects only panels that one
    panel at a time would bisect too, while the goal stays the same.  A
    call of F or of a piece of g that raises one of errors.UNDEFINED
    reads as NaN.  A non-finite panel, or a non-finite term at a nonzero
    jump, raises BudgetExceeded, as a run past _RS_SEGMENT_CAP segments
    does.  The partition points are a, the breakpoints inside (a, b) and
    b.  F is read once at each of them and each piece of g once at its
    ends, through Piece.value; every jump term and every panel's end
    state comes from these values.
    """
    if not a <= b:
        raise IntervalEmpty(f"rs_integral over [{a}, {b}]")
    check_tol(tol, "rs_integral")
    if a == b:
        return 0.0

    i = bisect_right(g.breakpoints, a)
    j = bisect_left(g.breakpoints, b)
    xs = [a, *g.breakpoints[i:j], b]
    pieces = g.pieces[i:j + 1]
    ends = [(p.value(x), p.value(y)) for p, x, y in zip(pieces, xs, xs[1:])]
    Fs = [F(x) for x in xs]
    # endpoint correction terms, then the interior jumps (exact)
    jumps = [(0, ends[0][0] - g(a)), (-1, g(b) - ends[-1][1])]
    jumps += [(k, right[0] - left[1])
              for k, (left, right) in enumerate(zip(ends, ends[1:]), 1)]
    total = 0.0
    for k, jump in jumps:
        # a zero jump adds nothing, even where F is undefined
        term = Fs[k] * jump if jump else 0.0
        if not math.isfinite(term):
            raise BudgetExceeded(f"Stieltjes non-finite value at x={xs[k]!r}")
        total += term

    charts = [not math.isfinite(hi - lo) for lo, hi in zip(xs, xs[1:])]
    segments = []
    for k, (ga, gb) in enumerate(ends):
        if ga != gb:    # a flat piece adds nothing
            u_of = compactify if charts[k] else float
            segments.append((u_of(xs[k]), u_of(xs[k + 1]), k, (Fs[k], ga),
                             (Fs[k + 1], gb)))
    rule = _StieltjesRule(F, pieces, charts)
    panels, _ = _refine(rule, segments, tol, "Stieltjes", rule.x_of,
                        _RS_SEGMENT_CAP)
    return total + math.fsum(value for _, _, value in panels)
