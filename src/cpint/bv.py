"""Functions of bounded variation on the extended real line.

Representation-first: a BVFunction is an ordered list of monotone pieces
covering [-inf, inf] plus explicit point values at breakpoints and at the
two infinities.  Variation is then exact (piece rises plus jump
magnitudes) and the Stieltjes integral can align its partitions with the
jump set.  Jumps "at infinity" (point value differing from the limit)
are handled by closed-form endpoint terms, never by refinement.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from numpy.polynomial import legendre

from .chart import INF, NEG_INF, compactify, decompactify, golden_max
from .cfun import _ROUNDOFF, ContinuousFunctionBar
from .errors import BudgetExceeded, IntervalEmpty, MalformedPieces

_MONO_SAMPLES = 65
_MONO_SLACK = 1e-12


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
        if x == self.lo:
            return self.lo_val if not math.isfinite(x) else self.fn(x)
        if x == self.hi:
            return self.hi_val if not math.isfinite(x) else self.fn(x)
        return self.fn(x)

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
        ps = sorted(pieces, key=lambda p: (compactify(p.lo), compactify(p.hi)))
        if ps[0].lo != NEG_INF or ps[-1].hi != INF:
            raise MalformedPieces("pieces must cover [-inf, inf]")
        for left, right in zip(ps, ps[1:]):
            if left.hi != right.lo:
                raise MalformedPieces("pieces must abut")
        self.pieces = tuple(ps)
        self.breakpoints = tuple(p.hi for p in ps[:-1])
        self.point_values = dict(point_values or {})
        for p in self.point_values:
            if p not in self.breakpoints:
                raise MalformedPieces(f"point value at {p} is not a breakpoint")
        # default point value at a breakpoint: the right limit
        self.value_neg_inf = (self.pieces[0].lo_val
                              if value_neg_inf is None else value_neg_inf)
        self.value_pos_inf = (self.pieces[-1].hi_val
                              if value_pos_inf is None else value_pos_inf)

    # -- pointwise access ---------------------------------------------------

    def _piece_at(self, x: float) -> Piece:
        i = bisect_right(self.breakpoints, x)
        return self.pieces[i]

    def __call__(self, x: float) -> float:
        if x == NEG_INF:
            return self.value_neg_inf
        if x == INF:
            return self.value_pos_inf
        if x in self.point_values:
            return self.point_values[x]
        if x in self.breakpoints:
            # no explicit value stored: default to right continuity
            j = self.breakpoints.index(x)
            return self.pieces[j + 1].lo_val
        return self._piece_at(x).value(x)

    def left_limit(self, x: float) -> float:
        if x == NEG_INF:
            raise ValueError("no left limit at -inf")
        if x == INF:
            return self.pieces[-1].hi_val
        if x in self.breakpoints:
            j = self.breakpoints.index(x)
            return self.pieces[j].hi_val
        return self._piece_at(x).value(x)

    def right_limit(self, x: float) -> float:
        if x == INF:
            raise ValueError("no right limit at +inf")
        if x == NEG_INF:
            return self.pieces[0].lo_val
        if x in self.breakpoints:
            j = self.breakpoints.index(x)
            return self.pieces[j + 1].lo_val
        return self._piece_at(x).value(x)

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
    return BVFunction([_const_piece(NEG_INF, 0.0, 0.0),
                       _const_piece(0.0, INF, 1.0)],
                      point_values={0.0: 1.0})


def indicator(a: float, b: float, include_left: bool = True,
              include_right: bool = True) -> BVFunction:
    """Characteristic function of an interval with endpoints a <= b."""
    if a > b:
        raise IntervalEmpty("indicator needs a <= b")
    pieces = []
    pv = {}
    if a == NEG_INF and b == INF:
        return constant(1.0)
    if a == NEG_INF:
        pieces = [_const_piece(NEG_INF, b, 1.0), _const_piece(b, INF, 0.0)]
        pv[b] = 1.0 if include_right else 0.0
    elif b == INF:
        pieces = [_const_piece(NEG_INF, a, 0.0), _const_piece(a, INF, 1.0)]
        pv[a] = 1.0 if include_left else 0.0
    else:
        pieces = [_const_piece(NEG_INF, a, 0.0), _const_piece(a, b, 1.0),
                  _const_piece(b, INF, 0.0)]
        pv[a] = 1.0 if include_left else 0.0
        pv[b] = 1.0 if include_right else 0.0
    return BVFunction(pieces, point_values=pv)


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
    return BVFunction([Piece(NEG_INF, INF, fn, limit_neg, limit_pos)])


def from_knots(knots: Sequence[float], values: Sequence[float],
               value_neg_inf: Optional[float] = None,
               value_pos_inf: Optional[float] = None,
               point_values: Optional[dict[float, float]] = None) -> BVFunction:
    """Continuous piecewise-linear interpolant through (knots, values),
    constant beyond the first and last knot."""
    if len(knots) != len(values) or len(knots) < 2:
        raise MalformedPieces("need matching knots and values, at least two")
    pieces = [_const_piece(NEG_INF, knots[0], values[0])]
    for (x0, x1, v0, v1) in zip(knots, knots[1:], values, values[1:]):
        if x1 <= x0:
            raise MalformedPieces("knots must be strictly increasing")
        slope = (v1 - v0) / (x1 - x0)
        pieces.append(Piece(x0, x1,
                            lambda x, x0=x0, v0=v0, slope=slope:
                            v0 + slope * (x - x0), v0, v1))
    pieces.append(_const_piece(knots[-1], INF, values[-1]))
    return BVFunction(pieces, point_values=point_values,
                      value_neg_inf=value_neg_inf, value_pos_inf=value_pos_inf)


def from_callable(fn: Callable[[float], float], lo: float, hi: float,
                  limit_lo: float, limit_hi: float,
                  samples: int = 2049) -> BVFunction:
    """Split a sampled continuous function on [lo, hi] into monotone
    pieces at numerically located extrema; constant outside [lo, hi].

    Used for kernels whose extrema have no closed form.  The sample count
    must resolve every oscillation of fn on [lo, hi].
    """
    ua, ub = compactify(lo), compactify(hi)
    xs = [decompactify(ua + (ub - ua) * i / (samples - 1))
          for i in range(samples)]
    if math.isfinite(lo):
        xs[0] = lo
    if math.isfinite(hi):
        xs[-1] = hi
    vs = [limit_lo if not math.isfinite(x) else fn(x) for x in xs]
    vs[-1] = limit_hi if not math.isfinite(xs[-1]) else vs[-1]

    # cut at the refined extremum around each sampled slope-sign change
    cuts = []
    for i in range(1, len(xs) - 1):
        if (vs[i] - vs[i - 1]) * (vs[i + 1] - vs[i]) < 0.0:
            sgn = 1.0 if vs[i] > vs[i - 1] else -1.0  # local max vs min
            cuts.append(golden_max(lambda x: sgn * fn(x),
                                   xs[i - 1], xs[i + 1])[0])
    pieces = []
    prev = lo
    prev_val = limit_lo
    for k in cuts:
        v = fn(k)
        pieces.append(Piece(prev, k, fn, prev_val, v))
        prev, prev_val = k, v
    pieces.append(Piece(prev, hi, fn, prev_val, limit_hi))
    head = [_const_piece(NEG_INF, lo, limit_lo)] if math.isfinite(lo) else []
    tail = [_const_piece(hi, INF, limit_hi)] if math.isfinite(hi) else []
    return BVFunction(head + pieces + tail)


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
_D_FINE = _stieltjes_matrix(_NODES)
_D_NESTED = _D_FINE.copy()          # fine rule minus coarse rule
_D_NESTED[::2, ::2] -= _stieltjes_matrix(_NODES[::2])
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


def _goal(tol: float, scale: float) -> float:
    """Error goal of a refinement to the absolute tol, floored at the
    roundoff of values that sum to scale in magnitude."""
    return _GOAL * tol + _ROUNDOFF * scale


def _panel(F, G, x_of, ua, left, ub, right):
    """The Stieltjes rule of _refine: int F dG over [ua, ub] at the 17
    panel nodes u, which sit at x_of(u).  left and right are (F, G) at the
    ends; the middle node's pair is the children's shared end.  None on a
    flat stretch of G, which contributes nothing."""
    (fa, ga), (fb, gb) = left, right
    if ga == gb:
        return None
    us = (0.5 * (ua + ub) + 0.5 * (ub - ua) * _NODES).tolist()
    xs = [x_of(u) for u in us[1:-1]]
    fg = np.array([[fa] + [F(x) for x in xs] + [fb],
                   [ga] + [G(x) for x in xs] + [gb]])
    fm, gm = fg[:, _MID]
    # centred on the middle node, the product's roundoff scales with the
    # panel's own variation rather than with |F| |g|
    d = fg - fg[:, _MID:_MID + 1]
    df, dg = d
    value = float(fm * (gb - ga) + df @ _D_FINE @ dg)
    # Stieltjes sum of what the coarse interpolants miss at the odd
    # nodes: |F - pF| against |dg| plus |g - pg| against |dF|
    miss = np.abs(d @ _RESIDUAL)
    steps = np.abs(d @ _STEP)
    residual = miss[0] @ steps[1] + miss[1] @ steps[0]
    err = float(max(abs(df @ _D_NESTED @ dg), _RESIDUAL_SHARE * residual))
    return value, err, abs(value), (float(fm), float(gm))


def _refine(segments, tol: float, what: str, cap: float = math.inf):
    """Worst-first bisection, the one adaptive integration loop: of
    rs_integral and of both tables of quadrature.hake_from_integrand.

    segments are (rule, x_of, lo, left, hi, right), in a coordinate u
    at x_of(u); rule(lo, left, hi, right) is None where the segment adds
    nothing, else its value, error estimate, scale (magnitude, for the
    roundoff floor) and the state at its midpoint, which left and right
    carry at the ends.  The worst segment is bisected until the estimates
    sum to _goal(tol, summed scales).  A non-finite estimate or scale, a
    segment bisected _DEPTH_CAP times, or more than cap segments raises
    BudgetExceeded on x in [x_of(lo), x_of(hi)].  Returns the final
    (lo, hi, value), unordered, and their summed estimate."""
    heap = []
    serial = count()

    def fail(reason, x_of, lo, hi):
        raise BudgetExceeded(
            f"{what} {reason} after {next(serial)} panels on x in "
            f"[{x_of(lo)!r}, {x_of(hi)!r}]")

    def push(rule, x_of, depth, lo, left, hi, right) -> float:
        out = rule(lo, left, hi, right)
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
        err_sum += push(rule, x_of, 0, lo, left, hi, right)
    goal = _goal(tol, 0.0)
    while heap:
        # the running sum drifts by roundoff of the largest estimates it
        # held; decide on an exact one, renewed as the heap doubles, and
        # on a goal no finer than the roundoff of the values
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
        err_sum += (neg_err + push(rule, x_of, depth + 1, lo, left, m, mid)
                    + push(rule, x_of, depth + 1, m, mid, hi, right))
    return [(p[7], p[10], p[2]) for p in heap], err_sum


def rs_integral(F: ContinuousFunctionBar, g: BVFunction, a: float, b: float,
                tol: float = 1e-10) -> float:
    """Stieltjes integral of continuous F against BV g over [a, b].

    Interior jumps of g contribute F(p) times the jump; point values of g
    at the integration endpoints (including jumps at +-inf) contribute
    the endpoint correction terms; the continuous monotone remainder is
    integrated by Chebyshev-Lobatto panels, in x on a finite piece and in
    the compact chart on one with an infinite end.  One run of _refine
    holds the panels of every piece, bisected until the estimates sum to
    tol/10, or to _ROUNDOFF of the summed |panel values| if coarser.
    """
    if a > b:
        raise IntervalEmpty(f"rs_integral over [{a}, {b}]")
    if a == b:
        return 0.0

    total = 0.0
    # endpoint correction terms (exact)
    total += F(a) * (g.right_limit(a) - g(a))
    total += F(b) * (g(b) - g.left_limit(b))
    # interior jumps
    for p in g.breakpoints:
        if a < p < b:
            total += F(p) * (g.right_limit(p) - g.left_limit(p))

    segments = []
    for piece in g.pieces:
        lo = max(piece.lo, a)
        hi = min(piece.hi, b)
        if lo >= hi:
            continue
        ga = piece.lo_val if lo == piece.lo else piece.fn(lo)
        gb = piece.hi_val if hi == piece.hi else piece.fn(hi)
        left, right = (F(lo), ga), (F(hi), gb)
        if ga == gb:
            continue  # flat piece

        def G(x, piece=piece):
            if x <= piece.lo:
                return piece.lo_val
            if x >= piece.hi:
                return piece.hi_val
            return piece.fn(x)

        x_of, u_of = ((float, float) if math.isfinite(hi - lo)
                      else (decompactify, compactify))
        segments.append((partial(_panel, F, G, x_of), x_of, u_of(lo), left,
                         u_of(hi), right))
    panels, _ = _refine(segments, tol, "Stieltjes")
    return total + math.fsum(value for _, _, value in panels)
