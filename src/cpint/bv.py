"""Functions of bounded variation on the extended real line.

Representation-first: a BVFunction is an ordered list of monotone pieces
covering [-inf, inf] plus explicit point values at breakpoints and at the
two infinities.  Variation is then exact (piece rises plus jump
magnitudes) and the Stieltjes integral can align its partitions with the
jump set.  Jumps "at infinity" (point value differing from the limit)
are handled by closed-form endpoint terms, never by refinement.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .chart import INF, NEG_INF, compactify, decompactify, golden_max
from .cfun import ContinuousFunctionBar
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
                  outside_lo: float = None, outside_hi: float = None,
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
    knots = []
    if math.isfinite(lo):
        knots.append(lo)
    knots.extend(cuts)
    if math.isfinite(hi):
        knots.append(hi)

    pieces = []
    prev = lo
    prev_val = limit_lo
    for k in knots[1:] if math.isfinite(lo) else knots:
        v = fn(k)
        pieces.append(Piece(prev, k, fn, prev_val, v))
        prev, prev_val = k, v
    pieces.append(Piece(prev, hi, fn, prev_val, limit_hi))
    if not math.isfinite(lo):
        head = []
    else:
        head = [_const_piece(NEG_INF, lo,
                             outside_lo if outside_lo is not None else limit_lo)]
    if not math.isfinite(hi):
        tail = []
    else:
        tail = [_const_piece(hi, INF,
                             outside_hi if outside_hi is not None else limit_hi)]
    return BVFunction(head + pieces + tail)


# ---------------------------------------------------------------------------
# the Riemann-Stieltjes engine


def _adaptive_piece(Fu, Gu, ua, fa, ga, ub, fb, gb, tol, depth):
    um = 0.5 * (ua + ub)
    fm, gm = Fu(um), Gu(um)
    s1 = 0.5 * (fa + fb) * (gb - ga)
    s2 = 0.5 * (fa + fm) * (gm - ga) + 0.5 * (fm + fb) * (gb - gm)
    # Richardson extrapolation: the halved trapezoid pair behaves like
    # Simpson, so (s2 - s1)/15 estimates the extrapolated error
    if abs(s2 - s1) <= 15.0 * tol:
        return s2 + (s2 - s1) / 3.0
    if depth <= 0:
        raise BudgetExceeded("Stieltjes refinement depth cap reached")
    half = 0.5 * tol
    return (_adaptive_piece(Fu, Gu, ua, fa, ga, um, fm, gm, half, depth - 1)
            + _adaptive_piece(Fu, Gu, um, fm, gm, ub, fb, gb, half, depth - 1))


def rs_integral(F: ContinuousFunctionBar, g: BVFunction, a: float, b: float,
                tol: float = 1e-10, depth_cap: int = 40) -> float:
    """Stieltjes integral of continuous F against BV g over [a, b].

    Interior jumps of g contribute F(p) times the jump; point values of g
    at the integration endpoints (including jumps at +-inf) contribute
    the endpoint correction terms; the continuous monotone remainder is
    integrated by adaptive refinement in the compact chart.
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

    live = [p for p in g.pieces if p.hi > a and p.lo < b]
    for piece in live:
        lo = max(piece.lo, a)
        hi = min(piece.hi, b)
        if lo >= hi:
            continue
        ua, ub = compactify(lo), compactify(hi)

        def Gu(u, piece=piece):
            x = decompactify(u)
            if x <= piece.lo:
                return piece.lo_val
            if x >= piece.hi:
                return piece.hi_val
            return piece.fn(x)

        ga = piece.lo_val if lo == piece.lo else piece.fn(lo)
        gb = piece.hi_val if hi == piece.hi else piece.fn(hi)
        if ga == gb:
            continue  # flat stretch contributes nothing
        # a base partition keeps the adaptive depth budget for genuinely
        # hard cells instead of spending it splitting the whole piece
        base = 32
        piece_tol = tol / (max(1, len(live)) * base)
        cuts = [ua + (ub - ua) * i / base for i in range(base + 1)]
        fs = [F(lo)] + [F.at_u(u) for u in cuts[1:-1]] + [F(hi)]
        gs = [ga] + [Gu(u) for u in cuts[1:-1]] + [gb]
        for i in range(base):
            if gs[i] == gs[i + 1]:
                continue
            total += _adaptive_piece(F.at_u, Gu, cuts[i], fs[i], gs[i],
                                     cuts[i + 1], fs[i + 1], gs[i + 1],
                                     piece_tol, depth_cap)
    return total
