"""Continuous functions on the compactified real line, plus bumps.

A :class:`ContinuousFunctionBar` carries a pointwise evaluator on the
finite reals together with its two limits at -inf and +inf.  Membership
of C0 over [-inf, inf] is not certifiable by any finite procedure, so
:func:`build_continuous` runs two evidence-grade audits instead:

* a tail audit checking that the evaluator settles onto the claimed
  limits, or onto limits it finds, along a geometric approach to +-inf, and
* an oscillation audit on a dyadic refinement of the compact chart that
  flags jumps (oscillation that refuses to shrink under refinement).
  Every cell of the audit grid descends at once, level by level, with
  one array call for the midpoints of all unsettled cells.

Array evaluation: an evaluator may carry an array form as its attribute
``many``, a function from a float array of finite x to the float array
of values, equal bit for bit to the scalar calls.  ``eval_many`` and
``at_u_many`` use it, and fall back to one loop of guarded scalar calls
on Python floats for an evaluator without one.  The pointwise algebra
composes the array forms of its operands.

Grid tables: every fixed-grid reader (the audit's first level,
:func:`extremes`, ``space.equal``, ``lattice.compare`` and
``products.second_mvt_xi``) reads F on a chart grid ``u_grid(n)`` through
``F.on_grid(n)``, which keeps the table of F's values on the finest grid
read so far.  These grids nest, so each grid point of F is evaluated
once, and a pointwise result lifts its operands' tables instead of
calling an evaluator.  The tables rely on the evaluator being a
function: the same x gives the same value.  :func:`extremes` finds the
grid's local maxima by array comparisons; only the golden refinement of
the top cells calls the evaluator one point at a time, and the (sup,
inf) it finds is kept on F too.

The bumps are C^inf except at their center, where phi' jumps (see
:class:`TestFunction`); ``pair_with_test`` splits them there.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .chart import (INF, NEG_INF, decompactify, decompactify_many, scan_max,
                    u_grid)
from .errors import UNDEFINED, BudgetExceeded, NoLimitAtInfinity, NotContinuous

DEFAULT_TOL = 1e-10

_AUDIT_GRID = 1025          # initial uniform points in u
_INTERVAL_GRID = 257        # initial uniform points of audit_on_interval
_EXTREMES_GRID = 8193       # uniform points in u scanned by extremes
_EXTREMES_REFINE = 32       # local-maximum cells refined per sign
_TAIL_EXPONENTS = range(34, 66)   # x = 2**k - 1 approaching infinity
_STALL_LIMIT = 8            # consecutive non-shrinking refinements => jump
_STALL_RATIO = 0.95         # "failed to shrink" threshold per refinement
_DEPTH_CAP = 40             # bisections of one audit cell
_ROUNDOFF = 16 * 2.0 ** -52   # relative roundoff of values, as a floor on tol


def _safe(evaluator: Callable[[float], float], x: float) -> float:
    try:
        v = evaluator(x)
    except UNDEFINED:
        return math.nan
    return v


def _many(evaluator: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """The evaluator at each x of a float array: its array form where it
    carries one, else one call at each x as a Python float, in one loop,
    with NaN where a call raises one of UNDEFINED."""
    many = getattr(evaluator, "many", None)
    if many is not None:
        return many(xs)
    vals = []
    append = vals.append
    for x in xs.tolist():
        try:
            append(evaluator(x))
        except UNDEFINED:
            append(math.nan)
    return np.array(vals, dtype=float)


def _with_many(scalar: Callable[[float], float],
               many: Callable[[np.ndarray], np.ndarray]):
    """scalar, carrying many as its array form."""
    scalar.many = many
    return scalar


@dataclass(frozen=True)
class ContinuousFunctionBar:
    """An element of C0 of the extended real line.

    The evaluator is only consulted at finite arguments; the stored
    limits are the values at -inf and +inf.  The evaluator must be a
    function, the same x giving the same value: F keeps its grid table
    (see on_grid) and its extremes, outside the dataclass fields, so ==,
    hash and repr do not see them.
    """

    evaluator: Callable[[float], float]
    limit_neg: float
    limit_pos: float
    # not fields: the finest grid table read, the (op_many, operands) a
    # pointwise result lifts its tables from, and extremes' (sup, inf)
    _table = None
    _lift = None
    _extremes = None

    def __call__(self, x: float) -> float:
        if x == INF:
            return self.limit_pos
        if x == NEG_INF:
            return self.limit_neg
        try:
            return self.evaluator(x)
        except UNDEFINED:
            return math.nan

    def at_u(self, u: float) -> float:
        """self(decompactify(u)), in one frame: the refinements call it."""
        if u >= 1.0:
            return self.limit_pos
        if u <= -1.0:
            return self.limit_neg
        try:
            return self.evaluator(u / (1.0 - abs(u)))
        except UNDEFINED:
            return math.nan

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """self(x) at each x of a float array, bit for bit."""
        xs = np.asarray(xs, dtype=float)
        ends = np.isinf(xs)
        with np.errstate(all="ignore"):
            if not ends.any():
                return _many(self.evaluator, xs)
            out = np.empty_like(xs)
            out[xs == INF] = self.limit_pos
            out[xs == NEG_INF] = self.limit_neg
            out[~ends] = _many(self.evaluator, xs[~ends])
        return out

    def at_u_many(self, us: np.ndarray) -> np.ndarray:
        """at_u at each u of a float array, bit for bit."""
        return self.eval_many(decompactify_many(np.asarray(us, dtype=float)))

    def on_grid(self, n: int) -> np.ndarray:
        """at_u_many(u_grid(n)), bit for bit, as a read-only array, for
        n - 1 a power of two.  These grids nest: u_grid(n) is every k-th
        point of u_grid(k*(n-1) + 1).  Only the finest table read is
        kept; a coarser grid is a stride view of it, and a finer one
        evaluates only the points it does not hold.  A pointwise result
        evaluates nothing: its table is op_many of its operands'."""
        if n < 2 or (n - 1) & (n - 2):
            raise ValueError(f"grid table needs n - 1 a power of two, got {n}")
        held = self._table
        if held is not None and len(held) >= n:
            return held[::(len(held) - 1) // (n - 1)]
        if self._lift is not None:
            op_many, operands = self._lift
            with np.errstate(all="ignore"):
                vals = op_many(*(H.on_grid(n) for H in operands))
        elif held is None:
            vals = self.at_u_many(u_grid(n))
        else:
            step = (n - 1) // (len(held) - 1)
            new = np.arange(n) % step != 0
            vals = np.empty(n)
            vals[::step] = held
            vals[new] = self.at_u_many(u_grid(n)[new])
        vals.flags.writeable = False
        object.__setattr__(self, "_table", vals)
        return vals

    # -- pointwise algebra (results inherit continuity; no re-audit) --

    def shifted(self, c: float) -> "ContinuousFunctionBar":
        return _pointwise(lambda v: v + c, self)

    def scaled(self, a: float) -> "ContinuousFunctionBar":
        return _pointwise(lambda v: a * v, self)

    def plus(self, other: "ContinuousFunctionBar") -> "ContinuousFunctionBar":
        return _pointwise(operator.add, self, other)

    def translated(self, t: float) -> "ContinuousFunctionBar":
        ev = self.evaluator
        return ContinuousFunctionBar(
            _with_many(lambda x: _safe(ev, x - t),
                       lambda xs: _many(ev, xs - t)),
            self.limit_neg, self.limit_pos)

    # max(p, q) keeps p unless q > p, and min(p, q) unless q < p; the
    # array forms keep that order, for NaN and signed zeros alike

    def pointwise_max(self, other: "ContinuousFunctionBar") -> "ContinuousFunctionBar":
        return _pointwise(max, self, other,
                          lambda p, q: np.where(q > p, q, p))

    def pointwise_min(self, other: "ContinuousFunctionBar") -> "ContinuousFunctionBar":
        return _pointwise(min, self, other,
                          lambda p, q: np.where(q < p, q, p))

    def pointwise_abs(self) -> "ContinuousFunctionBar":
        return _pointwise(abs, self)


def _pointwise(op, F: ContinuousFunctionBar,
               G: Optional[ContinuousFunctionBar] = None,
               op_many=None) -> ContinuousFunctionBar:
    """op applied pointwise to F, or to F and G: op of their guarded
    values at x, op_many (op where omitted) of their array forms and of
    their grid tables, and op of their limits at each infinity."""
    op_many = op_many or op
    ea = F.evaluator
    if G is None:
        R = ContinuousFunctionBar(
            _with_many(lambda x: op(_safe(ea, x)),
                       lambda xs: op_many(_many(ea, xs))),
            op(F.limit_neg), op(F.limit_pos))
    else:
        eb = G.evaluator
        R = ContinuousFunctionBar(
            _with_many(lambda x: op(_safe(ea, x), _safe(eb, x)),
                       lambda xs: op_many(_many(ea, xs), _many(eb, xs))),
            op(F.limit_neg, G.limit_neg), op(F.limit_pos, G.limit_pos))
    object.__setattr__(R, "_lift", (op_many, (F,) if G is None else (F, G)))
    return R


def _settled(samples, tol: float, limit: Optional[float] = None) -> float:
    """The limit that (x, value) samples settle onto: the claimed `limit`
    or, when none is claimed, the mean of the values.  Each value must lie
    within tol*(1+|limit|) of it, else NoLimitAtInfinity names the first
    that does not."""
    if limit is None:
        samples = list(samples)
        limit = sum(v for _, v in samples) / len(samples)
    for x, v in samples:
        if not (abs(v - limit) < tol * (1.0 + abs(limit))):
            raise NoLimitAtInfinity(
                f"evaluator at x={x:g} gives {v!r}, limit {limit!r}")
    return limit


def _tail_limit(evaluator, sign: int, tol: float,
                limit: Optional[float] = None) -> float:
    """The limit the evaluator settles onto along x = sign*(2**k - 1),
    claimed or found as in _settled."""
    xs = [sign * (2.0 ** k - 1.0) for k in _TAIL_EXPONENTS]
    return _settled(((x, _safe(evaluator, x)) for x in xs), tol, limit)


def _audit_grid(feval_many, grid: np.ndarray, tol: float,
                coord=decompactify, vals: Optional[np.ndarray] = None) -> None:
    """Oscillation audit: evaluate the grid in one call, unless its
    values vals are given, then descend into every cell at once, one call
    of feval_many per level for the midpoints of all unsettled cells.

    A cell settles when the oscillation over its ends and midpoint is
    within tol, floored at _ROUNDOFF of the largest |grid value|; else it
    keeps its worst child, the half whose ends differ more.  A jump keeps
    its oscillation under refinement: a cell still unsettled after
    _DEPTH_CAP levels whose last _STALL_LIMIT levels did not shrink it
    below _STALL_RATIO of the level before is reported, and so is a
    non-finite value.  Every cell visits the points it would visit on its
    own, and the leftmost failing cell is reported, as a left-to-right
    pass would; the cells right of a failure are dropped from the next
    level on.  `coord` maps the audit coordinate back to x for error
    reporting."""
    if vals is None:
        vals = feval_many(grid)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        x = coord(float(grid[bad[0]]))
        raise NotContinuous(f"evaluator undefined at x={x!r}", where=x)
    tol = max(tol, _ROUNDOFF * float(np.abs(vals).max()))
    ua, va, ub, vb = grid[:-1], vals[:-1], grid[1:], vals[1:]
    stall = np.zeros(len(ua), dtype=int)
    osc = um = None
    failure = None
    for _ in range(_DEPTH_CAP):
        prev_osc = osc
        um = 0.5 * (ua + ub)
        vm = feval_many(um)
        bad = np.flatnonzero(~np.isfinite(vm))
        if bad.size:
            j = bad[0]
            x = coord(float(um[j]))
            failure = NotContinuous(f"evaluator undefined near x={x!r}",
                                    where=x)
            ua, va, ub, vb, um, vm, stall = (
                a[:j] for a in (ua, va, ub, vb, um, vm, stall))
            if prev_osc is not None:
                prev_osc = prev_osc[:j]
        osc = (np.maximum(np.maximum(va, vm), vb)
               - np.minimum(np.minimum(va, vm), vb))
        if prev_osc is not None:
            stall = np.where(osc > _STALL_RATIO * prev_osc, stall + 1, 0)
        left = np.abs(vm - va) >= np.abs(vb - vm)
        ua, va, ub, vb = (np.where(left, ua, um), np.where(left, va, vm),
                          np.where(left, um, ub), np.where(left, vm, vb))
        open_ = ~(osc <= tol)
        ua, va, ub, vb, um, osc, stall = (
            a[open_] for a in (ua, va, ub, vb, um, osc, stall))
        if not len(ua):
            break
    # At the depth cap the cells left are astronomically small.  A jump
    # keeps its oscillation to the very end; a continuous function, even
    # a rapidly oscillating one, has started shrinking by now.  The stall
    # counter holds the length of the final non-shrinking run.
    stalled = np.flatnonzero(stall >= _STALL_LIMIT)
    if stalled.size:
        j = stalled[0]
        x = coord(float(um[j]))
        raise NotContinuous(
            f"oscillation {float(osc[j]):g} not shrinking near x={x!r}",
            where=x)
    if failure is not None:
        raise failure


def audit_on_interval(fn: Callable[[float], float], a: float, b: float,
                      tol: float = DEFAULT_TOL) -> None:
    """Oscillation audit of fn on the finite interval [a, b].

    Raises NotContinuous on a detected jump or undefined value; returns
    None when the audit finds only shrinking oscillation.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("audit interval must be finite with a < b")
    step = (b - a) / (_INTERVAL_GRID - 1)
    xs = a + np.arange(_INTERVAL_GRID) * step
    _audit_grid(lambda t: _many(fn, t), xs, tol, coord=lambda t: t)


def build_continuous(evaluator: Callable[[float], float],
                     limit_neg: Optional[float] = None,
                     limit_pos: Optional[float] = None,
                     tol: float = DEFAULT_TOL) -> ContinuousFunctionBar:
    """Audited constructor for C0 of the extended real line, and the one
    place that decides its limits.  A claimed limit is checked and an
    omitted one found, as in _settled, on the +inf tail and then the -inf
    tail; then the oscillation audit runs over the whole chart.  Raises
    NoLimitAtInfinity if a tail does not settle, NotContinuous if the
    audit detects a jump.
    """
    if not all(math.isfinite(c) for c in (limit_neg, limit_pos)
               if c is not None):
        raise NoLimitAtInfinity("claimed limits must be finite reals")
    limit_pos = _tail_limit(evaluator, +1, tol, limit_pos)
    limit_neg = _tail_limit(evaluator, -1, tol, limit_neg)
    F = ContinuousFunctionBar(evaluator, limit_neg, limit_pos)
    _audit_grid(F.at_u_many, u_grid(_AUDIT_GRID), tol,
                vals=F.on_grid(_AUDIT_GRID))
    return F


def extremes(F: ContinuousFunctionBar) -> tuple[float, float]:
    """(sup, inf) of F over the extended real line.

    Grid scan in the compact chart, then golden refinement of the best
    cells around the surviving local extrema.  The result is kept on F,
    so a later call scans nothing.  A NaN on the grid raises
    BudgetExceeded naming the x of the first, and keeps nothing.
    """
    if F._extremes is None:
        us = u_grid(_EXTREMES_GRID)
        vals = F.on_grid(_EXTREMES_GRID)
        bad = np.flatnonzero(np.isnan(vals))
        if bad.size:
            x = decompactify(float(us[bad[0]]))
            raise BudgetExceeded(
                f"evaluator undefined at x={x!r} inside extremes scan")
        sup = scan_max(F.at_u, us, vals, _EXTREMES_REFINE)
        inf = -scan_max(lambda u: -F.at_u(u), us, -vals, _EXTREMES_REFINE)
        object.__setattr__(F, "_extremes", (sup, inf))
    return F._extremes


# ---------------------------------------------------------------------------
# compactly supported test functions, smooth off their center


def _bump_profile(s: float) -> float:
    # exp(1/(|s|-1)) on |s|<1, zero outside
    a = abs(s)
    if a >= 1.0:
        return 0.0
    return math.exp(1.0 / (a - 1.0))


# mass of the unit profile, 2 int_0^1 exp(1/(s-1)) ds by mpmath, rounded
_PROFILE_MASS = 0.2969910135518441


@dataclass(frozen=True)
class TestFunction:
    """Bump supported exactly on [center-width, center+width]: C^inf
    except at the center, where phi' jumps from +amplitude e^-1 / width
    to -amplitude e^-1 / width."""

    center: float
    width: float
    amplitude: float = 1.0
    evaluator: Callable[[float], float] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")
        c, w, a = self.center, self.width, self.amplitude
        object.__setattr__(self, "evaluator",
                           lambda x: a * _bump_profile((x - c) / w))

    def __call__(self, x: float) -> float:
        return self.evaluator(x)

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.width, self.center + self.width)

    @property
    def mass(self) -> float:
        return self.amplitude * self.width * _PROFILE_MASS


def bump(center: float, width: float, amplitude: float = 1.0) -> TestFunction:
    """The standard bump, rescaled to the given center and width; C^inf
    except at the center, where phi' jumps (see TestFunction)."""
    return TestFunction(center, width, amplitude)
