"""Continuous functions on the compactified real line, plus smooth bumps.

A :class:`ContinuousFunctionBar` carries a pointwise evaluator on the
finite reals together with its two limits at -inf and +inf.  Membership
of C0 over [-inf, inf] is not certifiable by any finite procedure, so
:func:`build_continuous` runs two evidence-grade audits instead:

* a tail audit checking that the evaluator settles onto the claimed
  limits along a geometric approach to +-inf, and
* an oscillation audit on a dyadic refinement of the compact chart that
  flags jumps (oscillation that refuses to shrink under refinement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .chart import INF, NEG_INF, decompactify, scan_max, uniform_u_grid
from .errors import BudgetExceeded, NoLimitAtInfinity, NotContinuous

DEFAULT_TOL = 1e-10

_AUDIT_GRID = 1025          # initial uniform points in u
_INTERVAL_GRID = 257        # initial uniform points of audit_on_interval
_EXTREMES_GRID = 8193       # uniform points in u scanned by extremes
_EXTREMES_REFINE = 32       # local-maximum cells refined per sign
_TAIL_EXPONENTS = range(34, 66)   # x = 2**k - 1 approaching infinity
_STALL_LIMIT = 8            # consecutive non-shrinking refinements => jump
_STALL_RATIO = 0.95         # "failed to shrink" threshold per refinement
_DEPTH_CAP = 40             # bisections of one audit cell


def _safe(evaluator: Callable[[float], float], x: float) -> float:
    try:
        v = evaluator(x)
    except (OverflowError, ValueError, ZeroDivisionError):
        return math.nan
    return v


@dataclass(frozen=True)
class ContinuousFunctionBar:
    """An element of C0 of the extended real line.

    The evaluator is only consulted at finite arguments; the stored
    limits are the values at -inf and +inf.
    """

    evaluator: Callable[[float], float]
    limit_neg: float
    limit_pos: float

    def __call__(self, x: float) -> float:
        if x == INF:
            return self.limit_pos
        if x == NEG_INF:
            return self.limit_neg
        return _safe(self.evaluator, x)

    def at_u(self, u: float) -> float:
        return self(decompactify(u))

    # -- pointwise algebra (results inherit continuity; no re-audit) --

    def shifted(self, c: float) -> "ContinuousFunctionBar":
        ev = self.evaluator
        return ContinuousFunctionBar(lambda x: _safe(ev, x) + c,
                                     self.limit_neg + c, self.limit_pos + c)

    def scaled(self, a: float) -> "ContinuousFunctionBar":
        ev = self.evaluator
        return ContinuousFunctionBar(lambda x: a * _safe(ev, x),
                                     a * self.limit_neg, a * self.limit_pos)

    def plus(self, other: "ContinuousFunctionBar") -> "ContinuousFunctionBar":
        ea, eb = self.evaluator, other.evaluator
        return ContinuousFunctionBar(lambda x: _safe(ea, x) + _safe(eb, x),
                                     self.limit_neg + other.limit_neg,
                                     self.limit_pos + other.limit_pos)

    def translated(self, t: float) -> "ContinuousFunctionBar":
        ev = self.evaluator
        return ContinuousFunctionBar(lambda x: _safe(ev, x - t),
                                     self.limit_neg, self.limit_pos)

    def pointwise_max(self, other: "ContinuousFunctionBar") -> "ContinuousFunctionBar":
        ea, eb = self.evaluator, other.evaluator
        return ContinuousFunctionBar(lambda x: max(_safe(ea, x), _safe(eb, x)),
                                     max(self.limit_neg, other.limit_neg),
                                     max(self.limit_pos, other.limit_pos))

    def pointwise_min(self, other: "ContinuousFunctionBar") -> "ContinuousFunctionBar":
        ea, eb = self.evaluator, other.evaluator
        return ContinuousFunctionBar(lambda x: min(_safe(ea, x), _safe(eb, x)),
                                     min(self.limit_neg, other.limit_neg),
                                     min(self.limit_pos, other.limit_pos))

    def pointwise_abs(self) -> "ContinuousFunctionBar":
        ev = self.evaluator
        return ContinuousFunctionBar(lambda x: abs(_safe(ev, x)),
                                     abs(self.limit_neg), abs(self.limit_pos))


def _tail_limit(evaluator, sign: int, tol: float,
                limit: Optional[float] = None) -> float:
    """Check the evaluator settles along x = sign*(2**k - 1) onto the
    claimed `limit` or, when none is claimed, onto the mean of its
    samples; return that limit."""
    xs = [sign * (2.0 ** k - 1.0) for k in _TAIL_EXPONENTS]
    samples = ((x, _safe(evaluator, x)) for x in xs)
    if limit is None:
        samples = list(samples)
        limit = sum(v for _, v in samples) / len(samples)
    for x, v in samples:
        if not (abs(v - limit) < tol * (1.0 + abs(limit))):
            raise NoLimitAtInfinity(
                f"evaluator at x={x:g} gives {v!r}, limit {limit!r}")
    return limit


def _audit_cell(feval_u, ua, va, ub, vb, tol, coord=decompactify) -> None:
    """Worst-child dyadic descent; a jump keeps its oscillation under
    refinement and trips the stall counter.  `coord` maps the audit
    coordinate back to x for error reporting."""
    stall = 0
    prev_osc = None
    osc = 0.0
    um = 0.5 * (ua + ub)
    for _ in range(_DEPTH_CAP):
        um = 0.5 * (ua + ub)
        vm = feval_u(um)
        if math.isnan(vm) or math.isinf(vm):
            raise NotContinuous(f"evaluator undefined near x={coord(um)!r}",
                                where=coord(um))
        osc = max(va, vm, vb) - min(va, vm, vb)
        if osc <= tol:
            return
        if prev_osc is not None:
            if osc > _STALL_RATIO * prev_osc:
                stall += 1
            else:
                stall = 0
        prev_osc = osc
        if abs(vm - va) >= abs(vb - vm):
            ub, vb = um, vm
        else:
            ua, va = um, vm
    # At the depth cap the cell is astronomically small.  A jump keeps
    # its oscillation to the very end; a continuous function, even a
    # rapidly oscillating one, has started shrinking by now.  The stall
    # counter holds the length of the final non-shrinking run.
    if stall >= _STALL_LIMIT:
        raise NotContinuous(
            f"oscillation {osc:g} not shrinking near x={coord(um)!r}",
            where=coord(um))


def _audit_grid(feval, grid, tol, coord=decompactify) -> None:
    """Oscillation audit: evaluate the grid, then descend into each cell."""
    vals = [feval(t) for t in grid]
    for t, v in zip(grid, vals):
        if math.isnan(v):
            raise NotContinuous(f"evaluator undefined at x={coord(t)!r}",
                                where=coord(t))
    for i in range(len(grid) - 1):
        _audit_cell(feval, grid[i], vals[i], grid[i + 1], vals[i + 1],
                    tol, coord)


def _audited(F: "ContinuousFunctionBar", tol: float) -> "ContinuousFunctionBar":
    """F, once the oscillation audit over the whole chart has passed."""
    _audit_grid(F.at_u, uniform_u_grid(_AUDIT_GRID), tol)
    return F


def audit_on_interval(fn: Callable[[float], float], a: float, b: float,
                      tol: float = DEFAULT_TOL) -> None:
    """Oscillation audit of fn on the finite interval [a, b].

    Raises NotContinuous on a detected jump or undefined value; returns
    None when the audit finds only shrinking oscillation.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("audit interval must be finite with a < b")
    step = (b - a) / (_INTERVAL_GRID - 1)
    xs = [a + i * step for i in range(_INTERVAL_GRID)]
    _audit_grid(lambda t: _safe(fn, t), xs, tol, coord=lambda t: t)


def build_continuous(evaluator: Callable[[float], float],
                     limit_neg: float, limit_pos: float,
                     tol: float = DEFAULT_TOL) -> ContinuousFunctionBar:
    """Audited constructor for C0 of the extended real line.

    Raises NoLimitAtInfinity if the tails do not settle onto the claimed
    limits, NotContinuous if the oscillation audit detects a jump.
    """
    if not (math.isfinite(limit_neg) and math.isfinite(limit_pos)):
        raise NoLimitAtInfinity("claimed limits must be finite reals")
    _tail_limit(evaluator, +1, tol, limit_pos)
    _tail_limit(evaluator, -1, tol, limit_neg)
    return _audited(ContinuousFunctionBar(evaluator, limit_neg, limit_pos), tol)


def extremes(F: ContinuousFunctionBar) -> tuple[float, float]:
    """(sup, inf) of F over the extended real line.

    Grid scan in the compact chart, then golden refinement of the best
    cells around the surviving local extrema.
    """
    grid = uniform_u_grid(_EXTREMES_GRID)
    vals = [F.at_u(u) for u in grid]
    for v in vals:
        if math.isnan(v):
            raise BudgetExceeded("evaluator undefined inside extremes scan")
    sup = scan_max(F.at_u, grid, vals, _EXTREMES_REFINE)
    inf = -scan_max(lambda u: -F.at_u(u), grid, [-v for v in vals],
                    _EXTREMES_REFINE)
    return sup, inf


def sup_norm(F: ContinuousFunctionBar) -> float:
    """max over the extended real line of |F|, endpoint limits included."""
    hi, lo = extremes(F)
    return max(abs(hi), abs(lo))


# ---------------------------------------------------------------------------
# smooth compactly supported test functions


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
    """Smooth bump supported exactly on [center-width, center+width]."""

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
    """The standard smooth bump, rescaled to the given center and width."""
    return TestFunction(center, width, amplitude)


def delta_sequence(x0: float, n: int) -> TestFunction:
    """n-th element of a delta sequence at x0: unit mass, width 1/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    width = 1.0 / n
    return TestFunction(x0, width, amplitude=1.0 / (width * _PROFILE_MASS))
