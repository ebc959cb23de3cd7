"""Compact coordinate chart for the two-point compactified real line.

Everything numeric in the library happens in the coordinate
u = x / (1 + |x|), which maps [-inf, inf] onto [-1, 1] with a strictly
increasing algebraic bijection.  Grids, audits and refinements all live
in u; x-space values are recovered with :func:`decompactify`.  Each fixed
grid is built once, by :func:`u_grid`, and the scan-and-refine kernel
below does every grid refinement in the library, the turning points of
``abs_norm`` and the cuts of ``bv.from_callable`` included.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

INF = math.inf
NEG_INF = -math.inf

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def compactify(x: float) -> float:
    """Map an extended real x to u = x/(1+|x|) in [-1, 1]."""
    if x == INF:
        return 1.0
    if x == NEG_INF:
        return -1.0
    return x / (1.0 + abs(x))


def decompactify(u: float) -> float:
    """Inverse chart: u in [-1, 1] back to the extended real line."""
    if u >= 1.0:
        return INF
    if u <= -1.0:
        return NEG_INF
    return u / (1.0 - abs(u))


def decompactify_many(us: np.ndarray) -> np.ndarray:
    """decompactify at each u of a float array, bit for bit."""
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = us / (1.0 - np.abs(us))
    xs[us >= 1.0] = INF
    xs[us <= -1.0] = NEG_INF
    return xs


@functools.cache
def u_grid(n: int) -> np.ndarray:
    """n equally spaced points -1 + i*(2/(n-1)) in [-1, 1], endpoints
    included, as a read-only array built once per n."""
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    us = -1.0 + np.arange(n) * (2.0 / (n - 1))
    us.flags.writeable = False
    return us


def parse_extended(text: str) -> float:
    """Parse 'inf', '-inf' or a finite decimal into an extended real."""
    t = text.strip().lower()
    if t in ("inf", "+inf", "infinity", "+infinity", "oo"):
        return INF
    if t in ("-inf", "-infinity", "-oo"):
        return NEG_INF
    return float(text)


# ---------------------------------------------------------------------------
# the scan-and-refine kernel


def golden_max(fn, lo: float, hi: float) -> tuple[float, float]:
    """(t, fn(t)) for the largest value of fn on [lo, hi] found by golden
    section, down to a bracket of width 1e-13 (relative once |t| > 1);
    unlike parabolic steps it keeps full precision at kinks.  The ends
    lo and hi are candidates too."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-13 * max(1.0, abs(a), abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    return max(((c, fc), (d, fd), (lo, fn(lo)), (hi, fn(hi))),
               key=lambda p: p[1])


def scan_max(fn, grid, vals, top_k: int) -> float:
    """Largest value of fn on [grid[0], grid[-1]], given the float arrays
    grid and vals = fn(grid).

    The best scanned value is raised by golden refinement over the two
    cells around each of the top_k grid-local maxima, largest first and
    left to right among equals.  Brackets stop 1e-12 of the half-span
    short of the scan's ends, whose values the scan already holds (in the
    chart, the ends are the saturated tails).  The best scanned value is
    the first of the largest, and NaN when vals[0] is NaN; any later NaN
    is passed over, as Python's max does.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(vals, dtype=float)
    n = len(grid)
    g0, g1 = float(grid[0]), float(grid[-1])
    edge = 1e-12 * 0.5 * (g1 - g0)
    best = float(vals[0])
    if best == best:
        best = float(vals[np.nanargmax(vals)])
    peak = np.ones(n, dtype=bool)
    peak[1:] &= vals[1:] >= vals[:-1]
    peak[:-1] &= vals[:-1] >= vals[1:]
    cand = np.flatnonzero(peak)
    cand = cand[np.argsort(-vals[cand], kind="stable")]
    for i in cand[:top_k].tolist():
        lo = max(float(grid[max(i - 1, 0)]), g0 + edge)
        hi = min(float(grid[min(i + 1, n - 1)]), g1 - edge)
        if lo < hi:
            best = max(best, golden_max(fn, lo, hi)[1])
    return best


def refined_extrema(fn, grid, vals, done: set,
                    floor: float) -> list[tuple[float, float]]:
    """(t, fn(t)) from golden refinement of each turning point of the
    chart partition (grid, vals = fn(grid)) that stands out of both
    neighbours by more than floor and whose u is not in done.  The
    bracket is the span between the two neighbours, clipped 1e-12 off
    u = +-1; an extremum on an end of it is dropped.  Each turning point
    refined and each extremum kept go into done, so neither is refined
    again."""
    steps = np.sign(np.diff(vals))
    found = []
    for i in (np.nonzero(steps[:-1] * steps[1:] < 0.0)[0] + 1).tolist():
        u, left, right = float(grid[i]), float(grid[i - 1]), float(grid[i + 1])
        swing = min(abs(vals[i] - vals[i - 1]), abs(vals[i + 1] - vals[i]))
        if u in done or swing <= floor:
            continue
        done.add(u)
        sgn = float(steps[i - 1])     # +1 at a maximum, -1 at a minimum
        lo, hi = max(left, -1.0 + 1e-12), min(right, 1.0 - 1e-12)
        t, w = golden_max(lambda v: sgn * fn(v), lo, hi)
        if t not in done and t not in (left, right):
            done.add(t)
            found.append((t, sgn * w))
    return found


def scan_root(fn, grid, vals, tol: float) -> Optional[float]:
    """Leftmost root of fn found by one left-to-right pass over the grid
    scan vals = fn(grid), given as float arrays, or None.

    A grid point with |fn| <= tol is a root.  A sign change between
    neighbours is closed by illinois_zero.  So is a strict grid-local
    minimum of |fn| between neighbours of its own sign when golden
    refinement of -sign*fn over its two cells reaches 0: there fn crosses
    zero inside a cell, or touches it at the point found.  Array
    comparisons find the candidates; a value's sign is its sign bit.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(vals, dtype=float)
    s, a = np.copysign(1.0, vals), np.abs(vals)
    before = s * np.r_[np.nan, vals[:-1]]      # s[i] * vals[i - 1]
    after = s * np.r_[vals[1:], np.nan]        # s[i] * vals[i + 1]
    cand = (a <= tol) | (before < 0.0) | ((before > a) & (a < after))
    for i in np.flatnonzero(cand).tolist():
        if a[i] <= tol:
            return float(grid[i])
        lo, vlo, sgn = float(grid[i - 1]), float(vals[i - 1]), float(s[i])
        if sgn * vlo < 0.0:
            return illinois_zero(fn, lo, vlo, float(grid[i]), float(vals[i]))
        hi, w = golden_max(lambda x: -sgn * fn(x), lo, float(grid[i + 1]))
        if w >= 0.0:
            return hi if w == 0.0 else illinois_zero(fn, lo, vlo, hi, -sgn * w)
    return None


def illinois_zero(fn, a: float, fa: float, b: float, fb: float) -> float:
    """Zero of fn in [a, b], where fa and fb differ in sign, to a bracket
    below 1e-15 relative, by regula falsi with the Illinois modification
    (Dowell & Jarratt 1971): the value kept at an end that stays twice in
    a row is halved, so both ends close in.  A step from the newest end
    shorter than half the goal is lengthened to it, so that once the zero
    is pinned the next point lands across it.  Where two steps in a row
    leave more than half the bracket, as at a zero of high multiplicity,
    the next one bisects."""
    side = 0
    width = b - a       # the bracket when it last halved
    stalls = 0
    while True:
        m = 0.5 * (a + b)
        goal = 1e-15 * (1.0 + abs(m))
        if b - a < goal:
            return m
        c = b - fb * (b - a) / (fb - fa)
        if side == -1:
            c = min(c, b - 0.5 * goal)
        elif side == 1:
            c = max(c, a + 0.5 * goal)
        if stalls == 2 or not a < c < b:
            c = m
        fc = fn(c)
        if fc == 0.0:
            return c
        if (fc < 0.0) == (fb < 0.0):
            b, fb = c, fc
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            a, fa = c, fc
            if side == 1:
                fb *= 0.5
            side = 1
        if b - a <= 0.5 * width:
            width, stalls = b - a, 0
        else:
            stalls += 1
