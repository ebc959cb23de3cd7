"""Order and lattice structure through primitives.

The order is f <= g exactly when the primitives satisfy F <= G
pointwise on the extended real line.  Join and meet are pointwise max
and min of primitives; the positive, negative and absolute parts come
from the same operations against zero.  The absolute-integrability norm
is the variation of the primitive, estimated by partition sums over
refined extrema with an explicit divergence verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cfun import DEFAULT_TOL, ContinuousFunctionBar
from .chart import decompactify, golden_max, u_grid
from .errors import BudgetExceeded
from .space import Distribution, zero

_COMPARE_GRID = 4097
_ABS_START_LEVEL = 4
_ABS_MAX_LEVEL = 18
_ABS_DIVERGENT_RUN = 8
_ABS_GROWTH = 1e-3
_ABS_EDGE = 1e-12


class Order(enum.Enum):
    LESS_OR_EQUAL = "LessOrEqual"
    GREATER_OR_EQUAL = "GreaterOrEqual"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


# the order shown by (a witness below, a witness above)
_ORDERS = {(False, False): Order.EQUAL, (True, False): Order.LESS_OR_EQUAL,
           (False, True): Order.GREATER_OR_EQUAL,
           (True, True): Order.INCOMPARABLE}


class LatticeKind(enum.Enum):
    JOIN = "join"
    MEET = "meet"


@dataclass(frozen=True)
class OrderResult:
    order: Order
    witness_below: Optional[float] = None  # x with F(x) < G(x) - tol
    witness_above: Optional[float] = None  # x with F(x) > G(x) + tol


def compare(f: Distribution, g: Distribution,
            tol: float = DEFAULT_TOL) -> OrderResult:
    """Grid-audited pointwise comparison of the primitives: one array of
    F - G over the whole chart grid, each primitive read once at each of
    its points; each witness is the first x, from -inf up, that shows its
    side.  A NaN difference shows neither side."""
    us = u_grid(_COMPARE_GRID)
    with np.errstate(all="ignore"):
        d = f.primitive.at_u_many(us) - g.primitive.at_u_many(us)
    below, above = (decompactify(float(us[side.argmax()])) if side.any()
                    else None for side in (d < -tol, d > tol))
    return OrderResult(_ORDERS[below is not None, above is not None],
                       below, above)


def lattice_op(f: Distribution, g: Distribution,
               kind: LatticeKind) -> Distribution:
    """Join (pointwise max of primitives) or meet (pointwise min)."""
    if kind is LatticeKind.JOIN:
        return Distribution(f.primitive.pointwise_max(g.primitive))
    if kind is LatticeKind.MEET:
        return Distribution(f.primitive.pointwise_min(g.primitive))
    raise ValueError(f"unknown lattice kind {kind!r}")


def parts(f: Distribution) -> tuple[Distribution, Distribution, Distribution]:
    """(f_plus, f_minus, f_abs) with F = F+ - F- and |F| = F+ + F-.

    The negative part carries primitive -(F min 0), so both identities
    hold with nonnegative parts.
    """
    F, Z = f.primitive, zero().primitive
    f_plus = Distribution(F.pointwise_max(Z))
    f_minus = Distribution(F.pointwise_min(Z).scaled(-1.0))
    f_abs = Distribution(F.pointwise_abs())
    return f_plus, f_minus, f_abs


@dataclass(frozen=True)
class AbsNormResult:
    """Variation estimate of the primitive, or a divergence verdict."""

    divergent: bool
    value: float          # the variation, or a certified lower bound
    levels_used: int
    extrema: int          # refined extrema in the final partition


def _variation_sum(vals: np.ndarray) -> float:
    """sum |v[i+1] - v[i]|, added left to right in Python floats."""
    return sum(np.abs(np.diff(vals)).tolist())


def _refined_extrema(F: ContinuousFunctionBar, us: np.ndarray,
                     vals: np.ndarray, done: set,
                     floor: float) -> list[tuple[float, float]]:
    """(t, F(t)) from golden refinement of each turning point of the
    partition (us, vals) that stands out of both neighbours by more than
    floor and whose u is not in done.  The bracket is the span between
    the two neighbours, clipped 1e-12 off u = +-1.  Each turning point
    refined and each extremum it gives go into done, so neither is
    refined again."""
    steps = np.sign(np.diff(vals))
    found = []
    for i in (np.nonzero(steps[:-1] * steps[1:] < 0.0)[0] + 1).tolist():
        u, left, right = float(us[i]), float(us[i - 1]), float(us[i + 1])
        swing = min(abs(vals[i] - vals[i - 1]), abs(vals[i + 1] - vals[i]))
        if u in done or swing <= floor:
            continue
        done.add(u)
        sgn = float(steps[i - 1])     # +1 at a maximum, -1 at a minimum
        lo, hi = max(left, -1.0 + _ABS_EDGE), min(right, 1.0 - _ABS_EDGE)
        t, w = golden_max(lambda v: sgn * F.at_u(v), lo, hi)
        if t not in done and t not in (left, right):
            done.add(t)
            found.append((t, sgn * w))
    return found


def abs_norm(f: Distribution, tol: float = DEFAULT_TOL) -> AbsNormResult:
    """Variation of the primitive by partition sums over refined extrema.

    Each level's partition is the dyadic chart grid plus every extremum
    refined so far.  Each turning point of the partition that stands out
    of its neighbours by more than tol*(1+sum) is refined once by golden
    section, and the refined point stays for every later level.  The sum
    over the partition is a certified lower bound on the variation and
    never decreases.

    A level settles when the sum grows by at most tol*(1+sum) and no
    extremum is added; two settled levels in a row return the sum.  A
    level grows when an extremum is added and the sum grows by more than
    tol*(1+sum) and by more than _ABS_GROWTH of itself: a sum that
    diverges like the log of the resolution gains a fixed amount per
    level, while the last levels of a converging sum gain a vanishing
    share.
    _ABS_DIVERGENT_RUN growing levels report Divergent with the sum as
    the lower bound; a settled level resets the run, and any other level
    leaves it as it is.  No finite
    procedure can decide infinite variation; the verdict is
    evidence-grade.
    """
    F = f.primitive
    level = _ABS_START_LEVEL
    us = u_grid(2 ** level + 1)
    vals = F.at_u_many(us)
    done: set = set()
    extrema = 0
    prev_sum = None
    settled = growing_run = 0
    while True:
        if np.isnan(vals).any():
            raise BudgetExceeded(f"evaluator undefined inside abs_norm "
                                 f"partition at level {level}")
        cur = _variation_sum(vals)
        found = _refined_extrema(F, us, vals, done, tol * (1.0 + cur))
        if found:
            extrema += len(found)
            us, vals = _merged(us, vals, *map(np.array, zip(*found)))
            cur = _variation_sum(vals)
        if prev_sum is not None:
            inc = cur - prev_sum
            grew = inc > tol * (1.0 + cur)
            if not grew and not found:
                settled += 1
                growing_run = 0
                if settled >= 2:
                    return AbsNormResult(False, cur, level, extrema)
            else:
                settled = 0
                if grew and found and inc > _ABS_GROWTH * cur:
                    growing_run += 1
                    if growing_run >= _ABS_DIVERGENT_RUN:
                        return AbsNormResult(True, cur, level, extrema)
        prev_sum = cur
        if level == _ABS_MAX_LEVEL:
            raise BudgetExceeded(
                f"variation sums unsettled at level {level}: sum {cur:g} over "
                f"{extrema} refined extrema")
        level += 1
        mids = -1.0 + 2.0 ** (1 - level) * np.arange(1, 2 ** level, 2)
        us, vals = _merged(us, vals, mids, F.at_u_many(mids))


def _merged(us: np.ndarray, vals: np.ndarray, new_us: np.ndarray,
            new_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The partition (us, vals) with the points new_us added, sorted by u."""
    us = np.concatenate((us, new_us))
    order = np.argsort(us, kind="stable")
    return us[order], np.concatenate((vals, new_vals))[order]
