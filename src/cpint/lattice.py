"""Order and lattice structure through primitives.

The order is f <= g exactly when the primitives satisfy F <= G
pointwise on the extended real line.  Join and meet are pointwise max
and min of primitives; the positive, negative and absolute parts come
from the same operations against zero.  The absolute-integrability norm
is the variation of the primitive, estimated by refining partition sums
with an explicit divergence verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cfun import DEFAULT_TOL, ContinuousFunctionBar
from .chart import decompactify, uniform_u_grid
from .errors import BudgetExceeded
from .space import Distribution

_COMPARE_GRID = 4097
_ABS_START_LEVEL = 4
_ABS_MAX_LEVEL = 18
_ABS_DIVERGENT_RUN = 8
_ABS_SHRINK_RATIO = 0.8


class Order(enum.Enum):
    LESS_OR_EQUAL = "LessOrEqual"
    GREATER_OR_EQUAL = "GreaterOrEqual"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


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
    """Grid-audited pointwise comparison of the primitives."""
    F, G = f.primitive, g.primitive
    below = above = None
    for u in uniform_u_grid(_COMPARE_GRID):
        d = F.at_u(u) - G.at_u(u)
        if d < -tol and below is None:
            below = decompactify(u)
        elif d > tol and above is None:
            above = decompactify(u)
        if below is not None and above is not None:
            return OrderResult(Order.INCOMPARABLE, below, above)
    if below is None and above is None:
        return OrderResult(Order.EQUAL)
    if above is None:
        return OrderResult(Order.LESS_OR_EQUAL, witness_below=below)
    return OrderResult(Order.GREATER_OR_EQUAL, witness_above=above)


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
    F = f.primitive
    zero = ContinuousFunctionBar(lambda x: 0.0, 0.0, 0.0)
    f_plus = Distribution(F.pointwise_max(zero))
    f_minus = Distribution(F.pointwise_min(zero).scaled(-1.0))
    f_abs = Distribution(F.pointwise_abs())
    return f_plus, f_minus, f_abs


@dataclass(frozen=True)
class AbsNormResult:
    """Variation estimate of the primitive, or a divergence verdict."""

    divergent: bool
    value: float          # the variation, or a certified lower bound
    levels_used: int


def _variation_sum(vals: np.ndarray) -> float:
    """sum |v[i+1] - v[i]|, added left to right in Python floats."""
    return sum(np.abs(np.diff(vals)).tolist())


def abs_norm(f: Distribution, tol: float = DEFAULT_TOL) -> AbsNormResult:
    """Variation of the primitive by dyadic partition sums in the chart.

    The sums increase monotonically under refinement.  They either
    settle (finite variation, value returned) or keep growing with
    non-shrinking increments, which is reported as Divergent together
    with the largest sum reached as a lower bound.  No finite procedure
    can decide infinite variation; the verdict is evidence-grade.
    """
    F = f.primitive
    level = _ABS_START_LEVEL
    us = np.array(uniform_u_grid(2 ** level + 1))
    vals = F.at_u_many(us)
    prev_sum = _variation_sum(vals)
    growing_run = 0
    prev_inc = None
    settled = 0
    while level < _ABS_MAX_LEVEL:
        level += 1
        mids = 0.5 * (us[:-1] + us[1:])
        merged_us = np.empty(2 * len(us) - 1)
        merged_vals = np.empty_like(merged_us)
        merged_us[::2], merged_us[1::2] = us, mids
        merged_vals[::2], merged_vals[1::2] = vals, F.at_u_many(mids)
        us, vals = merged_us, merged_vals
        cur = _variation_sum(vals)
        inc = cur - prev_sum
        if inc <= tol * (1.0 + cur):
            settled += 1
            growing_run = 0
            if settled >= 2:
                return AbsNormResult(False, cur, level)
        else:
            settled = 0
            shrinking = prev_inc is not None and inc < _ABS_SHRINK_RATIO * prev_inc
            growing_run = 0 if shrinking else growing_run + 1
            if growing_run >= _ABS_DIVERGENT_RUN:
                return AbsNormResult(True, cur, level)
        prev_inc = inc
        prev_sum = cur
    if growing_run >= 2:
        # still increasing at the last level: divergence evidence with the
        # last sum as a certified lower bound
        return AbsNormResult(True, prev_sum, level)
    raise BudgetExceeded(
        f"variation sums still shrinking but unsettled at level {level}, "
        f"current sum {prev_sum:g}")
