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

from .cfun import DEFAULT_TOL
from .chart import decompactify, refined_extrema, u_grid
from .errors import BudgetExceeded, check_tol
from .space import Distribution, zero

_COMPARE_GRID = 4097
_ABS_START_LEVEL = 4
_ABS_MAX_LEVEL = 18
_ABS_DIVERGENT_RUN = 8
_ABS_GROWTH = 1e-3


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
    side.  A NaN difference shows neither side.  A negative or NaN tol
    raises DomainError."""
    check_tol(tol, "compare")
    us = u_grid(_COMPARE_GRID)
    with np.errstate(all="ignore"):
        d = (f.primitive.on_grid(_COMPARE_GRID)
             - g.primitive.on_grid(_COMPARE_GRID))
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

    Each level reads its dyadic grid through F.on_grid, so F's table
    grows to the finest level read.
    """
    check_tol(tol, "abs_norm")
    F = f.primitive
    ext_u = ext_v = np.empty(0)     # the extrema refined so far
    done: set = set()
    prev_sum = None
    settled = growing_run = 0
    for level in range(_ABS_START_LEVEL, _ABS_MAX_LEVEL + 1):
        n = 2 ** level + 1
        us, vals = _merged(u_grid(n), F.on_grid(n), ext_u, ext_v)
        if np.isnan(vals).any():
            raise BudgetExceeded(f"evaluator undefined inside abs_norm "
                                 f"partition at level {level}")
        cur = _variation_sum(vals)
        found = refined_extrema(F.at_u, us, vals, done, tol * (1.0 + cur))
        if found:
            new_u, new_v = map(np.array, zip(*found))
            ext_u, ext_v = np.append(ext_u, new_u), np.append(ext_v, new_v)
            us, vals = _merged(us, vals, new_u, new_v)
            cur = _variation_sum(vals)
        if prev_sum is not None:
            inc = cur - prev_sum
            grew = inc > tol * (1.0 + cur)
            if not grew and not found:
                settled += 1
                growing_run = 0
                if settled >= 2:
                    return AbsNormResult(False, cur, level, len(ext_u))
            else:
                settled = 0
                if grew and found and inc > _ABS_GROWTH * cur:
                    growing_run += 1
                    if growing_run >= _ABS_DIVERGENT_RUN:
                        return AbsNormResult(True, cur, level, len(ext_u))
        prev_sum = cur
    raise BudgetExceeded(
        f"variation sums unsettled at level {level}: sum {cur:g} over "
        f"{len(ext_u)} refined extrema")


def _merged(us: np.ndarray, vals: np.ndarray, new_us: np.ndarray,
            new_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The partition (us, vals) with the points new_us added, sorted by u."""
    us = np.concatenate((us, new_us))
    order = np.argsort(us, kind="stable")
    return us[order], np.concatenate((vals, new_vals))[order]
