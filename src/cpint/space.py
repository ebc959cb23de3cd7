"""The space of integrable distributions carried by continuous primitives.

A distribution f belongs to the space exactly when it is the
distributional derivative of a continuous primitive F on the extended
real line with F(-inf) = 0.  Integration is then endpoint evaluation:
the integral of f over [a, b] is F(b) - F(a), always two evaluator
calls.  All numerical work lives in constructing primitives and in
norms, never in the integral itself.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chart import u_grid
from .cfun import (DEFAULT_TOL, ContinuousFunctionBar, build_continuous,
                   extremes, sup_norm, _audited, _tail_limit, _with_many)
from .errors import IntervalEmpty

_EQUALITY_GRID = 1025


class NormKind(enum.Enum):
    ALEXIEWICZ = "alexiewicz"
    INTERVAL_SUP = "interval_sup"
    DUAL_BV_LOWER = "dual_bv_lower"


@dataclass(frozen=True)
class Distribution:
    """An integrable distribution, stored as its anchored primitive.

    The primitive has limit_neg = 0 by construction; use
    :func:`try_from_primitive` rather than building instances directly.
    """

    primitive: ContinuousFunctionBar

    @property
    def total(self) -> float:
        """Integral over the whole extended real line."""
        return self.primitive.limit_pos


def try_from_primitive(F: ContinuousFunctionBar) -> Distribution:
    """Anchor F at -inf and wrap it as a Distribution.

    The primitive of a distribution is unique up to a constant, so the
    shift by -F(-inf) selects the canonical representative.
    """
    if F.limit_neg == 0.0:
        return Distribution(F)
    return Distribution(F.shifted(-F.limit_neg))


def distribution_from_evaluator(evaluator: Callable[[float], float],
                                limit_neg: float, limit_pos: float,
                                tol: float = DEFAULT_TOL) -> Distribution:
    """Audit the claimed primitive, then anchor and wrap it."""
    return try_from_primitive(
        build_continuous(evaluator, limit_neg, limit_pos, tol))


_ZERO = Distribution(ContinuousFunctionBar(
    _with_many(lambda x: 0.0, np.zeros_like), 0.0, 0.0))


def zero() -> Distribution:
    return _ZERO


def integral(f: Distribution, a: float, b: float) -> float:
    """Integral of f over [a, b]: two evaluator calls on the primitive."""
    if a > b:
        raise IntervalEmpty(f"integral over [{a}, {b}]")
    if a == b:
        return 0.0
    F = f.primitive
    return F(b) - F(a)


def norm(f: Distribution, kind: NormKind = NormKind.ALEXIEWICZ) -> float:
    """Norm of f through its primitive F.

    alexiewicz      sup over the extended line of |F|
    interval_sup    sup F - inf F, the supremum of |F(b) - F(a)| over
                    all intervals
    dual_bv_lower   max(sup F, -inf F), the lower bound for the dual
                    pairing norm obtained from half-line indicators
    """
    if kind is NormKind.ALEXIEWICZ:
        return sup_norm(f.primitive)
    hi, lo = extremes(f.primitive)
    if kind is NormKind.INTERVAL_SUP:
        return hi - lo
    if kind is NormKind.DUAL_BV_LOWER:
        return max(hi, -lo)
    raise ValueError(f"unknown norm kind {kind!r}")


def translate(f: Distribution, t: float) -> Distribution:
    """The translate tau_t f, with primitive x -> F(x - t); isometric."""
    if not math.isfinite(t):
        raise ValueError("translation distance must be finite")
    return Distribution(f.primitive.translated(t))


def linear_combine(a: float, f: Distribution, g: Distribution) -> Distribution:
    """The distribution a*f + g; its primitive is a*F + G."""
    return Distribution(f.primitive.scaled(a).plus(g.primitive))


def equal(f: Distribution, g: Distribution,
          tol: float = DEFAULT_TOL) -> bool:
    """Audit-grid equality of primitives, read from one array of F - G; a
    semi-decision, as any finite comparison of function values must be.
    Its default tol is that of lattice.compare, so the two agree on what
    counts as equal.  A NaN difference is not within tol."""
    us = u_grid(_EQUALITY_GRID)
    with np.errstate(all="ignore"):
        d = f.primitive.at_u_many(us) - g.primitive.at_u_many(us)
    return bool(np.all(np.abs(d) <= tol))


def hake_extend(F_finite: Callable[[float], float],
                tol: float = DEFAULT_TOL) -> Distribution:
    """Extend a continuous function on the finite reals to a primitive.

    If both tail limits exist (audited geometrically) the extension lies
    in the space and there is nothing "improper" left to take a limit
    of.  Raises NoLimitAtInfinity when a tail does not settle, e.g. for
    sin(x).  The limits are the means of the tail samples, which have
    settled onto them, so only the oscillation audit remains.
    """
    limit_pos = _tail_limit(F_finite, +1, tol)
    limit_neg = _tail_limit(F_finite, -1, tol)
    return try_from_primitive(_audited(
        ContinuousFunctionBar(F_finite, limit_neg, limit_pos), tol))
