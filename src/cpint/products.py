"""Products with BV multipliers and the calculus built on them.

A distribution can be multiplied by a function of bounded variation:
the product is again integrable, with primitive
H(x) = F(x) g(x) - int_{-inf}^x F dg.  This module provides that
product, the resulting Hoelder-type bound, change of variables under a
merely continuous substitution, the second mean value theorem, and
Taylor expansion with the remainder expressed through the top stored
derivative alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bv import BVFunction, cut_at, normalize_nbv, rs_integral
from .cfun import (DEFAULT_TOL, ContinuousFunctionBar, TestFunction,
                   audit_on_interval, _safe)
from .chart import INF, NEG_INF, decompactify, scan_max, scan_root, u_grid
from .errors import DomainError, NonMonotone, ResidualTooLarge
from .space import Distribution, norm


def multiply_bv(f: Distribution, g: BVFunction,
                tol: float = DEFAULT_TOL) -> Distribution:
    """The product f*g as a Distribution.

    The primitive H is evaluated lazily; each call runs one Stieltjes
    integral, memoized per point.  H inherits continuity from F and g's
    bounded variation, so no fresh audit is run.
    """
    F = f.primitive
    cache: dict[float, float] = {}

    def rs_to(x: float) -> float:
        if x not in cache:
            cache[x] = rs_integral(F, g, NEG_INF, x, tol)
        return cache[x]

    def H(x: float) -> float:
        return F(x) * g(x) - rs_to(x)

    limit_pos = F.limit_pos * g.value_pos_inf - rs_to(INF)
    return Distribution(ContinuousFunctionBar(H, 0.0, limit_pos))


def integral_product(f: Distribution, g: BVFunction,
                     tol: float = DEFAULT_TOL) -> float:
    """Integral of f*g over the extended real line:
    F(inf) g(inf) - int F dg."""
    F = f.primitive
    return F.limit_pos * g.value_pos_inf - rs_integral(F, g, NEG_INF, INF, tol)


def pair_with_test(f: Distribution, phi: TestFunction,
                   tol: float = DEFAULT_TOL) -> float:
    """Action of f on a test function: -int F phi' = -int F dphi.

    The bump is C^inf except at its center, where phi' jumps from
    +a e^-1 / w to -a e^-1 / w, and monotone on each side of it.  So
    the Stieltjes integral splits there: as a BVFunction phi has four
    pieces, 0, rising to phi(center), falling, 0.
    """
    lo, hi = phi.support
    return integral_product(f, cut_at(phi.evaluator, [lo, phi.center, hi]),
                            tol)


@dataclass(frozen=True)
class HolderBound:
    """Both forms of the product bound for |int f g|."""

    jump_form: float      # |int f| inf|g~| + 2 ||f|| V(g~)
    bv_norm_form: float   # 2 ||f|| (|g(-inf)| + V g)


def holder_bound(f: Distribution, g: BVFunction) -> HolderBound:
    gt = normalize_nbv(g)
    nf = norm(f)
    total = abs(f.total)
    first = total * gt.inf_abs() + 2.0 * nf * gt.variation()
    second = 2.0 * nf * g.bv_norm()
    return HolderBound(first, second)


def change_of_variables(f: Distribution, G: Callable[[float], float],
                        a: float, b: float,
                        G_a: Optional[float] = None,
                        G_b: Optional[float] = None,
                        tol: float = DEFAULT_TOL) -> float:
    """Integral of (f o G) G' over [a, b], i.e. of f over [G(a), G(b)].

    G only needs to be continuous; no monotonicity or differentiability
    is required, so the answer is the endpoint formula F(G(b)) - F(G(a)).
    For infinite endpoints or substitutions escaping to +-inf, pass the
    endpoint values G_a / G_b explicitly (they may be +-inf).

    The audit runs on the composite F o G over a finite window of
    [a, b]: that composite is what the value depends on, and it stays
    bounded even when G itself escapes to infinity at an endpoint.
    """
    F = f.primitive
    if a > b:
        raise DomainError(f"change of variables over [{a}, {b}]")
    ga = G_a if G_a is not None else _safe(G, a)
    gb = G_b if G_b is not None else _safe(G, b)
    if math.isnan(ga) or math.isnan(gb):
        raise DomainError("G undefined at an endpoint; pass G_a / G_b")

    lo = a if math.isfinite(a) else min(-64.0, b - 1.0 if math.isfinite(b) else -64.0)
    hi = b if math.isfinite(b) else max(64.0, a + 1.0 if math.isfinite(a) else 64.0)
    # shrink away from endpoints where G may be unbounded
    span = hi - lo
    audit_on_interval(lambda t: F(_safe(G, t)), lo + 1e-9 * span,
                      hi - 1e-9 * span, tol)
    return F(gb) - F(ga)


def _is_monotone(g: BVFunction) -> bool:
    # monotone exactly when nothing backtracks: the variation equals the
    # total rise
    return abs(g.variation()
               - abs(g.value_pos_inf - g.value_neg_inf)) <= 1e-12 * (
                   1.0 + g.variation())


def second_mvt_xi(f: Distribution, g: BVFunction,
                  tol: float = DEFAULT_TOL) -> float:
    """Leftmost xi with int fg = g(-inf) F(xi) + g(inf) (F(inf) - F(xi)).

    Requires monotone g.  For constant g every xi works and -inf is
    returned by convention.
    """
    if not _is_monotone(g):
        raise NonMonotone("second mean value theorem needs monotone g")
    ga, gb = g.value_neg_inf, g.value_pos_inf
    F = f.primitive
    if ga == gb:
        return NEG_INF
    total = integral_product(f, g, tol)
    target = (gb * F.limit_pos - total) / (gb - ga)

    def residual(x: float) -> float:
        return ga * F(x) + gb * (F.limit_pos - F(x)) - total

    u = scan_root(lambda t: F.at_u(t) - target, u_grid(4097),
                  F.on_grid(4097) - target, tol)
    if u is None:
        raise ResidualTooLarge("no xi found: engine inconsistency")
    xi = decompactify(u)
    if abs(residual(xi)) > 1e-8 * (1.0 + abs(total)):
        raise ResidualTooLarge(
            f"identity residual {residual(xi):g} at xi={xi!r}")
    return xi


@dataclass(frozen=True)
class TaylorInput:
    """Data for an order-n expansion at a on [a, b].

    top_derivative evaluates the n-th derivative; coefficients hold
    f^(k)(a) for k = 0..n.
    """

    n: int
    a: float
    b: float
    top_derivative: Callable[[float], float]
    coefficients: Sequence[float]

    def __post_init__(self):
        if self.n < 0 or len(self.coefficients) != self.n + 1:
            raise DomainError("need coefficients f^(k)(a) for k = 0..n")
        if not (math.isfinite(self.a) and math.isfinite(self.b)
                and self.a < self.b):
            raise DomainError("expansion window [a, b] must be finite")


@dataclass(frozen=True)
class TaylorResult:
    polynomial: float
    remainder: float
    bound_pointwise: float
    bound_uniform: float


def _max_deviation(fn, a: float, x: float, ref: float) -> float:
    """max over [a, x] of |fn - ref|, by sampling plus local refinement."""
    if x == a:
        return 0.0
    xs = [a + (x - a) * i / 2048 for i in range(2049)]
    vals = [abs(fn(t) - ref) for t in xs]
    return scan_max(lambda t: abs(fn(t) - ref), xs, vals, 8)


def taylor_expand(inp: TaylorInput, x: float,
                  tol: float = DEFAULT_TOL) -> TaylorResult:
    """Order-n Taylor polynomial and distributional remainder at x.

    The remainder needs f^(n+1), which exists only distributionally; one
    integration by parts expresses it through f^(n) alone:
    R_n(x) = [-f^(n)(a) (x-a)^n + n int_a^x f^(n)(t) (x-t)^(n-1) dt] / n!.
    The n int term is the Stieltjes integral int_a^x f^(n) dg for
    g(t) = -(x-t)^n, which rises monotonically on [a, x].
    """
    n, a = inp.n, inp.a
    if not (a <= x <= inp.b):
        raise DomainError(f"x={x} outside expansion window [{a}, {inp.b}]")
    fn = inp.top_derivative
    poly = sum(c * (x - a) ** k / math.factorial(k)
               for k, c in enumerate(inp.coefficients))
    if n == 0:
        rem = fn(x) - fn(a)
    elif x == a:
        rem = 0.0
    else:
        g = cut_at(lambda t: -(x - t) ** n, [a, x])
        # the limits at +-inf are never read on [a, x]
        F = ContinuousFunctionBar(fn, 0.0, 0.0)
        kernel_int = rs_integral(F, g, a, x, tol)
        rem = (-fn(a) * (x - a) ** n + kernel_int) / math.factorial(n)

    dev_x = _max_deviation(fn, a, x, fn(a))
    dev_b = _max_deviation(fn, a, inp.b, fn(a))
    bound_pt = (x - a) ** n * dev_x / math.factorial(n)
    bound_uni = (inp.b - a) ** n * dev_b / math.factorial(n)
    return TaylorResult(poly, rem, bound_pt, bound_uni)
