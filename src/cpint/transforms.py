"""Half-plane Poisson integral, Laplace transform, and exponentially
weighted integrals for distributions carried by continuous primitives.

Every transform value is one product integral against an explicitly
decomposed BV kernel, so the Hoelder bound controls all truncation and
the integral itself stays endpoint evaluation underneath.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .bv import BVFunction, Piece, constant, cut_at, monotone, rs_integral
from .cfun import DEFAULT_TOL, ContinuousFunctionBar, _settled, _tail_limit
from .chart import INF, NEG_INF, illinois_zero
from .errors import BudgetExceeded, DomainError, NoLimitAtInfinity
from .products import integral_product
from .space import Distribution

_TAIL_SAFETY = 5.0


@dataclass(frozen=True)
class HalfPlanePoint:
    x: float
    y: float

    def __post_init__(self):
        if not (self.y > 0.0):
            raise DomainError("Poisson evaluation needs y > 0")


def poisson_kernel_bv(x: float, y: float) -> BVFunction:
    """t -> y / (pi ((x-t)^2 + y^2)) as a two-piece monotone BVFunction;
    variation 2/(pi y).  Raises DomainError where pi y^2 overflows, from
    y of about 7.6e153 on: the kernel would read 0.0 at its peak."""
    if not math.isfinite(math.pi * y * y):
        raise DomainError("Poisson kernel needs pi y^2 finite")
    peak = 1.0 / (math.pi * y)

    def K(t: float) -> float:
        try:
            return y / (math.pi * ((x - t) ** 2 + y * y))
        except OverflowError:   # |x - t| > 1.3e154; 0.0 from 7.6e153 on
            return 0.0

    return BVFunction([Piece(NEG_INF, x, K, 0.0, peak),
                       Piece(x, INF, K, peak, 0.0)])


def poisson(f: Distribution, p: HalfPlanePoint,
            tol: float = DEFAULT_TOL) -> float:
    """Harmonic extension u(x, y) of f to the upper half plane."""
    return integral_product(f, poisson_kernel_bv(p.x, p.y), tol)


def laplacian_probe(f: Distribution, p: HalfPlanePoint, h: float,
                    tol: float = 1e-13) -> float:
    """Centered five-point finite-difference Laplacian of the Poisson
    extension at p; the true Laplacian is zero, so the probe measures
    only the O(h^2) discretization residual."""
    if not (0.0 < h < p.y):
        raise DomainError("need 0 < h < y for the five-point stencil")
    u = lambda x, y: poisson(f, HalfPlanePoint(x, y), tol)
    c = u(p.x, p.y)
    return (u(p.x + h, p.y) + u(p.x - h, p.y)
            + u(p.x, p.y + h) + u(p.x, p.y - h) - 4.0 * c) / (h * h)


def boundary_norm_gap(f: Distribution, y: float,
                      probes: int = 21,
                      tol: float = DEFAULT_TOL) -> float:
    """Estimate of the Alexiewicz distance between u(., y) and f.

    The primitive of u(., y) at x is itself a product integral of f
    against the monotone kernel t -> (arctan((x-t)/y) + pi/2)/pi, so the
    gap is the sup over probe points of the primitive difference.
    """
    if not y > 0.0:
        raise DomainError("boundary gap needs y > 0")
    if probes < 2:
        raise DomainError(f"boundary gap needs probes >= 2, got {probes!r}")
    F = f.primitive
    gap = 0.0
    xs = [-10.0 + 20.0 * i / (probes - 1) for i in range(probes)]
    for x in xs:
        g = monotone(lambda t, x=x: (math.atan((x - t) / y) + math.pi / 2)
                     / math.pi, 1.0, 0.0)
        U = integral_product(f, g, tol)
        gap = max(gap, abs(U - F(x)))
    return gap


def _laplace_cuts(x: float, y: float, phi: float, n: int,
                  T: float) -> list[float]:
    """Extrema on (0, T), ascending, of k(t) = t^n e^(-xt) cos(yt + phi)
    for x > 0 and y != 0.

    k'(t) = t^(n-1) e^(-xt) |n - zt| cos(psi(t)), with the phase
    psi(t) = yt + phi - atan2(-yt, n - xt), so the extrema are where psi
    passes pi/2 + k pi.  psi is strictly monotone: the atan2 term is the
    angle of the ray (n, 0) + t(-x, -y), which turns one way only, from
    0 at t = 0+ (n >= 1) towards beta = atan2(-y, -x).  For n = 0 it is
    beta throughout, and each extremum is read off directly.  For n >= 1
    the one at c = pi/2 + k pi lies between (c - phi)/y and
    (c - phi + beta)/y, where it is solved by illinois_zero.
    """
    beta = math.atan2(-y, -x)

    def psi(t: float) -> float:
        return y * t + phi - math.atan2(-y * t, n - x * t)

    psi_0 = phi - beta if n == 0 else phi     # psi(0+)
    lo, hi = sorted((psi_0, psi(T)))
    cuts = []
    for k in range(math.floor(lo / math.pi - 0.5) + 1,
                   math.ceil(hi / math.pi - 0.5)):
        c = math.pi / 2 + k * math.pi
        if n == 0:
            t = (c - phi + beta) / y
        else:
            a, b = sorted(((c - phi) / y, (c - phi + beta) / y))
            fa, fb = psi(a) - c, psi(b) - c
            if fa * fb < 0.0:
                t = illinois_zero(lambda s: psi(s) - c, a, fa, b, fb)
            else:   # rounding put the zero on an end
                t = a if abs(fa) <= abs(fb) else b
        if 0.0 < t < T:
            cuts.append(t)
    cuts.sort()
    return cuts


def _laplace_kernel_bv(z: complex, part: str, n: int,
                       tol: float) -> BVFunction:
    """t^n e^(-zt) (real or imaginary part) on [0, inf) as a BVFunction,
    constant on (-inf, 0] and truncated at T, where the envelope is below
    tolerance; between 0 and T it is cut at its extrema (_laplace_cuts)."""
    x, y = z.real, z.imag

    def kernel(t: float) -> float:
        w = (t ** n if n else 1.0) * cmath.exp(-z * t)
        return w.real if part == "re" else w.imag

    if x <= 0.0:
        raise DomainError("kernel decomposition needs re(z) > 0")
    if y == 0.0 and part == "im":
        return constant(0.0)
    if y == 0.0 and n == 0:
        # plain exponential: single monotone piece, no truncation
        return BVFunction([Piece(NEG_INF, 0.0, lambda t: 1.0, 1.0, 1.0),
                           Piece(0.0, INF, lambda t: math.exp(-x * t),
                                 1.0, 0.0)])
    T = (math.log(1.0 / tol) + _TAIL_SAFETY + n * max(
        0.0, math.log1p(n / x))) / x
    if y == 0.0:
        cuts = [n / x] if n / x < T else []
    else:
        cuts = _laplace_cuts(x, y, 0.0 if part == "re" else math.pi / 2,
                             n, T)
    return cut_at(kernel, [0.0] + cuts + [T])


def laplace(f: Distribution, z: complex,
            tol: float = DEFAULT_TOL) -> complex:
    """Laplace transform of a distribution supported on [0, inf)."""
    return laplace_derivative(f, z, 0, tol)


def laplace_derivative(f: Distribution, z: complex, n: int,
                       tol: float = DEFAULT_TOL) -> complex:
    """n-th derivative of the transform: (-1)^n int f(t) t^n e^(-zt) dt.

    Differentiation passes under the integral because the difference
    kernels have uniformly bounded variation for re(z) > 0.  For n = 0
    the transform is also defined at z = 0, where it is the total.
    """
    if n < 0:
        raise DomainError("derivative order must be nonnegative")
    if n == 0 and z == 0.0:
        return complex(f.total, 0.0)
    if not z.real > 0.0:
        raise DomainError("Laplace transform needs re(z) > 0, or z = 0 "
                          "for order 0")
    re = integral_product(f, _laplace_kernel_bv(z, "re", n, tol), tol)
    im = integral_product(f, _laplace_kernel_bv(z, "im", n, tol), tol)
    if n == 0:
        return complex(re, im)
    return (-1.0 if n % 2 else 1.0) * complex(re, im)


def growth_probe(f: Distribution, alpha: float, radii,
                 angles: int = 33, tol: float = DEFAULT_TOL) -> list[float]:
    """max |Laplace transform| on cone arcs |arg z| <= alpha at each
    radius; decreasing values are evidence for the o(1) decay."""
    if not (0.0 <= alpha < math.pi / 2):
        raise DomainError("cone half-angle must lie in [0, pi/2)")
    if angles < 1:
        raise DomainError(f"growth probe needs angles >= 1, got {angles!r}")
    out = []
    for r in radii:
        best = 0.0
        for i in range(angles):
            theta = -alpha + 2.0 * alpha * i / max(1, angles - 1)
            z = complex(r * math.cos(theta), r * math.sin(theta))
            best = max(best, abs(laplace(f, z, tol)))
        out.append(best)
    return out


def weighted_integral(F_loc, r: float, tol: float = DEFAULT_TOL) -> float:
    """int_0^inf f(t) e^(-rt) dt for f the derivative of F_loc, r >= 0.

    Uses the identity F_r(x) = F(x) e^(-rx) - F(0) + int_0^x F d(-e^(-rt))
    whose last term converges absolutely; membership in the weighted
    space is decided by a tail audit of F_r.  For r = 0 that is the tail
    audit of F itself.  For r > 0 the audit samples F_r at
    x_k = cap (1 - 2^-k), k = 1..8, with cap = (log(1/tol) + 50)/r: that
    is where a divergent F_r (for F = e^(2x) at r = 1) still grows.  The
    samples must settle, by cfun's rule at sqrt(tol), and the value is
    F_r(x_8).  One sweep of rs_integral over [x_(k-1), x_k], each to
    tol/10, builds the Stieltjes term.  A call of F_loc that raises one
    of errors.UNDEFINED reads as NaN; an undefined F(0) raises.
    """
    if r < 0.0:
        raise DomainError("weighted integral needs r >= 0")
    # the limits at +-inf are never read on [0, cap]
    F = ContinuousFunctionBar(F_loc, 0.0, 0.0)
    F0 = F(0.0)
    if not math.isfinite(F0):
        raise BudgetExceeded(f"weighted integral: F(0.0) is {F0!r}")
    if r == 0.0:
        return _tail_limit(F_loc, +1, tol) - F0
    kernel = monotone(lambda t: -math.exp(-r * t), NEG_INF, 0.0)
    cap = (math.log(1.0 / tol) + 50.0) / r
    samples = []
    lo = stieltjes = 0.0
    for k in range(1, 9):
        x = cap * (1.0 - 2.0 ** -k)
        stieltjes += rs_integral(F, kernel, lo, x, tol)
        lo = x
        v = F(x) * math.exp(-r * x) - F0 + stieltjes
        if not math.isfinite(v):
            raise NoLimitAtInfinity("weighted primitive overflows")
        samples.append((x, v))
    _settled(samples, math.sqrt(tol))
    return samples[-1][1]
