"""Primitive construction by quadrature, including oscillatory tails.

The integral itself is always endpoint evaluation; this module only
builds primitives.  For integrands with a settling cumulative integral
the primitive is plain adaptive quadrature.  For oscillatory integrands
whose cumulative integral converges conditionally (the interesting
case), the tail limit is extracted by partitioning at sign changes and
accelerating the alternating lobe series.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .cfun import DEFAULT_TOL
from .errors import NoLimitAtInfinity
from .space import Distribution, distribution_from_evaluator

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(20)

_MAX_LOBES = 20000
_SCAN_WINDOW = 60.0       # no sign change within this => not oscillatory
_ACCEL_TAIL = 40          # partial sums fed to the epsilon algorithm
_MODEL_DECAY = 3          # tail model exponent past the lobe cutoff
_DEFECT_TARGET = 1e-2     # lobes are summed exactly down to this area


def gauss_segment(fn, a: float, b: float) -> float:
    """Fixed 20-node Gauss-Legendre rule on [a, b]; fn must accept arrays."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(_GAUSS_WEIGHTS, fn(mid + half * _GAUSS_NODES)))


def epsilon_limit(partial_sums) -> float:
    """Wynn's epsilon algorithm; returns the top even-column estimate."""
    s = list(partial_sums)
    n = len(s)
    if n == 1:
        return s[0]
    prev2 = [0.0] * (n + 1)
    prev1 = s
    best = s[-1]
    for _ in range(n - 1):
        cur = []
        for j in range(len(prev1) - 1):
            d = prev1[j + 1] - prev1[j]
            if d == 0.0:
                return prev1[j + 1]
            cur.append(prev2[j + 1] + 1.0 / d)
        prev2, prev1 = prev1, cur
        if len(prev1) >= 1 and len(prev2) >= 2:
            # even columns of the table hold the extrapolants
            if (n - len(prev1)) % 2 == 0:
                best = prev1[-1]
    return best


def _scan_sign_changes(fn, start: float, first_step: float):
    """Generator of consecutive sign-change points of fn after start."""
    t = start
    v = fn(np.array([t]))[0]
    step = first_step
    last_z = None
    while True:
        t2 = t + step
        v2 = fn(np.array([t2]))[0]
        if v == 0.0:
            v = v2
            t = t2
            continue
        if v * v2 < 0.0:
            a, b = t, t2
            fa = v
            for _ in range(100):
                m = 0.5 * (a + b)
                fm = fn(np.array([m]))[0]
                if fm == 0.0 or (b - a) < 1e-15 * (1.0 + abs(m)):
                    a = b = m
                    break
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            z = 0.5 * (a + b)
            if last_z is not None:
                step = 0.35 * (z - last_z)
            last_z = z
            yield z
            t, v = t2, v2
        else:
            t, v = t2, v2


@dataclass(frozen=True)
class HakeResult:
    """Outcome of building a primitive from an integrand on [a, inf)."""

    distribution: Distribution
    total: float          # integral over [a, inf)
    lobes_used: int       # 0 for the non-oscillatory path
    cutoff: float         # evaluator switches to the tail model here
    defect_bound: float   # sup distance between stored and true primitive


def _oscillatory_total(fn_vec, start, zeros) -> tuple[float, list, np.ndarray]:
    """Accelerated limit of the cumulative integral along lobe sums.

    Acceleration alone would assign Abel-style values to divergent
    oscillations like sin(x), so convergence additionally requires the
    lobe areas themselves to decay.  After the limit settles, lobes keep
    being accumulated until one drops below _DEFECT_TARGET, which bounds
    the tail-model defect of the stored primitive.
    """
    zs = [start]
    areas = []
    sums = []
    total = None
    settled = 0
    decay_failures = 0
    prev_est = None
    for z in zeros:
        area = gauss_segment(fn_vec, zs[-1], z)
        areas.append(area)
        sums.append((sums[-1] if sums else 0.0) + area)
        zs.append(z)
        if total is None and len(sums) >= 10:
            est = epsilon_limit(sums[-_ACCEL_TAIL:])
            if prev_est is not None and abs(est - prev_est) < 1e-13 * (
                    1.0 + abs(est)):
                settled += 1
            else:
                settled = 0
            prev_est = est
            if settled >= 3:
                head = np.mean(np.abs(areas[:5]))
                tail = np.mean(np.abs(areas[-5:]))
                if tail < 0.9 * head:
                    total = est
                else:
                    decay_failures += 1
                    settled = 0
                    if decay_failures >= 5:
                        raise NoLimitAtInfinity(
                            "lobe areas do not decay; the cumulative "
                            "integral has no limit")
        if total is not None and abs(area) < _DEFECT_TARGET:
            break
        if len(zs) > _MAX_LOBES:
            break
    if total is None:
        raise NoLimitAtInfinity(
            "lobe sums did not settle within the lobe budget")
    return total, zs, np.array(sums)


def hake_from_integrand(integrand, a: float = 0.0,
                        tol: float = DEFAULT_TOL) -> HakeResult:
    """Primitive of an integrand on [a, inf), extended by 0 left of a.

    Non-oscillatory integrands go through plain adaptive quadrature.
    Oscillatory ones are partitioned at sign changes; the alternating
    lobe series is accelerated for the limit, lobes are accumulated
    exactly up to the point where one lobe is smaller than
    _DEFECT_TARGET, and past that cutoff the stored primitive follows a
    smooth decaying tail model.  The sup-norm gap between the stored and
    the true primitive is bounded by defect_bound on the result; the
    total over [a, inf) is not affected by the model.
    """
    fn_vec = np.vectorize(integrand, otypes=[float])

    # probe for oscillation: any sign change in the scan window?
    probe = np.linspace(a, a + _SCAN_WINDOW, 4096)
    vals = fn_vec(probe)
    has_change = np.any(vals[:-1] * vals[1:] < 0.0)

    if not has_change:
        total, _ = integrate.quad(integrand, a, np.inf, limit=400)

        def F(x, a=a, total=total):
            if x <= a:
                return 0.0
            if x <= a + 200.0:
                return integrate.quad(integrand, a, x, limit=200)[0]
            return total - integrate.quad(integrand, x, np.inf, limit=200)[0]

        dist = distribution_from_evaluator(F, 0.0, total, tol)
        return HakeResult(dist, total, 0, math.inf, 0.0)

    total, zs, sums = _oscillatory_total(
        fn_vec, a, _scan_sign_changes(fn_vec, a, 0.5))

    # accumulate lobes exactly until one is below the defect target
    cut_idx = len(sums) - 1
    for i in range(1, len(sums)):
        if abs(sums[i] - sums[i - 1]) < _DEFECT_TARGET:
            cut_idx = i
            break
    cutoff = zs[cut_idx + 1]
    S_cut = float(sums[cut_idx])
    tail_cut = total - S_cut
    defect = abs(tail_cut) + (abs(sums[cut_idx] - sums[cut_idx - 1])
                              if cut_idx >= 1 else 0.0)
    knots = zs[:cut_idx + 2]
    knot_sums = np.concatenate([[0.0], sums[:cut_idx + 1]])

    def F(x, a=a, knots=knots, knot_sums=knot_sums, total=total,
          cutoff=cutoff, tail_cut=tail_cut):
        if x <= a:
            return 0.0
        if x >= cutoff:
            return total - tail_cut * (cutoff / x) ** _MODEL_DECAY
        i = bisect_right(knots, x) - 1
        return float(knot_sums[i]) + gauss_segment(fn_vec, knots[i], x)

    dist = distribution_from_evaluator(F, 0.0, total, tol)
    return HakeResult(dist, total, len(zs) - 1, cutoff, defect)
