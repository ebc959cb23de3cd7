"""Primitive construction by quadrature, including oscillatory tails.

The integral itself is always endpoint evaluation; this module only
builds primitives, each as a table of Chebyshev series, one row per
segment, so that evaluating a primitive calls no integrand.  Each table
also has an array form (see cfun), one vectorised pass over all points
that equals the scalar evaluator bit for bit.  Both tables come from
the same 20-node Gauss segment rule, bisected by bv's worst-first loop,
which evaluates a round of segments in one pass of the rule.
One scan of the integrand's sign changes picks the path.  For
oscillatory integrands whose cumulative integral converges
conditionally (the interesting case), the integrand is partitioned at
its sign changes, and the tail limit is extracted by accelerating the
alternating series of lobe areas, in one loop (_oscillatory_total):
each pass runs the rule over the next lobes in one array pass
(_gauss_panels), one lobe until the limit has settled and many after
it, and a lobe whose first panel misses its goal continues in bv's
loop from that panel.  If the scan ends first, one run integrates
h (1+|x|)^2 over the chart.  Every table row is summed by one
Clenshaw recurrence (_clenshaw), on floats and on arrays alike.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import itemgetter

import numpy as np
from numpy.polynomial import chebyshev, legendre

from .bv import _goal, _refine
from .cfun import DEFAULT_TOL, _many, _safe
from .chart import compactify, decompactify, illinois_zero
from .errors import NoLimitAtInfinity, check_tol
from .space import Distribution, distribution_from_evaluator

# Chebyshev coefficients, on t in [-1, 1], of the interpolant through
# values at 20 Gauss-Legendre nodes, and of its antiderivative from -1,
# whose value at 1 is the Gauss rule
_GAUSS_NODES = legendre.leggauss(20)[0]
_GAUSS_INTERPOLANT = np.linalg.inv(chebyshev.chebvander(_GAUSS_NODES, 19))
_GAUSS_ANTIDERIVATIVE = chebyshev.chebint(_GAUSS_INTERPOLANT, lbnd=-1)
_GAUSS_SPAN = _GAUSS_NODES + 1.0     # node offsets in half widths from lo

_MAX_LOBES = 20000
_SEGMENT_CAP = 2 * _MAX_LOBES   # rows of either table
_SCAN_STEPS = 120         # steps without a sign change that end the scan
_ACCEL_TAIL = 40          # partial sums fed to the epsilon algorithm
_MODEL_DECAY = 3          # tail model exponent past the lobe cutoff
_DEFECT_TARGET = 1e-2     # lobes are summed exactly down to this area
_MAX_BATCH = 64           # lobes of one _gauss_panels pass
_DECAY_SPANS = (2, 4, 8, 16)   # lobes over which _batch_size reads the
                               # decay; even spans compare lobes of one sign


def epsilon_limit(partial_sums) -> float:
    """Wynn's epsilon algorithm; returns the top even-column estimate."""
    s = list(partial_sums)
    n = len(s)
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


def _clenshaw(c, t):
    """Sum of c[k] T_k(t) by Clenshaw's recurrence: on a Python float t
    with a list c, or elementwise on an array t with one column of c per
    point, by the same float operations in the same order."""
    t2 = t + t
    b1 = b2 = 0.0
    for ck in c[:0:-1]:
        b1, b2 = ck + t2 * b1 - b2, b1
    return c[0] + t * b1 - b2


def _primitive_table(segments: list[tuple]):
    """Evaluator and end value of the continuous piecewise Chebyshev
    series on abutting segments (lo, hi, row), in any order, whose row is
    an antiderivative that vanishes at lo.  Each row is offset by the sum
    of the rows to its left (T_k(1) = 1, so a row sums to its value at
    its right end).  A point is bisected to its segment and summed by
    _clenshaw; outside the knots the end segments extrapolate.  The
    evaluator's array form (see cfun) finds the segments by searchsorted
    and sums all points in one _clenshaw call."""
    segments = sorted(segments, key=itemgetter(0))
    knots = [lo for lo, _, _ in segments] + [segments[-1][1]]
    table = np.array([row for _, _, row in segments])
    ends = np.cumsum(table.sum(axis=1))
    table[1:, 0] += ends[:-1]
    last = len(segments) - 1
    columns = table.T.copy()     # columns[k] holds coefficient k of each row
    edges = np.array(knots)

    def at(s: float) -> float:
        i = min(max(bisect_right(knots, s) - 1, 0), last)
        lo, hi = knots[i], knots[i + 1]
        return _clenshaw(table[i].tolist(), (2.0 * s - lo - hi) / (hi - lo))

    def at_many(s: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, last)
        lo, hi = edges[i], edges[i + 1]
        return _clenshaw(columns[:, i], (2.0 * s - lo - hi) / (hi - lo))

    at.many = at_many
    return at, float(ends[-1])


def _scan_sign_changes(fn, start: float, first_step: float):
    """Generator of consecutive sign-change points of fn after start.  It
    ends after _SCAN_STEPS steps without a sign change; after the second
    zero a step is 0.35 of the last zero spacing.  A call of fn that
    raises, in the zero search too, reads as NaN (cfun._safe); NaN makes
    no sign change.  Scan points where fn is exactly 0 are passed over: a
    sign change across them yields the first of them, with no search."""
    fn = partial(_safe, fn)
    t = x = start
    v = fn(t)   # at t: start, or the last scan point where fn != 0
    step = first_step
    last_z = first_0 = None
    quiet = 0
    while quiet < _SCAN_STEPS:
        quiet += 1
        x += step
        v2 = fn(x)
        if v2 == 0.0:
            first_0 = x if first_0 is None else first_0
            continue
        if v * v2 < 0.0:
            z = illinois_zero(fn, t, v, x, v2) if first_0 is None else first_0
            if last_z is not None:
                step = 0.35 * (z - last_z)
            last_z = z
            quiet = 0
            yield z
        t, v, first_0 = x, v2, None


@dataclass(frozen=True)
class HakeResult:
    """Outcome of building a primitive from an integrand on [a, inf)."""

    distribution: Distribution
    total: float          # integral over [a, inf)
    lobes_used: int       # 0 for the settled path
    cutoff: float         # evaluator switches to the tail model here
    # estimated sup distance between the stored and the true primitive:
    # on the lobe path the tail model's jump at the cutoff plus the last
    # lobe's area, on the settled path the summed error estimate of the
    # final segments
    defect_bound: float


def _gauss_panels(h, los, his, *ends):
    """The Gauss segment rule of both tables, on k segments [lo, hi] at
    once, in the form bv._refine takes: h at the 20 nodes of each, read
    by cfun._many (h's array form where it has one, else one loop of
    calls, a call that raises reading as NaN, as in the scan), then one
    array pass.  Row i is a table row: the antiderivative, vanishing at
    lo, of the interpolant through h at the nodes of segment i.  Its
    estimate is half the width times the interpolant's last two
    coefficients, and its scale half the width times the summed |h| at
    the nodes.  The nodes are interior, so h is never evaluated at an
    end, and the segments carry no end states: ends are not read, and
    there are no midpoint states.  The products are stacked
    matrix-vector products, one BLAS call per segment, so a row's bits
    do not depend on the segments evaluated with it."""
    lo = np.array(los, dtype=float)
    half = 0.5 * (np.array(his, dtype=float) - lo)
    xs = lo[:, None] + half[:, None] * _GAUSS_SPAN
    vals = _many(h, xs.ravel()).reshape(xs.shape)
    c = np.matmul(_GAUSS_INTERPOLANT, vals[:, :, None])[:, -2:, 0]
    return (np.matmul(_GAUSS_ANTIDERIVATIVE, vals[:, :, None])[:, :, 0]
            * half[:, None],
            half * (np.abs(c[:, 0]) + np.abs(c[:, 1])),
            half * np.abs(vals).sum(axis=1), None)


def _batch_size(areas, allowed: int) -> int:
    """Lobes to evaluate in one pass once the total has settled: half
    the fewest lobes left before an area falls below _DEFECT_TARGET, as
    the geometric decay over each of the last _DECAY_SPANS lobes
    predicts, at most _MAX_BATCH and at most allowed; 1 where an area
    has not fallen over one of the spans.  On a power-law decay the
    geometric prediction falls short, so on decaying areas a pass does
    not read past the lobe that stops the loop; elsewhere it reads at
    most k - 1 lobes more than needed."""
    now = abs(areas[-1])
    left = 2.0 * _MAX_BATCH      # so that k is at most _MAX_BATCH
    for span in _DECAY_SPANS:
        span = min(span, len(areas) - 1)
        before = abs(areas[-1 - span])
        if not now < before:
            return 1
        left = min(left, span * math.log(now / _DEFECT_TARGET)
                   / math.log(before / now))
    return max(1, min(int(left / 2.0), allowed))


def _oscillatory_total(integrand, start, zeros, tol):
    """Accelerated limit of the cumulative integral along lobe sums, with
    the lobe boundary where the loop stopped, the number of lobes, the
    last lobe's area and the lobe table's segments; None if the zeros run
    out first, so that h keeps its sign after the last of them.

    The lobes end at the zeros.  Each pass of the loop takes the next
    lobes, one until the limit has settled and _batch_size after it, and
    runs one _gauss_panels pass over them.  A lobe whose panel meets its
    goal, by the test bv._refine makes on one segment, keeps that row;
    one that misses continues in bv._refine from that panel, so no node
    is evaluated twice.  The lobes of a pass are then summed one by one,
    each area the exact sum of its row sums, and those read past the
    stopping lobe are dropped.

    Acceleration alone would assign Abel-style values to divergent
    oscillations like sin(x), so convergence additionally requires the
    lobe areas themselves to decay.  After the limit settles, lobes keep
    being accumulated until one drops below _DEFECT_TARGET, which bounds
    the tail-model defect of the stored primitive.
    """
    rule = partial(_gauss_panels, integrand)
    zeros = iter(zeros)
    table = []
    areas = []
    sums = []
    total = None
    settled = 0
    decay_failures = 0
    prev_est = None
    lo = start
    while his := list(islice(zeros, 1 if total is None else _batch_size(
            areas, _MAX_LOBES - len(sums)))):
        los = [lo] + his[:-1]
        rows, err, scale, _ = rule(los, his)
        met = np.isfinite(err + scale) & (err <= _goal(tol, scale))
        row_areas = rows.sum(axis=1).tolist()
        for i, hi in enumerate(his):
            if met[i]:
                segments, area = [(los[i], hi, rows[i])], row_areas[i]
            else:
                segments, _ = _refine(
                    rule, [(los[i], hi, None, None, None)], tol, "lobe",
                    lambda _, x: x, _SEGMENT_CAP - len(table),
                    (rows[i:i + 1], err[i:i + 1], scale[i:i + 1], None))
                area = math.fsum(float(row.sum()) for _, _, row in segments)
            table += segments
            areas.append(area)
            sums.append((sums[-1] if sums else 0.0) + area)
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
            if (total is not None and abs(area) < _DEFECT_TARGET
                    or len(sums) >= _MAX_LOBES):
                if total is None:
                    raise NoLimitAtInfinity(
                        "lobe sums did not settle within the lobe budget")
                return total, hi, len(sums), area, table
        lo = his[-1]
    return None


def _settled_table(integrand, a: float, tol: float):
    """Table, total and error estimate of the primitive on [a, inf) of an
    integrand h that keeps its sign after the scan's last zero: dx is
    (1+|x|)^2 du in the chart, so the Gauss rule integrates
    H = h (1+|x|)^2 over [u(a), 1], bisected by bv's loop to tol, or to
    the roundoff of the total if that is coarser.  The rows of the final
    segments are the table of F in u; the returned evaluator reads it at
    u(x), and the error estimate is the segments' summed estimate."""
    def H(u: float) -> float:
        x = decompactify(u)
        return integrand(x) * (1.0 + abs(x)) ** 2

    segments, err = _refine(partial(_gauss_panels, H),
                            [(compactify(a), 1.0, None, None, None)], tol,
                            "settled", lambda _, u: decompactify(u),
                            _SEGMENT_CAP)
    # compactify can fall by one ulp just above a: the first segment
    # extrapolates there
    at_u, total = _primitive_table(segments)

    def at(x: float) -> float:
        return at_u(compactify(x))

    at.many = lambda xs: at_u.many(xs / (1.0 + np.abs(xs)))   # compactify
    return at, total, err


def hake_from_integrand(integrand, a: float = 0.0,
                        tol: float = DEFAULT_TOL) -> HakeResult:
    """Primitive of an integrand on [a, inf), extended by 0 left of a.

    Both paths interpolate h at the 20 Gauss-Legendre nodes of a
    segment (_gauss_panels) and bisect the segment with the largest
    estimate, in bv's loop, until the estimates sum to tol/10, floored at
    the roundoff of the values.  One scan of h (_scan_sign_changes)
    picks the path: if it ends before the lobe loop stops, h keeps its
    sign after the scan's last zero and the loop runs once over the
    compact chart (see _settled_table).  The Gauss nodes never
    evaluate h at a, so an integrable singularity there is no error by
    itself; one the rule cannot resolve reaches the depth cap.
    Otherwise h is partitioned at sign changes, found by Illinois
    regula falsi.  The alternating series of lobe areas is accelerated
    for the limit, and once it has settled lobes are accumulated until
    one is smaller than _DEFECT_TARGET, in one loop (_oscillatory_total)
    whose passes take up to _MAX_BATCH lobes after the settle point
    (see _batch_size).  Where the areas decay, the integrand calls are
    those of one lobe at a time; a pass that reads past the stopping
    lobe, as it can where they do not, drops the lobes after it.  The
    table rows are those of one lobe at a time, bit for bit: a pass
    stacks the products one panel makes alone.  The lobe boundary where
    the loop stopped is the cutoff: the table holds every lobe before
    it, and past it the stored primitive follows a smooth decaying tail
    model.  h is read at the
    nodes through its array form where it carries one (see cfun._many).
    A non-finite value of h at a node (a call that raises one of
    errors.UNDEFINED reads as NaN), a segment past bv's depth cap, or a
    table past _SEGMENT_CAP rows raises BudgetExceeded naming the
    segment's x-interval; the lobes of its pass have been evaluated by
    then.  On
    both paths the primitive is one table of Chebyshev series with an
    array form, and evaluating it calls no integrand.  The sup-norm gap
    between the stored and the true primitive is estimated by
    defect_bound on the result; the total over [a, inf) is not affected
    by the tail model.
    """
    check_tol(tol, "hake_from_integrand")
    lobes = _oscillatory_total(
        integrand, a, _scan_sign_changes(integrand, a, 0.5), tol)
    if lobes is None:
        at, total, defect = _settled_table(integrand, a, tol)
        # no finite x reaches the tail model
        n_lobes, cutoff, tail_cut = 0, math.inf, 0.0
    else:
        total, cutoff, n_lobes, last_area, segments = lobes
        at, table_end = _primitive_table(segments)
        tail_cut = total - table_end
        defect = abs(tail_cut) + abs(last_area)

    def F(x: float) -> float:
        if x <= a:
            return 0.0
        if x >= cutoff:
            return total - tail_cut * (cutoff / x) ** _MODEL_DECAY
        return at(x)

    def F_many(xs: np.ndarray) -> np.ndarray:
        out = np.zeros_like(xs)
        right = ~(xs <= a)
        tail = right & (xs >= cutoff)
        mid = right & ~tail
        out[mid] = at.many(xs[mid])
        # numpy's power is not libm's pow, which the scalar ** calls
        decay = [r ** _MODEL_DECAY for r in (cutoff / xs[tail]).tolist()]
        out[tail] = total - tail_cut * np.array(decay, dtype=float)
        return out

    F.many = F_many
    dist = distribution_from_evaluator(F, 0.0, total, tol)
    return HakeResult(dist, total, n_lobes, cutoff, defect)
