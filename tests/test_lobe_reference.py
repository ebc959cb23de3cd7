"""The batched lobe loop against the loop that takes one lobe at a time.

The reference is the lobe loop as it was before lobes were batched: each
lobe is one run of bv._refine from scratch, with a rule that evaluates
one 20-node Gauss panel after another through matrix-vector products.
The batched loop takes the lobes after the settle point many at a time,
through stacked matrix-vector products, one per panel.  Against the
reference it must make the same integrand calls and return the same
total, cutoff and lobe count bit for bit, with table values within _ULPS
ulps, and raise the same errors.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev, legendre

from cpint.bv import _refine
from cpint.errors import BudgetExceeded
from cpint.quadrature import (_ACCEL_TAIL, _DEFECT_TARGET, _MAX_LOBES,
                              _SEGMENT_CAP, _oscillatory_total,
                              _primitive_table, _scan_sign_changes,
                              epsilon_limit, hake_from_integrand)

# a stacked product runs the BLAS call of one panel alone, so the rows
# keep their bits; through matrix-matrix products they moved by up to 18
# ulps of the reference value
_ULPS = 0


# -- the reference: one lobe at a time ---------------------------------------

_NODES = legendre.leggauss(20)[0]
_INTERPOLANT = np.linalg.inv(chebyshev.chebvander(_NODES, 19))
_ANTIDERIVATIVE = chebyshev.chebint(_INTERPOLANT, lbnd=-1)


def ref_gauss_rule(h):
    """The Gauss rule in the form bv._refine takes, one segment after
    another through matrix-vector products."""
    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        vals = np.array([h(x) for x in
                         (lo + half * (_NODES + 1.0)).tolist()], dtype=float)
        c = _INTERPOLANT @ vals
        return (half * (_ANTIDERIVATIVE @ vals),
                float(half * (abs(c[-2]) + abs(c[-1]))),
                half * float(np.abs(vals).sum()))

    def rule(los, his, *ends):
        rows, errs, scales = zip(*map(panel, los, his))
        return rows, errs, scales, None
    return rule


def ref_oscillatory_total(integrand, start, zeros, tol):
    table, areas, sums = [], [], []
    total = prev_est = None
    settled = decay_failures = 0
    lo = start
    rule = ref_gauss_rule(integrand)
    for z in zeros:
        segments, _ = _refine(rule, [(lo, z, None, None, None)], tol,
                              "lobe", lambda key, x: x,
                              _SEGMENT_CAP - len(table))
        area = math.fsum(float(row.sum()) for _, _, row in segments)
        table += segments
        areas.append(area)
        sums.append((sums[-1] if sums else 0.0) + area)
        lo = z
        if total is None and len(sums) >= 10:
            est = epsilon_limit(sums[-_ACCEL_TAIL:])
            if prev_est is not None and abs(est - prev_est) < 1e-13 * (
                    1.0 + abs(est)):
                settled += 1
            else:
                settled = 0
            prev_est = est
            if settled >= 3:
                if np.mean(np.abs(areas[-5:])) < 0.9 * np.mean(
                        np.abs(areas[:5])):
                    total = est
                else:
                    decay_failures += 1
                    settled = 0
                    assert decay_failures < 5
        if total is not None and abs(area) < _DEFECT_TARGET:
            break
        if len(sums) >= _MAX_LOBES:
            break
    else:
        return None
    return total, lo, len(sums), area, table


# -- the cases ---------------------------------------------------------------

def _sin_square(a):
    return lambda x: math.sin(a * x * x)


def _sin_over_linear(b):
    return lambda x: math.sin(b * x) / (1.0 + x)


_TWO_PI = 2.0 * math.pi
_rng = np.random.default_rng(23)
CASES = (
    [(f"sin_square[a={a:.4f}]", _sin_square(a))
     for a in _rng.uniform(0.9, 1.1, 3).tolist()]
    + [(f"sin_over_linear[b={b:.4f}]", _sin_over_linear(b))
       for b in _rng.uniform(0.8, 1.25, 3).tolist()]
    + [("sinc", lambda x: math.sin(x) / x if x != 0.0 else 1.0),
       # lobes before 2 pi scaled below _DEFECT_TARGET
       ("scaled_lobes", lambda x: (1e-3 if x < _TWO_PI else 1.0)
        * math.sin(x) / (1.0 + x))])


def _counted(h):
    calls = [0]

    def counted(x):
        calls[0] += 1
        return h(x)
    return counted, calls


def _run(loop, h, tol=1e-10):
    counted, calls = _counted(h)
    out = loop(counted, 0.0, _scan_sign_changes(counted, 0.0, 0.5), tol)
    return out, calls[0]


@pytest.fixture(scope="module", params=CASES, ids=[c[0] for c in CASES])
def runs(request):
    h = request.param[1]
    return _run(ref_oscillatory_total, h), _run(_oscillatory_total, h)


def test_same_calls(runs):
    (_, want), (_, got) = runs
    assert got == want


def test_same_total_cutoff_and_lobes_bit_for_bit(runs):
    (want, _), (got, _) = runs
    total, cutoff, lobes = got[:3]
    assert total.hex() == want[0].hex()
    assert cutoff.hex() == want[1].hex()
    assert lobes == want[2]


def test_table_within_ulps(runs):
    (want, _), (got, _) = runs
    F_ref, end_ref = _primitive_table(want[4])
    F, end = _primitive_table(got[4])
    xs = np.random.default_rng(5).uniform(0.0, want[1], 400).tolist()
    for x in xs + [want[1]]:
        assert abs(F(x) - F_ref(x)) <= _ULPS * math.ulp(F_ref(x))
    assert abs(end - end_ref) <= _ULPS * math.ulp(end_ref)
    assert len(got[4]) == len(want[4])


@pytest.mark.parametrize("h,calls", [
    (_sin_square(1.0), 88_488), (_sin_over_linear(1.0), 1_925),
], ids=["sin_square", "sin_over_linear"])
def test_integrand_calls_pinned(h, calls):
    # the reference's calls, and the loop's through hake_from_integrand:
    # a lobe that misses its goal continues from its first panel, so no
    # node is evaluated twice
    assert _run(ref_oscillatory_total, h)[1] == calls
    counted, n = _counted(h)
    hake_from_integrand(counted)
    assert n[0] == calls


@pytest.mark.parametrize("h", [
    lambda x: math.nan if abs(x - 7.0) < 0.05 else math.sin(x * x),
    lambda x: math.nan if abs(x - 70.0) < 0.05 else math.sin(x * x),
    lambda x: math.sin(x) / (1.0 + x)
    + 1e-3 * math.exp(-x) / math.sqrt(abs(x - 1.1)),
    lambda x: math.sin(x) / (1.0 + x) + 1e-3 / math.sqrt(abs(x - 150.1)),
    # noise near 1e-2 past x = 25, far above the goal: the segment cap
    lambda x: 1e12 * math.sin(x * x),
], ids=["nan_lobe", "nan_lobe_in_a_batch", "depth_cap",
        "depth_cap_in_a_batch", "segment_cap"])
def test_same_errors(h):
    # a lobe inside a batch fails with the message of one lobe at a time;
    # the lobes after it in its pass have been evaluated by then
    with pytest.raises(BudgetExceeded) as want:
        _run(ref_oscillatory_total, h)
    with pytest.raises(BudgetExceeded) as got:
        _run(_oscillatory_total, h)
    assert str(got.value) == str(want.value)
