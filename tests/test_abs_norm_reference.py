"""abs_norm against its incremental form, bit for bit.

The reference is abs_norm as it was before every level read its grid
through on_grid: it keeps one partition across the levels, adds each
level's new grid points (the odd multiples of its spacing) to it, and
reads a level's grid from F's table only where the table already holds
it, evaluating finer points without storing them.  The library builds
each level's partition afresh from that level's grid table and the
extrema refined so far.  Tied u values carry identical values, so the
two make the same partitions: the value, levels_used, extrema, the
BudgetExceeded messages and every evaluator call are checked against
the reference.  A pointwise result lifts its operands' tables instead,
so there it gives the same result with no more calls.
"""

import math

import numpy as np
import pytest

from cpint.cfun import DEFAULT_TOL, ContinuousFunctionBar
from cpint.chart import golden_max, u_grid
from cpint.errors import BudgetExceeded
from cpint.fixtures import FIXTURES, random_distribution
from cpint.lattice import (_ABS_DIVERGENT_RUN, _ABS_GROWTH, _ABS_MAX_LEVEL,
                           _ABS_START_LEVEL, AbsNormResult, abs_norm, parts)
from cpint.space import Distribution


# -- the reference: one partition, refined level by level -------------------

def _ref_merged(us, vals, new_us, new_vals):
    us = np.concatenate((us, new_us))
    order = np.argsort(us, kind="stable")
    return us[order], np.concatenate((vals, new_vals))[order]


def _ref_extrema(F, us, vals, done, floor):
    steps = np.sign(np.diff(vals))
    found = []
    for i in (np.nonzero(steps[:-1] * steps[1:] < 0.0)[0] + 1).tolist():
        u, left, right = float(us[i]), float(us[i - 1]), float(us[i + 1])
        swing = min(abs(vals[i] - vals[i - 1]), abs(vals[i + 1] - vals[i]))
        if u in done or swing <= floor:
            continue
        done.add(u)
        sgn = float(steps[i - 1])
        lo, hi = max(left, -1.0 + 1e-12), min(right, 1.0 - 1e-12)
        t, w = golden_max(lambda v: sgn * F.at_u(v), lo, hi)
        if t not in done and t not in (left, right):
            done.add(t)
            found.append((t, sgn * w))
    return found


def ref_abs_norm(f, tol=DEFAULT_TOL):
    F = f.primitive
    held = 0 if F._table is None else len(F._table)
    level = _ABS_START_LEVEL
    us = u_grid(2 ** level + 1)
    vals = F.on_grid(len(us)) if len(us) <= held else F.at_u_many(us)
    done = set()
    extrema = 0
    prev_sum = None
    settled = growing_run = 0
    while True:
        if np.isnan(vals).any():
            raise BudgetExceeded(f"evaluator undefined inside abs_norm "
                                 f"partition at level {level}")
        cur = sum(np.abs(np.diff(vals)).tolist())
        found = _ref_extrema(F, us, vals, done, tol * (1.0 + cur))
        if found:
            extrema += len(found)
            us, vals = _ref_merged(us, vals, *map(np.array, zip(*found)))
            cur = sum(np.abs(np.diff(vals)).tolist())
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
        n = 2 ** level + 1
        us, vals = _ref_merged(us, vals, mids, F.on_grid(n)[1::2] if n <= held
                               else F.at_u_many(mids))


# -- helpers ----------------------------------------------------------------

def _logged(f, log):
    """f with a fresh primitive, holding no table, whose evaluator logs
    the bits of each x it is called at, scalar and array alike."""
    F = f.primitive
    ev, many = F.evaluator, getattr(F.evaluator, "many", None)

    def scalar(x):
        log.append(x.hex())
        return ev(x)
    if many is not None:
        def array(xs):
            log.extend(x.hex() for x in xs.tolist())
            return many(xs)
        scalar.many = array
    return Distribution(ContinuousFunctionBar(scalar, F.limit_neg,
                                              F.limit_pos))


def _outcome(run):
    try:
        return run()
    except BudgetExceeded as exc:
        return str(exc)


def _bits(res):
    if isinstance(res, str):
        return res
    assert type(res.value) is float
    return res.divergent, res.value.hex(), res.levels_used, res.extrema


def _check(make, held=None, tol=DEFAULT_TOL):
    """abs_norm against the reference on two fresh copies of make()'s
    primitive, each first read on the held grid if one is given; returns
    the library's outcome."""
    runs = []
    for norm in (ref_abs_norm, abs_norm):
        log = []
        f = _logged(make(), log)
        if held:
            f.primitive.on_grid(held)
            del log[:]
        runs.append((_bits(_outcome(lambda: norm(f, tol))), log))
    (ref, ref_log), (got, got_log) = runs
    assert got == ref
    assert got_log == ref_log
    return got


def _oscillating(w):
    return lambda: Distribution(ContinuousFunctionBar(
        lambda x: math.sin(w * x) * math.exp(-x * x), 0.0, 0.0))


# -- seeded draws, fixtures and oscillations --------------------------------

@pytest.mark.parametrize("seed", range(60))
def test_random_draws_match_reference(seed):
    held = (None, 65, 1025)[seed % 3]
    got = _check(lambda: random_distribution(np.random.default_rng(seed)),
                 held)
    assert not isinstance(got, str)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures_match_reference(name):
    _check(FIXTURES[name])


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-3])
@pytest.mark.parametrize("w", [40.0, 160.0, 320.0])
def test_oscillating_gaussians_match_reference(w, tol):
    _check(_oscillating(w), tol=tol)


# -- the two BudgetExceeded messages ----------------------------------------

def _holed(x):
    """sin(40x) exp(-x^2), NaN on (1, 1.01) and raising on (-1.01, -1):
    the first grid point inside either comes at level 10."""
    if 1.0 < x < 1.01:
        return math.nan
    if -1.01 < x < -1.0:
        raise ValueError("hole")
    return math.sin(40.0 * x) * math.exp(-x * x)


@pytest.mark.parametrize("fn, level", [
    (lambda x: math.nan if x == 0.0 else math.atan(x), 4),
    (_holed, 10),
])
def test_undefined_partition_matches_reference(fn, level):
    got = _check(lambda: Distribution(ContinuousFunctionBar(fn, 0.0, 0.0)))
    assert got == ("evaluator undefined inside abs_norm partition at "
                   f"level {level}")


def test_level_cap_matches_reference():
    # at tol 0 every extremum added is growth: the sums never settle
    got = _check(_oscillating(40.0), tol=0.0)
    assert got.startswith(
        f"variation sums unsettled at level {_ABS_MAX_LEVEL}: sum ")


# -- pointwise results: their operands' tables, lifted ----------------------

@pytest.mark.parametrize("held", [None, 129, 1025])
@pytest.mark.parametrize("part", range(3))
def test_parts_match_reference_with_no_more_calls(part, held):
    # the part's levels read f's grid table through the lift, where the
    # reference calls f at each of their points: f is spared the finite
    # grid points its table holds, and only those
    runs = []
    for norm in (ref_abs_norm, abs_norm):
        log = []
        f = _logged(_oscillating(1.0)(), log)
        if held:
            f.primitive.on_grid(held)
            del log[:]
        runs.append((_bits(norm(parts(f)[part])), log))
    (ref, ref_log), (got, got_log) = runs
    assert got == ref
    top = min(held or 0, 2 ** got[2] + 1)
    assert len(ref_log) - len(got_log) == max(top - 2, 0)
    assert set(got_log) <= set(ref_log)
    if not held:
        assert got_log == ref_log
