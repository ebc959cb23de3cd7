import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpint.cfun import (_AUDIT_GRID, _DEPTH_CAP, _INTERVAL_GRID,
                        _PROFILE_MASS, _ROUNDOFF, _STALL_LIMIT, _STALL_RATIO,
                        DEFAULT_TOL, ContinuousFunctionBar, _audit_grid,
                        _tail_limit,
                        audit_on_interval, build_continuous, bump, extremes)
from cpint.chart import decompactify, decompactify_many, u_grid
from cpint.errors import BudgetExceeded, NoLimitAtInfinity, NotContinuous
from cpint.space import (Distribution, distribution_from_evaluator,
                         hake_extend, norm)


class TestBuildContinuous:
    def test_accepts_smooth(self):
        F = build_continuous(math.atan, -math.pi / 2, math.pi / 2)
        assert F(1.0) == math.atan(1.0)
        assert F(float("inf")) == math.pi / 2

    def test_rejects_jump(self):
        with pytest.raises(NotContinuous):
            build_continuous(lambda x: 0.0 if x < 0.3 else 1.0, 0.0, 1.0)

    def test_rejects_wrong_tail_limit(self):
        with pytest.raises(NoLimitAtInfinity):
            build_continuous(math.atan, -math.pi / 2, 1.0)

    def test_one_claimed_one_found_limit(self):
        # the claimed -inf limit is kept, the +inf limit is the mean of
        # the settled tail samples, as hake_extend finds it
        F = build_continuous(math.atan, -math.pi / 2)
        assert F.limit_neg == -math.pi / 2
        assert F.limit_pos == _tail_limit(math.atan, +1, DEFAULT_TOL)
        assert F.limit_pos == pytest.approx(math.pi / 2, abs=1e-11)
        G = build_continuous(math.atan, limit_pos=math.pi / 2)
        assert G.limit_neg == -F.limit_pos
        assert G.limit_pos == math.pi / 2

    def test_found_limit_does_not_excuse_a_wrong_claim(self):
        with pytest.raises(NoLimitAtInfinity):
            build_continuous(math.atan, limit_pos=1.0)
        with pytest.raises(NoLimitAtInfinity):
            build_continuous(math.atan, limit_neg=math.nan)
        with pytest.raises(NoLimitAtInfinity):
            build_continuous(math.sin, limit_neg=0.0)

    def test_rejects_oscillating_tail(self):
        with pytest.raises(NoLimitAtInfinity):
            build_continuous(math.sin, 0.0, 0.0)

    def test_accepts_rapid_but_continuous_oscillation(self):
        # continuous with unbounded oscillation rate near 0; must pass
        def F(x):
            if x == 0.0:
                return 0.0
            c = min(abs(x), 1.0)
            return c * c * math.cos(c ** -2.0)
        build_continuous(F, math.cos(1.0), math.cos(1.0))

    def test_interval_audit_rejects_interior_jump(self):
        with pytest.raises(NotContinuous):
            audit_on_interval(lambda x: math.copysign(1.0, x - 0.5),
                              0.0, 1.0)


class TestExtremes:
    def test_kinked_peak_found_to_high_precision(self):
        # piecewise-linear spike of height 64 at x = 4 (off the scan grid)
        def F(x):
            if 3.0 < x < 5.0:
                return 64.0 * (1.0 - abs(x - 4.0))
            return 0.0
        hi, lo = extremes(ContinuousFunctionBar(F, 0.0, 0.0))
        assert hi == pytest.approx(64.0, abs=1e-9)
        assert lo == 0.0

    def test_sup_norm_two_sided(self):
        F = ContinuousFunctionBar(
            lambda x: math.sin(x) * math.exp(-x * x), 0.0, 0.0)
        # max of sin(x) exp(-x^2): frozen from dense scan
        assert norm(Distribution(F)) == pytest.approx(0.39665296108547105,
                                                      abs=1e-10)

    @pytest.mark.parametrize("fn,limit_pos,hi,lo,calls", [
        (lambda x: math.sin(x) * math.exp(-x * x), 0.0,
         0.3966529610854711, -0.3966529610854711, 11451),
        (lambda x: math.atan(x) + math.pi / 2, math.pi,
         3.141592653589793, 0.0, 8289),
    ])
    def test_values_and_calls_pinned(self, fn, limit_pos, hi, lo, calls):
        # the grid's 8,191 finite points, then golden refinement of the
        # top cells of each sign
        ev, seen = _counted(fn)
        got = extremes(ContinuousFunctionBar(ev, 0.0, limit_pos))
        assert got == (hi, lo)
        assert len(seen) == calls
        assert all(type(x) is float for x in seen)


class TestBump:
    def test_support_and_positivity(self):
        phi = bump(2.0, 0.5)
        assert phi(2.0) > 0.0
        assert phi(2.49) > 0.0
        assert phi(2.5) == 0.0
        assert phi(1.5) == 0.0

    def test_mass_is_the_integral(self):
        from scipy import integrate
        for c, w, a in [(0.0, 1.0, 1.0), (0.3, 0.25, -2.0), (-1.0, 1e-3, 5.0)]:
            phi = bump(c, w, a)
            lo, hi = phi.support
            mass, _ = integrate.quad(phi, lo, hi, points=[c])
            assert mass == pytest.approx(phi.mass, rel=1e-9)

    def test_profile_mass_against_mpmath(self):
        import mpmath
        with mpmath.workdps(40):
            mass = 2 * mpmath.quad(lambda s: mpmath.exp(1 / (s - 1)), [0, 1])
        assert _PROFILE_MASS == float(mass)


class TestAlgebra:
    @given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
           st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=50)
    def test_translation_and_scaling(self, x, c):
        F = ContinuousFunctionBar(math.atan, -math.pi / 2, math.pi / 2)
        assert F.translated(c)(x) == F(x - c)
        assert F.scaled(2.0)(x) == 2.0 * F(x)

    def test_pointwise_lattice(self):
        F = ContinuousFunctionBar(math.atan, -math.pi / 2, math.pi / 2)
        G = F.scaled(-1.0)
        top = F.pointwise_max(G)
        assert top(2.0) == abs(math.atan(2.0))
        assert top(-2.0) == abs(math.atan(-2.0))


# ---------------------------------------------------------------------------
# array forms and the lockstep audit


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _chart_points(seed: int) -> np.ndarray:
    """The ends +-1, signed zeros, a fine grid and seeded draws in u."""
    rng = np.random.default_rng(seed)
    return np.concatenate([[-1.0, 1.0, 0.0, -0.0],
                           np.linspace(-1.0, 1.0, 2049),
                           rng.uniform(-1.0, 1.0, 2000)])


def _patchy(x: float) -> float:
    # NaN where it raises or returns NaN, -0.0 far left
    if 1.0 < x < 2.0:
        raise ValueError("undefined")
    if 2.0 <= x < 2.5:
        return 1.0 / 0.0          # ZeroDivisionError
    if 2.5 <= x < 3.0:
        return math.nan
    if 3.0 <= x < 3.5:
        return math.exp(1e4)      # OverflowError
    if x < -3.0:
        return -0.0
    return math.sin(x)


class TestArrayForms:
    def test_scalar_fallback_sees_python_floats(self):
        def ev(x):
            assert type(x) is float
            return x
        us = _chart_points(1)
        F = ContinuousFunctionBar(ev, -1.0, 1.0)
        assert (_bits(F.at_u_many(us))
                == _bits([F.at_u(u) for u in us.tolist()])).all()

    def test_at_u_is_call_at_decompactify(self):
        F = ContinuousFunctionBar(_patchy, -0.25, 0.5)
        us = np.concatenate([_chart_points(2), [math.nan]]).tolist()
        assert (_bits([F.at_u(u) for u in us])
                == _bits([F(decompactify(u)) for u in us])).all()

    def test_raising_evaluator_gives_nan(self):
        F = ContinuousFunctionBar(_patchy, -0.0, 0.0)
        xs = np.array([1.5, 2.2, 2.7, 3.2, -4.0, 0.5, math.inf, -math.inf])
        out = F.eval_many(xs)
        assert np.isnan(out[:4]).all()
        assert _bits(out[4:]).tolist() == _bits(
            [-0.0, math.sin(0.5), 0.0, -0.0]).tolist()

    def test_pointwise_algebra_bit_for_bit(self):
        from cpint.quadrature import hake_from_integrand
        A = ContinuousFunctionBar(math.atan, -math.pi / 2, math.pi / 2)
        P = ContinuousFunctionBar(_patchy, -0.0, 0.0)
        Z = ContinuousFunctionBar(lambda x: 0.0, 0.0, 0.0)
        N = ContinuousFunctionBar(lambda x: -0.0, -0.0, -0.0)
        # a table primitive carries its own array form
        T = hake_from_integrand(
            lambda x: math.exp(-x * x)).distribution.primitive
        ops = {
            "plus": lambda f, g: f.plus(g),
            "max": lambda f, g: f.pointwise_max(g),
            "min": lambda f, g: f.pointwise_min(g),
            "scaled": lambda f, g: f.scaled(-1.5).plus(g.scaled(0.0)),
            "shifted": lambda f, g: f.shifted(-0.0).plus(g.shifted(2.0)),
            "translated": lambda f, g: f.translated(1.25).pointwise_max(
                g.translated(-3.5)),
            "abs": lambda f, g: f.pointwise_abs().pointwise_min(
                g.pointwise_abs()),
        }
        operands = [A, P, Z, N, T]
        us = _chart_points(2)
        for name, op in ops.items():
            for f in operands:
                for g in operands:
                    H = op(f, g)
                    assert (_bits(H.at_u_many(us)) == _bits(
                        [H.at_u(u) for u in us.tolist()])).all(), name

    def test_pointwise_limits_bit_for_bit(self):
        # each operation's limits are its scalar op of the operands'
        # limits, written out here: max keeps p unless q > p, min unless
        # q < p, so the signed zeros of Z and N keep their order
        from cpint.quadrature import hake_from_integrand
        A = ContinuousFunctionBar(math.atan, -math.pi / 2, math.pi / 2)
        P = ContinuousFunctionBar(_patchy, -0.0, 0.0)
        Z = ContinuousFunctionBar(lambda x: 0.0, 0.0, 0.0)
        N = ContinuousFunctionBar(lambda x: -0.0, -0.0, -0.0)
        T = hake_from_integrand(
            lambda x: math.exp(-x * x)).distribution.primitive
        unary = [
            (lambda f: f.shifted(-0.0), lambda p: p + -0.0),
            (lambda f: f.shifted(2.0), lambda p: p + 2.0),
            (lambda f: f.scaled(-1.5), lambda p: -1.5 * p),
            (lambda f: f.scaled(0.0), lambda p: 0.0 * p),
            (lambda f: f.pointwise_abs(), math.fabs),
            (lambda f: f.translated(1.25), lambda p: p),
        ]
        binary = [
            (lambda f, g: f.plus(g), lambda p, q: p + q),
            (lambda f, g: f.pointwise_max(g), lambda p, q: q if q > p else p),
            (lambda f, g: f.pointwise_min(g), lambda p, q: q if q < p else p),
        ]
        operands = [A, P, Z, N, T]
        for f in operands:
            for lift, op in unary:
                H = lift(f)
                assert _bits([H.limit_neg, H.limit_pos]).tolist() == _bits(
                    [op(f.limit_neg), op(f.limit_pos)]).tolist()
            for g in operands:
                for lift, op in binary:
                    H = lift(f, g)
                    assert _bits([H.limit_neg, H.limit_pos]).tolist() == (
                        _bits([op(f.limit_neg, g.limit_neg),
                               op(f.limit_pos, g.limit_pos)]).tolist())

    def test_nested_composition_bit_for_bit(self):
        A = ContinuousFunctionBar(math.atan, -math.pi / 2, math.pi / 2)
        P = ContinuousFunctionBar(_patchy, -0.0, 0.0)
        H = (A.scaled(-2.0).plus(P).pointwise_max(A.translated(0.5))
             .pointwise_min(P.shifted(1.0)).pointwise_abs().shifted(-1.0))
        us = _chart_points(3)
        assert (_bits(H.at_u_many(us))
                == _bits([H.at_u(u) for u in us.tolist()])).all()


def _reference_audit(feval, grid, tol, coord=decompactify):
    """The oscillation audit as one left-to-right pass, one cell and one
    scalar call at a time: the reference for cfun's lockstep descent."""
    vals = [feval(t) for t in grid]
    for t, v in zip(grid, vals):
        if not math.isfinite(v):
            raise NotContinuous(f"evaluator undefined at x={coord(t)!r}",
                                where=coord(t))
    tol = max(tol, _ROUNDOFF * max(abs(v) for v in vals))
    for i in range(len(grid) - 1):
        ua, va, ub, vb = grid[i], vals[i], grid[i + 1], vals[i + 1]
        stall = 0
        prev_osc = None
        for _ in range(_DEPTH_CAP):
            um = 0.5 * (ua + ub)
            vm = feval(um)
            if not math.isfinite(vm):
                raise NotContinuous(
                    f"evaluator undefined near x={coord(um)!r}",
                    where=coord(um))
            osc = max(va, vm, vb) - min(va, vm, vb)
            if osc <= tol:
                break
            if prev_osc is not None:
                stall = stall + 1 if osc > _STALL_RATIO * prev_osc else 0
            prev_osc = osc
            if abs(vm - va) >= abs(vb - vm):
                ub, vb = um, vm
            else:
                ua, va = um, vm
        else:
            if stall >= _STALL_LIMIT:
                raise NotContinuous(
                    f"oscillation {osc:g} not shrinking near x={coord(um)!r}",
                    where=coord(um))


def _counted(fn):
    seen = []

    def ev(x):
        seen.append(x)
        return fn(x)
    return ev, seen


def _ramp(x: float) -> float:
    return 0.8 * math.atan(1.7 * (x - 0.4)) + 0.3


def _nan_cell(i: int):
    """x-interval around the midpoint of audit cell i, clear of its ends."""
    grid = u_grid(_AUDIT_GRID).tolist()
    q = 0.25 * (grid[i + 1] - grid[i])
    um = 0.5 * (grid[i] + grid[i + 1])
    return decompactify(um - q), decompactify(um + q)


class TestLockstepAudit:
    def test_same_calls_as_reference(self):
        ev, seen = _counted(_ramp)
        hake_extend(ev)
        ref_ev, ref_seen = _counted(_ramp)
        F = ContinuousFunctionBar(ref_ev, _tail_limit(ref_ev, -1, DEFAULT_TOL),
                                  _tail_limit(ref_ev, +1, DEFAULT_TOL))
        _reference_audit(F.at_u, u_grid(_AUDIT_GRID).tolist(),
                         DEFAULT_TOL)
        assert len(seen) == len(ref_seen) > 10 * _AUDIT_GRID
        assert sorted(seen) == sorted(ref_seen)

    @pytest.mark.parametrize("claims", [(None, None),
                                        (-0.4 * math.pi + 0.3,
                                         0.4 * math.pi + 0.3)])
    def test_call_order(self, claims):
        # the +inf tail, then the -inf tail, then the audit, as the
        # separate steps would make them, in the same order
        ev, seen = _counted(_ramp)
        if claims[0] is None:
            hake_extend(ev)
        else:
            distribution_from_evaluator(ev, *claims)
        ref_ev, ref_seen = _counted(_ramp)
        hi = _tail_limit(ref_ev, +1, DEFAULT_TOL, claims[1])
        lo = _tail_limit(ref_ev, -1, DEFAULT_TOL, claims[0])
        _audit_grid(ContinuousFunctionBar(ref_ev, lo, hi).at_u_many,
                    u_grid(_AUDIT_GRID), DEFAULT_TOL)
        assert seen[:64] == [s * (2.0 ** k - 1.0) for s in (1, -1)
                             for k in range(34, 66)]
        assert seen == ref_seen

    def test_interval_audit_same_calls_as_reference(self):
        ev, seen = _counted(math.sin)
        audit_on_interval(ev, -2.0, 3.0)
        ref_ev, ref_seen = _counted(math.sin)
        step = 5.0 / (_INTERVAL_GRID - 1)
        _reference_audit(ref_ev, [-2.0 + i * step
                                  for i in range(_INTERVAL_GRID)],
                         DEFAULT_TOL, coord=lambda t: t)
        assert sorted(seen) == sorted(ref_seen)

    @pytest.mark.parametrize("case", ["one_jump", "two_jumps", "nan_in_cell",
                                      "jump_left_of_nan"])
    def test_same_error_as_reference(self, case):
        lo, hi = _nan_cell(700)
        fns = {
            "one_jump": lambda x: _ramp(x) + (0.5 if x >= 0.3 else 0.0),
            "two_jumps": lambda x: _ramp(x) + (0.5 if x >= -2.0 else 0.0)
            + (0.25 if x >= 5.0 else 0.0),
            "nan_in_cell": lambda x: math.nan if lo < x < hi else _ramp(x),
            # the NaN is met at the first level, the jump left of it only
            # at the depth cap: the jump is reported
            "jump_left_of_nan": lambda x: (math.nan if lo < x < hi else
                                           _ramp(x) + (0.5 if x >= -2.0
                                                       else 0.0)),
        }
        fn = fns[case]
        limits = (fn(-1e300), fn(1e300))
        with pytest.raises(NotContinuous) as lib:
            build_continuous(fn, *limits)
        with pytest.raises(NotContinuous) as ref:
            _reference_audit(ContinuousFunctionBar(fn, *limits).at_u,
                             u_grid(_AUDIT_GRID).tolist(), DEFAULT_TOL)
        assert str(lib.value) == str(ref.value)
        assert lib.value.where == ref.value.where
        assert ("undefined" in str(lib.value)) == (case == "nan_in_cell")

    def test_rejects_infinite_grid_value(self):
        F = lambda x: math.inf if x == 0.0 else math.atan(x)
        with pytest.raises(NotContinuous) as err:
            distribution_from_evaluator(F, -math.pi / 2, math.pi / 2)
        assert err.value.where == 0.0

    def test_rejects_infinite_midpoint_value(self):
        lo, hi = _nan_cell(600)
        F = lambda x: -math.inf if lo < x < hi else math.atan(x)
        with pytest.raises(NotContinuous, match="undefined near") as err:
            build_continuous(F, -math.pi / 2, math.pi / 2)
        assert lo < err.value.where < hi

    def test_roundoff_floor_scales_with_values(self):
        # the primitive of 1e8 exp(-x^2), a Chebyshev table, carries
        # roundoff near 1e-8 that refinement does not remove; the floor,
        # 16 eps of the largest value, is near 3e-7: the roundoff passes
        # the audit, a relative jump of 1e-5 does not
        from cpint.quadrature import hake_from_integrand
        T = hake_from_integrand(
            lambda x: 1e8 * math.exp(-x * x)).distribution.primitive
        with pytest.raises(NotContinuous):
            build_continuous(
                lambda x: T(x) * (1.0 + (1e-5 if x >= 0.3 else 0.0)),
                0.0, T.limit_pos * (1.0 + 1e-5))

    def test_tol_kept_at_unit_scale(self):
        # values of size 1 floor tol at 3.6e-15: a step of twice tol is
        # still a jump
        with pytest.raises(NotContinuous):
            build_continuous(lambda x: 1.0 + (2e-10 if x >= 0.3 else 0.0),
                             1.0, 1.0 + 2e-10)


# ---------------------------------------------------------------------------
# grid tables


_TABLE_GRIDS = (1025, 4097, 8193)


class TestGridTables:
    @pytest.mark.parametrize("order", list(itertools.permutations(_TABLE_GRIDS)))
    def test_table_is_array_read_in_any_order(self, order):
        # each read equals the array read of its grid bit for bit; a
        # finer read evaluates only the finite points not held, once
        # each, and a coarser or repeated read evaluates nothing
        ref = ContinuousFunctionBar(_patchy, -0.0, 0.5)
        ev, seen = _counted(_patchy)
        F = ContinuousFunctionBar(ev, -0.0, 0.5)
        finest = 0
        for n in order + order:
            before = len(seen)
            table = F.on_grid(n)
            assert (_bits(table) == _bits(ref.at_u_many(u_grid(n)))).all()
            new = max(n - finest, 0) if finest else n - 2
            assert len(seen) - before == new
            finest = max(finest, n)
        assert len(seen) == len(set(seen)) == max(order) - 2

    @pytest.mark.parametrize("order", list(itertools.permutations(_TABLE_GRIDS)))
    def test_array_form_table_in_any_order(self, order):
        # a table primitive's array form, read on part of a grid, gives
        # the bits it gives on the whole grid
        from cpint.quadrature import hake_from_integrand
        T = hake_from_integrand(
            lambda x: math.exp(-x * x)).distribution.primitive
        F = ContinuousFunctionBar(T.evaluator, T.limit_neg, T.limit_pos)
        for n in order:
            assert (_bits(F.on_grid(n))
                    == _bits(T.at_u_many(u_grid(n)))).all()

    def test_tables_are_read_only(self):
        F = ContinuousFunctionBar(math.atan, -math.pi / 2, math.pi / 2)
        for n in (4097, 8193, 1025):
            table = F.on_grid(n)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[1] = 0.0

    def test_table_kept_off_the_fields(self):
        F = ContinuousFunctionBar(math.atan, -math.pi / 2, math.pi / 2)
        G = ContinuousFunctionBar(math.atan, -math.pi / 2, math.pi / 2)
        text, code = repr(F), hash(F)
        F.on_grid(1025)
        extremes(F)
        assert F == G and hash(F) == code and repr(F) == text

    @pytest.mark.parametrize("n", [0, 1, 4, 1000, 1024])
    def test_non_nesting_grid_rejected(self, n):
        F = ContinuousFunctionBar(math.atan, -math.pi / 2, math.pi / 2)
        with pytest.raises(ValueError, match="power of two"):
            F.on_grid(n)

    def test_lifted_table_is_lifted_array_read(self):
        # NaN, signed zeros and the limits at u = +-1 come through the
        # lift as through the lifted evaluator's array form, and reading
        # the result calls no evaluator once the operands hold the grid
        ev_p, seen_p = _counted(_patchy)
        ev_n, seen_n = _counted(lambda x: -0.0 if x < 0.5 else math.atan(x))
        P = ContinuousFunctionBar(ev_p, -0.0, 0.0)
        N = ContinuousFunctionBar(ev_n, 0.0, math.nan)
        lifts = [
            lambda f, g: f.shifted(-0.0),
            lambda f, g: f.scaled(-1.5),
            lambda f, g: f.scaled(0.0).plus(g),
            lambda f, g: f.pointwise_max(g),
            lambda f, g: f.pointwise_min(g),
            lambda f, g: f.pointwise_abs().pointwise_max(g.scaled(-1.0)),
        ]
        for n in _TABLE_GRIDS:
            P.on_grid(n), N.on_grid(n)
            for f, g in ((P, N), (N, P)):
                for lift in lifts:
                    before = len(seen_p), len(seen_n)
                    table = lift(f, g).on_grid(n)
                    assert (len(seen_p), len(seen_n)) == before
                    ref = lift(f, g).at_u_many(u_grid(n))
                    assert (_bits(table) == _bits(ref)).all()
                    assert not table.flags.writeable

    def test_translated_evaluates(self):
        ev, seen = _counted(math.atan)
        F = ContinuousFunctionBar(ev, -math.pi / 2, math.pi / 2)
        F.on_grid(1025)
        del seen[:]
        T = F.translated(0.75)
        table = T.on_grid(1025)
        xs = decompactify_many(u_grid(1025))[1:-1] - 0.75
        assert seen == xs.tolist()
        assert (_bits(table) == _bits(T.at_u_many(u_grid(1025)))).all()

    def test_audit_fills_the_table(self):
        ev, seen = _counted(math.atan)
        F = build_continuous(ev, -math.pi / 2, math.pi / 2)
        del seen[:]
        F.on_grid(_AUDIT_GRID)
        assert seen == []

    def test_extremes_kept(self):
        ev, seen = _counted(lambda x: math.sin(x) * math.exp(-x * x))
        F = ContinuousFunctionBar(ev, 0.0, 0.0)
        got = extremes(F)
        del seen[:]
        assert extremes(F) == got
        assert norm(Distribution(F)) == max(abs(v) for v in got)
        assert seen == []

    @pytest.mark.parametrize("limit_pos", [0.0, math.nan])
    def test_extremes_names_first_undefined_point(self, limit_pos):
        # _patchy is NaN from x = 1 on for a while; with a NaN limit at
        # +inf it is still the first NaN from -inf up.  The error keeps
        # nothing: a second call raises again
        us = u_grid(8193)
        vals = ContinuousFunctionBar(_patchy, -0.0, limit_pos).at_u_many(us)
        x = decompactify(float(us[np.flatnonzero(np.isnan(vals))[0]]))
        assert 1.0 < x < 1.01
        F = ContinuousFunctionBar(_patchy, -0.0, limit_pos)
        for _ in range(2):
            with pytest.raises(BudgetExceeded,
                               match=re.escape(f"undefined at x={x!r}")):
                extremes(F)
        with pytest.raises(BudgetExceeded, match=re.escape(f"x={x!r}")):
            norm(Distribution(F))

    def test_extremes_names_undefined_limit(self):
        F = ContinuousFunctionBar(math.atan, -math.pi / 2, math.nan)
        with pytest.raises(BudgetExceeded, match="undefined at x=inf"):
            extremes(F)
