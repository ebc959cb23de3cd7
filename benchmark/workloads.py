"""The three benchmark workloads as rounds of operations.

A round is a fixed list of operations whose inputs come from the
workload seed alone: BLOCKS[workload] blocks, and a block holds one
operation of every kind of its workload, with freshly drawn parameters.
So every kind weighs the same.  No measured mix of calls exists to
weigh the kinds by, and the selftest's mix covers neither building
primitives nor the absolute-value norm; equal weights are a choice, not
a measurement.  Where a kind has variants (the distribution whose norms
are taken, the BV function a Hoelder bound is taken against), the
blocks take them in turn.

Every round of a run repeats the same inputs, so a run attempts whole
rounds and the failed share never depends on how many rounds fit.
Inputs are rebuilt as fresh objects for every round: a value cached
inside a distribution by one round cannot serve the next.  The query
workload builds its distributions with the audited constructor, as a
caller builds them before asking questions of them; the stieltjes
workload skips the audit (see _unaudited), because its many inputs
would otherwise make set-up longer than the timed run.

Each operation calls cpint through module attributes (space.norm, not
a name bound at import time), so the tracer can wrap it.  Its oracle
is an independent computation or a property the method must have,
never stored output of cpint; the runner computes the oracles once per
run, in a separate process, so that their arrays do not count in the
run's peak memory.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate, optimize

import gen
from cpint import bv, errors, expr, lattice, products, quadrature, space, transforms
from cpint.cfun import ContinuousFunctionBar
from cpint.chart import NEG_INF

# Values must agree to CHECK_REL * (1 + |expected|).  The library's
# tolerance of 1e-10 is a local stopping rule, not a global error bound.
CHECK_REL = 1e-8

# Blocks per round.  A run repeats its round, and every operation's
# latency is its median over the rounds, so rounds are kept to a few
# seconds; several blocks per round keep the per-round totals from
# depending much on the seed.
BLOCKS = {"build": 2, "query": 4, "stieltjes": 8}


@dataclass
class Op:
    """One operation.  run calls cpint.  check(result, expected) returns
    None or what is wrong; result is the exception when run raised, and
    expected is what oracle() returned.  A known fault is an operation
    that cpint gets wrong today: when its check fails it counts as
    failed.  Any other operation whose check fails, by a wrong value or
    by raising, makes the run incorrect."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object, object], Optional[str]]
    oracle: Callable[[], object] = lambda: None
    known_fault: bool = False


def _raised(res) -> Optional[str]:
    if isinstance(res, BaseException):
        return f"raised {type(res).__name__}: {res}"
    return None


def _close(got, want, rel=CHECK_REL) -> Optional[str]:
    if isinstance(got, BaseException):
        return _raised(got)
    if not abs(got - want) <= rel * (1.0 + abs(want)):
        return f"got {got!r}, want {want!r}"
    return None


def _all_close(got, want, rel=CHECK_REL) -> Optional[str]:
    if isinstance(got, BaseException):
        return _raised(got)
    return next((m for m in (_close(g, w, rel) for g, w in zip(got, want)) if m), None)


def _is(got, want) -> Optional[str]:
    return None if got == want else f"got {got!r}, want {want!r}"


def _raises(kind: type):
    def check(res, _):
        return None if isinstance(res, kind) else f"expected {kind.__name__}, got {res!r}"
    return check


def _once(fn):
    """fn() computed on first use and remembered."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


def _dist(p: gen.Prim) -> space.Distribution:
    return space.distribution_from_evaluator(p.fn, p.lim_neg, p.lim_pos)


def _unaudited(p: gen.Prim) -> space.Distribution:
    """The constructor the library's own fixtures use for primitives that
    are continuous by construction: no audit, so set-up stays small."""
    return space.try_from_primitive(ContinuousFunctionBar(p.fn, p.lim_neg, p.lim_pos))


def _anchored(p: gen.Prim, x: float) -> float:
    return p.F(x) - p.lim_neg


# ---------------------------------------------------------------------------
# independent oracles


def _u_to_x(u):
    return u / (1.0 - np.abs(u))


def dense_extremes(p: gen.Prim, points: int = 65537, refine: int = 16):
    """(sup, inf) of the anchored primitive by a dense numpy scan in the
    chart u = x/(1+|x|), with Brent refinement of the best cells."""
    u = np.linspace(-1.0, 1.0, points)[1:-1]
    v = p.F_np(_u_to_x(u)) - p.lim_neg
    out = []
    for sgn in (1.0, -1.0):
        s = sgn * v
        best = max(float(s.max()), 0.0, sgn * p.total)
        for i in np.argsort(s)[-refine:]:
            lo, hi = u[max(i - 1, 0)], u[min(i + 1, len(u) - 1)]
            r = optimize.minimize_scalar(
                lambda t: -sgn * _anchored(p, float(_u_to_x(t))),
                bounds=(lo, hi), method="bounded", options={"xatol": 1e-14})
            best = max(best, -float(r.fun))
        out.append(sgn * best)
    return out[0], out[1]


def dense_order(p: gen.Prim, q: gen.Prim, margin: float = 1e-8) -> lattice.Order:
    """Order of the primitives from the signs of F - G on a dense grid."""
    x = _u_to_x(np.linspace(-1.0, 1.0, 65537)[1:-1])
    d = (p.F_np(x) - p.lim_neg) - (q.F_np(x) - q.lim_neg)
    above, below = bool((d > margin).any()), bool((d < -margin).any())
    return {(True, True): lattice.Order.INCOMPARABLE,
            (True, False): lattice.Order.GREATER_OR_EQUAL,
            (False, True): lattice.Order.LESS_OR_EQUAL,
            (False, False): lattice.Order.EQUAL}[(above, below)]


def variation_by_quad(p: gen.Prim, lo=-10.0, hi=10.0) -> float:
    """int |F'| over [lo, hi], split at the sign changes of F'."""
    xs = np.linspace(lo, hi, 4001)
    ds = np.array([p.dF(float(x)) for x in xs])
    cuts = [lo]
    for i in np.nonzero(ds[:-1] * ds[1:] < 0.0)[0]:
        cuts.append(optimize.brentq(p.dF, xs[i], xs[i + 1], xtol=1e-15))
    cuts.append(hi)
    return sum(abs(integrate.quad(p.dF, a, b, epsabs=1e-14, epsrel=1e-13)[0])
               for a, b in zip(cuts, cuts[1:]))


def product_by_quad(p: gen.Prim, s: gen.BVSpec) -> float:
    """int F' g dx over the real line (F smooth), split at the breaks of g."""
    edges = [-math.inf] + sorted(s.breaks) + [math.inf]
    return sum(integrate.quad(lambda x: p.dF(x) * s.g(x), a, b,
                              epsabs=1e-13, epsrel=1e-12, limit=400)[0]
               for a, b in zip(edges, edges[1:]))


def make_bv(s: gen.BVSpec) -> bv.BVFunction:
    if s.kind == "step":
        return bv.indicator(*s.args)
    if s.kind == "blocks":
        return bv.blocks(list(s.args[0]))
    if s.kind == "knots":
        return bv.from_knots(*s.args)
    return bv.monotone(s.fn, *s.args)


# ---------------------------------------------------------------------------
# build: audited primitives, the --primitive path, primitives of
# integrands, and rejections


def _extend_op(kind: str, run, p: gen.Prim, xs) -> Op:
    """hake_extend must find the limits and reproduce F - F(-inf)."""
    def check(f, _):
        if isinstance(f, BaseException):
            return _raised(f)
        return _all_close([f.total] + [space.integral(f, NEG_INF, x) for x in xs],
                          [p.total] + [_anchored(p, x) for x in xs])
    return Op(kind, run, check)


def _hake_op(it: gen.Integrand, xs) -> Op:
    """Total against its closed form; integral over [0, x] against the
    closed-form partial integral or scipy quad, within the defect bound
    past the lobe cutoff."""
    def oracle():
        if it.partial is not None:
            return [it.partial(x) for x in xs]
        return [integrate.quad(it.f, 0.0, x, epsabs=1e-13, epsrel=1e-12,
                               limit=1000)[0] for x in xs]

    def check(h, want):
        if isinstance(h, BaseException):
            return _raised(h)
        msgs = [_close(h.total, it.total, rel=1e-7)]
        for x, w in zip(xs, want):
            slack = 1e-7 + (h.defect_bound if x >= h.cutoff else 0.0)
            msgs.append(_close(space.integral(h.distribution, 0.0, x), w, rel=slack))
        return next((m for m in msgs if m), None)
    return Op(f"hake_from_integrand:{it.name}",
              lambda: quadrature.hake_from_integrand(it.fn), check, oracle)


def build_round(ev: gen.Evals, rng: gen.Stratified) -> list[Op]:
    ops = []
    for b in range(BLOCKS["build"]):
        for maker in (gen.atan_ramp, gen.cantor, gen.si, gen.fresnel,
                      gen.quadratic_osc):
            rng.block(b, maker.__name__)
            p = maker(ev, rng)
            xs = [float(x) for x in rng.uniform(-3.0, 3.0, size=4)]
            ops.append(_extend_op(f"hake_extend:{p.name}",
                                  lambda p=p: space.hake_extend(p.fn), p, xs))

        rng.block(b, "compile_expr")
        A, D, W = (float(v) for v in rng.uniform(0.5, 1.25, size=3))
        B = float(rng.uniform(1.0, 2.0))
        C, E = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
        src = f"{A!r}*atan({B!r}*(x-({C!r})))+{D!r}*exp(-((x-({E!r}))/{W!r})^2)"
        F = lambda x, A=A, B=B, C=C, D=D, E=E, W=W: (
            A * math.atan(B * (x - C)) + D * math.exp(-((x - E) / W) ** 2))
        p = gen.Prim("expr", None, F, -A * gen.HALF_PI, A * gen.HALF_PI)
        xs = [float(x) for x in rng.uniform(-3.0, 3.0, size=4)]
        ops.append(_extend_op("compile_expr+hake_extend",
                              lambda src=src: space.hake_extend(
                                  gen.counted(ev, expr.compile_expr(src))), p, xs))

        # exp(-x^2) and 1/(1 + x^2) have no drawn scale: for
        # exp(-(x/s)^2) and 1/(1 + (x/s)^2) the primitive by quad at its
        # default tolerance fails the 1e-10 continuity audit for some s
        # (see FOUND in CHANGES.md), which would make the failed share
        # depend on the seed.
        for i, maker in enumerate((gen.sin_square, gen.sin_over_linear,
                                   lambda ev, rng: gen.gauss_integrand(ev),
                                   lambda ev, rng: gen.rational_integrand(ev))):
            rng.block(b, f"integrand{i}")
            it = maker(ev, rng)
            ops.append(_hake_op(it, [float(x) for x in rng.uniform(0.0, 12.0, size=4)]))

        rng.block(b, "reject")
        c = float(rng.uniform(-2.0, 2.0))
        jump = gen.counted(ev, lambda x, c=c: 0.0 if x < c else 1.0)
        ops.append(Op("reject:jump", lambda fn=jump: space.hake_extend(fn),
                      _raises(errors.NotContinuous)))
        w = float(rng.uniform(0.5, 2.0))
        osc = gen.counted(ev, lambda x, w=w: math.sin(w * x))
        ops.append(Op("reject:sin", lambda fn=osc: space.hake_extend(fn),
                      _raises(errors.NoLimitAtInfinity)))

        # Known fault, on a fixed input: the tail limit is the mean of
        # the samples, not an extrapolation, so a tail approached like
        # |x|^(-1/2) is rejected.
        slow = gen.slow_algebraic_tail(ev)
        ops.append(Op("known_fault:slow_algebraic_tail",
                      lambda slow=slow: space.hake_extend(slow.fn),
                      lambda f, _, slow=slow: _close(getattr(f, "total", f), slow.total),
                      known_fault=True))
    return ops


# ---------------------------------------------------------------------------
# query: norms, order and lattice, absolute-value norm


def query_round(ev: gen.Evals, rng: gen.Stratified) -> list[Op]:
    ops = []
    K = space.NormKind
    O = lattice.Order

    def abs_norm_op(kind, p, variation):
        def check(r, want):
            if isinstance(r, BaseException):
                return _raised(r)
            if want is None:
                return None if r.divergent else f"not divergent: {r!r}"
            return f"divergent: {r!r}" if r.divergent else _close(r.value, want, rel=1e-9)
        return Op(kind, lambda d=_dist(p): lattice.abs_norm(d), check, variation)

    for b in range(BLOCKS["query"]):
        v = b % 4
        rng.block(b, "mix")
        p, q = gen.gauss_mix(ev, rng), gen.gauss_mix(ev, rng)
        f, h = _dist(p), _dist(q)
        ext_p = _once(lambda p=p: dense_extremes(p))

        # the three norms of an arctan ramp (norm A pi), a shifted
        # Gaussian (1), a sine burst (2n) and a mixture (dense scan)
        rng.block(b, "norm")
        if v == 0:
            a = gen.atan_ramp(ev, rng)
            d, ext = _dist(a), (lambda a=a: (max(a.total, 0.0), min(a.total, 0.0)))
        elif v == 1:
            d, ext = _dist(gen.gaussian(ev, rng)), (lambda: (1.0, 0.0))
        elif v == 2:
            n = int(rng.integers(1, 9))
            d = _dist(gen.sine_burst(ev, n))
            ext = lambda n=n: (2.0 * n, 0.0) if n % 2 == 0 else (0.0, -2.0 * n)
        else:
            d, ext = f, ext_p

        def want(kind, ext=ext):
            sup, inf = ext()
            return {K.ALEXIEWICZ: max(abs(sup), abs(inf)),
                    K.INTERVAL_SUP: sup - inf,
                    K.DUAL_BV_LOWER: max(sup, -inf)}[kind]
        for kind in K:
            ops.append(Op(f"norm:{kind.value}",
                          lambda d=d, kind=kind: space.norm(d, kind), _close,
                          lambda want=want, kind=kind: want(kind)))

        # compare: a pair of mixtures, f below and above f plus a
        # positive bump, and f against a copy of itself
        if v == 0:
            order = lambda p=p, q=q: dense_order(p, q)
            pair = (f, h)
        elif v == 3:
            order, pair = (lambda: O.EQUAL), (f, _dist(p))
        else:
            rng.block(b, "compare")
            bc, ba = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.1, 1.0))
            f_up = space.distribution_from_evaluator(
                gen.counted(ev, lambda x, F=p.F, bc=bc, ba=ba:
                            F(x) + ba * math.exp(-(x - bc) ** 2)),
                p.lim_neg, p.lim_pos)
            order, pair = ((lambda: O.LESS_OR_EQUAL), (f, f_up)) if v == 1 else \
                ((lambda: O.GREATER_OR_EQUAL), (f_up, f))
        ops.append(Op("compare", lambda pair=pair: lattice.compare(*pair).order,
                      _is, order))

        # equal: a pair of mixtures, and f against a copy of itself
        if v % 2 == 0:
            ops.append(Op("equal", lambda f=f, h=h: space.equal(f, h), _is,
                          lambda p=p, q=q: dense_order(p, q) is O.EQUAL))
        else:
            ops.append(Op("equal", lambda f=f, g=_dist(p): space.equal(f, g), _is,
                          lambda: True))

        # lattice: the join dominates and the meet is dominated; the
        # modular identity join + meet = f + g
        if v % 2 == 0:
            def dominance(f=f, h=h):
                join = lattice.lattice_op(f, h, lattice.LatticeKind.JOIN)
                meet = lattice.lattice_op(f, h, lattice.LatticeKind.MEET)
                return (lattice.compare(f, join).order in (O.LESS_OR_EQUAL, O.EQUAL),
                        lattice.compare(meet, f).order in (O.LESS_OR_EQUAL, O.EQUAL))
            ops.append(Op("lattice", dominance, _is, lambda: (True, True)))
        else:
            def modular(f=f, h=h):
                join = lattice.lattice_op(f, h, lattice.LatticeKind.JOIN)
                meet = lattice.lattice_op(f, h, lattice.LatticeKind.MEET)
                return space.equal(space.linear_combine(1.0, join, meet),
                                   space.linear_combine(1.0, f, h))
            ops.append(Op("lattice", modular, _is, lambda: True))

        def part_norms(ext=ext_p):
            sup, inf = ext()
            return [max(sup, 0.0), max(-inf, 0.0), max(sup, -inf)]
        ops.append(Op("parts:norms", lambda f=f: [space.norm(x) for x in lattice.parts(f)],
                      _all_close, part_norms))

        # abs_norm that settles: monotone primitives, drawn, and the
        # library's Gaussian and signed bump, fixed (abs_norm may raise
        # BudgetExceeded on scaled or shifted ones, see FOUND in
        # CHANGES.md, which would make the failed share depend on the
        # seed); and abs_norm that diverges, on fixed inputs
        rng.block(b, "abs_norm")
        if v == 0:
            a = gen.atan_ramp(ev, rng)
            ops.append(abs_norm_op("abs_norm:settles", a, lambda a=a: a.variation))
        elif v == 1:
            c = gen.cantor(ev, rng)
            ops.append(abs_norm_op("abs_norm:settles", c, lambda c=c: c.variation))
        elif v == 2:
            ops.append(abs_norm_op("abs_norm:settles", gen.gaussian(ev), lambda: 2.0))
        else:
            sb = gen.signed_bump(ev)
            ops.append(abs_norm_op("abs_norm:settles", sb,
                                   lambda sb=sb: variation_by_quad(sb)))
        div = (gen.si, gen.fresnel, gen.quadratic_osc, gen.si)[v]
        ops.append(abs_norm_op("abs_norm:diverges", div(ev), lambda: None))

        # Known fault, on fixed inputs: equal and compare use fixed grids
        # that step over a narrow spike whose norm is 1.
        s4, s5 = _dist(gen.spike(ev, 1e-4)), _dist(gen.spike(ev, 1e-5))
        ops.append(Op("known_fault:narrow_spike",
                      lambda s4=s4, s5=s5: (space.equal(s4, space.zero()),
                                            lattice.compare(s5, space.zero()).order),
                      _is, lambda: (False, O.GREATER_OR_EQUAL), known_fault=True))
    return ops


# ---------------------------------------------------------------------------
# stieltjes: products against BV functions and the transforms


def _holder_check(bound, exact) -> Optional[str]:
    """abs(int fg), by quad, lies within both forms of the bound."""
    if isinstance(bound, BaseException):
        return _raised(bound)
    if abs(exact) > min(bound.jump_form, bound.bv_norm_form) + 1e-9 * (1.0 + abs(exact)):
        return f"|int fg| = {abs(exact)!r} exceeds {bound}"
    return None


def _first_crossing(p: gen.Prim, target: float, uxi: float,
                    points: int = 200000, chunk: int = 10000) -> Optional[float]:
    """The grid point just right of the first sign change of F - target
    on `points` chart points in (-1, uxi], or None.  Chunked, so that
    the check adds little to the run's peak memory."""
    x0 = d0 = None
    for i0 in range(1, points + 1, chunk):
        k = np.arange(i0, min(i0 + chunk, points + 1))
        x = _u_to_x(-1.0 + (uxi + 1.0) * k / points)
        d = p.F_np(x) - p.lim_neg - target
        if x0 is not None:
            x, d = np.concatenate(([x0], x)), np.concatenate(([d0], d))
        changes = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
        if len(changes):
            return float(x[changes[0] + 1])
        x0, d0 = x[-1], d[-1]
    return None


def critical_points(p: gen.Prim, lo=-6.0, hi=5.0, points=11001) -> list[float]:
    """The points of [lo, hi] where F' changes sign, to within 1e-3,
    from a scan of F small enough to leave the run's peak memory alone."""
    x = np.linspace(lo, hi, points)
    d = np.diff(p.F_np(x))
    return [float(v) for v in x[1:-1][d[:-1] * d[1:] <= 0.0]]


def _mvt_check(p: gen.Prim, s: gen.BVSpec):
    """The identity residual holds at xi, and a dense scan of F - target
    in the chart finds no sign change left of xi."""
    ga, gb = s.g(-1e300), s.g(1e300)

    def check(xi, exact):
        if isinstance(xi, BaseException):
            return _raised(xi)
        target = (gb * p.total - exact) / (gb - ga)
        Fx = _anchored(p, xi) if math.isfinite(xi) else (0.0 if xi < 0 else p.total)
        resid = ga * Fx + gb * (p.total - Fx) - exact
        if not abs(resid) <= 1e-8 * (1.0 + abs(exact)):
            return f"residual {resid:g} at xi={xi!r}"
        if math.isfinite(xi):
            x = _first_crossing(p, target, xi / (1.0 + abs(xi)))
            if x is not None and xi - x > 1e-6 * (1.0 + abs(xi)):
                return f"F = target near x={x!r}, left of xi={xi!r}"
        return None
    return check


def stieltjes_round(ev: gen.Evals, rng: gen.Stratified) -> list[Op]:
    ops = []
    ramp = gen.ramp_indicator(ev)
    fe = gen.one_minus_exp(ev)
    si = gen.si(ev)
    for b in range(BLOCKS["stieltjes"]):
        for kind, maker in (("step", gen.step), ("blocks", gen.block_spec),
                            ("knots", gen.knots_spec),
                            ("ramp", lambda r: gen.ramp_spec(ev, r))):
            # one bump against a ramp: with more, the ramp products alone
            # would spread the per-run figures by seed
            rng.block(b, kind)
            p = gen.gauss_mix(ev, rng, 1 if kind == "ramp" else None)
            s = maker(rng)
            ops.append(Op(f"integral_product:{kind}",
                          lambda f=_unaudited(p), g=make_bv(s): products.integral_product(f, g),
                          _close, lambda p=p, s=s: product_by_quad(p, s)))

        rng.block(b, f"holder_bound{b % 4}")
        p = gen.gauss_mix(ev, rng)
        s = (gen.step, gen.block_spec, gen.knots_spec, gen.step)[b % 4](rng)
        ops.append(Op("holder_bound",
                      lambda f=_unaudited(p), g=make_bv(s): products.holder_bound(f, g),
                      _holder_check, lambda p=p, s=s: product_by_quad(p, s)))

        # The step's edge a is kept clear of the extrema of F: there the
        # target F(a) is passed only on a stretch narrower than a cell of
        # the grid that second_mvt_xi scans, which then misses every root
        # and raises ResidualTooLarge (a fault of cpint, left out here).
        rng.block(b, f"second_mvt_xi{b % 2}")
        p = gen.gauss_mix(ev, rng)
        if b % 2 == 0:
            s = gen.upward_step(rng, clear_of=critical_points(p))
        else:
            s = gen.monotone_knots_spec(rng)
        ops.append(Op("second_mvt_xi",
                      lambda f=_unaudited(p), g=make_bv(s): products.second_mvt_xi(f, g),
                      _mvt_check(p, s), lambda p=p, s=s: product_by_quad(p, s)))

        # the cost of a Poisson value depends on |x| and y
        rng.block(b, "transforms")
        x = float(rng.uniform(0.0, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        y = float(np.exp(rng.uniform(math.log(1.5), math.log(2.5))))
        want = (math.atan((x + 1.0) / y) - math.atan((x - 1.0) / y)) / math.pi
        ops.append(Op("poisson",
                      lambda f=_unaudited(ramp), pt=transforms.HalfPlanePoint(x, y):
                      transforms.poisson(f, pt), _close, lambda w=want: w))

        z = cmath.rect(float(rng.uniform(1.0, 2.5)), float(rng.uniform(-0.8, 0.8)))
        ops.append(Op("laplace:one_minus_exp",
                      lambda f=_unaudited(fe), z=z: transforms.laplace(f, z),
                      _close, lambda z=z: 1.0 / (z + 1.0)))
        z = complex(float(rng.uniform(1.0, 1.5)),
                    float(rng.uniform(0.25, 0.75)) * (1.0 if rng.random() < 0.5 else -1.0))
        ops.append(Op("laplace:si", lambda f=_unaudited(si), z=z: transforms.laplace(f, z),
                      _close, lambda z=z: cmath.atan(1.0 / z)))
    return ops


ROUNDS = {"build": build_round, "query": query_round, "stieltjes": stieltjes_round}
