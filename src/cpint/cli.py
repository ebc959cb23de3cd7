"""Command-line front end.

All results go to standard output as UTF-8 CSV with a header row and
values printed with 17 significant digits; diagnostics go to standard
error.  Exit codes: 0 success, 1 domain error, 2 usage error.

Primitives are given as expressions in x (see the expression module for
the grammar); BV multipliers use a small spec syntax:

    constant:C
    heaviside
    indicator:A,B
    monotone:EXPR[;LIMNEG,LIMPOS]
    knots:X1,...,Xk;V1,...,Vk
    blocks:A1,B1,H1;A2,B2,H2;...
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from . import acceptance, convergence, transforms
from .bv import (BVFunction, blocks, constant, from_knots, heaviside,
                 indicator, monotone)
from .cfun import build_continuous
from .chart import parse_extended
from .errors import CpintError, DomainError, check_tol
from .expr import compile_expr
from .lattice import LatticeKind, abs_norm, compare, lattice_op, parts
from .products import (TaylorInput, change_of_variables, integral_product,
                       taylor_expand)
from .quadrature import hake_from_integrand
from .space import Distribution, NormKind, hake_extend, integral, norm


def _fmt(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _emit(header: list[str], rows: list[list]) -> None:
    out = sys.stdout
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _build_distribution(args) -> Distribution:
    """A Distribution from --primitive EXPR (limits found by tail audit)
    or from --fixture NAME."""
    if getattr(args, "fixture", None):
        from .fixtures import FIXTURES
        if args.fixture not in FIXTURES:
            raise CpintError(f"unknown fixture {args.fixture!r}; choose "
                             f"from {sorted(FIXTURES)}")
        return FIXTURES[args.fixture]()
    if not getattr(args, "primitive", None):
        raise SystemExit(_usage("one of --primitive or --fixture is "
                                "required"))
    F = compile_expr(args.primitive)
    return hake_extend(F, tol=args.tol)


def _numbers(text: str, count: Optional[int] = None, parse=float,
             what: str = "BV spec") -> list[float]:
    """The comma-separated numbers of `what`, a BV spec or a flag,
    `count` of them where given; anything else is a usage error."""
    try:
        vals = [parse(s) for s in text.split(",")]
    except ValueError as exc:
        raise SystemExit(_usage(f"malformed {what}: {exc}"))
    if count is not None and len(vals) != count:
        raise SystemExit(_usage(f"malformed {what}: {text!r} is not "
                                f"{count} numbers"))
    return vals


def _parse_bv(spec: str, tol: float) -> BVFunction:
    """The BV multiplier of a spec.  build_continuous checks a monotone
    spec's limits, or finds them where omitted, and audits its
    expression."""
    kind, _, rest = spec.partition(":")
    if kind == "heaviside":
        return heaviside()
    if kind == "constant":
        return constant(*_numbers(rest, 1))
    if kind == "indicator":
        return indicator(*_numbers(rest, 2, parse_extended))
    if kind == "monotone":
        expr, _, lims = rest.partition(";")
        fn = compile_expr(expr)
        lo, hi = _numbers(lims, 2) if lims else (None, None)
        F = build_continuous(fn, lo, hi, tol)
        return monotone(fn, F.limit_neg, F.limit_pos)
    if kind == "knots":
        xs, _, vs = rest.partition(";")
        return from_knots(_numbers(xs), _numbers(vs))
    if kind == "blocks":
        return blocks([_numbers(chunk, 3) for chunk in rest.split(";")])
    raise SystemExit(_usage(f"unknown BV spec kind {kind!r}"))


def _usage(msg: str) -> int:
    sys.stderr.write(f"usage error: {msg}\n")
    return 2


# ---------------------------------------------------------------------------
# subcommands


def _cmd_integrate(args) -> int:
    a = parse_extended(args.from_)
    b = parse_extended(args.to)
    if args.hake:
        if not args.primitive_of:
            raise SystemExit(_usage("--hake needs --primitive-of EXPR"))
        integrand = compile_expr(args.primitive_of)
        h = hake_from_integrand(integrand, a=a, tol=args.tol)
        f = h.distribution
        sys.stderr.write(f"hake: {h.lobes_used} lobes, cutoff "
                         f"{h.cutoff:g}, defect bound {h.defect_bound:g}\n")
    elif getattr(args, "primitive", None) and math.isfinite(a) \
            and math.isfinite(b):
        # a finite window only needs the primitive on [a, b]: clamp it
        # outside, which represents f restricted to the window
        F = compile_expr(args.primitive)
        Fa = F(a)
        f = hake_extend(lambda x: F(min(max(x, a), b)) - Fa, tol=args.tol)
    else:
        f = _build_distribution(args)
    value = integral(f, a, b)
    _emit(["a", "b", "value"], [[a, b, value]])
    return 0


def _cmd_norm(args) -> int:
    f = _build_distribution(args)
    if args.kind == "abs":
        res = abs_norm(f, tol=args.tol)
        _emit(["kind", "divergent", "value", "levels"],
              [["abs", res.divergent, res.value, res.levels_used]])
        return 0
    kind = NormKind(args.kind)
    _emit(["kind", "value"], [[kind.value, norm(f, kind)]])
    return 0


def _cmd_product(args) -> int:
    f = _build_distribution(args)
    g = _parse_bv(args.bv, args.tol)
    value = integral_product(f, g, args.tol)
    _emit(["bv", "value"], [[args.bv, value]])
    return 0


def _cmd_cov(args) -> int:
    f = _build_distribution(args)
    G = compile_expr(args.g)
    a = parse_extended(args.from_)
    b = parse_extended(args.to)
    value = change_of_variables(f, G, a, b, tol=args.tol)
    _emit(["a", "b", "value"], [[a, b, value]])
    return 0


def _cmd_taylor(args) -> int:
    top = compile_expr(args.fn_top)
    coeffs = _numbers(args.coeffs, what="--coeffs")
    inp = TaylorInput(args.n, args.a, max(args.x, args.a + 1e-12)
                      if args.b is None else args.b, top, coeffs)
    res = taylor_expand(inp, args.x, args.tol)
    _emit(["x", "polynomial", "remainder", "bound_pointwise",
           "bound_uniform"],
          [[args.x, res.polynomial, res.remainder, res.bound_pointwise,
            res.bound_uniform]])
    return 0


def _cmd_lattice(args) -> int:
    f = _build_distribution(args)
    if args.op == "parts":
        f_plus, f_minus, f_abs = parts(f)
        rows = [[label, norm(p), p.total]
                for label, p in (("plus", f_plus), ("minus", f_minus),
                                 ("abs", f_abs))]
        _emit(["component", "norm", "total"], rows)
        return 0
    if not args.primitive2 and not args.fixture2:
        raise SystemExit(_usage(f"--op {args.op} needs --primitive2 or "
                                "--fixture2"))
    g = _build_distribution(argparse.Namespace(
        primitive=args.primitive2, fixture=args.fixture2, tol=args.tol))
    if args.op == "compare":
        res = compare(f, g, args.tol)
        _emit(["order", "witness_below", "witness_above"],
              [[res.order.value,
                "" if res.witness_below is None else _fmt(res.witness_below),
                "" if res.witness_above is None else
                _fmt(res.witness_above)]])
        return 0
    h = lattice_op(f, g, LatticeKind(args.op))
    xs = [-8.0 + i for i in range(17)]
    _emit(["x", "primitive"], [[x, h.primitive(x)] for x in xs])
    return 0


def _cmd_converge(args) -> int:
    params = {}
    if args.params:
        for chunk in args.params.split(","):
            k, _, v = chunk.partition("=")
            params[k.strip()] = _numbers(v, 1,
                                         what=f"--params {chunk!r}")[0]
    seq = convergence.fixtures(args.fixture, params)
    modes = [m.strip() for m in args.modes.split(",")]
    from .space import zero
    rows = []
    for mode in modes:
        if mode == "weakD":
            rep = convergence.weak_d_report(seq, zero(), n_max=args.n_max,
                                            tol=args.tol)
        elif mode == "weakBV":
            rep = convergence.weak_bv_report(seq, zero(), n_max=args.n_max,
                                             tol=args.tol)
        elif mode == "strong":
            ns = [n for n in (1, 2, 4, 8, 16, 32) if n <= args.n_max]
            for n in ns:
                d = convergence.strong_distance(seq, zero(), n)
                rows.append(["strong", "distance", n, d, ""])
            continue
        elif mode == "integral":
            ns = [n for n in (1, 2, 4, 8, 16, 32, 64) if n <= args.n_max]
            for n in ns:
                v = integral(seq(n), 0.0, 1.0)
                rows.append(["integral", "[0,1]", n, v, ""])
            continue
        else:
            raise SystemExit(_usage(f"unknown mode {mode!r}"))
        for r in rep.evidence:
            rows.append([rep.mode, r.label, r.n, r.value, ""])
        rows.append([rep.mode, "verdict", "", "", rep.verdict.value])
    _emit(["mode", "label", "n", "value", "verdict"], rows)
    return 0


def _cmd_poisson(args) -> int:
    f = _build_distribution(args)
    p = transforms.HalfPlanePoint(args.x, args.y)
    value = transforms.poisson(f, p, args.tol)
    _emit(["x", "y", "value"], [[args.x, args.y, value]])
    return 0


def _cmd_laplace(args) -> int:
    f = _build_distribution(args)
    z = complex(args.re, args.im)
    if args.derivative:
        value = transforms.laplace_derivative(f, z, args.derivative,
                                              args.tol)
    else:
        value = transforms.laplace(f, z, args.tol)
    _emit(["re_z", "im_z", "order", "re_value", "im_value"],
          [[args.re, args.im, args.derivative, value.real, value.imag]])
    return 0


def _cmd_selftest(args) -> int:
    results = acceptance.run_all(tol=args.tol)
    rows = []
    for r in results:
        line = (f"{'PASS' if r.passed else 'FAIL'} {r.index:02d} "
                f"{r.name}: {r.detail} ({r.seconds:.1f}s)\n")
        sys.stderr.write(line)
        rows.append([r.index, r.name, "pass" if r.passed else "fail",
                     r.detail])
    _emit(["criterion", "name", "status", "detail"], rows)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument wiring


def _add_source_flags(p, second: bool = False) -> None:
    p.add_argument("--primitive", help="primitive F as an expression in x")
    p.add_argument("--fixture", help="named fixture distribution")
    if second:
        p.add_argument("--primitive2", help="second primitive expression")
        p.add_argument("--fixture2", help="second named fixture")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpint",
        description="continuous primitive integral calculator")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="refinement tolerance (default 1e-10)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="integral over [a, b]")
    _add_source_flags(p)
    p.add_argument("--hake", action="store_true",
                   help="build the primitive from an integrand by "
                        "oscillatory partial-integral limits")
    p.add_argument("--primitive-of", dest="primitive_of",
                   help="integrand expression for --hake")
    p.add_argument("--from", dest="from_", required=True)
    p.add_argument("--to", dest="to", required=True)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("norm", help="norm of a distribution")
    _add_source_flags(p)
    p.add_argument("--kind", default="alexiewicz",
                   choices=["alexiewicz", "interval_sup", "dual_bv_lower",
                            "abs"])
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("product", help="integral of f times a BV function")
    _add_source_flags(p)
    p.add_argument("--bv", required=True, help="BV spec (see module help)")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("cov", help="change of variables through G")
    _add_source_flags(p)
    p.add_argument("--g", required=True, help="substitution G as an "
                                              "expression in x")
    p.add_argument("--from", dest="from_", required=True)
    p.add_argument("--to", dest="to", required=True)
    p.set_defaults(func=_cmd_cov)

    p = sub.add_parser("taylor", help="Taylor expansion with "
                                      "distributional remainder")
    p.add_argument("--fn-top", dest="fn_top", required=True,
                   help="n-th derivative as an expression in x")
    p.add_argument("--coeffs", required=True,
                   help="comma-separated f^(k)(a), k = 0..n")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, default=None,
                   help="right end of the window (default: x)")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_taylor)

    p = sub.add_parser("lattice", help="order and lattice operations")
    _add_source_flags(p, second=True)
    p.add_argument("--op", required=True,
                   choices=["join", "meet", "parts", "compare"])
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("converge", help="convergence reports for named "
                                        "sequence families")
    p.add_argument("--fixture", required=True)
    p.add_argument("--params", default="",
                   help="comma-separated key=value sequence parameters")
    p.add_argument("--modes", default="weakD",
                   help="comma-separated: weakD,weakBV,strong,integral")
    p.add_argument("--n-max", dest="n_max", type=int, default=32)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("poisson", help="harmonic extension value u(x, y)")
    _add_source_flags(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.set_defaults(func=_cmd_poisson)

    p = sub.add_parser("laplace", help="Laplace transform value at z")
    _add_source_flags(p)
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)
    p.add_argument("--derivative", type=int, default=0,
                   help="transform derivative order (default 0)")
    p.set_defaults(func=_cmd_laplace)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(func=_cmd_selftest)
    return parser


def _join_dash_values(parser: argparse.ArgumentParser,
                      argv: list[str]) -> list[str]:
    """argv with each value that starts with '-' joined to its flag, as
    --flag=value: argparse reads only -N and -N.N as numbers and takes
    any other such value (-inf, -1e-5, -atan(x)) for an option."""
    parsers = [parser] + [sub for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction)
                          for sub in action.choices.values()]
    # every flag, and whether it expects one value
    flags = {flag: action.nargs is None for p in parsers
             for action in p._actions for flag in action.option_strings}
    out: list[str] = []
    for arg in argv:
        if (out and flags.get(out[-1]) and arg.startswith("-")
                and arg not in flags):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_dash_values(
            parser, sys.argv[1:] if argv is None else argv))
        check_tol(args.tol, "--tol")
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize others
        return int(exc.code or 0)
    except DomainError as exc:
        return _usage(str(exc))
    try:
        return args.func(args)
    except CpintError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
