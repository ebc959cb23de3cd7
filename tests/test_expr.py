import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from cpint import quadrature, space
from cpint.errors import (EvalError, ExprSyntaxError, NoLimitAtInfinity,
                          UnknownFunction)
from cpint.expr import _FUNCTIONS, Node, compile_expr, parse


# The tree walker that evaluated expressions before they were compiled:
# the oracle for compile_expr, whose values and errors must match it bit
# for bit.

def _product(a: float, b: float) -> float:
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def reference(node: Node, x: float) -> float:
    try:
        return _walk(node, x)
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise EvalError(f"evaluation failed at x={x!r}: {exc}") from exc


def _walk(node: Node, x: float) -> float:
    if node.kind == "num":
        return node.value
    if node.kind == "var":
        return x
    if node.kind == "neg":
        return -_walk(node.children[0], x)
    if node.kind == "call":
        return float(_FUNCTIONS[node.name](_walk(node.children[0], x)))
    if node.kind == "piecewise":
        k = (len(node.children) - 1) // 2
        cuts = [_walk(b, 0.0) for b in node.children[:k]]
        branches = node.children[k:]
        idx = 0
        while idx < k and x >= cuts[idx]:
            idx += 1
        return _walk(branches[idx], x)
    a = _walk(node.children[0], x)
    if node.op == "*":
        if a == 0.0:
            return 0.0
        b = _walk(node.children[1], x)
        return _product(a, b)
    b = _walk(node.children[1], x)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "/":
        return a / b
    if node.op == "^":
        if a == 0.0 and b > 0.0:
            return 0.0
        return math.pow(a, b)
    raise EvalError(f"unknown operator {node.op!r}")


def _outcome(f, x):
    """f(x) as a comparable value: its bits, 'nan', or the EvalError text."""
    try:
        v = f(x)
    except EvalError as exc:
        return ("raises", str(exc))
    return ("nan",) if math.isnan(v) else ("value", float(v).hex())


def assert_matches_reference(src, xs):
    tree = parse(src)
    fn = compile_expr(src)
    for x in xs:
        expected = _outcome(lambda t: reference(tree, t), x)
        assert _outcome(fn, x) == expected, (src, x)


class TestEvaluation:
    @pytest.mark.parametrize("src,x,expected", [
        ("x^2*cos(x^-2)", 1.0, math.cos(1.0)),
        ("x^2*cos(x^-2)", 0.0, 0.0),       # zero absorbs the blow-up
        ("atan(x)", 1.0, math.atan(1.0)),
        ("2+3*4", 0.0, 14.0),
        ("2^3^2", 0.0, 512.0),             # right associative
        ("-x^2", 2.0, -4.0),               # unary minus binds looser than ^
        ("(2+3)*4", 0.0, 20.0),
        ("1/2*x", 4.0, 2.0),               # left associative
        ("2-3-4", 0.0, -5.0),
        ("sinc(x)", 0.0, 1.0),
        ("2*pi", 0.0, 2.0 * math.pi),
        ("exp(-x^2)", 1.0, math.exp(-1.0)),
        ("1e-3+x", 1.0, 1.001),
    ])
    def test_oracles(self, src, x, expected):
        assert compile_expr(src)(x) == pytest.approx(expected, abs=1e-15)

    def test_piecewise_branches(self):
        fn = compile_expr("piecewise(0, 1, 0, x, 0)")
        assert fn(-1.0) == 0.0
        assert fn(0.5) == 0.5
        assert fn(2.0) == 0.0

    def test_eval_error_wraps_math_faults(self):
        with pytest.raises(EvalError):
            compile_expr("log(x)")(-1.0)
        with pytest.raises(EvalError):
            compile_expr("1/x")(0.0)


class TestSyntaxErrors:
    def test_position_reported(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x +")
        assert exc.value.position == 3

    @pytest.mark.parametrize("bad", [
        "", "sin(x", "x y", "..", "@", "piecewise(1, 0, x, 0, 3)",
        "piecewise(0, x)",
    ])
    def test_rejected(self, bad):
        with pytest.raises(ExprSyntaxError):
            parse(bad)

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse("foo(x)")


# exact zeros sit next to * often, and 1e999 is a non-finite constant
_leaf = st.one_of(
    st.just("x"),
    st.sampled_from(["0", "0.0", "pi", "1e999"]),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
              allow_infinity=False).map(lambda v: repr(v)))


def _piecewise(sub):
    cuts = st.integers(min_value=1, max_value=3).flatmap(
        lambda k: st.lists(st.floats(min_value=-10.0, max_value=10.0),
                           min_size=k, max_size=k, unique=True))
    return cuts.flatmap(lambda c: st.lists(
        sub, min_size=len(c) + 1, max_size=len(c) + 1).map(
        lambda branches: "piecewise({})".format(", ".join(
            [repr(v) for v in sorted(c)] + branches))))


def _exprs(depth):
    if depth == 0:
        return _leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(sub, st.sampled_from("+-*/^"), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["0", "x", "(x - x)"]), sub).map(
            lambda t: f"({t[0]} * {t[1]})"),
        sub.map(lambda s: f"-({s})"),
        sub.map(lambda s: f"-{s}"),
        st.tuples(st.sampled_from(sorted(_FUNCTIONS)), sub).map(
            lambda t: f"{t[0]}({t[1]})"),
        _piecewise(sub),
    )


_points = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300,
                     -1e300, 1.0, -1.0]),
    st.floats(min_value=-12.0, max_value=12.0),
    st.floats())


class TestCompiledMatchesTreeWalk:
    @pytest.mark.parametrize("src", [
        "x^2*cos(x^-2)", "0*log(x)", "log(x)*0", "(x-x)*(1/x)",
        "x*1e999", "1e999*x - 1e999", "x*((x-x)*log(-x))", "x*(2*log(x))",
        "-x*0", "0^x", "x^0.5", "2^x^2",
        "sinc(x)*x", "exp(x)*0", "sqrt(x) + log(x)", "1/x + log(-x)",
        "piecewise(-1, 1, -x, x^2, 1/x)", "piecewise(0, 1e999, x, 2, 3)",
        "piecewise(-1e999, 0, 1, piecewise(0.5, x, -x), 3)",
        "-(-(x)) * abs(x) - expm1(x) / tan(x)",
    ])
    def test_fixed_points(self, src):
        xs = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, 1e300, -1e300,
              math.inf, -math.inf, math.nan, 710.0]
        assert_matches_reference(src, xs)

    def test_calls_return_floats(self):
        # an int argument stays int through abs(), and float() converts it
        assert type(reference(parse("abs(x)"), -3)) is float
        assert type(compile_expr("abs(x)")(-3)) is float

    @settings(max_examples=300, deadline=None)
    @given(_exprs(3), st.lists(_points, min_size=1, max_size=8))
    def test_property(self, src, xs):
        assert_matches_reference(src, xs)


def _nested_product(x, depth):
    v = x
    for _ in range(depth):
        v = x * v
    return v


class TestDeepExpressions:
    """No depth that parses raises RecursionError or SyntaxError: parsing
    and compiling keep their own stack."""

    @pytest.mark.parametrize("n", [900, 5000])
    def test_long_sum(self, n):
        fn = compile_expr("+".join(["x"] * n))
        assert fn(1.0) == float(n)
        assert fn(0.3) == functools.reduce(lambda a, b: a + b, [0.3] * n)

    @pytest.mark.parametrize("depth", [190, 250, 2000])
    def test_nested_product(self, depth):
        src = "x*(" * depth + "x" + ")" * depth
        fn = compile_expr(src)
        assert fn(1.0001) == _nested_product(1.0001, depth)
        assert fn(0.0) == 0.0

    def test_nested_unary_power_and_calls(self):
        assert compile_expr("-" * 3000 + "x")(2.0) == 2.0
        tower = 1.0
        for _ in range(2000):
            tower = math.pow(1.1, tower)
        assert compile_expr("x^" * 2000 + "1")(1.1) == tower
        assert compile_expr("sin(" * 2000 + "x" + ")" * 2000)(0.0) == 0.0
        src = "piecewise(0, " * 500 + "x" + ", 1)" * 500
        assert compile_expr(src)(-1.0) == -1.0
        assert compile_expr(src)(1.0) == 1.0

    def test_deep_syntax_error_is_typed(self):
        with pytest.raises(ExprSyntaxError):
            parse("x*(" * 5000 + "x" + ")" * 4999)

    def test_identity_hash_and_repr_of_deep_tree(self):
        src = " + ".join(["x"] * 5000)
        tree = parse(src)
        assert tree == tree
        assert tree != parse(src)
        assert hash(tree) == hash(tree)
        assert repr(tree).startswith("<cpint.expr.Node object")


class TestEvalErrorReadsAsNaN:
    """An EvalError is a ValueError, so evaluators read it as NaN, as
    they read the math faults of a plain Python function."""

    def test_still_raised_by_the_evaluator(self):
        assert issubclass(EvalError, ValueError)
        with pytest.raises(EvalError, match="math domain error"):
            compile_expr("log(x)")(-1.0)

    def test_hake_from_zero_of_sinc(self):
        got = quadrature.hake_from_integrand(compile_expr("sin(x)/x"))
        expected = quadrature.hake_from_integrand(
            lambda x: math.sin(x) / x)
        assert got.total == expected.total
        assert got.total == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_overflowing_tail_has_no_limit(self):
        with pytest.raises(NoLimitAtInfinity):
            space.hake_extend(lambda x: math.atan(x)
                              + 1e-300 * math.exp(x))
        with pytest.raises(NoLimitAtInfinity):
            space.hake_extend(compile_expr("atan(x)+1e-300*exp(x)"))
