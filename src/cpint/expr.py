"""Small arithmetic expression language for the command line.

Grammar (usual precedence, ^ binds tightest and associates right):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?
    atom    := number | 'x' | name '(' expr (',' expr)* ')' | '(' expr ')'

Known functions: sin cos tan exp log atan abs sqrt sinc, plus
piecewise(b1, ..., bk, e0, e1, ..., ek) which selects e_i on the i-th
interval cut by the sorted breakpoints b1 < ... < bk.

Evaluation uses the convention that an exact zero factor absorbs a
non-finite cofactor, so x^2 * cos(x^-2) evaluates to 0 at x = 0.

A tree compiles once into one Python function of x: straight-line code
with one temporary per node, so a call walks no tree.  Parsing and
compiling run on an explicit stack, so an expression may nest as deeply
as memory allows.  compile_expr is the one entry point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from .errors import UNDEFINED, EvalError, ExprSyntaxError, UnknownFunction

_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "expm1": math.expm1,
    "log": math.log,
    "atan": math.atan,
    "abs": abs,
    "sqrt": math.sqrt,
    "sinc": lambda t: math.sin(t) / t if t != 0.0 else 1.0,
}


@dataclass(frozen=True, eq=False, repr=False)
class Node:
    kind: str  # "num" | "var" | "neg" | "bin" | "call" | "piecewise"
    value: float = 0.0
    op: str = ""
    name: str = ""
    children: tuple["Node", ...] = ()


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            try:
                float(src[i:j])
            except ValueError:
                raise ExprSyntaxError(f"bad number {src[i:j]!r}", i)
            tokens.append(_Token("num", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], i))
            i = j
            continue
        if c in "+-*/^(),":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


_Step = Generator[Any, Any, Any]


def _run(step: _Step) -> Any:
    """Run a recursion written as generators on an explicit stack: a step
    yields the step of a child and is sent back the child's result."""
    stack, value = [step], None
    while stack:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(child)
            value = None
    return value


class _Parser:
    """Recursive descent, one generator per rule, driven by _run."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> None:
        t = self.take()
        if t.kind == "end" or t.text != text:
            raise ExprSyntaxError(f"expected {text!r}", t.pos)

    def parse(self) -> Node:
        node = _run(self.expr())
        t = self.peek()
        if t.kind != "end":
            raise ExprSyntaxError(f"unexpected {t.text!r}", t.pos)
        return node

    def expr(self) -> _Step:
        node = yield self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            right = yield self.term()
            node = Node("bin", op=op, children=(node, right))
        return node

    def term(self) -> _Step:
        node = yield self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            right = yield self.unary()
            node = Node("bin", op=op, children=(node, right))
        return node

    def unary(self) -> _Step:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            operand = yield self.unary()
            return Node("neg", children=(operand,))
        return (yield self.power())

    def power(self) -> _Step:
        base = yield self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            exponent = yield self.unary()
            return Node("bin", op="^", children=(base, exponent))
        return base

    def atom(self) -> _Step:
        t = self.take()
        if t.kind == "num":
            return Node("num", value=float(t.text))
        if t.kind == "name":
            if t.text == "x":
                return Node("var")
            if t.text == "pi":
                return Node("num", value=math.pi)
            if self.peek().text != "(":
                raise ExprSyntaxError(
                    f"unknown name {t.text!r} (did you mean a call?)", t.pos)
            self.take()
            args = [(yield self.expr())]
            while self.peek().text == ",":
                self.take()
                args.append((yield self.expr()))
            self.expect(")")
            if t.text == "piecewise":
                return _make_piecewise(args, t.pos)
            if t.text not in _FUNCTIONS:
                raise UnknownFunction(f"unknown function {t.text!r}")
            if len(args) != 1:
                raise ExprSyntaxError(
                    f"{t.text} takes one argument", t.pos)
            return Node("call", name=t.text, children=(args[0],))
        if t.kind == "op" and t.text == "(":
            node = yield self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(f"unexpected {t.text or 'end of input'!r}",
                              t.pos)


def _make_piecewise(args: list[Node], pos: int) -> Node:
    # k breakpoints followed by k+1 branch expressions: 2k+1 args total
    if len(args) < 3 or len(args) % 2 == 0:
        raise ExprSyntaxError(
            "piecewise needs k breakpoints then k+1 expressions", pos)
    k = (len(args) - 1) // 2
    breaks = args[:k]
    for b in breaks:
        if b.kind != "num" and not (b.kind == "neg"
                                    and b.children[0].kind == "num"):
            raise ExprSyntaxError("piecewise breakpoints must be numeric",
                                  pos)
    cuts = [_cut(b) for b in breaks]
    if any(cuts[i] >= cuts[i + 1] for i in range(len(cuts) - 1)):
        raise ExprSyntaxError("piecewise breakpoints must be increasing",
                              pos)
    return Node("piecewise", children=tuple(args))


def _cut(b: Node) -> float:
    """A piecewise breakpoint: a number or a negated number."""
    return -b.children[0].value if b.kind == "neg" else b.value


def parse(src: str) -> Node:
    """Parse an expression in the variable x into a tree."""
    return _Parser(src).parse()


def compile_expr(src: str) -> Callable[[float], float]:
    """Parse and compile once, return a float -> float evaluator;
    arithmetic faults become EvalError."""
    return _compile(parse(src))


def _fault(x: float, exc: Exception) -> EvalError:
    return EvalError(f"evaluation failed at x={x!r}: {exc}")


# The only names the generated code reads, besides x and its temporaries.
_NAMESPACE = {"_float": float, "_pow": math.pow, "_inf": math.inf,
              "_UNDEFINED": UNDEFINED, "_fault": _fault,
              **{f"f_{name}": fn for name, fn in _FUNCTIONS.items()}}


def _literal(v: float) -> str:
    if math.isfinite(v):
        return repr(v)
    return "_inf" if v > 0.0 else "-_inf"


class _Codegen:
    """Straight-line code for one tree, one temporary per node, in the
    order the tree is evaluated.  What may be skipped (the right factor
    of a product whose left factor is 0.0, the branches of a piecewise)
    runs under a flag, as 'if g3: t7 = ...', so no line nests.  A step
    returns the code of the node's value: a literal, x or a temporary."""

    def __init__(self):
        self.lines: list[str] = []
        self.ids = itertools.count()

    def assign(self, code: str, guard: Optional[str] = None,
               prefix: str = "t") -> str:
        name = f"{prefix}{next(self.ids)}"
        self.lines.append(f"if {guard}: {name} = {code}" if guard
                          else f"{name} = {code}")
        return name

    def flag(self, guard: Optional[str], *tests: str) -> str:
        return self.assign(" and ".join(filter(None, (guard,) + tests)),
                           prefix="g")

    def node(self, node: Node, guard: Optional[str]) -> _Step:
        if node.kind == "num":
            return _literal(float(node.value))
        if node.kind == "var":
            return "x"
        if node.kind == "piecewise":
            return (yield from self.piecewise(node, guard))
        a = yield self.node(node.children[0], guard)
        if node.kind == "neg":
            return self.assign(f"-{a}", guard)
        if node.kind == "call":
            if node.name not in _FUNCTIONS:
                raise UnknownFunction(f"unknown function {node.name!r}")
            return self.assign(f"_float(f_{node.name}({a}))", guard)
        right = node.children[1]
        if node.op == "*":
            # an exact zero absorbs a non-finite cofactor: x^2 * cos(x^-2)
            # is 0 at x = 0, and the right factor is not evaluated
            inner = guard
            if right.kind not in ("num", "var"):
                inner = self.flag(guard, f"{a} != 0.0")
            b = yield self.node(right, inner)
            return self.assign(
                f"0.0 if {a} == 0.0 or {b} == 0.0 else {a} * {b}", guard)
        b = yield self.node(right, guard)
        if node.op == "^":
            return self.assign(
                f"0.0 if {a} == 0.0 and {b} > 0.0 else _pow({a}, {b})", guard)
        if node.op in ("+", "-", "/"):
            return self.assign(f"{a} {node.op} {b}", guard)
        raise EvalError(f"unknown operator {node.op!r}")

    def piecewise(self, node: Node, guard: Optional[str]) -> _Step:
        # branch i where x >= cut i-1 and not x >= cut i: as the cuts
        # increase, the branch the scan 'while x >= cut: next' stops at,
        # so NaN takes branch 0
        k = (len(node.children) - 1) // 2
        cuts = [_literal(_cut(b)) for b in node.children[:k]]
        out = f"t{next(self.ids)}"
        for i, branch in enumerate(node.children[k:]):
            taken = self.flag(guard, f"x >= {cuts[i - 1]}" if i > 0 else "",
                              f"not x >= {cuts[i]}" if i < k else "")
            value = yield self.node(branch, taken)
            self.lines.append(f"if {taken}: {out} = {value}")
        return out


def _compile(tree: Node) -> Callable[[float], float]:
    """The tree as one Python function of x.  Its source holds only
    float literals and the names of _NAMESPACE, never text of the
    expression."""
    gen = _Codegen()
    value = _run(gen.node(tree, None))
    body = "".join(f"        {line}\n" for line in gen.lines)
    source = ("def expression(x):\n"
              "    try:\n"
              f"{body}"
              f"        return {value}\n"
              "    except _UNDEFINED as exc:\n"
              "        raise _fault(x, exc) from exc\n")
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["expression"]

