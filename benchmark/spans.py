"""Spans at the boundaries between cpint modules, recorded from outside.

:meth:`Tracer.install` replaces each public function named in LAYERS by
a wrapper in every cpint module that holds a reference to it, e.g.
``build_continuous`` both in ``cpint.cfun`` and as ``cpint.space``
imported it, so calls from one module into another pass through the
wrapper.  Spans are kept in memory and only while an operation runs;
evaluations of the benchmark's own callables are attributed to a span
from the shared :class:`gen.Evals` counter.  :meth:`uninstall` puts the
original functions back.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# wrapped functions, with the per-layer metrics reported for each
LAYERS = {
    "cfun.build_continuous": ("s", "evals"),
    "space.hake_extend": ("s", "self_s"),
    "quadrature.hake_from_integrand": ("s", "self_s", "integrand_evals"),
    "expr.compile_expr": ("s",),
    "cfun.extremes": ("s", "evals"),
    "space.equal": ("s", "evals"),
    "lattice.compare": ("s", "evals"),
    "lattice.abs_norm": ("s", "evals"),
    "bv.rs_integral": ("s", "calls", "evals"),
    "bv.from_callable": ("s",),
    "products.integral_product": ("s",),
    "products.holder_bound": ("s",),
    "products.second_mvt_xi": ("s", "self_s"),
    "transforms.poisson": ("s",),
    "transforms.laplace": ("s",),
}


class Tracer:
    """Span recorder.  A span is [name, op, parent, start, end, evals at
    start, evals at end]; op numbers the operation that caused it and
    parent indexes the enclosing span (-1 for the operation's root)."""

    def __init__(self, evals) -> None:
        self.evals = evals
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._active = False
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cpint" or name.startswith("cpint.")]
        for layer in LAYERS:
            mod, name = layer.split(".")
            orig = getattr(importlib.import_module(f"cpint.{mod}"), name)
            wrapper = self._wrap(layer, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._op, parent, time.perf_counter(), 0.0,
                           self.evals.n, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[4] = time.perf_counter()
        span[6] = self.evals.n
        self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        traced.__wrapped__ = fn
        return traced

    def begin_op(self, kind: str) -> None:
        self._op += 1
        self._active = True
        self._open(f"op:{kind}")

    def end_op(self) -> None:
        self._close(self._stack[0])
        self._stack.clear()
        self._active = False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: inclusive seconds, self seconds (minus the time its
        child spans cover), calls and inclusive evaluations.  A span
        nested in a span of the same name is not counted again."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[2] >= 0:
                child[s[2]] += s[4] - s[3]
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "evals": 0})
        for i, s in enumerate(self.spans):
            name = s[0]
            p = s[2]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][2]
            row = out[name]
            row["self_s"] += (s[4] - s[3]) - child[i]
            if p >= 0:
                continue
            row["s"] += s[4] - s[3]
            row["calls"] += 1
            row["evals"] += s[6] - s[5]
        return dict(out)
