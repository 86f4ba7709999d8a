"""Span tracing for the traced run, from the benchmark's side.

``Tracer.install`` wraps every public function of thinpower's layer modules,
and ``FinitePmf.__init__``, at every name the package binds them to: the
modules import names directly (``from .transforms import thin``), so
``inequality_suite.thin`` is patched as well as ``transforms.thin``.

Spans (function, start, end, parent span, unit id) are kept in flat arrays
and written out at the end.  A span is only recorded while a unit runs
(``tracer.unit >= 0``), and a direct recursive call is folded into its
caller's span, so ``calls`` counts calls from outside the function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("numerics", "pmf_core", "transforms", "entropy_functionals",
          "semigroup", "inequality_suite", "hessian", "jsonio")


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


# Work counted at the call boundary: function -> (stat, f(args, kwargs, result)).
WORK = {
    "numerics.binomial_rows": ("cells", lambda a, k, r: r.size),
    "numerics.poisson_log_terms": ("terms", lambda a, k, r: r[0].size),
    "transforms.thin": ("cells", lambda a, k, r: len(_first(a, k, "x")) ** 2),
    "semigroup.entropy_preserving_path": ("points", lambda a, k, r: r.t_grid.size),
    "jsonio.dumps_canonical": ("bytes", lambda a, k, r: len(r)),
}

# Calls made under an ancestor, per unit of the ancestor's work:
# metric -> (ancestor, counted descendants, denominator stat of the ancestor).
PER_ANCESTOR = {
    "e_evals_per_call": ("entropy_functionals.entropy_power",
                         ("entropy_functionals.poisson_entropy",
                          "entropy_functionals.poisson_entropy_derivative"),
                         "calls"),
    "entropy_evals_per_point": ("semigroup.entropy_preserving_path",
                                ("entropy_functionals.entropy",), "points"),
    "inverse_thins_per_call": ("inequality_suite.check_epilike",
                               ("transforms.inverse_thin",), "calls"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.fn = array("i")
        self.parent = array("i")
        self.unit_of = array("i")
        self.error = array("i")     # name id of the exception raised, or -1
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.unit = -1
        self.work: dict[tuple, float] = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        work = WORK.get(name)
        fns, stack = self.fn, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.unit < 0 or (stack and fns[stack[-1]] == nid):
                return fn(*args, **kwargs)
            idx = len(fns)
            fns.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.unit_of.append(self.unit)
            self.error.append(-1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.error[idx] = self._id(type(exc).__name__)
                raise
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()
            if work is not None:
                self.work[(nid, work[0])] += work[1](args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"thinpower.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "thinpower" or name.startswith("thinpower."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrapped:
                        setattr(module, attr, wrapped[id(obj)])
        pmf = importlib.import_module("thinpower.pmf_core").FinitePmf
        pmf.__init__ = self._wrap("pmf_core.FinitePmf", pmf.__init__)

    def _arrays(self):
        return (np.frombuffer(self.fn, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.error, dtype=np.int32),
                np.frombuffer(self.end) - np.frombuffer(self.start))

    def _under(self, fn, parent, ancestor: int) -> np.ndarray:
        """Spans that are, or descend from, a span of function `ancestor`."""
        inside = fn == ancestor
        has_parent = parent >= 0
        while True:
            grown = inside | (has_parent & inside[np.maximum(parent, 0)])
            if np.array_equal(grown, inside):
                return inside
            inside = grown

    def summary(self) -> dict:
        """Per function: calls, self_ms, total_ms, raised, work and ratios."""
        fn, parent, error, dur = self._arrays()
        size = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=fn.size)
        calls = np.bincount(fn, minlength=size)
        self_ms = np.bincount(fn, weights=dur - child, minlength=size) * 1e3
        total_ms = np.bincount(fn, weights=dur, minlength=size) * 1e3
        raised = np.bincount(fn[error >= 0], minlength=size)
        refused = np.bincount(fn[error == self._ids.get("NotThinnableError", -2)],
                              minlength=size)
        table = {}
        for i, name in enumerate(self.names):
            if calls[i] == 0:
                continue
            table[name] = {
                "calls": int(calls[i]), "self_ms": float(self_ms[i]),
                "total_ms": float(total_ms[i]), "raised": int(raised[i]),
                "refusals": int(refused[i]),
                "useful_ratio": float(1.0 - raised[i] / calls[i]),
            }
        for (nid, stat), value in self.work.items():
            table[self.names[nid]][stat] = value
        for stat, (ancestor, counted, per) in PER_ANCESTOR.items():
            if ancestor not in table:
                continue
            under = self._under(fn, parent, self._ids[ancestor])
            hits = sum(int(np.count_nonzero(under & (fn == self._ids[c])))
                       for c in counted if c in self._ids)
            table[ancestor][stat] = hits / table[ancestor][per]
        return table

    def save(self, path) -> None:
        fn, parent, error, _ = self._arrays()
        np.savez(path, names=np.array(self.names), fn=fn, parent=parent,
                 unit=np.frombuffer(self.unit_of, dtype=np.int32), error=error,
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
