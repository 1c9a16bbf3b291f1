"""Spans around the calls into each layer, recorded from outside the
program.

`Tracer.install()` replaces public functions of `apfp` on the modules
that call them (and `scipy.optimize.minimize` where
`apfp.factorization` reaches it) with wrappers that record a span each:
name, start, end, parent span and job id.  Spans stay in memory until
`dump`.  `layer_metrics` turns them into the per-layer counts and
times; a layer's busy time is the time inside its outermost spans, and
self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

import scipy.optimize

import apfp.cli
import apfp.determinant
import apfp.factorization
import apfp.serialize

PATH_KINDS = ("ExpLine", "ProductPolar", "Sampled", "PointwiseProduct", "Concatenation", "Reversal")
ALGEBRA_FUNCTIONS = ("op_norm", "polar", "is_positive")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.counts = defaultdict(float)
        self.job = None
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, count=None):
        """fn with a span around each call; `name` may be a function of
        the arguments, `count(result)` adds to the counters."""

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            index = len(self.spans)
            span = [label, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.job]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(result)
            return result

        return traced

    def _patch(self, module, attr, name, count=None):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, count))

    def install(self):
        c, d, f, s = apfp.cli, apfp.determinant, apfp.factorization, apfp.serialize

        def lbfgs_count(res):
            self.counts["factorization.lbfgs.nit"] += int(res.nit)
            self.counts["factorization.lbfgs.nfev"] += int(res.nfev)

        minimize = self.wrap("factorization.lbfgs", scipy.optimize.minimize, lbfgs_count)
        self._saved.append((f, "scipy", f.scipy))
        f.scipy = types.SimpleNamespace(optimize=types.SimpleNamespace(minimize=minimize))

        def restarts(fac):
            self.counts["factorization.factor_positive_products.restarts_used"] += fac.restarts_used

        def segments(split):
            self.counts["factorization.split_into_exponentials.segments"] += len(split.logs)

        self._patch(c, "factor_positive_products", "factorization.factor_positive_products", restarts)
        self._patch(c, "best_approx_distance", "factorization.best_approx_distance")
        for module in (c, f):
            self._patch(module, "membership_test", "factorization.membership_test")
        self._patch(f, "split_into_exponentials", "factorization.split_into_exponentials", segments)

        def kind(path, *rest):
            return f"determinant.path_determinant.{type(path).__name__}"

        for module in (c, d):
            self._patch(module, "path_determinant", kind)
        self._patch(d, "determinant_mod_lattice", "determinant.determinant_mod_lattice")
        self._patch(c, "delta_1_0", "determinant.delta_1_0")
        self._patch(c, "evaluate", "determinant.evaluate")
        for module in (c, d, f):
            for fn in ALGEBRA_FUNCTIONS:
                if hasattr(module, fn):
                    self._patch(module, fn, f"algebra.{fn}")
        for fn in ("element_from_obj", "path_from_obj"):
            self._patch(s, fn, f"serialize.{fn}")
        self._patch(c, "main", "cli.main")

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "job"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )

    def layer_metrics(self, rounds):
        """Per-layer figures per round of the job list."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        child = defaultdict(float)  # time of direct children, per span index
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
            # busy time counts outermost spans of a name only, so a
            # recursive call (path_from_obj) is not counted twice
            up = parent
            while up >= 0 and self.spans[up][0] != name:
                up = self.spans[up][3]
            if up < 0:
                busy[name] += end - start
        main_self = sum(
            end - start - child[i]
            for i, (name, start, end, _, _) in enumerate(self.spans)
            if name == "cli.main"
        )

        out = {}

        def put(name, value, unit):
            out[name] = (value / rounds, unit)

        lb = "factorization.lbfgs"
        put(f"{lb}.runs", calls[lb], "count")
        put(f"{lb}.nit", self.counts[f"{lb}.nit"], "count")
        put(f"{lb}.nfev", self.counts[f"{lb}.nfev"], "count")
        put(f"{lb}.busy_s", busy[lb], "s")
        nfev = self.counts[f"{lb}.nfev"]
        out[f"{lb}.s_per_eval"] = (busy[lb] / nfev if nfev else 0.0, "s")
        fp = "factorization.factor_positive_products"
        put(f"{fp}.busy_s", busy[fp], "s")
        put(f"{fp}.restarts_used", self.counts[f"{fp}.restarts_used"], "count")
        put("factorization.best_approx_distance.busy_s", busy["factorization.best_approx_distance"], "s")
        mt = "factorization.membership_test"
        put(f"{mt}.calls", calls[mt], "count")
        put(f"{mt}.busy_s", busy[mt], "s")
        sp = "factorization.split_into_exponentials"
        put(f"{sp}.busy_s", busy[sp], "s")
        put(f"{sp}.segments", self.counts[f"{sp}.segments"], "count")
        for k in PATH_KINDS:
            pd = f"determinant.path_determinant.{k}"
            put(f"{pd}.calls", calls[pd], "count")
            put(f"{pd}.busy_s", busy[pd], "s")
        for name in ("determinant.determinant_mod_lattice", "determinant.delta_1_0"):
            put(f"{name}.busy_s", busy[name], "s")
        put("determinant.evaluate.calls", calls["determinant.evaluate"], "count")
        put("determinant.evaluate.busy_s", busy["determinant.evaluate"], "s")
        for fn in ALGEBRA_FUNCTIONS:
            put(f"algebra.{fn}.calls", calls[f"algebra.{fn}"], "count")
            put(f"algebra.{fn}.busy_s", busy[f"algebra.{fn}"], "s")
        for fn in ("element_from_obj", "path_from_obj"):
            put(f"serialize.{fn}.busy_s", busy[f"serialize.{fn}"], "s")
        put("cli.main.calls", calls["cli.main"], "count")
        put("cli.main.self_s", main_self, "s")
        return out
