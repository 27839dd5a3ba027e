"""Layer spans recorded from outside the library.

The tracer replaces public fracspec functions in the namespaces where their
callers bind them (``from .jacobi import gauss_jacobi`` gives
``fracspec.assembly.gauss_jacobi`` its own binding), so the library itself is
unchanged.  Each span records name, start, end, parent and op id; spans stay
in memory and are summarised when the run ends.  A layer's self time is its
span's duration minus the durations of its direct children.

A target that the library no longer has stops the traced run with its name
(``Tracer()`` raises LookupError), so a change that renames or rebinds a
traced function has to update SPAN_TARGETS and COUNT_TARGETS with it rather
than read as a layer that got faster.  Import this module after fracspec is
on the path.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np
from fracspec.coeffexpr import Expr

# (module, attribute, layer) for functions timed as spans
SPAN_TARGETS = [
    ("fracspec.cli", "main", "cli"),
    ("fracspec.cli", "parse", "coeffexpr.parse"),
    ("fracspec.cli", "solve_beta", "fracparams.solve_beta"),
    ("fracspec.cli", "run_comparison", "experiments.run_comparison"),
    ("fracspec.coeffexpr", "parse", "coeffexpr.parse"),
    ("fracspec.fracparams", "solve_beta", "fracparams.solve_beta"),
    ("fracspec.experiments", "run_convergence", "experiments.run_convergence"),
    ("fracspec.experiments", "solve", "solver.solve"),
    ("fracspec.experiments", "error_norms", "spaces.error_norms"),
    ("fracspec.solver", "solve", "solver.solve"),
    ("fracspec.solver", "k_floor", "assembly.k_floor"),
    ("fracspec.solver", "lu_solve", "linsolve.lu_solve"),
    ("fracspec.solver", "condition_estimate", "linsolve.condition_estimate"),
    ("fracspec.solver", "eval_solution", "spaces.eval_solution"),
    ("fracspec.assembly", "assemble_B0", "assembly.assemble_B0"),
    ("fracspec.assembly", "assemble_B1", "assembly.assemble_B1"),
    ("fracspec.assembly", "assemble_B2", "assembly.assemble_B2"),
    ("fracspec.assembly", "assemble_rhs", "assembly.assemble_rhs"),
    ("fracspec.assembly", "composite_rule", "assembly.composite_rule"),
    ("fracspec.assembly", "gauss_jacobi", "jacobi.gauss_jacobi"),
    ("fracspec.spaces", "gauss_jacobi", "jacobi.gauss_jacobi"),
    ("fracspec.assembly", "eval_Ghat_table", "jacobi.eval_Ghat_table"),
    ("fracspec.spaces", "eval_Ghat_table", "jacobi.eval_Ghat_table"),
]

# (module, attribute, counter) for functions only counted: they are called
# thousands of times per op, where a span would distort the timings
COUNT_TARGETS = [
    ("fracspec.jacobi", "log_gamma", "specfun.log_gamma.calls"),
    ("fracspec.fracparams", "log_gamma", "specfun.log_gamma.calls"),
    ("fracspec.assembly", "mu", "fracparams.mu.calls"),
    ("scipy.linalg", "lu_factor", "linsolve.factorizations"),
    ("scipy.linalg", "lu", "linsolve.factorizations"),
]


class Tracer:
    """Spans and counts of the fracspec layers, recorded while ``op_id`` is
    set and the wrappers are installed."""

    GEN_OP = -1  # op id of spans recorded while generating inputs

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op_id = None
        self.counts = defaultdict(float)
        self.rule_keys = defaultdict(list)  # op id -> gauss_jacobi keys
        self.block_nodes = {}  # assembly span index -> quadrature nodes
        self._saved = []
        missing = [f"{mod_name}.{attr}" for mod_name, attr, _ in SPAN_TARGETS + COUNT_TARGETS
                   if not hasattr(importlib.import_module(mod_name), attr)]
        if missing:
            raise LookupError(f"traced functions not found: {', '.join(missing)}; "
                              "update SPAN_TARGETS/COUNT_TARGETS in perfbench/tracing.py")

    # -- installation ----------------------------------------------------
    def install(self):
        for mod_name, attr, layer in SPAN_TARGETS:
            self._patch(mod_name, attr, lambda fn, layer=layer: self._span_wrapper(layer, fn))
        for mod_name, attr, counter in COUNT_TARGETS:
            self._patch(mod_name, attr, lambda fn, counter=counter: self._count_wrapper(counter, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def _patch(self, mod_name, attr, make):
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr)
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    # -- recording -------------------------------------------------------
    def _count_wrapper(self, counter, fn):
        def wrapper(*args, **kwargs):
            if self.op_id is not None:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, layer, fn):
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            idx = self._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            return self._observe(layer, idx, args, out)

        return wrapper

    def _open(self, layer) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent, self.op_id])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _observe(self, layer, idx, args, out):
        """Work counts read off arguments and results at the layer boundary;
        returns the result to hand back to the caller."""
        c = self.counts
        c[f"{layer}.calls"] += 1
        if layer == "jacobi.gauss_jacobi":
            n = len(out.nodes)
            # exponents equal to 1e-12 name the same rule, the tolerance the
            # library uses to match basis families carrying bisection noise
            p = out.params
            self.rule_keys[self.op_id].append((round(p.a, 12), round(p.b, 12), n))
            c["jacobi.gauss_jacobi.nodes"] += n
        elif layer == "jacobi.eval_Ghat_table":
            c["jacobi.eval_Ghat_table.cells"] += out.size
            # the quadrature size of the block that asked for the table
            self.block_nodes[self.spans[idx][3]] = out.shape[0]
        elif layer.startswith("assembly.assemble_"):
            # each block is one product of a (nodes x N+1) table with the
            # weighted other table or vector: 2 * nodes * output size flops
            c["assembly.matmul_flops"] += 2.0 * self.block_nodes.pop(idx, 0) * np.size(out)
        elif layer == "spaces.eval_solution":
            c["spaces.eval_solution.points"] += np.size(args[-1])
        elif layer == "coeffexpr.parse":
            return TracedExpr(out, self)
        return out

    # -- op bookkeeping ----------------------------------------------------
    def begin(self, op_id):
        self.op_id = op_id

    def end(self):
        self.op_id = None

    # -- summary -----------------------------------------------------------
    def self_times_ms(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, s in enumerate(self.spans):
            totals[s[0]] += (s[2] - s[1] - child[i]) * 1e3
        return dict(totals)

    def rule_traffic(self) -> tuple[int, int]:
        """(calls, distinct within the op) summed over the ops traced so far."""
        calls = distinct = 0
        for keys in self.rule_keys.values():
            calls += len(keys)
            distinct += len(set(keys))
        return calls, distinct

    def span_records(self, max_op: int) -> list:
        return [s for s in self.spans if s[4] < max_op]


class TracedExpr(Expr):
    """A parsed coefficient whose evaluations are timed as ``coeffexpr.eval``
    spans; everything else goes to the wrapped node."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.tracer = tracer

    def __call__(self, x):
        tracer = self.tracer
        if tracer.op_id is None:
            return self.inner(x)
        idx = tracer._open("coeffexpr.eval")
        try:
            out = self.inner(x)
        finally:
            tracer._close(idx)
        tracer.counts["coeffexpr.eval.calls"] += 1
        tracer.counts["coeffexpr.eval.points"] += np.size(x)
        return out

    def _collect_breaks(self, out):
        self.inner._collect_breaks(out)

    def _fmt(self, ctx):
        return self.inner._fmt(ctx)

    def __getattr__(self, name):
        if name in ("inner", "tracer"):
            raise AttributeError(name)
        return getattr(self.inner, name)
