"""The benchmark tracer (perfbench/tracing.py) still finds every function it
wraps, and traced runs of the benchmark's entry points show the layers it
times.

The tracer patches fracspec functions in the namespaces where their callers
bind them, so a rename or a call that stops going through one of those
bindings breaks the benchmark's per-layer metrics; this test catches that
in the ordinary suite.  It only reads perfbench/.
"""

import json
from pathlib import Path

import numpy as np

import fracspec.cli
import fracspec.coeffexpr
import fracspec.experiments
import fracspec.solver
from fracspec.assembly import ProblemSpec
from fracspec.coeffexpr import parse
from fracspec.fracparams import solve_beta
from fracspec.jacobi import _memo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CASE_A = {"k": "1+2*x", "b": "exp(x)", "c": "5+sin(x)", "f": "1"}

# the layers a solve goes through, each of which the benchmark reports as a
# per-layer time on the workloads that solve
SOLVE_LAYERS = (
    "solver.solve",
    "assembly.k_floor",
    "assembly.assemble_B0",
    "assembly.assemble_B1",
    "assembly.assemble_B2",
    "assembly.assemble_rhs",
    "linsolve.lu_solve",
    "linsolve.condition_estimate",
)


def _traced(monkeypatch, run):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()  # LookupError names any wrapped function that is gone
    tracer.install()
    try:
        tracer.begin(0)
        run()
        tracer.end()
    finally:
        tracer.uninstall()
    return tracer


def _case_a_spec(N):
    return ProblemSpec(
        fp=solve_beta(1.3, 0.5),
        variant="acute",
        N=N,
        **{key: parse(src) for key, src in CASE_A.items()},
    )


def test_traced_case_a_solve(monkeypatch):
    tracer = _traced(monkeypatch, lambda: fracspec.solver.solve(_case_a_spec(8)))
    # B0, B1, B2 and rhs build one rule each; k_floor reads B0's samples
    assert tracer.counts["jacobi.gauss_jacobi.calls"] == 4
    assert tracer.counts["linsolve.factorizations"] == 1
    layers = {span[0] for span in tracer.spans}
    assert layers >= set(SOLVE_LAYERS)


def test_traced_repeat_solve_counts_every_rule(monkeypatch):
    # a second solve finds its rules in gauss_jacobi's memo; the memo sits
    # behind the traced binding, so each lookup is still a timed call
    fracspec.solver.solve(_case_a_spec(8))
    tracer = _traced(monkeypatch, lambda: fracspec.solver.solve(_case_a_spec(8)))
    assert tracer.counts["jacobi.gauss_jacobi.calls"] == 4
    rule_spans = [span for span in tracer.spans if span[0] == "jacobi.gauss_jacobi"]
    assert len(rule_spans) == 4
    assert all(span[2] >= span[1] for span in rule_spans)


def test_traced_warm_solve_counts_every_table(monkeypatch):
    # a repeat solve finds its basis tables in eval_Ghat_table's memo; the
    # memo sits behind the traced bindings, so each lookup is still a timed
    # call and each block still reports the products it makes with them
    _memo.clear()
    cold = _traced(monkeypatch, lambda: fracspec.solver.solve(_case_a_spec(8)))
    entries = len(_memo)
    warm = _traced(monkeypatch, lambda: fracspec.solver.solve(_case_a_spec(8)))
    assert len(_memo) == entries == 10
    for tracer in (cold, warm):
        spans = [span for span in tracer.spans if span[0] == "jacobi.eval_Ghat_table"]
        assert len(spans) == 6
    for key in ("jacobi.eval_Ghat_table.cells", "assembly.matmul_flops"):
        assert warm.counts[key] == cold.counts[key] > 0


def test_traced_convergence_sweep(monkeypatch):
    tracer = _traced(
        monkeypatch,
        lambda: fracspec.experiments.run_convergence(_case_a_spec(8), [8, 10], 12),
    )
    layers = {span[0] for span in tracer.spans}
    assert layers >= set(SOLVE_LAYERS)
    # one factorization for the reference and one per degree
    assert tracer.counts["linsolve.factorizations"] == 3


def test_traced_two_diffusivity_comparison(monkeypatch):
    ks = [parse("piecewise(0.5; 1; 10)"), parse(CASE_A["k"])]
    tracer = _traced(
        monkeypatch,
        lambda: fracspec.experiments.run_comparison(_case_a_spec(12), ks, grid_points=11),
    )
    layers = {span[0] for span in tracer.spans}
    assert layers >= set(SOLVE_LAYERS) | {"spaces.eval_solution"}
    assert tracer.counts["linsolve.factorizations"] == 4


def test_traced_coefficients_keep_their_breakpoints(monkeypatch):
    # the tracer hands back its own wrapper for every parsed coefficient;
    # compare splits its quadrature at the breakpoints the wrapper reports,
    # so they must be the bare node's, or traced runs build unsplit rules
    srcs = ["piecewise(0.5; 1; 10)", "1+abs(x-0.37)"]
    traced = []

    def parse_at_both_bindings():
        for parse_at in (fracspec.cli.parse, fracspec.coeffexpr.parse):
            traced.extend(parse_at(src) for src in srcs)

    _traced(monkeypatch, parse_at_both_bindings)
    from tracing import TracedExpr

    xs = np.linspace(0.0, 1.0, 101)
    for src, wrapped in zip(srcs * 2, traced):
        bare = parse(src)
        assert isinstance(wrapped, TracedExpr)
        assert wrapped.breakpoints() == bare.breakpoints() != []
        assert wrapped.pretty() == bare.pretty()
        assert np.array_equal(wrapped(xs), bare(xs))


def test_traced_cli_compare(monkeypatch, tmp_path):
    # the benchmark's cli_compare workload runs this command in process; its
    # per-layer times come from the fracspec.cli bindings the tracer wraps
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "alpha": 1.3, "r": 0.5, "k1": "piecewise(0.5; 1; 10)", "k2": CASE_A["k"],
        **{key: CASE_A[key] for key in ("b", "c", "f")},
        "N": 12, "grid_points": 11, "output": str(tmp_path / "out"),
    }))
    tracer = _traced(
        monkeypatch,
        lambda: fracspec.cli.main(["compare", "--config", str(config)]),
    )
    layers = {span[0] for span in tracer.spans}
    assert layers >= {
        "cli",
        "coeffexpr.parse",
        "fracparams.solve_beta",
        "experiments.run_comparison",
        "spaces.eval_solution",
    }
    assert tracer.counts["linsolve.factorizations"] == 4
