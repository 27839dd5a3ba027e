"""The benchmark tracer (perfbench/tracing.py) still finds every function it
wraps, and a traced solve shows the layers it times.

The tracer patches fracspec functions in the namespaces where their callers
bind them, so a rename or a call that stops going through one of those
bindings breaks the benchmark's per-layer metrics; this test catches that
in the ordinary suite.  It only reads perfbench/.
"""

from pathlib import Path

import fracspec.solver
from fracspec.assembly import ProblemSpec
from fracspec.coeffexpr import parse
from fracspec.fracparams import solve_beta

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_case_a_solve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()  # LookupError names any wrapped function that is gone
    exprs = {"k": "1+2*x", "b": "exp(x)", "c": "5+sin(x)", "f": "1"}
    spec = ProblemSpec(
        fp=solve_beta(1.3, 0.5),
        variant="acute",
        N=8,
        **{key: parse(src) for key, src in exprs.items()},
    )
    tracer.install()
    try:
        tracer.begin(0)
        fracspec.solver.solve(spec)
        tracer.end()
    finally:
        tracer.uninstall()
    # B0, B1, B2 and rhs build one rule each, and k_floor rebuilds B0's
    assert tracer.counts["jacobi.gauss_jacobi.calls"] == 5
    assert tracer.counts["linsolve.factorizations"] == 1
    layers = {span[0] for span in tracer.spans}
    for layer in ("assembly.k_floor", "linsolve.lu_solve", "linsolve.condition_estimate"):
        assert layer in layers
