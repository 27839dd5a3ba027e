"""End-to-end solves: exact recoveries, diagnostics, variant behavior."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from fracspec.assembly import ProblemSpec, assemble_system
from fracspec.coeffexpr import EvalError, parse
from fracspec.fracparams import solve_beta
from fracspec.experiments import run_comparison, run_convergence
from fracspec.jacobi import JacobiParams, _memo, eval_Ghat_table
from fracspec.solver import Solution, solve
from fracspec.spaces import error_norms, eval_solution
from reference_math import gamma


def _one(x):
    return np.ones_like(x)


def _zero(x):
    return np.zeros_like(x)


def _mode(fp, m):
    p = JacobiParams(fp.beta, fp.alpha - fp.beta)

    def f(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return eval_Ghat_table(p, m, x)[:, m]

    return f


def test_first_mode_closed_form():
    # pure diffusion with the lowest test mode forcing: the system is
    # diagonal and phi has a single entry 1/(|c**| Gamma(alpha+1))
    fp = solve_beta(1.5, 0.5)
    sol = solve(ProblemSpec(fp=fp, variant="acute", k=_one, b=_zero, c=_zero,
                            f=_mode(fp, 0), N=8))
    want = 1.0 / (-fp.c_star_star * gamma(fp.alpha + 1.0))
    assert sol.phi.coeffs[0] == pytest.approx(want, rel=1e-12)
    assert sol.phi.coeffs[0] == pytest.approx(1.0638460810704768, rel=1e-10)
    assert np.max(np.abs(sol.phi.coeffs[1:])) < 1e-14


def test_manufactured_single_mode_independent_of_n():
    fp = solve_beta(1.7, 0.3)
    m = 3
    want = gamma(m + 1.0) / (-fp.c_star_star * gamma(m + fp.alpha + 1.0))
    for N in (3, 8, 16):
        sol = solve(ProblemSpec(fp=fp, variant="grave", k=_one, b=_zero,
                                c=_zero, f=_mode(fp, m), N=N))
        assert sol.phi.coeffs[m] == pytest.approx(want, rel=1e-10)
        others = np.delete(sol.phi.coeffs, m)
        assert np.max(np.abs(others)) < 1e-12


def test_solve_factors_once(monkeypatch):
    # the solution and the condition estimate share one LU factorization
    calls = []
    lu_factor = scipy.linalg.lu_factor

    def counted(*args, **kwargs):
        calls.append(1)
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
    fp = solve_beta(1.3, 0.5)
    solve(ProblemSpec(fp=fp, variant="acute", k=lambda x: 1.0 + 2.0 * x,
                      b=np.exp, c=lambda x: 5.0 + np.sin(x), f=_one, N=8))
    assert len(calls) == 1


def test_solution_is_in_the_trial_basis():
    fp = solve_beta(1.6, 0.4)
    spec = ProblemSpec(fp=fp, variant="grave", k=_one, b=_zero, c=_one,
                       f=_one, N=6)
    assert solve(spec).phi.params == spec.fp.trial


def test_non_finite_coefficient_is_an_eval_error():
    # a plain callable is not checked as it evaluates, so sampling checks
    # its values: NaN k must not pass the positivity check, and inf f must
    # not reach the load vector
    fp = solve_beta(1.3, 0.5)
    kw = dict(fp=fp, variant="acute", k=_one, b=_zero, c=_zero, f=_one, N=8)
    nan_k = ProblemSpec(**{**kw, "k": lambda x: np.where(x < 0.5, np.nan, 1.0)})
    with pytest.raises(EvalError, match="coefficient is nan at x = 0.0"):
        solve(nan_k)
    inf_f = ProblemSpec(**{**kw, "f": lambda x: np.full_like(x, np.inf)})
    with pytest.raises(EvalError, match="coefficient is inf at x"):
        solve(inf_f)


def test_boundary_values_exactly_zero():
    fp = solve_beta(1.4, 0.4)
    sol = solve(ProblemSpec(fp=fp, variant="acute", k=_one, b=np.exp,
                            c=lambda x: 5.0 + np.sin(x), f=_one, N=12))
    assert sol.u(0.0) == 0.0
    assert sol.u(1.0) == 0.0
    ends = sol.u(np.array([0.0, 1.0]))
    assert np.array_equal(ends, [0.0, 0.0])


def test_solution_rejects_points_outside_the_interval():
    fp = solve_beta(1.4, 0.4)
    spec = ProblemSpec(fp=fp, variant="acute", k=_one, b=np.exp,
                       c=lambda x: 5.0 + np.sin(x), f=_one, N=12)
    sols = [solve(spec), solve(dataclasses.replace(spec, variant="grave"))]
    with pytest.raises(ValueError, match=r"\[0, 1\], got x=2\.0"):
        sols[0].u(2.0)
    with pytest.raises(ValueError, match=r"got x=-0\.5"):
        sols[0].u(np.array([-0.5, 0.5, 1.5, np.nan]))
    with pytest.raises(ValueError, match=r"got x=nan"):
        eval_solution([s.phi for s in sols], np.array([0.25, np.nan]))


def test_diagnostics_contents():
    fp = solve_beta(1.3, 0.5)
    spec = ProblemSpec(fp=fp, variant="acute", k=lambda x: 1.0 + 2.0 * x,
                       b=np.exp, c=lambda x: 5.0 + np.sin(x), f=_one, N=16)
    sol = solve(spec)
    assert isinstance(sol, Solution)
    d = sol.diagnostics
    assert set(d) == {"k_min", "k_min_location", "condition", "residual",
                      "pivot_growth"}
    # k is increasing, so the floor sits at the leftmost quadrature node
    assert 1.0 < d["k_min"] < 1.1
    assert 0.0 < d["k_min_location"] < 0.05
    assert d["condition"] >= 1.0
    assert d["residual"] <= 1e-9
    assert 0.0 < d["pivot_growth"] <= 1.0 + 1e-12


def test_solve_of_a_given_system():
    # a system assembled by the caller is solved as given, with the same
    # answer and diagnostics as a solve that assembles it
    fp = solve_beta(1.3, 0.5)
    spec = ProblemSpec(fp=fp, variant="grave", k=lambda x: 1.0 + 2.0 * x,
                       b=np.exp, c=lambda x: 5.0 + np.sin(x), f=_one, N=12)
    system = assemble_system(spec)
    given, fresh = solve(spec, system), solve(spec)
    assert np.array_equal(given.phi.coeffs, fresh.phi.coeffs)
    assert given.diagnostics == fresh.diagnostics
    with pytest.raises(ValueError, match="does not match"):
        solve(spec, system.leading(10))


def test_memoised_rules_solve_as_fresh_ones():
    # a solve on rules built afresh and a solve on the same rules read back
    # from the memo give the same bits
    spec = ProblemSpec(fp=solve_beta(1.3, 0.5), variant="acute",
                       k=lambda x: 1.0 + 2.0 * x, b=np.exp,
                       c=lambda x: 5.0 + np.sin(x), f=_one, N=40)
    _memo.clear()
    cold = solve(spec)
    entries = len(_memo)
    warm = solve(spec)
    # 4 rules and 6 tables; a rebuild would have added an entry
    assert len(_memo) == entries == 10
    assert np.array_equal(cold.phi.coeffs, warm.phi.coeffs)
    assert cold.diagnostics == warm.diagnostics


def test_memoised_tables_study_as_fresh_ones():
    # a sweep and a jump-k compare on rules and tables built afresh, and
    # the same runs read back from the memos, give the same bits
    spec = ProblemSpec(fp=solve_beta(1.3, 0.5), variant="acute",
                       k=lambda x: 1.0 + 2.0 * x, b=np.exp,
                       c=lambda x: 5.0 + np.sin(x), f=_one, N=16)
    ks = [parse("piecewise(0.5; 1; 10)"), parse("1+2*x")]

    def runs():
        rep = run_convergence(spec, [8, 10, 12], N_ref=24)
        reports = run_comparison(spec, ks, grid_points=101)
        columns = [c for r in reports for c in (r.x, r.u_acute, r.u_grave)]
        return rep.rows, rep.predicted, columns

    _memo.clear()
    cold = runs()
    entries = len(_memo)
    warm = runs()
    assert len(_memo) == entries
    assert cold[:2] == warm[:2]
    assert all(np.array_equal(c, w) for c, w in zip(cold[2], warm[2]))


def test_variants_agree_for_constant_k():
    fp = solve_beta(1.4, 0.4)
    kw = dict(k=_one, b=np.exp, c=lambda x: 5.0 + np.sin(x), f=_one, N=24)
    sa = solve(ProblemSpec(fp=fp, variant="acute", **kw))
    sg = solve(ProblemSpec(fp=fp, variant="grave", **kw))
    assert np.max(np.abs(sa.phi.coeffs - sg.phi.coeffs)) < 1e-9
    assert sa.u(0.5) == pytest.approx(0.12751563203205354, rel=1e-8)


def test_variants_differ_for_variable_k():
    fp = solve_beta(1.3, 0.5)
    kw = dict(k=lambda x: 1.0 + 2.0 * x, b=_zero, c=_zero, f=_one, N=24)
    xs = np.linspace(0.0, 1.0, 201)
    ua = solve(ProblemSpec(fp=fp, variant="acute", **kw)).u(xs)
    ug = solve(ProblemSpec(fp=fp, variant="grave", **kw)).u(xs)
    assert np.max(np.abs(ua - ug)) > 1e-3


def test_piecewise_diffusivity_solves_cleanly():
    fp = solve_beta(1.4, 0.4)
    k1 = parse("piecewise(0.5; 2; 1)")
    sol = solve(ProblemSpec(fp=fp, variant="grave", k=k1, b=np.exp,
                            c=lambda x: 5.0 + np.sin(x), f=_one, N=20))
    xs = np.linspace(0.0, 1.0, 101)
    u = sol.u(xs)
    assert np.all(np.isfinite(u))
    assert u[0] == 0.0 and u[-1] == 0.0
    assert np.max(np.abs(u)) > 0.01
    assert sol.diagnostics["k_min"] == pytest.approx(1.0)


def test_resolved_error_regression():
    # fixed configuration solved at N=16 against an N=40 reference; the
    # error norms act as a regression pin on the whole pipeline
    fp = solve_beta(1.3, 0.5)
    kw = dict(k=lambda x: 1.0 + 2.0 * x, b=np.exp,
              c=lambda x: 5.0 + np.sin(x), f=_one, quad_points=60)
    ref = solve(ProblemSpec(fp=fp, variant="acute", N=40, **kw))
    cur = solve(ProblemSpec(fp=fp, variant="acute", N=16, **kw))
    e_l2, e_h1 = error_norms(ref.phi, cur.phi, [0.0, 1.0])
    assert e_l2 == pytest.approx(7.936896004631756e-4, rel=1e-6)
    assert e_h1 == pytest.approx(1.614467421001038e-2, rel=1e-6)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("alpha", [1.001, 1.01, 1.99, 1.999])
def test_edge_of_the_window_solves_cleanly(alpha, r):
    # N = 12 with k = 1+2x, b = exp x, c = 5+sin x, f = 1 at the edges of
    # the (alpha, r) window.  Measured over all 24 solves: the condition
    # estimate at most 114.02 (alpha 1.999, grave, r = 1), the residual at
    # most 1.19e-16 (alpha 1.001, acute, r = 1).  The bounds leave 5% and a
    # factor 8 of headroom; the residual is rounding error, which moves with
    # the BLAS build.
    fp = solve_beta(alpha, r)
    kw = dict(k=lambda x: 1.0 + 2.0 * x, b=np.exp,
              c=lambda x: 5.0 + np.sin(x), f=_one, N=12)
    for variant in ("acute", "grave"):
        sol = solve(ProblemSpec(fp=fp, variant=variant, **kw))
        assert np.all(np.isfinite(sol.phi.coeffs))
        assert sol.diagnostics["condition"] <= 120.0
        assert sol.diagnostics["residual"] <= 1e-15
