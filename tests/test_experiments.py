"""Convergence tables, rate arithmetic, and the model-comparison runs."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import fracspec.assembly
import fracspec.experiments
import fracspec.spaces
from fracspec.assembly import ProblemSpec
from fracspec.coeffexpr import parse
from fracspec.experiments import (
    ComparisonReport,
    ConvergenceReport,
    check_degrees,
    coeff_is_zero,
    observed_rate,
    run_comparison,
    run_convergence,
)
from fracspec.fracparams import solve_beta
from fracspec.jacobi import JacobiParams, eval_Ghat_table
from fracspec.solver import solve


def _one(x):
    return np.ones_like(x)


def _zero(x):
    return np.zeros_like(x)


def _case_a(N=8, quad_points=None):
    return ProblemSpec(
        fp=solve_beta(1.3, 0.5),
        variant="acute",
        k=lambda x: 1.0 + 2.0 * x,
        b=np.exp,
        c=lambda x: 5.0 + np.sin(x),
        f=_one,
        N=N,
        quad_points=quad_points,
    )


# ------------------------------------------------------------ observed_rate


def test_observed_rate_examples():
    assert observed_rate(6.50e-3, 4.19e-3, 8, 10) == pytest.approx(
        1.9677980402366348, rel=1e-12
    )
    assert observed_rate(1.0e-2, 1.0e-2, 8, 16) == 0.0
    assert observed_rate(8e-3, 1e-3, 10, 20) == pytest.approx(3.0, rel=1e-13)


def test_observed_rate_rejects_bad_input():
    with pytest.raises(ValueError, match="positive"):
        observed_rate(0.0, 1e-3, 8, 10)
    with pytest.raises(ValueError, match="positive"):
        observed_rate(1e-3, -1e-4, 8, 10)
    with pytest.raises(ValueError, match="differ"):
        observed_rate(1e-3, 1e-4, 8, 8)


def test_coeff_is_zero():
    assert coeff_is_zero(_zero)
    assert not coeff_is_zero(_one)
    assert not coeff_is_zero(lambda x: np.where(x > 0.999, 1.0, 0.0))
    assert not coeff_is_zero(parse("piecewise(0.5; 0; 1)"))
    assert coeff_is_zero(parse("0"))


def _inverse_sqrt(x):
    with np.errstate(divide="ignore"):
        return x ** -0.5


@pytest.mark.parametrize("b", [parse("x^-0.5"), _inverse_sqrt], ids=["parsed", "callable"])
def test_run_convergence_with_advection_singular_at_an_endpoint(b):
    # b = x^-0.5 is infinite at x = 0, where the assembly never samples it;
    # it is not zero, so the sweep runs and predicts the rates with advection
    assert not coeff_is_zero(b)
    rep = run_convergence(replace(_case_a(), b=b), [8, 10], N_ref=16)
    assert all(np.isfinite(row[1]) and row[1] > 0 for row in rep.rows)
    assert rep.predicted == pytest.approx((2.25, 1.25), abs=1e-12)


# ---------------------------------------------------------- run_convergence


def test_run_convergence_validates_degrees():
    spec = _case_a()
    with pytest.raises(ValueError, match="ascending"):
        run_convergence(spec, [8, 8, 10])
    with pytest.raises(ValueError, match="ascending"):
        run_convergence(spec, [10, 8])
    with pytest.raises(ValueError, match="N_ref"):
        run_convergence(spec, [8, 40], N_ref=40)
    with pytest.raises(ValueError, match="at least one"):
        run_convergence(spec, [])


def test_check_degrees_rules():
    assert check_degrees([8.0, 10], 12) == [8, 10]
    for Ns, N_ref, match in (
        ([], 12, "at least one"),
        ([0, 8], 12, "at least 1"),
        ([-2], 12, "at least 1"),
        ([8, 8], 12, "ascending"),
        ([10, 8], 12, "ascending"),
        ([8, 12], 12, "N_ref"),
    ):
        with pytest.raises(ValueError, match=match):
            check_degrees(Ns, N_ref)


def test_check_degrees_refuses_bools():
    # [True, 2] used to pass as [1, 2]
    with pytest.raises(ValueError, match="degree must be an integer, got True"):
        check_degrees([True, 2], 4)


def test_check_degrees_rejects_non_integral_degrees(monkeypatch):
    # 8.5 used to run as N = 8
    with pytest.raises(ValueError, match="degree must be an integer, got 8.5"):
        check_degrees([8.5, 10], 12)
    counts = Counter()
    _count_calls(monkeypatch, fracspec.experiments, ["assemble_system"], counts)
    with pytest.raises(ValueError, match="8.5"):
        run_convergence(_case_a(), [8.5, 10], 12)
    assert counts == {}


def test_run_convergence_checks_degrees_before_assembling(monkeypatch):
    # a degree below 1 used to surface only after the reference solve, as a
    # RuntimeError naming N=0
    counts = Counter()
    _count_calls(monkeypatch, fracspec.experiments, ["assemble_system"], counts)
    with pytest.raises(ValueError, match="at least 1"):
        run_convergence(_case_a(), [0, 8], N_ref=12)
    assert counts == {}


def test_run_convergence_quad_points_below_n_ref_raises():
    # every degree shares the reference's q, which must reach N_ref + 20
    with pytest.raises(ValueError, match="quad_points"):
        run_convergence(_case_a(quad_points=50), [8, 10], N_ref=40)


def test_run_convergence_report_shape():
    rep = run_convergence(_case_a(), [6, 8, 10], N_ref=20)
    assert isinstance(rep, ConvergenceReport)
    assert len(rep.rows) == 3
    N0, e0, r0, h0, s0 = rep.rows[0]
    assert N0 == 6 and r0 is None and s0 is None
    for N, eL2, rL2, eH1, rH1 in rep.rows[1:]:
        assert rL2 is not None and rH1 is not None
    assert rep.predicted == pytest.approx((2.25, 1.25), abs=1e-12)


def test_run_convergence_errors_decrease():
    rep = run_convergence(_case_a(), [8, 10, 12], N_ref=24)
    eL2 = [row[1] for row in rep.rows]
    eH1 = [row[3] for row in rep.rows]
    assert all(a < b for a, b in zip(eL2, eH1))  # energy error dominates
    assert False not in [x > y for x, y in zip(eL2[:-1], eL2[1:])]
    assert False not in [x > y for x, y in zip(eH1[:-1], eH1[1:])]


def test_run_convergence_manufactured_mode_is_exact():
    # a single low test mode with constant k is resolved at every degree, so
    # the error column collapses to roundoff and rates are suppressed
    fp = solve_beta(1.5, 0.5)
    p = JacobiParams(fp.beta, fp.alpha - fp.beta)

    def f(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return eval_Ghat_table(p, 1, x)[:, 1]

    spec = ProblemSpec(fp=fp, variant="acute", k=_one, b=_zero, c=_zero,
                       f=f, N=4)
    rep = run_convergence(spec, [4, 6], N_ref=10)
    for N, eL2, rL2, eH1, rH1 in rep.rows:
        assert eL2 < 1e-13 and eH1 < 1e-12


def test_run_convergence_names_failing_degree():
    spec = _case_a()
    bad = ProblemSpec(
        fp=spec.fp, variant="acute", k=lambda x: x - 0.5, b=spec.b,
        c=spec.c, f=spec.f, N=8,
    )
    # the reference solve runs first, so the failure is reported there
    with pytest.raises(RuntimeError, match="N=12"):
        run_convergence(bad, [6, 8], N_ref=12)


def _count_calls(monkeypatch, module, names, counts):
    for name in names:
        fn = getattr(module, name)

        def counted(*args, fn=fn, name=name, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def test_sweep_assembles_once(monkeypatch):
    # one assembly at N_ref builds one rule per block; each degree factors
    # its leading block, and the reference its whole system, once
    counts = Counter()
    _count_calls(monkeypatch, fracspec.assembly, ["gauss_jacobi"], counts)
    _count_calls(monkeypatch, scipy.linalg, ["lu_factor"], counts)
    run_convergence(_case_a(), [8, 10, 12, 14, 16], N_ref=40)
    assert counts == {"gauss_jacobi": 4, "lu_factor": 6}


def test_case_a_rates_land_in_band():
    # abbreviated version of the benchmark study: the L2 rate between
    # consecutive degrees should already sit near 2 at these resolutions
    rep = run_convergence(_case_a(), [8, 10, 12], N_ref=40)
    rates = [row[2] for row in rep.rows[1:]]
    assert all(1.8 < r < 2.3 for r in rates)


# err_L2 columns of the two paper cases (acute, Ns 8..16, N_ref 40), frozen
# at f76dcb5 (the same values as perfbench/reference.json); the acceptance
# criteria compare only their rates with the benchmark columns, so the
# magnitudes themselves are pinned here
PAPER_STUDY_ERR_L2 = {
    "A": (1.3, 0.5, lambda x: 1.0 + 2.0 * x, [
        0.0032093857500204203, 0.002079453484850306, 0.00144120347517124,
        0.001049630153285804, 0.000793689600463748,
    ]),
    "B": (1.6, 0.4, lambda x: 1.0 - 0.3 * np.sin(x), [
        0.0011384473232087166, 0.0006067231154413237, 0.0003587679954561876,
        0.0002294035726618279, 0.0001555700670957734,
    ]),
}


@pytest.mark.parametrize("case", sorted(PAPER_STUDY_ERR_L2))
def test_paper_study_err_L2_frozen(case):
    alpha, r, k, want = PAPER_STUDY_ERR_L2[case]
    spec = replace(_case_a(), fp=solve_beta(alpha, r), k=k)
    rep = run_convergence(spec, [8, 10, 12, 14, 16], N_ref=40)
    assert [row[1] for row in rep.rows] == pytest.approx(want, rel=1e-10)


# ----------------------------------------------------------- run_comparison


def test_run_comparison_reports_per_diffusivity():
    fp = solve_beta(1.4, 0.4)
    k1 = parse("piecewise(0.5; 2; 1)")
    k2 = parse("piecewise(0.5; 1; 2)")
    reps = run_comparison(replace(_case_a(N=16), fp=fp), [k1, k2], grid_points=201)
    assert len(reps) == 2
    for rep in reps:
        assert isinstance(rep, ComparisonReport)
        assert rep.x[0] == 0.0 and rep.x[-1] == 1.0
        assert rep.u_acute[0] == 0.0 and rep.u_acute[-1] == 0.0
        assert rep.u_grave[0] == 0.0 and rep.u_grave[-1] == 0.0
        assert rep.spec_acute.variant == "acute"
        assert rep.spec_grave.variant == "grave"
    # swapping the jump direction genuinely moves both solution curves
    assert np.max(np.abs(reps[0].u_acute - reps[1].u_acute)) > 1e-3
    assert np.max(np.abs(reps[0].u_grave - reps[1].u_grave)) > 1e-3


def test_run_comparison_shares_k_free_blocks(monkeypatch):
    # B1, B2 and rhs depend on neither k nor the variant: once per call,
    # while B0 is assembled for each of the four solves
    counts = Counter()
    blocks = ["assemble_B0", "assemble_B1", "assemble_B2", "assemble_rhs"]
    _count_calls(monkeypatch, fracspec.assembly, blocks, counts)
    fp = solve_beta(1.4, 0.4)
    run_comparison(replace(_case_a(N=12), fp=fp),
                   [parse("piecewise(0.5; 2; 1)"), parse("1+x")], grid_points=11)
    assert counts == {"assemble_B0": 4, "assemble_B1": 1, "assemble_B2": 1,
                      "assemble_rhs": 1}


def test_run_comparison_builds_one_grid_table(monkeypatch):
    # the trial basis depends on neither k nor the variant, so the four
    # solutions are sampled from one table on the output grid
    grid_points = 37
    grid_tables = []
    table = fracspec.spaces.eval_Ghat_table

    def counted(p, N, x):
        if np.size(x) == grid_points:
            grid_tables.append(N)
        return table(p, N, x)

    monkeypatch.setattr(fracspec.spaces, "eval_Ghat_table", counted)
    fp = solve_beta(1.4, 0.4)
    reps = run_comparison(replace(_case_a(N=12), fp=fp),
                          [parse("piecewise(0.5; 2; 1)"), parse("1+x")],
                          grid_points=grid_points)
    assert grid_tables == [12]
    # each column is bitwise what the solution gives on its own
    for rep in reps:
        for spec, u in ((rep.spec_acute, rep.u_acute), (rep.spec_grave, rep.u_grave)):
            assert np.array_equal(u, solve(spec).u(rep.x))


def test_run_comparison_constant_k_control():
    fp = solve_beta(1.4, 0.4)
    (rep,) = run_comparison(replace(_case_a(N=16), fp=fp), [_one], grid_points=101)
    assert np.max(np.abs(rep.u_acute - rep.u_grave)) <= 1e-8


def test_run_comparison_validates_grid():
    fp = solve_beta(1.4, 0.4)
    with pytest.raises(ValueError, match="grid"):
        run_comparison(ProblemSpec(fp, "acute", _one, _zero, _zero, _one, 40), [_one],
                       grid_points=1)


def test_comparison_report_shape_mismatch():
    fp = solve_beta(1.4, 0.4)
    spec = ProblemSpec(fp, "acute", _one, _zero, _zero, _one, 4)
    with pytest.raises(ValueError, match="shapes"):
        ComparisonReport(np.zeros(3), np.zeros(3), np.zeros(4), spec, spec)
