import math

import numpy as np
import pytest

from fracspec import (
    CoeffVec,
    JacobiParams,
    WeightSpec,
    error_norms,
    eval_Ghat_table,
    eval_solution,
    gauss_jacobi,
    parse,
    project,
    sobolev_norm,
    solve_beta,
)
from reference_math import eval_G_table, norm_G, omega_star


def _unit(p, n, m):
    c = np.zeros(n + 1)
    c[m] = 1.0
    return CoeffVec(JacobiParams(*p), c)


def test_coeffvec_validation():
    with pytest.raises(ValueError):
        CoeffVec(JacobiParams(0.0, 0.0), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        CoeffVec(JacobiParams(0.0, 0.0), np.array([]))
    v = _unit((0.0, 0.0), 4, 2)
    assert v.degree == 4


def test_weightspec_exponents_and_vanishing():
    fp = solve_beta(1.5, 0.5)
    w = WeightSpec(fp)
    assert w.trial_params.a == pytest.approx(0.75, abs=1e-13)
    assert w.trial_params.b == pytest.approx(0.75, abs=1e-13)
    assert w.test_params.a == pytest.approx(0.75, abs=1e-13)
    assert w.omega(0.0) == 0.0 and w.omega(1.0) == 0.0
    assert omega_star(fp, 0.0) == 0.0 and omega_star(fp, 1.0) == 0.0
    fp2 = solve_beta(1.6, 0.4)
    w2 = WeightSpec(fp2)
    assert w2.trial_params.a == pytest.approx(1.6 - fp2.beta)
    assert w2.trial_params.b == pytest.approx(fp2.beta)
    # omega* swaps the exponents
    assert w2.omega(0.3) == pytest.approx(omega_star(fp2, 0.7), rel=1e-13)


def test_project_recovers_basis_mode():
    p = (0.3, 0.8)

    def mode2(x):
        return eval_Ghat_table(p, 2, np.atleast_1d(x))[:, 2]

    v = project(mode2, p, 6, 20)
    want = np.zeros(7)
    want[2] = 1.0
    assert np.max(np.abs(v.coeffs - want)) < 1e-12


def test_project_constant_against_closed_form():
    fp = solve_beta(1.3, 0.5)
    p = (fp.beta, fp.alpha - fp.beta)
    v = project(lambda x: np.ones_like(x), p, 5, 25)
    assert abs(v.coeffs[0] - norm_G(p, 0)) < 1e-13
    assert np.max(np.abs(v.coeffs[1:])) < 1e-13


def test_project_polynomial_exactness():
    p = (0.0, 0.0)
    poly = lambda x: 3.0 * x**4 - x + 0.5
    v1 = project(poly, p, 6, 7)
    v2 = project(poly, p, 6, 40)
    assert np.max(np.abs(v1.coeffs - v2.coeffs)) < 1e-12


def test_project_decreasing_defect_for_smooth_function():
    p = (0.45, 0.45)
    f = lambda x: np.exp(x)
    defects = []
    for N in (2, 4, 6, 8):
        v = project(f, p, N, 40)
        full = project(f, p, 20, 40)
        d = error_norms(full, v, [0.0])[0]
        defects.append(d)
    assert all(d2 < d1 for d1, d2 in zip(defects[:-1], defects[1:]))


def test_project_splits_at_breakpoints():
    p = (0.3, 0.6)
    pw = parse("piecewise(0.5; 2; 1)")
    v = project(pw, p, 0, 30)
    # first coefficient is the weighted mean against Ghat_0
    want = 0.6228168357424304 / norm_G(p, 0)
    assert abs(v.coeffs[0] - want) < 1e-9 * abs(want)


def test_sobolev_norm_examples():
    p = (0.0, 0.0)
    assert sobolev_norm(_unit(p, 5, 0), 0.0) == 1.0
    assert sobolev_norm(_unit(p, 5, 0), 3.0) == 1.0
    assert sobolev_norm(_unit(p, 5, 3), 1.0) == pytest.approx(math.sqrt(10.0))
    v = CoeffVec(JacobiParams(0.0, 0.0), np.array([1.0, 1.0]))
    assert sobolev_norm(v, 2.0) == pytest.approx(math.sqrt(5.0))
    with pytest.raises(ValueError):
        sobolev_norm(v, -1.0)


def test_sobolev_norm_monotone_in_order():
    rng = np.random.default_rng(3)
    v = CoeffVec(JacobiParams(0.2, 0.2), rng.standard_normal(9))
    norms = [sobolev_norm(v, s) for s in (0.0, 0.5, 1.0, 2.0, 3.5)]
    assert all(n2 >= n1 for n1, n2 in zip(norms[:-1], norms[1:]))


def test_parseval_against_quadrature():
    rng = np.random.default_rng(11)
    for (a, b) in [(0.0, 0.0), (0.65, 0.65), (0.3, 0.8)]:
        coeffs = rng.standard_normal(rng.integers(1, 11))
        v = CoeffVec(JacobiParams(a, b), coeffs)
        rule = gauss_jacobi((a, b), 30)
        vals = eval_Ghat_table((a, b), v.degree, rule.nodes) @ coeffs
        quad = math.sqrt(float(rule.weights @ vals**2))
        assert abs(quad - sobolev_norm(v, 0.0)) <= 1e-10 * max(quad, 1e-30)


def test_norm_equivalence_smoke():
    # decay-based first-order norm vs the integral-based one: same size
    # within a fixed factor of ten across truncations
    a = b = 0.45
    p = (a, b)
    for N in (5, 10, 20):
        v = project(lambda x: np.exp(x), p, N, 40)
        decay = sobolev_norm(v, 1.0)
        rule = gauss_jacobi((a + 1, b + 1), 40)
        # derivative of the expansion via the degree-shifted family
        dvals = np.zeros_like(rule.nodes)
        shifted = eval_G_table((a + 1, b + 1), max(N - 1, 0), rule.nodes)
        for n in range(1, N + 1):
            dvals += (
                v.coeffs[n] * (n + a + b + 1) * shifted[:, n - 1] / norm_G(p, n)
            )
        dnorm_sq = float(rule.weights @ dvals**2)
        integral = math.sqrt(sobolev_norm(v, 0.0) ** 2 + dnorm_sq)
        assert integral / 10.0 <= decay <= integral * 10.0


def test_eval_solution_boundary_and_interior():
    fp = solve_beta(1.5, 0.5)
    w = WeightSpec(fp)
    phi = _unit((0.75, 0.75), 4, 0)
    assert eval_solution(phi, w, 0.0) == 0.0
    assert eval_solution(phi, w, 1.0) == 0.0
    # phi is the constant 1/||G_0||, so u(0.5) = 0.5^1.5 / ||G_0||
    want = 0.3535533905932738 / 0.5041467300679373
    assert eval_solution(phi, w, 0.5) == pytest.approx(want, rel=1e-13)
    xs = np.array([0.0, 0.25, 1.0])
    out = eval_solution(phi, w, xs)
    assert out[0] == 0.0 and out[2] == 0.0


def test_eval_solution_sequence_matches_single_calls():
    fp = solve_beta(1.5, 0.5)
    w = WeightSpec(fp)
    rng = np.random.default_rng(7)
    phis = [CoeffVec(w.trial_params, rng.standard_normal(6)) for _ in range(3)]
    xs = np.linspace(0.0, 1.0, 57)
    us = eval_solution(phis, w, xs)
    assert len(us) == 3
    for phi, u in zip(phis, us):
        assert np.array_equal(u, eval_solution(phi, w, xs))
    assert eval_solution(phis, w, 0.5) == [eval_solution(phi, w, 0.5) for phi in phis]
    with pytest.raises(ValueError, match="degree"):
        eval_solution([phis[0], CoeffVec(w.trial_params, np.ones(4))], w, xs)


def test_eval_solution_rejects_basis_mismatch():
    fp = solve_beta(1.5, 0.5)
    with pytest.raises(ValueError):
        eval_solution(_unit((0.0, 0.0), 3, 0), WeightSpec(fp), 0.5)


def test_error_norms_zero_and_single_mode():
    p = (0.75, 0.75)
    v = _unit(p, 6, 1)
    assert error_norms(v, v, [0.0, 1.0]) == [0.0, 0.0]
    a = _unit(p, 6, 5)
    b = CoeffVec(JacobiParams(*p), np.zeros(3))
    e0, e1 = error_norms(a, b, [0.0, 1.0])
    assert e0 == pytest.approx(1.0)
    assert e1 == pytest.approx(math.sqrt(26.0))


def test_error_norms_pads_shorter_vector():
    p = (0.3, 0.3)
    long = CoeffVec(JacobiParams(*p), np.array([1.0, 2.0, 3.0, 4.0]))
    short = CoeffVec(JacobiParams(*p), np.array([1.0, 2.0]))
    e0 = error_norms(long, short, [0.0])[0]
    assert e0 == pytest.approx(5.0)
    with pytest.raises(ValueError):
        error_norms(long, CoeffVec(JacobiParams(0.1, 0.3), np.ones(2)), [0.0])
