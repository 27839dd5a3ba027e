"""The solve path against its first form in reference_math: bit for bit.

linsolve.factor, linsolve.lu_solve, linsolve.condition_estimate and the
diagnostics of solver.solve must give every bit that factor_checked,
lu_solve_checked, condition_checked and relative_residual give, on a seeded
sweep of about 280 systems: random orders 2-80 at scales far from 1, views
and transposes, integer and sparse entries, strided and leading-block
right-hand sides, the paper study's leading blocks and near-singular
Hilbert matrices.  Every bad input must raise the
same error, with the same message where the first form wrote one.
"""

from dataclasses import replace

import numpy as np
import pytest

from fracspec.assembly import DiscreteSystem, ProblemSpec, assemble_system
from fracspec.coeffexpr import parse
from fracspec.fracparams import solve_beta
from fracspec.linsolve import condition_estimate, factor, lu_solve
from fracspec.solver import solve
from reference_math import (
    condition_checked,
    factor_checked,
    lu_solve_checked,
    relative_residual,
)


def _random_systems(count: int, seed: int = 2410):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(2, 81))
        scale = 10.0 ** rng.uniform(-150.0, 150.0) if i % 4 == 3 else 1.0
        kind = i % 5
        if kind == 0:
            A = rng.standard_normal((n, n)) + n * np.eye(n)
        elif kind == 1:
            A = rng.standard_normal((n, n))
        elif kind == 2:
            # the leading block of a larger matrix: a strided view
            A = rng.standard_normal((n + 7, n + 7))[:n, :n]
        elif kind == 3:
            # Fortran order
            A = (rng.standard_normal((n, n)) + np.eye(n)).T
        else:
            # integer entries with exact zeros off a nonzero diagonal
            A = rng.integers(-3, 4, size=(n, n)) * (rng.random((n, n)) < 0.3)
            A[np.diag_indices(n)] = rng.integers(1, 9, size=n)
        out.append((A * scale if scale != 1.0 else A, rng.standard_normal(n) * scale))
    return out


def _study_systems():
    # the paper study's systems: cases A and B in both variants at N_ref = 40,
    # whole and as the leading blocks that run_convergence solves
    out = []
    exprs = {"b": parse("exp(x)"), "c": parse("5+sin(x)"), "f": parse("1")}
    for alpha, r, k in ((1.3, 0.5, "1+2*x"), (1.6, 0.4, "1-0.3*sin(x)")):
        for variant in ("acute", "grave"):
            spec = ProblemSpec(fp=solve_beta(alpha, r), variant=variant,
                               k=parse(k), N=40, **exprs)
            system = assemble_system(spec)
            out.append((spec, system))
            for N in (8, 10, 12, 14, 16):
                out.append((replace(spec, N=N, quad_points=spec.q), system.leading(N)))
    return out


def _hilbert(n: int) -> np.ndarray:
    i = np.arange(n)
    return 1.0 / (i[:, None] + i[None, :] + 1.0)


def _outcome(factor_fn, solve_fn, cond_fn, A, rhs):
    """Everything the solve path returns for (A, rhs), or the type and
    message of the error it raised."""
    try:
        factors = factor_fn(A)
        x, growth = solve_fn(factors, rhs)
        return factors, x, growth, cond_fn(factors)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same(A, rhs):
    want = _outcome(factor_checked, lu_solve_checked, condition_checked, A, rhs)
    got = _outcome(factor, lu_solve, condition_estimate, A, rhs)
    if len(want) == 2:
        assert got == want
        return want
    (lu, piv, amax, anorm), x, growth, cond = got
    (lu_w, piv_w, amax_w, anorm_w), x_w, growth_w, cond_w = want
    assert np.array_equal(lu, lu_w) and np.array_equal(piv, piv_w)
    assert amax == amax_w and anorm == anorm_w
    assert np.array_equal(x, x_w)
    assert growth == growth_w and cond == cond_w
    return want


def _spec_for(n: int) -> ProblemSpec:
    one = parse("1")
    return ProblemSpec(fp=solve_beta(1.5, 0.5), variant="acute",
                       k=one, b=one, c=one, f=one, N=n - 1)


def _assert_solve_same(spec, system):
    lu_w_factors = factor_checked(system.matrix)
    x_w, growth_w = lu_solve_checked(lu_w_factors, system.rhs)
    sol = solve(spec, system)
    assert np.array_equal(sol.phi.coeffs, x_w)
    d = sol.diagnostics
    assert d["pivot_growth"] == growth_w
    assert d["condition"] == condition_checked(lu_w_factors)
    assert d["residual"] == relative_residual(system.matrix, x_w, system.rhs)


def test_random_systems_match_first_form_bit_for_bit():
    systems = _random_systems(160)
    raised = 0
    for A, rhs in systems:
        want = _assert_same(A, rhs)
        if len(want) == 2:
            raised += 1
            continue
        system = DiscreteSystem(A, rhs, np.array([0.5]), np.array([1.0]))
        _assert_solve_same(_spec_for(len(rhs)), system)
    # the sweep is about solves, not about errors
    assert raised <= 2


def test_study_systems_match_first_form_bit_for_bit():
    systems = _study_systems()
    assert len(systems) == 24
    for spec, system in systems:
        _assert_same(system.matrix, system.rhs)
        _assert_solve_same(spec, system)


def test_strided_and_view_inputs_match_first_form_bit_for_bit():
    # lu_solve hands its rhs to getrs as given, so a strided rhs and the
    # leading block of a larger system (DiscreteSystem.leading's views) must
    # solve as through scipy.linalg.lu_solve
    rng = np.random.default_rng(2411)
    for A, rhs in _random_systems(40, seed=2412):
        n = len(rhs)
        strided = np.repeat(rhs, 2)[::2]
        assert not strided.flags.c_contiguous
        _assert_same(A, strided)
        big_A = rng.standard_normal((n + 5, n + 5))
        big_A[:n, :n] = A
        big_rhs = np.concatenate([rhs, rng.standard_normal(5)])
        kept = big_rhs.copy()
        _assert_same(big_A[:n, :n], big_rhs[:n])
        # getrs works on a copy: the caller's rhs is left as it was
        assert np.array_equal(big_rhs, kept)


def test_near_singular_systems_match_first_form():
    # Hilbert matrices cross the 1e-14 pivot threshold near n = 12: below
    # it they solve with condition up to ~1e16, above it they must fail
    # with the same pivot and threshold in the message
    outcomes = []
    for n in range(4, 18):
        A = _hilbert(n)
        want = _assert_same(A, np.ones(n))
        outcomes.append(len(want) == 2)
    assert not outcomes[0] and outcomes[-1]


@pytest.mark.parametrize(
    "A",
    [
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [np.inf, 1.0]]),
        np.array([[-np.inf, 0.0], [0.0, 1.0]]),
        np.array([[np.nan, np.inf], [0.0, 1.0]]),
        np.array([[1.0, 2.0], [2.0, 4.0]]),
        np.zeros((3, 3)),
        np.array([[1e-300, 0.0], [0.0, 1.0]]),
        np.ones((2, 3)),
        np.array([[np.nan, 1.0, 2.0], [0.0, 1.0, 2.0]]),
        np.ones(3),
        np.ones((2, 2, 2)),
        np.zeros((0, 0)),
    ],
    ids=["nan", "inf", "neg-inf", "nan-and-inf", "singular-pivot", "zero",
         "tiny-pivot", "non-square", "non-square-with-nan", "vector", "3d",
         "empty"],
)
def test_bad_matrix_raises_as_first_form(A):
    want = _assert_same(A, np.ones(len(A)))
    assert len(want) == 2 and issubclass(want[0], (ValueError, RuntimeError))


@pytest.mark.parametrize(
    "rhs",
    [
        np.array([1.0, np.nan, 0.0]),
        np.array([np.inf, 1.0, 0.0]),
        np.array([1.0, 0.0, -np.inf]),
        np.ones(4),
        np.array([np.nan, 1.0]),
        np.ones((3, 1)),
    ],
    ids=["nan", "inf", "neg-inf", "long", "short-with-nan", "column"],
)
def test_bad_rhs_raises_as_first_form(rhs):
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    with pytest.raises(ValueError) as want:
        lu_solve_checked(factor_checked(A), rhs)
    with pytest.raises(ValueError) as got:
        lu_solve(factor(A), rhs)
    if np.isfinite(rhs).all() or rhs.shape != (3,):
        # a shape error comes first and keeps its message
        assert str(got.value) == str(want.value)
