"""Discrete system assembly: blocks, quadrature splitting, validation."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

import fracspec.assembly
from fracspec.assembly import (
    AssemblyError,
    DiscreteSystem,
    ProblemSpec,
    assemble_B0,
    assemble_B1,
    assemble_B2,
    assemble_rhs,
    assemble_shared,
    assemble_system,
    composite_rule,
    k_floor,
)
from fracspec.coeffexpr import EvalError, parse
from fracspec.fracparams import mu, solve_beta
from fracspec.jacobi import JacobiParams, eval_Ghat_table, gauss_jacobi
from reference_math import beta as beta_fn, gamma, norm_G


def _one(x):
    return np.ones_like(x)


def _zero(x):
    return np.zeros_like(x)


def _spec(alpha=1.5, r=0.5, variant="acute", N=8, **kw):
    coeffs = {"k": _one, "b": _zero, "c": _zero, "f": _one}
    coeffs.update(kw)
    return ProblemSpec(fp=solve_beta(alpha, r), variant=variant, N=N, **coeffs)


# ---------------------------------------------------------------- containers


def test_problemspec_validation():
    fp = solve_beta(1.5, 0.5)
    kw = {"k": _one, "b": _zero, "c": _zero, "f": _one}
    with pytest.raises(ValueError, match="variant"):
        ProblemSpec(fp=fp, variant="oblique", N=8, **kw)
    with pytest.raises(ValueError, match="N must"):
        ProblemSpec(fp=fp, variant="acute", N=0, **kw)
    with pytest.raises(ValueError, match="quad_points"):
        ProblemSpec(fp=fp, variant="acute", N=8, quad_points=27, **kw)
    spec = ProblemSpec(fp=fp, variant="grave", N=8, **kw)
    assert spec.q == 28
    assert ProblemSpec(fp=fp, variant="acute", N=8, quad_points=50, **kw).q == 50


def test_problemspec_degree_and_quad_points_are_integers():
    fp = solve_beta(1.5, 0.5)
    kw = {"k": _one, "b": _zero, "c": _zero, "f": _one}
    # an integral float is that integer, as check_degrees takes it
    spec = ProblemSpec(fp=fp, variant="acute", N=8.0, quad_points=30.0, **kw)
    assert (spec.N, spec.quad_points, spec.q) == (8, 30, 30)
    assert type(spec.N) is int and type(spec.quad_points) is int
    assert assemble_system(spec).matrix.shape == (9, 9)
    # any other value names its field, where it used to fail inside
    # gauss_jacobi with a bare TypeError
    for N, q, match in (
        (8.5, None, "N must be an integer, got 8.5"),
        ("8", None, "N must be an integer, got '8'"),
        (float("nan"), None, "N must be an integer"),
        (8, 30.5, "quad_points must be an integer, got 30.5"),
        (8, float("inf"), "quad_points must be an integer"),
    ):
        with pytest.raises(ValueError, match=match):
            ProblemSpec(fp=fp, variant="acute", N=N, quad_points=q, **kw)


def test_problemspec_refuses_bool_sizes():
    # True is an int to Python, and used to solve at N = 1
    fp = solve_beta(1.5, 0.5)
    kw = {"k": _one, "b": _zero, "c": _zero, "f": _one}
    with pytest.raises(ValueError, match="ProblemSpec: N must be an integer, got True"):
        ProblemSpec(fp=fp, variant="acute", N=True, **kw)
    with pytest.raises(ValueError, match="quad_points must be an integer, got False"):
        ProblemSpec(fp=fp, variant="acute", N=1, quad_points=False, **kw)


def test_discretesystem_validation():
    A = np.eye(3)
    DiscreteSystem(A, np.ones(3))
    with pytest.raises(ValueError, match="shape"):
        DiscreteSystem(A, np.ones(4))
    with pytest.raises(ValueError, match="shape"):
        DiscreteSystem(np.ones((3, 4)), np.ones(3))
    bad = A.copy()
    bad[1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        DiscreteSystem(bad, np.ones(3))


# ---------------------------------------------------------- composite rule


def test_composite_rule_no_breaks_is_plain_gauss():
    plain = gauss_jacobi((0.3, -0.2), 12)
    comp = composite_rule((0.3, -0.2), 12, [])
    assert np.array_equal(plain.nodes, comp.nodes)
    assert np.array_equal(plain.weights, comp.weights)
    # it is the memo's shared, read-only rule; with breaks the arrays are new
    assert comp is plain
    assert not comp.nodes.flags.writeable and not comp.weights.flags.writeable
    own = composite_rule((0.3, -0.2), 12, [0.5])
    assert own.nodes.flags.writeable and own.weights.flags.writeable


def test_composite_rule_rejects_exterior_breaks():
    for bad in ([0.0], [1.0], [-0.3], [0.2, 1.5]):
        with pytest.raises(ValueError, match="inside"):
            composite_rule((0.0, 0.0), 4, bad)


def test_composite_rule_rejects_non_finite_breaks():
    for bad in ([np.nan], [np.inf], [-np.inf], [0.5, np.nan]):
        with pytest.raises(ValueError, match="inside"):
            composite_rule((0.2, 0.3), 5, bad)


def test_composite_rule_midpoint_pieces():
    rule = composite_rule((0.0, 0.0), 1, [0.5])
    # one Legendre midpoint per half interval
    assert np.allclose(rule.nodes, [0.25, 0.75])
    assert np.allclose(rule.weights, [0.5, 0.5])


def test_composite_rule_weight_sum_matches_beta_function():
    for (a, b), breaks in [
        ((-0.25, -0.25), [0.5]),
        ((0.5, 0.5), [0.3, 0.7]),
        ((1.5, -0.4), [0.1, 0.25, 0.8]),
    ]:
        rule = composite_rule((a, b), 30, breaks)
        total = beta_fn(a + 1.0, b + 1.0)
        assert abs(rule.weights.sum() - total) <= 1e-9 * total
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes.size == 30 * (len(breaks) + 1)


def test_composite_rule_piecewise_integrand_oracle():
    # weight singular at both ends, integrand with a jump at the break
    a, b = -0.25, -0.25
    rule = composite_rule((a, b), 40, [0.4])

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.4, x**2, 1.0 + x)

    got = float(rule.weights @ g(rule.nodes))
    left, _ = quad(lambda x: (1.0 - x) ** a * (1.0 + x), 0.0, 0.4,
                   weight="alg", wvar=(b, 0.0))
    right, _ = quad(lambda x: x**b * x**2, 0.4, 1.0,
                    weight="alg", wvar=(0.0, a))
    assert abs(got - (left + right)) < 1e-12


def _rules_read(monkeypatch, breaks, a=0.3, b=-0.2):
    """The exponents of every rule composite_rule((a, b), 10, breaks) looks up."""
    seen = []

    def recording(p, n):
        seen.append((p.a, p.b))
        return gauss_jacobi(p, n)

    monkeypatch.setattr(fracspec.assembly, "gauss_jacobi", recording)
    composite_rule((a, b), 10, breaks)
    return seen


def test_composite_rule_reads_only_its_pieces_rules(monkeypatch):
    # one rule per piece: x^b on the first, (1-x)^a on the last, Legendre
    # inside, and a one-jump coefficient has no inside piece
    assert sorted(_rules_read(monkeypatch, [0.5])) == [(0.0, -0.2), (0.3, 0.0)]
    two = _rules_read(monkeypatch, [0.2, 0.7])
    assert len(two) == 3
    assert set(two) == {(0.0, -0.2), (0.3, 0.0), (0.0, 0.0)}


# -------------------------------------------------------------- diffusion B0


def test_b0_constant_k_diagonal_closed_form():
    # orthonormality collapses B0 to k |c**| Gamma(i+alpha+1)/Gamma(i+1)
    N = 12
    for alpha in (1.3, 1.5, 1.8):
        for r in (0.3, 0.5, 1.0):
            for variant in ("acute", "grave"):
                spec = _spec(alpha=alpha, r=r, variant=variant, N=N)
                B0 = assemble_B0(spec)
                i = np.arange(N + 1)
                want = -spec.fp.c_star_star * np.array(
                    [gamma(m + alpha + 1.0) / gamma(m + 1.0) for m in i]
                )
                assert np.max(np.abs(np.diag(B0) / want - 1.0)) < 1e-10
                off = B0 - np.diag(np.diag(B0))
                assert np.max(np.abs(off)) < 1e-10 * want[-1]


@pytest.mark.parametrize("r", [0.5, 0.2])
def test_b0_tends_to_minus_second_derivative(r):
    # as alpha -> 2 with k = 1 the operator tends to -d^2/dx^2, so the
    # pencil (B0, M), M the reaction block at c = 1, has eigenvalues near
    # m^2 pi^2: this pins the sign and scale of c** from outside the
    # collapsed forms (measured 0.0017-0.0024 off at alpha 1.999)
    spec = _spec(alpha=1.999, r=r, N=32, c=_one)
    lam = scipy.linalg.eigvals(assemble_B0(spec), assemble_B2(spec))
    lam = lam[np.argsort(np.abs(lam))][:3]
    for m, value in enumerate(lam, start=1):
        assert abs(value / (m * m * math.pi ** 2) - 1.0) < 0.005


def test_b0_frozen_corner_entry():
    B0 = assemble_B0(_spec())
    assert B0[0, 0] == pytest.approx(0.9399856029866253, rel=1e-10)


def test_b0_variants_agree_for_constant_k():
    k = lambda x: 3.7 * np.ones_like(x)
    a = assemble_B0(_spec(alpha=1.7, r=0.35, variant="acute", N=10, k=k))
    g = assemble_B0(_spec(alpha=1.7, r=0.35, variant="grave", N=10, k=k))
    assert np.max(np.abs(a - g)) < 1e-12 * np.max(np.abs(a))


def test_b0_linear_in_k():
    one = assemble_B0(_spec(N=6))
    two = assemble_B0(_spec(N=6, k=lambda x: 2.0 * np.ones_like(x)))
    assert np.allclose(two, 2.0 * one, rtol=1e-13)


def test_b0_variable_k_entry_oracle():
    fp = solve_beta(1.5, 0.5)
    spec = _spec(N=6, k=lambda x: 1.0 + x)
    B0 = assemble_B0(spec)
    aj, bj = fp.alpha - fp.beta - 1.0, fp.beta - 1.0
    p = JacobiParams(aj, bj)

    def ghat(n, x):
        return eval_Ghat_table(p, n, np.atleast_1d(float(x)))[0, n]

    def nr(m):
        return np.sqrt((m + fp.alpha) / (m + 1.0))

    j, i = 2, 1
    integ, _ = quad(
        lambda x: (1.0 + x) * ghat(i + 1, x) * ghat(j + 1, x),
        0.0, 1.0, weight="alg", wvar=(bj, aj),
    )
    want = (i + 1.0) * nr(i) * (-mu(fp, j)) * nr(j) * integ
    assert B0[j, i] == pytest.approx(want, abs=1e-12)


def test_b0_rejects_nonpositive_k():
    with pytest.raises(AssemblyError, match="must be positive"):
        assemble_B0(_spec(k=lambda x: x - 0.5))
    # message carries the offending location
    with pytest.raises(AssemblyError, match=r"k\("):
        assemble_B0(_spec(k=lambda x: np.zeros_like(x)))


def test_b0_rejects_nan_k():
    # NaN <= 0 is false, so a NaN k must be caught where it is sampled
    with pytest.raises(EvalError, match="coefficient is nan at x"):
        assemble_B0(_spec(k=lambda x: np.where(x < 0.5, np.nan, 1.0)))


def test_k_floor_finds_interior_minimum():
    spec = _spec(N=20, k=lambda x: 0.2 + (x - 0.3) ** 2)
    val, loc = k_floor(assemble_system(spec))
    assert 0.2 <= val < 0.205
    assert abs(loc - 0.3) < 0.06


# -------------------------------------------------------------- advection B1


def test_b1_zero_when_b_zero():
    assert np.max(np.abs(assemble_B1(_spec()))) == 0.0


def test_b1_frozen_skew_structure():
    # with beta = alpha/2 and constant b the block is skew symmetric, so the
    # diagonal vanishes and mirrored entries flip sign
    B1 = assemble_B1(_spec(b=_one))
    assert B1[1, 0] == pytest.approx(-0.61454473928721, abs=1e-10)
    assert B1[0, 1] == pytest.approx(+0.61454473928721, abs=1e-10)
    assert np.max(np.abs(np.diag(B1))) < 1e-12
    assert np.max(np.abs(B1 + B1.T)) < 1e-12


def test_b1_linear_in_b():
    one = assemble_B1(_spec(N=6, b=_one))
    two = assemble_B1(_spec(N=6, b=lambda x: 2.0 * np.ones_like(x)))
    assert np.allclose(two, 2.0 * one, rtol=1e-13)


def test_b1_variable_b_entry_oracle():
    fp = solve_beta(1.4, 0.4)
    spec = ProblemSpec(fp=fp, variant="acute", k=_one, b=np.exp, c=_zero,
                       f=_one, N=6)
    B1 = assemble_B1(spec)
    al, be = fp.alpha, fp.beta
    ptest = JacobiParams(be, al - be)
    ptrial = JacobiParams(al - be - 1.0, be - 1.0)

    def ghat(pp, n, x):
        return eval_Ghat_table(pp, n, np.atleast_1d(float(x)))[0, n]

    j, i = 1, 2
    integ, _ = quad(
        lambda x: np.exp(x) * ghat(ptest, j, x) * ghat(ptrial, i + 1, x),
        0.0, 1.0, weight="alg", wvar=(al - 1.0, al - 1.0),
    )
    want = -(i + 1.0) * np.sqrt((i + al) / (i + 1.0)) * integ
    assert B1[j, i] == pytest.approx(want, abs=1e-12)


# --------------------------------------------------------------- reaction B2


def test_b2_zero_when_c_zero():
    assert np.max(np.abs(assemble_B2(_spec()))) == 0.0


def test_b2_frozen_entry_and_symmetry():
    B2 = assemble_B2(_spec(c=_one))
    assert B2[0, 0] == pytest.approx(0.28969916832833975, rel=1e-10)
    # r = 1/2 makes trial and test families coincide
    assert np.max(np.abs(B2 - B2.T)) < 1e-12


def test_b2_variable_c_entry_oracle():
    fp = solve_beta(1.6, 0.3)
    spec = ProblemSpec(fp=fp, variant="acute", k=_one, b=_zero,
                       c=lambda x: 1.0 + x, f=_one, N=6)
    B2 = assemble_B2(spec)
    al, be = fp.alpha, fp.beta
    ptrial = JacobiParams(al - be, be)
    ptest = JacobiParams(be, al - be)

    def ghat(pp, n, x):
        return eval_Ghat_table(pp, n, np.atleast_1d(float(x)))[0, n]

    j, i = 0, 2
    integ, _ = quad(
        lambda x: (1.0 + x) * ghat(ptest, j, x) * ghat(ptrial, i, x),
        0.0, 1.0, weight="alg", wvar=(al, al),
    )
    assert B2[j, i] == pytest.approx(integ, abs=1e-12)


# -------------------------------------------------------------- load vector


def test_rhs_constant_forcing_hits_first_mode_only():
    fp = solve_beta(1.5, 0.5)
    F = assemble_rhs(_spec())
    # f = 1 is norm_G(0) times the first orthonormal test function
    assert F[0] == pytest.approx(norm_G((fp.beta, fp.alpha - fp.beta), 0),
                                 rel=1e-12)
    assert np.max(np.abs(F[1:])) < 1e-13


def test_rhs_unit_mode_orientation():
    fp = solve_beta(1.5, 0.5)
    p = JacobiParams(fp.beta, fp.alpha - fp.beta)

    def f(x):
        return eval_Ghat_table(p, 2, np.atleast_1d(np.asarray(x, float)))[:, 2]

    F = assemble_rhs(_spec(N=5, f=f))
    want = np.zeros(6)
    want[2] = 1.0
    assert np.max(np.abs(F - want)) < 1e-12


# ------------------------------------------------------------- whole system


def test_assemble_system_sums_blocks():
    spec = _spec(N=7, b=np.sin, c=lambda x: 1.0 + x, f=np.cos)
    sys = assemble_system(spec)
    manual = assemble_B0(spec) + assemble_B1(spec) + assemble_B2(spec)
    assert np.array_equal(sys.matrix, manual)
    assert np.array_equal(sys.rhs, assemble_rhs(spec))
    assert sys.matrix.shape == (8, 8)


@pytest.mark.parametrize("variant", ["acute", "grave"])
def test_lower_degree_is_the_leading_block(variant):
    # run_convergence solves every degree of a sweep from one assembly at
    # N_ref: at a fixed q the degree-N system is its leading block.  The
    # entries are the same sums, but BLAS may block a product differently
    # at another size, so they agree to rounding rather than bit for bit
    kw = dict(alpha=1.3, r=0.5, variant=variant, k=parse("1+2*x"),
              b=np.exp, c=lambda x: 5.0 + np.sin(x), f=_one, quad_points=60)
    ref = assemble_system(_spec(N=40, **kw))
    for N in (1, 8, 16, 39):
        block = ref.leading(N)
        own = assemble_system(_spec(N=N, **kw))
        assert np.max(np.abs(block.matrix - own.matrix)) <= 1e-15 * np.max(np.abs(own.matrix))
        assert np.max(np.abs(block.rhs - own.rhs)) <= 1e-15 * np.max(np.abs(own.rhs))
        assert k_floor(block) == k_floor(own)
    assert np.array_equal(ref.leading(40).matrix, ref.matrix)
    for N in (0, 41):
        with pytest.raises(ValueError, match="degree"):
            ref.leading(N)


def _hand_system(n=4):
    return DiscreteSystem(np.eye(n) + 0.5, np.arange(1.0, n + 1.0))


def test_leading_refuses_a_bool_degree():
    # True == 1 would give the 2x2 block without a word
    with pytest.raises(ValueError, match="DiscreteSystem: degree must be an integer, got True"):
        _hand_system().leading(True)


def test_leading_takes_an_integral_float_degree():
    # as ProblemSpec takes N = 8.0: 2.0 is degree 2, 2.5 is no degree
    system = _hand_system()
    block = system.leading(2.0)
    assert np.array_equal(block.matrix, system.matrix[:3, :3])
    assert np.array_equal(block.rhs, system.rhs[:3])
    with pytest.raises(ValueError, match="DiscreteSystem: degree must be an integer, got 2.5"):
        system.leading(2.5)


def test_shared_blocks_sum_like_a_fresh_assembly():
    # a compare reuses B1, B2 and rhs across diffusivities and variants; the
    # sum must round exactly as assemble_system's own
    kw = dict(b=np.sin, c=lambda x: 1.0 + x, f=np.cos, N=7)
    shared = assemble_shared(_spec(k=_one, **kw))
    for variant in ("acute", "grave"):
        spec = _spec(variant=variant, k=parse("piecewise(0.4; 1; 3)"), **kw)
        fresh = assemble_system(spec)
        reused = assemble_system(spec, shared)
        assert np.array_equal(reused.matrix, fresh.matrix)
        assert np.array_equal(reused.rhs, fresh.rhs)


def test_quadrature_refinement_converged_for_polynomial_data():
    kw = dict(
        k=lambda x: 1.0 + x,
        b=lambda x: x * (1.0 - x),
        c=lambda x: x**2,
        f=lambda x: 1.0 + x**3,
    )
    base = assemble_system(_spec(N=8, quad_points=28, **kw))
    fine = assemble_system(_spec(N=8, quad_points=68, **kw))
    scale = np.max(np.abs(base.matrix))
    assert np.max(np.abs(base.matrix - fine.matrix)) <= 1e-10 * scale
    assert np.max(np.abs(base.rhs - fine.rhs)) <= 1e-10


def test_assembly_splits_at_expression_breakpoints():
    # a parsed coefficient with a jump routes through the composite rule,
    # so even the default budget integrates it to near machine accuracy
    fp = solve_beta(1.5, 0.5)
    kexpr = parse("piecewise(0.5; 1; 2)")
    spec = ProblemSpec(fp=fp, variant="acute", k=kexpr, b=_zero, c=_zero,
                       f=_one, N=4)
    B0 = assemble_B0(spec)
    aj, bj = fp.alpha - fp.beta - 1.0, fp.beta - 1.0
    p = JacobiParams(aj, bj)

    def g1sq(x):
        v = eval_Ghat_table(p, 1, np.atleast_1d(float(x)))[0, 1]
        return v * v

    left, _ = quad(lambda x: (1.0 - x) ** aj * g1sq(x), 0.0, 0.5,
                   weight="alg", wvar=(bj, 0.0))
    right, _ = quad(lambda x: 2.0 * x**bj * g1sq(x), 0.5, 1.0,
                    weight="alg", wvar=(0.0, aj))
    want = -mu(fp, 0) * (fp.alpha / 1.0) * (left + right)
    assert B0[0, 0] == pytest.approx(want, rel=1e-12)
