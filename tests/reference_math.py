"""Closed forms and identity checks that the tests hold the package to.

The package itself never calls these: they are the independent side of a
comparison (classical Jacobi values, norms and derivatives, the Gamma and
beta functions, the test weight omega*, the inverse map beta -> r, the
sigma_k sequence, the diffusion block's scale, the one-at-a-time Jacobi
matrix, rule and table loops, the sorted composite rule, the solve path's
checked LU, triangular solve, condition estimate and relative residual,
and the convergence sweep's rows as first written), so they live next to
the tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

from fracspec.assembly import assemble_system
from fracspec.coeffexpr import sample
from fracspec.fracparams import FracParams, _denominator
from fracspec.jacobi import JacobiParams, _mu0, as_params, gauss_jacobi, log_gamma
from fracspec.linsolve import SingularMatrixError


def gamma(x: float) -> float:
    """Gamma function for positive real x.

    For x > 10 the value is formed as exp(log_gamma(x)) so that callers
    composing ratios stay clear of overflow territory.  Relative error is
    at the 1e-15 level on [0.1, 60], well inside the 1e-13 contract.
    """
    if x <= 0:
        raise ValueError(f"gamma: argument must be positive, got {x}")
    if x > 10:
        return math.exp(math.lgamma(x))
    return math.gamma(x)


def beta(a: float, b: float) -> float:
    """Euler beta B(a,b) = Gamma(a)Gamma(b)/Gamma(a+b), the zeroth moment
    of the Jacobi weight (1-x)^(a-1) x^(b-1) on (0,1).

    Computed in log space; symmetric in (a, b) by construction.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"beta: arguments must be positive, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _recurrence_step(m: int, a: float, b: float):
    # coefficients of P_{m+1} = ((a2 + a3 t) P_m - a4 P_{m-1}) / a1, m >= 1
    s = a + b
    a1 = 2.0 * (m + 1) * (m + s + 1) * (2 * m + s)
    a2 = (2 * m + s + 1) * (a * a - b * b)
    a3 = (2 * m + s) * (2 * m + s + 1) * (2 * m + s + 2)
    a4 = 2.0 * (m + a) * (m + b) * (2 * m + s + 2)
    return a1, a2, a3, a4


def eval_G_table(p, N: int, x) -> np.ndarray:
    """Values G_n^{(a,b)}(x) for all n = 0..N.

    Parameters
    ----------
    p : JacobiParams or (a, b) pair
    N : highest degree
    x : array of points in [0, 1]

    Returns
    -------
    ndarray of shape (len(x), N+1), column n holding G_n at the points.
    """
    p = as_params(p)
    a, b = p.a, p.b
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = 2.0 * x - 1.0
    V = np.ones((x.size, N + 1))
    if N >= 1:
        V[:, 1] = 0.5 * ((a + b + 2.0) * t + a - b)
    for m in range(1, N):
        a1, a2, a3, a4 = _recurrence_step(m, a, b)
        V[:, m + 1] = ((a2 + a3 * t) * V[:, m] - a4 * V[:, m - 1]) / a1
    return V


def norm_G(p, j: int) -> float:
    """Weighted L2 norm ||G_j^{(a,b)}|| over omega^{(a,b)} on (0,1).

    Log-space evaluation of
    sqrt( Gamma(j+a+1) Gamma(j+b+1) / ((2j+a+b+1) Gamma(j+1) Gamma(j+a+b+1)) );
    symmetric under (a, b) -> (b, a).
    """
    p = as_params(p)
    a, b = p.a, p.b
    if j < 0:
        raise ValueError(f"norm_G: degree must be nonnegative, got {j}")
    ln = 0.5 * (
        log_gamma(j + a + 1)
        + log_gamma(j + b + 1)
        - log_gamma(j + 1.0)
        - log_gamma(j + a + b + 1)
        - math.log(2 * j + a + b + 1)
    )
    return math.exp(ln)


def eval_G(p, n: int, x: float) -> float:
    """G_n^{(a,b)}(x) via the standard three-term recurrence at t = 2x-1."""
    if n < 0:
        raise ValueError(f"eval_G: degree must be nonnegative, got {n}")
    return float(eval_G_table(p, n, x)[0, n])


def norm_ratio_sq(alpha: float, beta: float, j: int) -> float:
    """||G_j^{(alpha-beta,beta)}||^2 / ||G_{j+1}^{(beta-1,alpha-beta-1)}||^2,
    which collapses to (j+1)/(j+alpha); lies in [1/2, 1] and increases in j."""
    if j < 0:
        raise ValueError(f"norm_ratio_sq: degree must be nonnegative, got {j}")
    return (j + 1) / (j + alpha)


def deriv_G(p, n: int, k: int, x: float) -> float:
    """k-th derivative of G_n^{(a,b)} at x in the (0,1) convention:

        d^k/dx^k G_n = [Gamma(n+k+a+b+1)/Gamma(n+a+b+1)] G_{n-k}^{(a+k,b+k)}.

    Returns 0 for k > n.
    """
    p = as_params(p)
    if k < 0:
        raise ValueError(f"deriv_G: order must be nonnegative, got {k}")
    if k > n:
        return 0.0
    if k == 0:
        return eval_G(p, n, x)
    a, b = p.a, p.b
    fac = math.exp(log_gamma(n + k + a + b + 1) - log_gamma(n + a + b + 1))
    return fac * eval_G(JacobiParams(a + k, b + k), n - k, x)


def _omega(a: float, b: float, x: float) -> float:
    return (1.0 - x) ** a * x ** b


def weighted_deriv_identity_check(p, n: int, k: int, x: float) -> float:
    """Self-test of the weighted derivative identity

        d^k/dx^k [omega^{(a+k,b+k)} G_{n-k}^{(a+k,b+k)}]
            = (-1)^k n!/(n-k)! omega^{(a,b)} G_n^{(a,b)},

    with the left side evaluated by central finite differences.  Returns the
    relative residual; used to pin the sign/scale conventions once.
    """
    p = as_params(p)
    a, b = p.a, p.b
    if not (0 <= k <= n):
        raise ValueError(f"weighted_deriv_identity_check: need 0 <= k <= n, got k={k}, n={n}")
    if not (0.0 < x < 1.0):
        raise ValueError(f"weighted_deriv_identity_check: x must be interior, got {x}")

    def wG(y: float) -> float:
        return _omega(a + k, b + k, y) * eval_G(JacobiParams(a + k, b + k), n - k, y)

    if k == 0:
        lhs = wG(x)
    elif k == 1:
        h = 1e-6
        lhs = (wG(x + h) - wG(x - h)) / (2 * h)
    elif k == 2:
        h = 1e-4
        lhs = (wG(x + h) - 2 * wG(x) + wG(x - h)) / (h * h)
    else:
        # k-th central difference with binomial coefficients
        h = 10.0 ** (-12.0 / (k + 2))
        lhs = sum(
            (-1) ** i * math.comb(k, i) * wG(x + (k / 2 - i) * h) for i in range(k + 1)
        ) / h ** k
    fac = (-1) ** k * math.exp(log_gamma(n + 1.0) - log_gamma(n - k + 1.0))
    rhs = fac * _omega(a, b, x) * eval_G(p, n, x)
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def beta_to_r(alpha: float, beta: float) -> float:
    """The weight r that the exponent beta corresponds to."""
    return math.sin(math.pi * beta) / _denominator(alpha, beta)


def sigma(fp: FracParams, k: int) -> float:
    """sigma_k = -c** Gamma(k+alpha-1)/Gamma(k+1) > 0; |mu_k| = sigma_k (k+alpha-1)."""
    if k < 0:
        raise ValueError(f"sigma: index must be nonnegative, got {k}")
    return -fp.c_star_star * math.exp(log_gamma(k + fp.alpha - 1.0) - log_gamma(k + 1.0))


def omega_star(fp: FracParams, x):
    """The test weight omega* = (1-x)^beta x^(alpha-beta): the trial weight
    with its exponents swapped."""
    a, b = fp.beta, fp.alpha - fp.beta
    x = np.asarray(x, dtype=float)
    return (1.0 - x) ** a * x ** b


def diffusion_scale(fp: FracParams, N: int) -> np.ndarray:
    """D_i = |c**| Gamma(i+alpha+1)/Gamma(i+1), i = 0..N: the diagonal of
    B0 at k = 1, from math.lgamma rather than the package's mu."""
    a = fp.alpha
    return np.array([
        -fp.c_star_star * math.exp(math.lgamma(i + a + 1.0) - math.lgamma(i + 1.0))
        for i in range(N + 1)
    ])


def jacobi_matrix(a: float, b: float, n: int):
    """Recurrence coefficients of the orthonormal polynomials for
    omega^{(a,b)} on (0,1), one weight at a time: d[k] = d_k for 0 <= k < n
    and e[k] = e_k for 1 <= k <= n, with e[0] = 0.  The package's stacked
    build must match this bit for bit.

    d_0 and e_1 are written in closed form, because the general entries
    divide by a+b and by 1+a+b there.
    """
    s = a + b
    d = np.empty(n)
    e = np.zeros(n + 1)
    d[:1] = (b + 1.0) / (s + 2.0)
    e[1:2] = math.sqrt((1.0 + a) * (1.0 + b) / ((s + 2.0) ** 2 * (s + 3.0)))
    c = 2.0 * np.arange(1.0, n) + s
    d[1:] = 0.5 + 0.5 * (b * b - a * a) / (c * (c + 2.0))
    k = np.arange(2.0, n + 1)
    c = 2.0 * k + s
    e[2:] = np.sqrt(k * (k + a) * (k + b) * (k + s) / (c * c * (c + 1.0) * (c - 1.0)))
    return d, e


def gauss_jacobi_loop(p, n: int):
    """(nodes, weights) of gauss_jacobi's n-point rule for p, one rule at a
    time: the loop the package ran before it built rules in stacks.  Its
    batched builder must match this bit for bit."""
    a, b = as_params(p).a, as_params(p).b
    d, e = jacobi_matrix(a, b, n)
    x = eigh_tridiagonal(d, e[1:n], eigvals_only=True)
    Q_prev, Q = np.zeros((2, n)), np.zeros((2, n))
    Q[0] = _mu0(a, b) ** -0.5
    sums = np.zeros((2, n))
    for k in range(n):
        sums += Q[0] * Q
        Q_next = (x - d[k]) * Q - e[k] * Q_prev
        Q_next[1] += Q[0]
        Q_prev, Q = Q, Q_next / e[k + 1]
    h = Q[0] / Q[1]
    return x - h, 1.0 / (sums[0] - 2.0 * h * sums[1])


def Ghat_table_loop(p, N: int, x) -> np.ndarray:
    """eval_Ghat_table(p, N, x) one table at a time, as the transpose of a
    row-contiguous (N+1, len(x)) array: the loop the package ran before it
    built tables in stacks.  Its batched builder must match this bit for
    bit, strides included."""
    a, b = as_params(p).a, as_params(p).b
    d, e = jacobi_matrix(a, b, N)
    V = np.empty((N + 1, len(x)))
    V[0] = _mu0(a, b) ** -0.5
    if N >= 1:
        V[1] = (x - d[0]) * V[0] / e[1]
    for k in range(1, N):
        V[k + 1] = ((x - d[k]) * V[k] - e[k] * V[k - 1]) / e[k + 1]
    return V.T


def composite_rule_sorted(p, n: int, breaks):
    """(nodes, weights) of assembly.composite_rule as first written: the
    pieces concatenated, then sorted by node with np.argsort.  The package
    must match this bit for bit."""
    p = as_params(p)
    breaks = [float(b) for b in breaks]
    if not all(0.0 < b < 1.0 for b in breaks):
        raise ValueError(f"composite_rule: breaks must lie inside (0,1), got {breaks}")
    breaks = sorted(set(breaks))
    if not breaks:
        rule = gauss_jacobi(p, n)
        return rule.nodes, rule.weights
    a, b = p.a, p.b
    edges = [0.0] + breaks + [1.0]
    left_rule = gauss_jacobi(JacobiParams(0.0, b), n)
    right_rule = gauss_jacobi(JacobiParams(a, 0.0), n)
    mid_rule = gauss_jacobi(JacobiParams(0.0, 0.0), n)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        h = hi - lo
        if lo == 0.0:
            x = h * left_rule.nodes
            w = h ** (b + 1.0) * left_rule.weights * (1.0 - x) ** a
        elif hi == 1.0:
            x = 1.0 - h * (1.0 - right_rule.nodes)
            w = h ** (a + 1.0) * right_rule.weights * x ** b
        else:
            x = lo + h * mid_rule.nodes
            w = h * mid_rule.weights * (1.0 - x) ** a * x ** b
        nodes.append(x)
        weights.append(w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    # stable, so tied nodes keep their piece order on every CPU: numpy's
    # default sort orders ties by its SIMD path
    order = np.argsort(nodes, kind="stable")
    return nodes[order], weights[order]


def factor_checked(A):
    """linsolve.factor as first written: a finiteness pass, then max|A|,
    scipy's checked lu_factor and np.linalg.norm(A, 1), each on its own.
    The package's single pass over |A| must match this bit for bit and
    raise the same errors."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    amax = float(np.max(np.abs(A))) if A.size else 0.0
    with warnings.catch_warnings():
        # scipy warns on exact singularity; the pivot check below reports it
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(A)
    pivots = np.abs(np.diag(lu))
    bad = np.nonzero(pivots < 1e-14 * amax)[0] if amax > 0 else np.arange(A.shape[0])
    if bad.size:
        i = int(bad[0])
        raise SingularMatrixError(
            f"matrix is singular to working precision: pivot {i} has magnitude "
            f"{pivots[i] if amax > 0 else 0.0:.3e} (threshold {1e-14 * amax:.3e})"
        )
    return lu, piv, amax, float(np.linalg.norm(A, 1))


def lu_solve_checked(factors, rhs):
    """linsolve.lu_solve as first written: scipy's checked lu_solve and
    max|U| through np.triu."""
    lu, piv, amax, _ = factors
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (lu.shape[0],):
        raise ValueError(
            f"rhs length {rhs.shape} does not match matrix order {lu.shape[0]}"
        )
    x = scipy.linalg.lu_solve((lu, piv), rhs)
    umax = float(np.max(np.abs(np.triu(lu))))
    return x, amax / umax


def condition_checked(factors):
    """linsolve.condition_estimate as first written (LAPACK gecon)."""
    lu, _, _, anorm = factors
    rcond, info = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
    if info != 0:
        raise RuntimeError(f"condition estimate failed with LAPACK info {info}")
    return float("inf") if rcond == 0.0 else 1.0 / float(rcond)


def relative_residual(A, x, rhs):
    """solver.solve's relative residual as first written:
    ||A x - rhs||_inf / (||A||_inf ||x||_inf) through np.linalg.norm."""
    res = A @ x - rhs
    denom = float(np.linalg.norm(A, np.inf) * np.linalg.norm(x, np.inf))
    return float(np.linalg.norm(res, np.inf) / denom) if denom > 0 else 0.0


def convergence_rows_first_form(spec, Ns, N_ref: int):
    """(rows, predicted) of experiments.run_convergence at s_f = inf as
    first written: the system assembled once at N_ref, each leading block
    solved by scipy.linalg.lu_factor and lu_solve, each error the Sobolev
    norm of the zero-padded difference, each rate ln(e1/e2)/ln(N2/N1), and
    the predicted rates from the regularity ceiling, with b taken as zero
    when it samples to zero on a grid.  The package must match this bit for
    bit."""
    system = assemble_system(replace(spec, N=N_ref))
    A, rhs = system.matrix, system.rhs

    def phi(N):
        return scipy.linalg.lu_solve(scipy.linalg.lu_factor(A[: N + 1, : N + 1]), rhs[: N + 1])

    phi_ref = phi(N_ref)
    errs = []
    for N in Ns:
        diff = np.zeros(N_ref + 1)
        diff[: N_ref + 1] += phi_ref
        diff[: N + 1] -= phi(N)
        j = np.arange(diff.size)
        errs.append([float(np.sqrt(np.sum((1.0 + j * j) ** s * diff ** 2))) for s in (0.0, 1.0)])
    rows = []
    for i, (N, (e0, e1)) in enumerate(zip(Ns, errs)):
        if i == 0:
            rows.append((N, e0, None, e1, None))
            continue
        Np, (e0p, e1p) = Ns[i - 1], errs[i - 1]
        r0, r1 = (
            math.log(ep / e) / math.log(N / Np) if ep > 0.0 and e > 0.0 else None
            for ep, e in ((e0p, e0), (e1p, e1))
        )
        rows.append((N, e0, r0, e1, r1))
    a, b = spec.fp.alpha, spec.fp.beta
    b_zero = not np.any(sample(spec.b, np.linspace(0.0, 1.0, 257)[1:-1]))
    shift = 1.0 if b_zero else -1.0
    s_tilde = min(a + (a - b) + shift, a + b + shift)
    second = s_tilde + a - 1.0 if spec.variant == "acute" else s_tilde + 1.0
    return tuple(rows), (s_tilde + a, second)
