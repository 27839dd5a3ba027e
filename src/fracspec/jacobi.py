"""Shifted Jacobi polynomials G_n^{(a,b)}(x) = P_n^{(a,b)}(2x-1) on (0,1):
evaluation, weighted norms, and Gauss-Jacobi quadrature.

Conventions fixed here once and frozen by the finite-difference tests:
all identities are stated on (0,1), where the chain-rule factor 2 of the
shift cancels the 1/2 in the t-derivative formula, so

    d/dx G_n^{(a,b)}(x) = (n+a+b+1) G_{n-1}^{(a+1,b+1)}(x)

holds with no residual power of 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .specfun import log_gamma


class QuadratureError(RuntimeError):
    """A Gauss-Jacobi rule came out with a nonpositive or non-finite weight."""


@dataclass(frozen=True)
class JacobiParams:
    """Weight exponents: omega^{(a,b)}(x) = (1-x)^a x^b on (0,1)."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > -1 and self.b > -1):
            raise ValueError(
                f"JacobiParams: exponents must exceed -1 for an integrable "
                f"weight, got (a={self.a}, b={self.b})"
            )


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights integrating f against omega^{(a,b)} on (0,1):
    integral ~= sum(weights * f(nodes))."""

    params: JacobiParams
    nodes: np.ndarray
    weights: np.ndarray


def as_params(p) -> JacobiParams:
    if isinstance(p, JacobiParams):
        return p
    a, b = p
    return JacobiParams(float(a), float(b))


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


def eval_Ghat_table(p, N: int, x) -> np.ndarray:
    """Orthonormal values: column n is G_n / ||G_n||."""
    p = as_params(p)
    V = eval_G_table(p, N, x)
    norms = np.array([norm_G(p, j) for j in range(N + 1)])
    return V / norms


def _P_and_wdP(n: int, a: float, b: float, t: np.ndarray):
    """P_n^{(a,b)}(t) and (1-t^2) P_n'(t) on [-1,1] for n >= 1, from one
    recurrence pass for P_n and P_{n-1} and the identity

        (2n+a+b)(1-t^2) P_n' = n(a-b-(2n+a+b)t) P_n + 2(n+a)(n+b) P_{n-1}.
    """
    Pm1 = np.ones_like(t)
    P = 0.5 * ((a + b + 2.0) * t + a - b)
    for m in range(1, n):
        a1, a2, a3, a4 = _recurrence_step(m, a, b)
        P, Pm1 = ((a2 + a3 * t) * P - a4 * Pm1) / a1, P
    c = 2 * n + a + b
    return P, (n * (a - b - c * t) * P + 2.0 * (n + a) * (n + b) * Pm1) / c


def gauss_jacobi(p, n: int) -> QuadratureRule:
    """n-point Gauss-Jacobi rule for the weight omega^{(a,b)} on (0,1).

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the monic recurrence for P_n^{(a,b)} on [-1,1], polished
    together by one Newton step on the three-term recurrence and mapped to
    (0,1).  Weights come from the classical formula through log-gamma, with
    P_n' recomputed at the polished nodes; a nonpositive or non-finite
    weight raises QuadratureError.
    """
    p = as_params(p)
    a, b = p.a, p.b
    if n < 1:
        raise ValueError(f"gauss_jacobi: need at least one point, got n={n}")

    # Jacobi matrix: diagonal d_k and squared off-diagonal e_k^2 of the monic
    # recurrence.  d_0 and e_1^2 are written in closed form, because the
    # general entries divide by a+b and by 1+a+b there.
    s = a + b
    k = np.arange(1.0, n)
    diag = np.empty(n)
    diag[0] = (b - a) / (s + 2.0)
    diag[1:] = (b * b - a * a) / ((2 * k + s) * (2 * k + s + 2))
    k = k[1:]
    off2 = np.empty(n - 1)
    off2[:1] = 4.0 * (1 + a) * (1 + b) / ((s + 2) ** 2 * (s + 3))
    off2[1:] = (
        4.0 * k * (k + a) * (k + b) * (k + s)
        / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1))
    )
    t = eigh_tridiagonal(diag, np.sqrt(off2), eigvals_only=True)

    P, wdP = _P_and_wdP(n, a, b, t)
    t = t - (1.0 - t * t) * P / wdP
    _, wdP = _P_and_wdP(n, a, b, t)
    lw = (
        log_gamma(n + a + 1)
        + log_gamma(n + b + 1)
        - log_gamma(n + 1.0)
        - log_gamma(n + a + b + 1)
    )
    # Gamma-ratio / ((1-t^2) P_n'^2), written through (1-t^2) P_n'
    weights = math.exp(lw) * (1.0 - t * t) / wdP ** 2
    if not np.all(np.isfinite(weights) & (weights > 0)):
        raise QuadratureError(
            f"gauss_jacobi: nonpositive or non-finite weight for n={n}, (a={a}, b={b})"
        )
    # eigh_tridiagonal returns the eigenvalues in ascending order
    return QuadratureRule(p, 0.5 * (t + 1.0), weights)
