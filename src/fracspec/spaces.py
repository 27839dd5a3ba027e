"""Functions as Jacobi coefficient vectors: weighted projection, Sobolev
norms read off coefficient decay, and pointwise evaluation of u = omega*phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coeffexpr import breaks_of, sample
from .fracparams import FracParams
from .jacobi import JacobiParams, as_params, eval_Ghat_table, gauss_jacobi


@dataclass(frozen=True)
class CoeffVec:
    """Coefficients against the orthonormal basis Ghat_j^{(a,b)}; entry j is
    the coefficient of degree j and the length fixes the truncation."""

    params: JacobiParams
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("CoeffVec: coefficients must form a nonempty vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("CoeffVec: coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


@dataclass(frozen=True)
class WeightSpec:
    """The trial weight omega = (1-x)^(alpha-beta) x^beta, which vanishes at
    0 and 1, and the trial and test basis exponents (the test family swaps
    them)."""

    fp: FracParams

    def __post_init__(self):
        a, b = self.fp.alpha, self.fp.beta
        if not (a - b > 0 and b > 0):
            raise ValueError(
                f"WeightSpec: weight exponents must be positive, got "
                f"alpha-beta={a - b}, beta={b}"
            )

    @property
    def trial_params(self) -> JacobiParams:
        return JacobiParams(self.fp.alpha - self.fp.beta, self.fp.beta)

    @property
    def test_params(self) -> JacobiParams:
        return JacobiParams(self.fp.beta, self.fp.alpha - self.fp.beta)

    def omega(self, x):
        a, b = self.fp.alpha - self.fp.beta, self.fp.beta
        x = np.asarray(x, dtype=float)
        return (1.0 - x) ** a * x ** b


def _params_close(p: JacobiParams, q: JacobiParams) -> bool:
    # basis families produced from solved parameters carry bisection-level
    # noise, so matching is tolerant rather than bitwise
    return abs(p.a - q.a) <= 1e-12 and abs(p.b - q.b) <= 1e-12


def project(f, p, N: int, quad_points: int) -> CoeffVec:
    """Weighted-L2 orthogonal projection of f onto degrees 0..N.

    Coefficient j is (f, Ghat_j)_{omega^{(a,b)}}, computed with a
    quad_points Gauss-Jacobi rule; if f reports breakpoints the rule splits
    at them.  Exact (to roundoff) for polynomial f of degree <= N once
    quad_points >= N+1.
    """
    p = as_params(p)
    if quad_points < N + 1:
        raise ValueError(
            f"project: need quad_points >= N+1, got {quad_points} for N={N}"
        )
    breaks = breaks_of(f)
    if breaks:
        from .assembly import composite_rule

        rule = composite_rule(p, quad_points, breaks)
    else:
        rule = gauss_jacobi(p, quad_points)
    V = eval_Ghat_table(p, N, rule.nodes)
    return CoeffVec(p, V.T @ (rule.weights * sample(f, rule.nodes)))


def sobolev_norm(v: CoeffVec, s: float) -> float:
    """sqrt(sum_j (1+j^2)^s v_j^2); s=0 is the weighted L2 norm (Parseval)."""
    if s < 0:
        raise ValueError(f"sobolev_norm: order must be nonnegative, got {s}")
    j = np.arange(v.coeffs.size)
    return float(np.sqrt(np.sum((1.0 + j * j) ** s * v.coeffs ** 2)))


def eval_solution(phis: Sequence[CoeffVec], w: WeightSpec, x) -> list:
    """u(x) = omega(x) * sum_j phi_j Ghat_j^{(alpha-beta,beta)}(x) for each
    expansion in phis, which share one degree: one u per entry from a single
    basis table and omega on x.  Each u is its own table-vector product, so
    it rounds as it would alone; for scalar x each u is a float.  The weight
    vanishes at both endpoints, so u(0) = u(1) = 0 exactly.
    """
    for p in phis:
        if not _params_close(p.params, w.trial_params):
            raise ValueError(
                f"eval_solution: coefficients use basis {p.params}, expected "
                f"{w.trial_params}"
            )
    degree = phis[0].degree
    if any(p.degree != degree for p in phis):
        raise ValueError(
            f"eval_solution: expansions must share one degree, got "
            f"{[p.degree for p in phis]}"
        )
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    V = eval_Ghat_table(phis[0].params, degree, xs)
    om = w.omega(xs)
    us = [om * (V @ p.coeffs) for p in phis]
    return [float(u[0]) for u in us] if scalar else us


def error_norms(
    phi_ref: CoeffVec, phi_N: CoeffVec, mu_list: Sequence[float]
) -> list[float]:
    """Sobolev norms of phi_ref - phi_N for each order in mu_list.

    The shorter vector is zero-padded, so a truncated solution is compared
    against a longer reference directly.  mu=0 gives the quantity equal to
    the omega^{-1}-weighted L2 error of u itself; mu=1 is the energy-norm
    surrogate.
    """
    if not _params_close(phi_ref.params, phi_N.params):
        raise ValueError(
            f"error_norms: basis mismatch, {phi_ref.params} vs {phi_N.params}"
        )
    n = max(phi_ref.coeffs.size, phi_N.coeffs.size)
    a = np.zeros(n)
    a[: phi_ref.coeffs.size] = phi_ref.coeffs
    b = np.zeros(n)
    b[: phi_N.coeffs.size] = phi_N.coeffs
    diff = CoeffVec(phi_ref.params, a - b)
    return [sobolev_norm(diff, mu) for mu in mu_list]
