"""Functions as Jacobi coefficient vectors: weighted projection, Sobolev
norms read off coefficient decay, and pointwise evaluation of u = omega*phi.

A vector carries its basis (a, b); for a solution's phi that is
FracParams.trial, whose weight (1-x)^a x^b is omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coeffexpr import breaks_of, sample
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
        if not np.isfinite(c).all():
            raise ValueError("CoeffVec: coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _checked(cls, params: JacobiParams, coeffs: np.ndarray) -> "CoeffVec":
        """A vector of a nonempty float vector whose finiteness the caller
        has just checked, built without a second __post_init__."""
        v = object.__new__(cls)
        v.__dict__.update(params=params, coeffs=coeffs)
        return v

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


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
    return _sobolev_norms(v.coeffs, [s])[0]


def _sobolev_norms(c: np.ndarray, orders: Sequence[float]) -> list[float]:
    """sobolev_norm of the coefficients c at each order, with the weights
    1+j^2 and c^2 formed once for all of them.  Orders 0 and 1 read c^2
    and w c^2 without the power, whose bits they are: pow(w, 0) = 1 and
    pow(w, 1) = w exactly."""
    # written so that NaN fails too
    bad = [s for s in orders if not s >= 0]
    if bad:
        raise ValueError(f"sobolev_norm: order must be nonnegative, got {bad[0]}")
    j = np.arange(c.size)
    w, c2 = 1.0 + j * j, c * c
    norms = []
    for s in orders:
        terms = c2 if s == 0 else w * c2 if s == 1 else w ** s * c2
        norms.append(math.sqrt(np.add.reduce(terms)))
    return norms


def eval_solution(phis: Sequence[CoeffVec], x) -> list:
    """u(x) = omega(x) * sum_j phi_j Ghat_j^{(a,b)}(x) for each expansion in
    phis, which share one basis (a, b) and one degree; omega = (1-x)^a x^b
    is the weight of that basis.  One u per entry, all from a single basis
    table and omega on x, and [] for no phis.  Each u is its own
    table-vector product, so it rounds as it would alone; for scalar x each
    u is a float.  For a trial basis omega vanishes at both endpoints, so
    u(0) = u(1) = 0 exactly.  A point outside [0, 1], or NaN, is a
    ValueError.
    """
    if not phis:
        return []
    p, degree = phis[0].params, phis[0].degree
    if any(phi.params != p or phi.degree != degree for phi in phis):
        raise ValueError(
            f"eval_solution: expansions must share one basis and one degree, "
            f"got {[(phi.params, phi.degree) for phi in phis]}"
        )
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    outside = ~((xs >= 0.0) & (xs <= 1.0))
    if outside.any():
        raise ValueError(f"eval_solution: points must lie in [0, 1], got x={xs[outside][0]}")
    V = eval_Ghat_table(p, degree, xs)
    om = (1.0 - xs) ** p.a * xs ** p.b
    us = [om * (V @ phi.coeffs) for phi in phis]
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
    if phi_ref.params != phi_N.params:
        raise ValueError(
            f"error_norms: basis mismatch, {phi_ref.params} vs {phi_N.params}"
        )
    longer, shorter = phi_ref.coeffs, phi_N.coeffs
    if longer.size < shorter.size:
        longer, shorter = shorter, longer
    # the difference of two checked vectors needs no check of its own; the
    # norms read only its squares, so phi_N - phi_ref serves as well
    diff = longer.copy()
    diff[: shorter.size] -= shorter
    return _sobolev_norms(diff, mu_list)
