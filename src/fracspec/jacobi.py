"""Orthonormal shifted Jacobi polynomials on (0,1) and Gauss-Jacobi
quadrature, both from one Jacobi matrix.

Ghat_n^{(a,b)} is G_n^{(a,b)}(x) = P_n^{(a,b)}(2x-1) scaled to unit norm
under omega^{(a,b)}(x) = (1-x)^a x^b, with a positive leading coefficient.
These are the orthonormal polynomials of the weight, so they satisfy

    e_{k+1} p_{k+1}(x) = (x - d_k) p_k(x) - e_k p_{k-1}(x),
    p_0 = mu0^(-1/2),  mu0 = B(a+1, b+1),

where d_k and e_k are the entries of the symmetric tridiagonal Jacobi
matrix of the weight.  The tables run this recurrence; the rules take
their nodes from the matrix's eigenvalues and their weights from the same
recurrence (Golub & Welsch 1969; Gautschi, Orthogonal Polynomials, 2004).
Both are memoised per process in one byte-bounded memo.
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal


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


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.  Every Gamma ratio in the package
    goes through it, so that ratios like Gamma(k+alpha)/Gamma(k+1) never
    form large intermediates."""
    if x <= 0:
        raise ValueError(f"log_gamma: argument must be positive, got {x}")
    return math.lgamma(x)


def _jacobi_matrix(a: float, b: float, n: int):
    """Recurrence coefficients of the orthonormal polynomials for
    omega^{(a,b)} on (0,1): d[k] = d_k for 0 <= k < n and e[k] = e_k for
    1 <= k <= n, with e[0] = 0.

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


def _mu0(a: float, b: float) -> float:
    """Total mass B(a+1, b+1) of omega^{(a,b)} on (0,1)."""
    return math.exp(log_gamma(a + 1.0) + log_gamma(b + 1.0) - log_gamma(a + b + 2.0))


def eval_Ghat_table(p, N: int, x) -> np.ndarray:
    """Orthonormal values Ghat_n^{(a,b)}(x) = G_n / ||G_n|| for all n = 0..N.

    Parameters
    ----------
    p : JacobiParams or (a, b) pair
    N : highest degree, an integer at least 0
    x : scalar or 1-D array of points in [0, 1]

    Returns
    -------
    read-only ndarray of shape (len(x), N+1), column n holding Ghat_n at the
    points.

    Tables are kept in the memo (_Memo) by the exact exponents, N and the
    bytes of x, so a hit returns the very array an earlier call built.
    """
    p = as_params(p)
    N = operator.index(N)
    if N < 0:
        raise ValueError(f"eval_Ghat_table: need degree N >= 0, got N={N}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise ValueError(f"eval_Ghat_table: points must form a 1-D array, got shape {x.shape}")
    # the table and the key's copy of the points
    return _memo.get((p, N, x.tobytes()), (N + 2) * x.nbytes, lambda: _table(p, N, x))


def _table(p: JacobiParams, N: int, x: np.ndarray) -> np.ndarray:
    d, e = _jacobi_matrix(p.a, p.b, N)
    V = np.empty((N + 1, x.size))
    V[0] = _mu0(p.a, p.b) ** -0.5
    if N >= 1:
        V[1] = (x - d[0]) * V[0] / e[1]
    for k in range(1, N):
        V[k + 1] = ((x - d[k]) * V[k] - e[k] * V[k - 1]) / e[k + 1]
    # every caller that hits the memo shares V, so it is read-only, and
    # so is its transpose, a view
    V.flags.writeable = False
    return V.T


class _Memo:
    """The rules of gauss_jacobi and the tables of eval_Ghat_table, least
    recently used first, under one budget of _MEMO_BYTES (2 MiB) in all.

    Each entry is charged the bytes of its arrays that its builder names,
    plus _ENTRY_BYTES for the Python objects around them.  A miss builds the
    entry and evicts the oldest entries until the total fits the budget
    again, so rules and tables together never hold more than 2 MiB.  An
    entry whose charge alone exceeds the budget (a 10001-point output grid
    at N = 40) is built and returned but never kept.  Every caller shares
    what the memo keeps, so the builders return read-only arrays.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries = OrderedDict()  # key -> (object, charge)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, nbytes: int, build):
        """The object kept under key, else build() kept at a charge of
        nbytes + _ENTRY_BYTES if that fits the budget."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry[0]
        obj = build()
        charge = nbytes + _ENTRY_BYTES
        if charge <= self.budget:
            self._entries[key] = (obj, charge)
            self.nbytes += charge
            while self.nbytes > self.budget:
                _, (_, old) = self._entries.popitem(last=False)
                self.nbytes -= old
        return obj

    def clear(self):
        self._entries.clear()
        self.nbytes = 0


# a convergence study of the paper's cases keeps 10 rules and 14 tables
# (0.3 MB), and a 16-entry jump/smooth compare catalogue 10 rules and 39
# tables (1.5 MB): both stay in the memo
_MEMO_BYTES = 2 << 20
# the key tuple, its bytes, the array headers and the dict slot of a table
# measure about 620 bytes per entry under tracemalloc
_ENTRY_BYTES = 1024
_memo = _Memo(_MEMO_BYTES)


def gauss_jacobi(p, n: int) -> QuadratureRule:
    """n-point Gauss-Jacobi rule for the weight omega^{(a,b)} on (0,1).

    Golub-Welsch: the nodes are the eigenvalues of the n x n Jacobi matrix.
    One pass of the recurrence for (p_k, p_k') at those nodes gives the
    Newton step h = p_n / p_n' that polishes them, and the Christoffel
    weights 1 / S with S = sum_{k<n} p_k^2.  S is carried to the polished
    nodes to first order through S' = 2 sum_{k<n} p_k p_k': near an
    endpoint whose exponent nears -1 the largest weight is sensitive to the
    rounding of its node.  A nonpositive or non-finite weight raises
    QuadratureError.  Rules are kept in the memo (_Memo) by the exact
    exponents and n, so a hit returns the very rule an earlier call built.
    """
    p = as_params(p)
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"gauss_jacobi: need at least one point, got n={n}")
    # nodes and weights, 8 bytes each per point
    return _memo.get((p, n), 16 * n, lambda: _rule(p, n))


def _rule(p: JacobiParams, n: int) -> QuadratureRule:
    a, b = p.a, p.b
    d, e = _jacobi_matrix(a, b, n)
    x = eigh_tridiagonal(d, e[1:n], eigvals_only=True)

    # rows (p_k, p_k') run the same recurrence, with p_k added into the
    # derivative row; sums accumulates (S, S'/2)
    Q_prev, Q = np.zeros((2, n)), np.zeros((2, n))
    Q[0] = _mu0(a, b) ** -0.5
    sums = np.zeros((2, n))
    for k in range(n):
        sums += Q[0] * Q
        Q_next = (x - d[k]) * Q - e[k] * Q_prev
        Q_next[1] += Q[0]
        Q_prev, Q = Q, Q_next / e[k + 1]
    h = Q[0] / Q[1]
    weights = 1.0 / (sums[0] - 2.0 * h * sums[1])
    if not np.all(np.isfinite(weights) & (weights > 0)):
        raise QuadratureError(
            f"gauss_jacobi: nonpositive or non-finite weight for n={n}, (a={a}, b={b})"
        )
    # eigh_tridiagonal returns the eigenvalues in ascending order
    nodes = x - h
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(p, nodes, weights)
