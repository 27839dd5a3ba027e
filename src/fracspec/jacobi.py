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
"""

from __future__ import annotations

import functools
import math
import operator
from collections import OrderedDict
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

    Tables are memoised per process by the exact exponents, N and the bytes
    of x, so a hit returns the very array an earlier call built and every
    caller shares it.  The memo holds at most _TABLE_MEMO_BYTES (2 MiB) in
    all: each table is charged its own bytes, its points' bytes and
    _TABLE_ENTRY_BYTES for the Python objects around them, and the least
    recently used tables go first.  A table whose charge alone exceeds the
    budget (a 10001-point output grid at N = 40) is built and returned but
    never kept.
    """
    p = as_params(p)
    N = operator.index(N)
    if N < 0:
        raise ValueError(f"eval_Ghat_table: need degree N >= 0, got N={N}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise ValueError(f"eval_Ghat_table: points must form a 1-D array, got shape {x.shape}")
    charge = (N + 2) * x.nbytes + _TABLE_ENTRY_BYTES
    if charge > _TABLE_MEMO_BYTES:
        return _table(p, N, x)
    key = (p, N, x.tobytes())
    table = _tables.get(key)
    if table is None:
        table = _table(p, N, x)
        _tables.put(key, table, charge)
    return table


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


class _TableMemo:
    """Least recently used tables under a byte budget; put charges each
    entry the bytes its caller names and evicts the oldest entries until
    the total is back within the budget."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries = OrderedDict()  # key -> (table, charge)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key, table, charge: int):
        self._entries[key] = (table, charge)
        self.nbytes += charge
        while self.nbytes > self.budget:
            _, (_, old) = self._entries.popitem(last=False)
            self.nbytes -= old

    def clear(self):
        self._entries.clear()
        self.nbytes = 0


# a convergence study of the paper's cases pairs its blocks with 14
# distinct tables (0.3 MB), and a 16-entry jump/smooth compare catalogue
# with 39 (1.5 MB): both stay in the memo
_TABLE_MEMO_BYTES = 2 << 20
# the key tuple, its bytes, the array headers and the dict slot measure
# about 620 bytes per entry under tracemalloc
_TABLE_ENTRY_BYTES = 1024
_tables = _TableMemo(_TABLE_MEMO_BYTES)


def gauss_jacobi(p, n: int) -> QuadratureRule:
    """n-point Gauss-Jacobi rule for the weight omega^{(a,b)} on (0,1).

    Golub-Welsch: the nodes are the eigenvalues of the n x n Jacobi matrix.
    One pass of the recurrence for (p_k, p_k') at those nodes gives the
    Newton step h = p_n / p_n' that polishes them, and the Christoffel
    weights 1 / S with S = sum_{k<n} p_k^2.  S is carried to the polished
    nodes to first order through S' = 2 sum_{k<n} p_k p_k': near an
    endpoint whose exponent nears -1 the largest weight is sensitive to the
    rounding of its node.  A nonpositive or non-finite weight raises
    QuadratureError.  Rules are memoised per process by the exact exponents
    and n, the last _RULE_CACHE_SIZE of them (4 MB at 4096 points each),
    so their arrays are read-only: every caller shares them.
    """
    p = as_params(p)
    if n < 1:
        raise ValueError(f"gauss_jacobi: need at least one point, got n={n}")
    return _rule(p, operator.index(n))


_RULE_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
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
