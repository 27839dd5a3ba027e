"""Orthonormal shifted Jacobi polynomials on (0,1) and Gauss-Jacobi
quadrature, both from one Jacobi matrix.

Ghat_n^{(a,b)} is G_n^{(a,b)}(x) = P_n^{(a,b)}(2x-1) scaled to unit norm
under omega^{(a,b)}(x) = (1-x)^a x^b, with a positive leading coefficient.
These are the orthonormal polynomials of the weight, so they satisfy

    e_{k+1} p_{k+1}(x) = (x - d_k) p_k(x) - e_k p_{k-1}(x),
    p_0 = mu0^(-1/2),  mu0 = B(a+1, b+1),

where d_k and e_k are the entries of the symmetric tridiagonal Jacobi
matrix of the weight.  The tables run this recurrence; the rules take
their nodes from the matrix's eigenvalues (LAPACK dstevd) and their
weights from the same recurrence (Golub & Welsch 1969; Gautschi,
Orthogonal Polynomials, 2004).  Both build the matrices of a stack of
weights in one pass and run their recurrence over the stack at once, and
both are memoised per process in one byte-bounded memo; prefetch builds
the rules and tables a solve is missing, one stack of each, ahead of it.
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstevd


class QuadratureError(RuntimeError):
    """A Gauss-Jacobi rule came out with a nonpositive or non-finite weight or no nodes."""


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


def as_index(n) -> int:
    """operator.index(n), refusing a bool as it refuses a float."""
    if isinstance(n, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(n)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.  Every Gamma ratio in the package
    goes through it, so that ratios like Gamma(k+alpha)/Gamma(k+1) never
    form large intermediates."""
    if x <= 0:
        raise ValueError(f"log_gamma: argument must be positive, got {x}")
    return math.lgamma(x)


def _jacobi_matrices(ps, n: int):
    """Recurrence coefficients of the orthonormal polynomials for each
    omega^{(a,b)} in ps on (0,1), one row per weight: D[:, k] = d_k for
    0 <= k < n and E[:, k] = e_k for 1 <= k <= n, with E[:, 0] = 0.

    d_0 and e_1 are written in closed form, because the general entries
    divide by a+b and by 1+a+b there.
    """
    a, b = np.array([(p.a, p.b) for p in ps]).T[:, :, None]
    s = a + b
    D, E = np.empty((len(ps), n)), np.zeros((len(ps), n + 1))
    D[:, :1] = (b + 1.0) / (s + 2.0)
    # e_1 in Python floats, whose ** is pow, not numpy's square
    E[:, 1:2] = [[math.sqrt((1.0 + p.a) * (1.0 + p.b) / ((t + 2.0) ** 2 * (t + 3.0)))]
                 for p, t in zip(ps, s.ravel().tolist())]
    c = 2.0 * np.arange(1.0, n) + s
    D[:, 1:] = 0.5 + 0.5 * (b * b - a * a) / (c * (c + 2.0))
    k = np.arange(2.0, n + 1)
    c = 2.0 * k + s
    E[:, 2:] = np.sqrt(k * (k + a) * (k + b) * (k + s) / (c * c * (c + 1.0) * (c - 1.0)))
    return D, E


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
    N = as_index(N)
    if N < 0:
        raise ValueError(f"eval_Ghat_table: need degree N >= 0, got N={N}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise ValueError(f"eval_Ghat_table: points must form a 1-D array, got shape {x.shape}")
    # the table and the key's copy of the points
    return _memo.get((p, N, x.tobytes()), (N + 2) * x.nbytes, lambda: _tables([(p, N, x)])[0])


def _tables(jobs) -> list:
    """The tables of eval_Ghat_table for jobs [(p, N, x), ...] on points of
    one length, from one recurrence over the jobs' stacked rows; rows past a
    job's N run on with its own d_k and e_k and are dropped.  Each table is
    the transpose of a row-contiguous array, a copy of its rows when there
    are several jobs, so products with it round alike however it was built."""
    m, K = len(jobs), max(N for _, N, _ in jobs)
    D, E = _jacobi_matrices([p for p, _, _ in jobs], K)
    X, d, e = np.stack([x for _, _, x in jobs]), D.T[:, :, None], E.T[:, :, None]
    V = np.empty((m, K + 1, X.shape[1]))
    W = V.transpose(1, 0, 2)  # W[k] is degree k of every job
    W[K] = 0.0  # read as W[-1] = p_{-1} by step k = 0
    W[0] = [[_mu0(p.a, p.b) ** -0.5] for p, _, _ in jobs]
    for k in range(K):
        step = X - d[k]
        step *= W[k]
        step -= e[k] * W[k - 1]
        np.divide(step, e[k + 1], out=W[k + 1])
    # every caller that hits the memo shares a table, so it is read-only,
    # and so is its transpose, a view
    tables = [V[0]] if m == 1 else [V[i, : N + 1].copy() for i, (_, N, _) in enumerate(jobs)]
    for T in tables:
        T.flags.writeable = False
    return [T.T for T in tables]


class _Memo:
    """The rules of gauss_jacobi and the tables of eval_Ghat_table, least
    recently used first, under one budget of _MEMO_BYTES (2 MiB) in all.

    Each entry is charged the bytes of its arrays that its builder names,
    plus _ENTRY_BYTES for the Python objects around them.  Keeping an entry
    evicts the oldest entries until the total fits the budget again, so
    rules and tables together never hold more than 2 MiB.  An entry whose
    charge alone exceeds the budget (a 10001-point output grid at N = 40)
    is built and returned but never kept.  Every caller shares what the
    memo keeps, so the builders return read-only arrays.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries = OrderedDict()  # key -> (object, charge)

    def __len__(self) -> int:
        return len(self._entries)

    def peek(self, key):
        """The object kept under key, else None; the order stays as it is."""
        entry = self._entries.get(key)
        return entry and entry[0]

    def get(self, key, nbytes: int, build):
        """The object kept under key, now the most recent, else put build()."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry[0]
        return self.put(key, build(), nbytes)

    def put(self, key, obj, nbytes: int):
        """obj, kept under a new key at a charge of nbytes + _ENTRY_BYTES if
        that fits the budget."""
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
    n = as_index(n)
    if n < 1:
        raise ValueError(f"gauss_jacobi: need at least one point, got n={n}")
    # nodes and weights, 8 bytes each per point
    return _memo.get((p, n), 16 * n, lambda: _rules([p], n)[0])


def _rules(ps, n: int) -> list:
    """The n-point rules of gauss_jacobi for the weights ps, from one pass
    of the recurrence over the stacked rules; each rule owns its arrays."""
    D, E = _jacobi_matrices(ps, n)
    X = D.copy()  # the nodes: a 1 x 1 matrix's eigenvalue is its d_0
    for i, p in enumerate(ps) if n > 1 else ():
        X[i], _, info = dstevd(D[i], E[i, 1:n], compute_v=0)
        if info:
            raise QuadratureError(f"gauss_jacobi: LAPACK dstevd failed with info={info} "
                                  f"for n={n}, (a={p.a}, b={p.b})")
    # rows (p_k, p_k') of each rule run the same recurrence, with p_k added
    # into the derivative row; sums accumulates (S, S'/2)
    Q_prev, Q, sums = np.zeros((3, 2, len(ps), n))
    Q[0] = [[_mu0(p.a, p.b) ** -0.5] for p in ps]
    # X - d_k for `rows` steps at a time, at most 8 MiB however large n is
    e, rows = E.T[:, :, None], max(1, (1 << 20) // X.size)
    for k in range(n):
        if k % rows == 0:
            X_d = X - D.T[k : k + rows, :, None]
        sums += Q[0] * Q
        Q_next = X_d[k % rows] * Q - e[k] * Q_prev
        Q_next[1] += Q[0]
        Q_prev, Q = Q, Q_next / e[k + 1]
    rules = []
    for p, x, h, S, dS in zip(ps, X, Q[0] / Q[1], *sums):
        weights = 1.0 / (S - 2.0 * h * dS)
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise QuadratureError(
                f"gauss_jacobi: nonpositive or non-finite weight for n={n}, "
                f"(a={p.a}, b={p.b})"
            )
        # dstevd returns the eigenvalues in ascending order
        nodes = x - h
        nodes.flags.writeable = weights.flags.writeable = False
        rules.append(QuadratureRule(p, nodes, weights))
    return rules


def prefetch(n: int, blocks) -> None:
    """Build into the memo, for blocks [(p, [(family, N), ...]), ...], the
    n-point rule of each weight p and the tables on its nodes: the missing
    rules in one batch, then the missing tables in one more.  Nothing is
    built when every rule is kept (one look-up each, which leaves the order
    alone), nor when the new rules and tables would not all fit the budget,
    where some would be evicted before their block asked, and built twice."""
    rules = {p: _memo.peek((p, n)) for p, _ in blocks}
    missing = [p for p, rule in rules.items() if rule is None]
    if not missing:
        return
    tables = dict.fromkeys((t, N, p) for p, ts in blocks for t, N in ts)
    # each charged as gauss_jacobi and eval_Ghat_table charge it
    sizes = [16 * n] * len(missing) + [(N + 2) * 8 * n for _, N, _ in tables]
    if sum(sizes) + len(sizes) * _ENTRY_BYTES > _memo.budget:
        return
    for p, rule in zip(missing, _rules(missing, n)):
        rules[p] = _memo.put((p, n), rule, 16 * n)
    jobs = [(t, N, rules[p].nodes) for t, N, p in tables]
    jobs = [(t, N, x) for t, N, x in jobs if _memo.peek((t, N, x.tobytes())) is None]
    for (t, N, x), table in zip(jobs, _tables(jobs) if jobs else []):
        _memo.put((t, N, x.tobytes()), table, (N + 2) * x.nbytes)
