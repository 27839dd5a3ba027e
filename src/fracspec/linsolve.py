"""Dense direct linear algebra for the spectral systems.

Matrices are plain row-major numpy arrays.  A system is (N+1)x(N+1), up
to 2049x2049 at the CLI's MAX_DEGREE of 2048, and dense: a variable
coefficient couples every test polynomial to every trial one, so there is
nothing to gain from sparsity.  Factorization is LU with partial
pivoting; a pivot smaller than 1e-14 times the largest entry of A is
treated as singular and reported with its index.  One factor() serves
both the solve and the condition estimate, and each check runs once:
factor() reads max|A| (non-finite exactly when an entry is, so it is the
finiteness check) and ||A||_1 from one |A| and hands getrf checked data;
lu_solve() checks the rhs and calls LAPACK's getrs itself, the one call
that scipy.linalg.lu_solve makes after its batch and dtype dispatch, so
the solution has the same bits without that wrapper's cost; it reads
max|U| with LAPACK's lantr.  solver.solve calls factor() and takes
||A||_inf.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg


class SingularMatrixError(RuntimeError):
    """Matrix is singular to working precision; names the failing pivot."""


def factor(A) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Checked LU factorization of the square matrix A.

    Returns (lu, piv, max|A|, ||A||_1), where lu and piv are the packed
    factors and pivot indices of scipy.linalg.lu_factor.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    absA = np.abs(A)
    # initial=0 as in np.linalg.norm, so an empty A has max|A| = 0
    amax = float(absA.max(initial=0.0))
    if not math.isfinite(amax):
        raise ValueError("matrix entries must be finite")
    with warnings.catch_warnings():
        # scipy warns on exact singularity; the pivot check below reports it
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.abs(lu.diagonal())
    bad = np.nonzero(pivots < 1e-14 * amax)[0] if amax > 0 else np.arange(A.shape[0])
    if bad.size:
        i = int(bad[0])
        raise SingularMatrixError(
            f"matrix is singular to working precision: pivot {i} has magnitude "
            f"{pivots[i] if amax > 0 else 0.0:.3e} (threshold {1e-14 * amax:.3e})"
        )
    return lu, piv, amax, float(absA.sum(axis=0).max(initial=0.0))


def lu_solve(factors, rhs) -> tuple[np.ndarray, float]:
    """Solve A x = rhs with the factors of A from factor().

    Returns the solution together with the reciprocal pivot-growth ratio
    max|A| / max|U|; values near 1 indicate a benign elimination.
    """
    lu, piv, amax, _ = factors
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (lu.shape[0],):
        raise ValueError(
            f"rhs length {rhs.shape} does not match matrix order {lu.shape[0]}"
        )
    if not math.isfinite(np.abs(rhs).max()):
        raise ValueError("rhs entries must be finite")
    x, info = scipy.linalg.lapack.dgetrs(lu, piv, rhs)
    if info != 0:
        raise RuntimeError(f"triangular solve failed with LAPACK info {info}")
    return x, amax / scipy.linalg.lapack.dlantr("M", lu)


def condition_estimate(factors) -> float:
    """1-norm condition number estimate from the factors of A from factor()
    (LAPACK gecon)."""
    lu, _, _, anorm = factors
    rcond, info = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
    if info != 0:
        raise RuntimeError(f"condition estimate failed with LAPACK info {info}")
    return float("inf") if rcond == 0.0 else 1.0 / float(rcond)
