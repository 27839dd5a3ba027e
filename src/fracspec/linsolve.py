"""Dense direct linear algebra for the spectral systems.

Matrices are plain row-major numpy arrays.  A system is (N+1)x(N+1), up
to 2049x2049 at the CLI's MAX_DEGREE of 2048, and dense: a variable
coefficient couples every test polynomial to every trial one, so there is
nothing to gain from sparsity.  Factorization is LU with partial
pivoting; a pivot smaller than 1e-14 times the largest entry of A is
treated as singular and reported with its index.  One factor() serves
both the solve and the condition estimate, and the solve path checks
each of its arrays once:
- factor() checks A: max|A| (non-finite exactly when an entry is, so it
  is the finiteness check) and ||A||_1 come from one |A|, getrf gets
  checked data, and the failing pivot's index is looked up only when a
  pivot falls below the threshold;
- lu_solve() checks the rhs and calls LAPACK's getrs itself, the one call
  that scipy.linalg.lu_solve makes after its batch and dtype dispatch, so
  the solution has the same bits without that wrapper's cost; it reads
  max|U| with LAPACK's lantr;
- solver.solve checks the solution: the max|phi| of its residual is also
  phi's finiteness check.
The reductions are ufunc reduces (np.maximum.reduce, np.add.reduce), the
same sums and maxima as the ndarray methods without their Python-level
wrappers.
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
    amax = float(np.maximum.reduce(absA, axis=None, initial=0.0))
    if not math.isfinite(amax):
        raise ValueError("matrix entries must be finite")
    with warnings.catch_warnings():
        # scipy warns on exact singularity; the pivot check below reports it
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.abs(lu.diagonal())
    threshold = 1e-14 * amax
    small = pivots < threshold
    # a zero A has threshold 0, which no pivot falls below: it fails at pivot 0
    if pivots.size and (amax == 0.0 or np.logical_or.reduce(small)):
        i = int(np.argmax(small))
        raise SingularMatrixError(
            f"matrix is singular to working precision: pivot {i} has magnitude "
            f"{pivots[i]:.3e} (threshold {threshold:.3e})"
        )
    anorm = np.maximum.reduce(np.add.reduce(absA, axis=0), initial=0.0)
    return lu, piv, amax, float(anorm)


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
    if not math.isfinite(np.maximum.reduce(np.abs(rhs))):
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
