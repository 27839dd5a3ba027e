"""Scalar special functions: log-gamma and the Euler beta integral.

These underpin the Jacobi weight's total mass, the eigen-coefficients mu_k, and
quadrature moments.  All Gamma-ratios elsewhere in the package
go through log space so that ratios like Gamma(k+alpha)/Gamma(k+1) never
form large intermediates.
"""

import math


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma: argument must be positive, got {x}")
    return math.lgamma(x)


def beta(a: float, b: float) -> float:
    """Euler beta B(a,b) = Gamma(a)Gamma(b)/Gamma(a+b), the zeroth moment
    of the Jacobi weight (1-x)^(a-1) x^(b-1) on (0,1).

    Computed in log space; symmetric in (a, b) by construction.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"beta: arguments must be positive, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
