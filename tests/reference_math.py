"""Closed forms and identity checks that the tests hold the package to.

The package itself never calls these: they are the independent side of a
comparison (Jacobi values and derivatives, the Gamma function, the inverse
map beta -> r and the sigma_k sequence), so they live next to the tests.
"""

from __future__ import annotations

import math

from fracspec.fracparams import FracParams, _denominator
from fracspec.jacobi import JacobiParams, as_params, eval_G_table
from fracspec.specfun import log_gamma


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
