"""Parameter algebra for the two-sided fractional operator.

Given the order alpha in (1,2) and the directional weight r in [0,1], the
companion exponent beta is pinned down by

    r (sin(pi(alpha-beta)) + sin(pi beta)) = sin(pi beta),

whose left side is a strictly monotone function of beta on the admissible
window [alpha-1, 1].  The same denominator defines the negative constant
c** = sin(pi alpha) / (sin(pi(alpha-beta)) + sin(pi beta)), which scales the
eigenvalue sequence mu_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import log_gamma


@dataclass(frozen=True)
class FracParams:
    alpha: float
    r: float
    beta: float
    c_star_star: float

    def __post_init__(self):
        a, b = self.alpha, self.beta
        _check_window(a, self.r)
        tol = 1e-9
        if not (a - 1.0 - tol <= b <= 1.0 + tol and a - b <= 1.0 + tol):
            raise ValueError(
                f"FracParams: beta={b} violates alpha-1 <= beta <= 1, "
                f"alpha-beta <= 1 for alpha={a}"
            )
        # c** < 0 holds automatically on this window; assert, don't re-derive
        if not self.c_star_star < 0:
            raise ValueError(
                f"FracParams: c_star_star must be negative, got {self.c_star_star}"
            )


def _check_window(alpha: float, r: float):
    """The window of the theory: alpha in (1,2), r in [0,1]."""
    if not (1.0 < alpha < 2.0):
        raise ValueError(f"FracParams: alpha must lie in (1,2), got {alpha}")
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"FracParams: r must lie in [0,1], got {r}")


def _denominator(alpha: float, beta: float) -> float:
    return math.sin(math.pi * (alpha - beta)) + math.sin(math.pi * beta)


def _c_star_star(alpha: float, beta: float) -> float:
    return math.sin(math.pi * alpha) / _denominator(alpha, beta)


def solve_beta(alpha: float, r: float) -> FracParams:
    """Solve for beta in [alpha-1, 1] at the given (alpha, r) by bisection.

    r is strictly decreasing in beta on the window, with r=1 at beta=alpha-1
    and r=0 at beta=1, so the root is unique.  The interval is shrunk to
    width 1e-14.  The window is checked first: outside it the bisection can
    divide by zero (alpha 0, r 1) or take the sine of an infinity.
    """
    _check_window(alpha, r)
    lo, hi = alpha - 1.0, 1.0
    if r >= 1.0:
        beta = lo
    elif r <= 0.0:
        beta = hi
    else:
        # g(beta) = r*denominator - sin(pi beta) is negative at lo, positive at hi
        def g(b: float) -> float:
            return r * _denominator(alpha, b) - math.sin(math.pi * b)

        while hi - lo > 1e-14:
            mid = 0.5 * (lo + hi)
            if g(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        beta = 0.5 * (lo + hi)
    return FracParams(alpha, r, beta, _c_star_star(alpha, beta))


def mu(fp: FracParams, k: int) -> float:
    """mu_k = c** Gamma(k+alpha)/Gamma(k+1); negative, |mu_k| ~ (k+1)^(alpha-1)."""
    if k < 0:
        raise ValueError(f"mu: index must be nonnegative, got {k}")
    return fp.c_star_star * math.exp(log_gamma(k + fp.alpha) - log_gamma(k + 1.0))


def predicted_rates(
    fp: FracParams,
    b_is_zero: bool,
    s_f: float,
    variant: str,
) -> tuple[float, float]:
    """Convergence rates (L2, energy) implied by the data regularity.

    The ceiling is s~ = min{s_f, alpha+(alpha-beta)+1, alpha+beta+1} when the
    advection coefficient vanishes identically, and the same min with -1 in
    place of +1 otherwise.  Analytic data passes s_f = math.inf so only the
    structural terms bind.  The acute variant yields (s~+alpha, s~+alpha-1),
    the grave variant (s~+alpha, s~+1).  The formula assumes a smooth
    diffusivity and does not see k at all, so for a k with a jump these
    numbers are not a prediction.
    """
    a, b = fp.alpha, fp.beta
    shift = 1.0 if b_is_zero else -1.0
    s_tilde = min(s_f, a + (a - b) + shift, a + b + shift)
    if variant == "acute":
        return s_tilde + a, s_tilde + a - 1.0
    if variant == "grave":
        return s_tilde + a, s_tilde + 1.0
    raise ValueError(f"predicted_rates: variant must be 'acute' or 'grave', got {variant!r}")
