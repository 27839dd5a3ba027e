"""Convergence tables and the acute-versus-grave model comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .assembly import ProblemSpec, as_integer, assemble_shared, assemble_system
from .coeffexpr import EvalError, breaks_of, sample
from .fracparams import predicted_rates
from . import solver
from .solver import solve
from .spaces import error_norms


@dataclass(frozen=True)
class ConvergenceReport:
    """Rows (N, err_L2, rate_L2, err_H1, rate_H1); rates are None on the
    first row.  predicted holds the (L2, energy) exponents for the config."""

    rows: tuple
    predicted: tuple
    spec_base: ProblemSpec


@dataclass(frozen=True)
class ComparisonReport:
    """Solutions of both operator variants for one diffusivity, sampled on a
    uniform grid including the endpoints (where both vanish)."""

    x: np.ndarray
    u_acute: np.ndarray
    u_grave: np.ndarray
    spec_acute: ProblemSpec
    spec_grave: ProblemSpec

    def __post_init__(self):
        if not (self.x.shape == self.u_acute.shape == self.u_grave.shape):
            raise ValueError("ComparisonReport: column shapes must agree")


def observed_rate(e1: float, e2: float, N1: int, N2: int) -> float:
    """Empirical decay exponent ln(e1/e2)/ln(N2/N1) between two rows."""
    if e1 <= 0 or e2 <= 0:
        raise ValueError(f"observed_rate: errors must be positive, got {e1}, {e2}")
    if N1 == N2:
        raise ValueError("observed_rate: degrees must differ")
    return math.log(e1 / e2) / math.log(N2 / N1)


def coeff_is_zero(fn) -> bool:
    """True when the coefficient samples to exactly zero on a fine grid.

    The grid includes both endpoints, where the assembly never evaluates a
    coefficient; one that is not finite there, such as x^-0.5, is not zero.
    """
    xs = np.linspace(0.0, 1.0, 257)
    extra = breaks_of(fn)
    if extra:
        xs = np.sort(np.concatenate([xs, extra]))
    try:
        return bool(np.max(np.abs(sample(fn, xs))) == 0.0)
    except EvalError:
        return False


def check_degrees(Ns: Sequence[int], N_ref: int) -> list[int]:
    """Ns as a list of ints; a ValueError unless it is nonempty, strictly
    ascending, and each degree is integral (8.0 gives 8), at least 1 and
    below N_ref."""
    Ns = [as_integer(n, "Ns: each degree") for n in Ns]
    if not Ns:
        raise ValueError("Ns: need at least one degree")
    if Ns[0] < 1:
        raise ValueError(f"Ns: each degree must be at least 1, got {Ns}")
    if any(n2 <= n1 for n1, n2 in zip(Ns[:-1], Ns[1:])):
        raise ValueError(f"Ns: degrees must be strictly ascending, got {Ns}")
    if Ns[-1] >= N_ref:
        raise ValueError(f"Ns: max degree {Ns[-1]} must stay below N_ref={N_ref}")
    return Ns


def run_convergence(
    spec_base: ProblemSpec, Ns: Sequence[int], N_ref: int = 40, *, s_f: float = math.inf
) -> ConvergenceReport:
    """Solve once at the reference degree N_ref, then at each N, reporting
    errors of the expansion against the reference and the log-ratio rates.
    The predicted rates cap f's Sobolev index at s_f (inf: analytic f).

    Every degree shares the reference's quadrature size q =
    replace(spec_base, N=N_ref).q, so the system is assembled once, at N_ref,
    and degree N solves its leading (N+1)x(N+1) block.  Ns failing
    check_degrees, a quad_points below N_ref + 20, or a NaN s_f is a
    ValueError raised before any assembly.  spec_base.N is not used.
    """
    Ns = check_degrees(Ns, N_ref)
    pred = predicted_rates(
        spec_base.fp, coeff_is_zero(spec_base.b), s_f, spec_base.variant
    )
    spec_ref = replace(spec_base, N=N_ref)
    q = spec_ref.q
    try:
        system = assemble_system(spec_ref)
        phi_ref = solve(spec_ref, system).phi
    except Exception as exc:
        raise RuntimeError(f"convergence run failed at N={N_ref}: {exc}") from exc
    errs = []
    for N in Ns:
        try:
            sol = solve(replace(spec_base, N=N, quad_points=q), system.leading(N))
        except Exception as exc:
            raise RuntimeError(f"convergence run failed at N={N}: {exc}") from exc
        errs.append(error_norms(phi_ref, sol.phi, [0.0, 1.0]))
    def rate(ep: float, e: float, Np: int, N: int):
        # a manufactured-exact run can hit error 0, where the log ratio is undefined
        if ep <= 0.0 or e <= 0.0:
            return None
        return observed_rate(ep, e, Np, N)

    rows = []
    for i, (N, (e0, e1)) in enumerate(zip(Ns, errs)):
        if i == 0:
            rows.append((N, e0, None, e1, None))
        else:
            Np, (e0p, e1p) = Ns[i - 1], errs[i - 1]
            rows.append((N, e0, rate(e0p, e0, Np, N), e1, rate(e1p, e1, Np, N)))
    return ConvergenceReport(tuple(rows), pred, spec_base)


def run_comparison(
    spec: ProblemSpec, ks: Sequence, grid_points: int = 1001
) -> list[ComparisonReport]:
    """Solve both operator variants for each diffusivity in ks and sample
    them on a uniform grid; one report per diffusivity, input order.  Each
    solve is spec with its k and variant replaced, so spec's own k and
    variant are not used.  B1, B2 and the load vector depend on neither k nor
    the variant, so they are assembled once and only B0 is assembled per
    solve.  The trial basis does not depend on them either, so every
    solution is sampled from one basis table on the grid."""
    if grid_points < 2:
        raise ValueError(f"run_comparison: need at least 2 grid points, got {grid_points}")
    xs = np.linspace(0.0, 1.0, grid_points)
    shared = assemble_shared(spec)
    sols = []
    for k in ks:
        for variant in ("acute", "grave"):
            spec_kv = replace(spec, k=k, variant=variant)
            sols.append(solve(spec_kv, assemble_system(spec_kv, shared)))
    # through fracspec.solver's binding, which the benchmark's tracer times
    us = solver.eval_solution([s.phi for s in sols], xs)
    return [
        ComparisonReport(xs, us[i], us[i + 1], sols[i].spec, sols[i + 1].spec)
        for i in range(0, len(sols), 2)
    ]
