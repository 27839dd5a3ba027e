"""End-to-end solve: problem spec to coefficient vector with diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import DiscreteSystem, ProblemSpec, assemble_system, k_floor
from .linsolve import condition_estimate, factor, lu_solve
from .spaces import CoeffVec, eval_solution


@dataclass(frozen=True)
class Solution:
    """Solved expansion phi (trial basis, length N+1) with run diagnostics:
    k_min and where it was attained, 1-norm condition estimate, relative
    residual of the linear solve, and the reciprocal pivot-growth ratio."""

    spec: ProblemSpec
    phi: CoeffVec
    diagnostics: dict

    def u(self, x):
        """Pointwise solution u(x) = omega(x) phi(x); zero at both endpoints."""
        return eval_solution([self.phi], x)[0]


def solve(spec: ProblemSpec, system: Optional[DiscreteSystem] = None) -> Solution:
    """Assemble and solve the Petrov-Galerkin system for the given variant.

    system is spec's system when the caller has assembled it already, such
    as assemble_system(spec, shared) or the leading block of a higher-degree
    system at the same quadrature; it is solved as given.

    A system's entries are checked where it is built, A by factor() again
    and the rhs by lu_solve(); phi is checked here, by the max|phi| that the
    relative residual ||A phi - rhs||_inf / (||A||_inf ||phi||_inf) reads,
    with CoeffVec's error, so the CoeffVec returned is not checked again.
    """
    if system is None:
        system = assemble_system(spec)
    elif system.rhs.shape != (spec.N + 1,):
        raise ValueError(
            f"solve: system of order {system.rhs.shape[0]} does not match N = {spec.N}"
        )
    k_min, k_at = k_floor(system)
    factors = factor(system.matrix)
    phi_vec, pivot_growth = lu_solve(factors, system.rhs)
    cond = condition_estimate(factors)
    phi_max = np.maximum.reduce(np.abs(phi_vec))
    # max|phi| is non-finite exactly when an entry is: CoeffVec's check
    if not math.isfinite(phi_max):
        raise ValueError("CoeffVec: coefficients must be finite")
    res = system.matrix @ phi_vec - system.rhs
    a_inf = np.maximum.reduce(np.add.reduce(np.abs(system.matrix), axis=1))
    denom = float(a_inf * phi_max)
    residual = float(np.maximum.reduce(np.abs(res)) / denom) if denom > 0 else 0.0
    return Solution(
        spec=spec,
        phi=CoeffVec._checked(spec.fp.trial, phi_vec),
        diagnostics={
            "k_min": k_min,
            "k_min_location": k_at,
            "condition": cond,
            "residual": residual,
            "pivot_growth": pivot_growth,
        },
    )
