"""Petrov-Galerkin system assembly.

Trial functions are u = omega * Ghat_i^{(alpha-beta,beta)}, test functions
Ghat_j^{(beta,alpha-beta)} paired under the omega* weight.  Applying the
derivative and fractional-integral identities collapses every term of the
bilinear form to a plain weighted integral of products of shifted Jacobi
polynomials, each with its own Gauss-Jacobi weight:

    B0 acute:  exponents (alpha-beta-1, beta-1)
    B0 grave:  exponents (beta-1, alpha-beta-1)
    B1:        exponents (alpha-1, alpha-1)
    B2:        exponents (alpha, alpha)
    rhs:       exponents (beta, alpha-beta)

The acute variant keeps the diffusivity k inside the fractional integral;
the grave variant applies k outside it.  They agree when k is constant.
Matrix orientation: rows are the test index j, columns the trial index i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coeffexpr import breaks_of, sample
from .fracparams import FracParams, mu
from .jacobi import (
    JacobiParams,
    QuadratureRule,
    as_params,
    eval_Ghat_table,
    gauss_jacobi,
)

CoeffFn = Callable[[np.ndarray], np.ndarray]


class AssemblyError(RuntimeError):
    """Invalid data detected while building the discrete system."""


@dataclass(frozen=True)
class ProblemSpec:
    """One boundary-value problem instance ready for discretization.

    quad_points of None resolves to N + 20, enough to integrate the
    polynomial part of every term exactly with headroom for smooth
    coefficients.
    """

    fp: FracParams
    variant: str
    k: CoeffFn
    b: CoeffFn
    c: CoeffFn
    f: CoeffFn
    N: int
    quad_points: Optional[int] = None

    def __post_init__(self):
        if self.variant not in ("acute", "grave"):
            raise ValueError(
                f"ProblemSpec: variant must be 'acute' or 'grave', got {self.variant!r}"
            )
        if self.N < 1:
            raise ValueError(f"ProblemSpec: N must be at least 1, got {self.N}")
        if self.quad_points is not None and self.quad_points < self.N + 20:
            raise ValueError(
                f"ProblemSpec: quad_points must be at least N+20 = {self.N + 20}, "
                f"got {self.quad_points}"
            )

    @property
    def q(self) -> int:
        return self.quad_points if self.quad_points is not None else self.N + 20


@dataclass(frozen=True)
class DiscreteSystem:
    """Dense system: matrix entry (j, i) pairs trial i against test j.

    k_nodes and k_values are the nodes of B0's rule and the diffusivity
    sampled on them, which k_floor reads; None for a system built by hand.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    k_nodes: Optional[np.ndarray] = None
    k_values: Optional[np.ndarray] = None

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=float)
        r = np.asarray(self.rhs, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or r.shape != (A.shape[0],):
            raise ValueError(
                f"DiscreteSystem: shape mismatch, matrix {A.shape}, rhs {r.shape}"
            )
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(r))):
            raise ValueError("DiscreteSystem: entries must be finite")
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "rhs", r)

    def leading(self, N: int) -> "DiscreteSystem":
        """The degree-N system at the same quadrature: the leading
        (N+1)x(N+1) block and rhs[:N+1].

        Entry (j, i) integrates test j against trial i on rules that depend
        only on q, so assembling at degree N with the same q gives this
        block again.
        """
        if not 1 <= N < len(self.rhs):
            raise ValueError(
                f"DiscreteSystem: degree {N} must lie in 1..{len(self.rhs) - 1}"
            )
        n = N + 1
        return DiscreteSystem(
            self.matrix[:n, :n], self.rhs[:n], self.k_nodes, self.k_values
        )


def composite_rule(p, n: int, breaks) -> QuadratureRule:
    """Quadrature for omega^{(a,b)} on (0,1) split at interior breakpoints.

    The first piece [0, x1] uses a rule with weight x^b alone, folding the
    smooth-there factor (1-x)^a into the integrand weight; the last piece
    mirrors this with (1-x)^a.  Interior pieces use Gauss-Legendre with the
    whole weight folded in.  Each piece gets n points, so piecewise
    polynomials of degree < 2n against the same breaks integrate to rel.
    1e-9.
    """
    p = as_params(p)
    breaks = sorted(set(float(b) for b in breaks))
    if not breaks:
        return gauss_jacobi(p, n)
    if breaks[0] <= 0.0 or breaks[-1] >= 1.0:
        raise ValueError(f"composite_rule: breaks must lie inside (0,1), got {breaks}")
    a, b = p.a, p.b
    edges = [0.0] + breaks + [1.0]
    left_rule = gauss_jacobi(JacobiParams(0.0, b), n)
    right_rule = gauss_jacobi(JacobiParams(a, 0.0), n)
    mid_rule = gauss_jacobi(JacobiParams(0.0, 0.0), n)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        h = hi - lo
        if lo == 0.0:
            x = h * left_rule.nodes
            w = h ** (b + 1.0) * left_rule.weights * (1.0 - x) ** a
        elif hi == 1.0:
            x = 1.0 - h * (1.0 - right_rule.nodes)
            w = h ** (a + 1.0) * right_rule.weights * x ** b
        else:
            x = lo + h * mid_rule.nodes
            w = h * mid_rule.weights * (1.0 - x) ** a * x ** b
        nodes.append(x)
        weights.append(w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    order = np.argsort(nodes)
    return QuadratureRule(p, nodes[order], weights[order])


def _rule_for(
    spec: ProblemSpec, p: JacobiParams, fn
) -> tuple[QuadratureRule, np.ndarray]:
    """The q-point rule for weight p, split at fn's breakpoints, and fn
    sampled on its nodes."""
    breaks = breaks_of(fn)
    if breaks:
        rule = composite_rule(p, spec.q, breaks)
    else:
        rule = gauss_jacobi(p, spec.q)
    return rule, sample(fn, rule.nodes)


def k_floor(system: DiscreteSystem) -> tuple[float, float]:
    """Minimum of k over the assembly quadrature grid and where it occurs,
    read from the samples B0 was assembled from."""
    if system.k_values is None:
        raise ValueError("k_floor: the system carries no diffusivity samples")
    idx = int(np.argmin(system.k_values))
    return float(system.k_values[idx]), float(system.k_nodes[idx])


def _b0_params(spec: ProblemSpec) -> JacobiParams:
    a, b = spec.fp.alpha, spec.fp.beta
    if spec.variant == "acute":
        return JacobiParams(a - b - 1.0, b - 1.0)
    return JacobiParams(b - 1.0, a - b - 1.0)


def _norm_ratios(fp: FracParams, N: int) -> np.ndarray:
    m = np.arange(N + 1)
    # ratio of neighboring basis norms across the two families
    return np.sqrt((m + fp.alpha) / (m + 1.0))


def assemble_B0(
    spec: ProblemSpec, k_sampled: Optional[tuple[QuadratureRule, np.ndarray]] = None
) -> np.ndarray:
    """Fractional-diffusion block.

    Both variants reduce to one weighted integral of k times two
    degree-shifted orthonormal polynomials; for constant k orthonormality
    collapses the matrix to the positive diagonal k |c**| Gamma(i+alpha+1) /
    Gamma(i+1).  k_sampled is B0's rule with k sampled on its nodes, when
    the caller has already built it (assemble_system keeps the samples).
    """
    fp, N = spec.fp, spec.N
    p0 = _b0_params(spec)
    rule, kv = k_sampled if k_sampled is not None else _rule_for(spec, p0, spec.k)
    kmin_idx = int(np.argmin(kv))
    if kv[kmin_idx] <= 0.0:
        raise AssemblyError(
            f"diffusivity must be positive: k({rule.nodes[kmin_idx]:.6g}) = "
            f"{kv[kmin_idx]:.6g}"
        )
    G = eval_Ghat_table(p0, N + 1, rule.nodes)[:, 1:]
    core = (G * (rule.weights * kv)[:, None]).T @ G
    nr = _norm_ratios(fp, N)
    idx = np.arange(N + 1)
    mus = np.array([mu(fp, int(j)) for j in idx])
    if spec.variant == "acute":
        col = (idx + 1.0) * nr
        row = -mus * nr
    else:
        col = -mus * nr
        row = (idx + 1.0) * nr
    return row[:, None] * core * col[None, :]


def assemble_B1(spec: ProblemSpec) -> np.ndarray:
    """Advection block: pairs b times the derivative of the weighted trial
    function against the test polynomial; combined weight (alpha-1, alpha-1)."""
    fp, N = spec.fp, spec.N
    a, b = fp.alpha, fp.beta
    rule, bv = _rule_for(spec, JacobiParams(a - 1.0, a - 1.0), spec.b)
    test = eval_Ghat_table(JacobiParams(b, a - b), N, rule.nodes)
    dtrial = eval_Ghat_table(JacobiParams(a - b - 1.0, b - 1.0), N + 1, rule.nodes)[:, 1:]
    idx = np.arange(N + 1)
    scale = -(idx + 1.0) * _norm_ratios(fp, N)
    return (test * (rule.weights * bv)[:, None]).T @ (dtrial * scale[None, :])


def assemble_B2(spec: ProblemSpec) -> np.ndarray:
    """Reaction block: c against trial times test, weight (alpha, alpha)."""
    fp, N = spec.fp, spec.N
    a, b = fp.alpha, fp.beta
    rule, cv = _rule_for(spec, JacobiParams(a, a), spec.c)
    trial = eval_Ghat_table(JacobiParams(a - b, b), N, rule.nodes)
    test = eval_Ghat_table(JacobiParams(b, a - b), N, rule.nodes)
    return (test * (rule.weights * cv)[:, None]).T @ trial


def assemble_rhs(spec: ProblemSpec) -> np.ndarray:
    """Load vector: entry j = integral of omega* f Ghat_j^{(beta,alpha-beta)}."""
    fp, N = spec.fp, spec.N
    a, b = fp.alpha, fp.beta
    rule, fv = _rule_for(spec, JacobiParams(b, a - b), spec.f)
    test = eval_Ghat_table(JacobiParams(b, a - b), N, rule.nodes)
    return test.T @ (rule.weights * fv)


def assemble_shared(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B1, B2 and the load vector: the blocks that depend on neither k nor
    the variant, only on (fp, b, c, f, N, q)."""
    return assemble_B1(spec), assemble_B2(spec), assemble_rhs(spec)


def assemble_system(
    spec: ProblemSpec,
    shared: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> DiscreteSystem:
    """Full matrix B0 + B1 + B2 and load vector for the given variant.

    shared is assemble_shared of a spec that differs from this one at most
    in k and the variant, so that several diffusivities or both variants
    assemble those blocks once; None assembles them here.
    """
    k_sampled = _rule_for(spec, _b0_params(spec), spec.k)
    B0 = assemble_B0(spec, k_sampled)
    B1, B2, rhs = assemble_shared(spec) if shared is None else shared
    # summed as (B0 + B1) + B2 whether or not the blocks are shared, so a
    # shared solve rounds exactly as a fresh one
    A = B0 + B1 + B2
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(rhs))):
        raise AssemblyError("assembled system has non-finite entries (overflow)")
    return DiscreteSystem(A, rhs, k_sampled[0].nodes, k_sampled[1])
