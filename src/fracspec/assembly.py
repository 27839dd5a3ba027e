"""Petrov-Galerkin system assembly.

Trial functions are u = omega * Ghat_i^{(alpha-beta,beta)}, in the family
FracParams.trial, and test functions are Ghat_j^{(beta,alpha-beta)}, in
FracParams.test, paired under the omega* weight.  Applying the derivative
and fractional-integral identities collapses every term of the bilinear
form to a plain weighted integral of products of shifted Jacobi
polynomials, each with its own Gauss-Jacobi weight:

    B0 acute:  exponents (alpha-beta-1, beta-1), trial shifted down by one
    B0 grave:  exponents (beta-1, alpha-beta-1), test shifted down by one
    B1:        exponents (alpha-1, alpha-1)
    B2:        exponents (alpha, alpha)
    rhs:       exponents (beta, alpha-beta), the test family

The acute variant keeps the diffusivity k inside the fractional integral;
the grave variant applies k outside it.  They agree when k is constant.
Matrix orientation: rows are the test index j, columns the trial index i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    prefetch,
)

CoeffFn = Callable[[np.ndarray], np.ndarray]


class AssemblyError(RuntimeError):
    """Invalid data detected while building the discrete system."""


def as_integer(v, what: str) -> int:
    """v as an int when its value is integral (8 or 8.0) and v is not a
    bool, else a ValueError naming what."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, (float, np.floating)) and math.isfinite(v) and int(v) == v:
        return int(v)
    raise ValueError(f"{what} must be an integer, got {v!r}")


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
        object.__setattr__(self, "N", as_integer(self.N, "ProblemSpec: N"))
        if self.N < 1:
            raise ValueError(f"ProblemSpec: N must be at least 1, got {self.N}")
        if self.quad_points is not None:
            q = as_integer(self.quad_points, "ProblemSpec: quad_points")
            object.__setattr__(self, "quad_points", q)
            if q < self.N + 20:
                raise ValueError(
                    f"ProblemSpec: quad_points must be at least N+20 = {self.N + 20}, "
                    f"got {q}"
                )

    @property
    def q(self) -> int:
        return self.quad_points if self.quad_points is not None else self.N + 20

    @cached_property
    def _blocks(self) -> dict:
        """What each block reads: the weight of its q-point rule, the
        coefficient it samples on the nodes, that coefficient's breakpoints
        and the basis tables (family, degree) it reads there.  The blocks and
        _prefetch both read this one statement, built once per spec."""
        fp, N, a = self.fp, self.N, self.fp.alpha
        p0 = _shifted(fp.trial if self.variant == "acute" else fp.test)
        test, trial = fp.test, fp.trial
        blocks = {
            "B0": (p0, self.k, ((p0, N + 1),)),
            "B1": (JacobiParams(a - 1.0, a - 1.0), self.b,
                   ((test, N), (_shifted(trial), N + 1))),
            "B2": (JacobiParams(a, a), self.c, ((trial, N), (test, N))),
            "rhs": (test, self.f, ((test, N),)),
        }
        return {name: (p, fn, breaks_of(fn), t) for name, (p, fn, t) in blocks.items()}


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
        if not (np.isfinite(A).all() and np.isfinite(r).all()):
            raise ValueError("DiscreteSystem: entries must be finite")
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "rhs", r)

    def leading(self, N: int) -> "DiscreteSystem":
        """The degree-N system at the same quadrature: the leading
        (N+1)x(N+1) block and rhs[:N+1].

        Entry (j, i) integrates test j against trial i on rules that depend
        only on q, so assembling at degree N with the same q gives this
        block again.  N is integral (2.0 gives 2) and not a bool.
        """
        N = as_integer(N, "DiscreteSystem: degree")
        if not 1 <= N < len(self.rhs):
            raise ValueError(
                f"DiscreteSystem: degree {N} must lie in 1..{len(self.rhs) - 1}"
            )
        n = N + 1
        # a block of checked entries needs no second __post_init__
        block = object.__new__(DiscreteSystem)
        block.__dict__.update(vars(self), matrix=self.matrix[:n, :n], rhs=self.rhs[:n])
        return block


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
    breaks = [float(b) for b in breaks]
    # written so that NaN fails too
    if not all(0.0 < b < 1.0 for b in breaks):
        raise ValueError(f"composite_rule: breaks must lie inside (0,1), got {breaks}")
    breaks = sorted(set(breaks))
    if not breaks:
        return gauss_jacobi(p, n)
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
    # each piece is ascending and the pieces follow the sorted breaks
    return QuadratureRule(p, np.concatenate(nodes), np.concatenate(weights))


def _rule_for(spec: ProblemSpec, block: str) -> tuple[QuadratureRule, np.ndarray]:
    """block's q-point rule, split at its coefficient's breakpoints, and the
    coefficient sampled on its nodes."""
    p, fn, breaks, _ = spec._blocks[block]
    if breaks:
        rule = composite_rule(p, spec.q, breaks)
    else:
        rule = gauss_jacobi(p, spec.q)
    return rule, sample(fn, rule.nodes)


def _tables_on(spec: ProblemSpec, block: str, rule: QuadratureRule) -> list:
    return [eval_Ghat_table(p, N, rule.nodes) for p, N in spec._blocks[block][3]]


def k_floor(system: DiscreteSystem) -> tuple[float, float]:
    """Minimum of k over the assembly quadrature grid and where it occurs,
    read from the samples B0 was assembled from."""
    if system.k_values is None:
        raise ValueError("k_floor: the system carries no diffusivity samples")
    idx = int(np.argmin(system.k_values))
    return float(system.k_values[idx]), float(system.k_nodes[idx])


def _shifted(p: JacobiParams) -> JacobiParams:
    """The family one below p in each exponent."""
    return JacobiParams(p.a - 1.0, p.b - 1.0)


def _prefetch(spec: ProblemSpec, blocks):
    """Build the rules and tables that blocks will ask for ahead of them
    (jacobi.prefetch); a block whose coefficient has breakpoints builds its
    composite rule itself."""
    inputs = [spec._blocks[block] for block in blocks]
    prefetch(spec.q, [(p, tables) for p, _, breaks, tables in inputs if not breaks])


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
    rule, kv = k_sampled if k_sampled is not None else _rule_for(spec, "B0")
    kmin_idx = int(np.argmin(kv))
    if kv[kmin_idx] <= 0.0:
        raise AssemblyError(
            f"diffusivity must be positive: k({rule.nodes[kmin_idx]:.6g}) = "
            f"{kv[kmin_idx]:.6g}"
        )
    G = _tables_on(spec, "B0", rule)[0][:, 1:]
    core = (G * (rule.weights * kv)[:, None]).T @ G
    nr = _norm_ratios(fp, N)
    idx = np.arange(N + 1)
    mus = mu(fp, idx)
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
    rule, bv = _rule_for(spec, "B1")
    test, dtrial = _tables_on(spec, "B1", rule)
    scale = -(np.arange(N + 1) + 1.0) * _norm_ratios(fp, N)
    return (test * (rule.weights * bv)[:, None]).T @ (dtrial[:, 1:] * scale[None, :])


def assemble_B2(spec: ProblemSpec) -> np.ndarray:
    """Reaction block: c against trial times test, weight (alpha, alpha)."""
    rule, cv = _rule_for(spec, "B2")
    trial, test = _tables_on(spec, "B2", rule)
    return (test * (rule.weights * cv)[:, None]).T @ trial


def assemble_rhs(spec: ProblemSpec) -> np.ndarray:
    """Load vector: entry j = integral of omega* f Ghat_j^{(beta,alpha-beta)}."""
    rule, fv = _rule_for(spec, "rhs")
    (test,) = _tables_on(spec, "rhs", rule)
    return test.T @ (rule.weights * fv)


def assemble_shared(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B1, B2 and the load vector: the blocks that depend on neither k nor
    the variant, only on (fp, b, c, f, N, q)."""
    _prefetch(spec, ("B1", "B2", "rhs"))
    return assemble_B1(spec), assemble_B2(spec), assemble_rhs(spec)


def assemble_system(
    spec: ProblemSpec,
    shared: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> DiscreteSystem:
    """Full matrix B0 + B1 + B2 and load vector for the given variant.

    shared is assemble_shared of a spec that differs from this one at most
    in k and the variant, so that several diffusivities or both variants
    assemble those blocks once; None assembles them here.  The rules and
    basis tables of the blocks assembled here are built first, all missing
    rules in one batch and all missing tables in another (_prefetch).
    """
    _prefetch(spec, ("B0", "B1", "B2", "rhs") if shared is None else ("B0",))
    k_sampled = _rule_for(spec, "B0")
    B0 = assemble_B0(spec, k_sampled)
    if shared is None:
        shared = assemble_B1(spec), assemble_B2(spec), assemble_rhs(spec)
    B1, B2, rhs = shared
    # summed as (B0 + B1) + B2 whether or not the blocks are shared, so a
    # shared solve rounds exactly as a fresh one
    A = B0 + B1 + B2
    if not (np.isfinite(A).all() and np.isfinite(rhs).all()):
        raise AssemblyError("assembled system has non-finite entries (overflow)")
    return DiscreteSystem(A, rhs, k_sampled[0].nodes, k_sampled[1])
