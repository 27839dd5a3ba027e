"""Spectral Petrov-Galerkin solver for two-sided fractional diffusion
problems on (0,1).

The solver expands u = omega * phi in weighted shifted Jacobi polynomials,
where the weight omega and the basis exponents are tied to the fractional
order alpha and the directional weight r so that the diffusion term becomes
diagonal for constant diffusivity.  Two operator variants are supported:
"acute" keeps k(x) inside the fractional integral, "grave" applies it
outside.  Modules build up from Jacobi machinery (with log-gamma) through
assembly and linear algebra to convergence/comparison studies and a small
CLI.
"""

from .jacobi import (
    JacobiParams,
    QuadratureError,
    QuadratureRule,
    eval_Ghat_table,
    gauss_jacobi,
    log_gamma,
)
from .fracparams import FracParams, mu, predicted_rates, solve_beta
from .coeffexpr import EvalError, Expr, ParseError, breakpoints, parse, pretty
from .spaces import (
    CoeffVec,
    error_norms,
    eval_solution,
    project,
    sobolev_norm,
)
from .assembly import (
    AssemblyError,
    DiscreteSystem,
    ProblemSpec,
    assemble_B0,
    assemble_B1,
    assemble_B2,
    assemble_rhs,
    assemble_shared,
    assemble_system,
    composite_rule,
    k_floor,
)
from .linsolve import SingularMatrixError, condition_estimate, factor, lu_solve
from .solver import Solution, solve
from .experiments import (
    ComparisonReport,
    ConvergenceReport,
    check_degrees,
    coeff_is_zero,
    observed_rate,
    run_comparison,
    run_convergence,
)

__version__ = "0.1.0"

__all__ = [
    "log_gamma",
    "JacobiParams",
    "QuadratureError",
    "QuadratureRule",
    "eval_Ghat_table",
    "gauss_jacobi",
    "FracParams",
    "mu",
    "predicted_rates",
    "solve_beta",
    "EvalError",
    "Expr",
    "ParseError",
    "breakpoints",
    "parse",
    "pretty",
    "CoeffVec",
    "error_norms",
    "eval_solution",
    "project",
    "sobolev_norm",
    "AssemblyError",
    "DiscreteSystem",
    "ProblemSpec",
    "assemble_B0",
    "assemble_B1",
    "assemble_B2",
    "assemble_rhs",
    "assemble_shared",
    "assemble_system",
    "composite_rule",
    "k_floor",
    "SingularMatrixError",
    "condition_estimate",
    "factor",
    "lu_solve",
    "Solution",
    "solve",
    "ComparisonReport",
    "ConvergenceReport",
    "check_degrees",
    "coeff_is_zero",
    "observed_rate",
    "run_comparison",
    "run_convergence",
    "__version__",
]
