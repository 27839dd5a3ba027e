"""The paper's central claim on the diffusion block: a diffusivity with a
jump destroys coercivity, while the test/trial pair keeps the inf-sup
condition.

B0 is scaled by its k = 1 diagonal, the closed form D of
reference_math.diffusion_scale, to S = D^-1/2 B0 D^-1/2.  Coercivity is the
least eigenvalue of S's symmetric part being positive; the inf-sup constant
is S's least singular value.
"""

import numpy as np
import pytest
import scipy.linalg

from fracspec.assembly import ProblemSpec, assemble_B0
from fracspec.coeffexpr import parse
from fracspec.fracparams import solve_beta
from reference_math import diffusion_scale

JUMP = "piecewise(0.3; 1; 1000)"
SMOOTH = "1+2*x"
CASES = [(r, variant) for r in (0.5, 0.4) for variant in ("acute", "grave")]


def _scaled_B0(k: str, r: float, variant: str, N: int) -> np.ndarray:
    fp = solve_beta(1.3, r)
    spec = ProblemSpec(fp=fp, variant=variant, N=N, k=parse(k), b=parse("0"),
                       c=parse("5+sin(x)"), f=parse("1"))
    d = diffusion_scale(fp, N) ** -0.5
    return d[:, None] * assemble_B0(spec) * d[None, :]


def _sigma_min(S: np.ndarray) -> float:
    return float(scipy.linalg.svdvals(S)[-1])


def _lambda_min(S: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])


@pytest.mark.parametrize("r, variant", CASES)
def test_jump_loses_coercivity(r, variant):
    # measured -17.56 to -23.04 over the four cases
    assert _lambda_min(_scaled_B0(JUMP, r, variant, 32)) < 0.0


@pytest.mark.parametrize("r, variant", CASES)
@pytest.mark.parametrize("N", [8, 32, 128])
def test_jump_keeps_the_inf_sup_condition(r, variant, N):
    # measured 0.870 to 0.992; it falls slowly with N
    assert _sigma_min(_scaled_B0(JUMP, r, variant, N)) >= 0.8


@pytest.mark.parametrize("r, variant", CASES)
@pytest.mark.parametrize("N", [8, 32, 128])
def test_smooth_k_keeps_both_near_its_floor(r, variant, N):
    # k_min = 1; measured 1.000 to 1.045 for both quantities
    S = _scaled_B0(SMOOTH, r, variant, N)
    assert _sigma_min(S) >= 0.98
    assert _lambda_min(S) > 0.0
