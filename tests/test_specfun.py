import math

import pytest
from hypothesis import given, strategies as st

from fracspec import log_gamma
from reference_math import beta, gamma


def test_gamma_small_arguments():
    assert gamma(1.0) == 1.0
    assert gamma(2.0) == 1.0
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-15
    assert abs(gamma(1.3) - 0.8974706963062772) < 1e-15
    assert abs(gamma(2.5) - 1.3293403881791372) < 1e-15


def test_gamma_large_arguments_use_log_path():
    # above 10 the value comes from exp(log_gamma); spot check against
    # exact factorials, which stay representable well past the switch
    assert abs(gamma(11.0) / 3628800.0 - 1.0) < 1e-13
    assert abs(gamma(21.0) / 2432902008176640000.0 - 1.0) < 1e-13
    assert abs(gamma(15.3) / 195066476387.01218 - 1.0) < 1e-12


def test_gamma_recurrence_across_the_switch():
    for x in (9.7, 9.9, 10.0, 10.1, 10.4):
        assert abs(gamma(x + 1.0) / (x * gamma(x)) - 1.0) < 1e-13


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma(0.0)
    with pytest.raises(ValueError):
        gamma(-1.5)


def test_log_gamma_matches_gamma():
    for x in (0.2, 1.0, 3.7, 25.0, 120.5):
        assert abs(log_gamma(x) - math.lgamma(x)) == 0.0
    with pytest.raises(ValueError):
        log_gamma(-2.0)


def test_beta_known_values():
    assert abs(beta(1.0, 1.0) - 1.0) < 1e-15
    assert abs(beta(2.0, 3.0) - 1.0 / 12.0) < 1e-16
    assert abs(beta(0.5, 0.5) - math.pi) < 1e-14
    assert abs(beta(1.75, 1.75) - 0.2541639254381938) < 1e-15
    assert abs(beta(1.65, 1.65) - 0.3019300127758389) < 1e-15


def test_beta_rejects_nonpositive():
    with pytest.raises(ValueError):
        beta(0.0, 1.0)
    with pytest.raises(ValueError):
        beta(1.0, -0.2)


@given(
    st.floats(min_value=0.05, max_value=30.0),
    st.floats(min_value=0.05, max_value=30.0),
)
def test_beta_symmetry_and_pascal_identity(a, b):
    assert abs(beta(a, b) - beta(b, a)) <= 1e-14 * beta(a, b)
    # B(a,b) = B(a+1,b) + B(a,b+1)
    lhs = beta(a, b)
    rhs = beta(a + 1.0, b) + beta(a, b + 1.0)
    assert abs(lhs - rhs) <= 1e-12 * lhs
