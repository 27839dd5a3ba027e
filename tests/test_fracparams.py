import math

import pytest
from hypothesis import given, settings, strategies as st

from fracspec import (
    FracParams,
    mu,
    predicted_rates,
    solve_beta,
)
from reference_math import beta_to_r, sigma


def test_symmetric_case_is_exact():
    fp = solve_beta(1.3, 0.5)
    assert abs(fp.beta - 0.65) < 1e-12
    assert abs(fp.c_star_star - (-0.45399049973954675)) < 1e-12


def test_bisection_case():
    fp = solve_beta(1.6, 0.4)
    assert abs(fp.beta - 0.8459316586238781) < 1e-12


def test_endpoints():
    assert solve_beta(1.7, 1.0).beta == pytest.approx(0.7, abs=1e-14)
    assert solve_beta(1.7, 0.0).beta == pytest.approx(1.0, abs=1e-14)


def test_window_and_defining_relation():
    for alpha in (1.05, 1.3, 1.5, 1.95):
        for r in (0.0, 0.17, 0.5, 0.83, 1.0):
            fp = solve_beta(alpha, r)
            assert alpha - 1 - 1e-12 <= fp.beta <= 1 + 1e-12
            assert fp.alpha - fp.beta <= 1 + 1e-12
            lhs = r * (
                math.sin(math.pi * (alpha - fp.beta)) + math.sin(math.pi * fp.beta)
            ) - math.sin(math.pi * fp.beta)
            assert abs(lhs) < 1e-12
            assert fp.c_star_star < 0


def test_beta_decreasing_in_r():
    alpha = 1.45
    betas = [solve_beta(alpha, r).beta for r in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
    assert all(b2 < b1 for b1, b2 in zip(betas[:-1], betas[1:]))


def test_round_trip_through_r():
    # 50 seeded pairs across the admissible window
    import random

    rng = random.Random(42)
    for _ in range(50):
        alpha = rng.uniform(1.01, 1.99)
        beta0 = rng.uniform(alpha - 1.0, 1.0)
        beta0 = min(max(beta0, alpha - 1.0), 1.0)
        r = beta_to_r(alpha, beta0)
        assert abs(solve_beta(alpha, r).beta - beta0) < 1e-12


def test_half_r_gives_half_alpha():
    for i in range(20):
        alpha = 1.02 + 0.96 * i / 19.0
        assert abs(solve_beta(alpha, 0.5).beta - alpha / 2.0) < 1e-12


def test_invalid_inputs():
    with pytest.raises(ValueError):
        solve_beta(2.0, 0.5)
    with pytest.raises(ValueError):
        solve_beta(1.5, 1.5)
    with pytest.raises(ValueError):
        FracParams(1.5, 0.5, 0.2, -1.0)  # beta outside the window
    with pytest.raises(ValueError):
        FracParams(1.5, 0.5, 0.75, 1.0)  # c** must be negative


@pytest.mark.parametrize("alpha, r", [(0.0, 1.0), (math.inf, 0.5), (-math.inf, 0.5)])
def test_solve_beta_checks_window_before_bisecting(alpha, r):
    # unchecked, alpha 0 at r 1 zeroes the denominator of c** and an
    # infinite alpha reaches math.sin; both must name the window instead
    with pytest.raises(ValueError, match="alpha must lie in"):
        solve_beta(alpha, r)


def test_mu_values_and_growth():
    fp = solve_beta(1.3, 0.5)
    assert abs(mu(fp, 0) - (-0.40744316991768587)) < 1e-13
    vals = [abs(mu(fp, k)) for k in range(40)]
    assert all(v2 > v1 for v1, v2 in zip(vals[:-1], vals[1:]))
    # |mu_k| grows like (k+1)^(alpha-1)
    scaled = [abs(mu(fp, k)) / (k + 1) ** (fp.alpha - 1) for k in (200, 400, 800)]
    for s in scaled:
        assert abs(s - abs(fp.c_star_star)) < 0.01
    # exact recurrence of the Gamma ratio
    for k in (0, 3, 17):
        assert mu(fp, k + 1) / mu(fp, k) == pytest.approx(
            (k + fp.alpha) / (k + 1.0), rel=1e-13
        )


def test_sigma_values_and_link_to_mu():
    fp = solve_beta(1.5, 0.5)
    assert abs(sigma(fp, 0) - 1.2533141373155001) < 1e-13
    for k in range(101):
        assert sigma(fp, k) > 0
        assert abs(mu(fp, k)) == pytest.approx(
            sigma(fp, k) * (k + fp.alpha - 1.0), rel=1e-12
        )


def test_predicted_rates_table_configurations():
    fp_a = solve_beta(1.3, 0.5)
    assert predicted_rates(fp_a, False, math.inf, "acute") == pytest.approx(
        (2.25, 1.25), abs=1e-12
    )
    fp_b = solve_beta(1.6, 0.4)
    rates_b = predicted_rates(fp_b, False, math.inf, "acute")
    assert rates_b[0] == pytest.approx(2.95, abs=5e-3)
    assert rates_b[1] == pytest.approx(1.95, abs=5e-3)
    # zero advection lifts the ceiling by two
    assert predicted_rates(fp_a, True, math.inf, "acute") == pytest.approx(
        (4.25, 3.25), abs=1e-12
    )


def test_predicted_rates_grave_energy_exponent():
    fp = solve_beta(1.3, 0.5)
    l2, en = predicted_rates(fp, False, math.inf, "grave")
    assert l2 == pytest.approx(2.25, abs=1e-12)
    assert en == pytest.approx(0.95 + 1.0, abs=1e-12)
    with pytest.raises(ValueError):
        predicted_rates(fp, False, math.inf, "sideways")


def test_predicted_rates_finite_data_regularity():
    fp = solve_beta(1.3, 0.5)
    # s_f below the structural ceiling becomes binding
    l2, en = predicted_rates(fp, False, 0.4, "acute")
    assert l2 == pytest.approx(0.4 + 1.3, abs=1e-12)
    assert en == pytest.approx(0.4 + 0.3, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1.01, max_value=1.99), st.floats(min_value=0.0, max_value=1.0))
def test_round_trip_property(alpha, r):
    fp = solve_beta(alpha, r)
    assert abs(beta_to_r(alpha, fp.beta) - r) < 1e-9
    assert fp.c_star_star < 0
