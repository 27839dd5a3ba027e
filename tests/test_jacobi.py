import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_jacobi, roots_jacobi

from fracspec import JacobiParams, eval_Ghat_table, gauss_jacobi, solve_beta
from fracspec.jacobi import _ENTRY_BYTES, _MEMO_BYTES, _memo
from reference_math import (
    beta,
    deriv_G,
    eval_G,
    eval_G_table,
    norm_G,
    norm_ratio_sq,
    weighted_deriv_identity_check,
)


def test_params_validate_exponents():
    JacobiParams(-0.99, 2.0)
    with pytest.raises(ValueError):
        JacobiParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        JacobiParams(0.0, -1.3)


def test_eval_G_frozen_values():
    # reference values from an independent Jacobi evaluation
    assert eval_G((0, 0), 0, 0.7) == 1.0
    assert abs(eval_G((0.4, 0.7), 3, 0.3) - 0.6259995000000008) < 1e-13
    assert abs(eval_G((0.0, 0.0), 5, 0.62) - 0.33531056639999995) < 1e-13
    assert abs(eval_G((-0.35, -0.35), 4, 0.81) - (-0.2936621959566254)) < 1e-13
    assert abs(eval_G((0.75, 0.75), 2, 0.5) - (-0.6875)) < 1e-14


def test_eval_G_against_library_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = rng.uniform(-0.9, 2.9)
        b = rng.uniform(-0.9, 2.9)
        n = int(rng.integers(0, 40))
        x = rng.uniform(0.0, 1.0)
        want = float(eval_jacobi(n, a, b, 2.0 * x - 1.0))
        assert abs(eval_G((a, b), n, x) - want) <= 1e-10 * max(1.0, abs(want))


def test_eval_G_table_matches_scalar():
    xs = np.linspace(0.0, 1.0, 11)
    V = eval_G_table((0.3, 0.8), 6, xs)
    assert V.shape == (11, 7)
    for n in range(7):
        for x, v in zip(xs, V[:, n]):
            assert abs(v - eval_G((0.3, 0.8), n, x)) < 1e-13


def test_norm_G_frozen_and_symmetric():
    assert abs(norm_G((0.75, 0.75), 0) - 0.5041467300679373) < 1e-15
    assert abs(norm_G((0.65, 0.65), 0) - 0.5494815854747443) < 1e-15
    assert abs(norm_G((0.3, 0.8), 4) - 0.30727586563227394) < 1e-15
    for j in (0, 1, 5, 20):
        assert norm_G((0.3, 0.8), j) == pytest.approx(norm_G((0.8, 0.3), j), rel=1e-15)


def test_norm_G_matches_quadrature():
    for (a, b) in [(0.0, 0.0), (0.65, 0.65), (-0.25, 0.5)]:
        rule = gauss_jacobi((a, b), 24)
        V = eval_G_table((a, b), 8, rule.nodes)
        for j in range(9):
            quad = math.sqrt(float(rule.weights @ V[:, j] ** 2))
            assert abs(quad - norm_G((a, b), j)) <= 1e-12 * quad


def test_orthonormal_table():
    rule = gauss_jacobi((0.55, 0.95), 30)
    V = eval_Ghat_table((0.55, 0.95), 10, rule.nodes)
    G = (V * rule.weights[:, None]).T @ V
    assert np.max(np.abs(G - np.eye(11))) < 1e-12


def test_orthonormal_table_at_exponent_sum_minus_one():
    # a + b = -1: the classical norm formula would take log_gamma(0) at j = 0
    rule = gauss_jacobi((-0.3, -0.7), 40)
    V = eval_Ghat_table((-0.3, -0.7), 12, rule.nodes)
    G = (V * rule.weights[:, None]).T @ V
    assert np.max(np.abs(G - np.eye(13))) < 1e-13


def test_orthonormal_table_matches_classical_oracle():
    x = np.linspace(0.0, 1.0, 101)
    for (a, b) in _solver_rule_exponents():
        if a + b <= -1.0:
            continue  # norm_G is undefined there
        for N in (0, 1, 12, 40, 84):
            want = eval_G_table((a, b), N, x) / [norm_G((a, b), j) for j in range(N + 1)]
            got = eval_Ghat_table((a, b), N, x)
            assert got.shape == (x.size, N + 1)
            assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(want), axis=0))


def test_norm_ratio_sq():
    for alpha in (1.3, 1.5, 1.8):
        beta_ = alpha / 2.0
        for j in (0, 1, 7):
            want = norm_G((alpha - beta_, beta_), j) ** 2
            want /= norm_G((beta_ - 1.0, alpha - beta_ - 1.0), j + 1) ** 2
            got = norm_ratio_sq(alpha, beta_, j)
            assert abs(got - want) < 1e-13
            assert 0.5 <= got <= 1.0
    assert norm_ratio_sq(1.5, 0.75, 0) == pytest.approx(1.0 / 1.5)


def test_deriv_G_order_above_degree_is_zero():
    assert deriv_G((0.5, 0.5), 3, 4, 0.3) == 0.0
    assert deriv_G((0.5, 0.5), 0, 1, 0.3) == 0.0


def test_deriv_G_first_order_shifts_family():
    # d/dx G_n^{(a,b)} = (n+a+b+1) G_{n-1}^{(a+1,b+1)} on the unit interval
    for (a, b, n) in [(0.4, 0.6, 7), (0.0, 0.0, 3), (1.5, 0.2, 9)]:
        for x in (0.2, 0.5, 0.9):
            want = (n + a + b + 1) * eval_G((a + 1, b + 1), n - 1, x)
            assert abs(deriv_G((a, b), n, 1, x) - want) < 1e-11 * max(1, abs(want))


def test_deriv_G_finite_difference():
    h = 1e-6
    for (a, b, n, x) in [(0.4, 0.6, 7, 0.37), (1.2, 0.3, 5, 0.71)]:
        fd = (eval_G((a, b), n, x + h) - eval_G((a, b), n, x - h)) / (2 * h)
        assert abs(deriv_G((a, b), n, 1, x) - fd) < 1e-7 * max(1, abs(fd))
    h = 1e-4
    for (a, b, n, x) in [(0.4, 0.6, 7, 0.37), (0.8, 0.8, 6, 0.52)]:
        fd = (
            eval_G((a, b), n, x + h)
            - 2 * eval_G((a, b), n, x)
            + eval_G((a, b), n, x - h)
        ) / h**2
        assert abs(deriv_G((a, b), n, 2, x) - fd) < 1e-5 * max(1, abs(fd))


def test_weighted_derivative_identity():
    for (a, b, n, k) in [
        (0.5, 0.3, 5, 1),
        (0.5, 0.3, 5, 2),
        (1.2, 0.7, 8, 1),
        (0.35, 0.65, 6, 2),
        (0.75, 0.75, 4, 0),
    ]:
        for x in (0.2, 0.5, 0.8):
            assert weighted_deriv_identity_check((a, b), n, k, x) < 1e-6


def test_gauss_jacobi_single_point():
    # one-point rule sits at the weight's centroid (b+1)/(a+b+2)
    for (a, b) in [(0.0, 0.0), (0.5, 1.5), (-0.35, -0.35)]:
        rule = gauss_jacobi((a, b), 1)
        assert abs(rule.nodes[0] - (b + 1.0) / (a + b + 2.0)) < 1e-14
        assert abs(rule.weights[0] - beta(a + 1, b + 1)) < 1e-14
    rule = gauss_jacobi((0, 0), 1)
    assert abs(rule.nodes[0] - 0.5) < 1e-15 and abs(rule.weights[0] - 1.0) < 1e-15


def test_gauss_jacobi_root_exactly_on_scan_grid():
    # a = b = -0.75, n = 1: P_1 rounds to exactly zero at the root t = 0,
    # which a search for strict sign changes on a grid through t = 0 misses
    rule = gauss_jacobi((-0.75, -0.75), 1)
    assert abs(rule.nodes[0] - 0.5) < 1e-15
    assert abs(rule.weights[0] - beta(0.25, 0.25)) < 1e-14 * beta(0.25, 0.25)


def test_gauss_jacobi_weight_sum():
    for (a, b) in [(0.0, 0.0), (0.65, 0.65), (-0.35, -0.35), (2.5, 1.0), (3.0, 3.0)]:
        for n in (1, 2, 7, 32, 64):
            rule = gauss_jacobi((a, b), n)
            total = beta(a + 1, b + 1)
            assert abs(rule.weights.sum() - total) <= 1e-12 * total
            assert np.all(rule.weights > 0)
            assert np.all((rule.nodes > 0) & (rule.nodes < 1))
            assert np.all(np.diff(rule.nodes) > 0)


def test_gauss_jacobi_moment_exactness():
    for (a, b) in [(0.0, 0.0), (0.5, 0.5), (-0.35, -0.35), (0.65, 0.65)]:
        for n in (1, 3, 10, 20):
            rule = gauss_jacobi((a, b), n)
            for m in range(2 * n):
                want = beta(a + 1, b + m + 1)
                got = float(rule.weights @ rule.nodes**m)
                assert abs(got - want) <= 1e-10 * abs(want)


def test_gauss_jacobi_against_library_oracle():
    for (a, b) in [(0.0, 0.0), (0.65, 0.65), (-0.35, -0.35), (2.0, 0.5)]:
        for n in (2, 5, 20, 64, 128):
            rule = gauss_jacobi((a, b), n)
            t, w = roots_jacobi(n, a, b)
            assert np.max(np.abs(rule.nodes - (t + 1) / 2)) < 1e-13
            ref = w / 2 ** (a + b + 1)
            # edge weights at large n carry a few extra ulps of roundoff in
            # both implementations, so the pointwise tolerance is relaxed
            assert np.max(np.abs(rule.weights / ref - 1)) < 1e-9


def _solver_rule_exponents():
    # the weight exponents assembly builds rules for: B0 acute and grave,
    # B1, B2 and rhs, across the (alpha, r) window up to its edges
    pairs = []
    for alpha in (1.001, 1.05, 1.5, 1.95, 1.999):
        for r in (0.0, 0.5, 1.0):
            b = solve_beta(alpha, r).beta
            pairs += [
                (alpha - b - 1.0, b - 1.0),
                (b - 1.0, alpha - b - 1.0),
                (alpha - 1.0, alpha - 1.0),
                (alpha, alpha),
                (b, alpha - b),
            ]
    return pairs + [(-0.3, -0.7)]  # a + b = -1


def test_gauss_jacobi_solver_exponents_against_library_oracle():
    for (a, b) in _solver_rule_exponents():
        total = beta(a + 1, b + 1)
        for n in (1, 2, 28, 84, 148):
            rule = gauss_jacobi((a, b), n)
            with np.errstate(invalid="ignore"):
                # at a + b = -1 the oracle forms a 0/0 that np.where discards
                t, _ = roots_jacobi(n, a, b)
            assert np.max(np.abs(rule.nodes - (t + 1) / 2)) < 1e-13
            assert abs(rule.weights.sum() - total) <= 1e-9 * total
            assert np.all(rule.weights > 0)
            assert 0 < rule.nodes[0] and rule.nodes[-1] < 1
            assert np.all(np.diff(rule.nodes) > 0)


@pytest.mark.parametrize("a, b, tol", [(0.0, -0.999, 1e-12), (-0.999, 0.0, 1e-11)])
def test_gauss_jacobi_weight_sum_exponent_near_minus_one(a, b, tol):
    # the largest weight sits within 5e-8 of the singular endpoint, where it
    # is most sensitive to the rounding of its node
    rule = gauss_jacobi((a, b), 148)
    total = beta(a + 1, b + 1)
    assert abs(rule.weights.sum() - total) <= tol * total


def test_gauss_jacobi_contract_sizes():
    rule = gauss_jacobi((0.3, 0.3), 256)
    assert rule.nodes.size == 256
    with pytest.raises(ValueError):
        gauss_jacobi((0.0, 0.0), 0)


def test_gauss_jacobi_memo_shares_read_only_rules():
    first = gauss_jacobi((0.35, -0.65), 28)
    again = gauss_jacobi((0.35, -0.65), 28)
    assert np.array_equal(first.nodes, again.nodes)
    assert np.array_equal(first.weights, again.weights)
    # a shared rule cannot be corrupted by one of its callers
    for arr in (again.nodes, again.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_gauss_jacobi_memo_key_is_exact():
    _memo.clear()
    first = gauss_jacobi((0.3, 0.7), 9)
    # equal exponents, not the same objects, find it
    assert gauss_jacobi(JacobiParams(0.3, 0.7), 9) is first
    assert gauss_jacobi((0.3, 0.7), np.int64(9)) is first
    assert len(_memo) == 1 and _memo.nbytes == 16 * 9 + _ENTRY_BYTES
    # exponents a rounding apart name a different rule, not the kept one
    assert gauss_jacobi((0.3, np.nextafter(0.7, 1.0)), 9) is not first
    assert len(_memo) == 2


def test_rule_arguments_are_checked_before_the_memo():
    # 9.0 would find the kept 9-point rule, were the size not checked first
    gauss_jacobi((0.3, 0.7), 9)
    with pytest.raises(TypeError):
        gauss_jacobi((0.3, 0.7), 9.0)
    with pytest.raises(ValueError, match="at least one point"):
        gauss_jacobi((0.3, 0.7), 0)


def test_gauss_jacobi_memo_is_bounded():
    n = 8
    charge = 16 * n + _ENTRY_BYTES
    count = _MEMO_BYTES // charge
    _memo.clear()
    rules = [gauss_jacobi((i / count, 0.5), n) for i in range(count + 1)]
    assert len(_memo) == count and _memo.nbytes == count * charge
    for i, rule in enumerate(rules[1:], 1):
        assert gauss_jacobi((i / count, 0.5), n) is rule
    # the least recently used rule went first
    assert gauss_jacobi((0.0, 0.5), n) is not rules[0]


def test_rules_and_tables_share_one_budget():
    # four such tables fill the budget exactly, so the fourth evicts the
    # rule kept before them, the oldest entry
    N, m = 126, 511
    assert 4 * ((N + 2) * 8 * m + _ENTRY_BYTES) == _MEMO_BYTES == 2 << 20
    _memo.clear()
    rule = gauss_jacobi((0.3, 0.7), 9)
    xs = [np.linspace(0.0, 1.0, m) ** (i + 1) for i in range(4)]
    tables = [eval_Ghat_table((0.0, 0.0), N, x) for x in xs]
    assert len(_memo) == 4 and _memo.nbytes == _MEMO_BYTES
    assert all(eval_Ghat_table((0.0, 0.0), N, x) is t for x, t in zip(xs, tables))
    again = gauss_jacobi((0.3, 0.7), 9)
    assert again is not rule
    assert again.nodes.tobytes() == rule.nodes.tobytes()
    assert again.weights.tobytes() == rule.weights.tobytes()
    for arr in (again.nodes, again.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_table_memo_shares_read_only_tables():
    nodes = gauss_jacobi((0.35, -0.65), 28).nodes
    _memo.clear()
    first = eval_Ghat_table((0.35, -0.65), 12, nodes)
    # equal exponents and equal points, not the same objects, find it
    again = eval_Ghat_table(JacobiParams(0.35, -0.65), 12, np.array(nodes))
    assert again is first
    # a shared table cannot be corrupted by one of its callers
    with pytest.raises(ValueError):
        again[0, 0] = 0.5
    _memo.clear()
    fresh = eval_Ghat_table((0.35, -0.65), 12, nodes)
    assert fresh is not first
    assert fresh.tobytes() == first.tobytes()
    # the kept table is the transpose of the row-contiguous build, not a
    # contiguous copy, so every product with it rounds as before
    assert first.strides == fresh.strides == (8, 8 * 28)


def test_table_memo_key_is_exact():
    x = np.linspace(0.1, 0.9, 9)
    _memo.clear()
    first = eval_Ghat_table((0.3, 0.7), 6, x)
    # a node, an exponent or the degree one step apart is a different table
    moved = x.copy()
    moved[4] = np.nextafter(x[4], 1.0)
    assert eval_Ghat_table((0.3, 0.7), 6, moved) is not first
    assert eval_Ghat_table((0.3, np.nextafter(0.7, 1.0)), 6, x) is not first
    assert eval_Ghat_table((0.3, 0.7), 5, x) is not first
    assert len(_memo) == 4
    assert eval_Ghat_table((0.3, 0.7), 6, x) is first


def test_table_arguments_are_checked_before_the_memo():
    # each call below has a key that the valid call put in the memo, were
    # the arguments not checked first
    x = np.linspace(0.1, 0.9, 4)
    eval_Ghat_table((0.3, 0.7), 2, x)
    with pytest.raises(TypeError):
        eval_Ghat_table((0.3, 0.7), 2.0, x)
    with pytest.raises(ValueError, match="N >= 0"):
        eval_Ghat_table((0.3, 0.7), -1, x)
    with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
        eval_Ghat_table((0.3, 0.7), 2, x.reshape(2, 2))


def test_table_memo_evicts_the_oldest_past_its_budget():
    N = 127
    m = _MEMO_BYTES // (4 * 8 * (N + 2)) + 1
    charge = (N + 2) * 8 * m + _ENTRY_BYTES
    assert _MEMO_BYTES == 2 << 20
    assert 3 * charge <= _MEMO_BYTES < 4 * charge
    _memo.clear()
    xs = [np.linspace(0.0, 1.0, m) ** (i + 1) for i in range(4)]
    tables = [eval_Ghat_table((0.0, 0.0), N, x) for x in xs]
    assert len(_memo) == 3 and _memo.nbytes == 3 * charge
    for x, table in zip(xs[1:], tables[1:]):
        assert eval_Ghat_table((0.0, 0.0), N, x) is table
    assert eval_Ghat_table((0.0, 0.0), N, xs[0]) is not tables[0]


def test_table_over_the_budget_is_returned_but_not_kept():
    x = np.linspace(0.0, 1.0, 10001)
    _memo.clear()
    big = eval_Ghat_table((0.3, 0.7), 40, x)
    assert big.nbytes > _MEMO_BYTES
    assert big.shape == (10001, 41) and not big.flags.writeable
    assert len(_memo) == 0 and _memo.nbytes == 0
    assert eval_Ghat_table((0.3, 0.7), 40, x) is not big


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-0.9, max_value=3.0),
    st.floats(min_value=-0.9, max_value=3.0),
    st.integers(min_value=1, max_value=40),
)
def test_gauss_jacobi_property_weight_sum(a, b, n):
    rule = gauss_jacobi((a, b), n)
    total = beta(a + 1, b + 1)
    assert abs(rule.weights.sum() - total) <= 1e-11 * total
    assert np.all(rule.weights > 0)
