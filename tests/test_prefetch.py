"""A solve builds its rules and basis tables ahead of the blocks, each kind
in one stacked recurrence (jacobi._rules, jacobi._tables, jacobi.prefetch).

The stacks must give every rule and table bit for bit, strides included, as
the one-at-a-time loops in reference_math do, and the blocks must then find
everything in the memo.
"""

import math

import numpy as np
import pytest

import fracspec.assembly
import fracspec.jacobi
from fracspec import ProblemSpec, solve, solve_beta
from fracspec.jacobi import (
    _ENTRY_BYTES,
    _MEMO_BYTES,
    JacobiParams,
    QuadratureError,
    _memo,
    _rules,
    _tables,
    gauss_jacobi,
    prefetch,
)
from reference_math import Ghat_table_loop, gauss_jacobi_loop

# two exponents near -1, whose largest weight is the most sensitive to
# rounding, and three of the solver's kind
WEIGHTS = [
    JacobiParams(0.0, -0.999),
    JacobiParams(-0.999, 0.0),
    JacobiParams(0.3, 0.7),
    JacobiParams(-0.35, -0.35),
    JacobiParams(1.3, 1.3),
]


def _spec(N, alpha=1.3, r=0.4):
    return ProblemSpec(fp=solve_beta(alpha, r), variant="acute",
                       k=lambda x: 1.0 + 2.0 * x, b=np.exp,
                       c=lambda x: 5.0 + np.sin(x), f=np.ones_like, N=N)


def _charges():
    return sum(charge for _, charge in _memo._entries.values())


def _root(arr):
    while arr.base is not None:
        arr = arr.base
    return arr


# at n = 600 the stack of five takes X - d_k in several chunks of steps
@pytest.mark.parametrize("n", [1, 2, 28, 84, 148, 600])
def test_stacked_rules_match_one_at_a_time(n):
    for p, rule, alone in zip(WEIGHTS, _rules(WEIGHTS, n),
                              [_rules([p], n)[0] for p in WEIGHTS]):
        nodes, weights = gauss_jacobi_loop(p, n)
        for got in (rule, alone):
            assert got.params == p
            assert np.array_equal(got.nodes, nodes)
            assert np.array_equal(got.weights, weights)
            # each rule owns its arrays, so a kept rule holds no other
            for arr in (got.nodes, got.weights):
                assert _root(arr) is arr and arr.strides == (8,)
                assert not arr.flags.writeable


@pytest.mark.parametrize("N", [0, 1, 12, 64])
def test_stacked_tables_match_one_at_a_time(N):
    # a solve's tables: degrees N and N+1 on the nodes of different rules
    rules = _rules(WEIGHTS, 84)
    jobs = [(p, N + i % 2, rule.nodes) for i, (p, rule) in enumerate(zip(WEIGHTS, rules))]
    for (p, deg, x), table in zip(jobs, _tables(jobs)):
        want = Ghat_table_loop(p, deg, x)
        (alone,) = _tables([(p, deg, x)])
        for got in (table, alone):
            assert np.array_equal(got, want)
            assert got.shape == want.shape and got.strides == want.strides == (8, 8 * 84)
            assert not got.flags.writeable
            # a table of a stack is its own copy, and a lone table is built
            # in place, never copied out of a larger array
            assert _root(got).size == got.size


def _sweep_weights(count=200, seed=23):
    """count seeded weights with exponents in (-1, 3), about one in five
    with an exponent within 1e-3 of -1, cut into stacks of one to six."""
    rng = np.random.default_rng(seed)
    ab = rng.uniform(-1.0, 3.0, size=(count, 2))
    near = rng.random((count, 2)) < 0.1
    ab[near] = -1.0 + rng.uniform(1e-6, 1e-3, size=near.sum())
    ps = [JacobiParams(float(a), float(b)) for a, b in ab]
    cuts = np.cumsum(rng.integers(1, 7, size=count))
    return rng, [ps[i:j] for i, j in zip([0, *cuts], cuts) if i < count]


@pytest.mark.parametrize("n", [1, 2, 3, 28, 84, 148])
def test_seeded_sweep_of_rules_matches_one_at_a_time(n):
    _, stacks = _sweep_weights()
    for ps in stacks:
        for p, rule in zip(ps, _rules(ps, n)):
            nodes, weights = gauss_jacobi_loop(p, n)
            assert np.array_equal(rule.nodes, nodes), p
            assert np.array_equal(rule.weights, weights), p


def test_seeded_sweep_of_tables_matches_one_at_a_time():
    # each stack mixes the degrees, so rows run on past a job's own N
    rng, stacks = _sweep_weights()
    for ps in stacks:
        x = np.sort(rng.uniform(0.0, 1.0, size=int(rng.integers(1, 40))))
        jobs = [(p, int(rng.choice([0, 1, 12, 64])), x) for p in ps]
        for (p, N, _), table in zip(jobs, _tables(jobs)):
            want = Ghat_table_loop(p, N, x)
            assert np.array_equal(table, want), (p, N)
            assert table.strides == want.strides


def _record_batches(monkeypatch):
    rule_batches, table_batches = [], []

    def rules(ps, n):
        rule_batches.append([(p, n) for p in ps])
        return _rules(ps, n)

    def tables(jobs):
        table_batches.append([(p, N, x.tobytes()) for p, N, x in jobs])
        return _tables(jobs)

    monkeypatch.setattr(fracspec.jacobi, "_rules", rules)
    monkeypatch.setattr(fracspec.jacobi, "_tables", tables)
    return rule_batches, table_batches


def test_cold_solve_builds_one_rule_batch_and_one_table_batch(monkeypatch):
    spec = _spec(16)
    _memo.clear()
    rule_batches, table_batches = _record_batches(monkeypatch)
    cold = solve(spec)
    assert [len(b) for b in rule_batches] == [4]
    assert [len(b) for b in table_batches] == [6]
    warm = solve(spec)
    assert len(rule_batches) == len(table_batches) == 1
    assert len(_memo) == 10
    # the blocks building their own rules and tables give the same bits
    monkeypatch.setattr(fracspec.assembly, "prefetch", lambda n, blocks: None)
    _memo.clear()
    alone = solve(spec)
    assert [len(b) for b in rule_batches] == [4, 1, 1, 1, 1]
    for sol in (warm, alone):
        assert np.array_equal(sol.phi.coeffs, cold.phi.coeffs)
        assert sol.diagnostics == cold.diagnostics


def test_warm_look_ups_leave_the_memo_order_alone():
    spec = _spec(8)
    _memo.clear()
    solve(spec)
    order = list(_memo._entries)
    rules = [key for key in order if len(key) == 2]
    prefetch(spec.q, [(key[0], ()) for key in reversed(rules)])
    assert list(_memo._entries) == order


def test_a_rule_rebuilt_finds_its_tables_kept(monkeypatch):
    # a rule can go before the tables on its nodes, which its blocks used
    # after it; built again it has the same nodes, so they still hit
    spec = _spec(8)
    _memo.clear()
    solve(spec)
    rule_key = next(key for key in _memo._entries if len(key) == 2)
    _memo.nbytes -= _memo._entries.pop(rule_key)[1]
    rule_batches, table_batches = _record_batches(monkeypatch)
    solve(spec)
    assert rule_batches == [[rule_key]] and table_batches == []
    assert len(_memo) == 10 and _memo.nbytes == _charges()


@pytest.mark.parametrize("N", [200, 510])
def test_tables_past_the_budget_are_built_once_per_solve(monkeypatch, N):
    # at N = 200 each table fits the budget but the six together do not; at
    # N = 510 no table fits at all.  Built ahead, some would be evicted or
    # never kept before their block asked, and built again.
    spec = _spec(N)
    table_bytes = (N + 2) * 8 * spec.q + _ENTRY_BYTES
    assert 6 * table_bytes > _MEMO_BYTES
    _memo.clear()
    rule_batches, table_batches = _record_batches(monkeypatch)
    solve(spec)
    rules = [key for batch in rule_batches for key in batch]
    tables = [key for batch in table_batches for key in batch]
    assert len(rules) == len(set(rules)) == 4
    assert len(tables) == len(set(tables)) == 6
    assert _memo.nbytes == _charges() <= _MEMO_BYTES


def test_failed_rule_batch_keeps_no_failing_rule(monkeypatch):
    _memo.clear()
    kept = gauss_jacobi((0.3, 0.7), 9)
    bad = JacobiParams(0.25, 0.5)
    mu0 = fracspec.jacobi._mu0
    monkeypatch.setattr(fracspec.jacobi, "_mu0",
                        lambda a, b: math.nan if (a, b) == (0.25, 0.5) else mu0(a, b))
    blocks = [(JacobiParams(1.3, 1.3), [(JacobiParams(0.3, 0.7), 8)]), (bad, [])]
    with pytest.raises(QuadratureError, match=r"n=30, \(a=0.25, b=0.5\)"):
        prefetch(30, blocks)
    assert _memo.peek((bad, 30)) is None
    assert _memo.peek((JacobiParams(0.3, 0.7), 9)) is kept
    assert _memo.nbytes == _charges() == 16 * 9 + _ENTRY_BYTES
    # a single build names its rule the same way
    with pytest.raises(QuadratureError, match=r"n=12, \(a=0.25, b=0.5\)"):
        gauss_jacobi(bad, 12)
    assert _memo.nbytes == _charges()


def test_failed_eigenvalues_raise_and_keep_nothing(monkeypatch):
    _memo.clear()
    monkeypatch.setattr(fracspec.jacobi, "dstevd", lambda d, e, compute_v: (d, None, 3))
    with pytest.raises(QuadratureError, match=r"dstevd failed with info=3 for n=12, \(a=0.25, b=0.5\)"):
        gauss_jacobi((0.25, 0.5), 12)
    assert len(_memo) == 0
    # a one-point rule's node is its d_0, with no call to LAPACK
    assert gauss_jacobi((0.25, 0.5), 1).nodes[0] == (0.5 + 1.0) / (0.25 + 0.5 + 2.0)
