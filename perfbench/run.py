"""fracspec benchmark: one process, one client in a closed loop.

    python3 perfbench/run.py --workload {solve_fresh,study_paper,cli_compare}
                             --seed N --seconds S --trace {0,1}

Ops run back to back in whole cycles of the workload until the time spent
in ops reaches --seconds.  Every answer is checked (see gate.py) and the
case-A N=40 expansion is checked against its pinned values after the loop.
With --trace 0 the run reports the end-to-end metrics.  Their times are at
reference speed: each is scaled by the host's speed, sampled during it with
a fixed reference loop (see speed.py); the wall-clock figures are printed
and recorded beside them.  With --trace 1 it alternates untraced and traced
cycles, samples no speed and reports per-layer metrics from the traced ones
(see tracing.py).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; a record of the run (the
environment, every op's inputs, latency and sampled speed, all layer totals)
is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import env

SETUP_PROBES = 5
TAIL_BEYOND = 10
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
WALL_LIMIT_S = 120.0  # stop early, mid-cycle, rather than overrun the exit deadline
SPANS_KEPT_OPS = 256  # spans written out for the first ops only; totals cover all

END_TO_END = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "jacobi.gauss_jacobi.calls": "count",
    "jacobi.gauss_jacobi.distinct": "count",
    "jacobi.gauss_jacobi.rebuild_ratio": "ratio",
    "jacobi.gauss_jacobi.self_ms": "ms",
    "jacobi.gauss_jacobi.self_share": "ratio",
    "jacobi.gauss_jacobi.nodes": "count",
    "jacobi.eval_Ghat_table.calls": "count",
    "jacobi.eval_Ghat_table.self_ms": "ms",
    "jacobi.eval_Ghat_table.cells": "count",
    "specfun.log_gamma.calls": "count",
    "fracparams.solve_beta.self_ms": "ms",
    "fracparams.mu.calls": "count",
    "coeffexpr.parse.self_ms": "ms",
    "coeffexpr.eval.self_ms": "ms",
    "coeffexpr.eval.points": "count",
    "assembly.assemble_B0.self_ms": "ms",
    "assembly.assemble_B1.self_ms": "ms",
    "assembly.assemble_B2.self_ms": "ms",
    "assembly.assemble_rhs.self_ms": "ms",
    "assembly.k_floor.self_ms": "ms",
    "assembly.composite_rule.calls": "count",
    "assembly.matmul_flops": "flop",
    "linsolve.factorizations": "count",
    "linsolve.lu_solve.self_ms": "ms",
    "linsolve.condition_estimate.self_ms": "ms",
    "spaces.eval_solution.points": "count",
    "spaces.error_norms.calls": "count",
    "cli.output_bytes": "bytes",
    "solver.solve.calls": "count",
    "solver.solve.self_ms": "ms",
    "bench.traced_op_ms": "ms",
    "bench.trace_overhead": "ratio",
}

# One rule decides which layer figures are JSON metrics: a time must measure
# work on every workload.  The driver rejects a time that reads exactly the
# same on every run, and a layer that a workload never calls reads 0 ms on
# every run of it.  The self times of these layers, each called by only one
# workload, are therefore printed and written to the run record instead.
# Counts are exact and constant on a workload by nature (solver.solve.calls
# is 1 on every solve_fresh run); a count of 0, such as cli.output_bytes on
# solve_fresh, is one such constant and stays a JSON metric.
WORKLOAD_LAYERS = (
    "cli",
    "spaces.eval_solution",
    "spaces.error_norms",
    "experiments.run_convergence",
    "experiments.run_comparison",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def percentile(xs: list[float], p: float) -> float:
    """Linear interpolation between closest ranks of sorted xs; p=50 is the
    median."""
    pos = p / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile of TAIL_LADDER with at least
    TAIL_BEYOND samples beyond it, that percentile, and the number of samples
    beyond.  When even the median has fewer, the median is reported with its
    count.  A fixed ladder keeps the percentile the same from run to run
    while the number of ops per run stays in one band."""
    xs = sorted(latencies)
    best = None
    for p in TAIL_LADDER:
        value = percentile(xs, p)
        beyond = sum(1 for x in xs if x > value)
        if best is None or beyond >= TAIL_BEYOND:
            best = (value, p, beyond)
    return best


def measure_setup(args, sampler) -> list[tuple[float, float]]:
    """Wall time (s) of fresh interpreters that import fracspec and generate
    the first cycle of inputs, running no op, each with the host's speed
    sampled while it ran.  This process and the child share one CPU for the
    duration, so the samples see the speed of the CPU the child runs on, and
    the time they take from the child is taken out of its wall time."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    runs = []
    try:
        for _ in range(SETUP_PROBES):
            stolen0 = sampler.stolen
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=env.ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
            t1 = time.perf_counter()
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
            runs.append(((t1 - t0) - (sampler.stolen - stolen0), sampler.speed(t0, t1)))
    finally:
        os.sched_setaffinity(0, cpus)
    return runs


def run_loop(wl, seconds: float, tracer, sampler):
    """Closed loop over whole cycles; with a tracer, odd cycles are traced.
    With a sampler (speed.py), the time it spends inside an op is taken out
    of the op's latency, and the op is charged the host's speed sampled
    during it."""
    ops = []  # per op: record, latency, speed, traced, errors
    windows = []  # per op: wall clock at its start and end
    busy = 0.0
    cycle = 0
    wall0 = time.perf_counter()
    while True:
        traced = tracer is not None and cycle % 2 == 1
        if traced:
            tracer.install()
            tracer.begin(tracer.GEN_OP)
        batch = wl.next_cycle()
        if traced:
            tracer.end()
        for op in batch:
            if traced:
                tracer.begin(len(ops))
            stolen0 = sampler.stolen if sampler else 0.0
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
                errs = None
            except Exception as exc:  # a failed op is counted, the loop goes on
                errs = [f"{type(exc).__name__}: {exc}"]
            t1 = time.perf_counter()
            dt = (t1 - t0) - ((sampler.stolen - stolen0) if sampler else 0.0)
            if traced:
                tracer.end()
            if errs is None:
                errs = wl.check(op, out)
            busy += dt
            ops.append({"inputs": op.record, "latency_ms": dt * 1e3, "traced": traced,
                        "errors": errs})
            windows.append((t0, t1))
            if traced:
                tracer.counts["cli.output_bytes"] += op.record.get("output_bytes", 0)
            if time.perf_counter() - wall0 > WALL_LIMIT_S:
                break
        if traced:
            tracer.uninstall()
        cycle += 1
        if time.perf_counter() - wall0 > WALL_LIMIT_S:
            break
        if busy >= seconds and (tracer is None or cycle % 2 == 0):
            break
    if sampler:
        for o, (t0, t1) in zip(ops, windows):
            o["speed"] = sampler.speed(t0, t1)
            o["ref_ms"] = o["latency_ms"] * o["speed"]
    return ops


def canary(fs, gate, workloads, ref) -> list[str]:
    try:
        sol = fs.solver.solve(workloads.canary_spec(fs))
    except Exception as exc:  # reported as a failed check, like a failed op
        return [f"{type(exc).__name__}: {exc}"]
    return gate.check_solution(sol) + gate.check_pinned(sol.phi.coeffs, ref["canary"])


def end_to_end(ops, setup_runs) -> tuple[dict, dict]:
    """Times are at reference speed (speed.py); the wall-clock figures are
    kept in the extras."""
    ref = [o["ref_ms"] for o in ops]
    wall = [o["latency_ms"] for o in ops]
    t, pct, beyond = tail(ref)
    metrics = {
        "op_ms_p50": percentile(sorted(ref), 50.0),
        "op_ms_tail": t,
        "ops_per_s": len(ref) / (sum(ref) / 1e3),
        "setup_s": statistics.median(dt * rate for dt, rate in setup_runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"tail_percentile": pct, "tail_samples_beyond": beyond, "samples": len(ref),
             "wall.op_ms_p50": percentile(sorted(wall), 50.0),
             "wall.ops_per_s": len(wall) / (sum(wall) / 1e3),
             "wall.setup_s": statistics.median(dt for dt, _ in setup_runs),
             "speed_p50": statistics.median(o["speed"] for o in ops),
             "setup_runs": [{"wall_s": dt, "speed": rate} for dt, rate in setup_runs]}
    return metrics, extra


def per_layer(ops, tracer) -> tuple[dict, dict]:
    traced = [o["latency_ms"] for o in ops if o["traced"]]
    plain = [o["latency_ms"] for o in ops if not o["traced"]]
    # a run cut by WALL_LIMIT_S in its first cycle has no traced ops
    n = max(len(traced), 1)
    selfs = tracer.self_times_ms()
    c = tracer.counts
    calls, distinct = tracer.rule_traffic()
    op_ms = sum(traced) / n
    plain_ms = sum(plain) / max(len(plain), 1)
    metrics = {
        "jacobi.gauss_jacobi.calls": calls / n,
        "jacobi.gauss_jacobi.distinct": distinct / n,
        "jacobi.gauss_jacobi.rebuild_ratio": (calls - distinct) / calls if calls else 0.0,
        "jacobi.gauss_jacobi.self_ms": selfs.get("jacobi.gauss_jacobi", 0.0) / n,
        "jacobi.gauss_jacobi.self_share": selfs.get("jacobi.gauss_jacobi", 0.0) / (op_ms * n),
        "bench.traced_op_ms": op_ms,
        "bench.trace_overhead": op_ms / plain_ms if plain_ms else 0.0,
    }
    for name in PER_LAYER:
        if name in metrics:
            continue
        if name.endswith(".self_ms"):
            metrics[name] = selfs.get(name[: -len(".self_ms")], 0.0) / n
        else:
            metrics[name] = c.get(name, 0.0) / n
    metrics = {name: metrics[name] for name in PER_LAYER}
    extra = {f"{layer}.self_ms": selfs.get(layer, 0.0) / n for layer in WORKLOAD_LAYERS}
    extra.update({"traced_ops": len(traced), "untraced_ops": len(plain),
                  "all_self_ms_per_op": {k: v / n for k, v in sorted(selfs.items())},
                  "all_counts_per_op": {k: v / n for k, v in sorted(c.items())}})
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = env.cap_blas_threads()
    try:
        fs = env.import_fracspec()
    except ImportError as exc:
        print(f"perfbench: cannot import fracspec from this checkout: {exc}", file=sys.stderr)
        return 2

    import numpy as np

    import gate
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ref = json.loads(env.REFERENCE.read_text())
    workdir = env.OUT / f"tmp-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](fs, np.random.default_rng(args.seed), ref, str(workdir))
    try:
        if args.setup_probe:
            wl.next_cycle()
            return 0
        if args.trace:
            from tracing import Tracer

            try:
                tracer = Tracer()
            except LookupError as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 2
            ops = run_loop(wl, args.seconds, tracer, None)
        else:
            tracer = None
            with speed.Sampler() as sampler:
                setup_runs = measure_setup(args, sampler)
                ops = run_loop(wl, args.seconds, None, sampler)
    finally:
        wl.close()

    canary_errs = canary(fs, gate, workloads, ref)
    failed = sum(1 for o in ops if o["errors"]) + (1 if canary_errs else 0)
    attempted = len(ops) + 1

    if args.trace:
        metrics, extra = per_layer(ops, tracer)
        units = PER_LAYER
    else:
        metrics, extra = end_to_end(ops, setup_runs)
        units = END_TO_END

    env.OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "environment": env.environment(threads),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "canary_errors": canary_errs,
        "metrics": metrics,
        "extra": extra,
        "ops": ops,
    }
    (env.OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        spans = tracer.span_records(SPANS_KEPT_OPS)
        (env.OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": spans}) + "\n")

    for o in ops:
        for e in o["errors"]:
            print(f"FAILED op: {e}  inputs={json.dumps(o['inputs'])}", file=sys.stderr)
    for e in canary_errs:
        print(f"FAILED pinned case-A N=40 check: {e}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    for name, value in extra.items():
        if isinstance(value, (int, float)):
            print(f"  {name} = {value:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
