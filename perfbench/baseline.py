"""One-off reproduction of the ROADMAP baseline table.

    python3 perfbench/baseline.py

Times solve() on case A (acute) at N = 8, 16, 40, 64 and the case-A sweep
run_convergence(Ns=[8..16], N_ref=40), each as the median of REPEATS runs
in this process, and prints them next to the ROADMAP figures.  It is not part
of the benchmark's metrics.
"""

from __future__ import annotations

import statistics
import sys
import time

import env

REPEATS = 3
ROADMAP_MS = {"solve N=8": 270, "solve N=16": 470, "solve N=40": 1180,
              "solve N=64": 2300, "case-A sweep": 2700}


def timed(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def main() -> int:
    env.cap_blas_threads()
    fs = env.import_fracspec()
    import workloads

    rows = {}
    for N in (8, 16, 40, 64):
        spec = workloads.paper_spec(fs, "A", "acute", N)[0]
        rows[f"solve N={N}"] = timed(lambda: fs.solver.solve(spec))
    spec = workloads.paper_spec(fs, "A", "acute", workloads.STUDY_NS[0])[0]
    rows["case-A sweep"] = timed(
        lambda: fs.experiments.run_convergence(spec, workloads.STUDY_NS, workloads.STUDY_NREF))
    print(f"| Run | ROADMAP | this run (median of {REPEATS}) |")
    print("|---|---|---|")
    for name, ms in rows.items():
        print(f"| {name} | {ROADMAP_MS[name]:,} ms | {ms:,.0f} ms |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
