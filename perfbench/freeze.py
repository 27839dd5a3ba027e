"""Write reference.json: the frozen answers the gate compares against.

    python3 perfbench/freeze.py

It records, from the library as it stands:
- ||phi|| and phi[0..3] of the case-A acute solve at N=40;
- the convergence rows of the paper study for cases A and B, both variants;
- the cli_compare catalogue (seeded jump and smooth diffusivities) with the
  digest of each compare output.

The committed reference.json was frozen at commit f76dcb5.  A change that
claims a speed-up must not regenerate it: answers that move fail the gate.
"""

from __future__ import annotations

import json
import shutil
import sys

import env

CATALOGUE_SIZE = 16
CATALOGUE_SEED = 1105  # arXiv 2203.11705


def catalogue(rng) -> list[dict]:
    entries = []
    while len(entries) < CATALOGUE_SIZE:
        x0, kl, kr = rng.uniform(0.3, 0.7), rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)
        if abs(kl - kr) < 0.5:
            continue
        m = rng.uniform(1.0, 3.0)
        a = rng.uniform(-0.5, 0.5) * m
        w = rng.uniform(0.5, 4.0)
        entries.append({
            "k1": f"piecewise({x0:.4f}; {kl:.4f}; {kr:.4f})",
            "k2": f"{m:.4f}{a:+.4f}*sin({w:.4f}*x)",
        })
    return entries


def main() -> int:
    env.cap_blas_threads()
    fs = env.import_fracspec()
    import numpy as np

    import gate
    import workloads

    ref = {"frozen_src_sha256": env.src_sha256()}
    canary = fs.solver.solve(workloads.canary_spec(fs))
    errs = gate.check_solution(canary)
    if errs:
        raise RuntimeError(f"case-A N=40 solve fails the gate: {errs}")
    ref["canary"] = gate.pinned_values(canary.phi.coeffs)

    ref["study"] = {}
    for case in workloads.PAPER_CASES:
        for variant in workloads.VARIANTS:
            spec, _ = workloads.paper_spec(fs, case, variant, workloads.STUDY_NS[0])
            rep = fs.experiments.run_convergence(spec, workloads.STUDY_NS, workloads.STUDY_NREF)
            ref["study"][f"{case}-{variant}"] = gate.rows_as_lists(rep.rows)

    entries = catalogue(np.random.default_rng(CATALOGUE_SEED))
    ref["compare"] = entries
    tmp = env.OUT / "freeze"
    wl = workloads.CliCompare(fs, None, ref, str(tmp))
    for idx, entry in enumerate(entries):
        op = wl.op_for(idx)
        if wl.run(op) != 0:
            raise RuntimeError(f"compare failed for catalogue entry {idx}")
        entry["digest"] = gate.compare_digest(op.payload[2])
        shutil.rmtree(op.payload[0])
    wl.close()

    env.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {env.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
