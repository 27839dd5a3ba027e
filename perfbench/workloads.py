"""The three benchmark workloads.

A workload hands out its ops one cycle at a time; a cycle is the smallest
block over which the workload's mix is complete (every N for solve_fresh;
one op for study_paper and cli_compare, whose ops cost about the same), and
a run always measures whole cycles so that medians compare like with like.  Inputs come only from the seed.  Each op is one call a user
would make, and every answer is checked by the gate.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

import gate

VARIANTS = ("acute", "grave")


@dataclasses.dataclass
class Op:
    record: dict  # JSON-ready description of the inputs
    payload: object  # what the op is called with


def _num(v: float) -> str:
    return f"{v:.4f}"


def _signed(v: float) -> str:
    return f"{v:+.4f}"


class SolveFresh:
    """solver.solve on freshly drawn problems: (alpha, r) uniform in
    (1.05, 1.95) x [0, 1], so no quadrature rule repeats between ops; N
    cycles over 8/16/32/64 and the variant alternates.  Every N=8 draw has a
    constant k and is re-solved (untimed) in the other variant, which must
    agree.  This is the cold path: rule construction, basis tables and
    assembly, where a cache should show no gain."""

    name = "solve_fresh"
    NS = (8, 16, 32, 64)

    def __init__(self, fs, rng, ref, workdir):
        self.fs, self.rng = fs, rng
        self.cycles = 0

    def _k(self, constant: bool) -> str:
        rng = self.rng
        k0 = rng.uniform(0.5, 3.0)
        if constant:
            return _num(k0)
        family = rng.integers(3)
        if family == 0:
            return f"{_num(k0)}{_signed(rng.uniform(-0.6, 0.6) * k0)}*sin({_num(rng.uniform(0.5, 3.0))}*x{_signed(rng.uniform(-3.0, 3.0))})"
        if family == 1:
            return f"{_num(k0)}*exp({_num(rng.uniform(-1.0, 1.0))}*x)"
        a, c = rng.uniform(-0.4, 0.4, size=2) * k0
        return f"{_num(k0)}{_signed(a)}*x{_signed(c)}*x^2"

    def _draw(self, N: int, variant: str, constant_k: bool) -> Op:
        rng, fs = self.rng, self.fs
        alpha = float(rng.uniform(1.05, 1.95))
        r = float(rng.uniform(0.0, 1.0))
        exprs = {
            "k": self._k(constant_k),
            "b": f"{_num(rng.uniform(-1.0, 1.0))}{_signed(rng.uniform(-1.0, 1.0))}*cos({_num(rng.uniform(0.5, 3.0))}*x)",
            "c": f"{_num(rng.uniform(0.0, 5.0))}+{_num(rng.uniform(0.0, 2.0))}*x^2",
            "f": f"exp({_num(rng.uniform(-1.0, 1.0))}*x){_signed(rng.uniform(-0.5, 0.5))}*sin({_num(rng.uniform(0.5, 3.0))}*x)",
        }
        parsed = {key: fs.coeffexpr.parse(src) for key, src in exprs.items()}
        spec = fs.assembly.ProblemSpec(
            fp=fs.fracparams.solve_beta(alpha, r), variant=variant, N=N, **parsed
        )
        record = {"alpha": alpha, "r": r, "variant": variant, "N": N, "q": spec.q,
                  "constant_k": constant_k, **exprs}
        return Op(record, spec)

    def next_cycle(self) -> list[Op]:
        # the variant alternates op to op and starts on the other one each
        # cycle, so every N is solved in both variants over two cycles
        ops = [
            self._draw(N, VARIANTS[(j + self.cycles) % 2], constant_k=(j == 0))
            for j, N in enumerate(self.NS)
        ]
        self.cycles += 1
        return ops

    def run(self, op: Op):
        return self.fs.solver.solve(op.payload)

    def check(self, op: Op, sol) -> list[str]:
        errs = gate.check_solution(sol)
        if op.record["constant_k"] and not errs:
            other = "grave" if op.record["variant"] == "acute" else "acute"
            partner = self.fs.solver.solve(dataclasses.replace(op.payload, variant=other))
            errs = gate.check_solution(partner) + gate.check_variants_agree(
                sol.phi.coeffs, partner.phi.coeffs
            )
        return errs

    def close(self):
        pass


PAPER_COEFFS = {"b": "exp(x)", "c": "5+sin(x)", "f": "1"}
PAPER_CASES = {
    "A": {"alpha": 1.3, "r": 0.5, "k": "1+2*x"},
    "B": {"alpha": 1.6, "r": 0.4, "k": "1-0.3*sin(x)"},
}
STUDY_NS = [8, 10, 12, 14, 16]
STUDY_NREF = 40


def paper_spec(fs, case: str, variant: str, N: int):
    c = PAPER_CASES[case]
    exprs = {"k": c["k"], **PAPER_COEFFS}
    parsed = {key: fs.coeffexpr.parse(src) for key, src in exprs.items()}
    spec = fs.assembly.ProblemSpec(
        fp=fs.fracparams.solve_beta(c["alpha"], c["r"]), variant=variant, N=N, **parsed
    )
    return spec, exprs


class StudyPaper:
    """experiments.run_convergence with Ns 8..16 and N_ref 40 on the paper's
    cases A and B in both variants.  The seed picks the order: every four
    consecutive ops are a permutation of the four studies, which cost about
    the same, so a cycle is one op.  Within an op the rule exponents repeat
    while n changes, and across ops whole studies repeat, so this separates
    the cost of one rule from the number of rules built."""

    name = "study_paper"
    COMBOS = [(case, v) for case in PAPER_CASES for v in VARIANTS]

    def __init__(self, fs, rng, ref, workdir):
        self.fs, self.rng, self.ref = fs, rng, ref["study"]
        self.order = []

    def next_cycle(self) -> list[Op]:
        if not self.order:
            self.order = [self.COMBOS[i] for i in self.rng.permutation(len(self.COMBOS))]
        case, variant = self.order.pop(0)
        spec, exprs = paper_spec(self.fs, case, variant, STUDY_NS[0])
        c = PAPER_CASES[case]
        record = {"case": case, "alpha": c["alpha"], "r": c["r"], "variant": variant,
                  "Ns": STUDY_NS, "N_ref": STUDY_NREF,
                  "q": [n + 20 for n in STUDY_NS + [STUDY_NREF]], **exprs}
        return [Op(record, spec)]

    def run(self, op: Op):
        return self.fs.experiments.run_convergence(op.payload, STUDY_NS, STUDY_NREF)

    def check(self, op: Op, report) -> list[str]:
        return gate.check_study_rows(
            report.rows, self.ref[f"{op.record['case']}-{op.record['variant']}"]
        )

    def close(self):
        pass


COMPARE_CASE = "A"
COMPARE_N = 40


class CliCompare:
    """In-process ``fracspec compare`` of a jump diffusivity
    piecewise(x0; kl; kr) against a smooth one, N=40 on a 10001-point grid,
    with (x0, kl, kr) and the smooth k drawn by the seed from a catalogue of
    seeded draws whose outputs have frozen digests.  It covers config
    parsing, the breakpoint quadrature path, acute/grave pairs sharing the
    B1/B2/rhs rules, evaluation on a large grid and CSV output."""

    name = "cli_compare"

    def __init__(self, fs, rng, ref, workdir):
        self.fs, self.rng = fs, rng
        self.catalogue = ref["compare"]
        self.workdir = workdir
        self.count = 0

    def next_cycle(self) -> list[Op]:
        return [self.op_for(int(self.rng.integers(len(self.catalogue))))]

    def op_for(self, idx: int) -> Op:
        entry = self.catalogue[idx]
        case = PAPER_CASES[COMPARE_CASE]
        tmp = os.path.join(self.workdir, f"op{self.count}")
        self.count += 1
        os.makedirs(tmp)
        cfg = {"alpha": case["alpha"], "r": case["r"], "k1": entry["k1"], "k2": entry["k2"],
               **PAPER_COEFFS, "N": COMPARE_N, "grid_points": gate.GRID_POINTS,
               "output": os.path.join(tmp, "out")}
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        record = {"catalogue_index": idx, "q": COMPARE_N + 20,
                  **{k: v for k, v in cfg.items() if k != "output"}}
        return Op(record, (tmp, cfg_path, cfg["output"]))

    def run(self, op: Op):
        _, cfg_path, _ = op.payload
        return self.fs.cli.main(["compare", "--config", cfg_path])

    def check(self, op: Op, code) -> list[str]:
        tmp, _, outdir = op.payload
        try:
            if code != 0:
                return [f"fracspec compare exited with {code}"]
            op.record["output_bytes"] = sum(
                os.path.getsize(os.path.join(outdir, name)) for name in os.listdir(outdir)
            )
            return gate.check_compare(outdir, self.catalogue[op.record["catalogue_index"]]["digest"])
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SolveFresh, StudyPaper, CliCompare)}


def canary_spec(fs):
    """Case A, acute, N=40: the expansion whose norm and leading entries are
    pinned in reference.json."""
    return paper_spec(fs, "A", "acute", 40)[0]

