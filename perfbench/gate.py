"""Correctness gate for the benchmark.

Every check returns a list of failure messages; an empty list means the
answer passed.  Tolerances are fixed here and are not workload settings:

- a solve must be finite with relative residual <= 1e-12;
- for constant k the acute and grave expansions agree to 1e-10 (relative to
  max |phi|), since the two operator variants coincide there;
- convergence rows, and the pinned case-A N=40 expansion, match the values
  frozen in reference.json at rel 1e-10, the frozen-test tolerance;
- CLI compare output matches its frozen digest (point samples and fixed
  random-sign projections of each column) to 1e-10 of the column's scale.
"""

from __future__ import annotations

import math
import os

import numpy as np

RESIDUAL_MAX = 1e-12
VARIANT_AGREE = 1e-10
FROZEN_REL = 1e-10
DIGEST_REL = 1e-10

GRID_POINTS = 10001
SAMPLE_STRIDE = 500
PROJECTIONS = 8
PROJECTION_SEED = 20220322
COMPARE_FILES = ("compare_k1.csv", "compare_k2.csv")
COMPARE_HEADER = "x,u_acute,u_grave"


def rel_mismatch(got: float, want: float, rel: float) -> bool:
    return not math.isfinite(got) or abs(got - want) > rel * abs(want)


def check_solution(sol) -> list[str]:
    """A single solve: finite expansion, finite diagnostics, small residual."""
    phi = np.asarray(sol.phi.coeffs)
    errs = []
    if not np.all(np.isfinite(phi)):
        errs.append("phi has non-finite entries")
    res = sol.diagnostics.get("residual")
    if res is None or not math.isfinite(res) or res > RESIDUAL_MAX:
        errs.append(f"relative residual {res!r} exceeds {RESIDUAL_MAX:g}")
    return errs


def check_variants_agree(phi_acute, phi_grave) -> list[str]:
    a = np.asarray(phi_acute, dtype=float)
    g = np.asarray(phi_grave, dtype=float)
    if a.shape != g.shape:
        return [f"variant expansions differ in length: {a.shape} vs {g.shape}"]
    scale = max(1.0, float(np.max(np.abs(a))))
    diff = float(np.max(np.abs(a - g)))
    if not diff <= VARIANT_AGREE * scale:
        return [f"constant-k acute/grave phi differ by {diff:.3e} (scale {scale:.3g})"]
    return []


def pinned_values(phi) -> dict:
    phi = np.asarray(phi, dtype=float)
    return {"norm": float(np.linalg.norm(phi)), "head": [float(v) for v in phi[:4]]}


def check_pinned(phi, ref: dict) -> list[str]:
    """Case-A N=40 expansion: ||phi|| and phi[0..3] against frozen values."""
    got = pinned_values(phi)
    errs = []
    if rel_mismatch(got["norm"], ref["norm"], FROZEN_REL):
        errs.append(f"||phi|| = {got['norm']!r}, frozen {ref['norm']!r}")
    for i, (g, w) in enumerate(zip(got["head"], ref["head"])):
        if rel_mismatch(g, w, FROZEN_REL):
            errs.append(f"phi[{i}] = {g!r}, frozen {w!r}")
    return errs


def rows_as_lists(rows) -> list[list]:
    return [[int(row[0])] + [None if v is None else float(v) for v in row[1:]] for row in rows]


def check_study_rows(rows, ref_rows) -> list[str]:
    """Convergence rows (N, err_L2, rate_L2, err_H1, rate_H1) against frozen."""
    rows = rows_as_lists(rows)
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} convergence rows, frozen {len(ref_rows)}"]
    errs = []
    for got, want in zip(rows, ref_rows):
        if got[0] != want[0]:
            errs.append(f"row degree {got[0]}, frozen {want[0]}")
            continue
        for name, g, w in zip(("err_L2", "rate_L2", "err_H1", "rate_H1"), got[1:], want[1:]):
            if (g is None) != (w is None) or (w is not None and rel_mismatch(g, w, FROZEN_REL)):
                errs.append(f"N={got[0]} {name} = {g!r}, frozen {w!r}")
    return errs


def _projection_matrix() -> np.ndarray:
    rng = np.random.default_rng(PROJECTION_SEED)
    return rng.choice((-1.0, 1.0), size=(PROJECTIONS, GRID_POINTS))


def column_digest(u: np.ndarray, signs: np.ndarray) -> dict:
    return {
        "samples": [float(v) for v in u[::SAMPLE_STRIDE]],
        "projections": [float(v) for v in signs @ u],
        "abs_max": float(np.max(np.abs(u))),
        "abs_sum": float(np.sum(np.abs(u))),
    }


def read_compare_csv(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != COMPARE_HEADER:
            raise ValueError(f"{os.path.basename(path)}: header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (GRID_POINTS, 3):
        raise ValueError(f"{os.path.basename(path)}: shape {data.shape}")
    return data


def compare_digest(outdir: str) -> dict:
    """Digest of the two compare CSVs a jump/smooth compare run writes."""
    signs = _projection_matrix()
    digest = {}
    xs = np.linspace(0.0, 1.0, GRID_POINTS)
    for name in COMPARE_FILES:
        data = read_compare_csv(os.path.join(outdir, name))
        if not np.array_equal(data[:, 0], xs):
            raise ValueError(f"{name}: x column is not the uniform grid")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"{name}: non-finite values")
        digest[name] = {
            "u_acute": column_digest(data[:, 1], signs),
            "u_grave": column_digest(data[:, 2], signs),
        }
    return digest


def check_compare(outdir: str, ref_digest: dict) -> list[str]:
    try:
        got = compare_digest(outdir)
    except (OSError, ValueError) as exc:
        return [f"compare output unreadable: {exc}"]
    errs = []
    for name, cols in ref_digest.items():
        for col, want in cols.items():
            have = got[name][col]
            tol_pt = DIGEST_REL * want["abs_max"]
            tol_proj = DIGEST_REL * want["abs_sum"]
            d_pt = max(abs(g - w) for g, w in zip(have["samples"], want["samples"]))
            d_proj = max(abs(g - w) for g, w in zip(have["projections"], want["projections"]))
            if not (d_pt <= tol_pt and d_proj <= tol_proj):
                errs.append(
                    f"{name}:{col} digest off by {d_pt:.3e} (samples) / "
                    f"{d_proj:.3e} (projections)"
                )
    return errs
