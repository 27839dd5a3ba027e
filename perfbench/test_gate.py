"""The benchmark's correctness gate passes the frozen answers and trips on
perturbed ones.

    python3 -m pytest perfbench/test_gate.py
"""

import copy
import dataclasses
import json
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402

fs = env.import_fracspec()

import gate  # noqa: E402
import workloads  # noqa: E402

REF = json.loads(env.REFERENCE.read_text())


@pytest.fixture(scope="module")
def canary():
    return fs.solver.solve(workloads.canary_spec(fs))


def test_frozen_canary_passes(canary):
    assert gate.check_solution(canary) == []
    assert gate.check_pinned(canary.phi.coeffs, REF["canary"]) == []


@pytest.mark.parametrize("index, delta", [(0, 1e-9), (3, 1e-9), (-1, 1e-4)])
def test_perturbed_phi_trips_pinned_check(canary, index, delta):
    phi = canary.phi.coeffs.copy()
    phi[index] += delta * max(abs(phi[index]), 1.0 if index == -1 else 0.0)
    assert gate.check_pinned(phi, REF["canary"])


def test_nonfinite_or_inexact_solve_trips():
    ok = SimpleNamespace(phi=SimpleNamespace(coeffs=np.ones(3)), diagnostics={"residual": 1e-16})
    assert gate.check_solution(ok) == []
    nan = SimpleNamespace(phi=SimpleNamespace(coeffs=np.array([1.0, np.nan])),
                          diagnostics={"residual": 1e-16})
    assert gate.check_solution(nan)
    loose = SimpleNamespace(phi=ok.phi, diagnostics={"residual": 1e-11})
    assert gate.check_solution(loose)


def test_constant_k_variant_mismatch_trips():
    wl = workloads.SolveFresh(fs, np.random.default_rng(7), REF, None)
    op = wl.next_cycle()[0]
    assert op.record["constant_k"]
    sol = fs.solver.solve(op.payload)
    assert wl.check(op, sol) == []
    bad = dataclasses.replace(
        sol, phi=fs.spaces.CoeffVec(sol.phi.params, sol.phi.coeffs * (1 + 1e-8))
    )
    assert wl.check(op, bad)


def test_perturbed_study_row_trips():
    rows = REF["study"]["B-grave"]
    assert gate.check_study_rows(rows, rows) == []
    bad = copy.deepcopy(rows)
    bad[2][3] *= 1 + 1e-9
    assert gate.check_study_rows(bad, rows)


def _write_compare(path, u):
    xs = np.linspace(0.0, 1.0, gate.GRID_POINTS)
    lines = [gate.COMPARE_HEADER] + [
        f"{x:.17g},{a:.17g},{g:.17g}" for x, a, g in zip(xs, u, 0.5 * u)
    ]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def out_dir():
    path = env.OUT / "test-gate"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path)


def test_compare_digest_trips_on_one_changed_value(out_dir):
    xs = np.linspace(0.0, 1.0, gate.GRID_POINTS)
    u = np.sin(np.pi * xs) * xs
    for name in gate.COMPARE_FILES:
        _write_compare(out_dir / name, u)
    digest = gate.compare_digest(str(out_dir))
    assert gate.check_compare(str(out_dir), digest) == []
    u_bad = u.copy()
    u_bad[4000] += 1e-7  # a sampled row; projections catch spread-out changes
    _write_compare(out_dir / gate.COMPARE_FILES[1], u_bad)
    assert gate.check_compare(str(out_dir), digest)
    (out_dir / gate.COMPARE_FILES[0]).unlink()
    assert gate.check_compare(str(out_dir), digest)
