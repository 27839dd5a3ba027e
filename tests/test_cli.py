"""Command-line behavior: files, formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from fracspec.cli import main


def _write_config(path, **kw):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(kw, fh)
    return str(path)


def _base(tmp_path, **kw):
    cfg = dict(
        alpha=1.3,
        r=0.5,
        variant="acute",
        k="1+2*x",
        b="exp(x)",
        c="5+sin(x)",
        f="1",
        output=str(tmp_path / "out"),
    )
    cfg.update(kw)
    return _write_config(tmp_path / "run.json", **cfg)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# -------------------------------------------------------------------- solve


def test_solve_writes_expected_files(tmp_path):
    cfg = _base(tmp_path, N=8, grid_points=21)
    assert main(["solve", "--config", cfg]) == 0
    out = tmp_path / "out"

    raw = _read(out / "solution.csv")
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "x,u"
    assert len(lines) == 22
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert float(last[0]) == 1.0 and float(last[1]) == 0.0

    summary = (out / "summary.txt").read_text()
    assert "variant = acute" in summary
    assert "beta = 0.65" in summary
    assert "c_star_star = " in summary
    assert "predicted rate (L2) = 2.25" in summary
    assert "predicted rate (H1) = 1.25" in summary
    assert "rhs[0] = " in summary
    assert "condition estimate = " in summary

    echo = json.loads((out / "config.json").read_text())
    assert echo["command"] == "solve"
    assert echo["N"] == 8
    assert echo["quad_points"] == 28
    assert echo["grid_points"] == 21


def test_solve_is_deterministic(tmp_path):
    cfg = _base(tmp_path, N=6, grid_points=11)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert _read(tmp_path / "a" / "solution.csv") == _read(
        tmp_path / "b" / "solution.csv"
    )
    assert _read(tmp_path / "a" / "summary.txt") == _read(
        tmp_path / "b" / "summary.txt"
    )


# summary.txt of the config below, written when the load vector was still
# assembled a second time after the solve; rhs[0] now comes from the solved
# system and the bytes must not move
CASE_A_N8_SUMMARY = b"""variant = acute
alpha = 1.3
r = 0.5
beta = 0.65
c_star_star = -0.45399
predicted rate (L2) = 2.25
predicted rate (H1) = 1.25
rhs[0] = 0.549482
k_min = 1.00213 at x = 0.00106515
condition estimate = 16.0556
residual = 1.72594e-17
pivot growth = 0.898347
"""


def test_solve_summary_bytes_frozen(tmp_path):
    cfg = _base(tmp_path, N=8, grid_points=21)
    assert main(["solve", "--config", cfg]) == 0
    assert _read(tmp_path / "out" / "summary.txt") == CASE_A_N8_SUMMARY


def test_out_flag_overrides_output(tmp_path):
    cfg = _base(tmp_path, N=6, grid_points=11)
    override = tmp_path / "elsewhere"
    assert main(["solve", "--config", cfg, "--out", str(override)]) == 0
    assert (override / "solution.csv").exists()
    assert not (tmp_path / "out").exists()
    echo = json.loads((override / "config.json").read_text())
    assert echo["output"] == str(override)


def test_solution_values_roundtrip_full_precision(tmp_path):
    cfg = _base(tmp_path, N=6, grid_points=11)
    assert main(["solve", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "solution.csv").read_text().strip().split("\n")
    for line in lines[1:]:
        x_s, u_s = line.split(",")
        # %.17g survives a float round trip bit for bit
        assert "%.17g" % float(x_s) == x_s
        assert "%.17g" % float(u_s) == u_s


# ----------------------------------------------------------------- converge


def test_converge_table_layout(tmp_path):
    cfg = _base(tmp_path, Ns=[4, 6, 8], N_ref=12)
    assert main(["converge", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "convergence.csv").read_text().strip().split("\n")
    assert lines[0] == "N,err_L2,rate_L2,err_H1,rate_H1"
    assert lines[-1] == "# pred,2.25,1.25"
    assert len(lines) == 5
    r0 = lines[1].split(",")
    assert r0[0] == "4" and r0[2] == "" and r0[4] == ""
    for line in lines[2:-1]:
        parts = line.split(",")
        assert parts[2] != "" and parts[4] != ""
        assert float(parts[1]) > 0


def test_converge_single_degree(tmp_path):
    cfg = _base(tmp_path, Ns=[6], N_ref=10)
    assert main(["converge", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "convergence.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header, one row, pred footer


# ------------------------------------------------------------------ compare


def test_compare_pair_of_diffusivities(tmp_path):
    cfg = _base(
        tmp_path,
        alpha=1.4,
        r=0.4,
        variant=None,
        k=None,
        k1="piecewise(0.5; 2; 1)",
        k2="piecewise(0.5; 1; 2)",
        N=8,
        grid_points=11,
    )
    # drop the null entries json.dump kept
    raw = json.loads((tmp_path / "run.json").read_text())
    _write_config(
        tmp_path / "run.json", **{k: v for k, v in raw.items() if v is not None}
    )
    assert main(["compare", "--config", str(tmp_path / "run.json")]) == 0
    out = tmp_path / "out"
    for name in ("compare_k1.csv", "compare_k2.csv"):
        lines = (out / name).read_text().strip().split("\n")
        assert lines[0] == "x,u_acute,u_grave"
        assert len(lines) == 12
        for endpoint in (lines[1], lines[-1]):
            _, ua, ug = endpoint.split(",")
            assert float(ua) == 0.0 and float(ug) == 0.0
    assert not (out / "compare.csv").exists()


def test_compare_single_diffusivity(tmp_path):
    cfg = _base(tmp_path, variant=None, N=8, grid_points=11)
    raw = json.loads((tmp_path / "run.json").read_text())
    _write_config(
        tmp_path / "run.json", **{k: v for k, v in raw.items() if v is not None}
    )
    assert main(["compare", "--config", str(tmp_path / "run.json")]) == 0
    assert (tmp_path / "out" / "compare.csv").exists()
    assert not (tmp_path / "out" / "compare_k1.csv").exists()


# --------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "mutate",
    [
        dict(k="1+*x"),                      # malformed expression
        dict(f=None),                        # missing required key
        dict(alpha=2.5),                     # outside the parameter window
        dict(r=1.5),
        dict(variant="oblique"),
        dict(N="eight"),
        dict(Ns=[8, 6], N=None),
        dict(quad_points=10),
    ],
)
def test_config_errors_exit_1(tmp_path, capsys, mutate):
    base = dict(N=8, grid_points=11)
    base.update(mutate)
    cfg = _base(tmp_path, **base)
    raw = json.loads((tmp_path / "run.json").read_text())
    _write_config(
        tmp_path / "run.json", **{k: v for k, v in raw.items() if v is not None}
    )
    command = "converge" if mutate.get("Ns") else "solve"
    assert main([command, "--config", str(tmp_path / "run.json")]) == 1
    assert "fracspec:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["grid_points", "N_ref"])
def test_zero_setting_exits_1_not_defaulted(tmp_path, capsys, key):
    # 0 is a value given, not a missing key: it must not turn into the default
    cfg = _base(tmp_path, N=8, **{key: 0})
    assert main(["solve", "--config", cfg]) == 1
    assert f"{key} must be at least" in capsys.readouterr().err
    assert not (tmp_path / "out" / "solution.csv").exists()


def test_unknown_key_exits_1(tmp_path, capsys):
    cfg = _base(tmp_path, N=8, flux_capacitor=1)
    assert main(["solve", "--config", cfg]) == 1
    assert "unknown keys" in capsys.readouterr().err


def test_bad_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_missing_output_exits_1(tmp_path, capsys):
    cfg = _base(tmp_path, N=8, output=None)
    raw = json.loads((tmp_path / "run.json").read_text())
    _write_config(
        tmp_path / "run.json", **{k: v for k, v in raw.items() if v is not None}
    )
    assert main(["solve", "--config", str(tmp_path / "run.json")]) == 1
    assert "output" in capsys.readouterr().err


def test_converge_nref_conflict_exits_1(tmp_path, capsys):
    cfg = _base(tmp_path, Ns=[8, 10], N_ref=10)
    assert main(["converge", "--config", cfg]) == 1
    assert "N_ref" in capsys.readouterr().err


def test_compare_conflicting_k_exits_1(tmp_path, capsys):
    cfg = _base(tmp_path, variant=None, N=8, k1="1", k2="2")
    raw = json.loads((tmp_path / "run.json").read_text())
    _write_config(
        tmp_path / "run.json", **{k: v for k, v in raw.items() if v is not None}
    )
    assert main(["compare", "--config", str(tmp_path / "run.json")]) == 1
    assert "not both" in capsys.readouterr().err


def test_numerical_failure_exits_2(tmp_path, capsys):
    # diffusivity dips below zero inside the domain: config is well formed,
    # the assembly failure surfaces as a numerical error
    cfg = _base(tmp_path, N=8, k="x-0.5")
    assert main(["solve", "--config", cfg]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "fracspec.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    for word in ("solve", "converge", "compare"):
        assert word in proc.stdout
