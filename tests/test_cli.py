"""Command-line behavior: files, formats, exit codes, determinism."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracspec.cli
from fracspec.cli import _write_csvs, main
from fracspec.numfmt import WIDTH, write_g17

ROOT = Path(__file__).resolve().parents[1]


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


def _openblas_cores() -> tuple[str, str]:
    """The cores that numpy's and scipy's bundled OpenBLAS libraries picked
    their kernels for, "unknown" where a library or its query is absent.
    OPENBLAS_CORETYPE picks both; the library reports the kernels it
    actually runs (Zen runs Haswell's, Cooperlake SkylakeX's)."""
    import ctypes

    import scipy

    cores = []
    for pkg, pattern, symbol in (
        (np, "numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_get_corename64_"),
        (scipy, "scipy.libs/libscipy_openblas-*.so", "scipy_openblas_get_corename"),
    ):
        libs = sorted(Path(pkg.__file__).parent.parent.glob(pattern))
        get = getattr(ctypes.CDLL(str(libs[0])), symbol, None) if libs else None
        core = "unknown"
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            core = get().decode()
        cores.append(core)
    return tuple(cores)


def _frozen(digests: dict):
    """The entry of digests frozen for the OpenBLAS core this process runs.

    The CSV bytes pin the last bit of every answer, and those bits differ
    between OpenBLAS kernels (the dgemm products of the assembly and LAPACK
    itself), so each file has one digest per core it was frozen under.  A
    core with none fails and names itself: freeze its digests, never skip.
    """
    numpy_core, scipy_core = _openblas_cores()
    assert numpy_core == scipy_core and numpy_core in digests, (
        f"no frozen digest for OpenBLAS core: numpy {numpy_core}, scipy {scipy_core} "
        f"(frozen for {', '.join(digests)})"
    )
    return digests[numpy_core]


def test_openblas_cores_are_named():
    assert all(re.fullmatch(r"\S+", core) for core in _openblas_cores())
    with pytest.raises(AssertionError, match="no frozen digest for OpenBLAS core: numpy "):
        _frozen({})


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


# SHA-256 of solution.csv for the config above under each OpenBLAS core,
# taken for SkylakeX before the CSV writer formatted each file in one pass
# (Sandybridge's later, from code that still gave the SkylakeX and Haswell
# bytes); the bytes must not move
CASE_A_N8_SOLUTION_SHA256 = {
    "SkylakeX": "8973f8eed6015c2813bc014d098d4bd70cf23713456f6062230c55f54076e15f",
    "Haswell": "5f04ad3bb1fd5ef00abfdb3a764d8a90bf72d0424a9c211867a3dee61cb562b2",
    "Sandybridge": "dd8a8ebc707ef081cdcfee87a8ffae47b1821f88675e0dc43eff4fec710e3249",
}


def test_solve_solution_bytes_frozen(tmp_path):
    cfg = _base(tmp_path, N=8, grid_points=21)
    assert main(["solve", "--config", cfg]) == 0
    raw = _read(tmp_path / "out" / "solution.csv")
    assert hashlib.sha256(raw).hexdigest() == _frozen(CASE_A_N8_SOLUTION_SHA256)


def test_out_flag_overrides_output(tmp_path):
    cfg = _base(tmp_path, N=6, grid_points=11)
    override = tmp_path / "elsewhere"
    assert main(["solve", "--config", cfg, "--out", str(override)]) == 0
    assert (override / "solution.csv").exists()
    assert not (tmp_path / "out").exists()
    echo = json.loads((override / "config.json").read_text())
    assert echo["output"] == str(override)


def test_empty_out_flag_is_a_config_error(tmp_path, capsys):
    # an empty --out overrides the config's output too, and names no directory
    cfg = _base(tmp_path, N=6, grid_points=11)
    for command in ("solve", "converge", "compare"):
        assert main([command, "--config", cfg, "--out", ""]) == 1
        assert capsys.readouterr().err == (
            "fracspec: config: an output directory is required ('output' key or --out)\n"
        )
    assert not (tmp_path / "out").exists()


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


def test_converge_integral_float_degrees(tmp_path):
    # an integral float is an integer for Ns as it is for N
    for name, Ns in (("ints", [8, 10]), ("floats", [8.0, 10.0])):
        cfg = _base(tmp_path, Ns=Ns, N_ref=14, output=str(tmp_path / name))
        assert main(["converge", "--config", cfg]) == 0
    assert _read(tmp_path / "floats" / "convergence.csv") == _read(
        tmp_path / "ints" / "convergence.csv"
    )


@pytest.mark.parametrize("literal", ["true", "8.5", "NaN", "Infinity", "-Infinity", "1e400"])
def test_converge_non_integer_degree_exits_1(tmp_path, capsys, literal):
    cfg = _base(tmp_path, Ns=[8, "@"], N_ref=14)
    raw = (tmp_path / "run.json").read_text()
    (tmp_path / "run.json").write_text(raw.replace('"@"', literal))
    assert main(["converge", "--config", cfg]) == 1
    assert "'Ns' must be a nonempty list of integers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_converge_single_degree(tmp_path):
    cfg = _base(tmp_path, Ns=[6], N_ref=10)
    assert main(["converge", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "convergence.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header, one row, pred footer


def test_converge_quad_points_below_n_ref_exits_1(tmp_path, capsys):
    # the sweep assembles at N_ref, so quad_points must reach N_ref + 20; it
    # is not raised to that silently
    cfg = _base(tmp_path, Ns=[8, 10], N_ref=40, quad_points=50)
    assert main(["converge", "--config", cfg]) == 1
    assert "quad_points must be at least N+20 = 60" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_converge_nonpositive_first_degree_exits_1(tmp_path, capsys):
    cfg = _base(tmp_path, Ns=[0, 8], N_ref=12)
    assert main(["converge", "--config", cfg]) == 1
    assert "'Ns' must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------------ compare


def _pair_config(tmp_path):
    _base(
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
    return _write_config(
        tmp_path / "run.json", **{k: v for k, v in raw.items() if v is not None}
    )


def test_compare_pair_of_diffusivities(tmp_path):
    assert main(["compare", "--config", _pair_config(tmp_path)]) == 0
    out = tmp_path / "out"
    for name in ("compare_k1.csv", "compare_k2.csv"):
        lines = (out / name).read_text().strip().split("\n")
        assert lines[0] == "x,u_acute,u_grave"
        assert len(lines) == 12
        for endpoint in (lines[1], lines[-1]):
            _, ua, ug = endpoint.split(",")
            assert float(ua) == 0.0 and float(ug) == 0.0
    assert not (out / "compare.csv").exists()


# SHA-256 of the compare CSVs of _pair_config under each OpenBLAS core,
# taken for SkylakeX before the CSV writer formatted each file in one pass
# and the grid table was shared (Sandybridge's later, from code that still
# gave the SkylakeX and Haswell bytes)
PAIR_SHA256 = {
    "SkylakeX": {
        "compare_k1.csv": "ac5d43377ce5f7cc38ef35a2a6686646b30033075630dd3930e7a2716b231878",
        "compare_k2.csv": "786e2c13e42169e73bdc5eb13327375a8cc56cb4cd3c0659a086f38279033f68",
    },
    "Haswell": {
        "compare_k1.csv": "f7332444e03ce0c70d197a2fc0cd6c78ac4ef0aacdd814aefd09ab99ea1ccb7d",
        "compare_k2.csv": "3b2e5d576eb7f7bb220bcee44bca0e57a9e43431327aed2335ce9807880d1215",
    },
    "Sandybridge": {
        "compare_k1.csv": "f80056db67c3552e5a71b229ef2fb1219275073b08b1aef1c1f758c0e11da5f6",
        "compare_k2.csv": "fde75cf721b71446fffcda7b98024d49d676118c2a585a2474fc4366682b6aac",
    },
}


def test_compare_pair_bytes_frozen(tmp_path):
    assert main(["compare", "--config", _pair_config(tmp_path)]) == 0
    for name, digest in _frozen(PAIR_SHA256).items():
        raw = _read(tmp_path / "out" / name)
        assert hashlib.sha256(raw).hexdigest() == digest, name


def test_compare_pair_bytes_frozen_fresh_interpreter(tmp_path):
    # a cold start, which builds the formatter's tables on import
    proc = subprocess.run(
        [sys.executable, "-m", "fracspec.cli", "compare", "--config", _pair_config(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name, digest in _frozen(PAIR_SHA256).items():
        raw = _read(tmp_path / "out" / name)
        assert hashlib.sha256(raw).hexdigest() == digest, name


def _assert_pair_bytes(out):
    for name, digest in _frozen(PAIR_SHA256).items():
        assert hashlib.sha256(_read(out / name)).hexdigest() == digest, name
    assert json.loads((out / "config.json").read_text())["output"] == str(out)


def test_shared_parser_keeps_nothing_between_calls(tmp_path, capsys):
    # main builds its parser once per process: a failed parse and an --out
    # must not reach a later call
    cfg = _pair_config(tmp_path)
    out, other = tmp_path / "out", tmp_path / "other"
    assert main(["compare", "--config", cfg]) == 0
    _assert_pair_bytes(out)
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["compare"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
    assert main(["compare", "--config", cfg, "--out", str(other)]) == 0
    _assert_pair_bytes(other)
    shutil.rmtree(out)
    shutil.rmtree(other)
    assert main(["compare", "--config", cfg]) == 0
    _assert_pair_bytes(out)
    assert not other.exists()


def test_compare_echoes_default_degree(tmp_path):
    # a compare without N runs at N = 40 and q = N + 20, and says so
    cfg = _base(tmp_path, variant=None, grid_points=11)
    raw = json.loads((tmp_path / "run.json").read_text())
    _write_config(
        tmp_path / "run.json", **{k: v for k, v in raw.items() if v is not None}
    )
    assert main(["compare", "--config", cfg]) == 0
    echo = json.loads((tmp_path / "out" / "config.json").read_text())
    assert echo["command"] == "compare"
    assert echo["N"] == 40
    assert echo["quad_points"] == 60


def test_compare_single_diffusivity(tmp_path):
    cfg = _base(tmp_path, variant=None, N=8, grid_points=11)
    raw = json.loads((tmp_path / "run.json").read_text())
    _write_config(
        tmp_path / "run.json", **{k: v for k, v in raw.items() if v is not None}
    )
    assert main(["compare", "--config", str(tmp_path / "run.json")]) == 0
    assert (tmp_path / "out" / "compare.csv").exists()
    assert not (tmp_path / "out" / "compare_k1.csv").exists()


# ------------------------------------------------------------- config echo


def _readme_config():
    text = (ROOT / "README.md").read_text()
    return json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])


# SHA-256 of convergence.csv for the README's config under each OpenBLAS
# core, taken for SkylakeX before the config reader was shortened
# (Sandybridge's later, from code that still gave the SkylakeX and Haswell
# bytes); the bytes must not move
README_CONVERGENCE_SHA256 = {
    "SkylakeX": "690f36486a5c3409c95e58035431c04a12904c8ccafd16b21ce2ef3de3771309",
    "Haswell": "84c325536522abbc691067085921832cc3d2fe6c835509920c548aa0386071e3",
    "Sandybridge": "3794bdf327436713adce8e733a7fc106c062d6709b01328b3da418ea61e66558",
}


def test_converge_bytes_frozen(tmp_path):
    cfg = _write_config(tmp_path / "run.json", **_readme_config())
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    raw = _read(tmp_path / "out" / "convergence.csv")
    assert hashlib.sha256(raw).hexdigest() == _frozen(README_CONVERGENCE_SHA256)


# config.json of each command on the README's config, minus "output": every
# setting given or defaulted, the command, and the q the run ran at
README_ECHO_COMMON = {
    "N": 24, "N_ref": 40, "Ns": [8, 10, 12, 14, 16], "alpha": 1.3,
    "b": "exp(x)", "c": "5+sin(x)", "f": "1", "grid_points": 1001,
    "k": "1+2*x", "r": 0.5, "variant": "acute",
}
README_ECHO = {
    "solve": {**README_ECHO_COMMON, "command": "solve", "quad_points": 44},
    # the sweep assembles at N_ref = 40
    "converge": {**README_ECHO_COMMON, "command": "converge", "quad_points": 60},
    "compare": {**README_ECHO_COMMON, "command": "compare", "quad_points": 44},
}


@pytest.mark.parametrize("command", sorted(README_ECHO))
def test_readme_config_echo(tmp_path, command):
    cfg = _write_config(tmp_path / "run.json", **_readme_config())
    out = tmp_path / command
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    echo = json.loads((out / "config.json").read_text())
    assert echo.pop("output") == str(out)
    assert echo == README_ECHO[command]


# ---------------------------------------------------------------- CSV bytes

# zeros of both signs, the smallest subnormal, values needing all 17 digits,
# and the integers where %.17g switches to exponent form
EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-300, 1 / 3, -2.5, 1e16, 1e17,
               123456789012345678.0]


def _per_value_csv(header, columns):
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return "".join(
        line + "\n" for line in [header] + [",".join("%.17g" % v for v in row) for row in rows]
    )


@pytest.mark.parametrize("n", [len(EDGE_VALUES), 10001])
def test_write_csv_matches_per_value_format(tmp_path, n):
    if n == len(EDGE_VALUES):
        x = np.array(EDGE_VALUES)
    else:
        x = np.linspace(0.0, 1.0, n)
    columns = [x, -x[::-1], x * np.pi]
    path = tmp_path / "out.csv"
    _write_csvs("x,a,b", x, [(str(path), columns[1:])])
    got = _read(path).decode().split("\n")
    assert got == _per_value_csv("x,a,b", columns).split("\n")


@pytest.mark.parametrize("long_first", [True, False])
def test_write_csvs_shared_rows_keep_nothing_of_the_last_file(tmp_path, long_first):
    # the files share one row array: a short cell written over a long one
    # must not keep the long one's tail, nor a long one the short's NULs
    x = np.array([0.0, 0.25, 0.5, 1.0])
    long_cells = np.array([-1.2345678901234567e-100, -np.inf, np.nan, 5e-324])
    short_cells = np.array([0.0, 0.5, 1.0, 0.5])
    files = {"long.csv": [long_cells, long_cells[::-1]],
             "short.csv": [short_cells, short_cells[::-1]]}
    names = sorted(files, reverse=not long_first)
    _write_csvs("x,a,b", x, [(str(tmp_path / name), files[name]) for name in names])
    for name in names:
        got = _read(tmp_path / name).decode()
        assert got == _per_value_csv("x,a,b", [x] + files[name]), name


def _cell_texts(values):
    """write_g17's text of each value: its row with the NUL bytes deleted."""
    cells = np.empty((len(values), WIDTH), dtype=np.uint8)
    write_g17(values, cells)
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in cells]


def _assert_cells_match(values):
    values = np.asarray(values, dtype=float)
    want = ["%.17g" % v for v in values.tolist()]
    got = _cell_texts(values)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(1e-10, 1e15), st.floats(-1e15, -1e-10)),
                min_size=1, max_size=40))
def test_format_column_matches_percent_g17(values):
    # st.floats() gives nan, both infinities, subnormals and -0.0; the
    # bounded strategies exercise the exact integer path
    _assert_cells_match(values)


def _decimal_ties():
    # n + 0.125 (n >= 1e14), n + 0.375 (n >= 1e14) and n + 0.0625 have 18
    # significant digits ending in 5: a tie at 17 digits, rounded to even
    rng = np.random.default_rng(7)
    ns = np.concatenate([
        10.0**13 + np.arange(2000),
        10.0**14 + np.arange(2000),
        10.0**15 - 2000 + np.arange(2000),
        rng.integers(10**13, 10**15, 4000).astype(float),
    ])
    return np.concatenate([ns + 0.125, ns + 0.375, ns + 0.0625])


def _binary_fractions():
    k = np.arange(1, 1001, dtype=float)
    return np.concatenate([k * 2.0**-j for j in range(0, 64, 3)])


def _around_powers_of_ten():
    out = []
    for e in range(-12, 17):
        for direction in (0.0, np.inf):
            v = 10.0**e
            for _ in range(4):
                out.append(v)
                v = np.nextafter(v, direction)
    return np.array(out)


# the two edges of the exact range, and the double nearest 1e-07, whose
# decade is -8 (9.9999999999999995e-08)
RANGE_EDGES = [1e-10, np.nextafter(1e-10, 0.0), np.nextafter(1e15, 0.0), 1e15,
               1e-7, 1e-6]


@pytest.mark.parametrize(
    "values",
    [_decimal_ties(), _binary_fractions(), _around_powers_of_ten(), RANGE_EDGES],
    ids=["decimal_ties", "binary_fractions", "powers_of_ten", "range_edges"],
)
def test_format_column_exact_cases(values):
    values = np.asarray(values)
    _assert_cells_match(values)
    _assert_cells_match(-values)


def _trailing_zero_values():
    # few-digit decimals and binary fractions over fixed and exponent
    # decades: their 17-digit forms end in every count of zeros from 0 to 16
    m = np.array([1, 2, 5, 7, 25, 125, 375, 1001, 12345, 123456, 1234567,
                  12345678, 987654321, 1234567890123, 12345678901234567], dtype=float)
    decimals = np.concatenate([m * 10.0**j for j in range(-24, 16)])
    k = np.arange(1, 65, dtype=float)
    return np.concatenate([decimals, np.concatenate([k * 2.0**-j for j in range(0, 60)])])


def _mixed_column():
    """At least 10001 values, shuffled: the exact range of the vectorised
    path, both zeros, subnormals, values just outside the range on either
    side, infinities and nan, and every trailing-zero count."""
    rng = np.random.default_rng(18)
    fast = 10.0 ** rng.uniform(-9, 15, 6000) * rng.choice([-1.0, 1.0], 6000)
    others = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-11,
              -1e-11, 1e-10, 1e-300, 1e15, -1e15, 1e16, 1e17, 1.5e300,
              np.inf, -np.inf, np.nan]
    tz = _trailing_zero_values()
    values = np.concatenate([fast, np.repeat(others, 40), tz, -tz])
    return values[rng.permutation(values.size)]


def _digits_and_form(v):
    """The trailing zeros of the 17 significant digits of v, and whether
    %.17g writes v in exponent form."""
    mantissa, exponent = ("%.16e" % v).split("e")
    digits = mantissa.lstrip("-").replace(".", "")
    return len(digits) - len(digits.rstrip("0")), not -4 <= int(exponent) < 17


def test_mixed_column_covers_every_trailing_zero_count():
    values = _mixed_column()
    assert values.size >= 10001
    finite = values[np.isfinite(values) & (values != 0)]
    seen = {_digits_and_form(v) for v in finite.tolist()}
    assert seen >= {(t, e) for t in range(17) for e in (False, True)}


def test_format_long_mixed_column():
    _assert_cells_match(_mixed_column())


def test_write_csv_long_mixed_columns(tmp_path):
    x = _mixed_column()
    columns = [x, -x[::-1], x * np.pi]
    path = tmp_path / "out.csv"
    _write_csvs("x,a,b", x, [(str(path), columns[1:])])
    got = _read(path).decode().split("\n")
    assert got == _per_value_csv("x,a,b", columns).split("\n")


# --------------------------------------------------------- config messages

# one config per check of the config reader: the command, the changes to a
# solvable config (None drops the key), and the whole stderr line after
# "fracspec: "
CONFIG_MESSAGES = [
    ("solve", dict(alpha="1.3"), "config: 'alpha' must be a finite number, got '1.3'"),
    ("solve", dict(alpha=True), "config: 'alpha' must be a finite number, got True"),
    ("solve", dict(r=float("inf")), "config: 'r' must be a finite number, got inf"),
    ("solve", dict(b=1), "config: 'b' must be a string, got 1"),
    ("solve", dict(k=None, k1=["1"]), "config: 'k1' must be a string, got ['1']"),
    (
        "solve",
        dict(variant="oblique"),
        "config: 'variant' must be 'acute' or 'grave', got 'oblique'",
    ),
    ("solve", dict(N="eight"), "config: 'N' must be an integer, got 'eight'"),
    ("solve", dict(N=8.5), "config: 'N' must be an integer, got 8.5"),
    ("solve", dict(N=True), "config: 'N' must be an integer, got True"),
    ("solve", dict(quad_points=float("nan")), "config: 'quad_points' must be an integer, got nan"),
    ("solve", dict(grid_points=1), "config: 'grid_points' must be at least 2, got 1"),
    ("solve", dict(N_ref=0), "config: 'N_ref' must be at least 1, got 0"),
    ("solve", dict(quad_points=4097), "config: 'quad_points' must be at most 4096, got 4097"),
    ("solve", dict(N=10**20), "config: 'N' must be at most 2048, got 100000000000000000000"),
    ("converge", dict(Ns=8), "config: 'Ns' must be a nonempty list of integers, got 8"),
    ("converge", dict(Ns=[]), "config: 'Ns' must be a nonempty list of integers, got []"),
    (
        "converge",
        dict(Ns=[8, True]),
        "config: 'Ns' must be a nonempty list of integers, got [8, True]",
    ),
    (
        "converge",
        dict(Ns=[8, 8.5]),
        "config: 'Ns' must be a nonempty list of integers, got [8, 8.5]",
    ),
    # every degree must be an integer before any is checked against its bounds
    (
        "converge",
        dict(Ns=[5000, "a"]),
        "config: 'Ns' must be a nonempty list of integers, got [5000, 'a']",
    ),
    ("converge", dict(Ns=[0, 8]), "config: 'Ns' must be at least 1, got 0"),
    ("converge", dict(Ns=[8, 4096]), "config: 'Ns' must be at most 2048, got 4096"),
    ("converge", dict(Ns=[8, 6]), "config: Ns: degrees must be strictly ascending, got [8, 6]"),
    (
        "converge",
        dict(Ns=[8, 10], N_ref=10),
        "config: Ns: max degree 10 must stay below N_ref=10",
    ),
    ("solve", dict(flux=1, zeta=2), "config: unknown keys ['flux', 'zeta']"),
    (
        "solve",
        dict(output=None),
        "config: an output directory is required ('output' key or --out)",
    ),
    ("solve", dict(f=None, alpha=None), "config: missing required keys ['alpha', 'f']"),
    ("solve", dict(variant=None), "config: 'solve' needs a 'variant'"),
    ("solve", dict(k=None), "config: 'solve' needs a diffusivity 'k'"),
    ("solve", dict(N=None), "config: 'solve' needs a degree 'N'"),
    ("converge", dict(variant=None, Ns=[8, 10]), "config: 'converge' needs a 'variant'"),
    ("converge", dict(k=None, Ns=[8, 10]), "config: 'converge' needs a diffusivity 'k'"),
    ("converge", dict(), "config: 'converge' needs a list 'Ns'"),
    (
        "compare",
        dict(k=None, k1="1+x"),
        "config: 'compare' needs either 'k' or the pair 'k1' and 'k2'",
    ),
    ("compare", dict(k2="1+x"), "config: give 'k' or 'k1'/'k2', not both"),
    (
        "solve",
        dict(k="1+*x"),
        "config: bad expression for 'k': expected a value, found '*' (byte 2)",
    ),
    (
        "compare",
        dict(k=None, k1="1", k2="exp(ü"),
        "config: bad expression for 'k2': unknown identifier 'ü' (byte 4)",
    ),
    ("solve", dict(alpha=2.5), "FracParams: alpha must lie in (1,2), got 2.5"),
    ("solve", dict(N=0), "ProblemSpec: N must be at least 1, got 0"),
]


@pytest.mark.parametrize("command, changes, message", CONFIG_MESSAGES)
def test_config_error_messages_frozen(tmp_path, capsys, command, changes, message):
    cfg = _base(tmp_path, **{"N": 8, "grid_points": 11, **changes})
    raw = json.loads((tmp_path / "run.json").read_text())
    _write_config(
        tmp_path / "run.json", **{k: v for k, v in raw.items() if v is not None}
    )
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == f"fracspec: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1]", "config: top level must be a JSON object"),
        (
            "{not json",
            "config {path} is not valid JSON: Expecting property name enclosed in "
            "double quotes: line 1 column 2 (char 1)",
        ),
        (
            None,
            "cannot read config {path}: [Errno 2] No such file or directory: '{path}'",
        ),
    ],
)
def test_unreadable_config_messages_frozen(tmp_path, capsys, text, message):
    path = tmp_path / "run.json"
    if text is not None:
        path.write_text(text)
    assert main(["solve", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"fracspec: {message.format(path=path)}\n"


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
        # the spec-level cases again, where compare builds its spec
        dict(alpha=2.5, command="compare"),
        dict(r=1.5, command="compare"),
        dict(quad_points=10, command="compare"),
        dict(variant="oblique", command="compare"),
    ],
)
def test_config_errors_exit_1(tmp_path, capsys, mutate):
    base = dict(N=8, grid_points=11)
    base.update(mutate)
    command = base.pop("command", "converge" if mutate.get("Ns") else "solve")
    cfg = _base(tmp_path, **base)
    raw = json.loads((tmp_path / "run.json").read_text())
    _write_config(
        tmp_path / "run.json", **{k: v for k, v in raw.items() if v is not None}
    )
    assert main([command, "--config", str(tmp_path / "run.json")]) == 1
    assert "fracspec:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["grid_points", "N_ref"])
def test_zero_setting_exits_1_not_defaulted(tmp_path, capsys, key):
    # 0 is a value given, not a missing key: it must not turn into the default
    cfg = _base(tmp_path, N=8, **{key: 0})
    assert main(["solve", "--config", cfg]) == 1
    assert f"'{key}' must be at least" in capsys.readouterr().err
    assert not (tmp_path / "out" / "solution.csv").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("key", ["N", "N_ref", "quad_points", "grid_points"])
def test_non_finite_integer_setting_exits_1(tmp_path, capsys, key, literal):
    cfg = _base(tmp_path, N=8, grid_points=11)
    raw = json.loads((tmp_path / "run.json").read_text())
    raw[key] = "@"
    (tmp_path / "run.json").write_text(json.dumps(raw).replace('"@"', literal))
    assert main(["solve", "--config", cfg]) == 1
    assert f"'{key}' must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, limit",
    [("N", 2048), ("N_ref", 2048), ("quad_points", 4096), ("grid_points", 100001)],
)
@pytest.mark.parametrize("excess", ["plus_one", "1e20_int", "1e20_float"])
def test_oversized_setting_exits_1(tmp_path, capsys, key, limit, excess):
    value = {"plus_one": limit + 1, "1e20_int": 10**20, "1e20_float": 1e20}[excess]
    cfg = _base(tmp_path, **{"N": 8, "grid_points": 11, key: value})
    assert main(["solve", "--config", cfg]) == 1
    assert f"'{key}' must be at most {limit}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_unread_degrees_past_n_ref_exit_1(tmp_path, capsys, command):
    # Ns is a converge setting, but a given Ns meets its rules under every
    # command
    cfg = _base(tmp_path, N=8, Ns=[8, 40])
    assert main([command, "--config", cfg]) == 1
    assert "must stay below N_ref=40" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_conflicting_k_exits_1(tmp_path, capsys):
    cfg = _base(tmp_path, variant=None, N=8, k1="1", k2="2")
    raw = json.loads((tmp_path / "run.json").read_text())
    _write_config(
        tmp_path / "run.json", **{k: v for k, v in raw.items() if v is not None}
    )
    assert main(["compare", "--config", str(tmp_path / "run.json")]) == 1
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "converge"])
def test_unread_bad_expression_exits_1(tmp_path, capsys, command):
    # k1 is a compare setting, but a bad one is caught under every command
    cfg = _base(tmp_path, N=8, Ns=[8, 10], k1="1+*x")
    assert main([command, "--config", cfg]) == 1
    assert "bad expression for 'k1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "single, key, message",
    [
        (None, "k1", "the pair 'k1' and 'k2'"),
        (None, "k2", "the pair 'k1' and 'k2'"),
        ("1+2*x", "k1", "not both"),
        ("1+2*x", "k2", "not both"),
    ],
)
def test_compare_lone_pair_member_exits_1(tmp_path, capsys, single, key, message):
    cfg = _base(tmp_path, variant=None, k=single, N=8, **{key: "1+x"})
    raw = json.loads((tmp_path / "run.json").read_text())
    _write_config(
        tmp_path / "run.json", **{k: v for k, v in raw.items() if v is not None}
    )
    assert main(["compare", "--config", cfg]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_nonpositive_degree_exits_1(tmp_path, capsys):
    cfg = _base(tmp_path, N=0, grid_points=11)
    assert main(["compare", "--config", cfg]) == 1
    assert "N must be at least 1" in capsys.readouterr().err


def test_numerical_failure_exits_2(tmp_path, capsys):
    # diffusivity dips below zero inside the domain: config is well formed,
    # the assembly failure surfaces as a numerical error
    cfg = _base(tmp_path, N=8, k="x-0.5")
    assert main(["solve", "--config", cfg]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_system_exits_2(tmp_path, capsys):
    # DiscreteSystem rejects the non-finite entries with a ValueError, which
    # is not a numerical failure; assembly reports them first
    cfg = _base(tmp_path, N=8, k="1e308+x", b="1e308*x", c="1e308")
    assert main(["solve", "--config", cfg]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_converge_numerical_failure_exits_2(tmp_path, capsys):
    # run_convergence names the failing degree in a RuntimeError raised from
    # the assembly failure, which keeps its exit code
    cfg = _base(tmp_path, Ns=[4, 6], N_ref=10, k="x-0.5")
    assert main(["converge", "--config", cfg]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command, kw", [
    ("solve", dict(N=8)),
    ("converge", dict(Ns=[4, 6], N_ref=8)),
])
def test_overflowing_solution_exits_2(tmp_path, command, kw):
    # every entry of the system is finite, but phi ~ 1e300 / 1e-300 is not;
    # converge fails at its reference solve and keeps the exit code
    cfg = _base(tmp_path, k="1e-300", b="0", c="0", f="1e300", grid_points=5, **kw)
    proc = subprocess.run(
        [sys.executable, "-m", "fracspec.cli", command, "--config", cfg],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("fracspec: numerical failure: ")
    assert "the solution overflows" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, kw", [
    ("solve", dict(N=8, grid_points=11)),
    ("converge", dict(Ns=[4, 6], N_ref=10)),
])
def test_advection_singular_at_an_endpoint_exits_0(tmp_path, command, kw):
    # b = x^-0.5 is infinite at x = 0, where the assembly never samples it
    cfg = _base(tmp_path, b="x^-0.5", **kw)
    assert main([command, "--config", cfg]) == 0
    out = tmp_path / "out"
    if command == "solve":
        assert "predicted rate (L2) = 2.25" in (out / "summary.txt").read_text()
    else:
        assert (out / "convergence.csv").read_text().endswith("# pred,2.25,1.25\n")


def test_programming_error_is_not_numerical(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken comparison")

    monkeypatch.setattr(fracspec.cli, "run_comparison", broken)
    cfg = _base(tmp_path, N=8, grid_points=11)
    with pytest.raises(TypeError, match="broken comparison"):
        main(["compare", "--config", cfg])
    assert "numerical failure" not in capsys.readouterr().err


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "fracspec.cli", "--help"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    assert proc.returncode == 0
    # each command and the files it writes, and the two options
    for word in ("solve", "solution.csv", "summary.txt", "converge",
                 "convergence.csv", "compare", "--config", "--out"):
        assert word in proc.stdout


def test_unknown_command_exits_2_and_names_the_choices(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", _base(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'sweep'" in err
    for command in ("solve", "converge", "compare"):
        assert command in err
    assert not (tmp_path / "out").exists()
