"""Command-line front end.

    fracspec solve    --config run.json [--out dir]
    fracspec converge --config run.json [--out dir]
    fracspec compare  --config run.json [--out dir]

The JSON config carries the problem parameters and coefficient expressions;
--out overrides its "output" field.  Exit codes: 0 success, 1 config error,
2 numerical failure (AssemblyError, SingularMatrixError, QuadratureError or
EvalError); any other exception is a fault of the program and propagates.
load_config reads every key by the kind and integer range its RunConfig
field carries; settings above MAX_DEGREE (N, N_ref, Ns), MAX_QUAD_POINTS and
MAX_GRID_POINTS are config errors, and so is an Ns that check_degrees
rejects, read or not.  Each command parses every expression set
and builds its ProblemSpec (_build_spec: FracParams checks alpha and r,
ProblemSpec N and quad_points, at N_ref for converge) before any output.
CSV output is deterministic: 17 significant digits, comma separator, LF line
endings; a command's CSV files share one row array, with the x column
formatted once.  Every run echoes its fully resolved config into the output
directory as config.json: every setting given or defaulted, and spec.q.
The argument parser is built on the first call to main and kept for the
process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .assembly import AssemblyError, ProblemSpec, as_integer, assemble_system
from .coeffexpr import EvalError, ParseError, parse
from .experiments import check_degrees, coeff_is_zero, run_comparison, run_convergence
from .fracparams import predicted_rates, solve_beta
from .jacobi import QuadratureError
from .linsolve import SingularMatrixError
from .numfmt import WIDTH, write_g17
from .solver import solve


class ConfigError(Exception):
    pass


# the largest size settings accepted; larger ones would allocate gigabytes
# (an (N+1)^2 system, a grid_points x (N+1) basis table) before failing
MAX_DEGREE = 2048
MAX_QUAD_POINTS = 4096
MAX_GRID_POINTS = 100_001


# failures of the numerics on a well-formed config: exit code 2
_NUMERICAL = (AssemblyError, SingularMatrixError, QuadratureError, EvalError)


def _is_numerical(exc: Exception) -> bool:
    # run_convergence names the failing degree in a RuntimeError raised from
    # the original error
    return isinstance(exc, _NUMERICAL) or (
        isinstance(exc, RuntimeError) and isinstance(exc.__cause__, _NUMERICAL)
    )


def _kind(kind, least=None, most=None, default=MISSING):
    """A RunConfig field read as kind: a number, a string, a tuple of its
    choices, or an integer or a list of integers in [least, most].  A least
    of None leaves the bound to ProblemSpec, as FracParams checks alpha and
    r; a given Ns meets the rest of experiments.check_degrees under every
    command."""
    return field(default=default, metadata={"kind": (kind, least, most)})


@dataclass
class RunConfig:
    """Schema-checked run description; a key the config leaves out takes
    its default here."""

    alpha: float = _kind(float)
    r: float = _kind(float)
    b: str = _kind(str)
    c: str = _kind(str)
    f: str = _kind(str)
    output: str = _kind(str)
    variant: Optional[str] = _kind(("acute", "grave"), default=None)
    k: Optional[str] = _kind(str, default=None)
    k1: Optional[str] = _kind(str, default=None)
    k2: Optional[str] = _kind(str, default=None)
    N: Optional[int] = _kind(int, None, MAX_DEGREE, default=None)
    N_ref: int = _kind(int, 1, MAX_DEGREE, default=40)
    Ns: Optional[list] = _kind(list, 1, MAX_DEGREE, default=None)
    quad_points: Optional[int] = _kind(int, None, MAX_QUAD_POINTS, default=None)
    grid_points: int = _kind(int, 2, MAX_GRID_POINTS, default=1001)


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _is_number(v) -> bool:
    """A finite JSON number, so float(v) cannot overflow; not a bool."""
    return (
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max
    )


def _setting(key: str, v):
    """The value v of key, checked against the kind its field carries."""
    kind, least, most = _FIELDS[key].metadata["kind"]
    if kind is float:
        _require(_is_number(v), f"config: '{key}' must be a finite number, got {v!r}")
        return float(v)
    if kind is str:
        _require(isinstance(v, str), f"config: '{key}' must be a string, got {v!r}")
        return v
    if isinstance(kind, tuple):
        choices = " or ".join(map(repr, kind))
        _require(v in kind, f"config: '{key}' must be {choices}, got {v!r}")
        return v
    items = [v] if kind is int else v if isinstance(v, list) else []
    what = "an integer" if kind is int else "a nonempty list of integers"
    try:
        ns = [as_integer(n, key) for n in items]
    except ValueError:
        ns = []
    _require(ns, f"config: '{key}' must be {what}, got {v!r}")
    for n in ns:
        _require(
            least is None or n >= least, f"config: '{key}' must be at least {least}, got {n}"
        )
        _require(n <= most, f"config: '{key}' must be at most {most}, got {n}")
    return ns[0] if kind is int else ns


def load_config(path: str, out_override: Optional[str], command: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "config: top level must be a JSON object")
    unknown = set(raw) - set(_FIELDS)
    _require(not unknown, f"config: unknown keys {sorted(unknown)}")
    if out_override is not None:
        raw["output"] = out_override
    _require(
        raw.get("output"),
        "config: an output directory is required ('output' key or --out)",
    )
    required = [key for key, f in _FIELDS.items() if f.default is MISSING]
    missing = [key for key in required if key not in raw]
    _require(not missing, f"config: missing required keys {missing}")
    cfg = RunConfig(**{key: _setting(key, v) for key, v in raw.items()})
    if cfg.Ns is not None:
        try:
            check_degrees(cfg.Ns, cfg.N_ref)
        except ValueError as exc:
            raise ConfigError(f"config: {exc}") from None

    if command in ("solve", "converge"):
        _require(cfg.variant is not None, f"config: '{command}' needs a 'variant'")
        _require(cfg.k is not None, f"config: '{command}' needs a diffusivity 'k'")
    if command == "solve":
        _require(cfg.N is not None, "config: 'solve' needs a degree 'N'")
    if command == "converge":
        _require(cfg.Ns is not None, "config: 'converge' needs a list 'Ns'")
    if command == "compare":
        pair = (cfg.k1, cfg.k2)
        _require(
            cfg.k is not None or None not in pair,
            "config: 'compare' needs either 'k' or the pair 'k1' and 'k2'",
        )
        _require(
            cfg.k is None or pair == (None, None),
            "config: give 'k' or 'k1'/'k2', not both",
        )
        if cfg.N is None:
            cfg.N = 40  # compare's default degree
    return cfg


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csvs(header: str, x: np.ndarray, files):
    """Each (path, columns) of files as a CSV: the header, then one line per
    grid point of x, its value in each of the columns, formatted as %.17g
    does.  Every file has the header's number of columns, and the files
    share one array of rows, each cell followed by its separator: x is
    formatted into its first column and the separators set once, each
    file's columns are formatted over the previous file's, and the rows are
    written with their NUL padding deleted."""
    rows = np.empty((len(x), header.count(",") + 1, WIDTH + 1), dtype=np.uint8)
    write_g17(x, rows[:, 0, :WIDTH])
    rows[:, :, WIDTH] = ord(",")
    rows[:, -1, WIDTH] = ord("\n")
    head = f"{header}\n".encode("ascii")
    for path, columns in files:
        for j, col in enumerate(columns, 1):
            write_g17(col, rows[:, j, :WIDTH])
        with open(path, "wb") as fh:
            fh.write(head)
            fh.write(rows.tobytes().translate(None, b"\0"))


def _echo_config(cfg: RunConfig, command: str, q: int):
    """config.json: every setting that is set, the command, and the
    quadrature size q the run ran at."""
    resolved = {key: val for key, val in asdict(cfg).items() if val is not None}
    resolved["command"] = command
    resolved["quad_points"] = q
    _write_text(
        os.path.join(cfg.output, "config.json"),
        json.dumps(resolved, indent=2, sort_keys=True) + "\n",
    )


def _parse_exprs(cfg: RunConfig) -> dict:
    """Every expression setting parsed, None where unset, read or not."""
    out = {}
    for key in ("k", "k1", "k2", "b", "c", "f"):
        src = getattr(cfg, key)
        try:
            out[key] = None if src is None else parse(src)
        except ParseError as exc:
            raise ConfigError(f"config: bad expression for '{key}': {exc}") from None
    return out


def _build_spec(cfg: RunConfig, exprs: dict, N: int, variant: str) -> ProblemSpec:
    # FracParams' parameter window and ProblemSpec's degree and quadrature
    # size: violations are config mistakes, not numerics
    try:
        fp = solve_beta(cfg.alpha, cfg.r)
        return ProblemSpec(
            fp,
            variant,
            exprs["k"],
            exprs["b"],
            exprs["c"],
            exprs["f"],
            N,
            cfg.quad_points,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_solve(cfg: RunConfig) -> int:
    exprs = _parse_exprs(cfg)
    spec = _build_spec(cfg, exprs, cfg.N, cfg.variant)
    fp = spec.fp
    os.makedirs(cfg.output, exist_ok=True)
    _echo_config(cfg, "solve", spec.q)

    system = assemble_system(spec)
    sol = solve(spec, system)
    rhs0 = float(system.rhs[0])
    pred = predicted_rates(fp, coeff_is_zero(exprs["b"]), math.inf, cfg.variant)
    xs = np.linspace(0.0, 1.0, cfg.grid_points)
    _write_csvs("x,u", xs, [(os.path.join(cfg.output, "solution.csv"), [sol.u(xs)])])

    d = sol.diagnostics
    summary = "\n".join(
        [
            f"variant = {cfg.variant}",
            f"alpha = {fp.alpha:.6g}",
            f"r = {fp.r:.6g}",
            f"beta = {fp.beta:.6g}",
            f"c_star_star = {fp.c_star_star:.6g}",
            f"predicted rate (L2) = {pred[0]:.6g}",
            f"predicted rate (H1) = {pred[1]:.6g}",
            f"rhs[0] = {rhs0:.6g}",
            f"k_min = {d['k_min']:.6g} at x = {d['k_min_location']:.6g}",
            f"condition estimate = {d['condition']:.6g}",
            f"residual = {d['residual']:.6g}",
            f"pivot growth = {d['pivot_growth']:.6g}",
        ]
    )
    _write_text(os.path.join(cfg.output, "summary.txt"), summary + "\n")
    return 0


def cmd_converge(cfg: RunConfig) -> int:
    exprs = _parse_exprs(cfg)
    # the sweep assembles at N_ref, so that is the degree quad_points must suit
    spec = _build_spec(cfg, exprs, cfg.N_ref, cfg.variant)
    os.makedirs(cfg.output, exist_ok=True)
    _echo_config(cfg, "converge", spec.q)

    report = run_convergence(spec, cfg.Ns, cfg.N_ref)
    lines = ["N,err_L2,rate_L2,err_H1,rate_H1"]
    for N, *values in report.rows:
        cells = ["" if v is None else "%.17g" % v for v in values]
        lines.append(",".join([str(N)] + cells))
    lines.append(f"# pred,{report.predicted[0]:.2f},{report.predicted[1]:.2f}")
    _write_text(os.path.join(cfg.output, "convergence.csv"), "\n".join(lines) + "\n")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    labels = ["k"] if cfg.k is not None else ["k1", "k2"]
    exprs = _parse_exprs(cfg)
    ks = [exprs[label] for label in labels]
    # run_comparison solves each of ks in both variants; the spec's own k
    # and variant are not used
    spec = _build_spec(cfg, {**exprs, "k": ks[0]}, cfg.N, "acute")
    os.makedirs(cfg.output, exist_ok=True)
    _echo_config(cfg, "compare", spec.q)

    reports = run_comparison(spec, ks, cfg.grid_points)
    files = []
    for label, rep in zip(labels, reports):
        name = "compare.csv" if label == "k" else f"compare_{label}.csv"
        files.append((os.path.join(cfg.output, name), [rep.u_acute, rep.u_grave]))
    # every report samples the same grid
    _write_csvs("x,u_acute,u_grave", reports[0].x, files)
    return 0


_COMMANDS = {"solve": cmd_solve, "converge": cmd_converge, "compare": cmd_compare}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracspec",
        description="Spectral solver for two-sided fractional diffusion problems",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("solve", "solve one problem and write solution.csv + summary.txt"),
        ("converge", "run a degree sweep and write convergence.csv"),
        ("compare", "solve both operator variants and write comparison CSVs"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to JSON config")
        sp.add_argument("--out", default=None, help="output directory override")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config, args.out, args.command)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"fracspec: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        if not _is_numerical(exc):
            raise
        print(f"fracspec: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
