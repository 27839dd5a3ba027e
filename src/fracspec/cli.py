"""Command-line front end.

    fracspec solve    --config run.json [--out dir]
    fracspec converge --config run.json [--out dir]
    fracspec compare  --config run.json [--out dir]

The JSON config carries the problem parameters and coefficient expressions;
--out overrides its "output" field.  Exit codes: 0 success, 1 config error,
2 numerical failure (AssemblyError, SingularMatrixError, QuadratureError or
EvalError); any other exception is a fault of the program and propagates.
load_config reads every key through one table of kinds and integer ranges,
_SETTINGS; settings above MAX_DEGREE (N, N_ref, Ns), MAX_QUAD_POINTS and
MAX_GRID_POINTS are config errors.  Each command builds its ProblemSpec
through _build_spec, so FracParams checks alpha and r and ProblemSpec checks
N and quad_points; converge builds it at N_ref, where its sweep assembles.
CSV output is deterministic: 17 significant digits, comma separator, LF line
endings.  Every run echoes its fully resolved config into the output
directory as config.json: every setting given or defaulted, and spec.q.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional

import numpy as np

from .assembly import AssemblyError, ProblemSpec, assemble_system
from .coeffexpr import EvalError, ParseError, parse
from .experiments import coeff_is_zero, run_comparison, run_convergence
from .fracparams import predicted_rates, solve_beta
from .jacobi import QuadratureError
from .linsolve import SingularMatrixError
from .numfmt import g17_cells
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


@dataclass
class RunConfig:
    """Schema-checked run description; a key the config leaves out takes
    its default here."""

    alpha: float
    r: float
    b: str
    c: str
    f: str
    output: str
    variant: Optional[str] = None
    k: Optional[str] = None
    k1: Optional[str] = None
    k2: Optional[str] = None
    N: Optional[int] = None
    N_ref: int = 40
    Ns: Optional[list] = None
    quad_points: Optional[int] = None
    grid_points: int = 1001


# every RunConfig key's kind: a number, a string, a tuple of its choices, or
# an integer or an ascending list of integers in [least, most].  A least of
# None leaves the bound to ProblemSpec, as FracParams checks alpha and r.
_SETTINGS = {
    "alpha": (float,),
    "r": (float,),
    **dict.fromkeys(("b", "c", "f", "output", "k", "k1", "k2"), (str,)),
    "variant": (("acute", "grave"),),
    "N": (int, None, MAX_DEGREE),
    "N_ref": (int, 1, MAX_DEGREE),
    "Ns": (list, 1, MAX_DEGREE),
    "quad_points": (int, None, MAX_QUAD_POINTS),
    "grid_points": (int, 2, MAX_GRID_POINTS),
}


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _is_number(v) -> bool:
    """A finite JSON number, so float(v) cannot overflow; not a bool."""
    return (
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max
    )


def _is_integral(v) -> bool:
    """A JSON integer, or a finite float with an integral value; not a bool."""
    if isinstance(v, int):
        return not isinstance(v, bool)
    return _is_number(v) and v == int(v)


def _in_range(key: str, v: int, least: Optional[int], most: int) -> int:
    _require(
        least is None or v >= least, f"config: {key} must be at least {least}, got {v}"
    )
    _require(v <= most, f"config: '{key}' must be at most {most}, got {v}")
    return v


def _setting(key: str, v):
    """The value v of key, checked against its row of _SETTINGS."""
    kind, *bounds = _SETTINGS[key]
    if kind is float:
        _require(_is_number(v), f"config: '{key}' must be a finite number, got {v!r}")
        return float(v)
    if kind is str:
        _require(isinstance(v, str), f"config: '{key}' must be a string, got {v!r}")
    elif kind is int:
        _require(_is_integral(v), f"config: '{key}' must be an integer, got {v!r}")
        v = _in_range(key, int(v), *bounds)
    elif kind is list:
        _require(
            isinstance(v, list) and v and all(map(_is_integral, v)),
            f"config: '{key}' must be a nonempty list of integers, got {v!r}",
        )
        v = [_in_range(key, int(n), *bounds) for n in v]
        _require(
            all(n2 > n1 for n1, n2 in zip(v[:-1], v[1:])),
            f"config: '{key}' must be strictly ascending, got {v}",
        )
    else:
        choices = " or ".join(map(repr, kind))
        _require(v in kind, f"config: '{key}' must be {choices}, got {v!r}")
    return v


def load_config(path: str, out_override: Optional[str], command: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "config: top level must be a JSON object")
    unknown = set(raw) - set(_SETTINGS)
    _require(not unknown, f"config: unknown keys {sorted(unknown)}")
    if out_override:
        raw["output"] = out_override
    _require(
        raw.get("output"),
        "config: an output directory is required ('output' key or --out)",
    )
    required = [f.name for f in fields(RunConfig) if f.default is MISSING]
    missing = [key for key in required if key not in raw]
    _require(not missing, f"config: missing required keys {missing}")
    cfg = RunConfig(**{key: _setting(key, v) for key, v in raw.items()})

    if command in ("solve", "converge"):
        _require(cfg.variant is not None, f"config: '{command}' needs a 'variant'")
        _require(cfg.k is not None, f"config: '{command}' needs a diffusivity 'k'")
    if command == "solve":
        _require(cfg.N is not None, "config: 'solve' needs a degree 'N'")
    if command == "converge":
        _require(cfg.Ns is not None, "config: 'converge' needs a list 'Ns'")
        _require(
            max(cfg.Ns) < cfg.N_ref,
            f"config: max(Ns)={max(cfg.Ns)} must stay below N_ref={cfg.N_ref}",
        )
    if command == "compare":
        has_pair = cfg.k1 is not None and cfg.k2 is not None
        _require(
            has_pair or cfg.k is not None,
            "config: 'compare' needs either 'k' or the pair 'k1' and 'k2'",
        )
        _require(
            not (has_pair and cfg.k is not None),
            "config: give 'k' or 'k1'/'k2', not both",
        )
        if cfg.N is None:
            cfg.N = 40  # compare's default degree
    return cfg


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: str, header: str, x_cells: np.ndarray, columns):
    """The header, then one line per grid point: its x cell from g17_cells,
    so files on one grid share one formatting of it, then the point's value
    in each of the equal-length columns, formatted as %.17g does.  The file
    is one array of cells and separators with its NUL padding deleted,
    written in one call."""
    n = len(x_cells)
    comma = np.full((n, 1), ord(","), dtype=np.uint8)
    parts = [x_cells]
    for col in columns:
        parts += [comma, g17_cells(col)]
    parts.append(np.full((n, 1), ord("\n"), dtype=np.uint8))
    body = np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode("ascii") + body)


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


def _parse_exprs(cfg: RunConfig, keys) -> dict:
    out = {}
    for key in keys:
        src = getattr(cfg, key)
        try:
            out[key] = parse(src)
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
    exprs = _parse_exprs(cfg, ("k", "b", "c", "f"))
    spec = _build_spec(cfg, exprs, cfg.N, cfg.variant)
    fp = spec.fp
    os.makedirs(cfg.output, exist_ok=True)
    _echo_config(cfg, "solve", spec.q)

    system = assemble_system(spec)
    sol = solve(spec, system)
    rhs0 = float(system.rhs[0])
    pred = predicted_rates(fp, coeff_is_zero(exprs["b"]), math.inf, cfg.variant)
    xs = np.linspace(0.0, 1.0, cfg.grid_points)
    _write_csv(
        os.path.join(cfg.output, "solution.csv"), "x,u", g17_cells(xs), [sol.u(xs)]
    )

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
    exprs = _parse_exprs(cfg, ("k", "b", "c", "f"))
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
    labels = ["k1", "k2"] if cfg.k1 is not None else ["k"]
    exprs = _parse_exprs(cfg, labels + ["b", "c", "f"])
    ks = [exprs[label] for label in labels]
    # run_comparison solves each of ks in both variants; the spec's own k
    # and variant are not used
    spec = _build_spec(cfg, {**exprs, "k": ks[0]}, cfg.N, "acute")
    os.makedirs(cfg.output, exist_ok=True)
    _echo_config(cfg, "compare", spec.q)

    reports = run_comparison(spec, ks, cfg.grid_points)
    # every report samples the same grid
    x_cells = g17_cells(reports[0].x)
    for label, rep in zip(labels, reports):
        name = "compare.csv" if label == "k" else f"compare_{label}.csv"
        _write_csv(
            os.path.join(cfg.output, name),
            "x,u_acute,u_grave",
            x_cells,
            [rep.u_acute, rep.u_grave],
        )
    return 0


_COMMANDS = {"solve": cmd_solve, "converge": cmd_converge, "compare": cmd_compare}


def main(argv=None) -> int:
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
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.config, args.out, args.command)
    except ConfigError as exc:
        print(f"fracspec: {exc}", file=sys.stderr)
        return 1
    try:
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
