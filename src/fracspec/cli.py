"""Command-line front end.

    fracspec solve    --config run.json [--out dir]
    fracspec converge --config run.json [--out dir]
    fracspec compare  --config run.json [--out dir]

The JSON config carries the problem parameters and coefficient expressions;
--out overrides its "output" field.  Exit codes: 0 success, 1 config error,
2 numerical failure (AssemblyError, SingularMatrixError, QuadratureError or
EvalError); any other exception is a fault of the program and propagates.
CSV output is deterministic: 17 significant digits, comma separator, LF line
endings.  Every run echoes its fully resolved config into the output
directory as config.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
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
    """Schema-checked run description with defaults applied."""

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


_KNOWN_KEYS = {field.name for field in fields(RunConfig)}


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _get_number(raw: dict, key: str, required: bool = True):
    if key not in raw:
        _require(not required, f"config: missing required key '{key}'")
        return None
    v = raw[key]
    _require(
        isinstance(v, (int, float)) and not isinstance(v, bool),
        f"config: '{key}' must be a number, got {v!r}",
    )
    return v


def _get_int(raw: dict, key: str, required: bool = True):
    v = _get_number(raw, key, required)
    if v is None:
        return None
    _require(
        isinstance(v, int) or (math.isfinite(v) and v == int(v)),
        f"config: '{key}' must be an integer, got {v!r}",
    )
    return int(v)


def _get_str(raw: dict, key: str, required: bool = True):
    if key not in raw:
        _require(not required, f"config: missing required key '{key}'")
        return None
    v = raw[key]
    _require(isinstance(v, str), f"config: '{key}' must be a string, got {v!r}")
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
    unknown = set(raw) - _KNOWN_KEYS
    _require(not unknown, f"config: unknown keys {sorted(unknown)}")

    alpha = _get_number(raw, "alpha")
    r = _get_number(raw, "r")
    _require(1.0 < alpha < 2.0, f"config: alpha must lie in (1,2), got {alpha}")
    _require(0.0 <= r <= 1.0, f"config: r must lie in [0,1], got {r}")

    cfg = RunConfig(
        alpha=float(alpha),
        r=float(r),
        b=_get_str(raw, "b"),
        c=_get_str(raw, "c"),
        f=_get_str(raw, "f"),
        output="",
        variant=_get_str(raw, "variant", required=False),
        k=_get_str(raw, "k", required=False),
        k1=_get_str(raw, "k1", required=False),
        k2=_get_str(raw, "k2", required=False),
        N=_get_int(raw, "N", required=False),
        N_ref=_get_int(raw, "N_ref", required=False),
        Ns=raw.get("Ns"),
        quad_points=_get_int(raw, "quad_points", required=False),
        grid_points=_get_int(raw, "grid_points", required=False),
    )
    if cfg.N_ref is None:
        cfg.N_ref = RunConfig.N_ref
    if cfg.grid_points is None:
        cfg.grid_points = RunConfig.grid_points

    out = out_override or _get_str(raw, "output", required=False)
    _require(
        bool(out), "config: an output directory is required ('output' key or --out)"
    )
    cfg.output = out

    if cfg.variant is not None:
        _require(
            cfg.variant in ("acute", "grave"),
            f"config: variant must be 'acute' or 'grave', got {cfg.variant!r}",
        )
    if cfg.Ns is not None:
        _require(
            isinstance(cfg.Ns, list)
            and cfg.Ns
            and all(isinstance(n, int) and not isinstance(n, bool) for n in cfg.Ns),
            f"config: 'Ns' must be a nonempty list of integers, got {cfg.Ns!r}",
        )
        _require(
            all(n2 > n1 for n1, n2 in zip(cfg.Ns[:-1], cfg.Ns[1:])),
            f"config: 'Ns' must be strictly ascending, got {cfg.Ns}",
        )
    _require(cfg.grid_points >= 2, "config: grid_points must be at least 2")
    _require(cfg.N_ref >= 1, "config: N_ref must be at least 1")
    _require(cfg.N is None or cfg.N >= 1, "config: N must be at least 1")

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
    return cfg


_NUM = "%.17g"


def _fmt(v: float) -> str:
    return _NUM % v


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _format_column(values) -> np.ndarray:
    """Each value as _fmt formats it, one NUL-padded row of bytes per value
    (numfmt.g17_cells)."""
    return g17_cells(values)


def _write_csv(path: str, header: str, x_cells: np.ndarray, columns):
    """The header, then one line per grid point: its x cell from
    _format_column, so files on one grid share one formatting of it, then the
    point's value in each of the equal-length columns, formatted as _fmt
    does.  The file is one array of cells and separators with its NUL
    padding deleted, written in one call."""
    n = len(x_cells)
    comma = np.full((n, 1), ord(","), dtype=np.uint8)
    parts = [x_cells]
    for col in columns:
        parts += [comma, _format_column(col)]
    parts.append(np.full((n, 1), ord("\n"), dtype=np.uint8))
    body = np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode("ascii") + body)


def _echo_config(cfg: RunConfig, command: str):
    resolved = {
        "command": command,
        "alpha": cfg.alpha,
        "r": cfg.r,
        "b": cfg.b,
        "c": cfg.c,
        "f": cfg.f,
        "N_ref": cfg.N_ref,
        "grid_points": cfg.grid_points,
        "output": cfg.output,
    }
    if cfg.variant is not None:
        resolved["variant"] = cfg.variant
    for key in ("k", "k1", "k2"):
        val = getattr(cfg, key)
        if val is not None:
            resolved[key] = val
    if cfg.N is not None:
        resolved["N"] = cfg.N
        resolved["quad_points"] = (
            cfg.quad_points if cfg.quad_points is not None else cfg.N + 20
        )
    elif cfg.quad_points is not None:
        resolved["quad_points"] = cfg.quad_points
    if cfg.Ns is not None:
        resolved["Ns"] = cfg.Ns
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


def _build_spec(cfg: RunConfig, exprs: dict, N: int) -> ProblemSpec:
    # parameter-window violations are config mistakes, not numerics
    try:
        fp = solve_beta(cfg.alpha, cfg.r)
        return ProblemSpec(
            fp,
            cfg.variant,
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
    spec = _build_spec(cfg, exprs, cfg.N)
    fp = spec.fp
    os.makedirs(cfg.output, exist_ok=True)
    _echo_config(cfg, "solve")

    system = assemble_system(spec)
    sol = solve(spec, system)
    rhs0 = float(system.rhs[0])
    pred = predicted_rates(fp, coeff_is_zero(exprs["b"]), math.inf, cfg.variant)
    xs = np.linspace(0.0, 1.0, cfg.grid_points)
    _write_csv(
        os.path.join(cfg.output, "solution.csv"), "x,u", _format_column(xs), [sol.u(xs)]
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
    spec = _build_spec(cfg, exprs, cfg.Ns[0])
    os.makedirs(cfg.output, exist_ok=True)
    _echo_config(cfg, "converge")

    report = run_convergence(spec, cfg.Ns, cfg.N_ref)
    lines = ["N,err_L2,rate_L2,err_H1,rate_H1"]
    for N, e0, r0, e1, r1 in report.rows:
        lines.append(
            ",".join(
                [
                    str(N),
                    _fmt(e0),
                    "" if r0 is None else _fmt(r0),
                    _fmt(e1),
                    "" if r1 is None else _fmt(r1),
                ]
            )
        )
    lines.append(f"# pred,{report.predicted[0]:.2f},{report.predicted[1]:.2f}")
    _write_text(os.path.join(cfg.output, "convergence.csv"), "\n".join(lines) + "\n")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    if cfg.k1 is not None:
        labels = ["k1", "k2"]
    else:
        labels = ["k"]
    exprs = _parse_exprs(cfg, labels + ["b", "c", "f"])
    try:
        fp = solve_beta(cfg.alpha, cfg.r)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    N = cfg.N if cfg.N is not None else 40
    if cfg.quad_points is not None and cfg.quad_points < N + 20:
        raise ConfigError(
            f"config: quad_points must be at least N+20 = {N + 20}, got {cfg.quad_points}"
        )
    os.makedirs(cfg.output, exist_ok=True)
    _echo_config(cfg, "compare")

    reports = run_comparison(
        fp,
        [exprs[label] for label in labels],
        exprs["b"],
        exprs["c"],
        exprs["f"],
        N=N,
        grid_points=cfg.grid_points,
        quad_points=cfg.quad_points,
    )
    # every report samples the same grid
    x_cells = _format_column(reports[0].x)
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
