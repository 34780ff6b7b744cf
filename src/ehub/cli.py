"""Command line front end.

Subcommands: ground, entropy, local, sweep, scaling, sizescan,
derivative, momentum, validate.  ``SUBCOMMANDS`` holds one record per
subcommand: the flags it reads, the ones it requires, and the function
that builds its inputs, runs the driver and returns the text to emit.
A subcommand accepts only its own flags (``ehub SUB --help`` lists
them); any other flag is a usage error.  The flags may also be supplied
through a flat key=value config file (--config) whose keys must be flags
of the same subcommand; command-line flags win.  Results go to standard
output as CSV unless --out is given; per-point progress goes to
standard error.  Exit codes: 0 success, 1 computational failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import sys
from math import isfinite
from typing import Any, Callable, NamedTuple

import numpy as np

from .eigen import ConvergenceError, ground_state
from .fock import Sector, enumerate_sector
from .hamiltonian import BC_CHOICES, ModelParams
from .momentum import allowed_momenta, momentum_pair_block
from .rdm import local_entanglement, local_weights
from .sweep import (
    SolverOptions,
    SweepSpec,
    derivative_scan,
    gnuplot_script,
    momentum_scan,
    parse_range,
    rows_to_csv,
    rows_to_matrix,
    run_grid,
    run_point,
    scaling_fit,
    size_scan,
    write_text,
)


class UsageError(Exception):
    pass


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.split(","))


def _finite(raw: str) -> float:
    value = float(raw)
    if not isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _choice(*allowed: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(f"must be one of {'|'.join(allowed)}, got {raw!r}")
        return raw

    return parse


_FLAGS: dict[str, tuple[Callable[[str], Any], Any, str]] = {
    # name -> (parser, default or None, help)
    "L": (_int_list, None, "site count (sizescan accepts a comma list)"),
    "U": (_finite, None, "on-site coupling"),
    "V": (_finite, None, "nearest-neighbor coupling"),
    "l": (_int_list, None, "block size(s), comma separated"),
    "t": (_finite, 1.0, "hopping amplitude"),
    "bc": (_choice(*BC_CHOICES), "auto", "boundary condition: auto|periodic|antiperiodic"),
    "grid-u": (parse_range, None, "U grid as min:max:step"),
    "grid-v": (parse_range, None, "V grid as min:max:step"),
    "k": (_finite, None, "momentum in radians, snapped to the grid"),
    "h": (_finite, 0.05, "central-difference half step"),
    "tol": (_finite, 1e-10, "eigensolver energy tolerance"),
    "max-iter": (int, 2000, "Lanczos iteration cap"),
    "seed": (int, 1, "start-vector seed"),
    "threads": (int, 1, "worker count; only sweep takes more than 1"),
    "out": (str, None, "output file (default: stdout)"),
    "format": (_choice("csv", "matrix"), "csv", "output format: csv|matrix"),
    "config": (str, None, "key=value config file; flags take precedence"),
    "axis": (_choice("U", "V"), None, "scan axis: U|V"),
    "site": (int, 0, "site index, 0 <= site < L"),
    "plot-script": (str, None, "also write a gnuplot command file here"),
}


def _require(opts: dict[str, Any], flags) -> None:
    missing = [f"--{flag}" for flag in flags if flag not in opts]
    if missing:
        raise UsageError(f"missing required flag {', '.join(missing)}")


def _solver(o: dict[str, Any]) -> SolverOptions:
    try:
        return SolverOptions(tol=o["tol"], max_iter=o["max-iter"], seed=o["seed"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _single_L(o: dict[str, Any]) -> int:
    if len(o["L"]) != 1:
        raise UsageError("this subcommand takes a single --L")
    return o["L"][0]


def _single_l(o: dict[str, Any]) -> int:
    if len(o["l"]) != 1:
        raise UsageError("this subcommand takes a single block size")
    return o["l"][0]


def _model(o: dict[str, Any]) -> ModelParams:
    try:
        return ModelParams(L=_single_L(o), U=o["U"], V=o["V"], t=o["t"], bc=o["bc"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _csv_line(header: str, cells) -> str:
    return header + "\n" + ",".join(cells) + "\n"


def _ground(o: dict[str, Any]) -> str:
    params = _model(o)
    result = ground_state(params, **_solver(o).kwargs())
    return _csv_line(
        "L,U,V,bc,energy,gap,residual,degenerate,method,iterations",
        [
            str(params.L), f"{params.U:.12g}", f"{params.V:.12g}", params.resolved_bc(),
            f"{result.energy:.12g}", f"{result.gap:.12g}", f"{result.residual:.3e}",
            "1" if result.degenerate else "0", result.method, str(result.iterations),
        ],
    )


def _entropy(o: dict[str, Any]) -> str:
    return rows_to_csv(run_point(_model(o), o["l"], _solver(o), verbose=True))


def _local(o: dict[str, Any]) -> str:
    params = _model(o)
    site = o["site"]
    if not 0 <= site < params.L:
        raise UsageError(f"--site must satisfy 0 <= site < {params.L}, got {site}")
    result = ground_state(params, **_solver(o).kwargs())
    weights = local_weights(result, enumerate_sector(Sector.half_filled(params.L)), site=site)
    entropy = local_entanglement(weights)
    return _csv_line(
        "L,U,V,site,z,u_plus,u_minus,w,entropy_bits",
        [str(params.L), f"{params.U:.12g}", f"{params.V:.12g}", str(site)]
        + [f"{x:.12g}" for x in (weights.z, weights.u_plus, weights.u_minus, weights.w, entropy)],
    )


def _sweep_spec(o: dict[str, Any]) -> SweepSpec:
    try:
        return SweepSpec(
            L=_single_L(o),
            block_sizes=o["l"],
            # the default window brackets every feature of the phase diagram
            u_values=o.get("grid-u", parse_range("-4:4:0.1")),
            v_values=o.get("grid-v", parse_range("-2:2:0.1")),
            bc=o["bc"],
            t=o["t"],
            solver=_solver(o),
            workers=o["threads"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _sweep(o: dict[str, Any]) -> str:
    spec = _sweep_spec(o)
    if o["format"] == "csv":
        return rows_to_csv(run_grid(spec))
    if len(spec.block_sizes) != 1:
        raise UsageError("matrix output needs exactly one block size")
    return rows_to_matrix(run_grid(spec), spec.u_values, spec.v_values)


def _scaling(o: dict[str, Any]) -> str:
    params = _model(o)
    block_sizes = o.get("l", tuple(range(1, params.L // 2 + 1)))
    distinct = sorted(set(block_sizes))
    if len(distinct) < 3:
        raise UsageError(
            f"scaling fits at least 3 distinct block sizes, got {len(distinct)} "
            f"({','.join(map(str, distinct))}); at --L 4 the default --l 1,2 cannot be fitted"
        )
    rows = run_point(params, block_sizes, _solver(o), verbose=True)
    fit = scaling_fit([row.l for row in rows], [row.entropy_bits for row in rows])
    return _csv_line(
        "slope,intercept,r_squared",
        [f"{fit.slope:.12g}", f"{fit.intercept:.12g}", f"{fit.r_squared:.12g}"],
    )


def _sizescan(o: dict[str, Any]) -> str:
    # the scanned axis reads its grid, the other axis its fixed coupling
    axis = o["axis"]
    if axis == "U":
        grid, fixed, unread = "grid-u", "V", ("grid-v", "U")
    else:
        grid, fixed, unread = "grid-v", "U", ("grid-u", "V")
    for flag in unread:
        if flag in o:
            raise UsageError(f"--axis {axis} does not read --{flag}")
    _require(o, (grid, fixed))
    rows = size_scan(
        _single_l(o), o["L"], axis, o[grid], fixed=o[fixed], bc=o["bc"], t=o["t"],
        solver=_solver(o),
    )
    return rows_to_csv(rows)


def _derivative(o: dict[str, Any]) -> str:
    table = derivative_scan(
        _single_L(o), _single_l(o), o["U"], o["grid-v"], h=o["h"], bc=o["bc"], t=o["t"],
        solver=_solver(o), verbose=True,
    )
    return "\n".join(["V,dS_dV"] + [f"{v:.12g},{d:.12g}" for v, d in table]) + "\n"


def _momentum(o: dict[str, Any]) -> str:
    L = _single_L(o)
    try:
        momentum_pair_block(allowed_momenta(L, o["bc"]), o["k"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = momentum_scan(L, o["k"], o["U"], o["grid-v"], bc=o["bc"], t=o["t"], solver=_solver(o))
    return rows_to_csv(rows)


def _validate(o: dict[str, Any]) -> int:
    from .validate import run_validation

    return 0 if all(r.passed for r in run_validation()) else 1


class Subcommand(NamedTuple):
    flags: tuple[str, ...]
    required: tuple[str, ...]
    # returns the text to emit, or the exit code of a subcommand that prints as it goes
    run: Callable[[dict[str, Any]], str | int]


_COMMON = ("t", "bc", "tol", "max-iter", "seed", "threads", "out", "config")
_POINT = ("L", "U", "V")

SUBCOMMANDS: dict[str, Subcommand] = {
    "ground": Subcommand(_POINT + _COMMON, _POINT, _ground),
    "entropy": Subcommand(_POINT + ("l", "plot-script") + _COMMON, _POINT + ("l",), _entropy),
    "local": Subcommand(_POINT + ("site",) + _COMMON, _POINT, _local),
    "sweep": Subcommand(
        ("L", "l", "grid-u", "grid-v", "format", "plot-script") + _COMMON, ("L", "l"), _sweep
    ),
    "scaling": Subcommand(_POINT + ("l",) + _COMMON, _POINT, _scaling),
    "sizescan": Subcommand(
        ("L", "l", "axis", "grid-u", "V", "grid-v", "U", "plot-script") + _COMMON,
        ("L", "l", "axis"),
        _sizescan,
    ),
    "derivative": Subcommand(
        ("L", "l", "U", "grid-v", "h") + _COMMON, ("L", "l", "U", "grid-v"), _derivative
    ),
    "momentum": Subcommand(
        ("L", "k", "U", "grid-v", "plot-script") + _COMMON, ("L", "k", "U", "grid-v"), _momentum
    ),
    "validate": Subcommand((), (), _validate),
}


def _load_config_file(path: str, sub: str) -> dict[str, str]:
    keys = set(SUBCOMMANDS[sub].flags) - {"config"}
    table: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, raw = (part.strip() for part in line.split("=", 1))
                if key not in keys:
                    raise UsageError(f"{path}:{lineno}: {key!r} is not a flag of {sub}")
                table[key] = raw
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehub",
        description="Exact diagonalization and block entanglement for the extended Hubbard chain.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="|".join(SUBCOMMANDS))
    for name, command in SUBCOMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in command.flags:
            _, default, help_text = _FLAGS[flag]
            if flag in command.required:
                help_text += " (required)"
            elif default is not None:
                help_text += f" (default {default})"
            p.add_argument(f"--{flag}", type=str, default=None, help=help_text, dest=flag)
    return parser


def _merge_flag_values(argv: list[str]) -> list[str]:
    """Join '--flag value' into '--flag=value' so values may start with '-'.

    Ranges like -4:4:0.1 and negative couplings would otherwise be taken
    for option names by the parser.
    """
    known = {f"--{name}" for name in _FLAGS}
    merged = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in known and i + 1 < len(argv) and argv[i + 1] not in known:
            merged.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            merged.append(token)
            i += 1
    return merged


def parse_args(argv=None) -> tuple[str, dict[str, Any]]:
    """The subcommand name and its parsed flags, with defaults filled in."""
    if argv is None:
        argv = sys.argv[1:]
    ns = _build_parser().parse_args(_merge_flag_values(list(argv)))
    sub = ns.subcommand
    command = SUBCOMMANDS[sub]
    given = {flag: getattr(ns, flag) for flag in command.flags if getattr(ns, flag) is not None}
    raw = {**(_load_config_file(given["config"], sub) if "config" in given else {}), **given}
    opts = {flag: _FLAGS[flag][1] for flag in command.flags if _FLAGS[flag][1] is not None}
    for flag, value in raw.items():
        try:
            opts[flag] = _FLAGS[flag][0](value)
        except ValueError as exc:
            raise UsageError(f"bad value for --{flag}: {exc}") from exc
    _require(opts, command.required)
    if opts.get("threads", 1) != 1 and sub != "sweep":
        raise UsageError(f"--threads applies only to sweep; {sub} runs serially")
    if "plot-script" in opts and not opts.get("out"):
        raise UsageError("--plot-script needs --out so the script has a data file")
    return sub, opts


def run(sub: str, opts: dict[str, Any]) -> int:
    content = SUBCOMMANDS[sub].run(opts)
    if isinstance(content, int):
        return content
    out = opts.get("out")
    if out:
        write_text(out, content)
    else:
        sys.stdout.write(content)
    if "plot-script" in opts:
        write_text(opts["plot-script"], gnuplot_script(out, opts.get("format", "csv")))
    return 0


def main(argv=None) -> int:
    try:
        return run(*parse_args(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
