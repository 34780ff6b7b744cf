"""Command line front end.

Subcommands: ground, entropy, local, sweep, scaling, sizescan,
derivative, momentum, validate.  All flags may also be supplied through
a flat key=value config file (--config); command-line flags win.
Results go to standard output as CSV unless --out is given; per-point
progress goes to standard error.  Exit codes: 0 success, 1 computational
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .eigen import ConvergenceError, ground_state
from .fock import Sector, enumerate_sector
from .hamiltonian import BC_CHOICES, ModelParams
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

SUBCOMMANDS = (
    "ground", "entropy", "local", "sweep", "scaling",
    "sizescan", "derivative", "momentum", "validate",
)


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    subcommand: str
    values: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.values.get(key, default)


_FLAGS: dict[str, tuple[str, str]] = {
    # name -> (value kind, help)
    "L": ("int_list", "site count (sizescan accepts a comma list)"),
    "U": ("float", "on-site coupling"),
    "V": ("float", "nearest-neighbor coupling"),
    "l": ("int_list", "block size(s), comma separated"),
    "t": ("float", "hopping amplitude (default 1)"),
    "bc": ("bc", "boundary condition: auto|periodic|antiperiodic"),
    "grid-u": ("range", "U grid as min:max:step"),
    "grid-v": ("range", "V grid as min:max:step"),
    "k": ("float", "momentum in radians, snapped to the grid"),
    "h": ("float", "central-difference half step (default 0.05)"),
    "tol": ("float", "eigensolver energy tolerance (default 1e-10)"),
    "max-iter": ("int", "Lanczos iteration cap (default 2000)"),
    "seed": ("int", "start-vector seed (default 1)"),
    "threads": ("int", "worker count for sweep (default 1; other subcommands take only 1)"),
    "out": ("str", "output file (default: stdout)"),
    "format": ("format", "output format: csv|matrix"),
    "config": ("str", "key=value config file; flags take precedence"),
    "axis": ("axis", "scan axis for sizescan: U|V"),
    "site": ("int", "site index for local weights (default 0)"),
    "plot-script": ("str", "also write a gnuplot command file here"),
}


def _parse_value(kind: str, raw: str) -> Any:
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "str":
        return raw
    if kind == "int_list":
        return tuple(int(p) for p in raw.split(","))
    if kind == "range":
        return parse_range(raw)
    if kind == "bc":
        if raw not in BC_CHOICES:
            raise ValueError(f"bc must be one of {BC_CHOICES}, got {raw!r}")
        return raw
    if kind == "format":
        if raw not in ("csv", "matrix"):
            raise ValueError(f"format must be csv or matrix, got {raw!r}")
        return raw
    if kind == "axis":
        if raw not in ("U", "V"):
            raise ValueError(f"axis must be U or V, got {raw!r}")
        return raw
    raise ValueError(f"unknown flag kind {kind}")


def _load_config_file(path: str) -> dict[str, str]:
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
                if key not in _FLAGS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
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
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        for flag, (_, help_text) in _FLAGS.items():
            p.add_argument(f"--{flag}", type=str, default=None, help=help_text, dest=flag)
    return parser


class _Resolver:
    def __init__(self, ns: argparse.Namespace, config: dict[str, str]):
        self.ns = ns
        self.config = config

    def get(self, flag: str, default: Any = None, required: bool = False) -> Any:
        kind = _FLAGS[flag][0]
        raw = getattr(self.ns, flag, None)
        if raw is None:
            raw = self.config.get(flag)
        if raw is None:
            if required:
                raise UsageError(f"missing required flag --{flag}")
            return default
        try:
            return _parse_value(kind, raw)
        except ValueError as exc:
            raise UsageError(f"bad value for --{flag}: {exc}") from exc


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


def parse_args(argv=None) -> RunConfig:
    parser = _build_parser()
    if argv is None:
        import sys as _sys

        argv = _sys.argv[1:]
    ns = parser.parse_args(_merge_flag_values(list(argv)))
    config_path = getattr(ns, "config", None)
    table = _load_config_file(config_path) if config_path else {}
    r = _Resolver(ns, table)
    sub = ns.subcommand

    values: dict[str, Any] = {
        "solver": SolverOptions(
            tol=r.get("tol", 1e-10),
            max_iter=r.get("max-iter", 2000),
            seed=r.get("seed", 1),
        ),
        "threads": r.get("threads", 1),
        "out": r.get("out"),
        "format": r.get("format", "csv"),
        "plot_script": r.get("plot-script"),
        "t": r.get("t", 1.0),
        "bc": r.get("bc", "auto"),
    }
    if values["threads"] != 1 and sub != "sweep":
        raise UsageError(f"--threads applies only to sweep; {sub} runs serially")

    def model(L: int, U: float, V: float) -> ModelParams:
        try:
            return ModelParams(L=L, U=U, V=V, t=values["t"], bc=values["bc"])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    def single_L() -> int:
        Ls = r.get("L", required=True)
        if len(Ls) != 1:
            raise UsageError("this subcommand takes a single --L")
        return Ls[0]

    if sub in ("ground", "entropy", "local"):
        values["params"] = model(single_L(), r.get("U", required=True), r.get("V", required=True))
        if sub == "entropy":
            values["block_sizes"] = r.get("l", required=True)
        if sub == "local":
            values["site"] = r.get("site", 0)
    elif sub == "sweep":
        # default window brackets every feature of the phase diagram
        try:
            values["spec"] = SweepSpec(
                L=single_L(),
                block_sizes=r.get("l", required=True),
                u_values=r.get("grid-u", parse_range("-4:4:0.1")),
                v_values=r.get("grid-v", parse_range("-2:2:0.1")),
                bc=values["bc"],
                t=values["t"],
                solver=values["solver"],
                workers=values["threads"],
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    elif sub == "scaling":
        L = single_L()
        values["params"] = model(L, r.get("U", required=True), r.get("V", required=True))
        values["block_sizes"] = r.get("l", tuple(range(1, L // 2 + 1)))
    elif sub == "sizescan":
        values["sizes"] = r.get("L", required=True)
        values["block_sizes"] = r.get("l", required=True)
        values["axis"] = r.get("axis", required=True)
        if values["axis"] == "U":
            values["scan"] = r.get("grid-u", required=True)
            values["fixed"] = r.get("V", required=True)
        else:
            values["scan"] = r.get("grid-v", required=True)
            values["fixed"] = r.get("U", required=True)
    elif sub == "derivative":
        values["L"] = single_L()
        values["block_sizes"] = r.get("l", required=True)
        values["U"] = r.get("U", required=True)
        values["v_values"] = r.get("grid-v", required=True)
        values["h"] = r.get("h", 0.05)
    elif sub == "momentum":
        from .hamiltonian import boundary_for
        from .momentum import allowed_momenta, momentum_pair_block

        values["L"] = single_L()
        values["k"] = r.get("k", required=True)
        values["U"] = r.get("U", required=True)
        values["v_values"] = r.get("grid-v", required=True)
        try:
            bc = values["bc"] if values["bc"] != "auto" else boundary_for(values["L"])
            momentum_pair_block(allowed_momenta(values["L"], bc), values["k"])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return RunConfig(subcommand=sub, values=values)


def _emit(config: RunConfig, content: str, plot_fmt: str | None = None) -> None:
    out = config.get("out")
    if out:
        write_text(out, content)
    else:
        sys.stdout.write(content)
    script = config.get("plot_script")
    if script:
        if not out:
            raise UsageError("--plot-script needs --out so the script has a data file")
        write_text(script, gnuplot_script(out, plot_fmt or "csv"))


def run(config: RunConfig) -> int:
    sub = config.subcommand
    solver: SolverOptions = config.get("solver", SolverOptions())

    if sub == "ground":
        params: ModelParams = config["params"]
        result = ground_state(params, **solver.kwargs())
        header = "L,U,V,bc,energy,gap,residual,degenerate,method,iterations"
        line = ",".join(
            [
                str(params.L), f"{params.U:.12g}", f"{params.V:.12g}", params.resolved_bc(),
                f"{result.energy:.12g}", f"{result.gap:.12g}", f"{result.residual:.3e}",
                "1" if result.degenerate else "0", result.method, str(result.iterations),
            ]
        )
        _emit(config, header + "\n" + line + "\n")
        return 0

    if sub == "entropy":
        rows = run_point(config["params"], config["block_sizes"], solver, verbose=True)
        _emit(config, rows_to_csv(rows))
        return 0

    if sub == "local":
        params = config["params"]
        result = ground_state(params, **solver.kwargs())
        basis = enumerate_sector(Sector.half_filled(params.L))
        weights = local_weights(result, basis, site=config["site"])
        entropy = local_entanglement(weights)
        header = "L,U,V,site,z,u_plus,u_minus,w,entropy_bits"
        line = ",".join(
            [str(params.L), f"{params.U:.12g}", f"{params.V:.12g}", str(config["site"])]
            + [f"{x:.12g}" for x in (weights.z, weights.u_plus, weights.u_minus, weights.w, entropy)]
        )
        _emit(config, header + "\n" + line + "\n")
        return 0

    if sub == "sweep":
        spec: SweepSpec = config["spec"]
        rows = run_grid(spec)
        if config.get("format") == "matrix":
            if len(spec.block_sizes) != 1:
                raise UsageError("matrix output needs exactly one block size")
            content = rows_to_matrix(rows, spec.u_values, spec.v_values)
            _emit(config, content, plot_fmt="matrix")
        else:
            _emit(config, rows_to_csv(rows))
        return 0

    if sub == "scaling":
        params = config["params"]
        rows = run_point(params, config["block_sizes"], solver, verbose=True)
        fit = scaling_fit([row.l for row in rows], [row.entropy_bits for row in rows])
        header = "slope,intercept,r_squared"
        line = f"{fit.slope:.12g},{fit.intercept:.12g},{fit.r_squared:.12g}"
        _emit(config, header + "\n" + line + "\n")
        return 0

    if sub == "sizescan":
        block_sizes = config["block_sizes"]
        if len(block_sizes) != 1:
            raise UsageError("sizescan takes a single block size")
        rows = size_scan(
            block_sizes[0], config["sizes"], config["axis"], config["scan"],
            fixed=config["fixed"], bc=config.get("bc", "auto"), t=config.get("t", 1.0),
            solver=solver,
        )
        _emit(config, rows_to_csv(rows))
        return 0

    if sub == "derivative":
        block_sizes = config["block_sizes"]
        if len(block_sizes) != 1:
            raise UsageError("derivative takes a single block size")
        table = derivative_scan(
            config["L"], block_sizes[0], config["U"], config["v_values"],
            h=config["h"], bc=config.get("bc", "auto"), t=config.get("t", 1.0),
            solver=solver, verbose=True,
        )
        lines = ["V,dS_dV"] + [f"{v:.12g},{d:.12g}" for v, d in table]
        _emit(config, "\n".join(lines) + "\n")
        return 0

    if sub == "momentum":
        rows = momentum_scan(
            config["L"], config["k"], config["U"], config["v_values"],
            bc=config.get("bc", "auto"), t=config.get("t", 1.0), solver=solver,
        )
        _emit(config, rows_to_csv(rows))
        return 0

    if sub == "validate":
        from .validate import run_validation

        results = run_validation()
        return 0 if all(r.passed for r in results) else 1

    raise UsageError(f"unknown subcommand {sub!r}")


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
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
