"""Drivers for grids of ground-state runs and their post-processing.

Every driver returns plain row records and leaves rendering to the CSV
and matrix writers, so outputs are deterministic.  One executor,
``_run_points``, runs the points of every driver: it returns rows in
point order regardless of how many workers computed them, and turns a
point whose solve fails into error rows instead of aborting the scan.
Grids are row-major (U outer, V inner), and floats are printed with 12
significant digits.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from math import isfinite, nan

import numpy as np

from .eigen import SolverOptions, ground_state
from .fock import BlockSpec, Sector, enumerate_sector
from .hamiltonian import ModelParams, check_site_count
from .momentum import allowed_momenta, momentum_pair_block, total_momentum
from .rdm import dominant_config, reduced_density_matrix, von_neumann_entropy
from .reference import classify_config

CSV_HEADER = "L,l,U,V,bc,energy,gap,entropy_bits,degenerate,dominant"


@dataclass(frozen=True)
class SweepRow:
    L: int
    l: int
    U: float
    V: float
    bc: str
    energy: float
    gap: float
    entropy_bits: float
    degenerate: bool
    dominant: str


@dataclass(frozen=True)
class SweepSpec:
    """A rectangular (U, V) grid at fixed L and a list of block sizes."""

    L: int
    block_sizes: tuple[int, ...]
    u_values: tuple[float, ...]
    v_values: tuple[float, ...]
    bc: str = "auto"
    t: float = 1.0
    solver: SolverOptions = field(default_factory=SolverOptions)
    workers: int = 1

    def __post_init__(self) -> None:
        check_site_count(self.L)
        if not self.block_sizes:
            raise ValueError("at least one block size is required")
        for l in self.block_sizes:
            if not 1 <= l <= self.L - 1:
                raise ValueError(f"block size {l} outside [1, {self.L - 1}]")
        if self.workers < 1:
            raise ValueError("worker count must be >= 1")


def parse_range(spec: str) -> tuple[float, ...]:
    """Parse 'min:max:step' into an inclusive grid of values."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must look like min:max:step, got {spec!r}")
    lo, hi, step = (float(p) for p in parts)
    if not all(isfinite(x) for x in (lo, hi, step)):
        raise ValueError(f"range bounds and step must be finite, got {spec!r}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"range must have min <= max, got {spec!r}")
    count = int(round((hi - lo) / step)) + 1
    values = tuple(lo + i * step for i in range(count))
    return values


def _log(verbose: bool, message: str) -> None:
    """One progress record, written in one call so pool workers never interleave it."""
    if verbose:
        sys.stderr.write(message + "\n")
        sys.stderr.flush()


def run_point(
    params: ModelParams,
    block_sizes,
    solver: SolverOptions = SolverOptions(),
    verbose: bool = False,
) -> list[SweepRow]:
    """One half-filled ground-state solve, one entropy row per block size."""
    block_sizes = sorted(set(int(l) for l in block_sizes))
    for l in block_sizes:
        if not 1 <= l <= params.L - 1:
            raise ValueError(f"block size {l} outside [1, {params.L - 1}]")
    result = ground_state(params, space="real", **solver.kwargs())
    basis = enumerate_sector(Sector.half_filled(params.L))
    dominant = classify_config(dominant_config(result, basis), params.L)
    bc = params.resolved_bc()
    rows = []
    for l in block_sizes:
        rdm = reduced_density_matrix(result, basis, BlockSpec.contiguous_sites(l))
        entropy = von_neumann_entropy(rdm)
        rows.append(
            SweepRow(
                L=params.L, l=l, U=params.U, V=params.V, bc=bc,
                energy=result.energy, gap=result.gap, entropy_bits=entropy,
                degenerate=result.degenerate, dominant=dominant,
            )
        )
    _log(
        verbose,
        f"[point] L={params.L} U={params.U:g} V={params.V:g} bc={bc} "
        f"E0={result.energy:.10g} gap={result.gap:.3e} iters={result.iterations}",
    )
    return rows


def _error_rows(params: ModelParams, block_sizes, exc: Exception) -> list[SweepRow]:
    return [
        SweepRow(
            L=params.L, l=l, U=params.U, V=params.V, bc=params.resolved_bc(),
            energy=nan, gap=nan, entropy_bits=nan, degenerate=False,
            dominant=f"error:{type(exc).__name__}",
        )
        for l in sorted(set(block_sizes))
    ]


def _run_points(points, block_sizes, solve, workers: int, verbose: bool) -> list[SweepRow]:
    """The rows of ``solve(params)`` at every point, in point order for any
    worker count; a point whose solve raises gives error rows instead."""

    def one(params: ModelParams) -> list[SweepRow]:
        try:
            return solve(params)
        except Exception as exc:  # error rows keep the scan going
            _log(verbose, f"[point] L={params.L} U={params.U:g} V={params.V:g} failed: {exc}")
            return _error_rows(params, block_sizes, exc)

    if workers == 1:
        chunks = [one(p) for p in points]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(one, points))
    return [row for chunk in chunks for row in chunk]


def run_grid(spec: SweepSpec, verbose: bool = True) -> list[SweepRow]:
    """Rows for every grid point, U outer and V inner, in deterministic order."""
    points = [
        ModelParams(L=spec.L, U=u, V=v, t=spec.t, bc=spec.bc)
        for u in spec.u_values
        for v in spec.v_values
    ]
    return _run_points(points, spec.block_sizes,
                       lambda p: run_point(p, spec.block_sizes, spec.solver, verbose=verbose),
                       spec.workers, verbose)


def derivative_scan(
    L: int,
    l: int,
    U: float,
    v_values,
    h: float = 0.05,
    bc: str = "auto",
    t: float = 1.0,
    solver: SolverOptions = SolverOptions(),
    entropy_fn=None,
    verbose: bool = False,
) -> list[tuple[float, float]]:
    """Central-difference d(entropy)/dV on a grid of V values.

    The stencil values are solved once each, as one run_grid call at
    fixed U, so overlapping stencils share a solve and a failed stencil
    point gives NaN derivatives where it is used.  ``entropy_fn(V)`` may
    be injected in place of the solves (mainly for testing).
    """
    if h <= 0:
        raise ValueError(f"stencil width must be positive, got h={h}")
    stencil: dict[float, float] = {}
    for v in v_values:
        for x in (v + h, v - h):
            stencil.setdefault(round(x, 9), x)
    if entropy_fn is None:
        spec = SweepSpec(L=L, block_sizes=(l,), u_values=(U,),
                         v_values=tuple(stencil.values()), bc=bc, t=t, solver=solver)
        entropies = [row.entropy_bits for row in run_grid(spec, verbose=verbose)]
    else:
        entropies = [entropy_fn(x) for x in stencil.values()]
    at = dict(zip(stencil, entropies))
    return [(v, (at[round(v + h, 9)] - at[round(v - h, 9)]) / (2.0 * h)) for v in v_values]


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit entropy ~ slope * log2(l) + intercept."""

    slope: float
    intercept: float
    r_squared: float


def scaling_fit(block_sizes, entropies) -> ScalingFit:
    ls = np.asarray(block_sizes, dtype=float)
    es = np.asarray(entropies, dtype=float)
    if ls.size != es.size or ls.size < 3:
        raise ValueError("need at least 3 (block size, entropy) points")
    x = np.log2(ls)
    design = np.column_stack([x, np.ones_like(x)])
    coeff, *_ = np.linalg.lstsq(design, es, rcond=None)
    fitted = design @ coeff
    ss_res = float(((es - fitted) ** 2).sum())
    ss_tot = float(((es - es.mean()) ** 2).sum())
    if ss_tot < 1e-30:
        r2 = 1.0 if ss_res < 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return ScalingFit(slope=float(coeff[0]), intercept=float(coeff[1]), r_squared=max(r2, 0.0))


def size_scan(
    l: int,
    L_values,
    axis: str,
    values,
    fixed: float,
    bc: str = "auto",
    t: float = 1.0,
    solver: SolverOptions = SolverOptions(),
    verbose: bool = True,
) -> list[SweepRow]:
    """Per-L curves along one coupling axis, with dominant-config labels."""
    if axis not in ("U", "V"):
        raise ValueError(f"axis must be 'U' or 'V', got {axis!r}")
    grid = (tuple(values), (fixed,)) if axis == "U" else ((fixed,), tuple(values))
    # every spec is built, and so checked, before the first solve
    specs = [SweepSpec(L, (l,), *grid, bc=bc, t=t, solver=solver) for L in L_values]
    return [row for spec in specs for row in run_grid(spec, verbose=verbose)]


def momentum_scan(
    L: int,
    k: float,
    U: float,
    v_values,
    bc: str = "auto",
    t: float = 1.0,
    solver: SolverOptions = SolverOptions(),
    verbose: bool = True,
) -> list[SweepRow]:
    """Momentum-space ground state and entropy of the {+-k, both spins} block."""
    probe = ModelParams(L=L, U=U, V=0.0, t=t, bc=bc)
    grid = allowed_momenta(L, probe.resolved_bc())
    block = momentum_pair_block(grid, k)
    basis = enumerate_sector(Sector.half_filled(L))

    def solve(params: ModelParams) -> list[SweepRow]:
        result = ground_state(params, space="momentum", **solver.kwargs())
        rdm = reduced_density_matrix(result, basis, block)
        entropy = von_neumann_entropy(rdm)
        q = total_momentum(dominant_config(result, basis), grid)
        _log(
            verbose,
            f"[point] L={L} U={U:g} V={params.V:g} momentum block {block.descriptor} "
            f"E0={result.energy:.10g} S={entropy:.6f}",
        )
        return [
            SweepRow(
                L=L, l=len(block.modes), U=U, V=params.V, bc=grid.bc,
                energy=result.energy, gap=result.gap, entropy_bits=entropy,
                degenerate=result.degenerate, dominant=f"q={q:+.6f}",
            )
        ]

    points = [replace(probe, V=v) for v in v_values]
    return _run_points(points, [len(block.modes)], solve, 1, verbose)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.L), str(r.l), _fmt(r.U), _fmt(r.V), r.bc,
                    _fmt(r.energy), _fmt(r.gap), _fmt(r.entropy_bits),
                    "1" if r.degenerate else "0", r.dominant,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_matrix(rows, u_values, v_values) -> str:
    """Contour-style table: first row the V grid, first column the U grid."""
    table = {(round(r.U, 9), round(r.V, 9)): r.entropy_bits for r in rows}
    lines = [",".join([""] + [_fmt(v) for v in v_values])]
    for u in u_values:
        cells = [table.get((round(u, 9), round(v, 9)), nan) for v in v_values]
        lines.append(",".join([_fmt(u)] + [_fmt(c) for c in cells]))
    return "\n".join(lines) + "\n"


def write_text(path: str, content: str) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(content)


def gnuplot_script(data_path: str, fmt: str = "csv") -> str:
    """A minimal gnuplot command file for the emitted tables."""
    if fmt == "matrix":
        return (
            "set datafile separator ','\n"
            "set pm3d map\n"
            f"splot '{data_path}' matrix nonuniform notitle\n"
        )
    return (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        f"plot '{data_path}' using 4:8 with linespoints title 'entropy vs V'\n"
    )
