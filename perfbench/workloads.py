"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload draws its couplings from the workload seed; the Lanczos
start-vector seed stays at the library default.  A pass drives one of
the public entry points (``run_grid``, ``run_point``, ``momentum_scan``)
over the workload's points.  Entry points are looked up on their
modules at call time, so the wrappers of a traced run see the calls.
``reference`` computes, outside the timed region, what every pass must
reproduce, and ``check`` compares one pass's rows of one point with it:
the energy, and every block entropy, against an ARPACK solve and a
partial trace written here without ``ehub.rdm``.  Every point of every
workload has a gap above 5e-5 (the smallest, about 7e-5, is in the
phase-L8 corner U = -4, V = -2), so its ground state and entropies are
well defined and are checked everywhere.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from math import isfinite, pi

import numpy as np
from scipy.sparse.linalg import eigsh

import ehub.fock
import ehub.hamiltonian
import ehub.momentum
import ehub.sweep
from ehub.fock import Sector, mode_index
from ehub.hamiltonian import ModelParams, boundary_for, build_real_hamiltonian
from ehub.momentum import allowed_momenta, build_momentum_hamiltonian, momentum_pair_block
from ehub.reference import free_fermion_ground_energy
from ehub.sweep import SweepSpec, parse_range, rows_to_csv

# |E0 - E0_ref| and |S - S_ref| allowed, the tolerance of validate's spectrum checks
TOL = 1e-8
SCHMIDT_FLOOR = 1e-12  # Schmidt weights below this count as zero, as in ehub.rdm
FIG1_U = "-4:4:0.1"
FIG1_V = "-2:2:0.1"
STRIDE = 4  # every fourth value of the 0.1 grid along U and along V


@dataclass
class PassResult:
    """Rows of one pass keyed by point, the points that raised, and timings."""

    wall: float
    rows: dict = field(default_factory=dict)
    raised: set = field(default_factory=set)
    point_times: list = field(default_factory=list)
    ok: int = 0  # points that passed the output check, set by run.check_passes


def prefix_modes(l: int) -> tuple[int, ...]:
    """Modes of sites 0..l-1, both spins: the block of ``run_point``'s rows."""
    return tuple(mode_index(j, spin) for j in range(l) for spin in (0, 1))


def arpack_ground(L: int, U: float, V: float, space: str = "real"):
    """E0, its eigenvector and the basis configurations, by ARPACK on the sector.

    Independent of the library's Lanczos solver; ``space`` picks the
    real-space or the momentum-basis Hamiltonian.
    """
    basis = ehub.fock.enumerate_sector(Sector.half_filled(L))
    build = build_real_hamiltonian if space == "real" else build_momentum_hamiltonian
    H = build(ModelParams(L=L, U=U, V=V), basis).matrix
    v0 = np.random.default_rng(0).standard_normal(H.shape[0])
    energy, vectors = eigsh(H, k=1, which="SA", v0=v0)
    return float(energy[0]), vectors[:, 0], basis.configs


def block_entropy(amps, configs, modes, nmodes: int) -> float:
    """Entropy in bits of the modes ``modes`` of a pure state, without ehub.rdm.

    Each configuration is split into its block and environment bits and
    signed by the parity of moving its occupied block modes in front of
    its occupied environment modes.  The entropy comes from the singular
    values of psi[block, environment], taken one block particle number
    at a time: at fixed total charge two block particle numbers never
    share an environment configuration.
    """
    configs = np.asarray(configs, dtype=np.int64)
    block = set(modes)
    b = np.zeros_like(configs)
    e = np.zeros_like(configs)
    env_below = np.zeros_like(configs)  # occupied environment modes passed so far
    swaps = np.zeros_like(configs)
    nb = ne = 0
    for m in range(nmodes):
        occupied = (configs >> m) & 1
        if m in block:
            b |= occupied << nb
            swaps += occupied * env_below
            nb += 1
        else:
            e |= occupied << ne
            env_below += occupied
            ne += 1
    signed = np.where(swaps % 2 == 1, -amps, amps)
    count = np.bitwise_count(b)
    weights = []
    for n in np.unique(count):
        sel = count == n
        rows, b_at = np.unique(b[sel], return_inverse=True)
        cols, e_at = np.unique(e[sel], return_inverse=True)
        psi = np.zeros((rows.size, cols.size), dtype=signed.dtype)
        psi[b_at, e_at] = signed[sel]
        weights.append(np.linalg.svd(psi, compute_uv=False) ** 2)
    p = np.concatenate(weights)
    p = p[p > SCHMIDT_FLOOR]
    return float(-(p * np.log2(p)).sum())


def _rows_ok(rows, ref: dict) -> bool:
    """Every row an answer, with the reference energy and its block's reference entropy."""
    return bool(rows) and all(
        not r.dominant.startswith("error:")
        and isfinite(r.energy) and abs(r.energy - ref["energy"]) <= TOL
        and r.l in ref["entropy"] and isfinite(r.entropy_bits)
        and abs(r.entropy_bits - ref["entropy"][r.l]) <= TOL
        for r in rows
    )


def real_reference(L: int, U: float, V: float, block_sizes) -> dict:
    """E0 and the entropy of sites 0..l-1 for each block size l, from ARPACK's vector."""
    energy, amps, configs = arpack_ground(L, U, V)
    return {"energy": energy, "entropy": {
        l: block_entropy(amps, configs, prefix_modes(l), 2 * L) for l in block_sizes}}


def _point_spans(recorder, first: int) -> list:
    return [s for s in recorder.spans[first:] if s.name == "sweep.run_point"]


class PhaseGrid:
    """A strided sub-grid of the Fig. 1 grid at one block size, through ``run_grid``.

    Every fourth U and every fourth V of the 0.1 grid, so each seed
    covers the whole window U in [-4, 4], V in [-2, 2], ordered and
    disordered phases alike.  The seed picks the offset of the U
    stride.  The V stride keeps offset 0: solve cost trends along V,
    and a seeded V offset would move the pass time by up to 10%.
    """

    def __init__(self, seed: int, L: int = 8, l: int = 3, workers: int = 1,
                 n_u: int = 20, n_v: int = 11):
        u_off = random.Random(seed).randrange(STRIDE)
        self.L, self.l, self.workers = L, l, workers
        self.u_values = parse_range(FIG1_U)[u_off::STRIDE][:n_u]
        self.v_values = parse_range(FIG1_V)[::STRIDE][:n_v]
        self.points = [(u, v) for u in self.u_values for v in self.v_values]

    def setup(self) -> None:
        basis = ehub.fock.enumerate_sector(Sector.half_filled(self.L))
        ehub.hamiltonian.real_terms(basis, boundary_for(self.L))

    def _spec(self, workers: int) -> SweepSpec:
        return SweepSpec(L=self.L, block_sizes=(self.l,), u_values=self.u_values,
                         v_values=self.v_values, workers=workers)

    def run_pass(self, recorder) -> PassResult:
        first = len(recorder.spans)
        with recorder.root("pass") as span:
            rows = ehub.sweep.run_grid(self._spec(self.workers), verbose=False)
        out = PassResult(wall=span.duration)
        for r in rows:
            out.rows.setdefault((r.U, r.V), []).append(r)
        out.point_times = [s.duration for s in _point_spans(recorder, first)]
        return out

    def reference(self) -> dict:
        """E0 and block entropy from ARPACK per point, the filled-band energy
        at U = V = 0 and, for a pooled run, the rows of the serial run."""
        ref = {p: real_reference(self.L, *p, [self.l]) for p in self.points}
        free = (0.0, 0.0)
        if free in ref:
            ref[free]["free_fermion"] = free_fermion_ground_energy(
                self.L, boundary_for(self.L), self.L // 2, self.L // 2)
        if self.workers > 1:
            for r in ehub.sweep.run_grid(self._spec(1), verbose=False):
                ref[(r.U, r.V)]["csv"] = rows_to_csv([r])
        return ref

    def check(self, rows, ref: dict) -> bool:
        if len(rows) != 1 or not _rows_ok(rows, ref):
            return False
        if "free_fermion" in ref and abs(rows[0].energy - ref["free_fermion"]) > TOL:
            return False
        return "csv" not in ref or rows_to_csv(rows) == ref["csv"]


class Scaling:
    """Two large ground states with every block size 1..L/2, through ``run_point``.

    One point sits near the phase-separated boundary (many Lanczos
    iterations), the other in the CDW phase (few).
    """

    WINDOWS = (((-2.2, -1.8), (-1.1, -0.9)), ((3.5, 4.5), (-0.2, 0.2)))
    workers = 1

    def __init__(self, seed: int, L: int = 12):
        rng = random.Random(seed)
        self.L = L
        self.points = [
            (round(rng.uniform(*u), 3), round(rng.uniform(*v), 3)) for u, v in self.WINDOWS
        ]

    def setup(self) -> None:
        basis = ehub.fock.enumerate_sector(Sector.half_filled(self.L))
        ehub.hamiltonian.real_terms(basis, boundary_for(self.L))

    def run_pass(self, recorder) -> PassResult:
        first = len(recorder.spans)
        blocks = range(1, self.L // 2 + 1)
        with recorder.root("pass") as span:
            rows, raised = {}, set()
            for p in self.points:
                try:
                    rows[p] = ehub.sweep.run_point(ModelParams(L=self.L, U=p[0], V=p[1]), blocks)
                except Exception:  # a failed point is counted, the pass goes on
                    raised.add(p)
        return PassResult(wall=span.duration, rows=rows, raised=raised,
                          point_times=[s.duration for s in _point_spans(recorder, first)])

    def reference(self) -> dict:
        blocks = range(1, self.L // 2 + 1)
        return {p: real_reference(self.L, *p, blocks) for p in self.points}

    def check(self, rows, ref: dict) -> bool:
        return len(rows) == self.L // 2 and _rows_ok(rows, ref)


class MomentumScan:
    """One ``momentum_scan`` of a {+k, -k} mode pair along V at fixed U.

    The seed picks U near -2 and the pair (never one that is its own
    reflection).  Solve cost grows steeply towards V = -1 and with
    |U|, so the V grid is fixed and U stays within 0.05 of -2: across
    U in [-2.2, -1.8] the slowest points' times differ by a fifth.
    """

    workers = 1

    def __init__(self, seed: int, L: int = 10, n_v: int = 10):
        rng = random.Random(seed)
        self.L = L
        self.U = round(rng.uniform(-2.05, -1.95), 3)
        pairs = [k for k in allowed_momenta(L, boundary_for(L)).momenta if 0.0 < k < pi]
        self.k = rng.choice(pairs)
        self.v_values = tuple(round(-1.0 + 1.35 * j / (n_v - 1), 4) for j in range(n_v))
        self.points = [(self.U, v) for v in self.v_values]

    def setup(self) -> None:
        basis = ehub.fock.enumerate_sector(Sector.half_filled(self.L))
        ehub.momentum.momentum_terms(basis, boundary_for(self.L))

    def run_pass(self, recorder) -> PassResult:
        first = len(recorder.spans)
        with recorder.root("pass") as span:
            try:
                rows = ehub.sweep.momentum_scan(self.L, self.k, self.U, self.v_values,
                                                verbose=False)
                raised = set()
            except Exception:  # the scan has no error rows: every point is lost
                rows, raised = [], set(self.points)
            end = time.perf_counter()
        # a point runs from the start of its solve to the start of the next one
        starts = sorted(s.start for s in recorder.spans[first:] if s.name == "eigen.ground_state")
        out = PassResult(wall=span.duration, raised=raised,
                         point_times=[b - a for a, b in zip(starts, starts[1:] + [end])])
        for r in rows:
            out.rows.setdefault((r.U, r.V), []).append(r)
        return out

    def reference(self) -> dict:
        """E0 by ARPACK in real space, an independent basis and solver, and the
        entropy of the mode pair from ARPACK's vector in the momentum basis."""
        modes = momentum_pair_block(allowed_momenta(self.L, boundary_for(self.L)), self.k).modes
        ref = {}
        for p in self.points:
            _, amps, configs = arpack_ground(self.L, *p, space="momentum")
            ref[p] = {"energy": arpack_ground(self.L, *p)[0],
                      "entropy": {len(modes): block_entropy(amps, configs, modes, 2 * self.L)}}
        return ref

    def check(self, rows, ref: dict) -> bool:
        return len(rows) == 1 and _rows_ok(rows, ref)


WORKLOADS = {
    "phase-L8": lambda seed: PhaseGrid(seed),
    "phase-L8-w2": lambda seed: PhaseGrid(seed, workers=2),
    "scaling-L12": lambda seed: Scaling(seed),
    "momentum-L10": lambda seed: MomentumScan(seed),
}
