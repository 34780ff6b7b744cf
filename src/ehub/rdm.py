"""Partial trace of a pure sector state onto a mode subset, and entropies.

Because the Hamiltonian conserves charge and the z spin component, the
reduced density matrix of any mode subset never connects block
configurations of different (N, Sz).  The matrix is therefore assembled
sub-block by sub-block: amplitudes are gathered into one rectangular
tensor psi[block, environment] per (N, 2Sz) class, each class matrix is
psi psi^dag, and the von Neumann entropy is the sum over class
eigenvalues.  All splitting signs come from fock.split_configs, so a
block anchored at site 0 costs nothing while arbitrary mode subsets
(momentum pairs, shifted windows) stay exact.

Where each amplitude goes depends only on the basis and the block, so
it is worked out once, as a ``TracePlan``: the (N, 2Sz) classes in
ascending order, each class's sorted block configurations and factor
shape, and the int32 position of every basis state in one flat
buffer that holds the class factors back to back, plus the split signs
unless all of them are +1 (always so for a block of the lowest modes).
A state's partial trace is then one signed scatter into a zeroed buffer
whose reshaped slices are the factors; in a full (N_up, N_dn) sector
every class is dense and the buffer is a permutation of the amplitudes.
Plans of read-only bases (the canonical ones of ``enumerate_sector``)
are cached per (basis object, block modes) in an ``lru_cache`` of
``PLAN_CACHE_SIZE`` plans.  No driver traces more than 11 blocks at one
L; at L = 12 a block of the lowest l sites takes 3.4 MB up to l = 6 and
10.3 MB at l = 11, and all 11 take 50 MB together.

A single-site block has the closed form rho_1 = diag(z, u+, u-, w) with
w = <n_up n_dn>, u+- = <n_up/dn> - w and z = 1 - u+ - u- - w
(``local_weights``).  It serves ``ehub local`` and the cross-checks of
``validate``; the sweep drivers trace a single site like any block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock import (
    DOWN,
    UP,
    BlockSpec,
    SectorBasis,
    block_quantum_numbers_arrays,
    mode_index,
    split_configs,
)

EIG_FLOOR = 1e-12
RANK_TOL = 1e-10
TRACE_TOL = 1e-6
PLAN_CACHE_SIZE = 16
DOMINANT_RTOL = 1e-12  # amplitudes this close to the peak, relatively, tie with it


def _amplitudes_of(state) -> np.ndarray:
    amps = getattr(state, "amplitudes", state)
    return np.asarray(amps)


@dataclass(frozen=True, eq=False)
class ReducedDensityMatrix:
    """Block-diagonal density matrix keyed by block (N, 2Sz).

    Each class is held in factored form psi[block, environment] with
    class matrix psi psi^dag; the factor keeps near-full blocks
    tractable (their class matrices would be enormous while the
    nonzero spectrum, the squared singular values of psi, stays tiny).
    """

    block: BlockSpec
    factors: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    trace: float
    ill_defined: bool = False

    def class_keys(self) -> list[tuple[int, int]]:
        return list(self.factors.keys())

    def class_matrix(self, key: tuple[int, int]) -> np.ndarray:
        """Materialized Hermitian sub-block over its block configurations."""
        psi = self.factors[key][1]
        return psi @ psi.conj().T

    def eigenvalues(self) -> np.ndarray:
        """All sub-block eigenvalues, ascending (zeros included)."""
        parts = []
        for _, psi in self.factors.values():
            nb, ne = psi.shape
            if nb <= ne:
                gram = psi @ psi.conj().T
            else:
                gram = psi.conj().T @ psi
            w = np.linalg.eigvalsh(gram)
            if w.size < nb:
                parts.append(np.zeros(nb - w.size))
            parts.append(w)
        return np.sort(np.concatenate(parts))


@dataclass(frozen=True, eq=False)
class TracePlan:
    """Where every basis state's amplitude sits in its class factor, for one block.

    Class ``c`` has key ``keys[c]`` = (N, 2Sz), rows ``block_configs[c]``
    (sorted) and a ``shapes[c]`` factor stored row-major at
    ``offsets[c]`` of the flat buffer; ``positions[i]`` is the buffer
    position of basis state i and ``signs[i]`` its split sign, or
    ``signs`` is None when every sign is +1.  All arrays are read-only.
    """

    keys: tuple[tuple[int, int], ...]
    block_configs: tuple[np.ndarray, ...] = field(repr=False)
    shapes: tuple[tuple[int, int], ...] = field(repr=False)
    offsets: tuple[int, ...] = field(repr=False)
    size: int
    positions: np.ndarray = field(repr=False)
    signs: np.ndarray | None = field(repr=False)

    def factors(self, amps: np.ndarray):
        """The class factors of ``amps``, keyed as ``keys``, and their total weight."""
        signed = amps if self.signs is None else self.signs * amps
        flat = np.zeros(self.size, dtype=signed.dtype)
        flat[self.positions] = signed
        factors = {}
        trace = 0.0
        classes = zip(self.keys, self.block_configs, self.offsets, self.shapes)
        for key, configs, start, shape in classes:
            psi = flat[start : start + shape[0] * shape[1]].reshape(shape)
            factors[key] = (configs, psi)
            trace += float(np.real((psi.conj() * psi).sum()))
        return factors, trace


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(basis: SectorBasis, modes: tuple[int, ...]) -> TracePlan:
    """The plan of the block of ``modes`` over ``basis``.

    A cache key holds its basis, so a basis object's id is never reused
    while its plan is cached.
    """
    block = BlockSpec(modes=modes)
    nmodes = basis.nmodes
    bvals, evals, signs = split_configs(basis.configs, block, nmodes)
    nvals, szvals = block_quantum_numbers_arrays(bvals, block)
    keys = nvals * (4 * nmodes) + (szvals + 2 * nmodes)
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    boundaries = np.flatnonzero(np.diff(keys_sorted)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [keys_sorted.size]))

    # the factors never hold more than the 2**nmodes <= 2**28 Fock states, so int32 suffices
    positions = np.empty(len(basis), dtype=np.int32)
    class_keys, class_configs, shapes, offsets = [], [], [], []
    size = 0
    for s, e in zip(starts, stops):
        sel = order[s:e]
        ub, b_inv = np.unique(bvals[sel], return_inverse=True)
        ue, e_inv = np.unique(evals[sel], return_inverse=True)
        positions[sel] = size + b_inv * ue.size + e_inv
        ub.flags.writeable = False
        class_keys.append((int(nvals[sel[0]]), int(szvals[sel[0]])))
        class_configs.append(ub)
        shapes.append((ub.size, ue.size))
        offsets.append(size)
        size += ub.size * ue.size
    positions.flags.writeable = False
    if (signs == 1).all():
        signs = None
    else:
        signs.flags.writeable = False
    return TracePlan(
        keys=tuple(class_keys),
        block_configs=tuple(class_configs),
        shapes=tuple(shapes),
        offsets=tuple(offsets),
        size=size,
        positions=positions,
        signs=signs,
    )


def trace_plan(basis: SectorBasis, block: BlockSpec) -> TracePlan:
    """The partial-trace plan of ``block`` over ``basis``.

    Only bases whose configurations are read-only are cached, since a
    plan stays valid only as long as the configurations it was built
    from.
    """
    if basis.configs.flags.writeable:
        return _plan.__wrapped__(basis, block.modes)
    return _plan(basis, block.modes)


def reduced_density_matrix(
    state, basis: SectorBasis, block: BlockSpec
) -> ReducedDensityMatrix:
    """Trace a pure state over everything outside ``block``.

    ``state`` is a GroundStateResult, a ReferenceState, or a bare
    amplitude vector over ``basis``.  A degenerate-flagged state still
    gets its matrix computed, but the result carries ill_defined=True.
    """
    amps = _amplitudes_of(state)
    if amps.shape != (len(basis),):
        raise ValueError(
            f"state has {amps.shape} amplitudes for a basis of size {len(basis)}"
        )
    factors, trace = trace_plan(basis, block).factors(amps)
    return ReducedDensityMatrix(
        block=block,
        factors=factors,
        trace=trace,
        ill_defined=bool(getattr(state, "degenerate", False)),
    )


def von_neumann_entropy(rdm: ReducedDensityMatrix) -> float:
    """Entropy -sum lambda log2 lambda over eigenvalues above ``EIG_FLOOR``, in bits."""
    if abs(rdm.trace - 1.0) > TRACE_TOL:
        raise ValueError(
            f"density matrix trace {rdm.trace:.12g} deviates from 1 beyond {TRACE_TOL}; "
            "the input state is not normalized or the split signs are inconsistent"
        )
    lam = rdm.eigenvalues()
    if lam.size and lam[0] < -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {lam[0]:.3e}")
    if abs(float(lam.sum()) - 1.0) > TRACE_TOL:
        raise ValueError("eigenvalue sum deviates from the recorded trace")
    lam = lam[lam > EIG_FLOOR]
    return max(0.0, float(-(lam * np.log2(lam)).sum()))


def rdm_rank(rdm: ReducedDensityMatrix) -> int:
    """Number of eigenvalues above ``RANK_TOL`` across all sub-blocks."""
    return int((rdm.eigenvalues() > RANK_TOL).sum())


@dataclass(frozen=True)
class LocalWeights:
    """Single-site occupation weights: empty, up only, down only, double."""

    z: float
    u_plus: float
    u_minus: float
    w: float

    def __post_init__(self) -> None:
        for name, p in self.as_dict().items():
            if not -1e-10 <= p <= 1.0 + 1e-10:
                raise ValueError(f"weight {name}={p} outside [0, 1]")
        total = self.z + self.u_plus + self.u_minus + self.w
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {total}, expected 1")

    def as_dict(self) -> dict[str, float]:
        return {"z": self.z, "u_plus": self.u_plus, "u_minus": self.u_minus, "w": self.w}


def local_weights(state, basis: SectorBasis, site: int = 0) -> LocalWeights:
    """Diagonal expectations of the four local states at one site."""
    L = basis.sector.L
    if not 0 <= site < L:
        raise ValueError(f"site {site} outside [0, {L - 1}]")
    amps = _amplitudes_of(state)
    prob = np.abs(amps) ** 2
    up = ((basis.configs >> np.int64(mode_index(site, UP))) & np.int64(1)).astype(bool)
    dn = ((basis.configs >> np.int64(mode_index(site, DOWN))) & np.int64(1)).astype(bool)
    w = float(prob[up & dn].sum())
    n_up = float(prob[up].sum())
    n_dn = float(prob[dn].sum())
    u_plus = n_up - w
    u_minus = n_dn - w
    z = 1.0 - u_plus - u_minus - w
    return LocalWeights(z=z, u_plus=u_plus, u_minus=u_minus, w=w)


def local_entanglement(weights: LocalWeights) -> float:
    """Shannon entropy in bits of (z, u+, u-, w), with 0 log 0 = 0."""
    total = 0.0
    for p in (weights.z, weights.u_plus, weights.u_minus, weights.w):
        if p > 0.0:
            total -= p * np.log2(p)
    return float(total)


def dominant_config(state, basis: SectorBasis) -> int:
    """Configuration with the largest |amplitude|; ties resolve to lowest bits.

    Amplitudes within ``DOMINANT_RTOL`` of the peak, relatively, count as
    tied: amplitudes equal in exact arithmetic come out of the solver a
    few ulps apart, in an order that can depend on the BLAS thread count.
    """
    amps = np.abs(_amplitudes_of(state))
    peak = amps.max()
    candidates = np.flatnonzero(amps >= peak * (1.0 - DOMINANT_RTOL))
    return int(basis.configs[candidates].min())
