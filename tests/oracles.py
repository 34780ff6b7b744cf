"""Direct reference implementations the tests hold the library against.

Each function here does the job of a vectorized or planned library
routine in the plainest way: one configuration at a time, the partial
trace assembled afresh for every state with no plan, or an operator
applied to every configuration of the sector at once.  None of them is
used by the library itself.

``apply_operator_string`` and ``SectorBasis.index_many`` (here the
function ``index_many``) moved from ``ehub.fock`` once
``hamiltonian.one_body_matrix`` came to build from the spin-species
tables (``SectorBasis.species``).  They know nothing of those tables:
every configuration of the sector is pushed through the operators mode
by mode, each crossed mode's parity is taken over the whole
configuration, and each target is found by binary search in the sorted
basis.  A CSR summed from their output is the independent reference the
species build has to equal byte for byte.

``diagonal_energy`` moved from ``ehub.hamiltonian``, where only the
tests used it; it reads one configuration site by site, against the
library's per-sector doublon and neighbour-density counts.
"""

from typing import Sequence

import numpy as np

from ehub.fock import (
    DOWN,
    UP,
    BlockSpec,
    SectorBasis,
    block_quantum_numbers_arrays,
    mode_index,
    popcount_array,
    split_configs,
)


def index_many(basis: SectorBasis, bits: np.ndarray) -> np.ndarray:
    """Basis indices of configurations, by binary search in the sorted basis."""
    idx = np.searchsorted(basis.configs, bits)
    if not np.array_equal(basis.configs[idx], bits):
        raise KeyError("configuration(s) not in sector basis")
    return idx


def apply_operator_string(
    basis: SectorBasis, steps: Sequence[tuple[int, str]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply a product of mode operators to every basis configuration at once.

    ``steps`` lists (mode, kind) pairs in application order, i.e. the
    rightmost operator of the product comes first.  Returns
    (target_indices, source_indices, signs) for the configurations that
    survive all steps.  The string must conserve the sector's particle
    numbers per spin, otherwise the target lookup fails.
    """
    bits = basis.configs
    source = np.arange(bits.size)
    sign = np.ones(bits.size, dtype=np.int8)
    for mode, kind in steps:
        bit = np.int64(1 << mode)
        occupied = (bits & bit) != 0
        keep = occupied if kind == "annihilate" else ~occupied
        if not keep.all():
            bits = bits[keep]
            source = source[keep]
            sign = sign[keep]
        if bits.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0, dtype=np.int8)
        parity = (popcount_array(bits & (bit - np.int64(1))) & 1).astype(np.int8)
        sign = sign * (1 - 2 * parity)
        bits = bits ^ bit
    target = index_many(basis, bits)
    return target, source, sign


def apply_mode_op(config: int, mode: int, kind: str) -> tuple[int, int] | None:
    """Apply a single creation or annihilation operator to a configuration.

    Returns (new_config, sign) with sign = (-1)**(occupied modes below
    ``mode``), or None when the operator annihilates the state (create on
    an occupied mode, annihilate on an empty one).
    """
    bit = 1 << mode
    occupied = bool(config & bit)
    if kind == "create":
        if occupied:
            return None
    elif kind == "annihilate":
        if not occupied:
            return None
    else:
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")
    sign = -1 if (config & (bit - 1)).bit_count() & 1 else 1
    return config ^ bit, sign


def split_config(config: int, block: BlockSpec, nmodes: int) -> tuple[int, int, int]:
    """(block_config, env_config, sign) of one configuration, mode by mode.

    The sign is (-1)**inv, inv counting pairs of an occupied block mode
    preceded by an occupied environment mode.
    """
    env = block.env_modes(nmodes)
    bcfg = sum(((config >> m) & 1) << i for i, m in enumerate(block.modes))
    ecfg = sum(((config >> m) & 1) << i for i, m in enumerate(env))
    inversions = sum(
        1 for m in block.modes if config >> m & 1 for k in env if k < m and config >> k & 1
    )
    return bcfg, ecfg, -1 if inversions & 1 else 1


def block_quantum_numbers(block_config: int, block: BlockSpec) -> tuple[int, int]:
    """(particle count, twice the z-spin) of a block-local configuration."""
    n = 0
    sz2 = 0
    for i, m in enumerate(block.modes):
        if block_config >> i & 1:
            n += 1
            sz2 += 1 if m % 2 == UP else -1
    return n, sz2


def diagonal_energy(config: int, params) -> float:
    """Interaction energy U*(doublons) + V*sum_j n_j n_{j+1} of one configuration
    on the ring of ``params.L`` sites."""
    L = params.L
    occ = [(config >> mode_index(j, UP) & 1, config >> mode_index(j, DOWN) & 1) for j in range(L)]
    doublons = sum(up & dn for up, dn in occ)
    n = [up + dn for up, dn in occ]
    bonds = sum(n[j] * n[(j + 1) % L] for j in range(L))
    return params.U * float(doublons) + params.V * float(bonds)


def hermiticity_defect(H) -> float:
    """Largest |H - H^dag| entry of a SparseHamiltonian."""
    d = H.matrix - H.matrix.conj().T
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


def unplanned_factors(amps: np.ndarray, basis: SectorBasis, block: BlockSpec):
    """Class factors and trace of a partial trace, derived afresh from the basis.

    Sorts the states into (N, 2Sz) classes and finds each factor's rows
    and columns with ``np.unique``, every call; returns the same
    (factors, trace) as ``TracePlan.factors``.
    """
    nmodes = basis.nmodes
    bvals, evals, signs = split_configs(basis.configs, block, nmodes)
    nvals, szvals = block_quantum_numbers_arrays(bvals, block)

    signed = signs * amps
    keys = nvals * (4 * nmodes) + (szvals + 2 * nmodes)
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    boundaries = np.flatnonzero(np.diff(keys_sorted)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [keys_sorted.size]))

    factors = {}
    trace = 0.0
    for s, e in zip(starts, stops):
        sel = order[s:e]
        a_sel = signed[sel]
        ub, b_inv = np.unique(bvals[sel], return_inverse=True)
        ue, e_inv = np.unique(evals[sel], return_inverse=True)
        psi = np.zeros((ub.size, ue.size), dtype=a_sel.dtype)
        psi[b_inv, e_inv] = a_sel
        key = (int(nvals[sel[0]]), int(szvals[sel[0]]))
        factors[key] = (ub, psi)
        trace += float(np.real((psi.conj() * psi).sum()))
    return factors, trace
