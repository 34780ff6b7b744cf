"""Direct reference implementations the tests hold the library against.

Each function here does the job of a vectorized or planned library
routine in the plainest way: one configuration at a time, or the
partial trace assembled afresh for every state with no plan.  None of
them is used by the library itself.
"""

import numpy as np

from ehub.fock import UP, BlockSpec, SectorBasis, block_quantum_numbers_arrays, split_configs


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
