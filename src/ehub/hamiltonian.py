"""Real-space extended Hubbard Hamiltonian on a ring of L sites.

H = -t * sum_{j, sigma, +-1} c^dag_{j,sigma} c_{j+-1,sigma}
    + U * sum_j n_{j,up} n_{j,dn}
    + V * sum_j n_j n_{j+1}

The boundary rule makes the half-filled ground state nondegenerate:
periodic hopping for L = 4n + 2 and antiperiodic (the wraparound bond
L-1 <-> 0 carries an extra factor -1) for L = 4n.  The twist is a pure
gauge on the hopping; the density-density V term always wraps the ring
without any sign.

Matrices are assembled from coupling-independent factors (hopping at
t=1 plus two diagonal vectors), so sweeping (U, V) at fixed L reuses
the expensive part of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sparse

from .fock import (
    DOWN,
    UP,
    SectorBasis,
    apply_operator_string,
    mode_index,
    popcount_array,
)

BC_CHOICES = ("auto", "periodic", "antiperiodic")


def boundary_for(L: int) -> str:
    """Boundary condition that keeps the half-filled ground state unique."""
    if L % 2 != 0:
        raise ValueError(f"site count must be even, got L={L}")
    return "periodic" if L % 4 == 2 else "antiperiodic"


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the chain, in units of the hopping amplitude t."""

    L: int
    U: float
    V: float
    t: float = 1.0
    bc: str = "auto"

    def __post_init__(self) -> None:
        if self.L % 2 != 0 or not 4 <= self.L <= 14:
            raise ValueError(f"L must be even and in [4, 14], got {self.L}")
        if not self.t > 0:
            raise ValueError(f"hopping amplitude must be positive, got t={self.t}")
        if self.bc not in BC_CHOICES:
            raise ValueError(f"bc must be one of {BC_CHOICES}, got {self.bc!r}")

    def resolved_bc(self) -> str:
        return boundary_for(self.L) if self.bc == "auto" else self.bc


@dataclass(frozen=True, eq=False)
class SparseHamiltonian:
    """Hermitian sparse operator over a sector basis (CSR storage)."""

    matrix: sparse.csr_matrix

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @property
    def dtype(self) -> np.dtype:
        return self.matrix.dtype

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def hermiticity_defect(self) -> float:
        d = self.matrix - self.matrix.conj().T
        return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


def _site_occupations(configs: np.ndarray, L: int) -> np.ndarray:
    """(ncfg, L) array of total site occupations n_j in {0, 1, 2}."""
    occ = np.empty((configs.size, L), dtype=np.int64)
    for j in range(L):
        up = (configs >> np.int64(mode_index(j, UP))) & np.int64(1)
        dn = (configs >> np.int64(mode_index(j, DOWN))) & np.int64(1)
        occ[:, j] = up + dn
    return occ


def double_occupancy_counts(configs: np.ndarray, L: int) -> np.ndarray:
    """Number of doubly occupied sites per configuration."""
    up_bits = configs & np.int64(0x5555555555555555)
    both = up_bits & (configs >> np.int64(1))
    return popcount_array(both)


def neighbor_density_products(configs: np.ndarray, L: int) -> np.ndarray:
    """sum_j n_j n_{j+1} around the ring, per configuration."""
    occ = _site_occupations(configs, L)
    return np.einsum("ij,ij->i", occ, np.roll(occ, -1, axis=1))


def diagonal_energy(config: int, params: ModelParams) -> float:
    """Interaction energy U*(doublons) + V*sum_j n_j n_{j+1} of one configuration."""
    arr = np.asarray([config], dtype=np.int64)
    nd = double_occupancy_counts(arr, params.L)[0]
    nv = neighbor_density_products(arr, params.L)[0]
    return params.U * float(nd) + params.V * float(nv)


@dataclass(frozen=True, eq=False)
class RealTerms:
    """Coupling-independent factors: H = t*hopping + U*diag_u + V*diag_v."""

    hopping: sparse.csr_matrix  # built at t = 1
    diag_u: np.ndarray
    diag_v: np.ndarray


def one_body_matrix(basis: SectorBasis, hops) -> sparse.csr_matrix:
    """sum of coeff * c^dag_dst c_src over a sector basis, as canonical CSR.

    ``hops`` yields (dst_mode, src_mode, coeff) triples; the matrix is
    real when every coefficient is.
    """
    dim = len(basis)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for dst, src, coeff in hops:
        tgt, source, sgn = apply_operator_string(basis, [(src, "annihilate"), (dst, "create")])
        rows.append(tgt)
        cols.append(source)
        vals.append(coeff * sgn.astype(np.float64))
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    out = mat.tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def _hopping_matrix(basis: SectorBasis, bc: str) -> sparse.csr_matrix:
    L = basis.sector.L
    hops = []
    for a in range(L):
        for b in ((a + 1) % L, (a - 1) % L):
            twist = -1.0 if bc == "antiperiodic" and {a, b} == {0, L - 1} else 1.0
            for spin in (UP, DOWN):
                hops.append((mode_index(b, spin), mode_index(a, spin), -twist))
    return one_body_matrix(basis, hops)


@lru_cache(maxsize=6)
def _cached_real_terms(sector, bc: str) -> RealTerms:
    from .fock import enumerate_sector

    basis = enumerate_sector(sector)
    hopping = _hopping_matrix(basis, bc)
    diag_u = double_occupancy_counts(basis.configs, sector.L).astype(np.float64)
    diag_v = neighbor_density_products(basis.configs, sector.L).astype(np.float64)
    diag_u.flags.writeable = False
    diag_v.flags.writeable = False
    return RealTerms(hopping=hopping, diag_u=diag_u, diag_v=diag_v)


def real_terms(basis: SectorBasis, bc: str) -> RealTerms:
    if bc not in ("periodic", "antiperiodic"):
        raise ValueError(f"bc must be resolved, got {bc!r}")
    return _cached_real_terms(basis.sector, bc)


def build_real_hamiltonian(params: ModelParams, basis: SectorBasis) -> SparseHamiltonian:
    """Assemble the sector Hamiltonian as a real symmetric CSR matrix."""
    if params.L != basis.sector.L:
        raise ValueError(
            f"parameter L={params.L} does not match basis L={basis.sector.L}"
        )
    terms = real_terms(basis, params.resolved_bc())
    diag = params.U * terms.diag_u + params.V * terms.diag_v
    mat = (params.t * terms.hopping + sparse.diags(diag)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return SparseHamiltonian(matrix=mat)
