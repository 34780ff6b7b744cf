"""Real-space extended Hubbard Hamiltonian on a ring of L sites.

H = -t * sum_{j, sigma, +-1} c^dag_{j,sigma} c_{j+-1,sigma}
    + U * sum_j n_{j,up} n_{j,dn}
    + V * sum_j n_j n_{j+1}

The boundary rule makes the half-filled ground state nondegenerate:
periodic hopping for L = 4n + 2 and antiperiodic (the wraparound bond
L-1 <-> 0 carries an extra factor -1) for L = 4n.  The twist is a pure
gauge on the hopping; the density-density V term always wraps the ring
without any sign.

The hopping, and every momentum density operator, comes from one
builder, ``one_body_matrix``, which works on spin-species tables
(``fock.SectorBasis.species``).  A hop c^dag_dst c_src moves one
species: it is applied to that species' words only and each result is
paired with every word of the other species through the rank table.
Its Jordan-Wigner sign, the parity of the occupied modes strictly
between src and dst, splits into the hopping word's parity and the
other word's parity over that range of modes.

Matrices are assembled from coupling-independent factors (hopping at
t=1 plus two diagonal vectors), cached per sector on one canonical CSR
pattern whose index arrays are read-only.  A (U, V) point computes only
a data array on that pattern and shares the index arrays, so sweeping
(U, V) at fixed L reuses every other part of the construction; the
momentum build uses the same mechanism (``aligned_terms``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite

import numpy as np
import scipy.sparse as sparse
from scipy.sparse import _sparsetools

from .fock import (
    DOWN,
    UP,
    SectorBasis,
    mode_index,
    popcount_array,
)

BC_CHOICES = ("auto", "periodic", "antiperiodic")
MAX_L = 12  # at L = 14 (dim 11.78M) the CSR Hamiltonian alone would take several GB


def check_site_count(L: int) -> None:
    """Refuse a chain this code cannot build: odd, shorter than 4 or longer than MAX_L."""
    if L % 2 != 0 or not 4 <= L <= MAX_L:
        raise ValueError(
            f"L must be even and in [4, {MAX_L}], got {L} "
            f"(beyond {MAX_L} sites the CSR Hamiltonian build alone needs several GB)"
        )


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
        check_site_count(self.L)
        for name in ("U", "V", "t"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
        """``matrix @ x`` for a vector x, by the CSR kernel that ``@`` ends in.

        Calling it directly skips SciPy's operand dispatch, a few
        microseconds per product; the kernel and so every bit of the
        result are the same.
        """
        m = self.matrix
        if x.shape != (m.shape[1],):  # the kernel reads x without a bounds check
            raise ValueError(f"matvec takes a vector of length {m.shape[1]}, got shape {x.shape}")
        out = np.zeros(m.shape[0], dtype=np.result_type(m.dtype, x.dtype))
        _sparsetools.csr_matvec(*m.shape, m.indptr, m.indices, m.data, x, out)
        return out

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


def double_occupancy_counts(configs: np.ndarray, L: int) -> np.ndarray:
    """Number of doubly occupied sites per configuration."""
    up_bits = configs & np.int64(0x5555555555555555)
    both = up_bits & (configs >> np.int64(1))
    return popcount_array(both)


def neighbor_density_products(configs: np.ndarray, L: int) -> np.ndarray:
    """sum_j n_j n_{j+1} around the ring, per configuration."""
    occ = [
        popcount_array(configs & np.int64((1 << mode_index(j, UP)) | (1 << mode_index(j, DOWN))))
        for j in range(L)
    ]
    total = occ[L - 1] * occ[0]  # at most 4 per bond, so the uint8 sum cannot overflow
    for j in range(L - 1):
        total += occ[j] * occ[j + 1]
    return total.astype(np.int64)


@dataclass(frozen=True, eq=False)
class TermPattern:
    """One canonical CSR pattern that every term of a sector is aligned to.

    ``indptr`` and ``indices`` are read-only and shared by every matrix
    ``assemble`` builds; ``diagonal[i]`` is the position of entry (i, i).
    """

    indptr: np.ndarray
    indices: np.ndarray
    diagonal: np.ndarray

    def assemble(self, data: np.ndarray) -> SparseHamiltonian:
        """The CSR matrix with this pattern and ``data``, exact zeros dropped.

        A sparse sum drops the entries that come out exactly 0, so they
        are dropped here too.  That compacts the arrays in place, so only
        then are they copied; otherwise the matrix shares ``data`` and
        the pattern.
        """
        dim = self.indptr.size - 1
        if data.all():
            mat = sparse.csr_matrix((data, self.indices, self.indptr), shape=(dim, dim))
        else:
            mat = sparse.csr_matrix(
                (data.copy(), self.indices.copy(), self.indptr.copy()), shape=(dim, dim)
            )
            mat.eliminate_zeros()
        return SparseHamiltonian(matrix=mat)


def aligned_terms(*terms: sparse.csr_matrix) -> tuple[TermPattern, list[np.ndarray]]:
    """The union pattern of canonical CSR terms and the diagonal, and each
    term's data aligned to it (0 where the term has no entry).

    Each term and the diagonal is summed as a matrix of one bit flag over
    its own pattern; in the canonical sum every union entry carries the
    flags of the terms that hold it, in (row, column) order, so the
    entries flagged by a term are that term's entries in order.
    """
    dim = terms[0].shape[0]

    def flags(bit: int, indices: np.ndarray, indptr: np.ndarray) -> sparse.csr_matrix:
        data = np.full(indices.size, 1 << bit, dtype=np.uint8)
        return sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))

    union = flags(0, np.arange(dim), np.arange(dim + 1))
    for bit, term in enumerate(terms, 1):
        union = union + flags(bit, term.indices, term.indptr)
    union.sort_indices()
    aligned = []
    for bit, term in enumerate(terms, 1):
        data = np.zeros(union.nnz)
        data[(union.data & (1 << bit)) != 0] = term.data
        data.flags.writeable = False
        aligned.append(data)
    pattern = TermPattern(
        indptr=union.indptr, indices=union.indices, diagonal=np.flatnonzero(union.data & 1)
    )
    for array in (pattern.indptr, pattern.indices, pattern.diagonal):
        array.flags.writeable = False
    return pattern, aligned


@dataclass(frozen=True, eq=False)
class RealTerms:
    """Coupling-independent factors: H = t*hopping + diag(U*diag_u + V*diag_v).

    ``hopping`` (at t = 1) is aligned to ``pattern``; it has no diagonal
    entries, so it holds 0 at ``pattern.diagonal``.
    """

    pattern: TermPattern
    hopping: np.ndarray
    diag_u: np.ndarray
    diag_v: np.ndarray


def one_body_matrix(basis: SectorBasis, hops) -> sparse.csr_matrix:
    """sum of coeff * c^dag_dst c_src over a sector basis, as canonical CSR.

    ``hops`` yields (dst_mode, src_mode, coeff) triples of one spin each;
    the matrix is real when every coefficient is.  A hop acts on the
    words of its spin only (``SectorBasis.species``): it takes the words
    with src occupied and, src emptied, dst free, and pairs each with
    every word of the other spin through the rank table.  Its
    Jordan-Wigner sign is the parity of the occupied modes strictly
    between src and dst, which splits into the hopping word's parity and
    the other word's parity over that range; for src == dst the range is
    empty.  A hop gives each row at most one entry, so the COO-to-CSR
    conversion lists each row's entries in hop order, whatever order a
    hop yields its entries in: duplicates are summed in an order set by
    ``hops`` alone.
    """
    tables = basis.species
    dim = len(basis)
    expansions = []  # per hop, the small arrays its COO entries expand from
    for dst, src, coeff in hops:
        spin = src % 2
        if dst % 2 != spin:
            raise ValueError(f"hop {src} -> {dst} changes the spin")
        words, other = tables.words[spin], tables.words[1 - spin]
        rank = tables.rank if spin == UP else tables.rank.T
        src_bit, dst_bit = np.int64(1 << src), np.int64(1 << dst)
        movable = np.flatnonzero((words & src_bit != 0) & ((words ^ src_bit) & dst_bit == 0))
        moved = np.searchsorted(words, words[movable] ^ src_bit ^ dst_bit)
        lo, hi = min(src, dst), max(src, dst)
        between = np.int64(((1 << hi) - 1) & ~((1 << (lo + 1)) - 1))
        word_sign = 1.0 - 2.0 * (popcount_array(words[movable] & between) & 1)
        other_sign = 1.0 - 2.0 * (popcount_array(other & between) & 1)
        expansions.append((rank, moved, movable, coeff, word_sign, other_sign))
    # the COO arrays are sized up front and filled in place, so no per-hop
    # copy or concatenation lives beside them, and they go once the CSR is built
    size = sum(movable.size * other_sign.size for _, _, movable, _, _, other_sign in expansions)
    rows = np.empty(size, dtype=tables.rank.dtype)
    cols = np.empty(size, dtype=tables.rank.dtype)
    vals = np.empty(size)
    end = 0
    for rank, moved, movable, coeff, word_sign, other_sign in expansions:
        start, end = end, end + movable.size * other_sign.size
        rows[start:end] = rank[moved].ravel()
        cols[start:end] = rank[movable].ravel()
        vals[start:end] = coeff * np.multiply.outer(word_sign, other_sign).ravel()
    out = sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    del rows, cols, vals
    out.sum_duplicates()
    out.sort_indices()
    return out


def _hopping_hops(L: int, bc: str) -> list[tuple[int, int, float]]:
    """The 4L directed hops of the ring at t = 1, the wrap bond twisted for antiperiodic."""
    hops = []
    for a in range(L):
        for b in ((a + 1) % L, (a - 1) % L):
            twist = -1.0 if bc == "antiperiodic" and {a, b} == {0, L - 1} else 1.0
            for spin in (UP, DOWN):
                hops.append((mode_index(b, spin), mode_index(a, spin), -twist))
    return hops


def _hopping_matrix(basis: SectorBasis, bc: str) -> sparse.csr_matrix:
    return one_body_matrix(basis, _hopping_hops(basis.sector.L, bc))


@lru_cache(maxsize=6)
def _cached_real_terms(sector, bc: str) -> RealTerms:
    from .fock import enumerate_sector

    basis = enumerate_sector(sector)
    pattern, (hopping,) = aligned_terms(_hopping_matrix(basis, bc))
    diag_u = double_occupancy_counts(basis.configs, sector.L).astype(np.float64)
    diag_v = neighbor_density_products(basis.configs, sector.L).astype(np.float64)
    diag_u.flags.writeable = False
    diag_v.flags.writeable = False
    return RealTerms(pattern=pattern, hopping=hopping, diag_u=diag_u, diag_v=diag_v)


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
    data = params.t * terms.hopping
    data[terms.pattern.diagonal] = params.U * terms.diag_u + params.V * terms.diag_v
    return terms.pattern.assemble(data)
