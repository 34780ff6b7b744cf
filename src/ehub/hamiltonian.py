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

Sectors too large for the stored-basis Lanczos solve (``eigen``) are
solved on the product form instead, which builds no sector-sized
matrix: H = S (T_up (x) 1 + 1 (x) T_dn + D) S, with T_s the hopping of
one species on its own words, D the diagonal and S a +-1 gauge
(``SpeciesTerms``, ``build_species_hamiltonian``).  Its hopping comes
from the per-hop code that ``one_body_matrix`` runs (``_hop_action``);
the CSR terms above serve every other solve.
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
    SpeciesTables,
    mode_index,
    popcount_array,
)

BC_CHOICES = ("auto", "periodic", "antiperiodic")
# No L = 14 point (dim 11.78M) has been measured; real space would solve
# it on the product form, but its momentum-basis CSR build needs several GB.
MAX_L = 12


def check_site_count(L: int) -> None:
    """Refuse a chain this code cannot build: odd, shorter than 4 or longer than MAX_L."""
    if L % 2 != 0 or not 4 <= L <= MAX_L:
        raise ValueError(
            f"L must be even and in [4, {MAX_L}], got {L} "
            f"(beyond {MAX_L} sites no solve has been measured, and the "
            f"momentum-basis CSR build alone needs several GB)"
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


def _hop_action(tables: SpeciesTables, dst: int, src: int):
    """c^dag_dst c_src on the words of its spin: (spin, movable, moved, word_sign, between).

    ``movable`` indexes the words with src occupied and, src emptied, dst
    free; ``moved`` indexes the words they become.  ``word_sign`` is the
    word's own Jordan-Wigner parity, over the modes strictly between src
    and dst (the bit mask ``between``); the other species' parity over
    that range is the rest of the sign, and for src == dst the range is
    empty.
    """
    spin = src % 2
    if dst % 2 != spin:
        raise ValueError(f"hop {src} -> {dst} changes the spin")
    words = tables.words[spin]
    src_bit, dst_bit = np.int64(1 << src), np.int64(1 << dst)
    movable = np.flatnonzero((words & src_bit != 0) & ((words ^ src_bit) & dst_bit == 0))
    moved = np.searchsorted(words, words[movable] ^ src_bit ^ dst_bit)
    lo, hi = min(src, dst), max(src, dst)
    between = np.int64(((1 << hi) - 1) & ~((1 << (lo + 1)) - 1))
    word_sign = 1.0 - 2.0 * (popcount_array(words[movable] & between) & 1)
    return spin, movable, moved, word_sign, between


def one_body_matrix(basis: SectorBasis, hops) -> sparse.csr_matrix:
    """sum of coeff * c^dag_dst c_src over a sector basis, as canonical CSR.

    ``hops`` yields (dst_mode, src_mode, coeff) triples of one spin each;
    the matrix is real when every coefficient is.  A hop acts on the
    words of its spin only (``_hop_action``) and pairs each result with
    every word of the other spin through the rank table.  Its
    Jordan-Wigner sign, the parity of the occupied modes strictly
    between src and dst, is the hopping word's parity times the other
    word's parity over that range.  A hop gives each row at most one
    entry, so the COO-to-CSR conversion lists each row's entries in hop
    order, whatever order a hop yields its entries in: duplicates are
    summed in an order set by ``hops`` alone.
    """
    tables = basis.species
    dim = len(basis)
    expansions = []  # per hop, the small arrays its COO entries expand from
    for dst, src, coeff in hops:
        spin, movable, moved, word_sign, between = _hop_action(tables, dst, src)
        other = tables.words[1 - spin]
        rank = tables.rank if spin == UP else tables.rank.T
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


@dataclass(frozen=True, eq=False)
class SpeciesTerms:
    """Coupling-independent factors of the Hamiltonian in product form.

    A sector vector in product order holds the state of up word i and
    down word j at position i * n_dn + j, each state multiplied by its
    gauge sign.  On such vectors
    H = t (T_up (x) 1 + 1 (x) T_dn) + diag(U diag_u + V diag_v),
    where ``hopping`` holds T_up and T_dn at t = 1, the hops of one spin
    on that spin's words alone, signed by the hopping word's own parity.
    The gauge sign of a state is the parity of its pairs of a down
    electron on a site left of an up electron: the sign of reordering
    its creation operators from site-major to up-block-first mode order,
    which turns the other word's parity of a site-major hop into 1
    (Lin, PRB 42, 6561 (1990)).  ``order[p]`` is the basis index of
    product position p and ``gauge[p]`` its sign.
    """

    hopping: tuple[sparse.csr_matrix, sparse.csr_matrix]
    order: np.ndarray
    gauge: np.ndarray
    diag_u: np.ndarray
    diag_v: np.ndarray


@dataclass(frozen=True, eq=False)
class SpeciesHamiltonian:
    """The sector Hamiltonian acting on product-order, gauged vectors.

    ``hopping`` holds t T_up and t T_dn and ``diagonal`` the interaction
    energies, both as in ``SpeciesTerms``.  ``to_product`` and
    ``from_product`` map a vector from the sector basis into that frame
    and back; both only gather, scatter and flip signs, so they are exact.
    """

    hopping: tuple[sparse.csr_matrix, sparse.csr_matrix]
    diagonal: np.ndarray
    order: np.ndarray
    gauge: np.ndarray

    @property
    def dimension(self) -> int:
        return self.diagonal.size

    @property
    def dtype(self) -> np.dtype:
        return self.diagonal.dtype

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """H x for a product-order vector x, by SciPy's CSR kernel for many vectors.

        Viewed as an (n_up, n_dn) array, T_up acts on its columns and
        T_dn on its rows; the rows are applied as columns of the
        transposed array, whose result is added back transposed.
        """
        t_up, t_dn = self.hopping
        n_up, n_dn = t_up.shape[0], t_dn.shape[0]
        if x.shape != (n_up * n_dn,):  # the kernel reads x without a bounds check
            raise ValueError(f"matvec takes a vector of length {n_up * n_dn}, got shape {x.shape}")
        out = self.diagonal * x
        _sparsetools.csr_matvecs(n_up, n_up, n_dn, t_up.indptr, t_up.indices, t_up.data, x, out)
        x_t = np.ascontiguousarray(x.reshape(n_up, n_dn).T)
        out_t = np.zeros((n_dn, n_up))
        _sparsetools.csr_matvecs(n_dn, n_dn, n_up, t_dn.indptr, t_dn.indices, t_dn.data, x_t, out_t)
        grid = out.reshape(n_up, n_dn)
        grid += out_t.T
        return out

    def to_product(self, x: np.ndarray) -> np.ndarray:
        """A sector-basis vector in product order and gauge."""
        return self.gauge * x[self.order]

    def from_product(self, y: np.ndarray) -> np.ndarray:
        """A product-order, gauged vector back in the sector basis."""
        out = np.empty_like(y)
        out[self.order] = self.gauge * y
        return out


def _species_hopping(tables: SpeciesTables, hops) -> tuple[sparse.csr_matrix, ...]:
    """T_up and T_dn as canonical CSR over each spin's words, from ``_hop_action``."""
    entries = ([], [])
    for dst, src, coeff in hops:
        spin, movable, moved, word_sign, _ = _hop_action(tables, dst, src)
        entries[spin].append((moved, movable, coeff * word_sign))
    out = []
    for spin in (UP, DOWN):
        n = tables.words[spin].size
        rows, cols, vals = (np.concatenate(part) for part in zip(*entries[spin]))
        matrix = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        matrix.sum_duplicates()
        matrix.sort_indices()
        out.append(matrix)
    return tuple(out)


def _gauge_signs(tables: SpeciesTables, L: int) -> np.ndarray:
    """Per product position, (-1) ** (pairs of a down electron left of an up electron)."""
    up, dn = tables.words
    has_up = np.stack([(up >> mode_index(j, UP)) & 1 for j in range(L)], axis=1)
    down_left = np.stack(
        [popcount_array(dn & ((1 << mode_index(j, UP)) - 1)) for j in range(L)], axis=1
    ).astype(np.int64)
    pairs = has_up @ down_left.T
    return (1 - 2 * (pairs & 1)).astype(np.int8).ravel()


@lru_cache(maxsize=6)
def _cached_species_terms(sector, bc: str) -> SpeciesTerms:
    from .fock import enumerate_sector

    tables = enumerate_sector(sector).species
    up, dn = tables.words
    configs = (up[:, None] | dn[None, :]).ravel()  # product order
    terms = SpeciesTerms(
        hopping=_species_hopping(tables, _hopping_hops(sector.L, bc)),
        order=tables.rank.ravel(),
        gauge=_gauge_signs(tables, sector.L),
        diag_u=double_occupancy_counts(configs, sector.L).astype(np.float64),
        diag_v=neighbor_density_products(configs, sector.L).astype(np.float64),
    )
    for array in (terms.gauge, terms.diag_u, terms.diag_v):
        array.flags.writeable = False
    return terms


def species_terms(basis: SectorBasis, bc: str) -> SpeciesTerms:
    if bc not in ("periodic", "antiperiodic"):
        raise ValueError(f"bc must be resolved, got {bc!r}")
    return _cached_species_terms(basis.sector, bc)


def build_species_hamiltonian(params: ModelParams, basis: SectorBasis) -> SpeciesHamiltonian:
    """The sector Hamiltonian in product form; no sector-sized matrix is built."""
    if params.L != basis.sector.L:
        raise ValueError(
            f"parameter L={params.L} does not match basis L={basis.sector.L}"
        )
    terms = species_terms(basis, params.resolved_bc())
    return SpeciesHamiltonian(
        hopping=tuple(params.t * matrix for matrix in terms.hopping),
        diagonal=params.U * terms.diag_u + params.V * terms.diag_v,
        order=terms.order,
        gauge=terms.gauge,
    )
