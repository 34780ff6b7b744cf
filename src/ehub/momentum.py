"""Momentum-mode occupation basis and the Hamiltonian expressed in it.

Momenta are bookkept as integers m with k = pi*m/L, folded into (-L, L]
so that momentum algebra is exact: the antiperiodic grid uses odd m,
the periodic grid even m.  Momentum modes are ordered like sites,
mode(n, s) = 2*n + s over the grid index n, so the same configuration
encoding, sector enumeration, and splitting machinery apply unchanged.

The kinetic term is diagonal with dispersion -2 t cos k.  The
interaction terms are sums of products of one-body density operators
rho^s_q = sum_k c^dag_{k+q,s} c_{k,s}, each built by the same one-body
builder as the real-space hopping, over the L lattice transfers
q = 2 pi n / L:

    sum_j n_{j,up} n_{j,dn} = (1/L) sum_q rho^up_q rho^dn_{-q}
    sum_j n_j n_{j+1}       = (1/L) sum_q cos(q) rho_q rho_{-q}

with rho_q = rho^up_q + rho^dn_q.  Each rho^s_q moves one species, so
the builder applies it to the species' words and reaches the basis
through the rank table, with the sign split into the two species'
parities as for the real-space hopping (see ``hamiltonian``); the
products are then plain sparse products, summed in q order, which fixes
every bit of the result.  The second line is the Fourier form
(1/L) sum_q e^{iq} rho_q rho_{-q}: all rho_q commute, so the sine parts
of q and -q cancel and both terms are real matrices.  Diagonalizing
this construction directly (rather than rotating a real-space
eigenvector) gives an independent cross-check of the real-space build
through spectrum equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, pi

import numpy as np
import scipy.sparse as sparse

from .fock import (
    DOWN,
    UP,
    BlockSpec,
    Sector,
    SectorBasis,
    enumerate_sector,
    mode_index,
)
from .hamiltonian import (
    ModelParams,
    SparseHamiltonian,
    TermPattern,
    aligned_terms,
    boundary_for,
    one_body_matrix,
)

SNAP_TOL = 1e-6  # largest accepted distance of a requested k from its grid momentum


def _fold(m: int, L: int) -> int:
    """Reduce an integer momentum label to the window (-L, L]."""
    m = m % (2 * L)
    return m - 2 * L if m > L else m


@dataclass(frozen=True)
class MomentumGrid:
    """Allowed single-particle momenta of an L-site ring for a boundary rule."""

    L: int
    bc: str
    mints: tuple[int, ...]  # k_n = pi * mints[n] / L

    @property
    def momenta(self) -> tuple[float, ...]:
        return tuple(pi * m / self.L for m in self.mints)

    @property
    def nmodes(self) -> int:
        return 2 * self.L

    def mode(self, n: int, spin: int) -> int:
        return mode_index(n, spin)

    def index_of(self, m: int) -> int:
        return self.mints.index(_fold(m, self.L))

    def fold(self, m: int) -> int:
        return _fold(m, self.L)

    def dispersion(self) -> np.ndarray:
        """Single-particle energies -2 cos k at t = 1, one per grid momentum."""
        return np.asarray([-2.0 * cos(k) for k in self.momenta])


def allowed_momenta(L: int, bc: str) -> MomentumGrid:
    """Momentum grid k_n = 2*pi*(n + 1/2)/L (antiperiodic) or 2*pi*n/L (periodic)."""
    if L % 2 != 0:
        raise ValueError(f"site count must be even, got L={L}")
    if bc == "auto":
        bc = boundary_for(L)
    if bc == "antiperiodic":
        raw = [2 * n + 1 for n in range(L)]
    elif bc == "periodic":
        raw = [2 * n for n in range(L)]
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    return MomentumGrid(L=L, bc=bc, mints=tuple(_fold(m, L) for m in raw))


def total_momentum(config: int, grid: MomentumGrid) -> float:
    """Sum of occupied-mode momenta, reduced to (-pi, pi]."""
    return pi * total_momentum_int(config, grid) / grid.L


def total_momentum_int(config: int, grid: MomentumGrid) -> int:
    m_tot = 0
    for n, m in enumerate(grid.mints):
        for spin in (UP, DOWN):
            if config >> grid.mode(n, spin) & 1:
                m_tot += m
    return _fold(m_tot, grid.L)


def momentum_pair_block(grid: MomentumGrid, k: float) -> BlockSpec:
    """Block of the four modes {(+k, up), (-k, up), (+k, dn), (-k, dn)}.

    ``k`` is snapped to the nearest grid momentum; deviations beyond
    ``SNAP_TOL`` are rejected.
    """
    diffs = [abs(_fold_angle(k) - kk) for kk in grid.momenta]
    n_plus = int(np.argmin(diffs))
    if diffs[n_plus] > SNAP_TOL:
        raise ValueError(
            f"momentum {k:.10f} is {diffs[n_plus]:.3e} away from the nearest "
            f"grid point; allowed momenta are {[round(x, 10) for x in grid.momenta]}"
        )
    m_plus = grid.mints[n_plus]
    n_minus = grid.index_of(-m_plus)
    if n_minus == n_plus:
        raise ValueError(f"momentum {k} is its own reflection; the block needs +-k distinct")
    modes = sorted(
        grid.mode(n, spin) for n in (n_plus, n_minus) for spin in (UP, DOWN)
    )
    return BlockSpec(modes=tuple(modes), descriptor=f"momenta +-{abs(grid.momenta[n_plus]):.6f}")


def _fold_angle(k: float) -> float:
    out = (k + pi) % (2 * pi) - pi
    return pi if out == -pi else out


@dataclass(frozen=True, eq=False)
class MomentumTerms:
    """Coupling-independent factors: H = t*diag(kinetic) + U*onsite + V*neighbor.

    ``onsite`` and ``neighbor`` are real and aligned to ``pattern``.
    """

    pattern: TermPattern
    kinetic: np.ndarray  # dispersion sums at t = 1, one per basis state
    onsite: np.ndarray  # coefficient of U
    neighbor: np.ndarray  # coefficient of V


def _kinetic_diagonal(basis: SectorBasis, grid: MomentumGrid) -> np.ndarray:
    eps = grid.dispersion()
    diag = np.zeros(len(basis), dtype=np.float64)
    for n in range(grid.L):
        for spin in (UP, DOWN):
            occ = (basis.configs >> np.int64(grid.mode(n, spin))) & np.int64(1)
            diag += eps[n] * occ
    return diag


def _density_hops(grid: MomentumGrid, qm: int, spin: int) -> list[tuple[int, int, float]]:
    """The hops of rho^spin_q = sum_k c^dag_{k+q,spin} c_{k,spin}, a real matrix."""
    return [
        (grid.mode(grid.index_of(m + qm), spin), grid.mode(n, spin), 1.0)
        for n, m in enumerate(grid.mints)
    ]


def _add_product(total, coeff: float, a: sparse.csr_matrix, b: sparse.csr_matrix):
    """total + coeff * a @ b, the product scaled in place; ``total`` None starts the sum."""
    prod = a @ b
    prod.data *= coeff
    return prod if total is None else total + prod


def _canonical(total: sparse.csr_matrix) -> sparse.csr_matrix:
    """A summed term as canonical CSR, entries that cancel up to rounding dropped.

    A cos(q) sum leaves ~1e-17 residues where the exact element is zero,
    and keeping them would store a denser pattern than the operator has.
    """
    total.sum_duplicates()
    total.data[np.abs(total.data) < 1e-12] = 0.0
    total.eliminate_zeros()
    return total


def _interaction_terms(basis: SectorBasis, grid: MomentumGrid):
    """The onsite and neighbor terms as CSR, each summed over q in ``transfers`` order.

    Both sums advance in one loop, because the terms of q read rho^s_q
    and rho^s_{-q} alone: once the terms of q and of -q are summed, those
    densities are dropped, and each rho_q = rho^up_q + rho^dn_q is formed
    only for the product that reads it.  So the densities shrink as the
    sums grow, instead of every density and rho_q living to the end.
    """
    L = grid.L
    transfers = [grid.fold(2 * n) for n in range(L)]  # q = 2 pi n / L on either grid
    rho = {
        (qm, s): one_body_matrix(basis, _density_hops(grid, qm, s))
        for qm in transfers
        for s in (UP, DOWN)
    }
    onsite = neighbor = None
    summed = set()
    for qm in transfers:
        mq = grid.fold(-qm)
        onsite = _add_product(onsite, 1.0 / L, rho[qm, UP], rho[mq, DOWN])
        neighbor = _add_product(
            neighbor,
            cos(pi * qm / L) / L,
            rho[qm, UP] + rho[qm, DOWN],
            rho[mq, UP] + rho[mq, DOWN],
        )
        summed.add(qm)
        if mq in summed:
            for key in {(qm, UP), (qm, DOWN), (mq, UP), (mq, DOWN)}:
                del rho[key]
    return _canonical(onsite), _canonical(neighbor)


@lru_cache(maxsize=4)
def _cached_momentum_terms(sector: Sector, bc: str) -> MomentumTerms:
    grid = allowed_momenta(sector.L, bc)
    basis = enumerate_sector(sector)
    kin = _kinetic_diagonal(basis, grid)
    kin.flags.writeable = False
    pattern, (onsite, neighbor) = aligned_terms(*_interaction_terms(basis, grid))
    return MomentumTerms(pattern=pattern, kinetic=kin, onsite=onsite, neighbor=neighbor)


def momentum_terms(basis: SectorBasis, bc: str) -> MomentumTerms:
    if bc not in ("periodic", "antiperiodic"):
        raise ValueError(f"bc must be resolved, got {bc!r}")
    return _cached_momentum_terms(basis.sector, bc)


def build_momentum_hamiltonian(params: ModelParams, basis: SectorBasis) -> SparseHamiltonian:
    """Assemble the Hamiltonian in the momentum occupation basis (real symmetric)."""
    if params.L != basis.sector.L:
        raise ValueError(
            f"parameter L={params.L} does not match basis L={basis.sector.L}"
        )
    terms = momentum_terms(basis, params.resolved_bc())
    data = params.U * terms.onsite
    diagonal = terms.pattern.diagonal
    data[diagonal] = params.t * terms.kinetic + data[diagonal]
    data += params.V * terms.neighbor
    return terms.pattern.assemble(data)
