"""Bit-encoded fermionic occupation configurations and sector bases.

A chain of L sites carries 2L fermionic modes, ordered site-major with
spin-up before spin-down: mode(j, s) = 2*j + s, where s=0 is up and s=1
is down.  A configuration is a single integer whose bit m is set iff
mode m is occupied.  Creation/annihilation operators acting on such a
configuration pick up the Jordan-Wigner sign
(-1)**(number of occupied modes with index below the target mode),
which is the parity cost of commuting the operator past the occupied
modes that precede it in the chosen ordering.

With this ordering a contiguous block of the first l sites occupies the
lowest 2l bits, so splitting a configuration into (block, environment)
for that block never produces a sign.

A sector is also the product of its spin species (Lin, PRB 42, 6561
(1990)): every configuration is an up word (the even bits) OR a down
word (the odd bits), and each pair of words is one configuration.
``SectorBasis.species`` holds both word lists sorted and the rank table
from (up word, down word) to basis index, so an operator that moves one
species is built from that species' C(L, n) words instead of from every
configuration of the sector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from typing import Iterable

import numpy as np

UP = 0
DOWN = 1

MAX_SITES = 14  # configurations must fit comfortably in an int64 word

_WORD = np.int64
# the bits of all up modes (even) and of all down modes (odd)
_SPIN_MASK = (_WORD(0x5555555555555555), ~_WORD(0x5555555555555555))


def mode_index(site: int, spin: int) -> int:
    """Global mode index of (site, spin); spin 0 is up, 1 is down."""
    return 2 * site + spin


def popcount_array(bits: np.ndarray) -> np.ndarray:
    """Per-element popcount of a nonnegative integer array."""
    return np.bitwise_count(bits)


@dataclass(frozen=True)
class Sector:
    """A fixed (N_up, N_down) particle-number subspace of an L-site chain."""

    L: int
    nup: int
    ndn: int

    def __post_init__(self) -> None:
        if self.L % 2 != 0:
            raise ValueError(f"site count must be even, got L={self.L}")
        if not 2 <= self.L <= MAX_SITES:
            raise ValueError(f"L={self.L} outside supported range [2, {MAX_SITES}]")
        for name, n in (("nup", self.nup), ("ndn", self.ndn)):
            if not 0 <= n <= self.L:
                raise ValueError(f"{name}={n} outside [0, {self.L}]")

    @classmethod
    def half_filled(cls, L: int) -> "Sector":
        return cls(L, L // 2, L // 2)

    @property
    def nmodes(self) -> int:
        return 2 * self.L

    @property
    def dimension(self) -> int:
        return comb(self.L, self.nup) * comb(self.L, self.ndn)


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """All configurations of a sector, sorted by increasing bit value.

    The position of a configuration in ``configs`` is its basis index;
    lookup is by binary search, so enumeration and lookup are exact
    inverses of each other.  ``species`` is derived from ``configs`` on
    first use and kept, so ``configs`` must not change after that.
    """

    sector: Sector
    configs: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.configs.size

    @property
    def nmodes(self) -> int:
        return self.sector.nmodes

    def index_of(self, bits: int) -> int:
        i = int(np.searchsorted(self.configs, bits))
        if i >= self.configs.size or int(self.configs[i]) != bits:
            raise KeyError(f"configuration {bits:#x} not in sector {self.sector}")
        return i

    @cached_property
    def species(self) -> "SpeciesTables":
        """The per-spin words of the sector and their rank table, built on first use."""
        sector = self.sector
        words = (
            np.sort(_spin_words(sector.L, sector.nup, UP)),
            np.sort(_spin_words(sector.L, sector.ndn, DOWN)),
        )
        rank = np.empty((words[UP].size, words[DOWN].size), dtype=np.int32)
        rank[
            np.searchsorted(words[UP], self.configs & _SPIN_MASK[UP]),
            np.searchsorted(words[DOWN], self.configs & _SPIN_MASK[DOWN]),
        ] = np.arange(self.configs.size, dtype=np.int32)
        for array in (*words, rank):
            array.flags.writeable = False
        return SpeciesTables(words=words, rank=rank)


@dataclass(frozen=True, eq=False)
class SpeciesTables:
    """A sector as the product of its up and down words.

    ``words[s]`` holds every placement of the spin-s electrons as a bit
    word, in increasing order; ``rank[i, j]`` is the basis index of the
    configuration ``words[UP][i] | words[DOWN][j]``.  An operator that
    moves electrons of one spin acts on that spin's words only, so it is
    built from C(L, n_s) words and the rank table rather than from every
    configuration of the sector.
    """

    words: tuple[np.ndarray, np.ndarray]
    rank: np.ndarray


def _spin_words(L: int, n: int, spin: int) -> np.ndarray:
    """All placements of n electrons of one spin species, as bit words."""
    from itertools import combinations

    words = np.fromiter(
        (sum(1 << mode_index(j, spin) for j in sites) for sites in combinations(range(L), n)),
        dtype=_WORD,
        count=comb(L, n),
    )
    return words


@lru_cache(maxsize=8)
def enumerate_sector(sector: Sector) -> SectorBasis:
    """Enumerate every configuration with the sector's particle numbers.

    Returns C(L, nup) * C(L, ndn) configurations in strictly increasing
    order.  The result is cached and must be treated as immutable.
    """
    up = _spin_words(sector.L, sector.nup, UP)
    dn = _spin_words(sector.L, sector.ndn, DOWN)
    configs = np.sort((up[:, None] | dn[None, :]).ravel())
    configs.flags.writeable = False
    return SectorBasis(sector=sector, configs=configs)


@dataclass(frozen=True)
class BlockSpec:
    """An ordered subset of modes over which a state is reduced.

    ``modes`` are distinct global mode indices in increasing order;
    ``descriptor`` is a human-readable tag used in outputs.
    """

    modes: tuple[int, ...]
    descriptor: str = "explicit"

    def __post_init__(self) -> None:
        if len(self.modes) == 0:
            raise ValueError("block needs at least one mode")
        if any(m < 0 for m in self.modes):
            raise ValueError("mode indices must be nonnegative")
        if list(self.modes) != sorted(set(self.modes)):
            raise ValueError("modes must be distinct and sorted ascending")

    def __len__(self) -> int:
        return len(self.modes)

    @classmethod
    def contiguous_sites(cls, l: int, start: int = 0, L: int | None = None) -> "BlockSpec":
        """Block of l successive sites starting at ``start`` (wraps if L given)."""
        if l < 1:
            raise ValueError("block needs at least one site")
        if L is None:
            sites = range(start, start + l)
        else:
            sites = ((start + i) % L for i in range(l))
        modes = tuple(sorted(mode_index(j, s) for j in sites for s in (UP, DOWN)))
        return cls(modes=modes, descriptor=f"sites[{start}:{start + l})")

    @classmethod
    def explicit(cls, modes: Iterable[int]) -> "BlockSpec":
        return cls(modes=tuple(sorted(modes)))

    def env_modes(self, nmodes: int) -> tuple[int, ...]:
        block = set(self.modes)
        if self.modes[-1] >= nmodes:
            raise ValueError(f"block mode {self.modes[-1]} exceeds mode count {nmodes}")
        return tuple(m for m in range(nmodes) if m not in block)

    def is_prefix(self) -> bool:
        """True when the block is exactly the lowest len(modes) modes."""
        return self.modes == tuple(range(len(self.modes)))


def split_configs(
    configs: np.ndarray, block: BlockSpec, nmodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split configurations into (block_configs, env_configs, signs) for one block.

    Block and environment occupations are re-indexed 0..k-1 preserving
    global order.  The sign is (-1)**inv where inv counts pairs of an
    occupied block mode preceded by an occupied environment mode; it is
    the parity of the permutation that moves all block-mode operators in
    front of the environment-mode operators.
    """
    env = block.env_modes(nmodes)
    bits = configs.astype(_WORD, copy=False)
    if block.is_prefix():
        nb = len(block.modes)
        bmask = _WORD((1 << nb) - 1)
        bvals = bits & bmask
        evals = bits >> _WORD(nb)
        signs = np.ones(bits.size, dtype=np.int8)
        return bvals, evals, signs
    bvals = np.zeros(bits.size, dtype=_WORD)
    for i, m in enumerate(block.modes):
        bvals |= ((bits >> _WORD(m)) & _WORD(1)) << _WORD(i)
    evals = np.zeros(bits.size, dtype=_WORD)
    for i, m in enumerate(env):
        evals |= ((bits >> _WORD(m)) & _WORD(1)) << _WORD(i)
    env_mask = _WORD(sum(1 << m for m in env))
    inversions = np.zeros(bits.size, dtype=np.int64)
    for m in block.modes:
        occupied = (bits >> _WORD(m)) & _WORD(1)
        below = popcount_array(bits & env_mask & _WORD((1 << m) - 1))
        inversions += occupied.astype(np.int64) * below
    signs = (1 - 2 * (inversions & 1)).astype(np.int8)
    return bvals, evals, signs


def block_quantum_numbers_arrays(
    block_configs: np.ndarray, block: BlockSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (N, 2*Sz) of block-local configurations."""
    n = np.zeros(block_configs.size, dtype=np.int64)
    sz2 = np.zeros(block_configs.size, dtype=np.int64)
    for i, m in enumerate(block.modes):
        occ = (block_configs >> _WORD(i)) & _WORD(1)
        n += occ
        sz2 += occ if m % 2 == UP else -occ
    return n, sz2
