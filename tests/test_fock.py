"""Basis enumeration, operator signs, and configuration splitting."""

import numpy as np
import pytest
from math import comb

from ehub.fock import (
    BlockSpec,
    Sector,
    block_quantum_numbers_arrays,
    enumerate_sector,
    mode_index,
    split_configs,
)
from oracles import (
    apply_mode_op,
    apply_operator_string,
    block_quantum_numbers,
    split_config,
)


def _split(config, block, nmodes):
    """The library's split of one configuration."""
    b, e, s = split_configs(np.asarray([config], dtype=np.int64), block, nmodes)
    return int(b[0]), int(e[0]), int(s[0])


def test_mode_ordering_site_major():
    assert mode_index(0, 0) == 0
    assert mode_index(0, 1) == 1
    assert mode_index(3, 0) == 6
    assert mode_index(3, 1) == 7


@pytest.mark.parametrize(
    "L,nup,ndn,count",
    [(2, 1, 1, 4), (4, 2, 2, 36), (10, 5, 5, 63504)],
)
def test_enumeration_counts(L, nup, ndn, count):
    basis = enumerate_sector(Sector(L, nup, ndn))
    assert len(basis) == count


def test_enumeration_counts_exhaustive_small_l():
    for L in (2, 4, 6):
        for nup in range(L + 1):
            for ndn in range(L + 1):
                basis = enumerate_sector(Sector(L, nup, ndn))
                assert len(basis) == comb(L, nup) * comb(L, ndn)


def test_enumeration_sorted_and_particle_counts():
    basis = enumerate_sector(Sector(6, 2, 3))
    configs = basis.configs
    assert np.all(np.diff(configs) > 0)
    up_mask = sum(1 << mode_index(j, 0) for j in range(6))
    dn_mask = sum(1 << mode_index(j, 1) for j in range(6))
    for c in configs[:: max(1, len(configs) // 50)]:
        assert int(c & up_mask).bit_count() == 2
        assert int(c & dn_mask).bit_count() == 3


def test_index_lookup_is_inverse_of_enumeration():
    basis = enumerate_sector(Sector(6, 3, 3))
    for i in (0, 1, 17, len(basis) - 1):
        assert basis.index_of(int(basis.configs[i])) == i
    with pytest.raises(KeyError):
        basis.index_of(0)  # empty config is not in the (3, 3) sector


def test_sector_validation():
    with pytest.raises(ValueError):
        Sector(7, 3, 3)  # odd
    with pytest.raises(ValueError):
        Sector(16, 8, 8)  # too large
    with pytest.raises(ValueError):
        Sector(4, 5, 0)  # count out of range
    with pytest.raises(ValueError):
        Sector(4, 0, -1)


def test_apply_mode_op_examples():
    assert apply_mode_op(0, 0, "create") == (1, 1)
    assert apply_mode_op(0b11, 1, "annihilate") == (0b01, -1)
    assert apply_mode_op(0b11, 2, "create") == (0b111, 1)
    assert apply_mode_op(0b1, 0, "create") is None
    assert apply_mode_op(0b0, 3, "annihilate") is None
    with pytest.raises(ValueError):
        apply_mode_op(0, 0, "destroy")


def test_create_then_annihilate_is_identity_with_positive_sign():
    basis = enumerate_sector(Sector(4, 2, 1))
    for config in (int(c) for c in basis.configs):
        for mode in range(8):
            created = apply_mode_op(config, mode, "create")
            if created is None:
                continue
            new_config, s1 = created
            back, s2 = apply_mode_op(new_config, mode, "annihilate")
            assert back == config
            assert s1 * s2 == 1


def _permutation_parity(positions):
    inv = sum(
        1
        for i in range(len(positions))
        for j in range(i + 1, len(positions))
        if positions[i] > positions[j]
    )
    return -1 if inv % 2 else 1


def _oracle_split_sign(config, block_modes, nmodes):
    """Parity of sorting (block occupied, then env occupied) back to global order."""
    occupied = [m for m in range(nmodes) if config >> m & 1]
    reordered = [m for m in block_modes if config >> m & 1]
    reordered += [m for m in occupied if m not in block_modes]
    return _permutation_parity([occupied.index(m) for m in reordered])


def test_split_config_signs_against_permutation_parity_oracle():
    nmodes = 8  # L = 4
    blocks = [
        BlockSpec.contiguous_sites(1),
        BlockSpec.contiguous_sites(2),
        BlockSpec.explicit([2, 3]),
        BlockSpec.explicit([0, 3, 4, 7]),
        BlockSpec.explicit([1, 6]),
        BlockSpec.explicit([5]),
    ]
    for config in range(1 << nmodes):
        for block in blocks:
            bcfg, ecfg, sign = _split(config, block, nmodes)
            assert sign == _oracle_split_sign(config, block.modes, nmodes)
            env = block.env_modes(nmodes)
            rebuilt = 0
            for i, m in enumerate(block.modes):
                rebuilt |= ((bcfg >> i) & 1) << m
            for i, m in enumerate(env):
                rebuilt |= ((ecfg >> i) & 1) << m
            assert rebuilt == config


def test_split_config_examples():
    # block = site 0: no environment mode precedes a block mode
    for config in (0b0, 0b1011, 0b110011):
        _, _, sign = _split(config, BlockSpec.contiguous_sites(1), 8)
        assert sign == 1
    # block = {2, 3} on occupancy {0, 2}: one inversion
    bcfg, ecfg, sign = _split(0b0101, BlockSpec.explicit([2, 3]), 8)
    assert (bcfg, ecfg, sign) == (0b01, 0b000001, -1)
    # block = everything: identity split
    bcfg, ecfg, sign = _split(0b10110, BlockSpec.explicit(range(8)), 8)
    assert (bcfg, ecfg, sign) == (0b10110, 0, 1)


def test_split_configs_vectorized_matches_scalar():
    basis = enumerate_sector(Sector(4, 2, 2))
    block = BlockSpec.explicit([1, 4, 6])
    b, e, s = split_configs(basis.configs, block, 8)
    for i, config in enumerate(int(c) for c in basis.configs):
        assert (int(b[i]), int(e[i]), int(s[i])) == split_config(config, block, 8)


def test_block_quantum_numbers():
    site0 = BlockSpec.contiguous_sites(1)
    assert block_quantum_numbers(0b00, site0) == (0, 0)
    assert block_quantum_numbers(0b11, site0) == (2, 0)
    assert block_quantum_numbers(0b01, site0) == (1, 1)
    assert block_quantum_numbers(0b10, site0) == (1, -1)
    # the vectorized form agrees with the scalar one on every block configuration
    for block in (site0, BlockSpec.explicit([1, 4, 6]), BlockSpec.contiguous_sites(3)):
        configs = np.arange(1 << len(block), dtype=np.int64)
        n, sz2 = block_quantum_numbers_arrays(configs, block)
        want = [block_quantum_numbers(int(c), block) for c in configs]
        assert list(zip(n.tolist(), sz2.tolist())) == want


def test_block_spec_validation():
    with pytest.raises(ValueError):
        BlockSpec(modes=())
    with pytest.raises(ValueError):
        BlockSpec(modes=(3, 1))
    with pytest.raises(ValueError):
        BlockSpec(modes=(1, 1))
    with pytest.raises(ValueError):
        BlockSpec.contiguous_sites(0)
    # block mode outside the register is caught at split time
    with pytest.raises(ValueError):
        _split(0, BlockSpec.explicit([9]), 8)


def test_apply_operator_string_hop():
    basis = enumerate_sector(Sector(4, 1, 0))
    # move the up electron from site 0 to site 1
    tgt, src, sgn = apply_operator_string(
        basis, [(mode_index(0, 0), "annihilate"), (mode_index(1, 0), "create")]
    )
    assert len(tgt) == 1
    assert int(basis.configs[src[0]]) == 1 << mode_index(0, 0)
    assert int(basis.configs[tgt[0]]) == 1 << mode_index(1, 0)
    assert sgn[0] == 1


def test_apply_operator_string_matches_scalar_oracle():
    basis = enumerate_sector(Sector(4, 2, 2))
    strings = [
        [(0, "annihilate"), (2, "create")],
        [(7, "annihilate"), (1, "create")],
        [(3, "annihilate"), (0, "annihilate"), (2, "create"), (5, "create")],
    ]
    for steps in strings:
        tgt, src, sgn = apply_operator_string(basis, steps)
        want = {}
        for i, config in enumerate(int(c) for c in basis.configs):
            sign = 1
            for mode, kind in steps:
                applied = apply_mode_op(config, mode, kind)
                if applied is None:
                    break
                config, s = applied
                sign *= s
            else:
                want[i] = (basis.index_of(config), sign)
        got = {int(s): (int(t), int(g)) for t, s, g in zip(tgt, src, sgn)}
        assert got == want
