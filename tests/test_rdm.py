"""Reduced density matrices, entropies, and the single-site fast path."""

import sys

import numpy as np
import pytest

from ehub.eigen import ground_state
from ehub.fock import BlockSpec, Sector, SectorBasis, enumerate_sector, mode_index
from ehub.hamiltonian import ModelParams
from ehub.momentum import allowed_momenta, momentum_pair_block
from ehub.rdm import (
    PLAN_CACHE_SIZE,
    LocalWeights,
    ReducedDensityMatrix,
    dominant_config,
    local_entanglement,
    local_weights,
    rdm_rank,
    reduced_density_matrix,
    trace_plan,
    von_neumann_entropy,
)
from ehub.reference import reference_state
from oracles import unplanned_factors


def test_singlet_pair_block_eigenvalues():
    basis = enumerate_sector(Sector(2, 1, 1))
    amps = np.zeros(len(basis))
    up0_dn1 = (1 << mode_index(0, 0)) | (1 << mode_index(1, 1))
    dn0_up1 = (1 << mode_index(0, 1)) | (1 << mode_index(1, 0))
    amps[basis.index_of(up0_dn1)] = 1.0 / np.sqrt(2.0)
    amps[basis.index_of(dn0_up1)] = -1.0 / np.sqrt(2.0)
    rdm = reduced_density_matrix(amps, basis, BlockSpec.contiguous_sites(1))
    lam = rdm.eigenvalues()
    np.testing.assert_allclose(lam[lam > 1e-12], [0.5, 0.5], atol=1e-14)
    assert rdm_rank(rdm) == 2
    assert von_neumann_entropy(rdm) == pytest.approx(1.0, abs=1e-12)


def test_full_block_is_pure():
    result = ground_state(ModelParams(L=4, U=1.0, V=0.5))
    basis = enumerate_sector(Sector.half_filled(4))
    rdm = reduced_density_matrix(result, basis, BlockSpec.explicit(range(8)))
    assert rdm_rank(rdm) == 1
    assert von_neumann_entropy(rdm) == pytest.approx(0.0, abs=1e-12)


def test_cdw_reference_state_entropy_one_for_every_cut():
    state = reference_state("CDW", 8)
    for l in range(1, 8):
        rdm = reduced_density_matrix(state, state.basis, BlockSpec.contiguous_sites(l))
        assert von_neumann_entropy(rdm) == pytest.approx(1.0, abs=1e-12)
        assert rdm_rank(rdm) == 2


def test_complementarity_on_solved_state():
    result = ground_state(ModelParams(L=6, U=-2.0, V=-0.5))
    basis = enumerate_sector(Sector.half_filled(6))
    for l in range(1, 6):
        front = reduced_density_matrix(result, basis, BlockSpec.contiguous_sites(l))
        back = reduced_density_matrix(result, basis, BlockSpec.explicit(range(2 * l, 12)))
        assert von_neumann_entropy(front) == pytest.approx(
            von_neumann_entropy(back), abs=1e-8
        )


def test_complementarity_every_cut_L10():
    result = ground_state(ModelParams(L=10, U=1.5, V=-0.8))
    basis = enumerate_sector(Sector.half_filled(10))
    for l in range(1, 10):
        front = reduced_density_matrix(result, basis, BlockSpec.contiguous_sites(l))
        back = reduced_density_matrix(result, basis, BlockSpec.explicit(range(2 * l, 20)))
        assert von_neumann_entropy(front) == pytest.approx(
            von_neumann_entropy(back), abs=1e-8
        )


def test_translation_invariance_across_the_twisted_bond():
    # the antiperiodic twist is a gauge choice; shifting the block cannot
    # change the entanglement
    result = ground_state(ModelParams(L=8, U=-2.0, V=-0.5))
    basis = enumerate_sector(Sector.half_filled(8))
    for l in (1, 2, 3, 4):
        s0 = von_neumann_entropy(
            reduced_density_matrix(result, basis, BlockSpec.contiguous_sites(l))
        )
        s1 = von_neumann_entropy(
            reduced_density_matrix(result, basis, BlockSpec.contiguous_sites(l, start=1))
        )
        s_wrap = von_neumann_entropy(
            reduced_density_matrix(
                result, basis, BlockSpec.contiguous_sites(l, start=8 - l // 2 - 1, L=8)
            )
        )
        assert s1 == pytest.approx(s0, abs=1e-8)
        assert s_wrap == pytest.approx(s0, abs=1e-8)


def test_fast_path_matches_one_site_rdm():
    basis = enumerate_sector(Sector.half_filled(6))
    for U, V in ((0.0, 0.0), (3.0, -1.0), (-2.0, 0.6)):
        result = ground_state(ModelParams(L=6, U=U, V=V))
        fast = local_entanglement(local_weights(result, basis, site=0))
        slow = von_neumann_entropy(
            reduced_density_matrix(result, basis, BlockSpec.contiguous_sites(1))
        )
        assert fast == pytest.approx(slow, abs=1e-10)


def test_local_weights_free_fermions_are_uniform():
    result = ground_state(ModelParams(L=6, U=0.0, V=0.0))
    basis = enumerate_sector(Sector.half_filled(6))
    w = local_weights(result, basis, site=2)
    for p in (w.z, w.u_plus, w.u_minus, w.w):
        assert p == pytest.approx(0.25, abs=1e-10)
    assert local_entanglement(w) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("site", [6, -1])
def test_local_weights_refuses_site_off_the_ring(site):
    result = ground_state(ModelParams(L=6, U=0.0, V=0.0))
    basis = enumerate_sector(Sector.half_filled(6))
    with pytest.raises(ValueError, match="site"):
        local_weights(result, basis, site=site)


def test_local_weights_of_ideal_psd_state():
    state = reference_state("PS(d)", 10)
    w = local_weights(state, state.basis, site=0)
    assert w.u_plus == pytest.approx(0.1, abs=1e-12)
    assert w.u_minus == pytest.approx(0.1, abs=1e-12)
    assert w.w == pytest.approx(0.4, abs=1e-12)
    assert w.z == pytest.approx(0.4, abs=1e-12)


def test_local_entanglement_closed_forms():
    assert local_entanglement(LocalWeights(0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0)
    assert local_entanglement(LocalWeights(0.5, 0.0, 0.0, 0.5)) == pytest.approx(1.0)
    # (2/L) log2 L - (1 - 2/L) log2(1/2 - 1/L) at L = 10
    value = local_entanglement(LocalWeights(0.4, 0.1, 0.1, 0.4))
    assert value == pytest.approx(1.7219280948873622, abs=1e-12)


def test_entropy_monotone_in_block_size_at_paper_couplings():
    basis = enumerate_sector(Sector.half_filled(10))
    for V in (-3.0, -1.0, 0.0, 1.0):
        result = ground_state(ModelParams(L=10, U=-2.0, V=V))
        entropies = [
            von_neumann_entropy(
                reduced_density_matrix(result, basis, BlockSpec.contiguous_sites(l))
            )
            for l in range(1, 6)
        ]
        assert np.all(np.diff(entropies) >= -1e-10)


def test_unnormalized_state_is_rejected():
    basis = enumerate_sector(Sector.half_filled(4))
    amps = np.ones(len(basis))  # wildly unnormalized
    rdm = reduced_density_matrix(amps, basis, BlockSpec.contiguous_sites(1))
    with pytest.raises(ValueError, match="trace"):
        von_neumann_entropy(rdm)


def test_wrong_length_state_is_rejected():
    basis = enumerate_sector(Sector.half_filled(4))
    with pytest.raises(ValueError):
        reduced_density_matrix(np.ones(7), basis, BlockSpec.contiguous_sites(1))


def test_dominant_config_and_tie_break():
    basis = enumerate_sector(Sector.half_filled(4))
    amps = np.zeros(len(basis))
    amps[17] = 1.0
    assert dominant_config(amps, basis) == int(basis.configs[17])
    # exact tie resolves to the lower bit value
    amps = np.zeros(len(basis))
    amps[3] = 0.5
    amps[11] = -0.5
    assert dominant_config(amps, basis) == int(basis.configs[3])


def test_dominant_config_counts_a_one_ulp_difference_as_a_tie():
    basis = enumerate_sector(Sector.half_filled(4))
    amps = np.zeros(len(basis))
    amps[3] = 0.5
    amps[11] = -np.nextafter(0.5, 1.0)  # larger by one ulp, at a higher bit value
    assert dominant_config(amps, basis) == int(basis.configs[3])
    amps[11] = -0.5 * (1.0 + 1e-9)
    assert dominant_config(amps, basis) == int(basis.configs[11])


def test_degenerate_flag_propagates_to_rdm():
    basis = enumerate_sector(Sector.half_filled(4))

    class Fake:
        amplitudes = None
        degenerate = True

    Fake.amplitudes = np.zeros(len(basis))
    Fake.amplitudes[0] = 1.0
    rdm = reduced_density_matrix(Fake, basis, BlockSpec.contiguous_sites(2))
    assert rdm.ill_defined
    assert von_neumann_entropy(rdm) >= 0.0


def test_local_weights_validation():
    with pytest.raises(ValueError):
        LocalWeights(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        LocalWeights(-0.2, 0.4, 0.4, 0.4)


def _planned_and_unplanned_blocks(L):
    """Every prefix block, shifted and wrapping windows, an irregular mode
    set, and every momentum +-k pair of the ring."""
    blocks = [BlockSpec.contiguous_sites(l) for l in range(1, L)]
    blocks += [BlockSpec.contiguous_sites(l, start=s, L=L) for l, s in ((1, 1), (2, 1), (3, L - 2))]
    blocks.append(BlockSpec.explicit([1, 4, 2 * L - 1]))
    grid = allowed_momenta(L, ModelParams(L=L, U=0.0, V=0.0).resolved_bc())
    blocks += sorted({momentum_pair_block(grid, k) for k in grid.momenta if 0 < k < np.pi},
                     key=lambda b: b.modes)
    return blocks


@pytest.mark.parametrize("L", [4, 6, 8])
def test_plan_equals_unplanned_assembly_bitwise(L):
    basis = enumerate_sector(Sector.half_filled(L))
    states = [
        ground_state(ModelParams(L=L, U=-2.0, V=-0.5)).amplitudes,
        ground_state(ModelParams(L=L, U=1.0, V=0.5), space="momentum").amplitudes,
    ]
    for block in _planned_and_unplanned_blocks(L):
        plan = trace_plan(basis, block)
        assert (plan.signs is None) == block.is_prefix()
        for amps in states:
            got, got_trace = plan.factors(amps)
            want, want_trace = unplanned_factors(amps, basis, block)
            assert list(got) == list(want)
            for key, (configs, psi) in want.items():
                got_configs, got_psi = got[key]
                assert got_configs.dtype == configs.dtype
                assert np.array_equal(got_configs, configs)
                assert (got_psi.dtype, got_psi.shape) == (psi.dtype, psi.shape)
                assert got_psi.tobytes() == psi.tobytes()
            assert got_trace == want_trace
            rdm = reduced_density_matrix(amps, basis, block)
            oracle = ReducedDensityMatrix(block=block, factors=want, trace=want_trace)
            assert rdm.eigenvalues().tobytes() == oracle.eigenvalues().tobytes()
            assert von_neumann_entropy(rdm) == von_neumann_entropy(oracle)


def test_plan_is_reused_only_for_the_same_basis_object_and_block():
    basis = enumerate_sector(Sector.half_filled(6))
    block = BlockSpec.contiguous_sites(2)
    plan = trace_plan(basis, block)
    assert trace_plan(basis, BlockSpec(modes=block.modes, descriptor="renamed")) is plan
    assert trace_plan(basis, BlockSpec.contiguous_sites(3)) is not plan
    # an equal copy of the basis is another object and gets its own plan
    configs = basis.configs.copy()
    configs.flags.writeable = False
    twin = SectorBasis(sector=basis.sector, configs=configs)
    assert trace_plan(twin, block) is not plan
    assert trace_plan(twin, block) is trace_plan(twin, block)
    # another sector of the same L
    other = enumerate_sector(Sector(6, 2, 3))
    other_plan = trace_plan(other, block)
    assert other_plan is not plan
    assert other_plan.positions.size == len(other)
    # a basis whose configurations can still change is never cached
    loose = SectorBasis(sector=basis.sector, configs=basis.configs.copy())
    assert trace_plan(loose, block) is not trace_plan(loose, block)


def test_plan_arrays_are_read_only():
    basis = enumerate_sector(Sector.half_filled(6))
    plan = trace_plan(basis, BlockSpec.contiguous_sites(2, start=1))
    arrays = [plan.positions, plan.signs, *plan.block_configs]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0


def test_plan_cache_evicts_the_least_recently_used_plan():
    basis = enumerate_sector(Sector.half_filled(6))
    blocks = [BlockSpec.contiguous_sites(l, start=s, L=6) for l in (1, 2, 3) for s in range(6)]
    plans = [trace_plan(basis, b) for b in blocks[:PLAN_CACHE_SIZE]]
    assert trace_plan(basis, blocks[0]) is plans[0]  # a hit; blocks[1] is now least recent
    trace_plan(basis, blocks[PLAN_CACHE_SIZE])
    assert trace_plan(basis, blocks[0]) is plans[0]
    assert trace_plan(basis, blocks[1]) is not plans[1]


def test_clearing_the_ehub_caches_empties_the_plan_cache():
    """Emptying every ``cache_clear`` of the ehub modules, as a cold-start
    benchmark does between set-ups, leaves no plan behind."""
    basis = enumerate_sector(Sector.half_filled(6))
    block = BlockSpec.contiguous_sites(2)
    plan = trace_plan(basis, block)
    for name, module in list(sys.modules.items()):
        if name == "ehub" or name.startswith("ehub."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    assert trace_plan(basis, block) is not plan
