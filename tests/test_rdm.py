"""Reduced density matrices, entropies, and the single-site fast path."""

import numpy as np
import pytest

from ehub.eigen import ground_state
from ehub.fock import BlockSpec, Sector, enumerate_sector, mode_index
from ehub.hamiltonian import ModelParams
from ehub.rdm import (
    LocalWeights,
    dominant_config,
    local_entanglement,
    local_weights,
    rdm_rank,
    reduced_density_matrix,
    von_neumann_entropy,
)
from ehub.reference import reference_state


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
