"""Momentum grid and momentum-basis Hamiltonian checks."""

import tracemalloc

import numpy as np
import pytest

from ehub.fock import Sector, enumerate_sector
from ehub.hamiltonian import (
    ModelParams,
    build_real_hamiltonian,
    double_occupancy_counts,
    neighbor_density_products,
)
from ehub.momentum import (
    _cached_momentum_terms,
    _interaction_terms,
    _kinetic_diagonal,
    allowed_momenta,
    build_momentum_hamiltonian,
    momentum_pair_block,
    momentum_terms,
    total_momentum,
    total_momentum_int,
)
from oracles import hermiticity_defect

SAMPLES = ((-2.0, -0.5), (0.0, 1.0), (4.0, -1.0))


def test_allowed_momenta_sets():
    g8 = allowed_momenta(8, "antiperiodic")
    want = {f * np.pi / 8 for f in (1, 3, 5, 7, -1, -3, -5, -7)}
    assert set(np.round(g8.momenta, 12)) == set(np.round(sorted(want), 12))

    g10 = allowed_momenta(10, "periodic")
    want10 = {0.0, np.pi} | {s * f * np.pi / 5 for f in (1, 2, 3, 4) for s in (1, -1)}
    assert set(np.round(g10.momenta, 12)) == set(np.round(sorted(want10), 12))

    g4 = allowed_momenta(4, "antiperiodic")
    assert set(np.round(g4.momenta, 12)) == set(
        np.round([np.pi / 4, -np.pi / 4, 3 * np.pi / 4, -3 * np.pi / 4], 12)
    )
    with pytest.raises(ValueError):
        allowed_momenta(5, "periodic")


def test_momenta_reduced_to_half_open_interval():
    for L, bc in ((8, "antiperiodic"), (10, "periodic"), (6, "auto")):
        grid = allowed_momenta(L, bc)
        for k in grid.momenta:
            assert -np.pi < k <= np.pi + 1e-15


def test_free_case_is_diagonal_with_filled_sea_minimum():
    basis = enumerate_sector(Sector.half_filled(8))
    H = build_momentum_hamiltonian(ModelParams(L=8, U=0.0, V=0.0), basis)
    dense_diag = H.matrix.diagonal().real
    coo = H.matrix.tocoo()
    assert np.all(coo.row[np.abs(coo.data) > 1e-14] == coo.col[np.abs(coo.data) > 1e-14])
    expected = -8.0 * (np.cos(np.pi / 8) + np.cos(3 * np.pi / 8))
    assert dense_diag.min() == pytest.approx(expected, abs=1e-12)


# L=4 is antiperiodic and L=6 periodic under the auto boundary rule
@pytest.mark.parametrize("L,nup,ndn", [(4, 2, 2), (4, 1, 1), (6, 3, 3)])
def test_full_spectrum_matches_real_space(L, nup, ndn):
    basis = enumerate_sector(Sector(L, nup, ndn))
    for U, V in SAMPLES:
        params = ModelParams(L=L, U=U, V=V)
        wr = np.linalg.eigvalsh(build_real_hamiltonian(params, basis).toarray())
        wm = np.linalg.eigvalsh(build_momentum_hamiltonian(params, basis).toarray())
        np.testing.assert_allclose(wr, wm, atol=1e-9)


@pytest.mark.parametrize("bc", ["periodic", "antiperiodic"])
@pytest.mark.parametrize("L", [4, 6])
def test_interaction_terms_match_closed_form_spectra(L, bc):
    # each term alone is a diagonal real-space operator, so its momentum-basis
    # spectrum is the sorted list of its per-configuration values
    for nup in range(L + 1):
        for ndn in range(L + 1):
            basis = enumerate_sector(Sector(L, nup, ndn))
            terms = momentum_terms(basis, bc)
            want_u = np.sort(double_occupancy_counts(basis.configs, L))
            want_v = np.sort(neighbor_density_products(basis.configs, L))
            for term, want in ((terms.onsite, want_u), (terms.neighbor, want_v)):
                got = np.linalg.eigvalsh(terms.pattern.assemble(term).toarray())
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_hermiticity_defect():
    basis = enumerate_sector(Sector.half_filled(4))
    H = build_momentum_hamiltonian(ModelParams(L=4, U=2.3, V=-0.9), basis)
    assert hermiticity_defect(H) < 1e-12


def test_momentum_conservation_is_structural():
    sector = Sector(4, 2, 1)
    basis = enumerate_sector(sector)
    grid = allowed_momenta(4, "antiperiodic")
    H = build_momentum_hamiltonian(ModelParams(L=4, U=3.0, V=-1.5), basis)
    labels = np.asarray([total_momentum_int(int(c), grid) for c in basis.configs])
    coo = H.matrix.tocoo()
    assert np.all(labels[coo.row] == labels[coo.col])


def test_kinetic_term_on_single_particle_sector():
    basis = enumerate_sector(Sector(8, 1, 0))
    grid = allowed_momenta(8, "antiperiodic")
    H = build_momentum_hamiltonian(ModelParams(L=8, U=5.0, V=2.0), basis)
    got = np.sort(H.matrix.diagonal().real)
    np.testing.assert_allclose(got, np.sort(grid.dispersion()), atol=1e-12)


def test_total_momentum_examples():
    grid = allowed_momenta(8, "antiperiodic")
    assert total_momentum(0, grid) == 0.0
    n_plus = grid.index_of(3)
    n_minus = grid.index_of(-3)
    pair = (1 << grid.mode(n_plus, 0)) | (1 << grid.mode(n_minus, 0))
    assert total_momentum(pair, grid) == pytest.approx(0.0)
    single = 1 << grid.mode(n_plus, 1)
    assert total_momentum(single, grid) == pytest.approx(3 * np.pi / 8)


def test_momentum_pair_block_snapping():
    grid = allowed_momenta(8, "antiperiodic")
    block = momentum_pair_block(grid, np.pi / 8 + 1e-9)
    assert len(block.modes) == 4
    exact = momentum_pair_block(grid, np.pi / 8)
    assert block.modes == exact.modes
    with pytest.raises(ValueError):
        momentum_pair_block(grid, 0.3)  # 0.3 rad is far from every grid point


@pytest.mark.parametrize("bc", ["periodic", "antiperiodic"])
@pytest.mark.parametrize("L", [4, 6])
def test_build_equals_dense_sum(L, bc):
    basis = enumerate_sector(Sector.half_filled(L))
    grid = allowed_momenta(L, bc)
    kin = _kinetic_diagonal(basis, grid)
    onsite, neighbor = (term.toarray() for term in _interaction_terms(basis, grid))
    for U, V, t in ((0.0, 0.0, 1.0), (2.0, 0.0, 1.0), (0.0, 1.5, 0.7), (2.0, 1.0, 1.0),
                    (2.0, -1.0, 1.3), (-3.0, 0.8, 1.0)):
        H = build_momentum_hamiltonian(ModelParams(L=L, U=U, V=V, t=t, bc=bc), basis).matrix
        want = t * np.diag(kin) + U * onsite + V * neighbor
        np.testing.assert_array_equal(H.toarray(), want)
        assert H.nnz == np.count_nonzero(want)  # entries that come out 0 are not stored


def test_zero_dropping_build_leaves_the_pattern_intact():
    basis = enumerate_sector(Sector.half_filled(6))
    generic = ModelParams(L=6, U=1.3, V=0.7)
    _cached_momentum_terms.cache_clear()
    fresh = build_momentum_hamiltonian(generic, basis).matrix
    _cached_momentum_terms.cache_clear()
    dropped = build_momentum_hamiltonian(ModelParams(L=6, U=1.3, V=0.0), basis).matrix
    assert dropped.nnz < fresh.nnz
    after = build_momentum_hamiltonian(generic, basis).matrix
    for name in ("data", "indices", "indptr"):
        assert getattr(after, name).tobytes() == getattr(fresh, name).tobytes()


def test_cached_terms_are_read_only_and_shared():
    basis = enumerate_sector(Sector.half_filled(6))
    terms = momentum_terms(basis, "periodic")
    pattern = terms.pattern
    for array in (pattern.indptr, pattern.indices, pattern.diagonal,
                  terms.kinetic, terms.onsite, terms.neighbor):
        assert not array.flags.writeable
    H = build_momentum_hamiltonian(ModelParams(L=6, U=1.3, V=0.7, bc="periodic"), basis).matrix
    assert np.shares_memory(H.indices, pattern.indices)
    assert np.shares_memory(H.indptr, pattern.indptr)


def test_interaction_build_drops_each_density_after_its_last_product():
    # every rho^s_q and rho_q kept to the end read 2.76x the finished terms'
    # bytes here; dropped after their last product, 2.27x
    basis = enumerate_sector(Sector.half_filled(10))
    basis.species  # built and cached outside the measured region
    grid = allowed_momenta(10, "periodic")
    tracemalloc.start()
    try:
        terms = _interaction_terms(basis, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result_bytes = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in terms)
    assert peak <= 2.5 * result_bytes
