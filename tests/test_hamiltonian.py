"""Real-space Hamiltonian construction checks."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse

from ehub.fock import Sector, enumerate_sector, mode_index
from ehub.hamiltonian import (
    MAX_L,
    ModelParams,
    _cached_real_terms,
    _hopping_hops,
    _hopping_matrix,
    boundary_for,
    build_real_hamiltonian,
    double_occupancy_counts,
    neighbor_density_products,
    one_body_matrix,
    real_terms,
)
from ehub.momentum import _density_hops, allowed_momenta
from oracles import apply_operator_string, diagonal_energy, hermiticity_defect

# (U, V, t): zero couplings, U = 2V and U = -2V, where terms cancel exactly on some entries
COUPLINGS = (
    (0.0, 0.0, 1.0), (2.0, 0.0, 1.0), (0.0, 1.5, 0.7), (2.0, 1.0, 1.0), (2.0, -1.0, 1.3),
    (-3.0, 0.8, 1.0),
)


def _config_from_sites(doublons=(), ups=(), dns=()):
    bits = 0
    for j in doublons:
        bits |= (1 << mode_index(j, 0)) | (1 << mode_index(j, 1))
    for j in ups:
        bits |= 1 << mode_index(j, 0)
    for j in dns:
        bits |= 1 << mode_index(j, 1)
    return bits


def test_boundary_rule():
    assert boundary_for(10) == "periodic"
    assert boundary_for(6) == "periodic"
    assert boundary_for(8) == "antiperiodic"
    assert boundary_for(12) == "antiperiodic"
    with pytest.raises(ValueError):
        boundary_for(7)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(L=7, U=0.0, V=0.0)
    for L in (2, 14, 16):
        with pytest.raises(ValueError, match="several GB"):
            ModelParams(L=L, U=0.0, V=0.0)
    assert ModelParams(L=MAX_L, U=0.0, V=0.0).L == 12
    with pytest.raises(ValueError):
        ModelParams(L=8, U=0.0, V=0.0, t=0.0)
    with pytest.raises(ValueError):
        ModelParams(L=8, U=0.0, V=0.0, bc="open")
    for bad in ({"U": np.nan}, {"V": np.inf}, {"U": -np.inf}, {"t": np.inf}, {"t": np.nan}):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(**{"L": 8, "U": 0.0, "V": 0.0, **bad})
    assert ModelParams(L=8, U=0.0, V=0.0).resolved_bc() == "antiperiodic"
    assert ModelParams(L=8, U=0.0, V=0.0, bc="periodic").resolved_bc() == "periodic"


def test_diagonal_energy_examples():
    params = ModelParams(L=4, U=1.0, V=1.0)
    checkerboard = _config_from_sites(doublons=(0, 2))
    assert diagonal_energy(checkerboard, params) == pytest.approx(2.0)

    params10 = ModelParams(L=10, U=1.0, V=1.0)
    ps_a = _config_from_sites(doublons=range(5))
    assert diagonal_energy(ps_a, params10) == pytest.approx(21.0)  # 5U + 16V

    assert diagonal_energy(0, params10) == 0.0


def test_density_term_wraps_the_ring():
    params = ModelParams(L=6, U=0.0, V=1.0)
    edge_pair = _config_from_sites(doublons=(0, 5))
    assert diagonal_energy(edge_pair, params) == pytest.approx(4.0)  # bond 5-0 only


def test_zero_hopping_matrix_is_diagonal():
    params = ModelParams(L=4, U=2.5, V=-1.2, t=1e-30)
    with pytest.raises(ValueError):
        ModelParams(L=4, U=0.0, V=0.0, t=-1.0)
    basis = enumerate_sector(Sector.half_filled(4))
    H = build_real_hamiltonian(params, basis).toarray()
    offdiag = H - np.diag(np.diag(H))
    assert np.abs(offdiag).max() < 1e-25
    expected = [diagonal_energy(int(c), params) for c in basis.configs]
    np.testing.assert_allclose(np.diag(H), expected, atol=1e-25)


def test_real_matrix_is_real_symmetric():
    basis = enumerate_sector(Sector.half_filled(6))
    H = build_real_hamiltonian(ModelParams(L=6, U=-2.0, V=0.7), basis)
    assert H.dtype == np.float64
    assert hermiticity_defect(H) == 0.0


def test_offdiagonal_row_structure():
    # every off-diagonal entry is one directed hop of amplitude -t, so a
    # row holds at most 4L of them (L bonds, 2 directions, 2 spins)
    basis = enumerate_sector(Sector.half_filled(6))
    H = build_real_hamiltonian(ModelParams(L=6, U=3.0, V=1.0, t=0.7), basis)
    mat = H.matrix.tolil()
    for row, (cols, data) in enumerate(zip(mat.rows, mat.data)):
        off = [v for c, v in zip(cols, data) if c != row]
        assert len(off) <= 24
        assert all(abs(v) == pytest.approx(0.7) for v in off)


def test_single_particle_dispersion_antiperiodic():
    # one up electron on 4 sites: eigenvalues are -2 cos k over the twisted grid
    basis = enumerate_sector(Sector(4, 1, 0))
    H = build_real_hamiltonian(ModelParams(L=4, U=9.9, V=3.3), basis)
    got = np.linalg.eigvalsh(H.toarray())
    ks = [np.pi / 4, 3 * np.pi / 4, -np.pi / 4, -3 * np.pi / 4]
    expected = np.sort([-2.0 * np.cos(k) for k in ks])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_free_fermion_ground_energy_small():
    # filled-band sums, computed here from the dispersion directly
    for L, bc in ((4, "antiperiodic"), (6, "periodic")):
        basis = enumerate_sector(Sector.half_filled(L))
        H = build_real_hamiltonian(ModelParams(L=L, U=0.0, V=0.0), basis)
        e0 = np.linalg.eigvalsh(H.toarray())[0]
        if bc == "antiperiodic":
            ks = [2 * np.pi * (n + 0.5) / L for n in range(L)]
        else:
            ks = [2 * np.pi * n / L for n in range(L)]
        eps = np.sort(-2.0 * np.cos(ks))
        assert e0 == pytest.approx(2 * eps[: L // 2].sum(), abs=1e-9)


def test_boundary_twist_changes_spectrum():
    basis = enumerate_sector(Sector(4, 1, 0))
    anti = build_real_hamiltonian(ModelParams(L=4, U=0.0, V=0.0, bc="antiperiodic"), basis)
    peri = build_real_hamiltonian(ModelParams(L=4, U=0.0, V=0.0, bc="periodic"), basis)
    w_anti = np.linalg.eigvalsh(anti.toarray())
    w_peri = np.linalg.eigvalsh(peri.toarray())
    np.testing.assert_allclose(w_peri, np.sort([-2, 0, 0, 2]), atol=1e-12)
    assert np.abs(w_anti - w_peri).max() > 0.5


def test_dimension_mismatch_rejected():
    basis = enumerate_sector(Sector.half_filled(4))
    with pytest.raises(ValueError):
        build_real_hamiltonian(ModelParams(L=6, U=0.0, V=0.0), basis)


@pytest.mark.parametrize("bc", ["periodic", "antiperiodic"])
@pytest.mark.parametrize("L", [4, 6])
def test_build_equals_dense_sum(L, bc):
    basis = enumerate_sector(Sector.half_filled(L))
    hop = _hopping_matrix(basis, bc).toarray()
    du = double_occupancy_counts(basis.configs, L)
    dv = neighbor_density_products(basis.configs, L)
    for U, V, t in COUPLINGS:
        H = build_real_hamiltonian(ModelParams(L=L, U=U, V=V, t=t, bc=bc), basis).matrix
        want = t * hop + np.diag(U * du + V * dv)
        np.testing.assert_array_equal(H.toarray(), want)
        assert H.nnz == np.count_nonzero(want)  # entries that come out 0 are not stored


def test_zero_dropping_build_leaves_the_pattern_intact():
    # dropping zeros compacts CSR arrays in place; done on the shared
    # pattern it would corrupt every later build of the sector
    basis = enumerate_sector(Sector.half_filled(6))
    generic = ModelParams(L=6, U=1.3, V=0.7)
    _cached_real_terms.cache_clear()
    fresh = build_real_hamiltonian(generic, basis).matrix
    _cached_real_terms.cache_clear()
    dropped = build_real_hamiltonian(ModelParams(L=6, U=1.3, V=0.0), basis).matrix
    assert dropped.nnz < fresh.nnz
    after = build_real_hamiltonian(generic, basis).matrix
    for name in ("data", "indices", "indptr"):
        assert getattr(after, name).tobytes() == getattr(fresh, name).tobytes()


def test_cached_terms_are_read_only_and_shared():
    basis = enumerate_sector(Sector.half_filled(6))
    terms = real_terms(basis, "periodic")
    pattern = terms.pattern
    for array in (pattern.indptr, pattern.indices, pattern.diagonal,
                  terms.hopping, terms.diag_u, terms.diag_v):
        assert not array.flags.writeable
    H = build_real_hamiltonian(ModelParams(L=6, U=1.3, V=0.7, bc="periodic"), basis).matrix
    assert np.shares_memory(H.indices, pattern.indices)
    assert np.shares_memory(H.indptr, pattern.indptr)


@pytest.mark.parametrize("space", ["real", "momentum"])
def test_matvec_equals_the_sparse_product_bitwise(space):
    # matvec calls SciPy's CSR kernel directly; a change of that private
    # kernel's signature or arithmetic must fail here
    from ehub.momentum import build_momentum_hamiltonian

    build = build_real_hamiltonian if space == "real" else build_momentum_hamiltonian
    for L in (6, 8):
        basis = enumerate_sector(Sector.half_filled(L))
        H = build(ModelParams(L=L, U=-1.7, V=0.3, t=0.8), basis)
        x = np.random.default_rng(L).standard_normal(H.dimension)
        got = H.matvec(x)
        assert got.dtype == np.float64
        assert got.tobytes() == (H.matrix @ x).tobytes()
        strided = np.random.default_rng(L + 1).standard_normal(2 * H.dimension)[::2]
        assert H.matvec(strided).tobytes() == (H.matrix @ strided).tobytes()
        with pytest.raises(ValueError, match="length"):
            H.matvec(x[:-1])


def _oracle_one_body(basis, hops):
    """sum of coeff * c^dag_dst c_src as canonical CSR, from every configuration's string."""
    dim = len(basis)
    rows, cols, vals = [], [], []
    for dst, src, coeff in hops:
        tgt, source, sgn = apply_operator_string(basis, [(src, "annihilate"), (dst, "create")])
        rows.append(tgt)
        cols.append(source)
        vals.append(coeff * sgn.astype(np.float64))
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )
    out = mat.tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def _hop_lists(L):
    """Every hop list the library builds at L, and a seeded random one of same-spin hops."""
    lists = {f"hopping {bc}": _hopping_hops(L, bc) for bc in ("periodic", "antiperiodic")}
    for bc in ("periodic", "antiperiodic"):
        grid = allowed_momenta(L, bc)
        for qm in sorted({grid.fold(2 * n) for n in range(L)}):
            for spin in (0, 1):
                lists[f"rho {bc} q={qm} spin={spin}"] = _density_hops(grid, qm, spin)
    rng = np.random.default_rng(L)
    randoms = []
    for _ in range(6 * L):
        spin = int(rng.integers(2))
        a, b = (int(j) for j in rng.integers(L, size=2))
        randoms.append((mode_index(b, spin), mode_index(a, spin), float(rng.standard_normal())))
    wrap = (mode_index(0, 1), mode_index(L - 1, 1), 0.75)
    number = (mode_index(1, 0), mode_index(1, 0), -2.0)
    lists["random"] = randoms + [wrap, number]
    return lists


@pytest.mark.parametrize("L", [2, 4, 6, 8])
def test_one_body_matrix_equals_operator_string_oracle_bytewise(L):
    sectors = {(L // 2, L // 2), (1, 2), (0, L // 2), (L, 0)}
    lists = _hop_lists(L)
    # the q = 0 densities are number operators (src == dst), every
    # hopping list has the wrap bond, and at L = 2 both neighbours of a
    # site are the same site, so each of its hops comes twice
    assert all(dst == src for dst, src, _ in lists["rho periodic q=0 spin=0"])
    assert any({dst // 2, src // 2} == {0, L - 1} for dst, src, _ in lists["hopping periodic"])
    if L == 2:
        assert len(set(lists["hopping periodic"])) < len(lists["hopping periodic"])
    for nup, ndn in sorted(sectors):
        basis = enumerate_sector(Sector(L, nup, ndn))
        for name, hops in lists.items():
            got = one_body_matrix(basis, hops)
            want = _oracle_one_body(basis, hops)
            for array in ("data", "indices", "indptr"):
                g, w = getattr(got, array), getattr(want, array)
                where = f"L={L} ({nup},{ndn}) {name} {array}"
                assert g.dtype == w.dtype, where
                assert g.tobytes() == w.tobytes(), where


def test_one_body_matrix_refuses_a_spin_flip():
    basis = enumerate_sector(Sector(4, 2, 2))
    with pytest.raises(ValueError, match="spin"):
        one_body_matrix(basis, [(mode_index(1, 1), mode_index(0, 0), 1.0)])


def test_species_tables_rank_every_configuration():
    for nup, ndn in ((3, 3), (1, 2), (0, 3), (6, 0)):
        basis = enumerate_sector(Sector(6, nup, ndn))
        tables = basis.species
        assert tables is basis.species
        up, dn = tables.words
        assert np.all(np.diff(up) > 0) and np.all(np.diff(dn) > 0)
        configs = up[:, None] | dn[None, :]
        np.testing.assert_array_equal(basis.configs[tables.rank], configs)
        assert sorted(tables.rank.ravel()) == list(range(len(basis)))


def test_hop_build_holds_no_duplicate_copies():
    # the COO arrays and the CSR must be all the hop build holds at once
    # (2.3x the CSR's bytes); a per-hop list or concatenated copy beside
    # them reads 3.6x, and at L = 12 would set the set-up's peak memory
    basis = enumerate_sector(Sector.half_filled(10))
    basis.species  # built and cached outside the measured region
    tracemalloc.start()
    try:
        out = _hopping_matrix(basis, "periodic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result_bytes = out.data.nbytes + out.indices.nbytes + out.indptr.nbytes
    assert peak <= 2.5 * result_bytes
