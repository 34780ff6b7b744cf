"""Eigensolver checks: dense path, Lanczos path, dispatch, diagnostics."""

import numpy as np
import pytest
import scipy.sparse as sparse

import ehub.eigen
from ehub.eigen import (
    ConvergenceError,
    SolverOptions,
    dense_ground,
    ground_state,
    lanczos_ground,
    _lcg_start_vector,
)
from ehub.fock import BlockSpec, Sector, enumerate_sector
from ehub.hamiltonian import ModelParams, SparseHamiltonian, build_real_hamiltonian
from ehub.rdm import reduced_density_matrix, von_neumann_entropy


def _wrap(dense_array) -> SparseHamiltonian:
    return SparseHamiltonian(matrix=sparse.csr_matrix(dense_array))


def test_dense_trivial_cases():
    r = dense_ground(_wrap(np.asarray([[3.25]])))
    assert r.energy == pytest.approx(3.25)
    np.testing.assert_allclose(np.abs(r.amplitudes), [1.0])
    assert r.gap == np.inf and not r.degenerate

    r = dense_ground(_wrap(np.diag([0.0, 1.0, 2.0])))
    np.testing.assert_allclose(r.energies, [0.0, 1.0], atol=1e-14)
    assert r.gap == pytest.approx(1.0)


def test_dense_limit_guard():
    basis = enumerate_sector(Sector.half_filled(8))
    H = build_real_hamiltonian(ModelParams(L=8, U=0.0, V=0.0), basis)
    assert H.dimension == 4900
    with pytest.raises(ValueError, match="4096"):
        dense_ground(H)


def test_ground_state_dispatches_on_dense_limit():
    assert ground_state(ModelParams(L=6, U=1.0, V=0.5)).method == "dense"  # dim 400
    assert ground_state(ModelParams(L=8, U=1.0, V=0.5)).method == "lanczos"  # dim 4900


def test_ground_state_L4_free():
    r = ground_state(ModelParams(L=4, U=0.0, V=0.0))
    assert r.method == "dense"
    assert r.energy == pytest.approx(-4.0 * np.sqrt(2.0), abs=1e-12)
    assert not r.degenerate
    assert np.linalg.norm(r.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_ground_state_L10_free_uses_lanczos():
    r = ground_state(ModelParams(L=10, U=0.0, V=0.0))
    assert r.method == "lanczos"
    ks = 2 * np.pi * np.arange(10) / 10
    eps = np.sort(-2.0 * np.cos(ks))
    assert r.energy == pytest.approx(2 * eps[:5].sum(), abs=1e-9)
    assert r.residual <= 1e-8


def test_lanczos_matches_dense_on_random_matrix():
    rng = np.random.default_rng(11)
    n = 300
    mat = sparse.random(n, n, density=0.03, random_state=rng, format="csr")
    mat = (mat + mat.T) * 0.5 + sparse.diags(rng.standard_normal(n))
    H = SparseHamiltonian(matrix=mat.tocsr())
    d = dense_ground(H)
    l = lanczos_ground(H, tol=1e-12, max_iter=600, seed=5)
    assert l.energy == pytest.approx(d.energy, abs=1e-9)
    if d.gap > 1e-6:
        assert abs(np.vdot(l.amplitudes, d.amplitudes)) >= 1.0 - 1e-8


def test_lanczos_matches_dense_on_model_sectors():
    for sector, U, V in [
        (Sector.half_filled(6), -2.0, -0.5),
        (Sector(6, 2, 3), 4.0, -1.0),
        (Sector(4, 1, 1), 0.0, 1.0),
    ]:
        basis = enumerate_sector(sector)
        H = build_real_hamiltonian(ModelParams(L=sector.L, U=U, V=V), basis)
        d = dense_ground(H)
        l = lanczos_ground(H, tol=1e-12, max_iter=2000, seed=1)
        assert l.energy == pytest.approx(d.energy, abs=1e-9)
        if d.gap > 1e-6:
            assert abs(np.vdot(l.amplitudes, d.amplitudes)) >= 1.0 - 1e-8


def test_zero_hopping_limit_ground_is_min_diagonal():
    # the t -> 0 matrix is diagonal up to 1e-12 entries; a single Krylov
    # vector sees one copy of the exactly degenerate classical minimum
    basis = enumerate_sector(Sector.half_filled(6))
    H = build_real_hamiltonian(ModelParams(L=6, U=3.0, V=-2.0, t=1e-12), basis)
    r = lanczos_ground(H, tol=1e-10, max_iter=1000, seed=2)
    assert r.energy == pytest.approx(float(H.matrix.diagonal().min()), abs=1e-9)
    assert r.residual <= 1e-8


def test_seed_independence_up_to_phase():
    basis = enumerate_sector(Sector.half_filled(6))
    H = build_real_hamiltonian(ModelParams(L=6, U=1.0, V=0.3), basis)
    r1 = lanczos_ground(H, tol=1e-11, max_iter=1000, seed=1)
    r2 = lanczos_ground(H, tol=1e-11, max_iter=1000, seed=99)
    assert r1.energy == pytest.approx(r2.energy, abs=1e-9)
    assert r1.gap > 1e-6
    assert abs(np.vdot(r1.amplitudes, r2.amplitudes)) >= 1.0 - 1e-8


def test_nonconvergence_carries_best_estimate():
    basis = enumerate_sector(Sector.half_filled(6))
    H = build_real_hamiltonian(ModelParams(L=6, U=-1.0, V=0.5), basis)
    with pytest.raises(ConvergenceError) as info:
        lanczos_ground(H, tol=1e-14, max_iter=4, seed=1)
    err = info.value
    assert err.iterations == 4
    assert np.isfinite(err.best_energy)
    assert err.residual > 0


def test_residual_postcondition():
    basis = enumerate_sector(Sector.half_filled(6))
    for U, V in ((0.0, 0.0), (2.0, -1.0), (-4.0, 0.5)):
        H = build_real_hamiltonian(ModelParams(L=6, U=U, V=V), basis)
        r = lanczos_ground(H, tol=1e-10, max_iter=2000, seed=1)
        assert r.residual <= 1e-8
        assert np.all(np.diff(r.energies) >= 0)


def test_lcg_start_vector_deterministic():
    a = _lcg_start_vector(500, 1, np.float64)
    b = _lcg_start_vector(500, 1, np.float64)
    c = _lcg_start_vector(500, 2, np.float64)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-3
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_lanczos_refuses_a_complex_matrix():
    H = _wrap(np.asarray([[1.0, 1j, 0.0], [-1j, 2.0, 0.5], [0.0, 0.5, 3.0]]))
    with pytest.raises(TypeError, match="complex128"):
        lanczos_ground(H)


def test_lanczos_dimension_guard():
    with pytest.raises(ValueError):
        lanczos_ground(_wrap(np.asarray([[1.0]])))


def test_ground_state_sector_mismatch():
    with pytest.raises(ValueError):
        ground_state(ModelParams(L=6, U=0.0, V=0.0), sector=Sector.half_filled(4))
    with pytest.raises(ValueError):
        ground_state(ModelParams(L=4, U=0.0, V=0.0), space="fourier")


@pytest.mark.parametrize("kwargs, word", [
    ({"max_iter": 0}, "max_iter"), ({"max_iter": -2}, "max_iter"),
    ({"tol": -1.0}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": float("nan")}, "tol"),
    ({"tol": float("inf")}, "tol"), ({"seed": -1}, "seed"), ({"seed": 2**64}, "seed"),
])
def test_solver_options_out_of_range_raise_value_error(kwargs, word):
    with pytest.raises(ValueError, match=word):
        SolverOptions(**kwargs)
    basis = enumerate_sector(Sector.half_filled(6))
    H = build_real_hamiltonian(ModelParams(L=6, U=1.0, V=0.0), basis)
    with pytest.raises(ValueError, match=word):  # before any product, not from inside the loop
        lanczos_ground(H, **kwargs)


def test_two_pass_path_runs_only_above_the_memory_budget(monkeypatch):
    called = []
    monkeypatch.setattr(ehub.eigen, "_two_pass_ground", lambda *args: called.append(args))
    basis = enumerate_sector(Sector.half_filled(8))
    H = build_real_hamiltonian(ModelParams(L=8, U=1.0, V=0.5), basis)
    stored_bytes = 300 * H.dimension * 8
    monkeypatch.setattr(ehub.eigen, "_LANCZOS_MEMORY_BUDGET", stored_bytes)
    assert lanczos_ground(H, max_iter=300).method == "lanczos" and not called
    lanczos_ground(H, max_iter=301)
    assert len(called) == 1


def _entropies(result, basis):
    return np.array([
        von_neumann_entropy(reduced_density_matrix(result, basis, BlockSpec.contiguous_sites(l)))
        for l in range(1, 6)
    ])


@pytest.mark.parametrize("U, V", [(-2.0, -3.0), (-4.0, -2.0), (-2.0, -1.0), (0.0, 0.0),
                                  (4.0, 0.5), (0.0, 2.0)])
def test_two_pass_matches_stored_basis_at_L10(monkeypatch, U, V):
    params = ModelParams(L=10, U=U, V=V)
    basis = enumerate_sector(Sector.half_filled(10))
    stored = ground_state(params)
    monkeypatch.setattr(ehub.eigen, "_LANCZOS_MEMORY_BUDGET", 0)
    two_pass = ground_state(params)
    assert two_pass.method == "lanczos"
    assert abs(two_pass.energy - stored.energy) <= 1e-10
    assert abs(two_pass.gap - stored.gap) <= 1e-9
    assert two_pass.degenerate == stored.degenerate
    assert abs(two_pass.iterations - stored.iterations) <= 2
    assert two_pass.residual <= 1e-8
    assert np.linalg.norm(two_pass.amplitudes) == pytest.approx(1.0, abs=1e-12)
    # the phase-separated points have gaps near 1e-6, which loosens their vectors
    entropy_tol = 1e-9 if stored.gap > 1e-4 else 1e-8
    assert np.abs(_entropies(two_pass, basis) - _entropies(stored, basis)).max() <= entropy_tol


def test_capped_two_pass_run_carries_its_best_estimate(monkeypatch):
    basis = enumerate_sector(Sector.half_filled(6))
    H = build_real_hamiltonian(ModelParams(L=6, U=-1.0, V=0.5), basis)
    monkeypatch.setattr(ehub.eigen, "_LANCZOS_MEMORY_BUDGET", 0)
    with pytest.raises(ConvergenceError) as info:
        lanczos_ground(H, tol=1e-14, max_iter=4, seed=1)
    err = info.value
    assert err.iterations == 4
    assert np.isfinite(err.best_energy) and err.best_energy > dense_ground(H).energy
    assert err.residual > 0
