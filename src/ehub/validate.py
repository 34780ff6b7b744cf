"""Cross-checking oracle suite wired into the command line as `validate`.

Each check compares an independent construction (closed forms, filled
bands, dense spectra, reference states) against the production path and
reports one PASS/FAIL line.  The suite is the first thing to run when
touching the basis encoding, the sign bookkeeping, or either
Hamiltonian construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse.linalg as spla

from .eigen import DENSE_LIMIT, dense_ground, ground_state, lanczos_ground, _lcg_start_vector
from .fock import BlockSpec, Sector, enumerate_sector
from .hamiltonian import ModelParams, build_real_hamiltonian
from .momentum import build_momentum_hamiltonian, total_momentum_int, allowed_momenta
from .rdm import (
    local_entanglement,
    local_weights,
    rdm_rank,
    reduced_density_matrix,
    von_neumann_entropy,
)
from .reference import (
    free_fermion_ground_energy,
    ps_rank,
    psd_local_entropy,
    reference_state,
)

SPECTRUM_SAMPLES = ((-2.0, -0.5), (0.0, 1.0), (4.0, -1.0))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(name, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def check_free_fermion() -> CheckResult:
    def run():
        worst = 0.0
        pieces = []
        for L in (4, 8, 10, 12):
            params = ModelParams(L=L, U=0.0, V=0.0)
            result = ground_state(params)
            target = free_fermion_ground_energy(L, params.resolved_bc(), L // 2, L // 2)
            err = abs(result.energy - target)
            worst = max(worst, err)
            pieces.append(f"L={L}: |dE|={err:.2e}")
        return worst <= 1e-9, "; ".join(pieces)

    return _check("free_fermion_energies", run)


def check_spectrum_equality_small() -> CheckResult:
    def run():
        basis = enumerate_sector(Sector.half_filled(4))
        worst = 0.0
        for U, V in SPECTRUM_SAMPLES:
            params = ModelParams(L=4, U=U, V=V)
            wr = np.linalg.eigvalsh(build_real_hamiltonian(params, basis).toarray())
            wm = np.linalg.eigvalsh(build_momentum_hamiltonian(params, basis).toarray())
            worst = max(worst, float(np.abs(wr - wm).max()))
        return worst <= 1e-9, f"L=4 full-spectrum max deviation {worst:.2e}"

    return _check("spectrum_equality_L4", run)


def check_spectrum_equality_medium() -> CheckResult:
    def run():
        basis = enumerate_sector(Sector.half_filled(8))
        U, V = SPECTRUM_SAMPLES[0]
        params = ModelParams(L=8, U=U, V=V)
        wr = np.linalg.eigvalsh(build_real_hamiltonian(params, basis).toarray())[:5]
        hm = build_momentum_hamiltonian(params, basis).matrix
        v0 = _lcg_start_vector(hm.shape[0], 7, hm.dtype)
        wm = np.sort(spla.eigsh(hm, k=12, which="SA", v0=v0, tol=0)[0])[:5]
        worst = float(np.abs(wr - wm).max())
        return worst <= 1e-8, f"L=8 lowest-5 max deviation {worst:.2e} at (U,V)=({U},{V})"

    return _check("spectrum_equality_L8", run)


def check_momentum_conservation() -> CheckResult:
    def run():
        sector = Sector.half_filled(4)
        basis = enumerate_sector(sector)
        grid = allowed_momenta(4, "antiperiodic")
        H = build_momentum_hamiltonian(ModelParams(L=4, U=3.0, V=-1.5), basis)
        labels = np.asarray([total_momentum_int(int(c), grid) for c in basis.configs])
        coo = H.matrix.tocoo()
        bad = int((labels[coo.row] != labels[coo.col]).sum())
        return bad == 0, f"{bad} matrix elements across momentum sectors"

    return _check("momentum_conservation", run)


def check_rank_law() -> CheckResult:
    def run():
        state = reference_state("PS(a)", 10)
        measured = []
        expected = []
        for l in (1, 2, 3, 4):
            rdm = reduced_density_matrix(state, state.basis, BlockSpec.contiguous_sites(l))
            measured.append(rdm_rank(rdm))
            expected.append(ps_rank(l))
        ok = measured == expected
        return ok, f"measured ranks {measured} vs rule {expected}"

    return _check("psa_rank_law", run)


def check_cdw_saturation() -> CheckResult:
    def run():
        state = reference_state("CDW", 8)
        worst = 0.0
        for l in range(1, 8):
            rdm = reduced_density_matrix(state, state.basis, BlockSpec.contiguous_sites(l))
            worst = max(worst, abs(von_neumann_entropy(rdm) - 1.0))
        return worst <= 1e-9, f"max |S(l) - 1| = {worst:.2e} over l=1..7"

    return _check("cdw_saturation", run)


def check_psd_formula() -> CheckResult:
    def run():
        worst = 0.0
        for L in (6, 8, 10, 12):
            state = reference_state("PS(d)", L)
            value = local_entanglement(local_weights(state, state.basis, site=0))
            worst = max(worst, abs(value - psd_local_entropy(L)))
        return worst <= 1e-10, f"max formula deviation {worst:.2e}"

    return _check("psd_local_entropy", run)


def check_rdm_properties() -> CheckResult:
    def run():
        params = ModelParams(L=8, U=-2.0, V=-0.5)
        result = ground_state(params)
        basis = enumerate_sector(Sector.half_filled(8))
        worst_comp = worst_shift = worst_fast = worst_trace = worst_herm = 0.0
        min_eig = 0.0
        for l in range(1, 8):
            rdm = reduced_density_matrix(result, basis, BlockSpec.contiguous_sites(l))
            comp_block = BlockSpec.explicit(range(2 * l, 16))
            comp = reduced_density_matrix(result, basis, comp_block)
            worst_comp = max(
                worst_comp, abs(von_neumann_entropy(rdm) - von_neumann_entropy(comp))
            )
            worst_trace = max(worst_trace, abs(rdm.trace - 1.0))
            min_eig = min(min_eig, float(rdm.eigenvalues()[0]))
            for key in rdm.class_keys():
                mat = rdm.class_matrix(key)
                defect = np.abs(mat - mat.conj().T)
                worst_herm = max(worst_herm, float(defect.max()) if defect.size else 0.0)
            if l <= 6:
                shifted = BlockSpec.contiguous_sites(l, start=1)
                worst_shift = max(
                    worst_shift,
                    abs(
                        von_neumann_entropy(rdm)
                        - von_neumann_entropy(reduced_density_matrix(result, basis, shifted))
                    ),
                )
        fast = local_entanglement(local_weights(result, basis, site=0))
        l1 = von_neumann_entropy(
            reduced_density_matrix(result, basis, BlockSpec.contiguous_sites(1))
        )
        worst_fast = abs(fast - l1)
        ok = (
            worst_comp <= 1e-8
            and worst_shift <= 1e-8
            and worst_fast <= 1e-10
            and worst_trace <= 1e-9
            and min_eig >= -1e-10
            and worst_herm <= 1e-12
        )
        return ok, (
            f"complement {worst_comp:.2e}, shift {worst_shift:.2e}, "
            f"fast-path {worst_fast:.2e}, trace {worst_trace:.2e}, "
            f"min eig {min_eig:.2e}, hermiticity {worst_herm:.2e}"
        )

    return _check("rdm_properties", run)


def sectors_up_to(limit: int) -> list[Sector]:
    """All (L, nup <= ndn) sectors of L = 4, 6, 8 with 2 <= dimension <= limit."""
    out = []
    for L in (4, 6, 8):
        for nup in range(L + 1):
            for ndn in range(nup, L + 1):
                if 2 <= comb(L, nup) * comb(L, ndn) <= limit:
                    out.append(Sector(L, nup, ndn))
    return out


def check_lanczos_vs_dense() -> CheckResult:
    def run():
        worst_e = 0.0
        worst_overlap = 0.0
        checked = 0
        for sector in sectors_up_to(DENSE_LIMIT):
            params = ModelParams(L=sector.L, U=1.5, V=-0.7)
            basis = enumerate_sector(sector)
            H = build_real_hamiltonian(params, basis)
            dense = dense_ground(H)
            lanc = lanczos_ground(H, tol=1e-12, max_iter=4000, seed=3)
            worst_e = max(worst_e, abs(dense.energy - lanc.energy))
            if dense.gap > 1e-6:
                overlap = abs(np.vdot(lanc.amplitudes, dense.amplitudes))
                worst_overlap = max(worst_overlap, 1.0 - overlap)
            checked += 1
        ok = worst_e <= 1e-9 and worst_overlap <= 1e-8
        return ok, (
            f"{checked} sectors: max |dE|={worst_e:.2e}, "
            f"max overlap defect={worst_overlap:.2e}"
        )

    return _check("lanczos_vs_dense", run)


ALL_CHECKS = (
    check_free_fermion,
    check_spectrum_equality_small,
    check_spectrum_equality_medium,
    check_momentum_conservation,
    check_rank_law,
    check_cdw_saturation,
    check_psd_formula,
    check_rdm_properties,
    check_lanczos_vs_dense,
)


def run_validation() -> list[CheckResult]:
    """Run every check, printing one PASS/FAIL line each and a summary to stdout."""
    results = []
    for factory in ALL_CHECKS:
        result = factory()
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name} ({result.seconds:.1f}s): {result.detail}")
    failed = [r for r in results if not r.passed]
    total = sum(r.seconds for r in results)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed in {total:.1f}s")
    return results
