"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one `ACCEPTANCE <n> PASS|FAIL` line (run pytest with
-s to see them as they happen) and then asserts.  Ground-state solves
are cached across criteria, so the expensive points are paid once.
"""

import time

import numpy as np

from ehub.eigen import ground_state
from ehub.fock import BlockSpec, Sector, enumerate_sector
from ehub.hamiltonian import ModelParams, build_real_hamiltonian
from ehub.momentum import build_momentum_hamiltonian
from ehub.rdm import (
    dominant_config,
    local_entanglement,
    local_weights,
    rdm_rank,
    reduced_density_matrix,
    von_neumann_entropy,
)
from ehub.reference import (
    classify_config,
    free_fermion_ground_energy,
    ps_crossover_U,
    ps_rank,
    psd_local_entropy,
    reference_state,
)
from ehub.sweep import derivative_scan, momentum_scan, scaling_fit
from ehub.validate import run_validation

_SOLVES: dict = {}


def _solve(L, U, V, space="real", max_iter=4000):
    key = (L, round(U, 12), round(V, 12), space)
    if key not in _SOLVES:
        params = ModelParams(L=L, U=U, V=V)
        _SOLVES[key] = ground_state(params, space=space, max_iter=max_iter)
    return _SOLVES[key]


def _entropy(L, U, V, l, space="real"):
    result = _solve(L, U, V, space=space)
    basis = enumerate_sector(Sector.half_filled(L))
    rdm = reduced_density_matrix(result, basis, BlockSpec.contiguous_sites(l))
    return von_neumann_entropy(rdm)


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_c01_free_fermion_oracle():
    pieces = []
    ok = True
    for L in (4, 8, 10, 12):
        start = time.perf_counter()
        result = _solve(L, 0.0, 0.0)
        elapsed = time.perf_counter() - start
        bc = ModelParams(L=L, U=0.0, V=0.0).resolved_bc()
        target = free_fermion_ground_energy(L, bc, L // 2, L // 2)
        err = abs(result.energy - target)
        ok = ok and err <= 1e-9 and elapsed < 30.0
        pieces.append(f"L={L}: |dE|={err:.1e}, {elapsed:.1f}s")
    _report(1, ok, "; ".join(pieces))


def test_c02_basis_independence():
    samples = ((-2.0, -0.5), (0.0, 1.0), (4.0, -1.0))
    worst = 0.0
    for L in (4, 8):
        basis = enumerate_sector(Sector.half_filled(L))
        for U, V in samples:
            params = ModelParams(L=L, U=U, V=V)
            wr = np.linalg.eigvalsh(build_real_hamiltonian(params, basis).toarray())[:5]
            wm = np.linalg.eigvalsh(build_momentum_hamiltonian(params, basis).toarray())[:5]
            worst = max(worst, float(np.abs(wr - wm).max()))
    _report(2, worst <= 1e-8, f"lowest-5 max deviation {worst:.2e} over L in (4, 8)")


def test_c03_cdw_saturation():
    devs = {l: abs(_entropy(8, 0.0, 10.0, l) - 1.0) for l in (2, 3, 4)}
    ok = all(d <= 0.05 for d in devs.values())
    detail = ", ".join(f"l={l}: |S-1|={d:.6f}" for l, d in devs.items())
    _report(3, ok, detail + " (tolerance 0.05)")


def test_c04_rank_law():
    state = reference_state("PS(a)", 10)
    measured = {}
    for l in (1, 2, 3, 4):
        rdm = reduced_density_matrix(state, state.basis, BlockSpec.contiguous_sites(l))
        measured[l] = rdm_rank(rdm)
    ok = all(measured[l] == ps_rank(l) for l in measured)
    detail = ", ".join(f"l={l}: rank {measured[l]} vs rule {ps_rank(l)}" for l in measured)
    _report(4, ok, detail)


def test_c05_psd_finite_size_formula():
    worst = 0.0
    for L in (6, 8, 10, 12):
        state = reference_state("PS(d)", L)
        value = local_entanglement(local_weights(state, state.basis, site=0))
        worst = max(worst, abs(value - psd_local_entropy(L)))
    _report(5, worst <= 1e-10, f"max closed-form deviation {worst:.2e}")


def test_c06_min_max_location():
    values = [round(-0.1 + 0.01 * i, 10) for i in range(31)]
    entropies = [_entropy(10, 0.0, v, 4) for v in values]
    minima = [values[i] for i in range(1, 30)
              if entropies[i] <= entropies[i - 1] and entropies[i] <= entropies[i + 1]]
    maxima = [values[i] for i in range(1, 30)
              if entropies[i] >= entropies[i - 1] and entropies[i] >= entropies[i + 1]]
    ok_min = any(abs(v - 0.0) <= 0.01 for v in minima)
    ok_max = any(abs(v - 0.09) <= 0.02 for v in maxima)
    _report(6, ok_min and ok_max, f"minima at {minima}, maxima at {maxima}")


def test_c07_derivative_extremum():
    values = [round(-1.0 + 0.05 * i, 10) for i in range(33)]
    table = derivative_scan(8, 4, -2.0, values, h=0.05, verbose=False)
    magnitudes = [abs(d) for _, d in table]
    extrema = []
    for i in range(1, len(values) - 1):
        if (magnitudes[i] - magnitudes[i - 1]) * (magnitudes[i + 1] - magnitudes[i]) <= 0:
            extrema.append(values[i])
    ok = any(abs(v + 0.2) <= 0.1 for v in extrema)
    _report(7, ok, f"|dS/dV| extrema at {extrema} (window -0.2 +- 0.1)")


def test_c08_momentum_minimum():
    values = [round(-1.0 + 0.05 * i, 10) for i in range(31)]
    rows = momentum_scan(8, np.pi / 8, -2.0, values, verbose=False)
    entropies = [r.entropy_bits for r in rows]
    v_min = values[int(np.argmin(entropies))]
    free = momentum_scan(8, np.pi / 8, 0.0, [0.0], verbose=False)[0].entropy_bits
    ok = abs(v_min + 0.2) <= 0.05 and free == 0.0
    _report(8, ok, f"minimum at V={v_min} (want -0.2 +- 0.05); S(U=V=0)={free}")


def test_c09_crossover_jumps():
    values = [round(0.25 * i, 10) for i in range(33)]
    entropies = [_entropy(10, u, -4.0, 4) for u in values]
    jumps = sorted(
        ((abs(entropies[i + 1] - entropies[i]), values[i], values[i + 1])
         for i in range(len(values) - 1)),
        reverse=True,
    )
    top_two = sorted(jumps[:2], key=lambda j: j[1])
    low, high = top_two
    ok_low = 0.25 <= low[1] and low[2] <= 1.0
    ok_high = 4.0 <= high[1] and high[2] <= 6.0
    u_star = ps_crossover_U(-4.0)
    ok_bracket = low[1] <= u_star <= low[2]
    _report(
        9,
        ok_low and ok_high and ok_bracket,
        f"jumps in ({low[1]}, {low[2]}) and ({high[1]}, {high[2]}); U*={u_star}",
    )


def test_c10_dominant_config_crossovers():
    basis = enumerate_sector(Sector.half_filled(10))
    values = [round(-3.5 + 0.1 * i, 10) for i in range(21)]
    labels = []
    for v in values:
        result = _solve(10, 2.0, v)
        labels.append(classify_config(dominant_config(result, basis), 10))
    switches = {}
    for i in range(len(values) - 1):
        if labels[i] != labels[i + 1]:
            mid = 0.5 * (values[i] + values[i + 1])
            switches[(labels[i], labels[i + 1])] = mid
    da = switches.get(("PS(d)", "PS(a)"))
    a_other = switches.get(("PS(a)", "other"))
    ok_da = da is not None and -3.0 <= da <= -2.6
    ok_ao = a_other is not None and -2.4 <= a_other <= -2.0
    _report(
        10,
        ok_da and ok_ao,
        f"PS(d)->PS(a) at {da} (window [-3.0, -2.6]); "
        f"PS(a)->other at {a_other} (window [-2.4, -2.0])",
    )


def test_c11_property_suite_and_validate_runtime():
    start = time.perf_counter()
    results = run_validation()
    elapsed = time.perf_counter() - start
    by_name = {r.name: r for r in results}
    rdm_check = by_name["rdm_properties"]
    lanczos_check = by_name["lanczos_vs_dense"]
    completed = len(results) > 0
    ok = rdm_check.passed and lanczos_check.passed and completed and elapsed < 600.0
    _report(
        11,
        ok,
        f"rdm properties: {rdm_check.detail}; lanczos-vs-dense: {lanczos_check.detail}; "
        f"validate completed in {elapsed:.0f}s",
    )


def test_c12_scaling_behavior():
    result = _solve(12, -2.0, -3.0)
    basis = enumerate_sector(Sector.half_filled(12))
    entropies = [
        von_neumann_entropy(
            reduced_density_matrix(result, basis, BlockSpec.contiguous_sites(l))
        )
        for l in range(1, 7)
    ]
    fit = scaling_fit(range(1, 7), entropies)
    ok_fit = fit.r_squared >= 0.95
    cdw_dev = max(abs(_entropy(8, 0.0, 10.0, l) - 1.0) for l in range(2, 8))
    ok_cdw = cdw_dev <= 0.05
    _report(
        12,
        ok_fit and ok_cdw,
        f"log2(l) fit R^2={fit.r_squared:.4f} (>= 0.95); "
        f"CDW max |S-1|={cdw_dev:.6f} (<= 0.05)",
    )
