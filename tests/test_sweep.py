"""Sweep drivers, fits, scans, and the table writers."""

import sys

import numpy as np
import pytest

from ehub.hamiltonian import ModelParams
from ehub.sweep import (
    CSV_HEADER,
    SolverOptions,
    SweepRow,
    SweepSpec,
    derivative_scan,
    gnuplot_script,
    momentum_scan,
    parse_range,
    rows_to_csv,
    rows_to_matrix,
    run_grid,
    run_point,
    scaling_fit,
    size_scan,
)

QUIET = SolverOptions()


def test_parse_range():
    assert parse_range("0:1:0.5") == (0.0, 0.5, 1.0)
    assert parse_range("-2:2:1") == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert parse_range("3:3:0.1") == (3.0,)
    with pytest.raises(ValueError):
        parse_range("0:1")
    with pytest.raises(ValueError):
        parse_range("0:1:-0.5")
    with pytest.raises(ValueError):
        parse_range("2:1:0.5")


def test_run_point_free_fermions_has_two_bit_site_entropy():
    rows = run_point(ModelParams(L=10, U=0.0, V=0.0), [1], QUIET)
    assert len(rows) == 1
    assert rows[0].entropy_bits == pytest.approx(2.0, abs=1e-9)
    assert rows[0].bc == "periodic"
    assert not rows[0].degenerate


def test_run_point_block_size_guard():
    with pytest.raises(ValueError):
        run_point(ModelParams(L=4, U=0.0, V=0.0), [4], QUIET)
    rows = run_point(ModelParams(L=4, U=0.0, V=0.0), [2], QUIET)
    assert rows[0].entropy_bits > 0.0


def test_run_grid_ordering_and_determinism():
    spec = SweepSpec(
        L=4,
        block_sizes=(2, 1),
        u_values=(0.0, 1.0),
        v_values=(-0.5, 0.5),
        workers=1,
    )
    rows = run_grid(spec, verbose=False)
    assert len(rows) == 8
    # row-major: U outer, V inner, block sizes ascending within a point
    coords = [(r.U, r.V, r.l) for r in rows]
    assert coords == [
        (0.0, -0.5, 1), (0.0, -0.5, 2), (0.0, 0.5, 1), (0.0, 0.5, 2),
        (1.0, -0.5, 1), (1.0, -0.5, 2), (1.0, 0.5, 1), (1.0, 0.5, 2),
    ]
    again = run_grid(spec, verbose=False)
    assert rows_to_csv(rows) == rows_to_csv(again)
    threaded = run_grid(
        SweepSpec(L=4, block_sizes=(2, 1), u_values=(0.0, 1.0),
                  v_values=(-0.5, 0.5), workers=3),
        verbose=False,
    )
    assert rows_to_csv(threaded) == rows_to_csv(rows)


def test_single_point_grid_equals_run_point():
    spec = SweepSpec(L=4, block_sizes=(2,), u_values=(1.5,), v_values=(-0.3,))
    grid_rows = run_grid(spec, verbose=False)
    point_rows = run_point(ModelParams(L=4, U=1.5, V=-0.3), [2], QUIET)
    assert rows_to_csv(grid_rows) == rows_to_csv(point_rows)


def test_grid_records_error_rows_instead_of_aborting():
    # an iteration cap of 2 cannot converge the L=8 point
    spec = SweepSpec(
        L=8, block_sizes=(2,), u_values=(0.0,), v_values=(0.0, 0.4),
        solver=SolverOptions(max_iter=2),
    )
    rows = run_grid(spec, verbose=False)
    assert len(rows) == 2
    assert all(np.isnan(r.entropy_bits) for r in rows)
    assert all(r.dominant.startswith("error:") for r in rows)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(L=4, block_sizes=(), u_values=(0.0,), v_values=(0.0,))
    with pytest.raises(ValueError):
        SweepSpec(L=4, block_sizes=(4,), u_values=(0.0,), v_values=(0.0,))
    with pytest.raises(ValueError):
        SweepSpec(L=4, block_sizes=(1,), u_values=(0.0,), v_values=(0.0,), workers=0)


def test_derivative_scan_constant_for_linear_series():
    table = derivative_scan(8, 4, 0.0, [0.0, 0.1, 0.2], h=0.05,
                            entropy_fn=lambda v: 3.0 * v + 1.0)
    for _, d in table:
        assert d == pytest.approx(3.0, abs=1e-10)


def test_derivative_scan_zero_at_parabola_vertex():
    table = derivative_scan(8, 4, 0.0, [-0.2, 0.0, 0.2], h=0.1,
                            entropy_fn=lambda v: (v - 0.0) ** 2)
    mid = dict((round(v, 6), d) for v, d in table)
    assert mid[0.0] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        derivative_scan(8, 4, 0.0, [0.0], h=0.0, entropy_fn=lambda v: v)


def test_derivative_scan_memoizes_overlapping_stencils():
    calls = []

    def fn(v):
        calls.append(round(v, 6))
        return v * v

    derivative_scan(8, 4, 0.0, [0.0, 0.05, 0.1], h=0.05, entropy_fn=fn)
    assert len(calls) == len(set(calls))


def test_derivative_scan_failed_stencil_point_gives_nan():
    # an iteration cap of 2 cannot converge the L=8 stencil points
    table = derivative_scan(8, 4, 0.0, [0.0, 0.1], h=0.05, solver=SolverOptions(max_iter=2))
    assert [v for v, _ in table] == [0.0, 0.1]
    assert all(np.isnan(d) for _, d in table)


def test_derivative_scan_consistent_with_spline_slope():
    # central differences against the derivative of a cubic-spline fit of
    # the same entropy samples, on a smooth region
    from scipy.interpolate import CubicSpline

    h = 0.05
    fine = [round(-0.05 + h * i, 10) for i in range(12)]
    cache = {}

    def entropy(v):
        key = round(v, 9)
        if key not in cache:
            cache[key] = run_point(ModelParams(L=4, U=0.0, V=v), [2], QUIET)[0].entropy_bits
        return cache[key]

    samples = [entropy(v) for v in fine]
    spline = CubicSpline(fine, samples)
    table = derivative_scan(4, 2, 0.0, fine[1:-1], h=h, entropy_fn=entropy)
    curvature = float(np.abs(spline(np.asarray(fine[1:-1]), 2)).max())
    for v, d in table:
        assert abs(d - float(spline(v, 1))) <= 2.0 * h * max(curvature, 1e-6)


def test_scaling_fit_exact_logarithm():
    ls = [1, 2, 4, 8]
    fit = scaling_fit(ls, [np.log2(l) for l in ls])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_scaling_fit_constant_series():
    fit = scaling_fit([1, 2, 3, 4], [0.7, 0.7, 0.7, 0.7])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0
    with pytest.raises(ValueError):
        scaling_fit([1, 2], [0.0, 1.0])


def test_size_scan_labels_and_shape():
    rows = size_scan(2, [4, 6], "U", [0.0, 4.0], fixed=0.0, verbose=False)
    assert [(r.L, r.U) for r in rows] == [(4, 0.0), (4, 4.0), (6, 0.0), (6, 4.0)]
    assert all(r.V == 0.0 for r in rows)
    with pytest.raises(ValueError):
        size_scan(4, [4, 6], "U", [0.0], fixed=0.0, verbose=False)
    with pytest.raises(ValueError):
        size_scan(2, [6], "W", [0.0], fixed=0.0, verbose=False)


def test_size_scan_failed_point_gives_error_row():
    # L=6 is solved densely and ignores the iteration cap; L=8 cannot converge
    solver = SolverOptions(max_iter=2)
    rows = size_scan(2, [6, 8], "U", [2.0], fixed=1.0, solver=solver, verbose=False)
    assert [(r.L, r.U, r.V) for r in rows] == [(6, 2.0, 1.0), (8, 2.0, 1.0)]
    assert rows_to_csv(rows[:1]) == rows_to_csv(run_point(ModelParams(L=6, U=2.0, V=1.0), [2], solver))
    assert np.isnan(rows[1].entropy_bits)
    assert rows[1].dominant == "error:ConvergenceError"


def test_momentum_scan_free_point_has_zero_entropy():
    rows = momentum_scan(4, np.pi / 4, 0.0, [0.0], verbose=False)
    assert rows[0].entropy_bits == 0.0
    assert rows[0].l == 4  # four momentum modes in the block
    assert rows[0].dominant.startswith("q=")


def test_momentum_scan_failed_point_gives_error_row():
    rows = momentum_scan(
        8, 3 * np.pi / 8, -2.0, [-0.5, 0.0], solver=SolverOptions(max_iter=2), verbose=False
    )
    assert [r.V for r in rows] == [-0.5, 0.0]
    for r in rows:
        assert np.isnan(r.entropy_bits)
        assert r.dominant.startswith("error:")


def test_momentum_scan_fermi_shell_minimum_matches_real_space_feature():
    # the +-3pi/8 shell sits at the half-filled Fermi surface of the
    # 8-site twisted ring; its entanglement dip lines up with the
    # real-space derivative extremum near V = -0.2
    vs = [round(-0.45 + 0.05 * i, 10) for i in range(11)]
    rows = momentum_scan(8, 3 * np.pi / 8, -2.0, vs, verbose=False)
    entropies = [r.entropy_bits for r in rows]
    assert vs[int(np.argmin(entropies))] == pytest.approx(-0.2)


def test_csv_round_trip_and_formatting():
    row = SweepRow(L=8, l=3, U=-2.0, V=0.123456789012345, bc="antiperiodic",
                   energy=-8.987654321098765, gap=0.25, entropy_bits=1.5,
                   degenerate=False, dominant="other")
    text = rows_to_csv([row])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "8" and cells[1] == "3"
    assert cells[3] == "0.123456789012"  # 12 significant digits
    assert cells[5] == "-8.9876543211"
    assert cells[8] == "0"


def test_matrix_table_layout():
    rows = [
        SweepRow(L=4, l=2, U=u, V=v, bc="antiperiodic", energy=0.0, gap=1.0,
                 entropy_bits=u + 10 * v, degenerate=False, dominant="-")
        for u in (0.0, 1.0) for v in (0.0, 0.5)
    ]
    text = rows_to_matrix(rows, (0.0, 1.0), (0.0, 0.5))
    lines = text.strip().split("\n")
    assert lines[0] == ",0,0.5"
    assert lines[1] == "0,0,5"
    assert lines[2] == "1,1,6"


def test_gnuplot_script_mentions_data_file():
    assert "fig.csv" in gnuplot_script("fig.csv", "csv")
    assert "matrix" in gnuplot_script("fig.mat", "matrix")


def test_each_point_record_is_one_write(monkeypatch):
    class Recording:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

        def flush(self):
            pass

    stream = Recording()
    monkeypatch.setattr(sys, "stderr", stream)
    spec = SweepSpec(L=4, block_sizes=(1,), u_values=(0.0, 1.0), v_values=(0.0, 0.5), workers=2)
    run_grid(spec, verbose=True)
    assert len(stream.writes) == 4
    for text in stream.writes:
        assert text.startswith("[point] ") and text.endswith("\n") and text.count("\n") == 1
