"""Fast self-test of the benchmark at L = 6, where every sector solve is dense.

    python3 perfbench/selftest.py

Exercises each workload's input generator, its timed pass, its output
check (including that a wrong energy or entropy is caught), the per-layer metrics
of a traced pass, the span self-time arithmetic, and the refusal to run
outside a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from spans import Recorder, Span, instrument, self_times  # noqa: E402
from workloads import WORKLOADS, MomentumScan, PhaseGrid, Scaling  # noqa: E402

# the benchmark's workloads, shrunk to L = 6
TINY = {
    "phase-L8": lambda seed: PhaseGrid(seed, L=6, l=2, n_u=3, n_v=2),
    "phase-L8-w2": lambda seed: PhaseGrid(seed, L=6, l=2, n_u=3, n_v=2, workers=2),
    "scaling-L12": lambda seed: Scaling(seed, L=6),
    "momentum-L10": lambda seed: MomentumScan(seed, L=6, n_v=3),
}
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def traced_run(workload):
    """Set-up, one untraced and one traced pass, as run.main makes them."""
    recorder = Recorder()
    with instrument(recorder), recorder.root("setup"):
        workload.setup()
    n_setup = len(recorder.spans)
    plain = run.timed_passes(workload, Recorder(), 0.0, layers=False)
    traced = run.timed_passes(workload, recorder, 0.0, layers=True)
    return recorder, n_setup, plain, traced


class WorkloadTest(unittest.TestCase):
    def test_tiny_table_covers_every_workload(self):
        self.assertEqual(set(TINY), set(WORKLOADS))
        self.assertEqual(set(TINY), {w["name"] for w in CONFIG["workloads"]})

    def test_generators_are_seeded(self):
        for name, make in {**TINY, **WORKLOADS}.items():
            with self.subTest(name):
                self.assertEqual(make(7).points, make(7).points)
                self.assertTrue(make(7).points)

    def test_generated_couplings_stay_in_their_windows(self):
        for seed in range(20):
            grid = WORKLOADS["phase-L8"](seed)
            self.assertEqual(len(grid.points), 220)
            self.assertTrue(all(-4 <= u <= 4 and -2 <= v <= 2 for u, v in grid.points))
            (u1, v1), (u2, v2) = WORKLOADS["scaling-L12"](seed).points
            self.assertTrue(-2.2 <= u1 <= -1.8 and -1.1 <= v1 <= -0.9)
            self.assertTrue(3.5 <= u2 <= 4.5 and -0.2 <= v2 <= 0.2)
            scan = WORKLOADS["momentum-L10"](seed)
            self.assertTrue(-2.05 <= scan.U <= -1.95 and 0 < scan.k < 3.14159)
            self.assertEqual((scan.v_values[0], scan.v_values[-1]), (-1.0, 0.35))

    def test_passes_check_clean_and_a_wrong_energy_or_entropy_fails(self):
        for name, make in TINY.items():
            with self.subTest(name):
                workload = make(3)
                workload.setup()
                passes = run.timed_passes(workload, Recorder(), 0.0, layers=False)
                passes += run.timed_passes(workload, Recorder(), 0.0, layers=False)
                attempted, failed = run.check_passes(workload, passes)
                self.assertEqual((attempted, failed), (2 * len(workload.points), 0))
                self.assertEqual([len(p.point_times) for p in passes], [len(workload.points)] * 2)
                rows = passes[-1].rows[workload.points[0]]
                good = rows[0]
                for wrong in (replace(good, energy=good.energy + 1e-6),
                              replace(good, entropy_bits=good.entropy_bits + 1e-6)):
                    rows[0] = wrong
                    self.assertEqual(run.check_passes(workload, passes), (attempted, 1))

    def test_free_fermion_point_is_checked(self):
        # the full-window sub-grid holds U = V = 0 when the seeded U offset is 0
        grids = (PhaseGrid(seed, L=6, l=2, n_u=21, n_v=11) for seed in range(100))
        grid = next(g for g in grids if (0.0, 0.0) in g.points)
        ref = grid.reference()[(0.0, 0.0)]
        self.assertAlmostEqual(ref["free_fermion"], ref["energy"], delta=1e-8)

    def test_raising_scan_counts_points_as_failed(self):
        scan = TINY["momentum-L10"](1)
        scan.setup()
        import ehub.sweep

        original = ehub.sweep.momentum_scan

        def broken(*args, **kwargs):
            raise RuntimeError("solver gave up")

        ehub.sweep.momentum_scan = broken
        try:
            passes = run.timed_passes(scan, Recorder(), 0.0, layers=False)
        finally:
            ehub.sweep.momentum_scan = original
        self.assertEqual(run.check_passes(scan, passes), (len(scan.points), len(scan.points)))


class TraceTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [Span(1, "root", None, None, 0.0, 10.0),
                 Span(2, "a", 1, None, 1.0, 4.0),
                 Span(3, "b", 1, None, 3.0, 6.0),
                 Span(4, "c", 2, None, 1.5, 2.0)]
        self.assertEqual(self_times(spans), {1: 5.0, 2: 2.5, 3: 3.0, 4: 0.5})

    def test_wrappers_are_removed_after_the_run(self):
        import ehub.eigen
        import ehub.sweep

        before = (ehub.sweep.run_point, ehub.eigen.lanczos_ground)
        with instrument(Recorder()):
            self.assertNotEqual(before, (ehub.sweep.run_point, ehub.eigen.lanczos_ground))
        self.assertEqual(before, (ehub.sweep.run_point, ehub.eigen.lanczos_ground))

    def test_traced_pass_reports_every_layer_metric(self):
        units = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
        for name, make in TINY.items():
            with self.subTest(name):
                workload = make(5)
                recorder, n_setup, plain, traced = traced_run(workload)
                metrics = run.layer_metrics(recorder.spans, n_setup, traced, plain,
                                            workload.workers)
                self.assertEqual({k: u for k, (_, u) in metrics.items()}, units)
                self.assertEqual(metrics["rdm.calls"][0],
                                 sum(len(rows) for rows in traced[0].rows.values()))
                self.assertGreater(metrics["eigen.solve_s"][0], 0)
                terms = "momentum" if name.startswith("momentum") else "hamiltonian"
                self.assertGreater(metrics[f"{terms}.terms_s"][0], 0)
                self.assertGreater(metrics[f"{terms}.nnz"][0], 0)
                self.assertEqual(run.check_passes(workload, plain + traced)[1], 0)

    def test_block_entropy_matches_the_library_on_a_non_prefix_block(self):
        import numpy as np
        from ehub.fock import BlockSpec, Sector, enumerate_sector
        from ehub.rdm import reduced_density_matrix, von_neumann_entropy
        from workloads import block_entropy

        basis = enumerate_sector(Sector.half_filled(6))
        rng = np.random.default_rng(0)
        amps = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        amps /= np.linalg.norm(amps)
        for modes in ((0, 1, 2, 3), (1, 4, 7, 10), (2, 3, 8, 9)):
            lib = von_neumann_entropy(reduced_density_matrix(amps, basis, BlockSpec(modes)))
            self.assertAlmostEqual(block_entropy(amps, basis.configs, modes, 12), lib, delta=1e-10)

    def test_momentum_scan_spans_of_one_v_share_its_point(self):
        workload = TINY["momentum-L10"](2)
        recorder, n_setup, _, _ = traced_run(workload)
        spans = recorder.spans[n_setup:]
        per_point: dict = {}
        for s in spans:
            if s.name.startswith(("eigen.", "rdm.", "momentum.assemble")):
                self.assertIsNotNone(s.point, s.name)
                per_point.setdefault(s.point, []).append(s)
        self.assertEqual(len(per_point), len(workload.points))
        for group in per_point.values():
            names = [s.name for s in group]
            self.assertEqual((names.count("eigen.ground_state"), names.count("rdm.trace"),
                              names.count("rdm.entropy")), (1, 1, 1))
            solve = next(s for s in group if s.name == "eigen.ground_state")
            self.assertTrue(all(s.start >= solve.start for s in group))

    def test_points_share_an_id_and_self_times_account_for_run_point(self):
        recorder, n_setup, _, _ = traced_run(TINY["phase-L8"](2))
        spans = recorder.spans[n_setup:]
        selfs = self_times(recorder.spans)
        by_id = {s.id: s for s in spans}
        for s in spans:
            if s.name == "sweep.run_point":
                inner = [c for c in spans if c.point == s.point]
                # a point's own spans tile its run_point span exactly
                self.assertAlmostEqual(sum(selfs[c.id] for c in inner), s.duration, places=9)
            elif s.name != "pass":
                self.assertEqual(s.point, by_id[s.parent].point)

    def test_end_to_end_metrics_match_the_benchmark_file(self):
        workload = TINY["scaling-L12"](1)
        workload.setup()
        passes = run.timed_passes(workload, Recorder(), 0.0, layers=False)
        attempted, failed = run.check_passes(workload, passes)
        metrics = run.end_to_end_metrics(passes, [0.5, 0.4, 0.6], 100.0, attempted, failed)
        units = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, units)
        self.assertEqual(metrics["setup_s"][0], 0.5)


class CommandTest(unittest.TestCase):
    def test_refuses_to_run_without_the_library(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "phase-L8", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
