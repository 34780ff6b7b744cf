"""Run one workload of the ehub benchmark and print its metrics.

    python3 perfbench/run.py --workload phase-L8 --seed 1 --seconds 12 --trace 0

Workloads: phase-L8, phase-L8-w2, scaling-L12, momentum-L10 (see
workloads.py and BENCHMARK.json).  ``python3 perfbench/selftest.py``
checks the benchmark itself at L = 6 in a few seconds.

Run from the root of a checkout: the library is imported from ``src/``.
The workload's points are solved in passes until ``--seconds`` have
been spent (at least one pass).  Outputs are checked afterwards,
outside the timed region.  Untraced (``--trace 0``) the end-to-end
metrics are reported; traced (``--trace 1``) the run makes untraced
passes, then the same number of seconds of traced passes, and reports
per-layer metrics.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the line before it
records the environment.  A per-run record, and in a traced run the
spans, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import Recorder, instrument, maxrss_mb, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3  # cold set-ups, the library's caches emptied before each


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cpu_steal_s() -> float | None:
    """Time the hypervisor gave this machine's CPUs to other guests, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment() -> dict:
    """Where the numbers came from; the BLAS thread setting is recorded as found."""
    import numpy
    import scipy

    def git_commit():
        # the ceiling keeps git from answering for a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
                for line in f:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    def caches():
        out = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            try:
                level, kind, size = ((index / f).read_text().strip()
                                     for f in ("level", "type", "size"))
            except OSError:
                continue
            out[f"L{level}_{kind.lower()}"] = size
        return out or None

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (AttributeError, KeyError, TypeError):  # build-info layout varies by release
            return None

    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def clear_library_caches() -> None:
    """Empty the memoizing caches of the ehub modules, so the next set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "ehub" or name.startswith("ehub."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def timed_passes(workload, recorder, seconds: float, layers: bool) -> list:
    passes = []
    with instrument(recorder, layers=layers):
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(workload.run_pass(recorder))
    return passes


def check_passes(workload, passes) -> tuple[int, int]:
    """Check every pass against the reference and the first pass's CSV.

    Returns (attempted, failed) and sets ``ok`` on each pass.  A point
    fails when it raised, returned an error row, missed the reference,
    or printed differently from an earlier pass.
    """
    from ehub.sweep import rows_to_csv

    ref = workload.reference()
    seen: dict = {}
    attempted = failed = 0
    for res in passes:
        res.ok = 0
        for p in workload.points:
            attempted += 1
            rows = res.rows.get(p)
            ok = p not in res.raised and rows is not None and workload.check(rows, ref[p])
            if ok:
                csv = rows_to_csv(rows)
                ok = seen.setdefault(p, csv) == csv
            res.ok += ok
            failed += not ok
    return attempted, failed


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end_metrics(passes, setup_samples, peak_mb, attempted, failed) -> dict:
    # a pass that raised before its first point has no point times
    times = [t for res in passes for t in res.point_times] or [res.wall for res in passes]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(res.wall for res in passes), "s"),
        "points_per_s": (statistics.median(res.ok / res.wall for res in passes), "1/s"),
        "point_p50_s": (statistics.median(times), "s"),
        "point_p90_s": (p90(times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }


def layer_metrics(spans, n_setup: int, traced, plain, workers: int) -> dict:
    """Per-layer numbers: set-up spans plus the mean over traced passes."""
    selfs = self_times(spans)
    setup, in_pass = spans[:n_setup], spans[n_setup:]
    n = len(traced)

    def per(names, value=lambda s: s.duration):
        names = (names,) if isinstance(names, str) else names
        return (sum(value(s) for s in setup if s.name in names)
                + sum(value(s) for s in in_pass if s.name in names) / n)

    def own(s):
        return selfs[s.id]

    def largest(name, attr):
        return max((s.attrs[attr] for s in spans if s.name == name), default=0)

    def count(s):
        return 1

    def attr(key):
        return lambda s: s.attrs[key]

    matvecs = Counter(s.parent for s in spans if s.name == "eigen.matvec")

    def matvec_gb(s):
        return matvecs[s.id] * s.attrs["matvec_bytes"] / 1e9

    error_rows = sum(r.dominant.startswith("error:") for res in traced
                     for rows in res.rows.values() for r in rows) / n
    busy = statistics.median(sum(res.point_times) / (workers * res.wall) for res in traced)
    overhead = (statistics.median(res.wall for res in traced)
                / statistics.median(res.wall for res in plain) - 1.0)
    return {
        "fock.enumerate_s": (per("fock.enumerate"), "s"),
        "hamiltonian.terms_s": (per("hamiltonian.terms", own), "s"),
        "momentum.terms_s": (per("momentum.terms", own), "s"),
        "momentum.terms_rss_mb": (largest("momentum.terms", "maxrss_growth_mb"), "MB"),
        "hamiltonian.assemble_s": (per("hamiltonian.assemble", own), "s"),
        "hamiltonian.nnz": (largest("hamiltonian.assemble", "nnz"), "count"),
        "momentum.assemble_s": (per("momentum.assemble", own), "s"),
        "momentum.nnz": (largest("momentum.assemble", "nnz"), "count"),
        "eigen.solve_s": (per("eigen.solve"), "s"),
        "eigen.iterations": (per("eigen.solve", attr("iterations")), "count"),
        "eigen.matvec_count": (per("eigen.matvec", count), "count"),
        "eigen.matvec_s": (per("eigen.matvec"), "s"),
        "eigen.nonmatvec_s": (per("eigen.solve", own), "s"),
        "eigen.degenerate_points": (per("eigen.solve", attr("degenerate")), "count"),
        "eigen.basis_mb_computed": (largest("eigen.solve", "basis_mb"), "MB"),
        "eigen.matvec_gb_computed": (per("eigen.solve", matvec_gb), "GB"),
        "rdm.trace_s": (per("rdm.trace"), "s"),
        "rdm.entropy_s": (per("rdm.entropy"), "s"),
        "rdm.calls": (per("rdm.trace", count), "count"),
        "reference.classify_s": (per("reference.classify"), "s"),
        "sweep.point_self_s": (per(("sweep.run_point", "sweep.momentum_scan"), own), "s"),
        "sweep.busy_frac": (busy, "frac"),
        "sweep.error_rows": (error_rows, "count"),
        "trace.overhead_frac": (overhead, "frac"),
    }


def span_table(spans) -> str:
    selfs = self_times(spans)
    table: dict = {}
    for s in spans:
        row = table.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.duration
        row[2] += selfs[s.id]
    lines = [f"{'span':<24}{'calls':>9}{'total_s':>12}{'self_s':>12}"]
    for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<24}{calls:>9}{total:>12.4f}{own:>12.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ehub" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC / 'ehub'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    steal_before = cpu_steal_s()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports ehub

    import_s = time.perf_counter() - t0
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    recorder = Recorder()

    if args.trace:
        with instrument(recorder), recorder.root("setup"):
            workload.setup()
        n_setup = len(recorder.spans)
        plain = timed_passes(workload, Recorder(), args.seconds, layers=False)
        traced = timed_passes(workload, recorder, args.seconds, layers=True)
        passes = plain + traced
    else:
        # the import is timed once and counted in every sample
        samples = []
        for _ in range(SETUP_SAMPLES):
            clear_library_caches()
            start = time.perf_counter()
            workload.setup()
            samples.append(import_s + time.perf_counter() - start)
        passes = timed_passes(workload, recorder, args.seconds, layers=False)
    peak_mb = maxrss_mb()

    attempted, failed = check_passes(workload, passes)
    if args.trace:
        metrics = layer_metrics(recorder.spans, n_setup, traced, plain, workload.workers)
    else:
        metrics = end_to_end_metrics(passes, samples, peak_mb, attempted, failed)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment()
    steal_after = cpu_steal_s()
    if steal_before is not None and steal_after is not None:
        env["cpu_steal_s_during_run"] = steal_after - steal_before
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "result": result,
        "passes": [{"wall_s": r.wall, "ok": r.ok, "point_times_s": r.point_times}
                   for r in passes],
        "setup_samples_s": None if args.trace else samples,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        recorder.write_jsonl(OUT / f"{stem}.spans.jsonl")
        print(span_table(recorder.spans[n_setup:]), file=sys.stderr)

    n_times = sum(len(r.point_times) for r in passes)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, {attempted} points "
          f"attempted, {failed} failed, {n_times} point times", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
