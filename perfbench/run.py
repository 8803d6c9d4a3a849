"""dpcalib benchmark: one command, closed-loop workloads.

    python3 perfbench/run.py --workload grid-linear --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; dpcalib is imported from its `src`.
Prints every metric by name with its unit, the run's provenance as a
JSON line, and as the last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports
the end-to-end metrics; `--trace 1` wraps dpcalib's layers (see
tracer.py) and reports the per-layer metrics and the tracing overhead.
See NOTES.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One thread for BLAS and OpenMP.  And freed memory stays in glibc's heap
# instead of going back to the kernel: on a 2-vCPU VM the page faults of
# fresh allocations took up to half of an audit's time, and their cost
# moved by a third between runs (see NOTES.md).  glibc reads its settings
# when the process starts, so the benchmark restarts itself with them.
PROCESS_ENV = {
    **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"), "1"),
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),  # glibc's largest
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}
if any(os.environ.get(k) != v for k, v in PROCESS_ENV.items()):
    os.environ.update(PROCESS_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 5
# Times are reported at reference speed: each unit's times are scaled by
# REF_NOMINAL_S over the reference kernel's recent time (see NOTES.md).
# REF_NOMINAL_S is a round figure near the kernel's time on a 2-vCPU
# x86-64 VM with Python 3.11 and numpy 2.4.
REF_ITERATIONS = 400
REF_ARRAY_PASSES = 3
REF_NOMINAL_S = 0.004
REF_WINDOW = 5
SETUP_REF_CALLS = 15
TIME_CAP_S = 140.0  # stop starting units past this, so the run ends well within 180 s
STATE_DIR = HERE / ".state"
WORK_DIR = HERE / ".work"


def scratch_dir():
    """A temporary directory inside the checkout, removed on exit."""
    WORK_DIR.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK_DIR)


def import_dpcalib():
    """Import dpcalib from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dpcalib" / "__init__.py").is_file():
        raise SystemExit(f"error: no dpcalib sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import dpcalib

    if Path(dpcalib.__file__).resolve().parent != (src / "dpcalib").resolve():
        raise SystemExit(f"error: imported dpcalib from {dpcalib.__file__}, not {src}")
    return dpcalib


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Import dpcalib, build the inputs, run one warm-up operation.

    Returns the seconds taken, raw and at reference speed (the reference
    kernel runs after set-up, so that set-up still imports numpy).
    """
    start = time.perf_counter()
    import_dpcalib()
    import workloads

    with scratch_dir() as tmp:
        workloads.WORKLOADS[workload](seed, Path(tmp)).warm_up()
        elapsed = time.perf_counter() - start
    kernel = ReferenceKernel()
    kernel()  # the first call in a fresh interpreter is slower
    ref = statistics.median(kernel() for _ in range(SETUP_REF_CALLS))
    return elapsed, elapsed * REF_NOMINAL_S / ref


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up times (raw, at reference speed), each in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return times


def tail(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(0, math.floor(100 * (n - 10) / n)) if n else 0


def percentile(values, pct):
    import numpy as np

    return float(np.percentile(values, pct)) if values else 0.0


def by_group(samples) -> dict[str, list[float]]:
    groups: dict[str, list[float]] = {}
    for group, value in samples:
        groups.setdefault(group, []).append(value)
    return groups


def group_percentile(samples, pct):
    """Geometric mean over groups (cells, mechanisms) of each group's
    percentile.

    Cells and mechanisms differ in cost by up to 100x (a Laplace release
    against a 3-term compound one; a 9,000-point audit grid against a
    130,000-point one).  A percentile of their pooled samples sits on the
    edge between two clusters and jumps with small speed changes; a
    geometric mean of per-group percentiles does not.
    """
    groups = by_group(samples)
    if not groups:
        return 0.0
    return math.exp(statistics.fmean(math.log(percentile(v, pct)) for v in groups.values()))


class ReferenceKernel:
    """A fixed mix of scalar numpy calls in a Python loop and passes over a
    100,000-point array, the two kinds of work dpcalib does (optimizer
    steps; density grids and batches).  Calling it returns its seconds.

    It does not touch dpcalib, so no change to the package moves it; it
    moves only with the speed the machine gives this process.  Its arrays
    are allocated once and touched before the clock starts, so that page
    faults and cache misses, which depend on what the workload left in
    memory, stay out of its time.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.array([0.3, 0.7])
        self.grid = np.linspace(0.0, 10.0, 100_000)
        self.buf = np.empty_like(self.grid)

    def __call__(self) -> float:
        np, x, grid, buf = self.np, self.x, self.grid, self.buf
        # touch the arrays first, untimed, so that what the last unit left
        # in the cache does not enter the kernel's time
        np.multiply(grid, -1.0, out=buf)
        total = 0.0
        start = time.perf_counter()
        for i in range(REF_ITERATIONS):
            total += float(np.exp(-x * (i % 7 + 1)).sum()) + math.log1p(i)
        for j in range(REF_ARRAY_PASSES):
            np.multiply(grid, -(j + 1.0), out=buf)
            np.exp(buf, out=buf)
            buf += 1.0
            np.log(buf, out=buf)
            total += float(buf.sum())
        return time.perf_counter() - start


class Loop:
    """Closed loop over a workload's units: one client, next unit after the
    previous one completes.  The reference kernel runs between units."""

    def __init__(self, wl, rec):
        self.wl, self.rec = wl, rec
        self.counts: dict[int, int] = {}
        self.core_done: set[int] = set()
        self.kernel = ReferenceKernel()
        self.refs = [self.kernel()]

    def run(self, indices) -> float:
        """Run the given units; return their summed time at reference speed."""
        busy = 0.0
        for i in indices:
            index = i % len(self.wl.units)
            occurrence = self.counts.get(index, 0)
            self.counts[index] = occurrence + 1
            first = occurrence == 0 and index < self.wl.core
            start = time.perf_counter()
            self.wl.run(index, occurrence, self.rec, core=first)
            elapsed = time.perf_counter() - start
            self.refs.append(self.kernel())
            # the median of the latest kernel times follows the machine's
            # speed drift over seconds, not the kernel's own jitter
            factor = REF_NOMINAL_S / statistics.median(self.refs[-REF_WINDOW:])
            self.rec.mark(self.wl.group(index), factor)
            busy += elapsed * factor
            if first:
                self.core_done.add(index)
        return busy


def measure(wl, rec, seconds: float, trace: bool):
    """Run whole cycles of the unit list, at least one, until another
    would end farther from `seconds` than stopping does.  So every run
    times the same units, and the failed share of its operations depends
    only on the seed.

    Traced, it runs whole passes over the core, untraced and traced in
    turn, until `seconds` pass.  The per-layer metrics
    come from the first traced pass, a fixed set of units, so their counts
    and totals do not grow with the units a run has time for.  Every pair
    adds to the tracing overhead.
    """
    start = time.perf_counter()
    elapsed = lambda: time.perf_counter() - start  # noqa: E731
    loop = Loop(wl, rec)
    tracer = overhead = None
    if trace:
        import tracer as tracer_mod

        core = range(wl.core)
        plain = traced = 0.0
        while tracer is None or (elapsed() < seconds and elapsed() < TIME_CAP_S):
            plain += loop.run(core)
            pass_tracer = tracer_mod.Tracer()
            pass_tracer.install()
            try:
                traced += loop.run(core)
            finally:
                pass_tracer.uninstall()
            tracer = tracer or pass_tracer
        overhead = traced / plain - 1.0
    else:
        # whole cycles, as many as end nearest to `seconds`, so that every
        # run of a seed attempts the same operations in the same shares
        cycles = 0
        while elapsed() < TIME_CAP_S and (cycles == 0
                                          or elapsed() * (1 + 0.5 / cycles) < seconds):
            for i in range(len(wl.units)):
                if elapsed() >= TIME_CAP_S:
                    break
                loop.run([i])
            cycles += 1
    return tracer, overhead, len(loop.core_done) == wl.core, elapsed(), loop.refs


def end_to_end(rec, cycle, setup_times, scaled=True):
    gmean = lambda logs: math.exp(statistics.fmean(logs)) if logs else 1.0  # noqa: E731
    cells, cell_s, release_s, unit_releases, audit_s, draws, draw_s = rec.timings(cycle,
                                                                                  scaled)
    cell_times = [t for _, t in cell_s]
    release_times = [t for _, t in release_s]
    cell_n = len(cell_times)
    cell_pct = tail(cell_n)
    # a tail per unit, then the geometric mean over units: about 1% of
    # releases are slow, so one unit's p99 falls either side of that edge,
    # and a mean over units, unlike a median, averages the two sides
    rel_n = min((len(v) for _, v in unit_releases), default=0)
    rel_pct = min(tail(rel_n), 99)
    unit_tails = [math.log(percentile(v, rel_pct)) for _, v in unit_releases]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "cells_per_s": (cells / sum(cell_times) if cell_times else 0.0, "1/s"),
        "cell_ms_p50": (group_percentile(cell_s, 50) * 1e3, "ms"),
        "cell_ms_tail": (percentile(cell_times, cell_pct) * 1e3, "ms"),
        "utility_vs_laplace": (gmean(rec.vs_laplace), "ratio"),
        "utility_vs_staircase": (gmean(rec.vs_staircase), "ratio"),
        "releases_per_s": (len(release_times) / sum(release_times) if release_times
                           else 0.0, "1/s"),
        "release_us_p50": (group_percentile(release_s, 50) * 1e6, "us"),
        "release_us_p99": (math.exp(statistics.fmean(unit_tails)) * 1e6 if unit_tails
                           else 0.0, "us"),
        "draws_per_s": (draws / draw_s if draw_s else 0.0, "1/s"),
        "audit_ms_p50": (group_percentile(audit_s, 50) * 1e3, "ms"),
        "ok_rate": ((rec.attempted - rec.failed) / rec.attempted if rec.attempted else 0.0,
                    "ratio"),
    }
    tails = {"cell_ms_tail": {"percentile": cell_pct, "n": cell_n},
             "release_us_p99": {"percentile": rel_pct, "n_per_unit": rel_n,
                                "units": len(unit_tails)}}
    return metrics, tails


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def code_digest() -> str:
    """sha256 of what a cell's CSV depends on: dpcalib's sources, this
    benchmark's workloads, and the numpy and scipy versions."""
    import hashlib

    import numpy
    import scipy

    h = hashlib.sha256(f"numpy {numpy.__version__} scipy {scipy.__version__}".encode())
    for path in [*sorted((ROOT / "src" / "dpcalib").rglob("*.py")), HERE / "workloads.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_determinism(wl, rec, seed) -> str:
    """Compare the core cells' CSV digest with earlier runs of this seed on
    the same code; runs of other code are not compared."""
    import hashlib

    core = "".join(rec.csv_sha.get(i, "missing") for i in range(wl.core))
    digest = hashlib.sha256(core.encode()).hexdigest()
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"{wl.name}-csv-sha256.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    previous = known.setdefault(f"{code_digest()}:{seed}", digest)
    rec.op(None if previous == digest else "CSV differs between runs of the same cell")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-linear", "release-audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    dpcalib = import_dpcalib()
    setup_times = measure_setup(args.workload, args.seed)
    import numpy
    import scipy
    import workloads

    with scratch_dir() as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        wl.warm_up()
        rec = workloads.Recorder(audit_min_s=0.0) if args.trace else workloads.Recorder()
        tracer, overhead, core_complete, wall, refs = measure(wl, rec, args.seconds,
                                                              bool(args.trace))
    digest = None
    if wl.name == "grid-linear" and core_complete:
        digest = check_determinism(wl, rec, args.seed)

    cycle = len(wl.units)
    e2e, tails = end_to_end(rec, cycle, [t for _, t in setup_times])
    raw, _ = end_to_end(rec, cycle, [t for t, _ in setup_times], scaled=False)
    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_share"] = (overhead, "ratio")
    else:
        metrics = e2e
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": wall, "nproc": os.cpu_count(), "env": PROCESS_ENV,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "dpcalib": dpcalib.__version__,
        "git_commit": git_commit(), "tails": tails,
        "reference_s": {"nominal": REF_NOMINAL_S, "median": statistics.median(refs),
                        "min": min(refs), "max": max(refs)},
        "unscaled_metrics": {name: value for name, (value, _) in raw.items()},
        "setup_samples_s": [{"raw": r, "scaled": t} for r, t in setup_times],
        "units_run": len(rec.marks), "units_timed": tails["cell_ms_tail"]["n"],
        "core_units": wl.core,
        "core_complete": core_complete, "error_rate": rec.failed / max(rec.attempted, 1),
        "failures": dict(rec.failures), "unexpected_failures": rec.unexpected,
        "csv_sha256": digest, "tracing_overhead_share": overhead,
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(f"{'error_rate (failed / attempted)':48s} {provenance['error_rate']:>16.6g} ratio")
    if rec.failures:
        print("failures: " + "; ".join(f"{k} x{v}" for k, v in rec.failures.items())
              + f" ({rec.unexpected} not named as a known defect)")
    print(json.dumps({"provenance": provenance}))
    correct = core_complete and rec.unexpected == 0
    print(json.dumps({
        "correct": correct, "attempted": rec.attempted, "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
