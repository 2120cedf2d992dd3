"""Solver benchmark: time to solution of fixed workloads through ``irpdg.harness.run``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lax_shock --seed 0 --seconds 20 --trace 0

One client in one process solves the workload back to back (a closed loop)
for ``--seconds``, checks every answer and compares the SHA-256 of every
final field.  ``--trace 0`` reports the end-to-end metrics: each timed solve
of the library runs concurrently with a solve of a frozen copy of the solver
(``reference/irpdg_ref``) on the same workload, both threads on one CPU, and
solve time is reported as the ratio of their thread CPU times.  The two
threads take turns every few milliseconds, so a change of the host's speed
slows both alike and the ratio cancels it.
``--trace 1`` alternates untraced and traced solves and reports the per-layer
metrics, timed by wrapping each layer's functions from outside (see
tracing.py).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

# numpy/BLAS threads per process.  The workloads are too small for threaded
# BLAS to help, and one thread keeps timings steady on a shared machine.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
SETUP_PROBES = 15
MIN_PAIRS = 1  # with the warm-up solve, the determinism check gets a repeat
PROBE_TIMEOUT_S = 60
SPAN_DIR = ".bench_out"
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("lax_shock", "shu_osher_fine", "advection_ms3"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _cache_sizes() -> dict[str, int]:
    """Data/unified cache sizes in bytes by level name, read from sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        def read(field):
            with open(os.path.join(base, entry, field), encoding="ascii") as fh:
                return fh.read().strip()
        try:
            if read("type") == "Instruction":
                continue
            size = read("size")
            level = read("level")
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
        sizes[f"L{level}"] = int(size.rstrip("KM")) * scale
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process (its threads and children too) to one of its CPUs.

    Returns (CPUs available before, the CPU kept).  On one CPU the library
    and reference threads interleave instead of running side by side on CPUs
    whose speeds drift apart.
    """
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    return len(cpus), cpu


def machine_facts(field_bytes: int, nproc: int, cpu: int) -> dict:
    import numpy
    caches = _cache_sizes()
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "switch_interval_s": sys.getswitchinterval(),
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "field_bytes": field_bytes,
        "field_fits_in": [lvl for lvl, size in sorted(caches.items())
                          if field_bytes <= size],
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds of fresh processes: import irpdg plus run()'s preparation."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             str(seed)], capture_output=True, text=True, check=True,
            timeout=PROBE_TIMEOUT_S)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(probe["import_s"] + probe["prepare_s"])
    return times


def balanced_counts(lib_cpu: float, ref_cpu: float) -> tuple[int, int]:
    """Solves per pair (library, reference) whose total CPU times match best.

    Tries 1, 2 and 3 solves of the slower side and takes the fewest that
    the faster side's solves match within 10%, or else the closest.  The
    part of a pair where one side runs alone is what the host's speed can
    still move, so the sides should end together.
    """
    fast, slow = sorted((lib_cpu, ref_cpu))
    best = None
    for n_slow in (1, 2, 3):
        n_fast = max(1, round(n_slow * slow / fast))
        gap = abs(n_fast * fast - n_slow * slow) / (n_slow * slow)
        if best is None or gap < best[0]:
            best = (gap, n_fast, n_slow)
        if gap <= 0.1:
            break
    _, n_fast, n_slow = best
    return (n_fast, n_slow) if lib_cpu <= ref_cpu else (n_slow, n_fast)


def load_reference():
    """Harness module of the frozen solver copy that every solve is timed against."""
    sys.path.insert(0, REFERENCE_DIR)
    import irpdg_ref.harness
    return irpdg_ref.harness


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc, cpu = pin_to_one_cpu()
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "irpdg", "__init__.py")):
        print(f"perfbench: no irpdg sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # numpy reads the thread variables at import, so the library and the
    # modules that import it load only now.
    import irpdg
    if not os.path.abspath(irpdg.__file__).startswith(src + os.sep):
        print(f"perfbench: irpdg imported from {irpdg.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from irpdg.harness import run
    from irpdg.irp_limiter import RegionViolationError

    import tracing
    import workloads

    config = workloads.config_for(args.workload, args.seed)
    facts = machine_facts(workloads.field_bytes(config), nproc, cpu)
    print("machine " + json.dumps(facts))
    print(f"workload {args.workload} seed {args.seed} shift "
          f"{workloads.shift_fraction(args.seed):+.6f} h domain {config.domain}")

    # "cpu" is the calling thread's CPU time, so that it stays the solve's
    # own when another thread shares the CPU.
    def solve(tracer=None) -> dict:
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        try:
            if tracer is None:
                out = run(config)
            else:
                with tracing.traced(tracer):
                    out = run(config)
        except (RegionViolationError, ValueError, ZeroDivisionError) as err:
            return {"wall": time.perf_counter() - wall0,
                    "cpu": time.thread_time() - cpu0, "steps": 0,
                    "records": 0, "sha256": None, "l1": None,
                    "reference_ms": None,
                    "failures": [f"{type(err).__name__}: {err}"]}
        wall, cpu = time.perf_counter() - wall0, time.thread_time() - cpu0
        failures, l1, reference_ms = workloads.check(args.workload, args.seed,
                                                     out)
        return {"wall": wall, "cpu": cpu,
                "steps": len(out.result.diagnostics) - 1,
                "records": len(out.result.diagnostics),
                "sha256": workloads.coeffs_sha256(out), "l1": l1,
                "reference_ms": reference_ms, "failures": failures}

    plain, traced, tracers = [], [], []
    if args.trace:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            plain.append(solve())
            tracers.append(tracing.Tracer())
            traced.append(solve(tracers[-1]))
    else:
        setup = measure_setup(args.workload, args.seed)
        start = time.perf_counter()
        # The warm-up solve runs before the reference is loaded, so the
        # peak RSS is the library's alone.
        plain.append(solve())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reference = load_reference()
        ref_config = workloads.config_for(args.workload, args.seed, reference)
        ref_cpus, ref_hashes, ratios = [], [], []

        def solve_reference() -> float:
            cpu0 = time.thread_time()
            out = reference.run(ref_config)
            cpu = time.thread_time() - cpu0
            ref_hashes.append(workloads.coeffs_sha256(out))
            return cpu

        def repeat(job, times: int) -> list:
            return [job() for _ in range(times)]

        # A pair runs library solves in one thread and reference solves in
        # another, at the same time on the one CPU, so that both see the
        # same host speed.  The solve counts come from the previous pair so
        # that the two sides end together; which side starts first
        # alternates.  No pair starts that would end after --seconds.
        k_lib = k_ref = 1
        pair_s = 0.0
        with ThreadPoolExecutor(max_workers=2) as pool:
            while len(ratios) < MIN_PAIRS \
                    or time.perf_counter() - start + pair_s <= args.seconds:
                pair0 = time.perf_counter()
                sides = [(solve, k_lib), (solve_reference, k_ref)]
                if len(ratios) % 2:
                    sides.reverse()
                futures = {job: pool.submit(repeat, job, k) for job, k in sides}
                lib_solves = futures[solve].result()
                ref_pair = futures[solve_reference].result()
                plain += lib_solves
                ref_cpus += ref_pair
                lib_cpu = statistics.fmean(s["cpu"] for s in lib_solves)
                ref_cpu = statistics.fmean(ref_pair)
                ratios.append(lib_cpu / ref_cpu)
                k_lib, k_ref = balanced_counts(lib_cpu, ref_cpu)
                pair_s = time.perf_counter() - pair0

    solves = plain + traced
    hashes = [s["sha256"] for s in solves if s["sha256"] is not None]
    for s in solves:
        if s["sha256"] is not None and s["sha256"] != hashes[0]:
            s["failures"].append(f"sha256 {s['sha256']} differs from the "
                                 f"first solve's {hashes[0]}")
    for i, s in enumerate(solves):
        kind = "traced" if i >= len(plain) else "plain"
        if not args.trace:
            kind = "paired" if i else "warm-up, alone"
        print(f"solve {i} {kind}: wall {s['wall']:.4f} s cpu {s['cpu']:.4f} s"
              f" steps {s['steps']} density_l1 {s['l1']!r}"
              f" sha256 {s['sha256']} "
              + ("FAIL " + "; ".join(s["failures"]) if s["failures"] else "ok"))
    failed = sum(1 for s in solves if s["failures"])

    alone = plain if args.trace else plain[:1]
    walls = [s["wall"] for s in alone]
    # Too few solves for a percentile above the median with ten samples
    # beyond it, so the spread is shown as the maximum.
    rate = statistics.median(config.n_cells * s["steps"] / s["wall"]
                             for s in alone)
    print(f"solve_s of solves alone: median {statistics.median(walls):.4f} "
          f"max {max(walls):.4f} over {len(walls)}; cell_steps_per_s median "
          f"{rate:.1f}")

    if args.trace:
        metrics = tracing.layer_metrics(tracers, traced, plain)
        os.makedirs(SPAN_DIR, exist_ok=True)
        path = os.path.join(SPAN_DIR,
                            f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracing.write_spans(path, tracers)
        print(f"spans written to {path}")
    else:
        same = sum(h in hashes[:1] for h in ref_hashes)
        print(f"reference solves: cpu median {statistics.median(ref_cpus):.4f}"
              f" max {max(ref_cpus):.4f} over {len(ref_cpus)}; "
              f"{same} of {len(ref_hashes)} final fields equal the library's")
        print(f"solve_time_ratio pairs {[round(r, 4) for r in ratios]}")
        print(f"setup_s samples {[round(t, 4) for t in setup]}")
        metrics = {
            "solve_time_ratio": (statistics.median(ratios), "ratio"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    print(json.dumps({
        "correct": failed == 0, "attempted": len(solves), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
