"""One benchmark process: set up one workload and, in run mode, measure it.

Started by run.py, once per set-up sample and once for the measured run, so
each workload's peak memory and import cost belong to its own process.
Prints one JSON object as its last line of standard output.

Phases of a run-mode process:
  set-up   import pairlab, make the workload's inputs, one warm-up operation
  timed    whole cycles, tracing off, for about --seconds; with --trace 1,
           the workload's first `trace_cycles` cycles instead
  traced   (--trace 1) the same cycles again with every layer wrapped;
           input generation in set-up is traced as well
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()


def _import_pairlab(root: Path):
    sys.path.insert(0, str(root / "src"))
    import pairlab

    where = Path(pairlab.__file__).resolve()
    if root / "src" not in where.parents:
        raise SystemExit(f"pairlab imported from {where}, not from {root / 'src'}")
    return pairlab


def seed_eigensolver(seed: int) -> None:
    """Seed ARPACK's start vectors from the workload seed.

    `scipy.sparse.linalg.eigsh` draws its start vector from operating-system
    entropy unless it is given `rng` or `v0`, and whether it finds every
    repeated ~0 eigenvalue depends on that vector.  So every call that
    passes neither gets a generator seeded from (seed, n, k): the same seed
    gives the same start vectors, whatever the order of the calls.  Installed
    before pairlab is imported, so a name imported from scipy is covered too.
    """
    import numpy as np
    import scipy.sparse.linalg

    original = scipy.sparse.linalg.eigsh

    def eigsh(A, k=6, *args, **kwargs):
        if kwargs.get("v0") is None and kwargs.get("rng") is None:
            kwargs["rng"] = np.random.default_rng([seed, A.shape[0], k])
        return original(A, k, *args, **kwargs)

    eigsh.__wrapped__ = original
    scipy.sparse.linalg.eigsh = eigsh


def _blas_threads() -> list:
    """Thread count of each OpenBLAS library mapped into this process."""
    import ctypes

    libs = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    libs.add(path)
    except OSError:
        return []
    out = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out.append({"library": os.path.basename(path), "threads": int(fn())})
                break
    return out


def machine_block() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    for lib, config in (("numpy", numpy.show_config(mode="dicts")),
                        ("scipy", scipy.show_config(mode="dicts"))):
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas[lib] = {"name": info.get("name"), "version": info.get("version")}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ram_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2 ** 20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "settings_changed": "none: default BLAS threads, no CPU pinning, "
                            "no cache dropping, no frequency or memory settings",
    }


def _run_cycles(workload, inputs, ledger, *, seconds=None, cycles=None):
    """`cycles` whole cycles, or at least `workload.min_cycles` whole cycles
    for about `seconds`: stop when another cycle of average length would
    overshoot by more than stopping now undershoots.  Returns (per-cycle
    passed ops per second, wall)."""
    rates = []
    t0 = time.perf_counter()
    while True:
        passed0, c0 = ledger.attempted - ledger.failed, time.perf_counter()
        workload.run_cycle(inputs, len(rates), ledger)
        now = time.perf_counter()
        rates.append((ledger.attempted - ledger.failed - passed0) / (now - c0))
        wall = now - t0
        if cycles is not None:
            if len(rates) >= cycles:
                return rates, wall
        elif len(rates) >= workload.min_cycles and wall + wall / len(rates) / 2 >= seconds:
            return rates, wall


def _per_layer(tracer, ledger, timed, overhead_frac: float) -> dict:
    values = {}
    for name, s in tracer.stats.items():
        values[f"{name}.calls"] = s.calls
        values[f"{name}.self_s"] = s.self_s
        values[f"{name}.failed"] = s.failed
    trains = tracer.stats["objective.train"].calls
    values["objective.evals_per_train"] = (
        tracer.stats["objective.loss_gradient"].calls / trains if trains else 0.0)
    cells = tracer.edges.get(("septest.estimate_br", "objective.train"), 0)
    values["septest.cells_ok_frac"] = ledger.counters.get("septest.cells_ok", 0) / cells if cells else 0.0
    values["spectral.eigendecompose.zero_deficit"] = ledger.counters.get(
        "spectral.eigendecompose.zero_deficit", 0)
    values["trace.overhead_frac"] = overhead_frac
    values["ops_failed_frac"] = timed.failed / timed.attempted
    return values


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = args.root.resolve()

    seed_eigensolver(args.seed)
    pairlab = _import_pairlab(root)
    import checks
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    traced = checks.Ledger(pairlab.PairLabError)
    if args.trace:
        tracer = tracing.Tracer(pairlab.PairLabError)
        modules = tracing.pairlab_modules()
        targets = tracing.span_targets()
        hooks = {"septest.estimate_br": lambda out: traced.add(
            "septest.cells_ok", sum(c.whiten_ok for c in out[1].cells))}
        tracer.install(targets, modules, hooks)
        try:
            inputs = workload.make_inputs(args.seed)
        finally:
            tracer.uninstall()
    else:
        inputs = workload.make_inputs(args.seed)
    warm = checks.Ledger(pairlab.PairLabError)
    workload.warm_up(inputs, warm)
    result = {"setup_s": time.perf_counter() - T_START}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    # with --trace 1 both passes run the same fixed work, so call counts
    # repeat exactly for a seed and the overhead compares like with like
    timed = checks.Ledger(pairlab.PairLabError)
    if args.trace:
        rates, wall = _run_cycles(workload, inputs, timed, cycles=workload.trace_cycles)
    else:
        rates, wall = _run_cycles(workload, inputs, timed, seconds=args.seconds)
    passed = timed.attempted - timed.failed
    result.update({
        "cycles": len(rates),
        "timed_s": wall,
        "attempted": timed.attempted,
        "failed": timed.failed,
        # the median over cycles keeps short bursts of machine noise out
        "ops_per_s": statistics.median(rates),
        "ops_per_s_whole_phase": passed / wall,
        "correct": timed.unexpected == 0 and warm.unexpected == 0,
        "failures": warm.failures() + timed.failures(),
        "seconds_by_op": timed.seconds,
    })
    if args.trace:
        tracer.install(targets, modules, hooks)
        try:
            t_rates, t_wall = _run_cycles(workload, inputs, traced, cycles=workload.trace_cycles)
        finally:
            tracer.uninstall()
        overhead = t_wall / wall - 1.0
        result["per_layer"] = _per_layer(tracer, traced, timed, overhead)
        result["traced"] = {
            "cycles": len(t_rates), "wall_s": t_wall,
            "attempted": traced.attempted, "failed": traced.failed,
            "failures": traced.failures(),
            "calls": {f"{a or '<benchmark>'} -> {b}": n
                      for (a, b), n in sorted(tracer.edges.items())},
        }
        result["correct"] = result["correct"] and traced.unexpected == 0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine_block()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
