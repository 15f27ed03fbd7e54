"""One benchmark run: environment record, set-up, timed passes, checks and
the metrics they yield."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import metrics
import spans
import workloads

SETUP_REPEATS = 9
SRC = Path(__file__).resolve().parent.parent / "src"
MIN_PASSES = 2


@dataclass
class Result:
    metrics: dict[str, tuple]   # name -> (value, unit), what BENCHMARK.json lists
    report: dict[str, tuple]    # workload-specific figures, printed by name
    env: dict
    attempted: int
    failures: list[str]
    passes: list[tuple]         # (traced, wall seconds) in the order run
    setup_s: list[float]
    trace: dict                 # traced runs: totals behind the overhead ratio


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = {line.split()[-1] for line in f
                    if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    load = os.getloadavg()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(load),
        "platform": platform.platform(),
    }


def stage_estimate(passes, main_only: bool = False) -> float:
    """Time of one pass with every lap at the fastest the run saw for it.

    Each lap key's fastest time over all passes, times how often the key
    occurs in one pass.  Machine speed on a shared host changes within tens
    of milliseconds (a shared two-CPU box gave 20 to 30 ms for the same ten
    training steps within one second), so the fastest of many short laps of
    equal work, such as optimizer steps, moves far less from run to run than
    the median pass does.
    """
    fastest: dict[str, float] = {}
    for result in passes:
        for key, seconds, main in result.stages:
            if main or not main_only:
                fastest[key] = min(seconds, fastest.get(key, seconds))
    return sum(fastest[key] for key, _, main in passes[0].stages
               if main or not main_only)


def _cold_import_s() -> float:
    """Wall time of a fresh interpreter that imports blockca (numpy with
    it) and exits: the start-up a user of the package waits for."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import blockca.learn, blockca.nn"],
                   env=env, check=True)
    return time.perf_counter() - start


def _prepare_s(workload) -> float:
    start = time.perf_counter()
    workload.prepare()
    return time.perf_counter() - start


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        sizes: workloads.Sizes = workloads.FULL) -> Result:
    env = environment()
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(dir=out_dir)
    try:
        workload = workloads.WORKLOADS[name](seed, sizes, tmp_dir)
        # Set-up: start-up plus building the seeded inputs, each repeated.
        imports = [_cold_import_s() for _ in range(SETUP_REPEATS)]
        prepare = [_prepare_s(workload) for _ in range(SETUP_REPEATS)]
        setup = [i + p for i, p in zip(imports, prepare)]
        workloads.warm_up()
        tracer = spans.Tracer() if trace else None
        checks = workloads.Checks()
        plain, traced, order = [], [], []
        first_digest = None
        while True:
            is_traced = trace and len(plain) > len(traced)
            if is_traced:
                tracer.install()
                try:
                    with tracer.span(spans.ROOT_SPAN):
                        result = workload.run_pass()
                finally:
                    tracer.uninstall()
                traced.append(result)
            else:
                result = workload.run_pass()
                plain.append(result)
            workload.check(result, checks, first=first_digest is None)
            if first_digest is None:
                first_digest = result.digest
            else:
                checks.check("pass reproduces the first pass byte for byte",
                             result.digest == first_digest)
            result.outputs = None
            order.append((is_traced, result.wall_s))
            done = plain + traced
            measured = sum(r.wall_s for r in done)
            typical = statistics.median(r.wall_s for r in done)
            if len(done) >= MIN_PASSES and measured + typical > seconds:
                break
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    fail_ratio = len(checks.failures) / checks.attempted
    wall = statistics.median(r.wall_s for r in plain)
    report = {key: (statistics.median(r.report[key][0] for r in plain),
                    plain[0].report[key][1])
              for key in plain[0].report}
    report["median_pass_s"] = (wall, "s")
    report["fail_ratio"] = (fail_ratio, "ratio")
    trace_info = {}
    if trace:
        traced_wall = statistics.median(r.wall_s for r in traced)
        overhead = traced_wall / wall
        values = metrics.layer_metrics(tracer, len(traced), overhead,
                                       fail_ratio)
        tracer.write(out_dir / f"spans-{name}-seed{seed}.tsv")
        trace_info = {"self_total_s": sum(tracer.selfs) / 1e9 / len(traced),
                      "traced_wall_s": traced_wall, "wall_s": wall,
                      "overhead_ratio": overhead}
    else:
        values = {
            "setup_s": statistics.median(imports)
            + statistics.median(prepare),
            "wall_s": stage_estimate(plain),
            "grids_per_s": plain[0].grids / stage_estimate(plain, True),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return Result(
        metrics={k: (v, metrics.UNITS[k]) for k, v in values.items()},
        report=report, env=env, attempted=checks.attempted,
        failures=checks.failures, passes=order, setup_s=setup,
        trace=trace_info)
