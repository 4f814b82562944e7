"""One pass of a benchmark workload, in a fresh process.

Usage (run.py starts it; the single argument is a JSON job):

    python3 perfbench/worker.py '{"root": ..., "workload": ..., "inputs": ...,
                                  "trace": false, "work_dir": ...}'

The process imports sclab from ``<root>/src``, sets up its BLAS threads,
notes the moment it is ready (the end of set-up), runs and times the pass,
checks the outputs, and prints one JSON line.  With ``"warmup": true`` it
stops after set-up, which compiles bytecode before any timed pass.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _openblas(package_dir: str, suffix: str):
    """(library, symbol suffix) of the OpenBLAS bundled next to a package, or None."""
    for path in glob.glob(package_dir + ".libs/*openblas*"):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                return lib, f"{prefix}_%s{suffix}"
    return None


def setup_blas_threads(n_threads: int) -> dict:
    """Give numpy's OpenBLAS n_threads; leave scipy's at the one it started with.

    numpy and scipy each bundle their own OpenBLAS with its own thread pool.
    run.py starts this process with OPENBLAS_NUM_THREADS=1, so both pools
    start empty; raising numpy's pool alone keeps the process at n_threads
    OS threads in total, the main thread included.
    """
    import numpy
    import scipy

    threads = {}
    for name, package, suffix in (("numpy", numpy, "64_"), ("scipy", scipy, "")):
        found = _openblas(os.path.dirname(package.__file__), suffix)
        if found is None:
            threads[name] = None
            continue
        lib, symbol = found
        if name == "numpy":
            setter = getattr(lib, symbol % "set_num_threads")
            setter.argtypes = [ctypes.c_int]
            setter(n_threads)
        getter = getattr(lib, symbol % "get_num_threads")
        getter.restype = ctypes.c_int
        threads[name] = getter()
    return threads


def provenance(blas_threads: dict) -> dict:
    import numpy
    import scipy

    import sclab

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "sclab": sclab.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path[:0] = [os.path.join(job["root"], "src"), HERE]
    import workloads
    from tracer import Tracer

    blas_threads = setup_blas_threads(cpu_count())
    t_ready = time.monotonic()
    if job.get("warmup"):
        print(json.dumps({"t_ready": t_ready}))
        return 0

    workload, inputs = job["workload"], job["inputs"]
    work_dir = tempfile.mkdtemp(dir=job["work_dir"])
    try:
        tracer = Tracer().install() if job["trace"] else None
        cpu_start = _cpu_seconds()
        start = time.perf_counter()
        try:
            raw = workloads.run_pass(workload, inputs, work_dir)
        finally:
            wall = time.perf_counter() - start
            cpu = _cpu_seconds() - cpu_start
            if tracer is not None:
                tracer.restore()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
        flags, values = workloads.collect(workload, raw, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted, failures = workloads.gate(
        flags, values, workloads.load_reference(workload, inputs))
    result = {
        "t_ready": t_ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failures": failures,
        "os_threads": threads,
        "provenance": provenance(blas_threads),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
