#!/usr/bin/env python3
"""sclab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: acceptance, density_reach, schatten_reach, wkb_reach (see
perfbench/README.md).  The driver process uses the standard library only.
It generates the workload's inputs from the seed, then runs passes one
after another, each in a fresh worker process (a single closed-loop
caller), as long as the next pass is expected to end within
``--seconds``.  A pass's outputs are checked against the references
recorded for its inputs.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` passes
alternate between traced and untraced and the metrics are the per-layer
ones.  Earlier lines hold provenance and one line per pass.  The process
exits non-zero, printing no result, when the checkout holds no sclab
sources or no pass completes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import SIZES, WORKLOADS, generate, variant_of  # noqa: E402
from worker import cpu_count  # noqa: E402

# every run, set-up and passes included, ends well inside the 180 s limit
HARD_LIMIT_S = 165.0
MAX_FAILURES_SHOWN = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="input size; 'tiny' is for the self-tests")
    return parser.parse_args(argv)


def git_sha(root: str) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def source_digest(src: str) -> str:
    """sha1 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha1()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def worker_env() -> dict:
    env = dict(os.environ)
    # both bundled OpenBLAS pools start with one thread; the worker raises
    # numpy's to the CPU count (see worker.setup_blas_threads)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(job: dict, deadline: float):
    """Run one worker; returns (result or None, error text, set-up seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return None, "worker timed out", None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-10:])
        return None, f"worker exited with {proc.returncode}:\n{tail}", None
    result = json.loads(lines[-1])
    return result, "", result["t_ready"] - start


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sclab", "__init__.py")):
        print(f"perfbench: no sclab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    inputs = generate(args.workload, args.seed, args.size)
    work_root = os.path.join(HERE, "_work", f"run-{os.getpid()}")
    os.makedirs(work_root, exist_ok=True)
    job = {"root": ROOT, "workload": args.workload, "inputs": inputs,
           "work_dir": work_root, "trace": False}
    passes, errors = [], []
    try:
        warm, error, _ = spawn(dict(job, warmup=True), deadline)
        if warm is None:
            print(f"perfbench: warm-up failed: {error}", file=sys.stderr)
            return 1
        measure_start = time.monotonic()
        min_passes = 2 if args.trace else 1
        durations = []
        # start another pass only while it is expected to end within --seconds
        while (len(durations) < min_passes or time.monotonic() - measure_start
               + statistics.median(durations) <= args.seconds):
            traced = bool(args.trace) and len(durations) % 2 == 0
            pass_start = time.monotonic()
            result, error, setup_s = spawn(dict(job, trace=traced), deadline)
            durations.append(time.monotonic() - pass_start)
            if result is None:
                errors.append(error)
                print(f"pass {len(passes) + len(errors)}: failed: {error}", file=sys.stderr)
                if time.monotonic() >= deadline:
                    break
                continue
            result.update(traced=traced, setup_s=setup_s)
            passes.append(result)
            print(f"pass {len(passes) + len(errors)}: {'traced ' if traced else ''}"
                  f"wall {result['wall_s']:.3f} s, cpu {result['cpu_s']:.3f} s, "
                  f"setup {setup_s:.3f} s, "
                  f"rss {result['rss_mb']:.1f} MB, "
                  f"checks {result['attempted'] - len(result['failures'])}"
                  f"/{result['attempted']}, threads {result['os_threads']}")
            for failure in result["failures"][:MAX_FAILURES_SHOWN]:
                print(f"  {failure}")
            if time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not untraced or (args.trace and not traced):
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failed = sum(len(p["failures"]) for p in passes) + len(errors)

    wall = statistics.median([p["wall_s"] for p in untraced])
    if args.trace:
        values = {name: statistics.median([p["layers"][name] for p in traced])
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = statistics.median([p["wall_s"] for p in traced]) - wall
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median([p["setup_s"] for p in passes]),
            "peak_rss_mb": statistics.median([p["rss_mb"] for p in untraced]),
            "checks_pass_ratio": (attempted - failed) / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(json.dumps({"provenance": dict(
        passes[0]["provenance"],
        git_sha=git_sha(ROOT),
        source_sha1=source_digest(os.path.join(ROOT, "src", "sclab")),
        nproc=cpu_count(),
        os_threads_max=max(p["os_threads"] or 0 for p in passes),
        seed=args.seed,
        variant=variant_of(args.seed, args.size) if args.workload != "acceptance" else None,
        size=args.size,
        passes=len(passes),
        traced_passes=len(traced),
        failed_passes=len(errors),
        measured_s=round(time.monotonic() - started, 3),
    )}))
    samples = " ".join(f"{p['wall_s']:.3f}" for p in untraced)
    print(f"untraced pass times (n={len(untraced)}): {samples}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
