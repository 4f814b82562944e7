#!/usr/bin/env python3
"""Run every experiment at its default ranges and collect CSV/JSON output.

Usage:
    python scripts/run_all_experiments.py [out_dir]

Writes <out_dir>/<experiment>.csv and .json for each experiment (default
out_dir: ./out), then prints a one-line summary per experiment.  The ten
experiments take about 1.5 s together on a 2-core x86 box; kss_compare
and cluster_lower are the slowest.
"""

import sys
import time

from sclab.experiments import EXPERIMENT_NAMES, ExperimentConfig, run


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "out"
    failures = []
    for name in EXPERIMENT_NAMES:
        start = time.perf_counter()
        report = run(ExperimentConfig(experiment=name, output=out_dir))
        elapsed = time.perf_counter() - start
        n_pass = sum(c.passed for c in report.checks)
        status = "ok" if report.passed else "FAIL"
        print(f"{name:22s} {n_pass}/{len(report.checks)} checks "
              f"({elapsed:6.1f}s) {status}")
        if not report.passed:
            failures.append(name)
    if failures:
        print("failed:", ", ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
