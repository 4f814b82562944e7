#!/usr/bin/env python3
"""Record the reference outputs the correctness gate compares against.

Usage, from the root of a checkout:

    python3 perfbench/record_refs.py [WORKLOAD ...]

Runs one pass of every input set that inputs.py can generate (every variant
of every size) and writes the named values to perfbench/refs.json, rounded
to 12 significant digits.  Refuses to record when any check of a pass fails.
Re-record only when the program's outputs are meant to change, and say why
in CHANGES.md.  Takes about five minutes for all workloads.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from inputs import SIZES, VARIANTS, WORKLOADS, generate, input_key  # noqa: E402


def _round(value):
    return value if isinstance(value, str) else float(f"{value:.12g}")


def input_sets(workload):
    """Every distinct input set the generator can produce for a workload."""
    seen = {}
    for size in SIZES:
        for seed in range(64 * VARIANTS[size]):
            inputs = generate(workload, seed, size)
            seen.setdefault(input_key(inputs), inputs)
    return seen


def main(argv) -> int:
    names = argv or list(WORKLOADS)
    refs = {}
    if os.path.exists(workloads.REFS_PATH):
        with open(workloads.REFS_PATH) as fh:
            refs = json.load(fh)
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    for workload in names:
        entries = {}
        for key, inputs in input_sets(workload).items():
            work_dir = tempfile.mkdtemp(dir=work_root)
            try:
                raw = workloads.run_pass(workload, inputs, work_dir)
                flags, values = workloads.collect(workload, raw, work_dir)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            failed = [name for name, ok in flags.items() if not ok]
            if failed:
                print(f"{workload} {inputs}: checks fail: {failed}", file=sys.stderr)
                return 1
            entries[key] = {"inputs": inputs,
                            "values": {k: _round(v) for k, v in values.items()}}
            print(f"{workload} {key}: {len(values)} values", flush=True)
        refs[workload] = entries
    with open(workloads.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(work_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
