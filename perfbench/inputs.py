"""Workload inputs, generated from the benchmark seed (standard library only).

The seed selects one of a fixed family of jittered input sets per workload
and size.  Every set in the family has reference outputs recorded in
``refs.json`` (see ``record_refs.py``), which is what lets the correctness
gate compare measured values at tight relative precision for any seed.
The jitter moves every grid point but the largest by up to 1.5%.  The
largest point sets most of the cost and the peak memory, so it stays
fixed, and the work per pass varies little from seed to seed.

This module imports nothing from numpy or sclab: the driver process that
generates inputs stays free of BLAS threads.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("acceptance", "density_reach", "schatten_reach", "wkb_reach")
SIZES = ("full", "tiny")
VARIANTS = {"full": 8, "tiny": 2}
JITTER = 0.015

# Base grids before jitter.  "full" is what the benchmark measures; "tiny"
# exists for the self-tests.
BASE = {
    "full": {
        "density_reach": {"ell": (400, 626, 980, 1533, 2400)},
        "schatten_reach": {
            "oscillatory_scaling": (8, 16, 32, 64, 128),
            "schatten_dual": (10, 20, 30, 45, 65, 100),
            "kss_compare": (10, 14, 20, 28, 40, 56, 80),
            "cluster_upper": (10, 20, 35, 60, 100),
            "distance": 16.0,
        },
        "wkb_reach": {"profile_ells": (400, 800, 1600), "n_theta": 1001,
                      "phase_ells": (1000, 1800, 3200, 5600, 10000),
                      "phase_thetas": 20},
    },
    "tiny": {
        "density_reach": {"ell": (100, 141, 200, 283)},
        "schatten_reach": {
            "oscillatory_scaling": (4, 8, 16, 24),
            "schatten_dual": (5, 10, 15, 20, 25),
            "kss_compare": (6, 9, 14, 20),
            "cluster_upper": (5, 10, 20),
            "distance": 6.0,
        },
        "wkb_reach": {"profile_ells": (100, 200), "n_theta": 201,
                      "phase_ells": (100, 300, 1000), "phase_thetas": 5},
    },
}


def variant_of(seed: int, size: str = "full") -> int:
    """Index of the input set that this seed selects."""
    return random.Random(seed).randrange(VARIANTS[size])


def _jitter(values, rng):
    """Every value but the last, times a factor within 1 +- JITTER."""
    return [v * (1.0 + rng.uniform(-JITTER, JITTER)) for v in values[:-1]] + [values[-1]]


def _jitter_ints(values, rng):
    return [int(round(v)) for v in _jitter(values, rng)]


def _jitter_floats(values, rng):
    return [round(float(v), 3) for v in _jitter(values, rng)]


def generate(workload: str, seed: int, size: str = "full") -> dict:
    """The configs and ranges one workload passes to sclab for this seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    if workload == "acceptance":
        return {}
    variant = variant_of(seed, size)
    rng = random.Random(f"{workload}/{size}/{variant}")
    base = BASE[size][workload]
    if workload == "density_reach":
        return {"runs": [{"experiment": "cluster_lower",
                          "ell_range": _jitter_ints(base["ell"], rng)}]}
    if workload == "schatten_reach":
        runs = [{"experiment": name, "lambda_range": _jitter_floats(base[name], rng)}
                for name in ("oscillatory_scaling", "schatten_dual", "kss_compare",
                             "cluster_upper")]
        runs[-1]["seed"] = variant
        return {"runs": runs, "distance_lambda": base["distance"]}
    return {"profile_ells": _jitter_ints(base["profile_ells"], rng),
            "n_theta": base["n_theta"],
            "phase_ells": _jitter_ints(base["phase_ells"], rng),
            "phase_thetas": base["phase_thetas"]}


def input_key(inputs: dict) -> str:
    """Stable name of an input set, used to look up its references."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()[:16]
