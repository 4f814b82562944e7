"""One pass of each workload, and the correctness gate over its outputs.

A pass calls sclab through its public functions only.  ``run_pass`` is the
timed part; ``collect`` turns what the pass produced into named pass/fail
flags and named values; ``gate`` requires every flag to hold and every
value to match the reference recorded for the same inputs.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os

import numpy as np

from sclab import acceptance
from sclab import experiments as ex
from sclab import expsum as es
from sclab import schatten_lab as sl
from sclab import sphere_basis as sb
from sclab import wkb_engine as wkb

from inputs import input_key

# A value matches its reference when |value - ref| <= REL_TOL |ref| + ABS_TOL.
# 1e-6 relative fails a shifted slope or a wrong eigenvalue while leaving room
# for reordered floating-point sums; ABS_TOL covers residuals that sit at
# roundoff level (orthonormality and equator-anchor deviations ~1e-13).
REL_TOL = 1e-6
ABS_TOL = 1e-11
# |v - c y| <= envelope + ENVELOPE_ROUNDOFF |c| |Q|^{-1/4}.  At theta = 0 the
# envelope is exactly 0, so the raw inequality fails on roundoff alone; the
# worst excess measured over the full-size profiles is 7e-12.
ENVELOPE_ROUNDOFF = 1e-10
TOP_SPECTRUM = 10
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


# ---------------------------------------------------------------------------
# Passes (timed)
# ---------------------------------------------------------------------------

def _run_experiments(runs, work_dir):
    return [ex.run(ex.ExperimentConfig(**cfg, output=work_dir)) for cfg in runs]


def _wkb_pass(inputs):
    profiles = []
    for ell in inputs["profile_ells"]:
        r = wkb.band_radius(ell)
        for case in ("2", "inf"):
            for m in wkb.case_window(ell, r, case):
                prof = wkb.wkb_approximant(ell, int(m), case, r,
                                           n_theta=inputs["n_theta"])
                env = wkb.envelope(prof)
                v = sb.legendre_band(ell, int(m), int(m), prof.thetas).values_v[0]
                profiles.append((prof, env, v))
    sums = []
    for ell in inputs["phase_ells"]:
        r = wkb.band_radius(ell)
        for case in ("2", "inf"):
            _, hi = wkb.case_interval(ell, r, case)
            for i, theta in enumerate(np.linspace(0.0, hi, inputs["phase_thetas"])):
                res = es.cluster_phase_sum(ell, case, r, theta=float(theta))
                sums.append((f"phase.{ell}.{case}.{i}", res))
    return profiles, sums


def run_pass(workload: str, inputs: dict, work_dir: str):
    """Do one pass of the workload; returns what ``collect`` reads."""
    if workload == "acceptance":
        return acceptance.acceptance_suite(echo=None)
    if workload == "density_reach":
        return _run_experiments(inputs["runs"], work_dir)
    if workload == "schatten_reach":
        reports = _run_experiments(inputs["runs"], work_dir)
        return reports, sl.validate_resolution(sl.distance_model,
                                               inputs["distance_lambda"])
    if workload == "wkb_reach":
        return _wkb_pass(inputs)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Outputs as named flags and values
# ---------------------------------------------------------------------------

def _cell(text: str):
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def _experiment_outputs(reports, work_dir, flags, values):
    for report in reports:
        name = report.experiment
        for check in report.checks:
            flags[f"{name}.check.{check.name}"] = check.passed
            values[f"{name}.check.{check.name}"] = check.measured
        with open(os.path.join(work_dir, f"{name}.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        for i, row in enumerate(rows[1:]):
            for column, cell in zip(header, row):
                values[f"{name}.row{i}.{column}"] = _cell(cell)
    for path in sorted(glob.glob(os.path.join(work_dir, "spectra", "*.csv"))):
        label = os.path.basename(path)[:-len(".csv")]
        with open(path, newline="") as fh:
            sigma = [float(row[1]) for row in list(csv.reader(fh))[1:]]
        values[f"spectra.{label}.count"] = float(len(sigma))
        values[f"spectra.{label}.sum"] = float(sum(sigma))
        for k, s in enumerate(sigma[:TOP_SPECTRUM]):
            values[f"spectra.{label}.top{k}"] = s


def envelope_excess(prof, env, v) -> float:
    """Largest (|v - c y| - envelope) in units of |c| |Q|^{-1/4}."""
    scale = abs(prof.c) * np.abs(prof.q) ** -0.25
    return float(np.max((np.abs(v - prof.c * prof.y) - env) / scale))


def collect(workload: str, raw, work_dir: str):
    """Named pass/fail flags and named values produced by one pass."""
    flags, values = {}, {}
    if workload == "acceptance":
        for check in raw.checks:
            flags[check.name] = check.passed
            if not check.name.endswith("-runtime-seconds"):
                values[check.name] = check.measured
    elif workload == "density_reach":
        _experiment_outputs(raw, work_dir, flags, values)
    elif workload == "schatten_reach":
        reports, (converged, drift) = raw
        _experiment_outputs(reports, work_dir, flags, values)
        # the convergence flag is a measured output here, not a pass criterion:
        # at lambda = 16 the default resolution drifts by ~1.2e-4 > 1e-4
        values["distance.converged"] = float(converged)
        values["distance.drift"] = drift
    elif workload == "wkb_reach":
        profiles, sums = raw
        for prof, env, v in profiles:
            key = f"wkb.{prof.ell}.{prof.case_tag}.{prof.m}"
            flags[f"{key}.envelope"] = envelope_excess(prof, env, v) <= ENVELOPE_ROUNDOFF
            values[f"{key}.c"] = prof.c
            values[f"{key}.err_max"] = float(prof.err.max())
            values[f"{key}.metric"] = float(np.max(
                np.abs(v - prof.c * prof.y) * np.abs(prof.q) ** 0.25 / abs(prof.c)))
        for key, res in sums:
            flags[f"{key}.flags"] = res.monotone and res.separated and res.bound_holds
            values[f"{key}.abs_total"] = abs(res.total)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return flags, values


# ---------------------------------------------------------------------------
# Gate
# ---------------------------------------------------------------------------

def load_reference(workload: str, inputs: dict) -> dict | None:
    """Reference values recorded for these inputs, or None if there are none."""
    with open(REFS_PATH) as fh:
        entry = json.load(fh).get(workload, {}).get(input_key(inputs))
    return None if entry is None else entry["values"]


def matches(value, ref) -> bool:
    if isinstance(ref, str) or isinstance(value, str):
        return value == ref
    return abs(value - ref) <= REL_TOL * abs(ref) + ABS_TOL


def gate(flags: dict, values: dict, reference: dict | None):
    """(attempted, failures): every flag must hold, every reference must match."""
    failures = [f"check failed: {name}" for name, ok in flags.items() if not ok]
    if reference is None:
        return len(flags) + 1, failures + ["no recorded reference for these inputs"]
    for name, ref in reference.items():
        if name not in values:
            failures.append(f"missing output: {name}")
        elif not matches(values[name], ref):
            failures.append(f"mismatch: {name} = {values[name]!r}, reference {ref!r}")
    return len(flags) + len(reference), failures
