"""Self-tests of the benchmark.

Run from the root of a checkout:

    python3 -m pytest -q perfbench

The smoke tests run every workload at the tiny input size through run.py,
traced and untraced, and require every metric of BENCHMARK.json with its
unit.  The falsifiability tests perturb one output of a tiny pass before
the gate sees it and require the gate to fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from inputs import WORKLOADS, generate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=175)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


def _tiny_outputs(workload, seed=0):
    inputs = generate(workload, seed, "tiny")
    work_dir = tempfile.mkdtemp(dir=HERE)
    try:
        raw = workloads.run_pass(workload, inputs, work_dir)
        flags, values = workloads.collect(workload, raw, work_dir)
    finally:
        shutil.rmtree(work_dir)
    return raw, flags, values, workloads.load_reference(workload, inputs)


def test_gate_fails_on_a_scaled_singular_value():
    _, flags, values, ref = _tiny_outputs("schatten_reach")
    assert workloads.gate(flags, values, ref)[1] == []
    key = next(k for k in values if k.startswith("spectra.oscillatory") and k.endswith("top0"))
    values[key] *= 1.0 + 1e-4
    assert workloads.gate(flags, values, ref)[1]


def test_gate_fails_on_a_shifted_slope():
    _, flags, values, ref = _tiny_outputs("density_reach")
    values["cluster_lower.check.lower-slope-case2-p4.0"] += 1e-4
    assert workloads.gate(flags, values, ref)[1]


def test_gate_fails_on_a_profile_outside_its_envelope():
    (profiles, sums), _, _, ref = _tiny_outputs("wkb_reach")
    prof, env, v = profiles[0]
    assert workloads.envelope_excess(prof, env, v) <= workloads.ENVELOPE_ROUNDOFF
    v = v.copy()
    v[v.size // 2] += 1e-8 * abs(prof.c)
    assert workloads.envelope_excess(prof, env, v) > workloads.ENVELOPE_ROUNDOFF


def test_gate_fails_on_inputs_without_references():
    assert workloads.gate({}, {}, None)[1]


def test_refuses_to_run_without_the_program():
    bare = tempfile.mkdtemp(dir=HERE)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("tmp*", "_work", "__pycache__"))
        proc = _bench("--workload", "acceptance", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
