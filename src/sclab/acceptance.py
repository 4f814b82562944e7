"""The acceptance suite: thirteen criteria, one pass/fail line each.

``CRITERIA`` is a table of (label, criterion) pairs.  A criterion takes a
memo dict and returns its checks; :func:`run_criterion` runs one and
returns (checks, elapsed_seconds).  Ten criteria keep checks of an
experiment runner at its default ranges (:func:`_runner_checks`); the
other three verify the basis directly (orthonormality, equator anchors,
randomized cotangent-bound trials).  :func:`acceptance_suite` hands every
criterion one memo, so paired criteria (c04/c05, c08/c09) share one
runner call; a criterion run on its own gets a fresh memo.  Both
``sclab check`` and the pytest acceptance module run this table.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import expsum as es
from . import sphere_basis as sb
from .experiments import (AcceptanceReport, Check, ExperimentConfig, RUNNERS,
                          bound_check, flag_check)

RUNTIME_BUDGETS = {  # seconds; criteria without an entry are unbudgeted
    "c01-weyl": 1.0,
    "c02-orthonormality": 6.0,  # ~15x its 0.40 s median alone in a fresh process
    "c03-equator-anchors": 1.6,  # ~15x its 0.11 s median in a slow phase (0.047 s typical)
    "c04-wkb-accuracy": 0.8,  # ~18x its 0.045 s median alone in a fresh process
    "c06-kuzmin-landau": 1.0,  # ~16x its 0.064 s median, likewise
    "c08-optimality-slopes": 3.5,  # ~17x its 0.20 s median alone in a fresh process
    "c10-dual-schatten": 2.0,  # ~18x its 0.11 s median alone in a fresh process
    "c11-oscillatory-scaling": 1.5,  # ~15x its 0.10 s median, likewise
}


def _runner_checks(name: str, *prefixes: str):
    """Criterion: runner ``name`` at its defaults, checks kept by name prefix.

    The runner is looked up in RUNNERS when the criterion runs, and runs
    once per memo; without prefixes every check is kept.
    """
    def criterion(memo: dict) -> list:
        if name not in memo:
            cfg = ExperimentConfig(experiment=name).validate()
            memo[name] = RUNNERS[name](cfg)[0]
        return [c for c in memo[name]
                if not prefixes or c.name.startswith(prefixes)]

    return criterion


def _orthonormality(_memo) -> list:
    ell_max = 200
    grid = sb.build_grid(256, 2 * ell_max + 3)
    x = np.cos(grid.theta_nodes)
    dev = 0.0
    for m in range(ell_max + 1):
        table = sb.legendre_degree_table(m, ell_max, x)
        gram = 2.0 * math.pi * (table * grid.theta_weights) @ table.T
        gram[np.diag_indices_from(gram)] -= 1.0
        dev = max(dev, float(np.max(np.abs(gram))))

    # cross-order entries vanish through the azimuthal rule; sample them
    rng = np.random.default_rng(7)
    phis = grid.phi_nodes
    cross = 0.0
    for _ in range(50):
        ell_a, ell_b = rng.integers(1, ell_max + 1, 2)
        m_a = int(rng.integers(0, ell_a + 1))
        m_b = int(rng.integers(0, ell_b + 1))
        if m_a == m_b:
            m_b = (m_b + 1) % (ell_b + 1)
            if m_a == m_b:
                continue
        phi_factor = np.mean(np.exp(1j * (m_a - m_b) * phis))
        g_a = sb.legendre_row(m_a, int(ell_a), x)
        g_b = sb.legendre_row(m_b, int(ell_b), x)
        entry = 2.0 * math.pi * np.dot(grid.theta_weights, g_a * g_b) * phi_factor
        cross = max(cross, abs(entry))

    # equatorial-profile normalization, int |v|^2 dtheta = 1/(2 pi)
    vdev = 0.0
    for ell in (1, 10, 50, 100, 200):
        nodes, wts = sb._gauss_rule(2 * ell + 64)
        thetas = nodes * math.pi / 2
        weights = wts * math.pi / 2
        for m in {0, ell // 3, ell}:
            row = sb.legendre_band(ell, m, m, thetas).values_v[0]
            vdev = max(vdev, abs(float(np.dot(weights, row * row))
                                 - 1.0 / (2.0 * math.pi)))
    return [
        bound_check("orthonormality-gram-deviation", dev, 1e-10),
        bound_check("orthonormality-cross-order", cross, 1e-10),
        bound_check("v-normalization-deviation", vdev, 1e-10),
    ]


def _equator_anchors(_memo) -> list:
    ell_max = 500
    orders = np.arange(ell_max + 1)
    x0 = np.zeros(1)
    worst_val, worst_der = 0.0, 0.0
    below = None
    # one recurrence over all orders: step j holds g_{m+j}^m(0) in row m
    for step, rows in enumerate(sb._degree_rows(orders[:, None], ell_max, x0,
                                                sb._seed_values(orders[:, None], x0))):
        ms = orders[:ell_max + 1 - step]  # the orders still at degree <= ell_max
        ells = ms + step
        values, derivs = sb.normalized_at_zero(ells, ms)
        if step % 2 == 0:  # l + m even: v(0) is the row itself
            rel = np.abs(rows[ms, 0] - values) / np.abs(values)
            worst_val = max(worst_val, float(rel.max()))
        else:
            # (g_l^m)'(0) = sqrt((2l+1)(l-m)(l+m)/(2l-1)) g_{l-1}^m(0)
            ell_o = ells.astype(float)
            factor = np.sqrt((2 * ell_o + 1) * (ell_o - ms) * (ell_o + ms)
                             / (2 * ell_o - 1))
            rel = np.abs(factor * below[ms, 0] - derivs) / np.abs(derivs)
            worst_der = max(worst_der, float(rel.max()))
        below = rows
    return [
        bound_check("equator-value-agreement", worst_val, 1e-13),
        bound_check("equator-derivative-agreement", worst_der, 1e-13),
    ]


def _kuzmin_landau(_memo) -> list:
    rng = np.random.default_rng(20240801)
    violations = 0
    worst_margin = math.inf
    batch = 500
    for _ in range(10_000 // batch):
        k = int(rng.integers(2, 120))
        eps = float(rng.uniform(0.05, math.pi))
        incs = rng.uniform(eps, 2.0 * math.pi - eps, (batch, k))
        incs.sort(axis=1)
        if rng.random() < 0.5:
            incs = incs[:, ::-1]
        phases = np.cumsum(np.concatenate(
            [rng.uniform(0, 2 * math.pi, (batch, 1)), incs], axis=1), axis=1)
        sums = np.abs(np.exp(1j * phases).sum(axis=1))
        bound = es.kuzmin_landau_bound(eps)
        violations += int(np.sum(sums > bound))
        worst_margin = min(worst_margin, float(np.min(bound - sums)))
    return [
        Check("kuzmin-landau-violations", 0.0, float(violations), 0.0,
              violations == 0),
        flag_check("kuzmin-landau-margin-nonnegative", worst_margin >= 0.0),
    ]


CRITERIA = (
    ("c01-weyl", _runner_checks("weyl")),
    ("c02-orthonormality", _orthonormality),
    ("c03-equator-anchors", _equator_anchors),
    ("c04-wkb-accuracy", _runner_checks("wkb_accuracy")),
    ("c05-normalization-constants",
     _runner_checks("wkb_accuracy", "normalization-constant-spread")),
    ("c06-kuzmin-landau", _kuzmin_landau),
    ("c07-phase-sums", _runner_checks("phase_sums")),
    ("c08-optimality-slopes",
     _runner_checks("cluster_lower", "lower-slope", "triangle-gap")),
    ("c09-pointwise-windows",
     _runner_checks("cluster_lower", "window-constant", "concentration")),
    ("c10-dual-schatten", _runner_checks("schatten_dual")),
    ("c11-oscillatory-scaling", _runner_checks("oscillatory_scaling")),
    ("c12-kss-compare", _runner_checks("kss_compare")),
    ("c13-heuristic-compare", _runner_checks("heuristic_compare")),
)


def run_criterion(criterion, memo: dict | None = None):
    """(checks, elapsed_seconds) of one criterion; a fresh memo unless given."""
    start = time.perf_counter()
    checks = criterion({} if memo is None else memo)
    return checks, time.perf_counter() - start


def format_line(criterion: str, check: Check, elapsed: float) -> str:
    verdict = "PASS" if check.passed else "FAIL"
    return (f"[{verdict}] {criterion} :: {check.name}: "
            f"predicted={check.predicted:.6g} measured={check.measured:.6g} "
            f"tol={check.tol:.6g} ({elapsed:.2f}s)")


def acceptance_suite(echo=print) -> AcceptanceReport:
    """Run all thirteen criteria; returns an aggregate report.

    Runtime budgets from the stated criteria are enforced as checks of
    their own, so a pathologically slow environment shows up as a FAIL
    rather than silently.
    """
    report = AcceptanceReport("acceptance", seed=0)
    memo: dict = {}
    for name, criterion in CRITERIA:
        checks, elapsed = run_criterion(criterion, memo)
        if name in RUNTIME_BUDGETS:
            checks = list(checks) + [
                bound_check(f"{name}-runtime-seconds", elapsed,
                            RUNTIME_BUDGETS[name])
            ]
        for check in checks:
            report.checks.append(
                Check(f"{name}:{check.name}", check.predicted, check.measured,
                      check.tol, check.passed))
            if echo is not None:
                echo(format_line(name, check, elapsed))
    return report
