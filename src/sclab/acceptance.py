"""The acceptance suite: thirteen criteria, one pass/fail line each.

``CRITERIA`` is a table of (label, criterion) pairs.  A criterion takes a
memo dict and returns its checks; :func:`run_criterion` runs one and
returns (checks, elapsed_seconds).  Ten criteria keep checks of an
experiment runner at its default ranges (:func:`_runner_checks`); the
other three verify the basis directly (orthonormality, equator anchors,
and the cotangent bound on random trials and on its near-extremal
up-then-down family, where a bound 0.9x or 2x the true one fails).

The direct criteria are arranged for cost.  g_l^m has the parity of
l - m and the 256-point rule's weights are exactly symmetric, so c02
tables each order on the 128 nodes x > 0 only (plus x = 0, which is not
in the Gram) and forms its Gram as two same-parity blocks at twice the
weight: the entries across parities are zero by symmetry.  Its tables'
values at x = 0 are checked against the closed forms in one call, which
ties each table to its order; the Gram alone cannot, since one order's
rows are orthonormal whichever order they belong to.  c03 runs one
degree recurrence over all 501 orders at x = 0 and compares a block of
``_DEGREE_CHECK_STEPS`` steps with the closed forms per call: one call
over all 125 751 pairs would hold ~13 MB of temporaries.  c06 takes
|sum e^(i phi)| from the sums of cos and sin, in real arithmetic, and
sums the family in closed form from tables of sin and cos.

:func:`acceptance_suite` hands every criterion one memo, so paired
criteria (c04/c05, c08/c09) share one runner call; a criterion run on
its own gets a fresh memo.  Both ``sclab check`` and the pytest
acceptance module run this table.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from . import expsum as es
from . import sphere_basis as sb
from .experiments import (AcceptanceReport, Check, ExperimentConfig, RUNNERS,
                          bound_check, flag_check)

RUNTIME_BUDGETS = {  # seconds; criteria without an entry are unbudgeted
    "c01-weyl": 1.0,
    "c02-orthonormality": 1.9,  # ~15x its 0.124 s median alone in a fresh process
    "c03-equator-anchors": 0.4,  # ~15x its 0.026 s median, likewise
    "c04-wkb-accuracy": 0.42,  # ~15x its 0.028 s median alone in a fresh process
    "c06-kuzmin-landau": 0.9,  # ~15x its 0.062 s median, likewise
    "c07-phase-sums": 0.65,  # ~15x its 0.043 s median alone in a fresh process
    "c08-optimality-slopes": 0.55,  # ~15x its 0.036 s median, likewise
    "c10-dual-schatten": 0.35,  # ~15x its 0.023 s median, likewise
    "c11-oscillatory-scaling": 0.27,  # ~15x its 0.018 s median, likewise
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
    # g_l^m has the parity of l - m and the rule is symmetric, so a 256-node
    # sum of two rows is twice their sum over the 128 nodes x > 0 (theta <
    # pi/2) where their l - m have one parity, and 0 where they differ;
    # x = 0 is appended for the equator anchors, outside the Gram
    half = grid.n_theta // 2
    x = np.append(np.cos(grid.theta_nodes[:half]), 0.0)
    scale = np.sqrt(4.0 * math.pi * grid.theta_weights[:half])

    # cross-order entries vanish through the azimuthal rule; sample them,
    # drawn first so that their rows come from the degree tables below
    rng = np.random.default_rng(7)
    phis = grid.phi_nodes
    pairs = []  # ((m_a, ell_a), (m_b, ell_b), phi_factor)
    for _ in range(50):
        ell_a, ell_b = rng.integers(1, ell_max + 1, 2)
        m_a = int(rng.integers(0, ell_a + 1))
        m_b = int(rng.integers(0, ell_b + 1))
        if m_a == m_b:
            m_b = (m_b + 1) % (ell_b + 1)
            if m_a == m_b:
                continue
        phi_factor = np.mean(np.exp(1j * (m_a - m_b) * phis))
        pairs.append(((m_a, int(ell_a)), (m_b, int(ell_b)), phi_factor))
    sampled = {}  # order -> the degrees sampled at it
    for m, ell in {key for a, b, _ in pairs for key in (a, b)}:
        sampled.setdefault(m, []).append(ell)

    dev = 0.0
    rows = {}  # (m, ell) -> g_l^m sqrt(4 pi w) on the nodes x > 0
    at_zero = []  # per order m, g_l^m(0) for l = m, m + 2, ...
    for m, table in sb._degree_tables(0, ell_max, ell_max, x):
        for parity in (0, 1):
            scaled = table[parity::2, :half] * scale
            gram = scaled @ scaled.T
            gram.flat[::len(gram) + 1] -= 1.0
            dev = max(dev, float(np.abs(gram).max(initial=0.0)))
        rows.update({(m, ell): table[ell - m, :half] * scale for ell in sampled.get(m, ())})
        at_zero.append(table[::2, half].copy())

    cross = 0.0
    for a, b, phi_factor in pairs:
        same_parity = (a[1] - a[0] - b[1] + b[0]) % 2 == 0
        entry = same_parity * np.dot(rows[a], rows[b]) * phi_factor
        cross = max(cross, abs(entry))

    # the closed forms at the equator tie each table to its order
    m_of, ell_of = np.indices((ell_max + 1, ell_max + 1))
    ms, ells = np.nonzero((ell_of >= m_of) & ((ell_of - m_of) % 2 == 0))
    values, _ = sb.normalized_at_zero(ells, ms)
    anchor = float(np.max(np.abs(np.concatenate(at_zero) - values) / np.abs(values)))

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
        bound_check("orthonormality-gram-deviation", dev, 1e-12),
        bound_check("orthonormality-cross-order", cross, 1e-10),
        bound_check("v-normalization-deviation", vdev, 1e-12),
        bound_check("orthonormality-equator-anchor", anchor, 1e-13),
    ]


def _equator_anchors(_memo) -> list:
    ell_max = 500
    orders = np.arange(ell_max + 1)
    x0 = np.zeros(1)
    block = sb._DEGREE_CHECK_STEPS
    # row 0 holds the column of the step before the block, rows 1.. its steps
    columns = np.zeros((block + 1, orders.size))
    worst_val, worst_der = 0.0, 0.0
    # one recurrence over all orders: step j holds g_{m+j}^m(0) in row m
    rows = sb._degree_rows(orders[:, None], ell_max, x0, sb._seed_values(orders[:, None], x0))
    for start in range(0, ell_max + 1, block):
        count = min(block, ell_max + 1 - start)
        for i, row in enumerate(itertools.islice(rows, count)):
            columns[i + 1] = row[:, 0]
        steps = np.arange(start, start + count)[:, None]
        ells = orders + steps
        kept = ells <= ell_max  # the orders still at degree <= ell_max
        ells, ms = ells[kept], np.broadcast_to(orders, kept.shape)[kept]
        here, below = columns[1:count + 1][kept], columns[:count][kept]
        values, derivs = sb.normalized_at_zero(ells, ms)
        even = np.broadcast_to(steps % 2 == 0, kept.shape)[kept]
        # l + m even: v(0) is the row itself
        rel = np.abs(here[even] - values[even]) / np.abs(values[even])
        worst_val = max(worst_val, float(rel.max(initial=0.0)))
        # (g_l^m)'(0) = sqrt((2l+1)(l-m)(l+m)/(2l-1)) g_{l-1}^m(0)
        odd = ~even
        ell_o, m_o = ells[odd].astype(float), ms[odd]
        factor = np.sqrt((2 * ell_o + 1) * (ell_o - m_o) * (ell_o + m_o)
                         / (2 * ell_o - 1))
        rel = np.abs(factor * below[odd] - derivs[odd]) / np.abs(derivs[odd])
        worst_der = max(worst_der, float(rel.max(initial=0.0)))
        columns[0] = columns[count]
    return [
        bound_check("equator-value-agreement", worst_val, 1e-13),
        bound_check("equator-derivative-agreement", worst_der, 1e-13),
    ]


def _up_then_down(eps: float) -> np.ndarray:
    """Largest |sum e^(i phi)| of the up-then-down family at ``eps``, per K.

    The family takes N increments eps, then K - N increments 2 pi - eps:
    monotone, eps-separated increments whose sums come within 1% of
    cot(eps/4) at small eps.  Entry K, for K = 0..8 pi / eps, is the
    largest sum over 0 <= N <= K.  Mod 2 pi the terms are e^(i n eps) for
    n = 0..N and for n = 2N - K..N - 1, two runs of N + 1 and K - N terms
    whose centres lie (2N - K - 1) eps/2 apart, so |sum| = |A + B e^(i d)|
    with A and B the runs' Dirichlet kernels, read from tables of sin and
    cos at multiples of eps/2.  The (K, N) grid is taken 32 rows of K at a
    time, which keeps its arrays to ~0.1 MB each.
    """
    k_max = int(8.0 * math.pi / eps)
    half = np.arange(2 * k_max + 2) * (0.5 * eps)
    sin_t, cos_t = np.sin(half), np.cos(half)
    dirichlet = sin_t / sin_t[1]
    n = np.arange(k_max + 1)
    best = np.empty(k_max + 1)
    for start in range(0, k_max + 1, 32):
        k = n[start:start + 32, None]
        run_b = dirichlet[np.abs(k - n)]
        delta = np.abs(2 * n - k - 1)
        sums = np.hypot(dirichlet[n + 1] + run_b * cos_t[delta], run_b * sin_t[delta])
        best[start:start + 32] = np.max(sums, axis=1, where=n <= k, initial=0.0)
    return best


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
        sums = np.hypot(np.cos(phases).sum(axis=1), np.sin(phases).sum(axis=1))
        bound = es.kuzmin_landau_bound(eps)
        violations += int(np.sum(sums > bound))
        worst_margin = min(worst_margin, float(np.min(bound - sums)))
    family_worst, sharpness = 0.0, math.inf
    for eps in (0.05, 0.2, 0.5, 1.0, 2.0, math.pi):
        sums = _up_then_down(eps)
        bound = es.kuzmin_landau_bound(eps)
        # eps = pi, K = 2 attains the bound: allow a sum's (K + 1) ulps
        allowance = 1.0 + np.arange(1, sums.size + 1) * 2.0**-52
        family_worst = max(family_worst, float(np.max(sums / (bound * allowance))))
        if eps <= 1.0:  # the family is near-extremal as eps -> 0 only
            sharpness = min(sharpness, float(sums.max()) / bound)
    return [
        Check("kuzmin-landau-violations", 0.0, float(violations), 0.0,
              violations == 0),
        flag_check("kuzmin-landau-margin-nonnegative", worst_margin >= 0.0),
        bound_check("kuzmin-landau-family-bound-holds", family_worst, 1.0),
        Check("kuzmin-landau-family-sharpness", 1.0, sharpness, 0.01,
              sharpness >= 0.99),
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
