"""Acceptance gate: every stated criterion at its stated tolerance.

One test per entry of ``acc.CRITERIA``, all with the same body: it runs
the criterion through :func:`sclab.acceptance.run_criterion`, prints one
pass/fail line per check (visible with ``pytest -s`` and in captured
output on failure), asserts the checks and the stated runtime budget, and
then the criterion's pin from ``PINS``: the tolerances, counts and names
that the stated criteria fix.  ``sclab check`` runs the same table.
"""

import collections
import math
import tracemalloc

import numpy as np
import pytest

from _oracles import equator_anchors_per_step
from sclab import acceptance as acc
from sclab import experiments as ex
from sclab import expsum as es
from sclab import schatten_lab as sl
from sclab import sphere_basis as sb
from sclab.experiments import Check


def _tols(expected: dict):
    return lambda c: all(c[name].tol == tol for name, tol in expected.items())


def _all_tol(tol: float):
    return lambda c: all(check.tol == tol for check in c.values())


# label -> (test name, pin over the criterion's checks keyed by check name)
PINS = {
    "c01-weyl": ("test_c01_weyl_law", _tols(
        {"weyl-count-slope": 0.02, "weyl-leading-coefficient": 0.05})),
    "c02-orthonormality": ("test_c02_orthonormality", _tols(
        {"orthonormality-gram-deviation": 1e-12, "orthonormality-cross-order": 1e-10,
         "v-normalization-deviation": 1e-12, "orthonormality-equator-anchor": 1e-13})),
    "c03-equator-anchors": ("test_c03_equator_anchors", _all_tol(1e-13)),
    "c04-wkb-accuracy": ("test_c04_wkb_accuracy", _tols(
        {"wkb-metric-variation-case2": 3.0, "wkb-metric-variation-caseinf": 3.0})),
    "c05-normalization-constants": ("test_c05_normalization_constants", lambda c: (
        set(c) == {"normalization-constant-spread"})),
    # an exact inequality, no tolerance; the family within 1% of the bound
    "c06-kuzmin-landau": ("test_c06_kuzmin_landau", lambda c: (
        c["kuzmin-landau-violations"].measured == 0.0
        and c["kuzmin-landau-family-bound-holds"].tol == 1.0
        and c["kuzmin-landau-family-sharpness"].tol == 0.01)),
    "c07-phase-sums": ("test_c07_phase_sums", _tols(
        {"phase-sum-variation-case2": 2.0, "phase-sum-variation-caseinf": 2.0})),
    "c08-optimality-slopes": ("test_c08_optimality_slopes", lambda c: [
        check.tol for name, check in c.items() if name.startswith("lower-slope")
    ] == [0.07] * 6),
    "c09-pointwise-windows": ("test_c09_pointwise_windows",
                              lambda c: "window-constants-positive" in c),
    "c10-dual-schatten": ("test_c10_dual_schatten", lambda c: set(c) == {
        "dual-ratio-tail-p4.0", "dual-ratio-tail-p6.0", "dual-ratio-tail-p10.0"
    } and _all_tol(2.0)(c)),
    "c11-oscillatory-scaling": ("test_c11_oscillatory_scaling", _tols(
        {"oscillatory-paraboloid-variation": 2.0})),
    "c12-kss-compare": ("test_c12_kss_comparison", lambda c: (
        c["kss-ratio-slope"].tol == 0.1
        and c["kss-ratio-slope"].predicted == pytest.approx(-1.0 / 6.0))),
    # both windows at both degrees
    "c13-heuristic-compare": ("test_c13_heuristic_comparison",
                              lambda c: len(c) == 4 and _all_tol(2.0)(c)),
}


def _criterion_test(label: str, test_name: str, pin):
    def test():
        checks, elapsed = acc.run_criterion(dict(acc.CRITERIA)[label])
        for check in checks:
            print(acc.format_line(label, check, elapsed))
        failed = [c.name for c in checks if not c.passed]
        assert not failed, f"{label} failed: {failed}"
        budget = acc.RUNTIME_BUDGETS.get(label)
        if budget is not None:
            assert elapsed < budget, f"{label} took {elapsed:.1f}s > {budget}s"
        by_name = {c.name: c for c in checks}
        assert len(by_name) == len(checks), f"{label}: repeated check names"
        assert pin(by_name), f"{label}: a pinned tolerance, count or name moved"

    test.__name__ = test_name
    return test


for _label, (_test_name, _pin) in PINS.items():
    globals()[_test_name] = _criterion_test(_label, _test_name, _pin)


def test_every_criterion_is_pinned():
    assert [label for label, _ in acc.CRITERIA] == list(PINS)


def test_criterion_alone_does_not_reuse_an_earlier_run(monkeypatch):
    criteria = dict(acc.CRITERIA)
    checks, _ = acc.run_criterion(criteria["c04-wkb-accuracy"])
    assert all(c.passed for c in checks)
    failing = Check("normalization-constant-spread", 4.0, 9.0, 4.0, False)
    monkeypatch.setitem(ex.RUNNERS, "wkb_accuracy", lambda cfg: ([failing], [], ()))
    checks, _ = acc.run_criterion(criteria["c05-normalization-constants"])
    assert checks == [failing]


@pytest.mark.parametrize("scaled", [0, 1])  # the values, then the derivatives
def test_equator_anchors_can_fail(monkeypatch, scaled):
    exact = sb.normalized_at_zero

    def perturbed(ell, m):
        pair = list(exact(ell, m))
        pair[scaled] = pair[scaled] * (1.0 + 1e-12)
        return tuple(pair)

    monkeypatch.setattr(sb, "normalized_at_zero", perturbed)
    checks, _ = acc.run_criterion(dict(acc.CRITERIA)["c03-equator-anchors"])
    verdicts = {c.name: c.passed for c in checks}
    assert verdicts == {"equator-value-agreement": scaled == 1,
                        "equator-derivative-agreement": scaled == 0}


def test_orthonormality_fails_on_scipys_rule(monkeypatch):
    # scipy's 256-point rule has its end weights off by ~1e-10: the Gram
    # deviation reads 2.2e-12 on it, against 1.5e-14 on the Newton rule
    from scipy.special import roots_legendre

    rule = sb._gauss_rule
    monkeypatch.setattr(sb, "_gauss_rule", lambda n: roots_legendre(n) if n == 256 else rule(n))
    checks, _ = acc.run_criterion(dict(acc.CRITERIA)["c02-orthonormality"])
    verdicts = {c.name: c.passed for c in checks}
    assert verdicts == {"orthonormality-gram-deviation": False,
                        "orthonormality-cross-order": True,
                        "v-normalization-deviation": True,
                        "orthonormality-equator-anchor": True}


def test_orthonormality_fails_on_a_neighbouring_orders_rows(monkeypatch):
    # each order m is handed g_l^{m+1} at its degrees l = m..200, whose
    # first row, g_m^{m+1}, is 0; the top order keeps its own table
    genuine = sb._degree_tables

    def neighbouring(m_lo, m_hi, ell_max, x):
        tables = genuine(m_lo, m_hi, ell_max, x)
        m, table = next(tables)
        for above, upper in tables:
            shifted = np.zeros_like(table)
            shifted[1:] = upper
            yield m, shifted
            m, table = above, upper.copy()
        yield m, table

    monkeypatch.setattr(sb, "_degree_tables", neighbouring)
    checks, _ = acc.run_criterion(dict(acc.CRITERIA)["c02-orthonormality"])
    verdicts = {c.name: c.passed for c in checks}
    # the cross-order line cannot fail on normalized rows: every sampled
    # pair has 0 < |m_a - m_b| <= 200 < 403 azimuthal nodes, so its factor
    # mean(exp(i (m_a - m_b) phi)) is roundoff, ~1e-17, and every entry is
    # below 1e-15 whatever the rows (1.1e-15 here); g_l^{m+1}(0) = 0 where
    # l - m is even, so the equator anchor reads 1
    assert verdicts == {"orthonormality-gram-deviation": False,
                        "orthonormality-cross-order": True,
                        "v-normalization-deviation": True,
                        "orthonormality-equator-anchor": False}


def test_orthonormality_anchor_fails_on_the_order_below(monkeypatch):
    # each order m >= 1 is handed g_l^{m-1} at its degrees l = m..200: one
    # order's rows are orthonormal whichever order they belong to, so only
    # the equator anchor, g_l^{m-1}(0) = 0 where l - m is even, can tell
    genuine = sb._degree_tables

    def order_below(m_lo, m_hi, ell_max, x):
        lower = None
        for m, table in genuine(m_lo, m_hi, ell_max, x):
            yield m, (table if lower is None else lower[1:])
            lower = table.copy()

    monkeypatch.setattr(sb, "_degree_tables", order_below)
    checks, _ = acc.run_criterion(dict(acc.CRITERIA)["c02-orthonormality"])
    verdicts = {c.name: c.passed for c in checks}
    assert verdicts == {"orthonormality-gram-deviation": True,
                        "orthonormality-cross-order": True,
                        "v-normalization-deviation": True,
                        "orthonormality-equator-anchor": False}


@pytest.mark.parametrize("m", [0, 1, 100, 152, 200])  # 152 and up: lifted seeds
def test_half_grid_gram_matches_the_full_grid(m):
    # the 256-node Gram of one order against c02's two same-parity blocks on
    # the nodes x > 0, at twice the weight.  The full grid mirrors those
    # nodes: cos(theta) of the rule's theta nodes is antisymmetric only to
    # ~2e-16, which alone moves the full Gram's cross-parity entries to
    # ~5e-15; mirrored, they are roundoff (measured <= 8.8e-17) and the
    # blocks agree to a few ulps of the unit diagonal (measured 1.2e-15)
    ell_max = 200
    grid = sb.build_grid(256, 2 * ell_max + 3)
    x, w = np.cos(grid.theta_nodes[:128]), grid.theta_weights
    assert np.array_equal(w[:128], w[::-1][:128])
    full = sb.legendre_degree_table(m, ell_max, np.concatenate([x, -x[::-1]]))
    gram = 2.0 * math.pi * (full * w) @ full.T
    half = sb.legendre_degree_table(m, ell_max, x)
    for parity in (0, 1):
        rows = half[parity::2] * np.sqrt(4.0 * math.pi * w[:128])
        np.testing.assert_allclose(gram[parity::2, parity::2], rows @ rows.T,
                                   rtol=0, atol=2e-15)
    assert np.abs(gram[0::2, 1::2]).max(initial=0.0) <= 1e-15


def test_equator_anchors_match_the_per_step_loop():
    checks, _ = acc.run_criterion(dict(acc.CRITERIA)["c03-equator-anchors"])
    measured = tuple(c.measured for c in checks)
    assert measured == equator_anchors_per_step(500)


def test_equator_anchors_hold_one_block_of_steps():
    # one call of normalized_at_zero over every pair peaked at 13.3 MB
    criterion = dict(acc.CRITERIA)["c03-equator-anchors"]
    acc.run_criterion(criterion)  # the closed forms' table is cached
    tracemalloc.start()
    try:
        acc.run_criterion(criterion)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_kuzmin_landau_fails_on_a_smaller_bound(monkeypatch):
    # cot(eps/2) in place of cot(eps/4): the random draws exceed it too
    monkeypatch.setattr(es, "kuzmin_landau_bound", lambda eps: 1.0 / math.tan(eps / 2.0))
    checks, _ = acc.run_criterion(dict(acc.CRITERIA)["c06-kuzmin-landau"])
    assert {c.name: c.passed for c in checks} == {
        "kuzmin-landau-violations": False, "kuzmin-landau-margin-nonnegative": False,
        "kuzmin-landau-family-bound-holds": False, "kuzmin-landau-family-sharpness": True}


@pytest.mark.parametrize("factor", [0.9, 2.0])
def test_kuzmin_landau_resolves_the_bound_both_ways(monkeypatch, factor):
    # the random draws pass 0.9 times the bound and any larger one; the
    # up-then-down family comes within 0.1% of it, so 0.9x breaks the bound
    # on the family and 2x breaks its sharpness
    exact = es.kuzmin_landau_bound
    monkeypatch.setattr(es, "kuzmin_landau_bound", lambda eps: factor * exact(eps))
    checks, _ = acc.run_criterion(dict(acc.CRITERIA)["c06-kuzmin-landau"])
    assert {c.name: c.passed for c in checks} == {
        "kuzmin-landau-violations": True, "kuzmin-landau-margin-nonnegative": True,
        "kuzmin-landau-family-bound-holds": factor > 1.0,
        "kuzmin-landau-family-sharpness": factor < 1.0}


def test_up_then_down_family_matches_its_float_sums():
    # the closed form against the float sum of every member at eps = 1 and
    # at the equality case eps = pi, where K = 2 attains the bound 1
    for eps in (1.0, math.pi):
        for k, closed in enumerate(acc._up_then_down(eps)):
            sums = [abs(np.exp(1j * np.cumsum([0.0] + [eps] * n
                                              + [2.0 * math.pi - eps] * (k - n))).sum())
                    for n in range(k + 1)]
            assert closed == pytest.approx(max(sums), rel=0, abs=1e-12)
    assert acc._up_then_down(math.pi)[2] == pytest.approx(1.0, abs=1e-15)


def test_kss_bounds_hold_fails_on_a_larger_lhs(monkeypatch):
    # lhs / rhs reads 0.79-0.81 at p = 6, so 1.3 times lhs exceeds the rhs;
    # with constants fitted to the measurements the flag would still hold
    exact = sl.kss_bound

    def inflated(*args):
        lhs, rhs = exact(*args)
        return 1.3 * lhs, rhs

    monkeypatch.setattr(sl, "kss_bound", inflated)
    checks, _ = acc.run_criterion(dict(acc.CRITERIA)["c12-kss-compare"])
    assert {c.name: c.passed for c in checks} == {
        "kss-ratio-slope": True, "kss-bounds-hold": False}


def test_suite_aggregate_report(monkeypatch):
    calls = collections.Counter()

    def counted(name, runner):
        def run(cfg):
            calls[name] += 1
            return runner(cfg)
        return run

    for name, runner in list(ex.RUNNERS.items()):
        monkeypatch.setitem(ex.RUNNERS, name, counted(name, runner))
    report = acc.acceptance_suite(echo=None)
    assert report.passed
    assert len(report.checks) >= 13
    # paired criteria (c04/c05, c08/c09) share one runner call
    assert dict(calls) == dict.fromkeys(
        ["weyl", "wkb_accuracy", "phase_sums", "cluster_lower", "schatten_dual",
         "oscillatory_scaling", "kss_compare", "heuristic_compare"], 1)
    data = report.to_json_dict()
    assert data["schema_version"] == 1
