"""Acceptance gate: every stated criterion at its stated tolerance.

One test per entry of ``acc.CRITERIA``, all with the same body: it runs
the criterion through :func:`sclab.acceptance.run_criterion`, prints one
pass/fail line per check (visible with ``pytest -s`` and in captured
output on failure), asserts the checks and the stated runtime budget, and
then the criterion's pin from ``PINS``: the tolerances, counts and names
that the stated criteria fix.  ``sclab check`` runs the same table.
"""

import collections

import pytest

from sclab import acceptance as acc
from sclab import experiments as ex
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
    "c02-orthonormality": ("test_c02_orthonormality", _all_tol(1e-10)),
    "c03-equator-anchors": ("test_c03_equator_anchors", _all_tol(1e-13)),
    "c04-wkb-accuracy": ("test_c04_wkb_accuracy", _tols(
        {"wkb-metric-variation-case2": 3.0, "wkb-metric-variation-caseinf": 3.0})),
    "c05-normalization-constants": ("test_c05_normalization_constants", lambda c: (
        set(c) == {"normalization-constant-spread"})),
    # an exact inequality, no tolerance
    "c06-kuzmin-landau": ("test_c06_kuzmin_landau",
                          lambda c: c["kuzmin-landau-violations"].measured == 0.0),
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
