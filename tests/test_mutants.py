"""Mutation probes: acceptance criteria run on deliberately wrong inputs.

``MUTANTS`` pairs each probe with the criterion it runs and the exact
pass/fail verdict of every check the criterion then gives.  A probe
patches one library function for one run; the checks that see its fault
read False, and the others keep passing, which records what each line
of the criterion cannot see.  ``KNOWN_GAPS`` names every check of the
suite that no probe fails; the census test keeps the two in step.
"""

import dataclasses
import math

import numpy as np
import pytest

from sclab import acceptance as acc
from sclab import expsum as es
from sclab import schatten_lab as sl
from sclab import sphere_basis as sb
from sclab import wkb_engine as wkb


def _scaled(module, name, factor, item=None):
    """Patch: ``module.name`` times ``factor``, or only its result[item]."""
    def patch(monkeypatch):
        exact = getattr(module, name)

        def scaled(*args):
            result = exact(*args)
            if item is None:
                return result * factor
            result = list(result)
            result[item] = result[item] * factor
            return tuple(result)

        monkeypatch.setattr(module, name, scaled)
    return patch


def _scipy_rule(monkeypatch):
    # scipy's 256-point rule has its end weights off by ~1e-10: the Gram
    # deviation reads 2.2e-12 on it, against 1.5e-14 on the Newton rule
    from scipy.special import roots_legendre

    rule = sb._gauss_rule
    monkeypatch.setattr(sb, "_gauss_rule", lambda n: roots_legendre(n) if n == 256 else rule(n))


def _neighbouring_orders_rows(monkeypatch):
    # each order m is handed g_l^{m+1} at its degrees l = m..200, whose
    # first row, g_m^{m+1}, is 0; the top order keeps its own table.  The
    # cross-order line cannot fail on normalized rows: every sampled pair
    # has 0 < |m_a - m_b| <= 200 < 403 azimuthal nodes, so its factor
    # mean(exp(i (m_a - m_b) phi)) is roundoff, ~1e-17, and every entry is
    # below 1e-15 whatever the rows (1.1e-15 here); g_l^{m+1}(0) = 0 where
    # l - m is even, so the equator anchor reads 1
    genuine = sb._order_column

    def neighbouring(ell_max, x):
        above = None  # the table of order m + 1, which comes first
        for m, table in genuine(ell_max, x):
            if above is None:
                yield m, table
            else:
                shifted = np.zeros_like(table)
                shifted[1:] = above
                yield m, shifted
            above = table.copy()

    monkeypatch.setattr(sb, "_order_column", neighbouring)


def _order_below(monkeypatch):
    # each order m >= 1 is handed g_l^{m-1} at its degrees l = m..200: one
    # order's rows are orthonormal whichever order they belong to, so only
    # the equator anchor, g_l^{m-1}(0) = 0 where l - m is even, can tell
    genuine = sb._order_column

    def order_below(ell_max, x):
        held = None  # (m, table) of the order above, handed the next table
        for m, table in genuine(ell_max, x):
            if held is not None:
                yield held[0], table[1:]
            held = m, table.copy()
        yield held

    monkeypatch.setattr(sb, "_order_column", order_below)


def _weyl_count_grown(monkeypatch):
    # the count times lambda^0.05: a slope of 2.05 and a coefficient of
    # 300^0.05 = 1.33 at the top of the sweep
    exact = sb.weyl_count
    monkeypatch.setattr(sb, "weyl_count", lambda lam: exact(lam) * lam**0.05)


def _matching_constants_grown(monkeypatch):
    # c times l^0.03 in every profile: the metric |v - c y| |Q|^(1/4) / |c|
    # then reads ~1 - l^-0.03, and times r it grows by 4.1 over l = 100..800
    # in both windows, against a cap of 3 (1.7 and 1.2 unchanged)
    exact = wkb.matching_constants
    monkeypatch.setattr(wkb, "matching_constants", lambda ell, ms: exact(ell, ms) * ell**0.03)


def _paraboloid(change):
    """Patch: ``paraboloid_model``'s model at each call passed through ``change``."""
    def patch(monkeypatch):
        exact = sl.paraboloid_model

        def changed(lam, points_per_wavelength=10.0, refine=1):
            return change(exact, lam, points_per_wavelength, refine)

        monkeypatch.setattr(sl, "paraboloid_model", changed)
    return patch


def _gram_grown(exact, lam, points_per_wavelength, refine):
    # every Gram block times lambda^0.2: the singular values times
    # lambda^0.1.  Scaled on the model, not in gram_singular_values, which
    # kss_bound calls too
    model = exact(lam, points_per_wavelength, refine)
    return dataclasses.replace(model, gram=tuple(g * lam**0.2 for g in model.gram))


def _three_points_per_wavelength(exact, lam, points_per_wavelength, refine):
    return exact(lam, 3.0, refine)


def _v_values_scaled(monkeypatch):
    # v off by 1e-10 relative: int |v|^2 off by 2e-10 / (2 pi) ~ 3e-11
    exact = sb.legendre_band

    def scaled(*args):
        table = exact(*args)
        return dataclasses.replace(table, values_v=table.values_v * (1.0 + 1e-10))

    monkeypatch.setattr(sb, "legendre_band", scaled)


def _cot_half(monkeypatch):
    # cot(eps/2) in place of cot(eps/4): the random draws exceed it too
    monkeypatch.setattr(es, "kuzmin_landau_bound", lambda eps: 1.0 / math.tan(eps / 2.0))


C01 = ("weyl-count-slope", "weyl-leading-coefficient")
C02 = ("orthonormality-gram-deviation", "orthonormality-cross-order",
       "v-normalization-deviation", "orthonormality-equator-anchor")
C03 = ("equator-value-agreement", "equator-derivative-agreement")
C04 = ("wkb-metric-variation-case2", "wkb-error-functional-variation-case2",
       "wkb-metric-variation-caseinf", "wkb-error-functional-variation-caseinf",
       "normalization-constant-spread")
C06 = ("kuzmin-landau-violations", "kuzmin-landau-margin-nonnegative",
       "kuzmin-landau-family-bound-holds", "kuzmin-landau-family-sharpness")
C07 = ("phase-sum-variation-case2", "phase-sum-flags-case2",
       "phase-sum-variation-caseinf", "phase-sum-flags-caseinf",
       "phase-sum-matches-exp-sum")
C11 = ("oscillatory-paraboloid-variation", "oscillatory-resolution-validated")
C12 = ("kss-ratio-slope", "kss-bounds-hold")


def _failing(names, *failed):
    """The verdict dict in which exactly the ``failed`` checks of ``names`` fail."""
    assert set(failed) <= set(names)
    return {name: name not in failed for name in names}


# probe -> (criterion, patch, verdict of every check of the criterion)
MUTANTS = {
    "c01-count-grown": ("c01-weyl", _weyl_count_grown,
                        _failing(C01, "weyl-count-slope", "weyl-leading-coefficient")),
    "c02-scipy-rule": ("c02-orthonormality", _scipy_rule,
                       _failing(C02, "orthonormality-gram-deviation")),
    "c02-neighbouring-orders-rows": ("c02-orthonormality", _neighbouring_orders_rows,
                                     _failing(C02, "orthonormality-gram-deviation",
                                              "orthonormality-equator-anchor")),
    "c02-order-below": ("c02-orthonormality", _order_below,
                        _failing(C02, "orthonormality-equator-anchor")),
    "c02-v-values-scaled": ("c02-orthonormality", _v_values_scaled,
                            _failing(C02, "v-normalization-deviation")),
    "c03-values-scaled": ("c03-equator-anchors",
                          _scaled(sb, "normalized_at_zero", 1.0 + 1e-12, item=0),
                          _failing(C03, "equator-value-agreement")),
    "c03-derivatives-scaled": ("c03-equator-anchors",
                               _scaled(sb, "normalized_at_zero", 1.0 + 1e-12, item=1),
                               _failing(C03, "equator-derivative-agreement")),
    # the spread of |c|^2 / l over both windows moves by 800^0.06 / 100^0.06
    # = 1.13, inside c05's cap; the error functional does not read c
    "c04-matching-constants-grown": ("c04-wkb-accuracy", _matching_constants_grown,
                                     _failing(C04, "wkb-metric-variation-case2",
                                              "wkb-metric-variation-caseinf")),
    "c06-cot-half": ("c06-kuzmin-landau", _cot_half,
                     _failing(C06, "kuzmin-landau-violations",
                              "kuzmin-landau-margin-nonnegative",
                              "kuzmin-landau-family-bound-holds")),
    # the random draws pass 0.9 times the bound and any larger one; the
    # up-then-down family comes within 0.1% of it, so 0.9x breaks the bound
    # on the family and 2x breaks its sharpness
    "c06-bound-0.9x": ("c06-kuzmin-landau", _scaled(es, "kuzmin_landau_bound", 0.9),
                       _failing(C06, "kuzmin-landau-family-bound-holds")),
    "c06-bound-2x": ("c06-kuzmin-landau", _scaled(es, "kuzmin_landau_bound", 2.0),
                     _failing(C06, "kuzmin-landau-family-sharpness")),
    # |sum| / bound reads up to 0.83-0.94 at c07's degrees with even r, and
    # 1 - ~1e-13 at theta = 0 with odd r (l = 200 and 700), the equality
    # case, so both flag lines fail at 0.9x; the tie-back's angle reads < 0.9
    "c07-bound-0.9x": ("c07-phase-sums", _scaled(es, "kuzmin_landau_bound", 0.9),
                       _failing(C07, "phase-sum-flags-case2", "phase-sum-flags-caseinf")),
    # the per-order action integrals are the tie-back's independent route;
    # the cluster sums take S in closed form
    "c07-action-integral-scaled": ("c07-phase-sums",
                                   _scaled(wkb, "action_integral", 1.0 + 1e-9),
                                   _failing(C07, "phase-sum-matches-exp-sum")),
    "c07-closed-action-scaled": ("c07-phase-sums",
                                 _scaled(wkb, "_closed_action", 1.0 + 1e-10),
                                 _failing(C07, "phase-sum-matches-exp-sum")),
    # lambda^(1/3) ||sigma||_6 grows by 16^0.1 = 1.32 over lambda = 4..64;
    # the doubling check compares two models scaled alike
    "c11-gram-grown": ("c11-oscillatory-scaling", _paraboloid(_gram_grown),
                       _failing(C11, "oscillatory-paraboloid-variation")),
    "c11-three-points-per-wavelength": ("c11-oscillatory-scaling",
                                        _paraboloid(_three_points_per_wavelength),
                                        _failing(C11, "oscillatory-resolution-validated")),
    # lhs / rhs reads 0.79-0.81 at p = 6, so 1.3 times lhs exceeds the rhs;
    # with constants fitted to the measurements the flag would still hold
    "c12-lhs-1.3x": ("c12-kss-compare", _scaled(sl, "kss_bound", 1.3, item=0),
                     _failing(C12, "kss-bounds-hold")),
}


# Non-runtime checks of the suite that no entry of MUTANTS fails.  An entry
# leaves only when a mutant that fails its check joins the table, and
# nothing joins it: a new check comes with its mutant.
KNOWN_GAPS = (
    "c02-orthonormality:orthonormality-cross-order",
    "c04-wkb-accuracy:wkb-error-functional-variation-case2",
    "c04-wkb-accuracy:wkb-error-functional-variation-caseinf",
    "c04-wkb-accuracy:normalization-constant-spread",
    "c05-normalization-constants:normalization-constant-spread",
    "c07-phase-sums:phase-sum-variation-case2",
    "c07-phase-sums:phase-sum-variation-caseinf",
    "c08-optimality-slopes:lower-slope-case2-p2.0",
    "c08-optimality-slopes:lower-slope-case2-p4.0",
    "c08-optimality-slopes:lower-slope-case2-p6.0",
    "c08-optimality-slopes:lower-slope-caseinf-p6.0",
    "c08-optimality-slopes:lower-slope-caseinf-p8.0",
    "c08-optimality-slopes:lower-slope-caseinf-pinf",
    "c08-optimality-slopes:triangle-gap-slope",
    "c09-pointwise-windows:window-constants-positive",
    "c09-pointwise-windows:window-constant-variation-case2",
    "c09-pointwise-windows:window-constant-variation-caseinf",
    "c09-pointwise-windows:concentration-case2-p6.0",
    "c09-pointwise-windows:concentration-caseinf-p8.0",
    "c10-dual-schatten:dual-ratio-tail-p4.0",
    "c10-dual-schatten:dual-ratio-tail-p6.0",
    "c10-dual-schatten:dual-ratio-tail-p10.0",
    "c12-kss-compare:kss-ratio-slope",
    "c13-heuristic-compare:heuristic-ratio-inf-ell200",
    "c13-heuristic-compare:heuristic-ratio-2-ell200",
    "c13-heuristic-compare:heuristic-ratio-inf-ell400",
    "c13-heuristic-compare:heuristic-ratio-2-ell400",
)


def test_every_check_fails_under_a_mutant_or_is_a_known_gap():
    # a check is named "criterion:check", as acceptance_suite reports it
    report = acc.acceptance_suite(echo=None)
    checks = [c.name for c in report.checks if not c.name.endswith("-runtime-seconds")]
    failed = {f"{label}:{name}" for label, _, verdicts in MUTANTS.values()
              for name, passed in verdicts.items() if not passed}
    assert len(set(KNOWN_GAPS)) == len(KNOWN_GAPS)
    assert not failed & set(KNOWN_GAPS), "a gap a mutant fails: take it off KNOWN_GAPS"
    assert set(KNOWN_GAPS) <= set(checks), "a gap the suite no longer emits"
    assert set(checks) - failed == set(KNOWN_GAPS)


@pytest.mark.parametrize("probe", list(MUTANTS))
def test_mutant_verdicts(monkeypatch, probe):
    label, patch, verdicts = MUTANTS[probe]
    patch(monkeypatch)
    checks, _ = acc.run_criterion(dict(acc.CRITERIA)[label])
    assert {c.name: c.passed for c in checks} == verdicts
