import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import lpmv, gammaln, roots_legendre

from sclab import sphere_basis as sb
from sclab.wkb_engine import band_radius, case_interval, case_window, q_potential

from _oracles import (double_factorial, gauss_legendre_node_mp,
                      gauss_legendre_recurrence_rule, normalized_legendre_mp,
                      ylm_matrix)


# ---------------------------------------------------------------------------
# Band evaluation
# ---------------------------------------------------------------------------

def test_v11_at_zero_closed_form():
    table = sb.legendre_band(1, 1, 1, np.array([0.0]))
    expected = -math.sqrt(3.0 / (8.0 * math.pi))  # -0.3454941494713355
    assert table.values_v[0, 0] == pytest.approx(expected, rel=1e-14)


def test_v21_vanishes_by_parity():
    table = sb.legendre_band(2, 1, 1, np.array([0.0]))
    assert table.values_v[0, 0] == 0.0


def test_band_matches_extended_precision_recurrence():
    # frozen from _oracles.normalized_legendre_mp at 50 digits
    table = sb.legendre_band(50, 30, 30, np.array([0.3]))
    assert table.values_v[0, 0] == pytest.approx(0.3187647240771748, rel=1e-11)
    live = float(normalized_legendre_mp(30, 50, math.sin(0.3)))
    assert table.values_g[0, 0] == pytest.approx(live, rel=1e-11)


def test_g_value_against_oracle_at_colatitude():
    # g_50^30(0.3) = normalized value at cos(0.3); frozen from the oracle
    row = sb.legendre_row(30, 50, np.array([math.cos(0.3)]))
    assert row[0] == pytest.approx(6.627371146843186e-08, rel=1e-11)


@pytest.mark.parametrize("ell", [3, 7, 12, 25])
def test_band_matches_scipy_lpmv(ell):
    thetas = np.linspace(-1.2, 1.2, 9)
    table = sb.legendre_band(ell, 0, ell, thetas)
    for i, m in enumerate(range(ell + 1)):
        log_norm = 0.5 * (math.log(2 * ell + 1) - math.log(4 * math.pi)
                          + gammaln(ell - m + 1) - gammaln(ell + m + 1))
        ref = math.exp(log_norm) * lpmv(m, ell, np.sin(thetas))
        assert np.allclose(table.values_g[i], ref, rtol=1e-10, atol=1e-13)


@given(st.integers(0, 60), st.integers(0, 60), st.floats(0.05, 1.4))
def test_v_parity(ell, m, theta):
    ell, m = max(ell, m), min(ell, m)
    table = sb.legendre_band(ell, m, m, np.array([-theta, theta]))
    left, right = table.values_v[0]
    sign = 1.0 if (ell + m) % 2 == 0 else -1.0
    assert left == pytest.approx(sign * right, rel=1e-12, abs=1e-12)


def test_band_rejects_bad_orders_and_nodes():
    with pytest.raises(ValueError):
        sb.legendre_band(3, 0, 4, np.array([0.1]))
    with pytest.raises(ValueError):
        sb.legendre_band(3, 2, 1, np.array([0.1]))
    with pytest.raises(ValueError):
        sb.legendre_band(3, 0, 1, np.array([math.pi / 2]))
    with pytest.raises(ValueError):
        sb.legendre_row(2, 5, np.array([1.0]))


def _normal_seed(m, x):
    """Where the per-order recurrence starts from a normal double."""
    return np.abs(sb._seed_values(m, x)) >= np.finfo(float).tiny


@pytest.mark.parametrize("ell", [100, 405, 975, 2400])
@pytest.mark.parametrize("case", ["2", "inf"])
def test_order_band_matches_per_order_recurrence(ell, case):
    thetas = math.pi / 2 - sb.build_grid(4 * ell).theta_nodes
    window = case_window(ell, band_radius(ell), case)
    table = sb.legendre_band(ell, int(window[0]), int(window[-1]), thetas)
    x = np.sin(thetas)
    oracle = np.stack([sb.legendre_row(int(m), ell, x) for m in window])
    # g has zeros only where its order is classically allowed (Q < 0); there
    # the error is measured against the row's maximum, elsewhere pointwise
    allowed = np.stack([q_potential(ell, int(m), thetas) < 0 for m in window])
    scale = np.where(allowed, np.abs(oracle).max(axis=1, keepdims=True),
                     np.abs(oracle))
    # a subnormal seed leaves the oracle with fewer bits than the band, whose
    # seeds are lifted; those entries are checked against mpmath below
    seeded = np.stack([_normal_seed(int(m), x) for m in window])
    kept = (np.abs(oracle) > 1e-250 * np.abs(oracle).max()) & seeded
    err = np.abs(table.values_g - oracle)[kept] / scale[kept]
    assert err.max() <= 1e-10
    assert table.underflow_nodes == np.count_nonzero(~seeded[-1])


def test_lifted_band_is_exact_where_per_order_seeds_underflow():
    ell = 2400
    thetas = math.pi / 2 - sb.build_grid(4 * ell).theta_nodes
    window = case_window(ell, band_radius(ell), "2")
    table = sb.legendre_band(ell, int(window[0]), int(window[-1]), thetas)
    x = np.sin(thetas)
    seeded = np.stack([_normal_seed(int(m), x) for m in window])
    rows, cols = np.nonzero(~seeded & (np.abs(table.values_g) > 1e-300))
    assert rows.size > 1000
    for k in np.linspace(0, rows.size - 1, 8).astype(int):
        i, j = rows[k], cols[k]
        exact = float(normalized_legendre_mp(int(window[i]), ell, x[j]))
        assert abs(table.values_g[i, j] / exact - 1) <= 1e-10


def test_full_band_near_pole_restarts_instead_of_reading_zero():
    ell = 400
    theta = math.pi / 2 - sb.build_grid(4 * ell).theta_nodes[:1]
    x = np.sin(theta)
    assert sb.legendre_row(ell, ell, x)[0] == 0.0  # the top seed underflows
    table = sb.legendre_band(ell, 0, ell, theta)
    g = table.values_g[:, 0]
    oracle = np.array([sb.legendre_row(m, ell, x)[0] for m in range(ell + 1)])
    seeded = np.array([_normal_seed(m, x)[0] for m in range(ell + 1)])
    assert table.underflow_nodes == 1
    assert seeded.sum() > 50
    assert np.all(np.abs(g[seeded] / oracle[seeded] - 1) <= 1e-10)
    # where the per-order seeds underflow, the lifted band keeps reading the
    # true values until they leave the normal range themselves
    last = int(np.flatnonzero(np.abs(g) >= np.finfo(float).tiny)[-1])
    assert last > seeded.sum() + 20
    for m in (int(seeded.sum()) + 5, last):
        assert abs(g[m] / float(normalized_legendre_mp(m, ell, x[0])) - 1) <= 1e-12
    assert abs(normalized_legendre_mp(last + 1, ell, x[0])) < np.finfo(float).tiny


def _band_with_fallback(ell, case, x):
    """Top row of the case's order band on x, and where it fell back.

    The fallback nodes are those on which the band ran the degree
    recurrence of its top order itself.
    """
    window = case_window(ell, band_radius(ell), case)
    m_hi = int(window[-1])
    fallback = []
    last_rows = sb._last_rows

    def recorded(m, ell, xs, shift=0):
        if m == m_hi:
            fallback.append(xs)
        return last_rows(m, ell, xs, shift)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sb, "_last_rows", recorded)
        values, _ = sb._order_band(ell, int(window[0]), m_hi, x)
    return m_hi, values[-1], np.isin(x, np.concatenate([np.empty(0), *fallback]))


@pytest.mark.parametrize("ell", [975, 2400])
@pytest.mark.parametrize("case", ["2", "inf"])
def test_derived_top_row_against_mpmath(ell, case):
    theta = sb.build_grid(4 * ell).theta_nodes
    x = np.cos(theta)
    m_hi, top, fallback = _band_with_fallback(ell, case, x)
    allowed = q_potential(ell, m_hi, math.pi / 2 - theta) < 0
    normal = np.abs(top) >= np.finfo(float).tiny
    row_max = np.abs(top).max()
    # case "2" has no fallback node on these grids (its top row has no zero
    # close enough to a node, and no forbidden-zone cancellation)
    assert fallback.any() == (case == "inf")
    kinds = (allowed & ~fallback, ~allowed & ~fallback & normal, fallback & normal)
    for nodes in (np.flatnonzero(kind) for kind in kinds if kind.any()):
        for j in nodes[np.linspace(0, nodes.size - 1, 6).astype(int)]:
            exact = float(normalized_legendre_mp(m_hi, ell, x[j]))
            # g has zeros where allowed: there the error is measured against
            # the row's maximum, elsewhere pointwise (at most 7.0e-12 here)
            scale = row_max if allowed[j] else abs(exact)
            assert abs(top[j] - exact) <= 2e-11 * scale


@pytest.mark.parametrize("ell", [975, 2400])
def test_cancellation_fallback_fires_near_the_poles_on_few_nodes(ell):
    theta = sb.build_grid(4 * ell).theta_nodes
    m_hi, _, fallback = _band_with_fallback(ell, "inf", np.cos(theta))
    forbidden = q_potential(ell, m_hi, math.pi / 2 - theta) >= 0
    # where g_l^m_hi is forbidden, the identity's two terms cancel next to
    # the poles; in the allowed zone it falls back only next to a zero of g
    assert np.count_nonzero(fallback & forbidden) >= 10
    assert np.all(np.abs(np.cos(theta[fallback & forbidden])) > 0.99)
    assert np.count_nonzero(fallback) <= 0.02 * theta.size


def _wkb_nodes(ell, case, n=1001):
    """The case's window, its WKB profile grid, and x = cos(colatitude) there."""
    r = band_radius(ell)
    thetas = np.linspace(*case_interval(ell, r, case), n)
    return case_window(ell, r, case), thetas, np.sin(thetas)


def _upward_error(ell, m, x, row, sample):
    """Worst |row - exact| on the sampled nodes, in units of the row's maximum.

    The maximum is that of the degree recurrence's row on all of x.
    """
    exact = np.array([float(normalized_legendre_mp(m, ell, x[j])) for j in sample])
    return np.abs(row[sample] - exact).max() / np.abs(sb.legendre_row(m, ell, x)).max()


@pytest.mark.parametrize("ell", [400, 1600])
@pytest.mark.parametrize("case", ["2", "inf"])
def test_upward_band_against_mpmath(ell, case):
    window, _, x = _wkb_nodes(ell, case)
    m_lo, m_hi = int(window[0]), int(window[-1])
    band = sb._upward_band(ell, m_lo, m_hi, x)
    # both interval ends and their neighbours, the centre, and between
    sample = [0, 1, 137, 250, 499, 500, 501, 777, 999, 1000]
    for i in (0, m_hi - m_lo):
        assert _upward_error(ell, m_lo + i, x, band[i], sample) <= 1e-12


@pytest.mark.parametrize("past,passes", [(1.0, True), (1.1, False)])
def test_upward_gate_fails_past_the_turning_point(past, passes):
    # nodes from (l + 1/2) sin(theta) = m / past to the equator: at past = 1
    # every node is oscillatory; at 1.1 the outermost lie 10% beyond the
    # turning point, where the upward sweep follows the wrong solution
    ell, m = 1600, 400
    edge = math.sqrt(1.0 - (m / past / (ell + 0.5)) ** 2)
    x = np.linspace(-edge, edge, 1001)
    row = sb._upward_band(ell, m, m, x)[0]
    assert (_upward_error(ell, m, x, row, [0, 1, 500, 999, 1000]) <= 1e-12) == passes


def _degree_recurrence_calls(band):
    """How many degree recurrences ``band()`` runs, and its result."""
    calls = []
    last_rows = sb._last_rows

    def counted(*args):
        calls.append(args)
        return last_rows(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sb, "_last_rows", counted)
        result = band()
    return len(calls), result


@pytest.mark.parametrize("ell", [400, 1600])
def test_upward_route_is_taken_only_by_oscillatory_bands(ell):
    for case, degree_route in (("inf", False), ("2", True)):
        window, thetas, _ = _wkb_nodes(ell, case)
        for m in (int(window[0]), int(window[-1])):
            calls, _ = _degree_recurrence_calls(
                lambda: sb.legendre_band(ell, m, m, thetas))
            assert (calls > 0) == degree_route
    # a case-"inf" window on a Gauss grid: its nodes next to the poles are
    # in the forbidden zone of every order but 0
    window = case_window(ell, band_radius(ell), "inf")
    x = np.cos(sb.build_grid(4 * ell).theta_nodes)
    calls, _ = _degree_recurrence_calls(
        lambda: sb._order_band(ell, int(window[0]), int(window[-1]), x))
    assert calls > 0


@pytest.mark.parametrize("ell", [400, 1600])
def test_upward_band_rows_are_its_one_order_rows(ell):
    window, thetas, _ = _wkb_nodes(ell, "inf")
    calls, table = _degree_recurrence_calls(
        lambda: sb.legendre_band(ell, int(window[0]), int(window[-1]), thetas))
    assert calls == 0
    for i, m in enumerate(window.tolist()):
        alone = sb.legendre_band(ell, m, m, thetas).values_g[0]
        assert np.array_equal(table.values_g[i], alone)


def test_single_row_lifts_an_underflowing_seed():
    ell, m, x = 1600, 533, np.array([-0.970])
    assert sb._seed_values(m, x)[0] == 0.0  # sin(theta)^533 ~ 1e-327
    row = sb.legendre_row(m, ell, x)
    assert np.array_equal(row, sb._order_band(ell, m, m, x)[0][0])
    exact = float(normalized_legendre_mp(m, ell, x[0]))  # 7.23e-38
    assert abs(row[0] / exact - 1) <= 1e-12


def test_central_binomial_entries_do_not_depend_on_the_table_size():
    small, large = sb._central_binomial_table(1024), sb._central_binomial_table(65536)
    assert np.array_equal(small, large[:1024])


@pytest.mark.parametrize("m", [376, 1000, 2346, 6400])
def test_seed_constant_against_mpmath(m):
    import mpmath as mp

    with mp.workdps(40):
        exact = mp.log(mp.sqrt((2 * m + 1) / (4 * mp.pi) * mp.factorial(2 * m))
                       / (2**m * mp.factorial(m)))
        # through gammaln this was off by 1.1e-12 (m = 376), 2.7e-15 (1000),
        # 1.3e-12 (2346) and 1.9e-11 (6400)
        assert abs(float(sb._seed_log_magnitude(m, np.zeros(1))[0] - exact)) <= 1e-15


def test_degree_table_lifts_an_underflowing_seed():
    m, ell, x = 533, 1600, np.array([-0.970])
    table = sb.legendre_degree_table(m, ell, x)
    assert np.array_equal(table[-1], sb.legendre_row(m, ell, x))
    exact = float(normalized_legendre_mp(m, ell, x[0]))  # 7.23e-38
    assert abs(table[-1, 0] / exact - 1) <= 1e-12


def test_degree_table_matches_single_rows():
    x = np.linspace(-0.9, 0.9, 5)
    table = sb.legendre_degree_table(4, 40, x)
    for ell in (4, 17, 40):
        assert np.array_equal(table[ell - 4], sb.legendre_row(4, ell, x))


@pytest.mark.parametrize("ell", [0, 1, 2, 5, 40, 127])
def test_order_column_matches_one_order_recurrences(ell):
    x = np.cos(sb.build_grid(256).theta_nodes)
    orders = np.arange(ell + 1)[:, None]
    alone = [sb._degree_rows(m, ell, x, sb._seed_values(m, x)) for m in range(ell + 1)]
    column = sb._degree_rows(orders, ell, x, sb._seed_values(orders, x))
    for step, rows in enumerate(column):
        for m in range(ell + 1 - step):  # orders not yet past degree ell
            assert np.array_equal(rows[m], next(alone[m]))
    assert step == ell
    assert all(next(gen, None) is None for gen in alone)
    assert np.array_equal(sb.radial_rows(ell, x), _signed_band(ell, x))


def _signed_band(ell, x):
    """Rows of orders -ell..ell from the order band 0..ell, Condon-Shortley signed."""
    band = sb._order_band(ell, 0, ell, x)[0]
    sign = np.where(np.arange(ell, 0, -1) % 2, -1.0, 1.0)[:, None]
    return np.concatenate([sign * band[:0:-1], band])


@pytest.mark.parametrize("ell", [100, 400])
def test_radial_rows_against_mpmath(ell):
    x = np.append(np.cos(sb.build_grid(ell + 12).theta_nodes), 0.0)  # the equator last
    rows = sb.radial_rows(ell, x)[ell:]
    for m in (0, ell // 2, ell - 2, ell - 1, ell):
        peak = np.abs(rows[m]).max()
        for i in (0, x.size // 4, x.size - 2, x.size - 1):  # both outermost nodes
            exact = float(normalized_legendre_mp(m, ell, x[i]))
            assert abs(rows[m, i] - exact) <= 1e-12 * peak, (m, i)


def test_ode_residual_second_order_convergence():
    # centered second difference of v against Q v, halving the step
    ell, m = 30, 12
    sups = []
    for n in (400, 800):
        thetas = np.linspace(-1.0, 1.0, n + 1)
        h = thetas[1] - thetas[0]
        v = sb.legendre_band(ell, m, m, thetas).values_v[0]
        q = (m * m - 0.25) / np.cos(thetas) ** 2 - 0.25 - ell * (ell + 1.0)
        resid = -(v[2:] - 2 * v[1:-1] + v[:-2]) / h**2 + q[1:-1] * v[1:-1]
        sups.append(np.max(np.abs(resid)))
    ratio = sups[0] / sups[1]
    assert 3.0 < ratio < 5.0  # h -> h/2 shrinks the defect ~4x
    scale = (ell * (ell + 1.0)) ** 2 * np.max(np.abs(
        sb.legendre_band(ell, m, m, np.linspace(-1, 1, 801)).values_v[0]))
    assert sups[1] <= 1.0 * (2.0 / 800) ** 2 * scale


# ---------------------------------------------------------------------------
# Gauss rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 12, 65, 306, 999, 1000])
def test_small_gauss_rules_are_scipy_bit_for_bit(n):
    nodes, weights = sb._gauss_rule(n)
    ref_nodes, ref_weights = roots_legendre(n)
    assert np.array_equal(nodes, ref_nodes)
    assert np.array_equal(weights, ref_weights)


def _recurrence_nodes_per_half(n):
    """Nodes per half of the n-point rule at which the series gives way."""
    theta = np.arccos(sb._gauss_rule(n)[0][n // 2:])
    return int(np.count_nonzero((n + 0.5) * np.sin(theta) < sb._SERIES_MIN_RHO_SIN))


def _mpmath_errors(n, nodes, weights):
    """Worst node (absolute) and weight (relative) error against mpmath.

    Sampled at the two outermost nodes, where 1 - x^2 cancels, the last
    recurrence node and the first series node on each side of the rule,
    and three interior nodes.
    """
    r = _recurrence_nodes_per_half(n)
    sample = (n - 1, n - 2, n - r, n - r - 1, r - 1, r,
              (4 * n) // 5, (2 * n) // 3, n // 2)
    node_err = weight_err = 0.0
    for i in sample:
        node, weight = gauss_legendre_node_mp(n, nodes[i])
        node_err = max(node_err, float(abs(node - nodes[i])))
        weight_err = max(weight_err, float(abs(weights[i] / weight - 1)))
    return node_err, weight_err


@pytest.mark.parametrize("n", [1001, 4096, 9600, 20000])
def test_large_gauss_rule_against_mpmath(n):
    nodes, weights = sb._gauss_rule(n)
    assert np.all(np.diff(nodes) > 0)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert abs(math.fsum(weights) - 2.0) <= 1e-14
    node_err, weight_err = _mpmath_errors(n, nodes, weights)
    assert node_err <= 4e-16
    assert weight_err <= 1e-13


@pytest.mark.parametrize("mutate", ["constant", "terms", "switch"])
def test_mpmath_weight_gate_fails_on_a_broken_series(monkeypatch, mutate):
    # dropping the last series term, or even twenty of them, moves no weight
    # by 1e-13 (the tail is ~1e-16 where the series starts), so the
    # mutations are the smallest of each kind that the gate resolves
    if mutate == "constant":
        constant = sb._series_constant
        monkeypatch.setattr(sb, "_series_constant", lambda n: constant(n) * (1 + 1e-12))
    elif mutate == "terms":
        monkeypatch.setattr(sb, "_SERIES_TERMS", 14)
    else:  # the series at every node, the poles included
        monkeypatch.setattr(sb, "_SERIES_MIN_RHO_SIN", 0.0)
    n = 1001
    nodes, weights = sb._newton_rule(n)
    monkeypatch.undo()  # the sample is chosen with the real switch
    assert _mpmath_errors(n, nodes, weights)[1] > 1e-13


@pytest.mark.parametrize("n", [1001, 1002, 4097, 9600])
def test_large_gauss_rule_matches_recurrence_at_every_node(n):
    nodes, weights = sb._gauss_rule(n)
    ref_nodes, ref_weights = gauss_legendre_recurrence_rule(n)
    assert np.abs(nodes - ref_nodes).max() <= 5e-16
    assert np.abs(weights / ref_weights - 1).max() <= 1e-13


@pytest.mark.parametrize("n", [1001, 4096, 25600])
def test_interior_series_matches_recurrence(n):
    rho = n + 0.5
    # from the switch itself, where the truncation bound is 2^-53, to pi/2,
    # on multiples of the rule's q so that rho * theta is exact
    q = math.ldexp(1.0, math.frexp(2 * n + 1)[1] - 52)
    theta = np.linspace(math.asin(sb._SERIES_MIN_RHO_SIN / rho), math.pi / 2, 41)
    theta = np.round(theta / q) * q
    p, dp = sb._legendre_interior(n, theta)
    ref_p, ref_dp = sb._legendre_theta(n, theta)
    # P_n(cos theta) has condition ~rho theta in theta, and the recurrence
    # rounds 2 sin^2(theta/2): the two agree to a few 2^-53 rho theta of
    # the amplitude C_n / sqrt(2 sin theta) (measured: at most 1.24)
    tol = 4.0 * 2.0**-53 * rho * theta * sb._series_constant(n) / np.sqrt(2.0 * np.sin(theta))
    assert np.all(np.abs(p - ref_p) <= tol)
    assert np.all(np.abs(dp - ref_dp) <= rho * tol)


@pytest.mark.parametrize("n", [1001, 9600, 51200])
def test_series_constant_against_mpmath(n):
    import mpmath as mp

    with mp.workdps(30):
        exact = 2 / mp.sqrt(mp.pi) * mp.gamma(n + 1) / mp.gamma(n + mp.mpf(3) / 2)
        assert float(abs(sb._series_constant(n) / exact - 1)) <= 1e-15


@pytest.mark.parametrize("n", [1001, 4097, 25600, 51200])
def test_recurrence_runs_on_a_fixed_number_of_nodes(monkeypatch, n):
    sizes = []
    recurrence = sb._legendre_theta

    def counted(n, theta):
        sizes.append(theta.size)
        return recurrence(n, theta)

    monkeypatch.setattr(sb, "_legendre_theta", counted)
    sb._newton_rule(n)
    assert sizes == [5]  # j_{0,5} = 14.9 < 17.7 < j_{0,6} = 18.1


# ---------------------------------------------------------------------------
# Normalization and orthogonality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ell,m", [(5, 2), (50, 20), (137, 136), (200, 0)])
def test_g_normalization(ell, m):
    grid = sb.build_grid(max(ell + 8, 32))
    row = sb.legendre_row(m, ell, np.cos(grid.theta_nodes))
    integral = 2.0 * math.pi * np.dot(grid.theta_weights, row * row)
    assert integral == pytest.approx(1.0, abs=1e-10)


def test_v_gram_diagonal_and_parity_zeros():
    ell = 12
    nodes, wts = np.polynomial.legendre.leggauss(2 * ell + 64)
    thetas, weights = nodes * math.pi / 2, wts * math.pi / 2
    table = sb.legendre_band(ell, 0, ell, thetas)
    gram = (table.values_v * weights) @ table.values_v.T
    diag = np.diag(gram)
    assert np.allclose(diag, 1.0 / (2.0 * math.pi), atol=1e-9)
    for m in range(ell):  # opposite parity pairs vanish identically
        assert abs(gram[m, m + 1]) < 1e-13


def test_v_products_same_parity_not_orthogonal():
    # same-parity off-diagonal entries are genuinely nonzero at fixed degree
    ell = 2
    nodes, wts = np.polynomial.legendre.leggauss(64)
    thetas, weights = nodes * math.pi / 2, wts * math.pi / 2
    table = sb.legendre_band(ell, 0, 2, thetas)
    entry = np.dot(table.values_v[0] * weights, table.values_v[2])
    assert abs(entry) > 1e-4


def test_small_scale_gram_identity():
    grid = sb.build_grid(64)
    x = np.cos(grid.theta_nodes)
    for m in range(0, 31, 5):
        table = sb.legendre_degree_table(m, 30, x)
        gram = 2.0 * math.pi * (table * grid.theta_weights) @ table.T
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-11


def test_ylm_matrix_orthonormal_on_cluster():
    lam = 5.0
    ells, dim = sb.cluster_rank(lam)
    grid = sb.build_grid(max(ells) + 10, 2 * max(ells) + 12)
    matrix, labels, weights = ylm_matrix(ells, grid)
    gram = matrix.conj().T @ (matrix * weights[:, None])
    assert len(labels) == dim
    assert np.max(np.abs(gram - np.eye(dim))) < 1e-10


def test_ylm_matrix_columns_are_signed_rows():
    grid = sb.build_grid(20, 15)
    x = np.cos(grid.theta_nodes)
    matrix, labels, _ = ylm_matrix([3, 6], grid)
    for col, (ell, m) in enumerate(labels):
        g = _signed_band(ell, x)[ell + m]
        expected = np.outer(g, np.exp(1j * m * grid.phi_nodes)).ravel()
        assert np.array_equal(matrix[:, col], expected)


# ---------------------------------------------------------------------------
# Equator anchors
# ---------------------------------------------------------------------------

def _norm_constant(ell, m):
    return math.sqrt((2 * ell + 1) / (4 * math.pi)
                     * math.exp(math.lgamma(ell - m + 1) - math.lgamma(ell + m + 1)))


def test_normalized_at_zero_examples():
    # P_1^1(0) = -1 and (P_1^0)'(0) = 1, times the normalization
    value, deriv = sb.normalized_at_zero(1, 1)
    assert value == pytest.approx(-_norm_constant(1, 1), rel=1e-13)
    assert deriv == 0.0
    value, deriv = sb.normalized_at_zero(1, 0)
    assert value == 0.0
    assert deriv == pytest.approx(_norm_constant(1, 0), rel=1e-13)


def test_normalized_at_zero_top_order_matches_double_factorial():
    # P_40^40(0) = 79!!
    value, deriv = sb.normalized_at_zero(40, 40)
    assert deriv == 0.0
    assert value == pytest.approx(float(double_factorial(79)) * _norm_constant(40, 40),
                                  rel=1e-12)


@given(st.integers(0, 200), st.integers(0, 200))
def test_normalized_at_zero_parity_structure(ell, m):
    ell, m = max(ell, m), min(ell, m)
    value, deriv = sb.normalized_at_zero(ell, m)
    if (ell + m) % 2 == 0:
        assert deriv == 0.0 and value != 0.0
    else:
        assert value == 0.0 and deriv != 0.0


def test_normalized_at_zero_matches_recurrence():
    x0 = np.array([0.0])
    for m in range(0, 81, 8):
        table = sb.legendre_degree_table(m, 80, x0)[:, 0]
        ells = np.arange(m, 81)
        values, _ = sb.normalized_at_zero(ells, np.full(ells.size, m))
        even = (ells + m) % 2 == 0
        assert np.allclose(table[even], values[even], rtol=1e-12)


@pytest.mark.parametrize("ell, m", [(400, 7), (401, 7), (1600, 533), (1601, 533),
                                   (2400, 2350), (2401, 2350), (6400, 80), (6401, 80),
                                   (10000, 5000), (10001, 5000)])
def test_normalized_at_zero_against_mpmath(ell, m):
    import mpmath as mp

    with mp.workdps(40):
        norm = mp.sqrt((2 * ell + 1) / (4 * mp.pi) * mp.factorial(ell - m) / mp.factorial(ell + m))
        if (ell + m) % 2 == 0:  # P_l^m(0) = (-1)^a (l + m - 1)!! / (l - m)!!
            got = sb.normalized_at_zero(ell, m)[0]
            exact = ((-1) ** ((ell + m) // 2) * mp.mpf(double_factorial(ell + m - 1))
                     / double_factorial(ell - m))
        else:  # (P_l^m)'(0) = (l + m) P_{l-1}^m(0)
            got = sb.normalized_at_zero(ell, m)[1]
            exact = ((-1) ** ((ell + m - 1) // 2) * (ell + m)
                     * mp.mpf(double_factorial(ell + m - 2)) / double_factorial(ell - m - 1))
        # through log-gamma these were off by up to 1.6e-11
        assert abs(float(got / (norm * exact) - 1)) <= 1e-14


def test_normalized_at_zero_bounded_at_extreme_orders():
    value, deriv = sb.normalized_at_zero(500, 500)
    assert np.isfinite(value) and deriv == 0.0


def test_no_overflow_at_degree_ten_thousand():
    x = np.array([0.3, -0.85])
    for m in (0, 123, 5000, 9999):
        row = sb.legendre_row(m, 10_000, x)
        assert np.all(np.isfinite(row))
    value, deriv = sb.normalized_at_zero(10_000, 5000)
    assert np.isfinite(value) and np.isfinite(deriv)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def test_grid_total_measure_and_exactness():
    for n in (2, 17, 64):
        grid = sb.build_grid(n)
        assert abs(np.sum(grid.theta_weights) - 2.0) < 2e-13
    grid = sb.build_grid(64)
    u = np.cos(grid.theta_nodes)
    for k in range(21):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(grid.theta_weights, u**k) - exact) < 1e-14


@pytest.mark.parametrize("n", [2, 17, 64, 999, 1000, 1001, 1600, 4097, 9600])
def test_grid_nodes_mirror_about_the_equator(n):
    # the density kernel evaluates one half of the nodes and mirrors it
    theta = sb.build_grid(n).theta_nodes
    assert np.all(np.abs(theta + theta[::-1] - math.pi) <= 2 * np.spacing(math.pi))


def test_grid_rejects_degenerate_requests():
    with pytest.raises(ValueError):
        sb.build_grid(1)
    with pytest.raises(ValueError):
        sb.build_grid(8, 0)


def test_grid_metadata():
    grid = sb.build_grid(10, 7)
    assert grid.degree == 19
    assert grid.phi_nodes.size == 7
    assert grid.surface_weights().size == 70
    assert abs(np.sum(grid.surface_weights()) - 4.0 * math.pi) < 1e-12
    thetas, phis = grid.mesh()
    assert np.array_equal(thetas, np.repeat(grid.theta_nodes, 7))
    assert np.array_equal(phis, np.tile(grid.phi_nodes, 10))


# ---------------------------------------------------------------------------
# Spectral counting
# ---------------------------------------------------------------------------

def test_weyl_examples():
    assert sb.weyl_count(0.5) == 1
    assert sb.weyl_count(10.0) == 100
    with pytest.raises(ValueError):
        sb.weyl_count(-1.0)


def test_weyl_leading_coefficient_sweep():
    lams = np.geomspace(10, 1000, 12)
    ratios = [sb.weyl_count(lam) / lam**2 for lam in lams]
    assert abs(ratios[-1] - 1.0) < 0.01


@given(st.floats(0.0, 500.0))
def test_weyl_count_by_enumeration(lam):
    count = sb.weyl_count(lam)
    brute = sum(2 * ell + 1 for ell in range(0, int(lam) + 2)
                if ell * (ell + 1) < lam * lam)
    assert count == brute


def test_cluster_rank_examples():
    assert sb.cluster_rank(1.0) == ([1], 3)
    ells, rank = sb.cluster_rank(100.0)
    assert 0.9 <= rank / 200.0 <= 1.1
    with pytest.raises(ValueError):
        sb.cluster_rank(0.5)


@given(st.floats(1.0, 400.0))
def test_cluster_rank_membership(lam):
    ells, rank = sb.cluster_rank(lam)
    assert rank == sum(2 * ell + 1 for ell in ells)
    for ell in ells:
        assert lam**2 <= ell * (ell + 1) < (lam + 1.0) ** 2


def test_cluster_can_fall_into_an_eigenvalue_gap():
    # [lam^2, (lam+1)^2) fits between 10*11 and 11*12 here
    assert sb.cluster_rank(10.4885) == ([], 0)
