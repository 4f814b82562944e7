import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import lpmv, gammaln, roots_legendre

from sclab import sphere_basis as sb
from sclab.cluster_density import (DensityProfile, concentration_measure, exponents,
                                   heuristic_density, lp_norm)
from sclab.schatten_lab import kss_bound, make_report
from sclab.wkb_engine import (action_integral, band_radius, case_interval, case_window,
                              q_potential)

from _oracles import (double_factorial, gauss_legendre_node_mp,
                      gauss_legendre_recurrence_rule, legendre_theta_recurrence,
                      normalized_legendre_mp, ylm_matrix)


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
    with pytest.raises(ValueError):  # sin(theta) rounds to 1: a pole
        sb.legendre_band(3, 0, 1, np.array([np.nextafter(math.pi / 2, 0.0)]))
    with pytest.raises(ValueError):
        sb.legendre_row(2, 5, np.array([1.0]))


@pytest.mark.parametrize("call, argument", [
    (lambda nan: sb.legendre_row(2, 5, [nan]), "nodes"),
    (lambda nan: sb.legendre_band(5, 0, 2, [0.1, nan]), "nodes"),
    (lambda nan: sb.radial_rows(5, [nan]), "nodes"),
    (lambda nan: q_potential(100, 5, nan), "theta"),
    (lambda nan: action_integral(100, 5, nan), "theta"),
    (lambda nan: heuristic_density(100, 5, 10, nan), "theta"),
    (lambda nan: lp_norm([1.0, 2.0], nan), "p"),
    (lambda nan: lp_norm([1.0, nan], 2.0), "values"),
    (lambda nan: exponents(nan), "p"),
    (lambda nan: DensityProfile(*np.ones((3, 1)), 1.0).norm(nan), "p"),
    (lambda nan: make_report(10.0, nan, np.ones(3)), "p"),
    (lambda nan: make_report(nan, 6.0, np.ones(3)), "lam"),
    (lambda nan: kss_bound(None, None, nan, None, 0), "p"),
    (lambda nan: sb.weyl_count(nan), "lam"),
    (lambda nan: sb.cluster_rank(nan), "lam"),
], ids=["legendre_row", "legendre_band", "radial_rows", "q_potential", "action_integral",
        "heuristic_density", "lp_norm", "lp_norm_values", "exponents", "density_norm",
        "make_report", "make_report_lam", "kss_bound", "weyl_count", "cluster_rank"])
def test_range_checks_refuse_nan(call, argument):
    # a check written any(|t| >= bound) or p < 2 lets NaN through
    with pytest.raises(ValueError, match=argument):
        call(math.nan)


@pytest.mark.parametrize("call, argument", [
    (sb.weyl_count, "lam"),
    (sb.cluster_rank, "lam"),
    (lambda inf: make_report(inf, 6.0, np.ones(3)), "lam"),
    (lambda inf: concentration_measure(DensityProfile(*np.ones((3, 1)), 1.0), inf), "p"),
], ids=["weyl_count", "cluster_rank", "make_report", "concentration_measure"])
def test_range_checks_refuse_infinity(call, argument):
    # weyl_count and cluster_rank overflowed, make_report gave a ratio of 0
    # and concentration_measure a NaN bound
    with pytest.raises(ValueError, match=argument):
        call(math.inf)


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


def test_full_band_near_pole_reads_true_values_to_the_double_range():
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


def test_orders_above_every_old_lift_read_their_true_values():
    # at sin(theta) = 0.06 the seeds of orders >= 499 at l = 10000 are below
    # 2^-1000 of the smallest normal double; bands that restarted below them
    # read 0 there, where g is O(1).  Scale: the largest |g_l^m| over all
    # orders at the node (3.2); relative to the values themselves the errors
    # are at most 6.2e-13.
    ell, x = 10000, np.array([math.sqrt(1.0 - 0.06**2)])
    rows = sb.radial_rows(ell, x)[ell:, 0]
    scale = np.abs(rows).max()
    for m in (499, 549, 600):
        exact = float(normalized_legendre_mp(m, ell, x[0]))
        assert abs(exact) > 0.9
        for value in (rows[m], sb.legendre_row(m, ell, x)[0],
                      sb.legendre_degree_table(m, ell, x)[-1, 0]):
            assert abs(value - exact) <= 1e-12 * scale, m


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ell,highest", [(2400, (53, 143, 53)), (10000, (59, 144, 59))])
def test_full_band_next_to_the_poles(ell, highest):
    # x = -+nextafter(1, 0) and the first node of the 4l-point Gauss rule.
    # There |cot(theta)| reaches 2^26.5, so the order sweep multiplies rows by
    # up to 1 + sqrt(2l) 2^26.5 a step: the growth bound that sets how often
    # lifted rows are checked.  Three nodes only: the band on all 4l nodes at
    # l = 10000 would hold 3.2 GB of rows.
    x = _polar_nodes(ell)
    g, _ = sb._order_band(ell, 0, ell, x)
    assert np.all(np.isfinite(g))
    # the highest nonzero order of each node, as the restarting band had it
    assert tuple(int(np.flatnonzero(g[:, j])[-1]) for j in range(3)) == highest
    for j in range(3):
        top = int(np.flatnonzero(np.abs(g[:, j]) >= np.finfo(float).tiny)[-1])
        for m in (top // 2, top):  # measured at most 1.4e-12
            exact = float(normalized_legendre_mp(m, ell, x[j]))
            assert abs(g[m, j] / exact - 1) <= 1e-11, (j, m)


def _polar_nodes(ell):
    """x = -nextafter(1, 0), the first node of the 4l-point Gauss rule, nextafter(1, 0)."""
    edge = np.nextafter(1.0, 0.0)
    return np.array([-edge, sb._gauss_rule(4 * ell)[0][0], edge])


@pytest.mark.filterwarnings("error")
def test_full_band_at_degree_1e5_next_to_the_poles():
    # every node sweeps down from the lifted seed g_l^l: the growth bound
    # beside _RESCALE_BITS, stated for l <= 1e6, keeps each row finite
    ell = 100000
    x = _polar_nodes(ell)
    g, underflow = sb._order_band(ell, 0, ell, x)
    assert np.all(np.isfinite(g)) and underflow.all()
    assert [int(np.flatnonzero(g[:, j])[-1]) for j in range(3)] == [71, 144, 71]
    # frozen from normalized_legendre_mp at 50 digits, seconds a value at this
    # degree.  The whole row carries its seed's relative error, the rounding
    # of an exponent of size ~(l/2) ln 2: the seed-exponent floor, measured
    # 4.4e-12 here and 1.1e-11 at the Gauss node
    for m, exact in ((0, 126.15687146031784), (68, 1.0363980520180885e-307)):
        assert abs(g[m, 2] / exact - 1) <= 2e-11
        assert g[m, 0] == g[m, 2] * (-1) ** (ell + m)


def _upward_nodes(band, x):
    """``band()``'s result, and which of the nodes x it swept upward in order."""
    swept = []
    upward_rows = sb._upward_rows

    def recorded(ell, nodes, cot):
        swept.append(nodes)
        return upward_rows(ell, nodes, cot)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sb, "_upward_rows", recorded)
        result = band()
    return result, np.isin(x, np.concatenate([np.empty(0), *swept]))


@pytest.mark.parametrize("ell", [975, 2400])
@pytest.mark.parametrize("case", ["2", "inf"])
def test_derived_top_row_against_mpmath(ell, case):
    # both routes of a window's band on the 4l-point Gauss grid: upward nodes,
    # downward nodes allowed and forbidden for the top order, and the two
    # nodes either side of each switch between the routes (in case "2", of
    # the top order's turning point, where both sides sweep downward)
    theta = sb.build_grid(4 * ell).theta_nodes
    x = np.cos(theta)
    window = case_window(ell, band_radius(ell), case)
    m_lo, m_hi = int(window[0]), int(window[-1])
    (values, _), up = _upward_nodes(lambda: sb._order_band(ell, m_lo, m_hi, x), x)
    oscillatory = (ell + 0.5) * np.sin(theta) >= max(sb._SERIES_MIN_RHO_SIN, m_hi)
    # case "2" has m_hi near l, where sweeping up from m = 0 costs more
    assert np.array_equal(up, oscillatory & (case == "inf"))
    allowed = q_potential(ell, m_hi, math.pi / 2 - theta) < 0
    normal = np.abs(values[-1]) >= np.finfo(float).tiny
    kinds = (up, ~up & allowed, ~up & ~allowed & normal)
    switch = np.flatnonzero(np.diff(oscillatory))
    sampled = [np.flatnonzero(kind)[np.linspace(0, kind.sum() - 1, 5).astype(int)]
               for kind in kinds if kind.any()]
    for i, m in ((-1, m_hi), (0, m_lo)):
        row_max = np.abs(values[i]).max()
        for j in np.concatenate([switch, switch + 1, *(sampled if i == -1 else [])]):
            exact = float(normalized_legendre_mp(m, ell, x[j]))
            # g has zeros where allowed: there the error is measured against
            # the row's maximum, elsewhere pointwise (at most 3.3e-13 here)
            allowed_j = q_potential(ell, m, math.pi / 2 - theta[j]) < 0
            scale = row_max if allowed_j else abs(exact)
            assert abs(values[i, j] - exact) <= 2e-11 * scale, (m, j)


# g_25600^m on nodes j of the 102400-point Gauss rule (theta < pi/2), for
# the case-"inf" window's top and bottom orders: {j: (x_j, m = 319, m = 160)},
# frozen from normalized_legendre_mp(m, 25600, x_j) at 50 digits (about a
# second a value).  Nodes 50..405 sweep downward, 406.. upward
_DEGREE_25600 = {
    50: (0.9999987878904532, -9.613643170327639e-247, 9.377394347614647e-77),
    100: (0.9999952229867828, -2.4133504225505126e-153, 2.1896118397264393e-32),
    150: (0.9999893050207364, -3.2441369055987526e-100, 2.8851392556877474e-10),
    200: (0.9999810340062392, -2.101762320841787e-64, 3.299815590754487),
    250: (0.9999704099627534, -9.343330572352135e-39, -1.4151896076455286),
    300: (0.9999574329152783, -3.179744223198188e-20, -3.835858260363228),
    350: (0.9999421028943498, -1.869152243365061e-07, -1.943079021209966),
    405: (0.9999225222302077, -3.995277926563429, 2.0656719964359875),
    406: (0.9999221398655695, -4.43373038519295, 0.18112305172672502),
    1000: (0.9995287160082303, 0.9236043067289988, -1.658074203181633),
    5000: (0.9882541661187598, 0.12585907316473152, -0.8137121550669414),
    20000: (0.817573289007539, 0.11826406397770918, 0.30873970817838015),
    51199: (1.5339732977085782e-05, -0.12180937393353934, 0.29408309421746126),
}


def test_window_band_at_degree_25600_against_mpmath():
    # polar downward nodes, the two nodes either side of the switch, and
    # upward nodes, on the 4l-point Gauss grid, top and bottom rows
    ell = 25600
    theta = sb.build_grid(4 * ell).theta_nodes
    window = case_window(ell, band_radius(ell), "inf")
    m_lo, m_hi = int(window[0]), int(window[-1])
    sample = np.array(list(_DEGREE_25600))
    x = np.cos(theta[sample])
    assert np.array_equal(x, [x_j for x_j, _, _ in _DEGREE_25600.values()])
    (values, _), up = _upward_nodes(lambda: sb._order_band(ell, m_lo, m_hi, x), x)
    assert np.array_equal(up, sample >= 406)
    oscillatory = (ell + 0.5) * np.sin(theta[sample]) >= m_hi
    assert np.array_equal(oscillatory, up)  # 405 and 406 straddle the switch
    for i, m, col in ((-1, m_hi, 1), (0, m_lo, 2)):
        # where allowed, errors are measured against the row's maximum on
        # the grid's half, elsewhere pointwise.  At most 4.5e-12, on polar
        # nodes: the seed-exponent floor (module notes), ~l 2^-53
        row_max = np.abs(sb._order_band(ell, m, m, np.cos(theta[:2 * ell]))[0]).max()
        for k, (j, frozen) in enumerate(_DEGREE_25600.items()):
            allowed = q_potential(ell, m, math.pi / 2 - theta[j]) < 0
            scale = row_max if allowed else abs(frozen[col])
            assert abs(values[i, k] - frozen[col]) <= 2e-11 * scale, (m, j)


def _wkb_nodes(ell, case, n=1001):
    """The case's window, its WKB profile grid, and x = cos(colatitude) there."""
    r = band_radius(ell)
    thetas = np.linspace(*case_interval(ell, r, case), n)
    return case_window(ell, r, case), thetas, np.sin(thetas)


def _upward_sweep(ell, m_lo, m_hi, x):
    """Rows m_lo..m_hi of the upward sweep on every node x, whatever its order's zone."""
    rows = sb._upward_rows(ell, x, x / np.sqrt((1.0 - x) * (1.0 + x)))
    return np.array(list(itertools.islice(rows, m_lo, m_hi + 1)))


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
    band = _upward_sweep(ell, m_lo, m_hi, x)  # case "2" too, on purpose
    # both interval ends and their neighbours, the centre, and between
    sample = [0, 1, 137, 250, 499, 500, 501, 777, 999, 1000]
    for i in (0, m_hi - m_lo):
        assert _upward_error(ell, m_lo + i, x, band[i], sample) <= 1e-12


@pytest.mark.parametrize("past,passes", [(1.0, True), (1.1, False)])
def test_upward_gate_fails_past_the_turning_point(past, passes):
    # nodes from (l + 1/2) sin(theta) = m / past to the equator: at past = 1
    # every node is oscillatory; at 1.1 the outermost lie 10% beyond the
    # turning point, where the upward sweep follows the wrong solution.  The
    # band sweeps those nodes downward, and passes either way.
    ell, m = 1600, 400
    edge = math.sqrt(1.0 - (m / past / (ell + 0.5)) ** 2)
    x = np.linspace(-edge, edge, 1001)
    sample = [0, 1, 500, 999, 1000]
    row = _upward_sweep(ell, m, m, x)[0]
    assert (_upward_error(ell, m, x, row, sample) <= 1e-12) == passes
    assert _upward_error(ell, m, x, sb._order_band(ell, m, m, x)[0][0], sample) <= 1e-12


def _without_degree_recurrence(band):
    """``band()``, with the degree recurrence made to raise should it run."""
    def refused(*args):
        raise AssertionError("a degree recurrence ran")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sb, "_degree_rows", refused)
        return band()


@pytest.mark.parametrize("ell", [400, 1600])
def test_no_band_runs_a_degree_recurrence(ell):
    grid = np.cos(sb.build_grid(4 * ell).theta_nodes)
    for case in ("2", "inf"):
        window, thetas, x = _wkb_nodes(ell, case)
        m_lo, m_hi = int(window[0]), int(window[-1])
        for m in (m_lo, m_hi):  # single rows
            _without_degree_recurrence(lambda: sb.legendre_band(ell, m, m, thetas))
        _without_degree_recurrence(lambda: sb.legendre_band(ell, m_lo, m_hi, thetas))
        _without_degree_recurrence(lambda: sb._order_band(ell, m_lo, m_hi, grid))
    _without_degree_recurrence(lambda: sb.radial_rows(ell, x))


@pytest.mark.parametrize("ell", [400, 1600])
def test_upward_route_is_taken_only_by_oscillatory_bands(ell):
    for case, upward in (("inf", True), ("2", False)):
        window, thetas, x = _wkb_nodes(ell, case)
        for m in (int(window[0]), int(window[-1])):
            _, up = _upward_nodes(lambda: sb.legendre_band(ell, m, m, thetas), x)
            assert np.all(up == upward)
    # a case-"inf" window on a Gauss grid: its nodes next to the poles are
    # in the forbidden zone of every order but 0, and sweep downward
    window = case_window(ell, band_radius(ell), "inf")
    x = np.cos(sb.build_grid(4 * ell).theta_nodes)
    _, up = _upward_nodes(lambda: sb._order_band(ell, int(window[0]), int(window[-1]), x), x)
    assert 0 < np.count_nonzero(~up) <= 0.07 * x.size  # 6.1% at l = 400, 3.1% at 1600
    assert np.all(np.abs(x[~up]) > 0.99)


@pytest.mark.parametrize("ell", [400, 1600])
def test_upward_band_rows_are_its_one_order_rows(ell):
    window, thetas, _ = _wkb_nodes(ell, "inf")
    table = _without_degree_recurrence(
        lambda: sb.legendre_band(ell, int(window[0]), int(window[-1]), thetas))
    for i, m in enumerate(window.tolist()):
        alone = sb.legendre_band(ell, m, m, thetas).values_g[0]
        assert np.array_equal(table.values_g[i], alone)


def test_single_row_lifts_an_underflowing_seed():
    ell, m, x = 1600, 533, np.array([-0.970])
    assert sb._seed_values(m, x)[0] == 0.0  # sin(theta)^533 ~ 1e-327
    exact = float(normalized_legendre_mp(m, ell, x[0]))  # 7.23e-38
    # the row by the degree recurrence; the band by the downward sweep from
    # g_l^l ~ 1e-984
    for value in (sb.legendre_row(m, ell, x)[0], sb._order_band(ell, m, m, x)[0][0, 0]):
        assert abs(value / exact - 1) <= 1e-12


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


# the large rule's weights are within this of 30-digit mpmath, relative
# (worst measured on _mpmath_errors' sample: 1.4e-15)
_WEIGHT_GATE = 1e-14


def _miller_nodes_per_half(n):
    """Nodes per half of the n-point rule at which the series gives way."""
    theta = np.arccos(sb._gauss_rule(n)[0][n // 2:])
    return int(np.count_nonzero((n + 0.5) * np.sin(theta) < sb._SERIES_MIN_RHO_SIN))


def _mpmath_errors(n, nodes, weights):
    """Worst node (absolute) and weight (relative) error against mpmath.

    Sampled at the two outermost nodes, where 1 - x^2 cancels, the last
    node of Miller's sweep and the first series node on each side of the
    rule, and three interior nodes.
    """
    r = _miller_nodes_per_half(n)
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
    assert weight_err <= _WEIGHT_GATE


@pytest.mark.parametrize("mutate", ["constant", "terms", "switch", "miller_order"])
def test_mpmath_weight_gate_fails_on_a_broken_series(monkeypatch, mutate):
    # dropping the last series term, or even sixteen of them, moves no weight
    # by the gate (the tail is ~1e-16 where the series starts), so the
    # mutations are about the smallest of each kind that the gate resolves:
    # measured 6.0e-14 (constant) and 2.6e-14 (19 terms dropped)
    if mutate == "constant":
        constant = sb._series_constant
        monkeypatch.setattr(sb, "_series_constant", lambda n: constant(n) * (1 + 3e-14))
    elif mutate == "terms":
        monkeypatch.setattr(sb, "_SERIES_TERMS", 17)
    elif mutate == "switch":  # the series at every node, the poles included
        monkeypatch.setattr(sb, "_SERIES_MIN_RHO_SIN", 0.0)
    else:  # Miller's sweep started next to the switch: 7.4e-3
        monkeypatch.setattr(sb, "_MILLER_ORDER", 18)
    n = 1001
    nodes, weights = sb._newton_rule(n)
    monkeypatch.undo()  # the sample is chosen with the real switch
    assert _mpmath_errors(n, nodes, weights)[1] > _WEIGHT_GATE


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
    ref_p, ref_dp = legendre_theta_recurrence(n, theta)
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


def _miller_route(n):
    """The guesses of the n-point Newton rule that take Miller's sweep, and
    how many steps of the relation in order the rule takes in all."""
    thetas, steps = [], 0
    miller, order_rows = sb._legendre_miller, sb._order_rows

    def recorded(n, theta):
        thetas.append(theta)
        return miller(n, theta)

    def counted(*args):
        nonlocal steps
        for row in order_rows(*args):
            steps += 1
            yield row

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sb, "_legendre_miller", recorded)
        patch.setattr(sb, "_order_rows", counted)
        sb._newton_rule(n)
    return np.concatenate(thetas), steps


@pytest.mark.parametrize("n", [1001, 4097, 25600, 51200])
def test_recurrence_runs_on_a_fixed_number_of_nodes(n):
    theta, _ = _miller_route(n)
    assert theta.size == 5  # j_{0,5} = 14.9 < 17.7 < j_{0,6} = 18.1


def _boundary_errors(n, theta, p, dp):
    """Worst |P_n - exact| and |dP_n/dtheta / exact - 1| against 40-digit mpmath."""
    import mpmath as mp

    p_err = dp_err = 0.0
    with mp.workdps(40):
        for t, p_t, dp_t in zip(theta.tolist(), p, dp):
            x = mp.cos(mp.mpf(t))
            exact = mp.legendre(n, x)
            exact_dp = n * (x * exact - mp.legendre(n - 1, x)) / mp.sin(mp.mpf(t))
            p_err = max(p_err, float(abs(p_t - exact)))
            dp_err = max(dp_err, float(abs(dp_t / exact_dp - 1)))
    return p_err, dp_err


def _miller_sample(n):
    """The rule's Miller nodes, and the last multiple of its q below the switch."""
    theta, steps = _miller_route(n)
    rho = n + 0.5
    q = math.ldexp(1.0, math.frexp(2 * n + 1)[1] - 52)
    last = math.floor(math.asin(sb._SERIES_MIN_RHO_SIN / rho) / q) * q
    while rho * math.sin(last) >= sb._SERIES_MIN_RHO_SIN:
        last -= q
    return np.append(theta, last), steps


@pytest.mark.parametrize("n", [1001, 20000, 51200, 400000])
def test_boundary_values_against_mpmath(n):
    theta, steps = _miller_sample(n)
    # the rule's one loop in order has M steps at every n: none has n steps
    assert steps == sb._MILLER_ORDER
    p, dp = sb._legendre_miller(n, theta)
    p_err, dp_err = _boundary_errors(n, theta, p, dp)
    assert p_err <= 2e-15
    assert dp_err <= 2e-15


def test_boundary_values_fail_without_the_sign():
    # (-1)^M = -1 at M = 75.  Without it P_n and dP_n/dtheta flip together,
    # which leaves every Newton step and weight of the rule as it was: the
    # weight gate cannot see the sign, the values against mpmath do
    n = 1001
    assert sb._MILLER_ORDER % 2 == 1
    theta, _ = _miller_sample(n)
    p, dp = sb._legendre_miller(n, theta)
    nodes, weights = sb._newton_rule(n)
    with pytest.MonkeyPatch.context() as patch:
        miller = sb._legendre_miller
        patch.setattr(sb, "_legendre_miller", lambda n, theta: tuple(-v for v in miller(n, theta)))
        unsigned = sb._newton_rule(n)
    assert np.array_equal(unsigned[0], nodes) and np.array_equal(unsigned[1], weights)
    p_err, dp_err = _boundary_errors(n, theta, -p, -dp)
    assert p_err > 1e-11 and dp_err > 1


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
