import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import lpmv, gammaln, roots_legendre

from sclab import sphere_basis as sb
from sclab.wkb_engine import band_radius, case_window, q_potential

from _oracles import double_factorial, gauss_legendre_node_mp, normalized_legendre_mp


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
        # the seeds' sin^2 = 1 - x*x cancels here, in both recurrences alike:
        # a rounding of x*x moves sin^m by m/2 * 2^-53 / (1 - x^2) relative
        tol = 1e-10 + m * 2.0**-53 / (1.0 - x[0] ** 2)
        assert abs(g[m] / float(normalized_legendre_mp(m, ell, x[0])) - 1) <= tol
    assert abs(normalized_legendre_mp(last + 1, ell, x[0])) < np.finfo(float).tiny


def test_degree_table_matches_single_rows():
    x = np.linspace(-0.9, 0.9, 5)
    table = sb.legendre_degree_table(4, 40, x)
    for ell in (4, 17, 40):
        assert np.allclose(table[ell - 4], sb.legendre_row(4, ell, x), rtol=1e-14)


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


@pytest.mark.parametrize("n", [1001, 4096, 9600])
def test_large_gauss_rule_against_mpmath(n):
    nodes, weights = sb._gauss_rule(n)
    assert np.all(np.diff(nodes) > 0)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert abs(math.fsum(weights) - 2.0) <= 1e-14
    # the two outermost nodes, where 1 - x^2 cancels, then the interior
    for i in (n - 1, n - 2, (4 * n) // 5, (2 * n) // 3, n // 2):
        node, weight = gauss_legendre_node_mp(n, nodes[i])
        assert float(abs(node - nodes[i])) <= 4e-16
        assert float(abs(weights[i] / weight - 1)) <= 1e-13


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
    matrix, labels, weights = sb.ylm_matrix(ells, grid)
    gram = matrix.conj().T @ (matrix * weights[:, None])
    assert len(labels) == dim
    assert np.max(np.abs(gram - np.eye(dim))) < 1e-10


# ---------------------------------------------------------------------------
# Equator anchors
# ---------------------------------------------------------------------------

def test_legendre_at_zero_examples():
    value, deriv = sb.legendre_at_zero(1, 1)
    assert value == pytest.approx(-1.0, rel=1e-13)
    assert deriv == 0.0
    value, deriv = sb.legendre_at_zero(1, 0)
    assert value == 0.0
    assert deriv == pytest.approx(1.0, rel=1e-13)


def test_legendre_at_zero_top_order_matches_double_factorial():
    value, deriv = sb.legendre_at_zero(40, 40)
    assert deriv == 0.0
    assert value == pytest.approx(float(double_factorial(79)), rel=1e-12)


@given(st.integers(0, 200), st.integers(0, 200))
def test_legendre_at_zero_parity_structure(ell, m):
    ell, m = max(ell, m), min(ell, m)
    value, deriv = sb.legendre_at_zero(ell, m)
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


# ---------------------------------------------------------------------------
# Table dump
# ---------------------------------------------------------------------------

def test_radial_table_csv_roundtrip(tmp_path):
    table = sb.legendre_band(6, 2, 4, np.linspace(-1.0, 1.0, 5))
    path = tmp_path / "table.csv"
    sb.radial_table_to_csv(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "m,theta,v,g"
    assert len(lines) == 1 + 3 * 5
    first = lines[1].split(",")
    assert int(first[0]) == 2
    assert float(first[2]) == table.values_v[0, 0]
