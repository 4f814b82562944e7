import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sclab import cluster_density as cd
from sclab import schatten_lab as sl
from sclab import sphere_basis as sb
from sclab import wkb_engine as wkb
from sclab.experiments import _cluster_grid, reference_weight

from _oracles import legendre_row, ylm_matrix


def make_profile(ell, r, case, n_mult=4, nu=None):
    grid = sb.build_grid(n_mult * ell)
    return cd.density(cd.ClusterSpec(ell, r, case, nu), grid)


# ---------------------------------------------------------------------------
# Specs and density construction
# ---------------------------------------------------------------------------

def test_window_contents():
    assert list(cd.ClusterSpec(10, 2, "2").window) == [7, 8]
    assert list(cd.ClusterSpec(10, 2, "inf").window) == [2, 3]


def test_spec_validation():
    with pytest.raises(ValueError):
        cd.ClusterSpec(10, 6, "2")  # r > ell/2
    with pytest.raises(ValueError):
        cd.ClusterSpec(10, 0, "2")
    with pytest.raises(ValueError):
        cd.ClusterSpec(10, 2, "weird")
    with pytest.raises(ValueError):
        cd.ClusterSpec(10, 2, "2", nu=np.ones(3))


@pytest.mark.parametrize("bad", [-2.0, math.nan, math.inf])
def test_spec_refuses_negative_or_nonfinite_nu(bad):
    # a negative weight gave a density with rho < 0, which norm refused as
    # "values must be nonnegative"; an infinite one gave norm(6) = nan
    with pytest.raises(ValueError, match="nu"):
        cd.ClusterSpec(40, 5, "2", nu=[1.0, bad, 1.0, 1.0, 1.0])
    cd.ClusterSpec(40, 5, "2", nu=[1.0, 0.0, 1.0, 1.0, 1.0])  # zero is a weight


def test_single_harmonic_trace():
    profile = make_profile(2, 1, "inf", n_mult=8)
    total = 2.0 * math.pi * np.dot(profile.theta_weights, profile.rho)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert np.all(profile.rho >= 0.0)


def test_weighted_trace_identity():
    nu = np.array([0.3, 1.2, 0.8, 0.1, 2.0])
    profile = make_profile(40, 5, "2", nu=nu)
    total = 2.0 * math.pi * np.dot(profile.theta_weights, profile.rho)
    assert total == pytest.approx(float(nu.sum()), abs=1e-8)


def test_coarse_grid_rejected_and_flagged():
    spec = cd.ClusterSpec(100, 10, "2")
    with pytest.raises(sb.GridResolutionError):
        cd.density(spec, sb.build_grid(100))
    # the 4 l-node grid has converged: doubling it moves the p = 2 and p = 6
    # norms by less than 1e-6 relative
    coarse, fine = cd.density(spec, sb.build_grid(400)), cd.density(spec, sb.build_grid(800))
    for p in (2.0, 6.0):
        assert coarse.norm(p) == pytest.approx(fine.norm(p), rel=1e-6)


def test_density_matches_per_order_sum_and_reports_underflow():
    ell = 405
    spec = cd.ClusterSpec(ell, wkb.band_radius(ell), "2")
    grid = sb.build_grid(4 * ell)
    profile = cd.density(spec, grid)
    x = np.cos(grid.theta_nodes)
    exact = sum(legendre_row(int(m), ell, x) ** 2 for m in spec.window)
    kept = exact > 1e-250 * exact.max()
    assert np.all(np.abs(profile.rho - exact)[kept] <= 1e-11 * exact[kept])
    top_seed = np.exp(sb._seed_log_magnitude(int(spec.window[-1]), x))
    assert profile.underflow_nodes == np.count_nonzero(
        np.abs(top_seed) < np.finfo(float).tiny) > 0


@pytest.mark.parametrize("case, extra", [("2", 1), ("inf", 0), ("inf", 1)])
def test_mirrored_density_on_even_and_odd_grids(case, extra):
    # the density is evaluated on one half of the grid and mirrored, the
    # centre node of an odd grid taken once; the oracle sums every node
    # (case "2" on the even grid is the test above)
    ell = 405
    spec = cd.ClusterSpec(ell, wkb.band_radius(ell), case)
    grid = sb.build_grid(4 * ell + extra)
    profile = cd.density(spec, grid)
    x = np.cos(grid.theta_nodes)
    exact = sum(legendre_row(int(m), ell, x) ** 2 for m in spec.window)
    kept = exact > 1e-250 * exact.max()
    assert profile.rho.shape == x.shape
    assert np.all(np.abs(profile.rho - exact)[kept] <= 1e-11 * exact[kept])
    top_seed = np.exp(sb._seed_log_magnitude(int(spec.window[-1]), x))
    assert profile.underflow_nodes == np.count_nonzero(
        np.abs(top_seed) < np.finfo(float).tiny)


def _density_sweeps(spec, x):
    """Nodes of x the window's band sweeps upward, by Miller's method and downward."""
    seen = {}
    upward_rows, miller_rows = sb._upward_rows, sb._miller_rows

    def upward(ell, nodes, cot):
        seen["up"] = nodes.size
        return upward_rows(ell, nodes, cot)

    def backward(ell, m_lo, m_hi, cot):
        seen["miller"] = cot.size
        return miller_rows(ell, m_lo, m_hi, cot)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sb, "_upward_rows", upward)
        patch.setattr(sb, "_miller_rows", backward)
        for _ in sb._band_sweeps(spec.ell, int(spec.window[0]), int(spec.window[-1]), x):
            pass
    up, miller = seen.get("up", 0), seen.get("miller", 0)
    return up, miller, x.size - up - miller


@pytest.mark.parametrize("case, extra", [("inf", 0), ("inf", 1), ("2", 0), ("2", 1)])
def test_weighted_density_matches_per_order_rows(case, extra):
    # rho = sum_m nu_m g_m^2 pointwise, with nu geometric, so that a weight
    # paired with the wrong order shows; the trace identity cannot see that.
    # Case "inf" covers upward and Miller's nodes, case "2" downward ones; on
    # an odd grid the centre node is among the oracle's nodes
    ell = 2400
    r = wkb.band_radius(ell)
    spec = cd.ClusterSpec(ell, r, case, nu=0.97 ** np.arange(r))
    grid = sb.build_grid(4 * ell + extra)
    x = np.cos(grid.theta_nodes[:(grid.n_theta + 1) // 2])  # the nodes density sweeps
    up, miller, down = _density_sweeps(spec, x)
    assert (up > 0 and miller > 0 and down == 0) if case == "inf" else (down == x.size)
    profile = cd.density(spec, grid)
    exact = sum(w * legendre_row(int(m), ell, x) ** 2 for w, m in zip(spec.nu, spec.window))
    # nodes where every order's seed is a normal double, so each oracle row
    # keeps its bits, and rho is not below the double range
    seeded = np.exp(sb._seed_log_magnitude(int(spec.window[-1]), x)) >= np.finfo(float).tiny
    kept = seeded & (exact > 1e-250 * exact.max())
    if case == "inf":
        assert np.count_nonzero(kept[:miller]) > miller // 2  # Miller's nodes come first
    err = np.abs(profile.rho[:x.size] - exact)[kept] / exact[kept]
    assert err.max() <= 1e-11


@pytest.mark.parametrize("case", ["inf", "2"])
def test_density_holds_no_band(case):
    # at l = 6400 (r = 80, n = 25600) the band on half the grid is 7.8 MB;
    # rho is summed as its rows come, with only Miller's rows on the polar
    # nodes held at once.  Peak measured 2.2 MB (case "inf") and 1.6 MB
    # (case "2"), where holding the band took 9.8 and 9.2 MB
    import tracemalloc

    ell = 6400
    spec = cd.ClusterSpec(ell, wkb.band_radius(ell), case)
    grid = sb.build_grid(4 * ell)
    band_bytes = spec.r * ((grid.n_theta + 1) // 2) * 8
    tracemalloc.start()
    try:
        cd.density(spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < band_bytes / 2


def test_weighted_trace_identity_at_degree_25600():
    # 2 pi sum_i w_i rho_i = sum_m nu_m, measured within 1.3e-15 relative
    ell = 25600
    r = wkb.band_radius(ell)
    nu = 0.97 ** np.arange(r)
    profile = cd.density(cd.ClusterSpec(ell, r, "inf", nu=nu), sb.build_grid(4 * ell))
    total = 2.0 * math.pi * np.dot(profile.theta_weights, profile.rho)
    assert abs(total - nu.sum()) <= 1e-13 * nu.sum()


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("values, p, weights, expected", [
    pytest.param([1.0, 1.0, 1.0], 1.0, None, 3.0, id="l1"),
    pytest.param([3.0, 4.0], 2.0, None, 5.0, id="l2"),
    pytest.param([0.5, 1.5], math.inf, None, 1.5, id="sup"),
    pytest.param([3.0, 4.0], math.inf, [9.0, 0.1], 4.0, id="sup-ignores-weights"),
    pytest.param([], 2.0, None, 0.0, id="empty"),
    pytest.param([0.0, 0.0], 3.0, None, 0.0, id="zeros"),
    pytest.param([1.0, 2.0], 2.0, [3.0, 0.25], 2.0, id="weighted"),
    pytest.param([1e200, 1e200], 4.0, None, 2.0**0.25 * 1e200, id="overflow"),
])
def test_lp_norm_kernel(values, p, weights, expected):
    assert cd.lp_norm(values, p, weights) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("values", [[math.inf, 1.0], [1.0, -math.inf], [math.nan, 1.0]])
@pytest.mark.parametrize("p", [2.0, math.inf])
def test_lp_norm_refuses_nonfinite_values(values, p):
    # [inf, 1] at p = 2 warned "invalid value encountered in divide" and gave nan
    with pytest.raises(ValueError, match="values"):
        cd.lp_norm(values, p)


@pytest.mark.parametrize("weights", [[-3.0, 1.0], [math.nan, 1.0], [1.0, math.inf]])
@pytest.mark.parametrize("p", [2.0, math.inf])
def test_lp_norm_refuses_negative_or_nonfinite_weights(weights, p):
    # at p = 2, [-3, 1] returned 1.0 and [nan, 1] returned nan, with no warning
    with pytest.raises(ValueError, match="weights"):
        cd.lp_norm([1.0, 2.0], p, weights)


def test_lp_norm_p2_is_trace():
    profile = make_profile(30, 4, "inf")
    assert profile.norm(2.0) == pytest.approx(4.0, abs=1e-10)


def test_lp_norm_sup_and_domain():
    profile = make_profile(30, 4, "inf")
    assert profile.norm(math.inf) == np.max(profile.rho)
    with pytest.raises(ValueError):
        profile.norm(1.5)


def test_basis_remix_leaves_density_invariant():
    ell, r = 60, 8
    spec = cd.ClusterSpec(ell, r, "2")
    grid = sb.build_grid(64, 32)
    x = np.cos(grid.theta_nodes)
    cols = []
    for m in spec.window:
        g = legendre_row(int(m), ell, x)
        cols.append(np.outer(g, np.exp(1j * m * grid.phi_nodes)).ravel())
    basis = np.stack(cols, axis=1)
    rho_direct = (np.abs(basis) ** 2).sum(axis=1)
    rng = np.random.default_rng(3)
    gauss = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    unitary, _ = np.linalg.qr(gauss)
    rho_mixed = (np.abs(basis @ unitary) ** 2).sum(axis=1)
    assert np.max(np.abs(rho_direct - rho_mixed)) < 1e-9 * np.max(rho_direct)


# ---------------------------------------------------------------------------
# Exponent tables
# ---------------------------------------------------------------------------

def test_exponent_examples():
    assert cd.exponents(6.0) == pytest.approx((1.0 / 6.0, 1.5))
    assert cd.exponents(2.0) == pytest.approx((0.0, 1.0))
    s, alpha = cd.exponents(math.inf)
    assert s == pytest.approx(0.5) and math.isinf(alpha)
    with pytest.raises(ValueError):
        cd.exponents(1.0)


@given(st.floats(2.0, 200.0))
def test_exponent_scaling_identity(p):
    s, alpha = cd.exponents(p)
    assert 2.0 * s + 1.0 / alpha == pytest.approx(1.0, abs=1e-12)
    if p > 2.0:
        assert alpha > 1.0


@pytest.mark.parametrize("n_dim", [2, 3, 4])
def test_exponent_branches_meet_at_breakpoint(n_dim):
    p_star = 2.0 * (n_dim + 1.0) / (n_dim - 1.0)
    below = cd.exponents(p_star - 1e-9, n_dim)
    above = cd.exponents(p_star + 1e-9, n_dim)
    assert below[0] == pytest.approx(above[0], abs=1e-8)
    assert below[1] == pytest.approx(above[1], abs=1e-8)


# ---------------------------------------------------------------------------
# Concentration measure
# ---------------------------------------------------------------------------

def test_concentration_constant_density():
    grid = sb.build_grid(32)
    profile = cd.DensityProfile(grid.theta_nodes, grid.theta_weights, np.ones(32))
    lower, measured = cd.concentration_measure(profile, 6.0)
    assert measured == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert lower <= measured


def test_concentration_returns_shortfall():
    # weights that integrate to 100 times the sphere break the measure
    # estimate; the pair comes back for the caller to judge
    grid = sb.build_grid(32)
    profile = cd.DensityProfile(grid.theta_nodes, 100.0 * grid.theta_weights, np.ones(32))
    lower, measured = cd.concentration_measure(profile, 6.0)
    assert measured == 0.0 < lower


@pytest.mark.parametrize("case,p", [("2", 6.0), ("inf", 8.0)])
def test_concentration_on_extremal_windows(case, p):
    profile = make_profile(200, 15, case)
    lower, measured = cd.concentration_measure(profile, p)
    assert measured >= lower > 0.0


def test_concentration_requires_p_above_two():
    profile = make_profile(30, 4, "2")
    with pytest.raises(ValueError):
        cd.concentration_measure(profile, 2.0)


# ---------------------------------------------------------------------------
# Semiclassical prediction
# ---------------------------------------------------------------------------

def test_heuristic_vanishes_in_forbidden_region():
    theta = math.asin(0.8 * 10 / 100)
    assert cd.heuristic_density(100, 10, 20, theta) == 0.0


def test_heuristic_positive_in_allowed_region():
    assert cd.heuristic_density(100, 10, 20, 1.0) > 0.0


def test_heuristic_argument_validation():
    with pytest.raises(ValueError):
        cd.heuristic_density(100, 30, 20, 1.0)
    with pytest.raises(ValueError):
        cd.heuristic_density(100, 10, 20, 0.0)


def test_heuristic_matches_exact_inf_window():
    ell, r = 100, wkb.band_radius(100)
    theta = 2.0 * 8.0 * r / ell
    exact = 0.0
    for m in range(r, 2 * r):
        exact += legendre_row(m, ell, np.array([math.cos(theta)]))[0] ** 2
    heur = cd.heuristic_density(ell, r, 2 * r - 1, theta)
    assert 0.5 <= heur / exact <= 2.0


def test_heuristic_matches_exact_equatorial_window_after_averaging():
    ell, r = 100, wkb.band_radius(100)
    a, b = ell - 2 * r + 1, ell - r
    wavelength = math.pi / math.sqrt(ell * r)
    thetas = np.linspace(math.pi / 2 - wavelength / 2,
                         math.pi / 2 + wavelength / 2, 65)
    exact = np.zeros_like(thetas)
    for m in range(a, b + 1):
        exact += legendre_row(m, ell, np.cos(thetas)) ** 2
    heur = cd.heuristic_density(ell, a, b, thetas)
    ratio = float(heur.mean() / exact.mean())
    assert 0.5 <= ratio <= 2.0


# ---------------------------------------------------------------------------
# Random subcluster stress
# ---------------------------------------------------------------------------

def test_random_density_trace_and_p2_ratio():
    rng = np.random.default_rng(11)
    grid = sb.build_grid(24, 36)
    rho, nu, weights = cd.random_cluster_density(10.0, 8, rng, grid)
    assert np.dot(weights, rho) == pytest.approx(float(nu.sum()), abs=1e-8)
    ratio = cd.lp_norm(rho, 1.0, weights) / cd.lp_norm(nu, 1.0)
    assert ratio == pytest.approx(1.0, abs=1e-9)


def test_random_density_upper_bound_ratios():
    rng = np.random.default_rng(5)
    grid = sb.build_grid(24, 36)
    _, dim = sb.cluster_rank(10.0)
    rho, nu, weights = cd.random_cluster_density(10.0, dim // 2, rng, grid)
    for p in (4.0, 6.0, math.inf):
        s, alpha = cd.exponents(p)
        ratio = (cd.lp_norm(rho, p / 2.0, weights)
                 / (10.0 ** (2 * s) * cd.lp_norm(nu, alpha)))
        assert ratio < 2.5


def _redraw_system(lam, n_funcs, seed):
    """Q and nu of random_cluster_density, drawn again in its documented order."""
    _, dim = sb.cluster_rank(lam)
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((dim, n_funcs)) + 1j * rng.standard_normal((dim, n_funcs))
    q, _ = np.linalg.qr(gauss)
    return q, rng.uniform(0.0, 1.0, n_funcs)


@pytest.mark.parametrize("lam, n_theta, n_phi", [
    (10.0, 24, 36), (35.0, 47, 86),  # n_phi >= 2l + 1: one order per bin
    (10.0, 24, 15), (35.0, 47, 15),  # n_phi < 2l + 1: orders share a bin
])
def test_random_density_matches_mesh_oracle(lam, n_theta, n_phi):
    grid = sb.build_grid(n_theta, n_phi)
    ells, dim = sb.cluster_rank(lam)
    rho, nu, weights = cd.random_cluster_density(lam, dim // 2,
                                                 np.random.default_rng(7), grid)
    q, nu_again = _redraw_system(lam, dim // 2, 7)
    basis, _, mesh_weights = ylm_matrix(ells, grid)
    oracle = np.abs(basis @ q) ** 2 @ nu_again
    assert np.array_equal(nu, nu_again)
    assert np.array_equal(weights, mesh_weights)
    assert np.max(np.abs(rho - oracle)) <= 1e-13 * oracle.max()


@pytest.mark.parametrize("lam", [10.0, 35.0])
def test_random_density_pairs_with_the_cluster_gram(lam):
    # int |W|^2 rho = Tr(W gamma W^*) = sum_k nu_k q_k^H G_W q_k on one grid
    grid = _cluster_grid(lam)
    ells, dim = sb.cluster_rank(lam)
    rho, nu, weights = cd.random_cluster_density(lam, dim // 2,
                                                 np.random.default_rng(3), grid)
    q, _ = _redraw_system(lam, dim // 2, 3)
    thetas, phis = grid.mesh()
    lhs = np.dot(weights * reference_weight(thetas, phis) ** 2, rho)
    gram = sl.weighted_cluster_gram(ells, reference_weight, grid)
    rhs = np.einsum("k,ik,ij,jk->", nu, q.conj(), gram, q)
    assert abs(rhs.imag) <= 1e-14 * abs(rhs)
    assert lhs == pytest.approx(rhs.real, rel=1e-12)


def test_random_density_holds_one_ring_of_bins():
    # at lam = 100 with 100 functions on cluster_upper's 112 x 216 grid a
    # ring of bins is 0.35 MB.  Peak measured 2.6 MB, where bins for blocks
    # of rings of up to 2 MB peaked at 9.4 MB
    import tracemalloc

    grid = _cluster_grid(100.0)
    assert (grid.n_theta, grid.n_phi) == (112, 216)
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        cd.random_cluster_density(100.0, 100, rng, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_random_density_argument_validation():
    rng = np.random.default_rng(0)
    grid = sb.build_grid(16, 8)
    with pytest.raises(ValueError):
        cd.random_cluster_density(5.0, 99, rng, grid)
