import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sclab import cluster_density as cd
from sclab import schatten_lab as sl
from sclab import sphere_basis as sb
from sclab.experiments import _cluster_grid, fit_slope, reference_weight

from _oracles import (cluster_gram_per_diagonal, projector_kernel_eigs,
                      singular_values, ylm_matrix)


# ---------------------------------------------------------------------------
# Schatten norms (the p-norm kernel cd.lp_norm with unit weights)
# ---------------------------------------------------------------------------

def test_schatten_norm_validation():
    with pytest.raises(ValueError):
        cd.lp_norm([1.0], 0.0)
    with pytest.raises(ValueError):
        cd.lp_norm([-1.0], 2.0)


@given(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=20),
       st.floats(0.5, 20.0), st.floats(0.5, 20.0))
def test_schatten_norm_monotone_in_alpha(values, a1, a2):
    lo, hi = sorted((a1, a2))
    assert cd.lp_norm(values, hi) <= cd.lp_norm(values, lo) * (1 + 1e-12)


def test_dual_exponent():
    assert sl.dual_exponent(1.5) == pytest.approx(3.0)
    assert sl.dual_exponent(4.0 / 3.0) == pytest.approx(4.0)
    assert sl.dual_exponent(math.inf) == 1.0
    assert math.isinf(sl.dual_exponent(1.0))


def test_make_report_consistency():
    sv = np.array([0.5, 2.0, 1.0])
    report = sl.make_report(10.0, 6.0, sv)
    assert report.alpha_prime == pytest.approx(3.0)
    assert np.all(np.diff(report.singular_values) <= 0)
    recomputed = float(np.sum(report.singular_values ** 3.0) ** (1.0 / 3.0))
    assert report.schatten_norm == pytest.approx(recomputed, rel=1e-12)
    assert report.ratio == pytest.approx(report.schatten_norm
                                         / (10.0 ** (1.0 / 3.0)), rel=1e-12)


# ---------------------------------------------------------------------------
# Cluster compressions
# ---------------------------------------------------------------------------

def test_unit_weight_gives_identity_gram():
    grid = sb.build_grid(24, 40)
    sv = sl.projector_gram(10.0, lambda t, p: np.ones_like(t), grid)
    _, dim = sb.cluster_rank(10.0)
    assert sv.size == dim
    assert np.max(np.abs(sv - 1.0)) < 1e-10
    assert cd.lp_norm(sv, 3.0) == pytest.approx(dim ** (1.0 / 3.0),
                                                      rel=1e-12)


def test_gram_eigenvalues_bounded_by_sup_weight():
    grid = sb.build_grid(24, 40)
    sv = sl.projector_gram(10.0, reference_weight, grid)
    thetas, phis = grid.mesh()
    cap = float(np.max(np.abs(reference_weight(thetas, phis)))) ** 2
    assert np.all(sv >= 0.0) and np.all(sv <= cap * (1 + 1e-12))


def test_empty_cluster_gives_empty_spectrum():
    grid = sb.build_grid(24, 40)
    sv = sl.projector_gram(10.4885, lambda t, p: np.ones_like(t), grid)
    assert sv.shape == (0,)
    assert cd.lp_norm(sv, 3.0) == 0.0


def test_gram_requires_adequate_grid():
    with pytest.raises(sb.GridResolutionError):
        sl.projector_gram(10.0, lambda t, p: np.ones_like(t), sb.build_grid(12, 40))
    with pytest.raises(sb.GridResolutionError):
        sl.projector_gram(10.0, lambda t, p: np.ones_like(t), sb.build_grid(24, 20))
    # kss_bound shares the check: the cluster at lambda = 10 is l = 10
    for grid in (sb.build_grid(24, 20), sb.build_grid(12, 40)):
        with pytest.raises(sb.GridResolutionError):
            sl.kss_bound(indicator(10.0), reference_weight, 6.0, grid, 11)


def test_gram_route_matches_kernel_route():
    grid = sb.build_grid(22, 34)
    sv_gram = sl.projector_gram(12.0, reference_weight, grid)
    sv_kernel = projector_kernel_eigs(12.0, reference_weight, grid)
    n_gram = cd.lp_norm(sv_gram, 3.0)
    n_kernel = cd.lp_norm(sv_kernel[:sv_gram.size], 3.0)
    assert abs(n_gram - n_kernel) < 1e-6 * n_gram
    # the addition theorem makes the kernel matrix (root B)(root B)^H, so
    # its nonzero spectrum is the Gram spectrum up to roundoff
    assert np.max(np.abs(sv_gram - sv_kernel[:sv_gram.size])) <= 1e-13
    assert np.max(sv_kernel[sv_gram.size:]) <= 1e-13


def mesh_cluster_gram(ells, w_samples, grid):
    """The cluster Gram as a product of mesh matrices: the oracle route."""
    basis, _, weights = ylm_matrix(ells, grid)
    thetas, phis = grid.mesh()
    w_sq = np.asarray(w_samples(thetas, phis), dtype=float) ** 2
    return basis.conj().T @ (basis * (weights * w_sq)[:, None])


def rippled_weight(theta, phi):
    # azimuthal modes up to |k| = 8 on top of the reference weight
    return reference_weight(theta, phi) * (1.0 + 0.2 * np.cos(4.0 * phi + 0.3))


@pytest.mark.parametrize("lam", [5.0, 12.0, 30.0, 60.0])
def test_fft_cluster_gram_matches_mesh_product(lam):
    grid = _cluster_grid(lam)
    ells, dim = sb.cluster_rank(lam)
    gram = sl.weighted_cluster_gram(ells, reference_weight, grid)
    oracle = mesh_cluster_gram(ells, reference_weight, grid)
    assert gram.shape == (dim, dim)
    assert np.max(np.abs(gram - oracle)) <= 1e-13
    eigs = np.clip(np.linalg.eigvalsh(oracle)[::-1], 0.0, None)
    assert np.max(np.abs(sl.projector_gram(lam, reference_weight, grid) - eigs)) <= 1e-13


@pytest.mark.parametrize("lam", [5.0, 12.0, 30.0, 100.0, None])  # None: l = 8, 9
def test_cluster_gram_lower_triangle_is_the_per_diagonal_loop(lam):
    # eigvalsh reads the lower triangle only, so the spectra stay bit for bit
    # those of the loop over every diagonal; the upper triangle mirrors it
    if lam is None:
        ells, weight, grid = [8, 9], rippled_weight, sb.build_grid(36, 52)
    else:
        ells, weight, grid = sb.cluster_rank(lam)[0], reference_weight, _cluster_grid(lam)
    gram = sl.weighted_cluster_gram(ells, weight, grid)
    oracle = cluster_gram_per_diagonal(ells, weight, grid)
    assert np.tril(gram).tobytes() == np.tril(oracle).tobytes()
    assert np.array_equal(np.triu(gram, 1), np.triu(gram.conj().T, 1))
    assert np.array_equal(np.linalg.eigvalsh(gram), np.linalg.eigvalsh(oracle))


def test_fft_cluster_gram_across_degrees():
    # two degrees of different size and a weight with higher azimuthal modes
    grid = sb.build_grid(36, 52)
    gram = sl.weighted_cluster_gram([8, 9], rippled_weight, grid)
    oracle = mesh_cluster_gram([8, 9], rippled_weight, grid)
    assert gram.shape == (36, 36)
    assert np.max(np.abs(gram - oracle)) <= 1e-13


def test_dual_norm_growth_matches_primal_exponent():
    lams = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0]
    norms = [cd.lp_norm(
        sl.projector_gram(lam, reference_weight, _cluster_grid(lam)), 3.0)
        for lam in lams]
    slope, _ = fit_slope(zip(lams, norms))
    s6, _ = cd.exponents(6.0)
    assert slope == pytest.approx(2.0 * s6, abs=0.05)


def test_belt_weight_saturates_dual_bound():
    # an equatorial-belt weight of width sqrt(r/lam) keeps the compensated
    # dual norm bounded below, the saturation companion to boundedness above
    def belt(width):
        return lambda t, p: sl.bump((t - math.pi / 2) / width)

    ratios = []
    for lam in (15.0, 25.0, 40.0):
        r = int(math.ceil(math.sqrt(lam)))
        weight = belt(0.5 * math.sqrt(r / lam))
        ell_max = max(sb.cluster_rank(lam)[0])
        grid = sb.build_grid(ell_max + 16, 2 * ell_max + 20)
        sv = sl.projector_gram(lam, weight, grid)
        thetas, phis = grid.mesh()
        w3 = cd.lp_norm(np.abs(weight(thetas, phis)), 3.0, grid.surface_weights())
        ratios.append(cd.lp_norm(sv, 3.0) / (lam ** (1.0 / 3.0) * w3**2))
    assert min(ratios) > 0.1
    assert max(ratios) / min(ratios) < 1.5


# ---------------------------------------------------------------------------
# Oscillatory discretizations
# ---------------------------------------------------------------------------

def test_zero_frequency_separable_amplitude_is_rank_one():
    model = sl.paraboloid_model(0.0)
    sv = singular_values(model.matrix)
    assert sv[1] / sv[0] < 1e-7


def test_gauss_box_weights():
    nodes, weights = sl.gauss_box(((-1.0, 1.0), (0.0, 2.0)), 6)
    assert nodes.shape == (36, 2)
    assert np.sum(weights) == pytest.approx(4.0, rel=1e-13)
    # integrates x^2 * y over the box exactly
    val = np.sum(weights * nodes[:, 0] ** 2 * nodes[:, 1])
    assert val == pytest.approx(2.0 / 3.0 * 2.0, rel=1e-12)


def test_bump_support_and_smooth_peak():
    assert sl.bump(np.array([-1.0, 1.0, 2.0])).tolist() == [0.0, 0.0, 0.0]
    assert sl.bump(0.0) == pytest.approx(1.0)


def test_bump_is_its_formula_bit_for_bit_and_keeps_its_input():
    t = np.random.default_rng(4).uniform(-1.5, 1.5, 1001)
    t[::7] = np.nextafter(1.0, 0.0)
    t[1::7] = -1.0
    t[2::7] = 1e3
    kept = t.copy()
    inside = np.abs(t) < 1.0
    expected = np.zeros_like(t)
    expected[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    assert sl.bump(t).tobytes() == expected.tobytes()
    assert np.array_equal(t, kept)


def test_paraboloid_scaling_compensated_by_cube_root():
    etas = []
    for lam in (4.0, 8.0, 16.0):
        sv = sl.gram_singular_values(sl.paraboloid_model(lam).gram)
        etas.append(cd.lp_norm(sv, 6.0) * lam ** (1.0 / 3.0))
    assert max(etas) / min(etas) < 2.0


@pytest.mark.parametrize("lam, refine", [(16.0, 1), (32.0, 2), (128.0, 1)])
def test_paraboloid_gram_drops_only_a_roundoff_imaginary_part(lam, refine):
    # symmetric x rules and even amplitudes make M^H M real: its imaginary
    # part cancels in pairs, so the model keeps the real part alone
    model = sl.paraboloid_model(lam, refine=refine)
    dense = model.matrix.conj().T @ model.matrix
    top = singular_values(model.matrix)[0]
    (gram,) = model.gram
    assert gram.dtype == np.float64
    assert np.max(np.abs(dense.imag)) <= 1e-15 * top**2
    assert np.max(np.abs(gram - dense.real)) <= 1e-15 * top**2


def test_paraboloid_resolution_validates():
    ok, drift = sl.validate_resolution(sl.paraboloid_model, 16.0)
    assert ok and drift < 1e-4


def test_distance_resolution_flag_works_both_ways():
    ok_coarse, drift_coarse = sl.validate_resolution(sl.distance_model, 8.0)
    assert not ok_coarse and drift_coarse > 1e-4
    ok_fine, drift_fine = sl.validate_resolution(
        sl.distance_model, 8.0, points_per_wavelength=25.0)
    assert ok_fine and drift_fine < 1e-4


def test_distance_scaling_compensated_by_cube_root():
    etas = []
    for lam, ppw in ((8.0, 25.0), (16.0, 15.0)):
        sv = sl.gram_singular_values(sl.distance_model(lam, ppw).gram)
        etas.append(cd.lp_norm(sv, 6.0) * lam ** (1.0 / 3.0))
    assert 0.5 <= etas[1] / etas[0] <= 2.0


def _assert_gram_matches_dense_oracle(model):
    """The model's Gram blocks against the singular values of its dense matrix.

    Returns the top 20 singular values of both routes.
    """
    oracle = singular_values(model.matrix)
    top = oracle[0]
    for block in model.gram:
        assert np.max(np.abs(block - block.conj().T)) <= 1e-14 * top**2
    assert sum(block.shape[0] for block in model.gram) == min(model.matrix.shape)
    sv = sl.gram_singular_values(model.gram)[:20]
    oracle = oracle[:20]
    # both routes square the singular values, so below ~sqrt(eps) * top they
    # sit at the Gram floor and agree only as squares
    assert np.max(np.abs(sv**2 - oracle**2)) <= 1e-12 * top**2
    resolved = oracle >= 1e-3 * top
    assert resolved.sum() >= 5
    assert np.max(np.abs(sv - oracle)[resolved]) <= 1e-12 * top
    return sv, oracle


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("lam", [16.0, 32.0, 64.0])
def test_separable_paraboloid_gram_matches_dense_oracle(lam, refine):
    model = sl.paraboloid_model(lam, refine=refine)
    assert model.matrix.shape == (model.n_x_axis**2, model.n_y_axis)
    _assert_gram_matches_dense_oracle(model)


@pytest.mark.parametrize("lam", [0.0, 4.0, 8.0, 8.12])
def test_dense_rung_is_the_oracle_bit_for_bit(lam):
    model = sl.paraboloid_model(lam)
    assert model.matrix.size <= sl.DENSE_RUNG_ENTRIES
    assert np.array_equal(sl.gram_singular_values(model.gram),
                          singular_values(model.matrix))


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("lam, n_x, n_y", [
    (12.0, 12, 35),  # odd y count: a centre y node on each axis
    (13.0, 13, 38),  # odd x count: the odd parities lose the centre row
])
def test_parity_split_distance_gram_matches_dense_oracle(lam, n_x, n_y, refine):
    model = sl.distance_model(lam, refine=refine)
    assert (model.n_x_axis, model.n_y_axis) == (n_x * refine, n_y * refine)
    # D4 layout: (e, e) even and odd halves, (e, o) = (o, e) as one object
    # listed twice, (o, o) even and odd halves
    assert len(model.gram) == 6 and model.gram[2] is model.gram[3]
    assert len({id(block) for block in model.gram}) == 5
    _assert_gram_matches_dense_oracle(model)


def _axis_parity_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal even and odd vectors of the mirror i -> n - 1 - i, as columns."""
    eye = np.eye(n)
    flip = eye[::-1]
    half, n_odd = (n + 1) // 2, n // 2
    even = (eye + flip)[:, :half] / math.sqrt(2.0)
    if n % 2:
        even[:, -1] = eye[:, half - 1]  # the centre
    return even, ((eye - flip)[:, :n_odd] / math.sqrt(2.0))


@pytest.mark.parametrize("lam", [12.0, 13.0])  # even and odd n_x
def test_swap_pairs_the_mixed_parities_of_the_dense_oracle(lam):
    # the axis swap maps the (e, o) restriction of M M^H onto the (o, e) one,
    # so they share one spectrum: the Gram that the model lists twice
    model = sl.distance_model(lam)
    gram = model.matrix @ model.matrix.conj().T
    even, odd = _axis_parity_basis(model.n_x_axis)
    eo, oe = (np.kron(a, b) for a, b in ((even, odd), (odd, even)))
    spectra = [np.linalg.eigvalsh(basis.T @ gram @ basis) for basis in (eo, oe)]
    top = singular_values(model.matrix)[0]
    assert np.max(np.abs(spectra[0] - spectra[1])) <= 1e-14 * top**2
    assert np.max(np.abs(np.linalg.eigvalsh(model.gram[2]) - spectra[0])) <= 1e-14 * top**2


def test_repeated_gram_block_is_solved_once(monkeypatch):
    model = sl.distance_model(12.0)
    expected = sl.gram_singular_values([np.array(block) for block in model.gram])
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    sv = sl.gram_singular_values(model.gram)
    assert len(calls) == 5 and sum(block is model.gram[2] for block in calls) == 1
    assert np.array_equal(sv, expected)


# A block holds GRAM_BLOCK_ENTRIES // (8 n) unordered y-quadrant pairs
# {k, l}, n the octant rows i <= j of the x-quadrant nodes
@pytest.mark.parametrize("lam, ppw, block", [
    (8.0, 10.0, sl.GRAM_BLOCK_ENTRIES),  # n = 21: one block of 78 pairs
    (8.0, 25.0, sl.GRAM_BLOCK_ENTRIES),  # n = 55: 435 pairs, in 297 and 138
    (16.0, 10.0, sl.GRAM_BLOCK_ENTRIES),  # n = 36: one block of 276 pairs
    # 2^18, twice the default: at most half as many y blocks
    (8.0, 10.0, 1 << 18),
    (8.0, 25.0, 1 << 18),  # one block of 435 pairs
    (16.0, 10.0, 1 << 18),
    (16.0, 10.0, 4 * 64 * 97),  # 4 blocks of 86 pairs, the last 18
    (13.0, 10.0, 4 * 49 * 50),  # 5 blocks of 43, the last 18; odd n_x = 13
])
def test_blocked_distance_gram_matches_dense_oracle(lam, ppw, block, monkeypatch):
    monkeypatch.setattr(sl, "GRAM_BLOCK_ENTRIES", block)
    sv, oracle = _assert_gram_matches_dense_oracle(sl.distance_model(lam, ppw))
    # the top 20 of these spectra sit above the Gram floor
    assert np.max(np.abs(sv - oracle)) <= 1e-12 * oracle[0]


def test_distance_gram_working_set_stays_within_twice_the_gram():
    # at lam = 16, refine = 2 the five D4 Grams take 2.1 MB (3.1 MB as
    # listed, (e, o) twice) and a y block's three arrays 3.3 MB.  Peak
    # measured 5.7 MB; the four parity Grams peaked at 8.0 MB, and a block
    # with its temporaries (2^18 entries) at 21.8 MB
    import tracemalloc

    tracemalloc.start()
    try:
        model = sl.distance_model(16.0, refine=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sum(block.nbytes for block in model.gram)


@pytest.mark.parametrize("box", ["X_BOX_DISTANCE", "Y_BOX_DISTANCE"])
def test_distance_model_needs_boxes_centred_on_zero(box, monkeypatch):
    monkeypatch.setattr(sl, box, ((-0.3, 0.3), (-0.2, 0.4)))
    with pytest.raises(ValueError, match="centred on 0"):
        sl.distance_model(8.0)


@pytest.mark.parametrize("box", ["X_BOX_DISTANCE", "Y_BOX_DISTANCE"])
def test_distance_model_needs_square_boxes(box, monkeypatch):
    monkeypatch.setattr(sl, box, ((-0.3, 0.3), (-0.4, 0.4)))
    with pytest.raises(ValueError, match=box):
        sl.distance_model(8.0)


def test_oscillatory_operator_shape_and_weighting():
    x_nodes, x_w = sl.gauss_box(((-1.0, 1.0), (-1.0, 1.0)), 4)
    y_nodes, y_w = sl.gauss_box(((-1.0, 1.0),), 5)
    mat = sl.oscillatory_operator(sl.paraboloid_phase,
                                  lambda xn, yn: np.ones((len(xn), len(yn))),
                                  2.0, x_nodes, x_w, y_nodes, y_w)
    assert mat.shape == (16, 5)
    assert mat.dtype == complex
    # lam = 0 with unit amplitude: entry = sqrt(wx) sqrt(wy)
    flat = sl.oscillatory_operator(sl.paraboloid_phase,
                                   lambda xn, yn: np.ones((len(xn), len(yn))),
                                   0.0, x_nodes, x_w, y_nodes, y_w)
    assert np.allclose(flat, np.sqrt(x_w)[:, None] * np.sqrt(y_w)[None, :])


# ---------------------------------------------------------------------------
# Trace-ideal comparison
# ---------------------------------------------------------------------------

def indicator(lo):
    return lambda t: 1.0 if lo <= t < lo + 1.0 else 0.0


def test_kss_hilbert_schmidt_identity():
    grid = sb.build_grid(30, 44)
    lhs, rhs = sl.kss_bound(indicator(10.0), reference_weight, 2.0, grid, 14)
    ells, dim = sb.cluster_rank(10.0)
    basis, _, weights = ylm_matrix(ells, grid)
    thetas, phis = grid.mesh()
    w2 = reference_weight(thetas, phis) ** 2
    direct = sum(float(np.dot(weights, w2 * np.abs(basis[:, j]) ** 2))
                 for j in range(dim))
    assert lhs**2 == pytest.approx(direct, rel=1e-10)
    assert lhs <= rhs


def test_kss_operator_norm_capped_by_sup():
    grid = sb.build_grid(30, 44)
    lhs, rhs = sl.kss_bound(indicator(10.0), reference_weight, math.inf, grid, 14)
    thetas, phis = grid.mesh()
    assert lhs <= float(np.max(np.abs(reference_weight(thetas, phis))))
    assert lhs <= rhs


def test_kss_bound_holds_across_multi_cluster_support():
    grid = sb.build_grid(36, 52)
    two_clusters = lambda t: 1.0 if 8.0 <= t < 10.0 else 0.0
    for p in (2.0, 4.0, 6.0):
        lhs, rhs = sl.kss_bound(two_clusters, reference_weight, p, grid, 16)
        assert 0.0 < lhs <= rhs


def test_kss_empty_support():
    grid = sb.build_grid(16, 20)
    lhs, rhs = sl.kss_bound(lambda t: 0.0, reference_weight, 4.0, grid, 8)
    assert lhs == 0.0 and rhs == 0.0


@pytest.mark.parametrize("p", [2.0, 4.0, 6.0, math.inf])
def test_kss_bound_matches_dense_route(p):
    grid = sb.build_grid(36, 52)

    def beta(t):  # two clusters, unequal weights
        return math.exp(-(t - 9.0) ** 2) if 8.0 <= t < 10.0 else 0.0

    lhs, _ = sl.kss_bound(beta, rippled_weight, p, grid, 16)
    betas = np.concatenate([np.full(2 * ell + 1, beta(math.sqrt(ell * (ell + 1.0))))
                            for ell in (8, 9)])
    gram = mesh_cluster_gram([8, 9], rippled_weight, grid) * np.outer(betas, betas)
    sv = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))
    assert lhs == pytest.approx(cd.lp_norm(sv, p), rel=1e-13)


def test_kss_route_consistent_with_gram_route():
    # the squared S^6 norm of the filtered product equals the S^3 norm of
    # the two-sided compression: both routes see the same operator
    grid = sb.build_grid(30, 44)
    lhs, _ = sl.kss_bound(indicator(10.0), reference_weight, 6.0, grid, 14)
    sv = sl.projector_gram(10.0, reference_weight, grid)
    assert lhs**2 == pytest.approx(cd.lp_norm(sv, 3.0), rel=1e-12)
