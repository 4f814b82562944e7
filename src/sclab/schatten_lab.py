"""Schatten norms of compressed projectors and oscillatory discretizations.

Three computations live here.

1. Cluster compressions W Pi W for a bounded weight W on the sphere: the
   nonzero spectrum equals that of the finite Gram matrix
   G_jk = int |W|^2 Y_j conj(Y_k) over the cluster basis, an exact
   finite-rank reduction (the only approximation is quadrature of the
   entries).  The tests check it against a second, independent route: the
   projector kernel discretized through the addition theorem
   sum_l (2l+1)/(4 pi) P_l(cos geodesic).

2. Weighted Nystrom discretization of oscillatory integral operators with
   kernel exp(i lam psi(x, y)) a(x, y): the matrix
   sqrt(wx_i) K(x_i, y_j) sqrt(wy_j) has singular values approximating the
   operator's, validated by grid doubling.  The two model phases shipped,
   x . (y, y^2/2) and |x - y| with an annular amplitude, satisfy the rank
   and curvature hypotheses of the scaling theory by construction
   (paraboloids have curvature one; spheres around x by Gauss' lemma);
   user-supplied phases are not machine-checked.

3. A trace-ideal comparison bound for beta(sqrt(Delta)) W with beta
   supported on finitely many unit spectral intervals, computed through the
   same Gram mechanism, against C^{1/p} ||W||_p (sum_n sup |beta|^p (1+n))^{1/p}.

Every spectrum comes from a Gram matrix, assembled on the operator's
smaller side from its structure; no route forms the product of two mesh
matrices, and the dense matrices stay only as test oracles.

- Cluster Gram (:func:`weighted_cluster_gram`, shared by
  :func:`projector_gram` and :func:`kss_bound`): an FFT of |W|^2 along
  each azimuthal ring, then one theta sum per pair of basis functions,
  O(n_theta dim^2) instead of O(n_theta n_phi dim^2).  Same quadrature,
  so the entries agree with the mesh product to roundoff.  The kernel
  itself refuses a grid too coarse for that quadrature to be exact
  enough, so both callers share the one resolution check.
- Paraboloid (:func:`paraboloid_model`): phase and amplitude separate over
  x_1 and x_2, so M^H M is the entrywise product of two n_y x n_y Grams,
  O(n_x n_y^2) with no n_x^2 x n_y matrix.
- Distance (:func:`distance_model`): |x - y| does not separate, but the
  boxes are centred on 0, the ring depends on |x - y| only and the Gauss
  nodes are symmetric, so each axis reflection of the square commutes
  with M.  In the per-axis even/odd basis M M^H splits into four
  Hermitian blocks, one per parity pair, each built from the kernel on
  one quadrant of x nodes against the four reflected images of one
  quadrant of y nodes: a quarter of the cos/sin work and ~1/16 of the
  products and of the eigensolve.  Each block is summed over blocks of y
  nodes (at most GRAM_BLOCK_ENTRIES kernel entries each) in real
  arithmetic: Re G = [C S][C S]^T and Im G = X - X^T, X = S C^T, half
  the flops of the complex product.  A y block holds three arrays, reused
  from block to block: the distances, gathered from per-axis tables of
  squared offsets and turned into the ring bump in place; cos|sin, which
  the butterflies into parities overwrite; and the bump's mask.  That is
  25 bytes a kernel entry, 3.3 MB at 2^17 entries, and the four Grams
  accumulate into one complex array; at lam = 16, refine = 2 a call's
  tracemalloc peak is 8.0 MB for a 4.2 MB Gram.

Every model holds its Gram as a tuple of diagonal blocks (one for the
paraboloid, four for the distance), and :func:`gram_singular_values`
merges their spectra.

Precision.  A Gram squares the singular values, so its eigenvalues carry
an absolute error ~eps sigma_max^2 and a singular value below
~sqrt(eps) sigma_max (~1.5e-8 sigma_max) is roundoff, whatever the route.
Two routes agree on those only as squares.  The parity split adds an
error of the same order: the Gauss nodes and weights are symmetric only
to roundoff, and the split takes each reflected node as the exact mirror
image, so it is tested against the dense oracle (top singular values
within ~4e-15 sigma_max).  The benchmark's references pin two values of
the lam ~ 8 paraboloid below that floor (sigma_8 ~ 4e-8 and
sigma_9 ~ 9e-9, at the 12-node floor of both axes) to 1e-6 relative plus
1e-11, and the separable Gram moves sigma_9 by 1-5% relative at
lam = 7.9-8.1.  So matrices of at most DENSE_RUNG_ENTRIES entries
(144 x 12) keep the dense product M^H M, bit for bit the oracle's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .cluster_density import exponents, lp_norm
from .sphere_basis import GridResolutionError, SphereGrid, cluster_rank, radial_rows


@dataclass(frozen=True)
class SchattenReport:
    """One (lambda, p) measurement against the predicted growth."""

    lam: float
    p: float
    alpha_prime: float
    singular_values: np.ndarray
    schatten_norm: float
    predicted: float
    ratio: float


def dual_exponent(alpha: float) -> float:
    """Hoelder dual alpha' = alpha/(alpha - 1); inf and 1 swap."""
    if math.isnan(alpha):
        raise ValueError("alpha must not be NaN")
    if math.isinf(alpha):
        return 1.0
    if alpha <= 1.0:
        return math.inf
    return alpha / (alpha - 1.0)


def make_report(lam: float, p: float, singular_values: np.ndarray) -> SchattenReport:
    """Assemble the report row: measured S^{alpha'} norm against lam^{2s}."""
    if not 0 < lam < math.inf:
        raise ValueError("lam must be finite and positive")
    s, alpha = exponents(p)
    ap = dual_exponent(alpha)
    sv = np.sort(np.asarray(singular_values, dtype=float))[::-1]
    norm = lp_norm(sv, ap)
    predicted = lam ** (2.0 * s)
    return SchattenReport(lam, p, ap, sv, norm, predicted,
                          norm / predicted if predicted else math.inf)


# ---------------------------------------------------------------------------
# Cluster compressions
# ---------------------------------------------------------------------------

# Degrees of |W|^2 that a cluster grid must resolve on top of 2 l_max.
WEIGHT_DEGREE_HINT = 8


def weighted_cluster_gram(ells, w_samples, grid: SphereGrid) -> np.ndarray:
    """G_ab = int |W|^2 conj(Y_a) Y_b over the cluster basis of degrees ``ells``.

    Columns follow :func:`radial_rows` degree by degree (degree-major,
    m = -l..l), and the entries are the grid's trapezoid-times-Gauss
    quadrature: an FFT of |W|^2 along each azimuthal ring gives
    c_k(theta) = (2 pi / n_phi) sum_j |W|^2 e^{-i k phi_j}, and G_ab = sum_theta w_theta g_a g_b c_{m_a - m_b}(theta),
    one diagonal m_a - m_b at a time.  That costs O(n_theta dim^2) plus the
    FFT, against O(n_theta n_phi dim^2) for the product of the mesh matrices.

    ``w_samples(theta, phi)`` must be real and bounded.  The grid has to
    integrate products of two cluster harmonics against |W|^2 exactly
    enough: degree > 2 l_max + WEIGHT_DEGREE_HINT in colatitude and
    n_phi > 2 l_max + WEIGHT_DEGREE_HINT in azimuth, else the reduction is
    not trusted and a GridResolutionError is raised.  ``ells`` is nonempty.
    """
    ell_max = max(ells)
    for name, size in (("grid degree", grid.degree), ("n_phi", grid.n_phi)):
        if size <= 2 * ell_max + WEIGHT_DEGREE_HINT:
            raise GridResolutionError(
                f"{name} {size} <= 2*{ell_max} + {WEIGHT_DEGREE_HINT}")
    thetas, phis = grid.mesh()
    w_sq = np.asarray(w_samples(thetas, phis), dtype=float) ** 2
    coef = np.fft.fft(w_sq.reshape(grid.n_theta, grid.n_phi), axis=1)
    coef *= grid.phi_weight
    x = np.cos(grid.theta_nodes)
    tables = [radial_rows(ell, x) for ell in ells]
    offsets = np.cumsum([0] + [t.shape[0] for t in tables])
    gram = np.empty((offsets[-1], offsets[-1]), dtype=complex)
    for ia, rows_a in enumerate(tables):
        weighted = rows_a * grid.theta_weights
        for ib, rows_b in enumerate(tables):
            block = gram[offsets[ia]:offsets[ia + 1], offsets[ib]:offsets[ib + 1]]
            n_a, n_b = rows_a.shape[0], rows_b.shape[0]
            shift = (n_a - n_b) // 2  # l_a - l_b
            for s in range(1 - n_b, n_a):  # s = a - b; m_a - m_b = s - shift
                a = np.arange(max(0, s), min(n_a, n_b + s))
                block[a, a - s] = ((weighted[a] * rows_b[a - s])
                                   @ coef[:, (s - shift) % grid.n_phi])
    return gram


def projector_gram(lam: float, w_samples, grid: SphereGrid) -> np.ndarray:
    """Descending eigenvalues of W Pi W via the cluster Gram matrix.

    The weight and the grid are those of :func:`weighted_cluster_gram`,
    which raises GridResolutionError on a grid too coarse for the cluster.
    """
    ells, _ = cluster_rank(lam)
    if not ells:
        return np.zeros(0)
    gram = weighted_cluster_gram(ells, w_samples, grid)
    eigs = np.linalg.eigvalsh(gram)[::-1]
    return np.clip(eigs, 0.0, None)


# ---------------------------------------------------------------------------
# Oscillatory integral operators
# ---------------------------------------------------------------------------

def _axis_rule(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on one interval [lo, hi]."""
    from .sphere_basis import _gauss_rule

    u, w = _gauss_rule(n)
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * u, 0.5 * (hi - lo) * w


def gauss_box(bounds, n_per_axis: int):
    """Tensor Gauss-Legendre rule on a product of intervals.

    bounds is a sequence of (lo, hi) pairs; returns (nodes, weights) with
    nodes of shape (prod n, dim).
    """
    axes, wts = zip(*(_axis_rule(lo, hi, n_per_axis) for lo, hi in bounds))
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*wts, indexing="ij")
    weight = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    return nodes, weight


def bump(t):
    """C-infinity bump exp(1 - 1/(1 - t^2)) on |t| < 1, zero outside."""
    return _bump_in_place(np.array(t, dtype=float))


def _bump_in_place(t: np.ndarray, inside: np.ndarray | None = None) -> np.ndarray:
    """Overwrite the float array ``t`` with bump(t) and return it.

    ``inside`` is an optional boolean scratch array of t's shape.  The
    formula runs on the entries with t^2 < 1 only, which are those with
    |t| < 1 (squaring rounds monotonically and (1 - 2^-53)^2 < 1), so
    nothing outside can overflow.
    """
    if inside is None:
        inside = np.empty(t.shape, dtype=bool)
    np.square(t, out=t)
    np.less(t, 1.0, out=inside)
    np.subtract(1.0, t, out=t, where=inside)
    np.divide(1.0, t, out=t, where=inside)
    np.subtract(1.0, t, out=t, where=inside)
    np.exp(t, out=t, where=inside)
    np.copyto(t, 0.0, where=np.logical_not(inside, out=inside))
    return t


def box_bump(nodes: np.ndarray, bounds) -> np.ndarray:
    """Product of per-axis bumps filling the given box."""
    vals = np.ones(nodes.shape[0])
    for axis, (lo, hi) in enumerate(bounds):
        center, halfwidth = 0.5 * (hi + lo), 0.5 * (hi - lo)
        vals *= bump((nodes[:, axis] - center) / halfwidth)
    return vals


def oscillatory_operator(phase, amplitude, lam: float,
                         x_nodes, x_weights, y_nodes, y_weights) -> np.ndarray:
    """Weighted Nystrom matrix sqrt(wx) e^{i lam psi} a sqrt(wy).

    ``phase`` and ``amplitude`` take (x_nodes, y_nodes) and broadcast to a
    (len x, len y) array.  Singular values of the result approximate those
    of the integral operator; see :func:`validate_resolution`.
    """
    psi = phase(x_nodes, y_nodes)
    amp = amplitude(x_nodes, y_nodes)
    mat = np.exp(1j * lam * psi) * amp
    mat *= np.sqrt(x_weights)[:, None]
    mat *= np.sqrt(y_weights)[None, :]
    return mat


def gram_singular_values(blocks) -> np.ndarray:
    """Descending singular values of M, given its Gram M^H M or M M^H.

    ``blocks`` are the Gram's diagonal blocks (Hermitian; a sequence, even
    for a single block); their spectra are merged.
    """
    eigs = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))[::-1]
    return np.sqrt(np.clip(eigs, 0.0, None))


def paraboloid_phase(x_nodes: np.ndarray, y_nodes: np.ndarray) -> np.ndarray:
    """psi(x, y) = x . (y, y^2/2) for x in R^2, y in R (graph of a parabola)."""
    y = y_nodes[:, 0]
    return np.outer(x_nodes[:, 0], y) + np.outer(x_nodes[:, 1], 0.5 * y * y)


def distance_phase(x_nodes: np.ndarray, y_nodes: np.ndarray) -> np.ndarray:
    """psi(x, y) = |x - y| for x, y in R^2."""
    diff = x_nodes[:, None, :] - y_nodes[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


@dataclass(frozen=True)
class OscillatoryModel:
    """A discretized W T_lam at one resolution, held as its Gram matrix.

    ``gram`` is M^H M or M M^H of the weighted Nystrom matrix M (see each
    builder for the side and the basis), as a tuple of its diagonal blocks;
    their eigenvalues together are the squared singular values.
    ``matrix`` is M itself, assembled densely on first access: the oracle
    that the structured Gram routes are tested against.
    """

    lam: float
    gram: tuple[np.ndarray, ...]
    n_x_axis: int
    n_y_axis: int
    dense: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.dense()


def _axis_count(lam: float, extent: float, grad_bound: float,
                points_per_wavelength: float, floor: int = 12) -> int:
    cycles = lam * grad_bound * extent / (2.0 * math.pi)
    return max(floor, int(math.ceil(points_per_wavelength * cycles)))


X_BOX_PARABOLOID = ((-0.5, 0.5), (-0.5, 0.5))
Y_BOX_PARABOLOID = ((-0.5, 0.5),)
# Paraboloid matrices of at most this many entries (144 x 12: both axes at
# the 12-node floor of _axis_count) keep the dense Gram product.  Their
# smallest singular values sit at the Gram-squaring floor, where the
# separable product rounds differently (see the module notes).
DENSE_RUNG_ENTRIES = 144 * 12


def _bump_factor(lo: float, hi: float, n: int, lam: float,
                 slope: np.ndarray) -> np.ndarray:
    """Rows sqrt(w_i) bump(t_i) e^{i lam t_i slope_j} on one Gauss axis."""
    nodes, weights = _axis_rule(lo, hi, n)
    amp = np.sqrt(weights) * box_bump(nodes[:, None], ((lo, hi),))
    return amp[:, None] * np.exp(1j * lam * np.outer(nodes, slope))


def paraboloid_model(lam: float, points_per_wavelength: float = 10.0,
                     refine: int = 1) -> OscillatoryModel:
    """Cutoff paraboloid-extension operator at the resolution rule.

    Amplitude and cutoff W are smooth box bumps on the supports above;
    gradient bounds |d psi/d y| <= 0.75 and |grad_x psi| <= 0.52 on them fix
    the per-axis node counts at >= points_per_wavelength per oscillation.
    The Gram is M^H M on the y side.  Phase and amplitude separate over
    x_1 and x_2, M[(i1, i2), j] = A1[i1, j] A2[i2, j] D_j, so
    M^H M = D [(A1^H A1) o (A2^H A2)] D in O(n_x n_y^2), without M.
    """
    n_x = _axis_count(lam, 1.0, 0.52, points_per_wavelength) * refine
    n_y = _axis_count(lam, 1.0, 0.75, points_per_wavelength) * refine

    def dense():
        x_nodes, x_w = gauss_box(X_BOX_PARABOLOID, n_x)
        y_nodes, y_w = gauss_box(Y_BOX_PARABOLOID, n_y)

        def amplitude(xn, yn):
            return np.outer(box_bump(xn, X_BOX_PARABOLOID),
                            box_bump(yn, Y_BOX_PARABOLOID))

        return oscillatory_operator(paraboloid_phase, amplitude, lam,
                                    x_nodes, x_w, y_nodes, y_w)

    if n_x * n_x * n_y <= DENSE_RUNG_ENTRIES:
        mat = dense()
        return OscillatoryModel(lam, (mat.conj().T @ mat,), n_x, n_y, lambda: mat)
    y, y_w = _axis_rule(*Y_BOX_PARABOLOID[0], n_y)
    a1 = _bump_factor(*X_BOX_PARABOLOID[0], n_x, lam, y)
    a2 = _bump_factor(*X_BOX_PARABOLOID[1], n_x, lam, 0.5 * y * y)
    d = np.sqrt(y_w) * box_bump(y[:, None], Y_BOX_PARABOLOID)
    gram = (a1.conj().T @ a1) * (a2.conj().T @ a2)
    gram *= np.outer(d, d)
    return OscillatoryModel(lam, (gram,), n_x, n_y, dense)


X_BOX_DISTANCE = ((-0.3, 0.3), (-0.3, 0.3))
Y_BOX_DISTANCE = ((-0.9, 0.9), (-0.9, 0.9))
DISTANCE_RING = (0.2, 0.8)
# y-quadrant nodes per Gram block, as a count of kernel entries over the
# four reflected images.  A block holds 25 bytes an entry: the distances
# (8, turned into the ring bump in place), cos|sin (16) and the bump's
# mask (1), 3.3 MB at 2^17 whatever the resolution.  At lam = 16,
# refine = 2 (a 4.2 MB Gram) a call's tracemalloc peak is 8.0 MB at 2^17
# and 11.3 MB at 2^18; 2^16 peaks at 6.4 MB but takes ~15% longer than
# 2^17 (smaller products), on a 2-core x86 box.
GRAM_BLOCK_ENTRIES = 1 << 17


def _half_axis(lo: float, hi: float, n: int):
    """First ceil(n/2) Gauss nodes of [lo, hi], with their factors by parity.

    The factors are sqrt(w) bump(t), as (even, odd).  On an odd count the
    last of these nodes is the centre: it gets 1/sqrt(2) in the even
    parity and 0 in the odd one, which holds no centre.
    """
    nodes, weights = _axis_rule(lo, hi, n)
    half = (n + 1) // 2
    even = np.sqrt(weights[:half]) * box_bump(nodes[:half, None], ((lo, hi),))
    odd = even.copy()
    if n % 2:
        even[-1] *= math.sqrt(0.5)
        odd[-1] = 0.0
    return nodes[:half], (even, odd)


def _parity_grams(lam: float, ring: tuple[float, float], x_axes, y_axes) -> np.ndarray:
    """Re G_s + i Im G_s of distance_model, before the x factors, per parity pair s.

    ``ring`` is the (centre, half width) of DISTANCE_RING, and ``x_axes``
    and ``y_axes`` are :func:`_half_axis` of each axis.  Returns
    one complex array of shape (2, 2, n, n), n the x-quadrant node count
    (ij order), summed over blocks of GRAM_BLOCK_ENTRIES // (4 n) y nodes.
    A block gathers its distances from per-axis tables of the squared image
    offsets (x_a -/+ y_a)^2, turns them into the ring bump in place after
    cos|sin is taken, and runs the parity butterflies in place; each of its
    three arrays is a prefix of one buffer, so the working set stays put.
    """
    center, halfwidth = ring
    (x1, _), (x2, _) = x_axes
    (y1, fy1), (y2, fy2) = y_axes
    sq1, sq2 = [np.stack((np.subtract.outer(xa, ya), np.add.outer(xa, ya))) ** 2
                for xa, ya in ((x1, y1), (x2, y2))]
    half, half_y = x1.size, y1.size
    n_rows, n_cols = half * half, half_y * half_y
    step = min(n_cols, max(1, GRAM_BLOCK_ENTRIES // (4 * n_rows)))
    dist_buf = np.empty(4 * n_rows * step)
    cs_buf = np.empty(2 * dist_buf.size)
    mask_buf = np.empty(dist_buf.size, dtype=bool)
    gram = np.zeros((2, 2, n_rows, n_rows), dtype=complex)
    for start in range(0, n_cols, step):
        j1, j2 = np.divmod(np.arange(start, min(start + step, n_cols)), half_y)
        width = j1.size
        size = 4 * n_rows * width
        dist = dist_buf[:size].reshape(2, 2, half, half, width)
        np.add(sq1[:, None, :, None, j1], sq2[None, :, None, :, j2], out=dist)
        dist = dist.reshape(2, 2, n_rows, width)  # image (d1, d2), x node, y node
        np.sqrt(dist, out=dist)
        cs = cs_buf[:2 * size].reshape(2, 2, n_rows, 2, width)
        np.multiply(dist, lam, out=cs[..., 1, :])
        np.cos(cs[..., 1, :], out=cs[..., 0, :])
        np.sin(cs[..., 1, :], out=cs[..., 1, :])
        dist -= center
        dist /= halfwidth
        cs *= _bump_in_place(dist, mask_buf[:size].reshape(dist.shape))[..., None, :]
        for axis in (0, 1):  # images (identity, reflected) -> parities (even, odd)
            ident, refl = np.moveaxis(cs, axis, 0)
            ident += refl  # a + b
            refl *= -2.0
            refl += ident  # (a + b) - 2b
        for s1, s2 in np.ndindex(2, 2):
            block = cs[s1, s2]
            block *= fy1[s1][j1] * fy2[s2][j2]
            block = block.reshape(n_rows, 2 * width)
            gram[s1, s2].real += block @ block.T
            gram[s1, s2].imag += block[:, width:] @ block[:, :width].T
    for block in gram.reshape(4, n_rows, n_rows):
        block.imag -= block.imag.T.copy()
    return gram


def distance_model(lam: float, points_per_wavelength: float = 10.0,
                   refine: int = 1) -> OscillatoryModel:
    """Cutoff distance-phase operator with annular amplitude support.

    The amplitude vanishes unless d(x, y) sits inside DISTANCE_RING, the
    annulus hypothesis of the distance-phase scaling; |grad psi| = 1 on
    both sides fixes the resolution rule.  The x box is the smaller one,
    so the Gram is M M^H on the x side.

    Both boxes are centred on 0 and the ring depends on |x - y| only, so
    M(R x, R y) = M(x, y) for the reflection R of either axis, and M M^H
    is block diagonal in the per-axis even/odd basis: one block per parity
    pair (s1, s2).  Block s has M_s(x, y) = sum_d s^d M(x, d y) over the
    four reflections d, with x and y in one quadrant; a centre node (odd
    count) scales it by 1/sqrt(2) and is absent from the odd parity.  The
    kernel is evaluated on the quadrants only and summed over blocks of y
    nodes (:func:`_parity_grams`), with M_s = C + iS in real arithmetic:
    Re G_s = [C S][C S]^T and Im G_s = X - X^T with X = S C^T.  The four
    blocks are views of one complex array; on an odd x count the parities
    without the centre copy out their rows.
    """
    for lo, hi in X_BOX_DISTANCE + Y_BOX_DISTANCE:
        if lo != -hi:
            raise ValueError(f"the parity split needs boxes centred on 0, "
                             f"got the interval ({lo}, {hi})")
    n_x = _axis_count(lam, 0.6, 1.0, points_per_wavelength) * refine
    n_y = _axis_count(lam, 1.8, 1.0, points_per_wavelength) * refine
    ring_lo, ring_hi = DISTANCE_RING
    center, halfwidth = 0.5 * (ring_lo + ring_hi), 0.5 * (ring_hi - ring_lo)

    def amplitude(xn, yn):
        base = np.outer(box_bump(xn, X_BOX_DISTANCE),
                        box_bump(yn, Y_BOX_DISTANCE))
        dist = distance_phase(xn, yn)
        return base * bump((dist - center) / halfwidth)

    def dense():
        x_nodes, x_w = gauss_box(X_BOX_DISTANCE, n_x)
        y_nodes, y_w = gauss_box(Y_BOX_DISTANCE, n_y)
        return oscillatory_operator(distance_phase, amplitude, lam,
                                    x_nodes, x_w, y_nodes, y_w)

    x_axes = [_half_axis(lo, hi, n_x) for lo, hi in X_BOX_DISTANCE]
    y_axes = [_half_axis(lo, hi, n_y) for lo, hi in Y_BOX_DISTANCE]
    gram = _parity_grams(lam, (center, halfwidth), x_axes, y_axes)
    (_, fx1), (_, fx2) = x_axes
    half, n_odd = (n_x + 1) // 2, n_x // 2
    blocks = []
    for s1, s2 in np.ndindex(2, 2):
        factor = np.outer(fx1[s1], fx2[s2]).ravel()
        block = gram[s1, s2]
        block *= np.outer(factor, factor)
        k1, k2 = (n_odd if s1 else half), (n_odd if s2 else half)
        block = block.reshape(half, half, half, half)[:k1, :k2, :k1, :k2]
        blocks.append(block.reshape(k1 * k2, k1 * k2))
    return OscillatoryModel(lam, tuple(blocks), n_x, n_y, dense)


# validate_resolution compares this many top singular values at this tolerance
RESOLUTION_TOP_K = 20
RESOLUTION_RTOL = 1e-4


def validate_resolution(builder, lam: float, **kwargs) -> tuple[bool, float]:
    """Doubling check of the builder's top singular values at ``lam``.

    Converged when the top RESOLUTION_TOP_K singular values move less than
    RESOLUTION_RTOL, relative to the largest, under ``refine=2``.  Returns
    (converged, worst_drift); a False flag means the base resolution
    under-resolves the oscillation and its spectra are not to be trusted.
    ``kwargs`` go to the builder at both resolutions.
    """
    base = gram_singular_values(builder(lam, **kwargs).gram)
    fine = gram_singular_values(builder(lam, refine=2, **kwargs).gram)
    k = min(RESOLUTION_TOP_K, base.size, fine.size)
    scale = max(fine[0], 1e-300)
    drift = float(np.max(np.abs(base[:k] - fine[:k]) / scale))
    return drift < RESOLUTION_RTOL, drift


# ---------------------------------------------------------------------------
# Trace-ideal comparison bound
# ---------------------------------------------------------------------------

SPHERE_WEYL_CONST = 1.0 / (2.0 * math.pi)  # sup_x Pi_n(x,x) <= (1+n) * this


def kss_bound(beta, w_samples, p: float, grid: SphereGrid,
              n_max: int) -> tuple[float, float]:
    """Both sides of the cluster comparison bound for beta(sqrt(Delta)) W.

    lhs: Schatten p-norm computed exactly on the finite-rank range of
    beta(sqrt(Delta)) restricted to degrees l <= n_max, via the Gram matrix
    of the functions beta_j W Y_j.  rhs: ||W||_p times the l^p norm of
    sup_{[n,n+1]} |beta| with weights C (1+n), C = SPHERE_WEYL_CONST, the
    sup sampled on 64 points per unit interval.  Requires lhs <= rhs.  The
    grid must resolve the degrees where beta is nonzero, as in
    :func:`weighted_cluster_gram`, else GridResolutionError.
    """
    if not p >= 2:
        raise ValueError("p must be >= 2")
    ells = [ell for ell in range(0, n_max + 1)
            if beta(math.sqrt(ell * (ell + 1.0))) != 0.0]
    if not ells:
        return 0.0, 0.0
    betas = np.concatenate([np.full(2 * ell + 1, beta(math.sqrt(ell * (ell + 1.0))))
                            for ell in ells])
    gram = weighted_cluster_gram(ells, w_samples, grid)
    gram *= np.outer(betas, betas)
    lhs = lp_norm(gram_singular_values((gram,)), p)
    sup_beta = [max(abs(beta(t)) for t in np.linspace(n, n + 1, 64, endpoint=False))
                for n in range(0, n_max + 1)]
    tail = lp_norm(sup_beta, p, SPHERE_WEYL_CONST * (1.0 + np.arange(n_max + 1)))
    thetas, phis = grid.mesh()
    w_norm = lp_norm(np.abs(w_samples(thetas, phis)), p, grid.surface_weights())
    return lhs, w_norm * tail
