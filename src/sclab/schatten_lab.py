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
  each azimuthal ring, then one theta sum per pair of basis functions in
  the lower triangle, mirrored into the upper one: O(n_theta dim^2 / 2)
  instead of O(n_theta n_phi dim^2).  Same quadrature, so the entries
  agree with the mesh product to roundoff, and eigvalsh reads the lower
  triangle only.  The kernel itself refuses a grid too coarse for that
  quadrature to be exact enough, so both callers share the one check.
- Paraboloid (:func:`paraboloid_model`): phase and amplitude separate over
  x_1 and x_2, so M^H M is the entrywise product of two n_y x n_y Grams,
  O(n_x n_y^2) with no n_x^2 x n_y matrix.  Symmetric x rules and even
  amplitudes make it real, solved in a third of the complex time.
- Distance (:func:`distance_model`): |x - y| does not separate, but both
  boxes are squares centred on 0, the ring depends on |x - y| only and
  the Gauss nodes are symmetric, so the square's group D4 (the axis
  reflections and the axis swap) commutes with M.  Its adapted basis
  splits M M^H into five distinct Hermitian blocks, built from the kernel
  on the octant i <= j of x-quadrant pairs against the four reflected
  images of the y-quadrant nodes: ~1/8 of the full grid's cos/sin work,
  and 38% of the products and eigensolves of the four parity blocks.  They
  are summed over blocks of unordered y pairs in real arithmetic,
  Re G = C C^T + S S^T and Im G = X - X^T with X = S C^T, half the flops
  of the complex product, in three arrays reused from block to block (see
  GRAM_BLOCK_ENTRIES): the distances, turned into the ring bump in place;
  cos|sin, which the parity and swap butterflies overwrite; the mask.

Every model holds its Gram as a tuple of diagonal blocks (one for the
paraboloid, six for the distance, one object listed twice), and
:func:`gram_singular_values` merges their spectra.

Precision.  A Gram squares the singular values, so its eigenvalues carry
an absolute error ~eps sigma_max^2 and a singular value below
~sqrt(eps) sigma_max (~1.5e-8 sigma_max) is roundoff, whatever the route.
Two routes agree on those only as squares.  The D4 split adds an error
of the same order: the Gauss nodes and weights are symmetric only to
roundoff, and the split takes each reflected or swapped node as its
exact image, so it is tested against the dense oracle (top singular
values within ~4e-15 sigma_max).  Dropping the paraboloid Gram's
imaginary part (~2e-17 sigma_max^2) moves only singular values near the
floor: at lam ~ 16, sigma_9 ~ 3e-6 sigma_max by 5e-7 relative.  The
benchmark's references pin two values of the lam ~ 8 paraboloid below
the floor (sigma_8 ~ 4e-8 and sigma_9 ~ 9e-9, at the 12-node floor of
both axes) to 1e-6 relative plus 1e-11, and the separable Gram moves
sigma_9 by 1-5% relative at lam = 7.9-8.1.  So matrices of at most
DENSE_RUNG_ENTRIES entries (144 x 12) keep the dense product M^H M, bit
for bit the oracle's.
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
    return SchattenReport(lam, p, ap, sv, norm, predicted, norm / predicted)


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
    Only the lower triangle is summed; the upper one is its conjugate.

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
    tables = [radial_rows(ell, grid.nodes) for ell in ells]
    offsets = np.cumsum([0] + [t.shape[0] for t in tables])
    gram = np.empty((offsets[-1], offsets[-1]), dtype=complex)
    for ia, rows_a in enumerate(tables):
        weighted = rows_a * grid.theta_weights
        for ib, rows_b in enumerate(tables[:ia + 1]):
            block = gram[offsets[ia]:offsets[ia + 1], offsets[ib]:offsets[ib + 1]]
            n_a, n_b = rows_a.shape[0], rows_b.shape[0]
            shift = (n_a - n_b) // 2  # l_a - l_b
            # s = a - b; m_a - m_b = s - shift; the lower triangle only
            for s in range(0 if ia == ib else 1 - n_b, n_a):
                a = np.arange(max(0, s), min(n_a, n_b + s))
                block[a, a - s] = ((weighted[a] * rows_b[a - s])
                                   @ coef[:, (s - shift) % grid.n_phi])
    upper = np.triu_indices(offsets[-1], 1)
    gram[upper] = gram.T[upper].conj()
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
    for a single block); their spectra are merged.  A block listed more
    than once, as one object, is solved once and its spectrum repeated.
    """
    distinct = {id(block): block for block in blocks}
    spectra = {key: np.linalg.eigvalsh(block) for key, block in distinct.items()}
    eigs = np.sort(np.concatenate([spectra[id(block)] for block in blocks]))[::-1]
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


_AXIS_FLOOR = 12  # nodes per axis at the least


def _axis_count(lam: float, extent: float, grad_bound: float,
                points_per_wavelength: float) -> int:
    cycles = lam * grad_bound * extent / (2.0 * math.pi)
    return max(_AXIS_FLOOR, int(math.ceil(points_per_wavelength * cycles)))


X_BOX_PARABOLOID = ((-0.5, 0.5), (-0.5, 0.5))
Y_BOX_PARABOLOID = ((-0.5, 0.5),)
# Paraboloid matrices of at most this many entries (144 x 12: both axes at
# the 12-node _AXIS_FLOOR) keep the dense Gram product.  Their
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
    M^H M = D [(A1^H A1) o (A2^H A2)] D in O(n_x n_y^2), without M.  It
    is real (the x rules are symmetric and the bumps even), so the model
    keeps the real part of that product; the dense rung stays complex.
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
    gram = ((a1.conj().T @ a1) * (a2.conj().T @ a2)).real * np.outer(d, d)
    return OscillatoryModel(lam, (gram,), n_x, n_y, dense)


X_BOX_DISTANCE = ((-0.3, 0.3), (-0.3, 0.3))
Y_BOX_DISTANCE = ((-0.9, 0.9), (-0.9, 0.9))
DISTANCE_RING = (0.2, 0.8)
# Unordered y-quadrant pairs per Gram block, as a count of kernel entries
# (four images, octant rows, both orders of a pair).  A block holds 25
# bytes an entry: the distances (8, turned into the ring bump in place),
# cos|sin (16) and the bump's mask (1), 3.3 MB at 2^17 whatever the
# resolution.  At lam = 16, refine = 2 (2.1 MB of Grams) a call peaks at
# 5.7 MB at 2^17 and 9.1 MB at 2^18; 2^16 peaks at 4.2 MB but runs ~10%
# longer (smaller products), on a 2-core x86 box.
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


def _add_gram(out: np.ndarray, a: np.ndarray, b: np.ndarray | None = None) -> None:
    """out += a b^H for a = C + iS held as (rows, cos|sin, y nodes).

    Without ``b``, a a^H with X = S C^T as its imaginary part, which the
    caller turns into X - X^T once the last y block is in.
    """
    (ca, sa), (cb, sb) = a.swapaxes(0, 1), (a if b is None else b).swapaxes(0, 1)
    out.real += ca @ cb.T
    out.real += sa @ sb.T
    out.imag += sa @ cb.T
    if b is not None:
        out.imag -= ca @ sb.T


def _d4_grams(lam: float, ring: tuple[float, float], x_axis, y_axis) -> tuple:
    """The blocks (ee even, ee odd, eo, eo, oo even, oo odd) of distance_model.

    ``ring`` is DISTANCE_RING's (centre, half width); ``x_axis`` and
    ``y_axis`` are :func:`_half_axis` of one axis of each box.  Rows are
    the octant pairs (i, j), i <= j, as [i < j | i = j]; (e, o) appends
    the rows i > j, the (o, e) rows (j, i) read at swapped y.  A y block
    of at most GRAM_BLOCK_ENTRIES // (8 n) unordered pairs {k, l}, n
    octant rows, takes the columns [k = l | k < l | (l, k)], so it is
    closed under the swap and every product reads views.
    """
    center, halfwidth = ring
    (x, (fe, fo)), (y, fy) = x_axis, y_axis
    sq = np.stack((np.subtract.outer(x, y), np.add.outer(x, y))) ** 2
    i, j = np.triu_indices(x.size, 1)
    i, j = np.append(i, np.arange(x.size)), np.append(j, np.arange(x.size))
    n_oct, n_lt = i.size, i.size - x.size
    sq_i, sq_j = sq[:, i], sq[:, j]  # (image, octant row, y node)
    # x factors by parity pair; swap-even rows i = j at 1/sqrt 2 (k = l at sqrt 2)
    half_diag = np.where(i == j, math.sqrt(0.5), 1.0)
    fx = [[f1[i] * f2[j] * (half_diag if s1 == s2 else 1.0)
           for s2, f2 in enumerate((fe, fo))] for s1, f1 in enumerate((fe, fo))]
    pair_k, pair_l = np.triu_indices(y.size)
    per_block = max(1, GRAM_BLOCK_ENTRIES // (8 * n_oct))
    dist_buf = np.empty(8 * n_oct * min(per_block, pair_k.size))
    cs_buf = np.empty(2 * dist_buf.size)
    mask_buf = np.empty(dist_buf.size, dtype=bool)
    same = [[np.zeros((n, n), dtype=complex) for n in (n_oct, n_lt)] for _ in range(2)]
    eo = np.zeros((n_oct + n_lt, n_oct + n_lt), dtype=complex)
    for start in range(0, pair_k.size, per_block):
        k, l = pair_k[start:start + per_block], pair_l[start:start + per_block]
        on_diag = k == l
        n_d = int(on_diag.sum())
        diag, up, swapped = slice(0, n_d), slice(n_d, k.size), slice(k.size, None)
        cols_k = np.concatenate((k[on_diag], k[~on_diag], l[~on_diag]))
        cols_l = np.concatenate((k[on_diag], l[~on_diag], k[~on_diag]))
        width = cols_k.size
        size = 4 * n_oct * width
        dist = dist_buf[:size].reshape(2, 2, n_oct, width)  # image (d1, d2)
        gathered = cs_buf[:size].reshape(2, 2, n_oct, width)  # (sq_i, sq_j), image
        np.take(sq_i, cols_k, axis=2, out=gathered[0], mode="clip")
        np.take(sq_j, cols_l, axis=2, out=gathered[1], mode="clip")
        np.add(gathered[0, :, None], gathered[1, None, :], out=dist)
        np.sqrt(dist, out=dist)
        cs = cs_buf[:2 * size].reshape(2, 2, n_oct, 2, width)
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
            factor = fy[s1][cols_k] * fy[s2][cols_l]
            if s1 == s2:
                factor[diag] *= math.sqrt(2.0)
            cs[s1, s2] *= np.multiply.outer(fx[s1][s2], factor)[:, None, :]
        for s, (even, odd) in enumerate(same):
            block = cs[s, s]
            block[..., up] += block[..., swapped]  # -> swap-even (k, l) + (l, k)
            block[..., swapped] *= -2.0
            block[..., swapped] += block[..., up]  # -> swap-odd (k, l) - (l, k)
            _add_gram(even, block[..., :k.size])
            _add_gram(odd, block[:n_lt, :, swapped])
        a, b = cs[0, 1], cs[1, 0, :n_lt]
        _add_gram(eo[:n_oct, :n_oct], a)
        _add_gram(eo[n_oct:, n_oct:], b)
        for cols_b, cols_a in ((diag, diag), (swapped, up), (up, swapped)):
            _add_gram(eo[n_oct:, :n_oct], b[..., cols_b], a[..., cols_a])
    for block in (eo[:n_oct, :n_oct], eo[n_oct:, n_oct:], *same[0], *same[1]):
        block.imag -= block.imag.T.copy()
    eo[:n_oct, n_oct:] = eo[n_oct:, :n_oct].conj().T

    def kept(block, factor):  # the odd parity holds no centre row
        return block if factor.all() else block[np.ix_(factor != 0.0, factor != 0.0)]

    eo = kept(eo, np.append(fx[0][1], fx[1][0][:n_lt]))
    return (kept(same[0][0], fx[0][0]), kept(same[0][1], fx[0][0][:n_lt]), eo, eo,
            kept(same[1][0], fx[1][1]), kept(same[1][1], fx[1][1][:n_lt]))


def distance_model(lam: float, points_per_wavelength: float = 10.0,
                   refine: int = 1) -> OscillatoryModel:
    """Cutoff distance-phase operator with annular amplitude support.

    The amplitude vanishes unless d(x, y) sits inside DISTANCE_RING, the
    annulus hypothesis of the distance-phase scaling; |grad psi| = 1 on
    both sides fixes the resolution rule.  The x box is the smaller one,
    so the Gram is M M^H on the x side.

    Both boxes are squares centred on 0 and the ring depends on |x - y|
    only, so M(g x, g y) = M(x, y) for g in the square's group D4 (the
    axis reflections and the swap), and M M^H splits in D4's adapted basis
    (:func:`_d4_grams`).  Per parity pair (s1, s2), M_s(x, y) =
    sum_d s^d M(x, d y) over the four reflections d, x and y in one
    quadrant; a centre node (odd count) gets 1/sqrt(2) in the even parity
    and is absent from the odd one.  The swap maps (e, o) onto (o, e),
    D4's 2-dimensional irrep, so one Gram is listed twice, and splits
    (e, e) and (o, o) each into a swap-even half over x-quadrant pairs
    i <= j and a swap-odd half over i < j.
    """
    for name, box in (("X_BOX_DISTANCE", X_BOX_DISTANCE), ("Y_BOX_DISTANCE", Y_BOX_DISTANCE)):
        if box[0] != box[1] or box[0][0] != -box[0][1]:
            raise ValueError(f"the D4 split needs square boxes centred on 0, got {name} = {box}")
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

    blocks = _d4_grams(lam, (center, halfwidth), _half_axis(*X_BOX_DISTANCE[0], n_x),
                       _half_axis(*Y_BOX_DISTANCE[0], n_y))
    return OscillatoryModel(lam, blocks, n_x, n_y, dense)


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
