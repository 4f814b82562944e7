"""Schatten norms of compressed projectors and oscillatory discretizations.

Three computations live here.

1. Cluster compressions W Pi W for a bounded weight W on the sphere: the
   nonzero spectrum equals that of the finite Gram matrix
   G_jk = int |W|^2 Y_j conj(Y_k) over the cluster basis, an exact
   finite-rank reduction (the only approximation is quadrature of the
   entries).  A second, independent route discretizes the projector kernel
   through the addition theorem sum_l (2l+1)/(4 pi) P_l(cos geodesic) and
   must agree.

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
  so the entries agree with the mesh product to roundoff.
- Paraboloid (:func:`paraboloid_model`): phase and amplitude separate over
  x_1 and x_2, so M^H M is the entrywise product of two n_y x n_y Grams,
  O(n_x n_y^2) with no n_x^2 x n_y matrix.
- Distance (:func:`distance_model`): |x - y| does not separate, so M M^H
  is summed over blocks of at most GRAM_BLOCK_ENTRIES entries of M, in
  real arithmetic: Re G = [C S][C S]^T and Im G = X - X^T, X = S C^T,
  half the flops of the complex product.

Precision.  A Gram squares the singular values, so its eigenvalues carry
an absolute error ~eps sigma_max^2 and a singular value below
~sqrt(eps) sigma_max (~1.5e-8 sigma_max) is roundoff, whatever the route.
Two routes agree on those only as squares.  The benchmark's references
pin two such values of the lam ~ 8 paraboloid (sigma_8 ~ 4e-8 and
sigma_9 ~ 9e-9, at the 12-node floor of both axes) to 1e-6 relative
plus 1e-11, and the separable Gram moves sigma_9 by 1-5% relative at
lam = 7.9-8.1.  So matrices of at most
DENSE_RUNG_ENTRIES entries (144 x 12) keep the dense product M^H M, bit
for bit the oracle's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .cluster_density import exponents
from .sphere_basis import SphereGrid, cluster_rank, legendre_row


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


def schatten_norm(singular_values, alpha: float) -> float:
    """(sum sigma^alpha)^(1/alpha); alpha = inf is the largest value."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    sv = np.asarray(singular_values, dtype=float)
    if np.any(sv < 0):
        raise ValueError("singular values must be nonnegative")
    if sv.size == 0:
        return 0.0
    if math.isinf(alpha):
        return float(sv.max())
    top = sv.max()
    if top == 0.0:
        return 0.0
    # factor out the top value so large alpha cannot overflow
    return float(top * np.sum((sv / top) ** alpha) ** (1.0 / alpha))


def dual_exponent(alpha: float) -> float:
    """Hoelder dual alpha' = alpha/(alpha - 1); inf and 1 swap."""
    if math.isinf(alpha):
        return 1.0
    if alpha <= 1.0:
        return math.inf
    return alpha / (alpha - 1.0)


def make_report(lam: float, p: float, singular_values: np.ndarray,
                fitted_const: float, weight_norm_sq: float = 1.0) -> SchattenReport:
    """Assemble the report row: measured S^{alpha'} norm vs C lam^{2s} ||W||^2."""
    s, alpha = exponents(p)
    ap = dual_exponent(alpha)
    sv = np.sort(np.asarray(singular_values, dtype=float))[::-1]
    norm = schatten_norm(sv, ap)
    predicted = fitted_const * lam ** (2.0 * s) * weight_norm_sq
    return SchattenReport(lam, p, ap, sv, norm, predicted,
                          norm / predicted if predicted else math.inf)


# ---------------------------------------------------------------------------
# Cluster compressions
# ---------------------------------------------------------------------------

def weighted_cluster_gram(ells, w_samples, grid: SphereGrid) -> np.ndarray:
    """G_ab = int |W|^2 conj(Y_a) Y_b over the cluster basis of degrees ``ells``.

    Columns follow :func:`ylm_matrix` (degree-major, m = -l..l), and the
    entries are its trapezoid-times-Gauss quadrature: an FFT of |W|^2 along
    each azimuthal ring gives c_k(theta) = (2 pi / n_phi) sum_j |W|^2
    e^{-i k phi_j}, and G_ab = sum_theta w_theta g_a g_b c_{m_a - m_b}(theta),
    one diagonal m_a - m_b at a time.  That costs O(n_theta dim^2) plus the
    FFT, against O(n_theta n_phi dim^2) for the product of the mesh matrices.
    """
    thetas, phis = grid.mesh()
    w_sq = np.asarray(w_samples(thetas, phis), dtype=float) ** 2
    coef = np.fft.fft(w_sq.reshape(grid.n_theta, grid.n_phi), axis=1)
    coef *= grid.phi_weight
    x = np.cos(grid.theta_nodes)
    tables = []  # rows g_l^{|m|} for m = -l..l, with ylm_matrix's sign
    for ell in ells:
        g = np.stack([legendre_row(m, ell, x) for m in range(ell + 1)])
        sign = np.where(np.arange(ell, 0, -1) % 2, -1.0, 1.0)[:, None]
        tables.append(np.concatenate([sign * g[:0:-1], g]))
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


def projector_gram(lam: float, w_samples, grid: SphereGrid,
                   w_degree_hint: int = 8) -> np.ndarray:
    """Descending eigenvalues of W Pi W via the cluster Gram matrix.

    ``w_samples(theta, phi)`` must be real and bounded.  The grid has to
    integrate products of two cluster harmonics against |W|^2 exactly
    enough: degree > 2 l_max + w_degree_hint in colatitude and
    n_phi > 2 l_max + w_degree_hint in azimuth, else the reduction is not
    trusted and a GridResolutionError is raised.
    """
    from .sphere_basis import GridResolutionError

    ells, _ = cluster_rank(lam)
    if not ells:
        return np.zeros(0)
    ell_max = max(ells)
    if grid.degree <= 2 * ell_max + w_degree_hint:
        raise GridResolutionError(
            f"grid degree {grid.degree} <= 2*{ell_max} + {w_degree_hint}"
        )
    if grid.n_phi <= 2 * ell_max + w_degree_hint:
        raise GridResolutionError(
            f"n_phi {grid.n_phi} <= 2*{ell_max} + {w_degree_hint}"
        )
    gram = weighted_cluster_gram(ells, w_samples, grid)
    eigs = np.linalg.eigvalsh(gram)[::-1]
    return np.clip(eigs, 0.0, None)


def projector_kernel_eigs(lam: float, w_samples, grid: SphereGrid) -> np.ndarray:
    """Same spectrum through the discretized addition-theorem kernel.

    Builds sqrt(w) W K W sqrt(w) with K(x, y) = sum_l (2l+1)/(4 pi)
    P_l(x . y) over the cluster degrees; the dense mesh route, used as a
    cross-check of the Gram reduction for moderate lam.
    """
    ells, _ = cluster_rank(lam)
    thetas, phis = grid.mesh()
    xyz = np.stack([np.sin(thetas) * np.cos(phis),
                    np.sin(thetas) * np.sin(phis),
                    np.cos(thetas)], axis=1)
    cosd = np.clip(xyz @ xyz.T, -1.0, 1.0)
    coeffs = np.zeros(max(ells) + 1)
    for ell in ells:
        coeffs[ell] = (2 * ell + 1) / (4.0 * math.pi)
    kernel = np.polynomial.legendre.legval(cosd, coeffs)
    w_vals = np.asarray(w_samples(thetas, phis), dtype=float)
    root = np.sqrt(grid.surface_weights()) * w_vals
    mat = root[:, None] * kernel * root[None, :]
    eigs = np.linalg.eigvalsh(mat)[::-1]
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
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


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


def _smaller_gram(matrix: np.ndarray) -> np.ndarray:
    """M M^H or M^H M, whichever is the smaller square."""
    n_rows, n_cols = matrix.shape
    if n_rows <= n_cols:
        return matrix @ matrix.conj().T
    return matrix.conj().T @ matrix


def gram_singular_values(gram: np.ndarray) -> np.ndarray:
    """Descending singular values of M, given its Gram M^H M or M M^H."""
    eigs = np.linalg.eigvalsh(gram)[::-1]
    return np.sqrt(np.clip(eigs, 0.0, None))


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Descending singular values; routed through the smaller Gram side."""
    return gram_singular_values(_smaller_gram(matrix))


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
    builder for the side); its eigenvalues are the squared singular values.
    ``matrix`` is M itself, assembled densely on first access: the oracle
    that the structured Gram routes are tested against.
    """

    lam: float
    gram: np.ndarray
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
        return OscillatoryModel(lam, _smaller_gram(mat), n_x, n_y, lambda: mat)
    y, y_w = _axis_rule(*Y_BOX_PARABOLOID[0], n_y)
    a1 = _bump_factor(*X_BOX_PARABOLOID[0], n_x, lam, y)
    a2 = _bump_factor(*X_BOX_PARABOLOID[1], n_x, lam, 0.5 * y * y)
    d = np.sqrt(y_w) * box_bump(y[:, None], Y_BOX_PARABOLOID)
    gram = (a1.conj().T @ a1) * (a2.conj().T @ a2)
    gram *= np.outer(d, d)
    return OscillatoryModel(lam, gram, n_x, n_y, dense)


X_BOX_DISTANCE = ((-0.3, 0.3), (-0.3, 0.3))
Y_BOX_DISTANCE = ((-0.9, 0.9), (-0.9, 0.9))
DISTANCE_RING = (0.2, 0.8)
# Columns of M per Gram block, as a count of matrix entries: each block's
# float arrays stay near 8 MB whatever the resolution.
GRAM_BLOCK_ENTRIES = 1 << 20


def distance_model(lam: float, points_per_wavelength: float = 10.0,
                   refine: int = 1) -> OscillatoryModel:
    """Cutoff distance-phase operator with annular amplitude support.

    The amplitude vanishes unless d(x, y) sits inside DISTANCE_RING, the
    annulus hypothesis of the distance-phase scaling; |grad psi| = 1 on
    both sides fixes the resolution rule.  The x box is the smaller one,
    so the Gram is M M^H on the x side.  |x - y| does not separate, so it
    is summed over blocks of y columns: with M = C + iS in real arithmetic,
    Re G = [C S][C S]^T and Im G = X - X^T with X = S C^T.
    """
    n_x = _axis_count(lam, 0.6, 1.0, points_per_wavelength) * refine
    n_y = _axis_count(lam, 1.8, 1.0, points_per_wavelength) * refine
    x_nodes, x_w = gauss_box(X_BOX_DISTANCE, n_x)
    y_nodes, y_w = gauss_box(Y_BOX_DISTANCE, n_y)
    ring_lo, ring_hi = DISTANCE_RING
    center, halfwidth = 0.5 * (ring_lo + ring_hi), 0.5 * (ring_hi - ring_lo)

    def amplitude(xn, yn):
        base = np.outer(box_bump(xn, X_BOX_DISTANCE),
                        box_bump(yn, Y_BOX_DISTANCE))
        dist = distance_phase(xn, yn)
        return base * bump((dist - center) / halfwidth)

    def dense():
        return oscillatory_operator(distance_phase, amplitude, lam,
                                    x_nodes, x_w, y_nodes, y_w)

    n_rows = x_nodes.shape[0]
    x_amp = np.sqrt(x_w) * box_bump(x_nodes, X_BOX_DISTANCE)
    y_amp = np.sqrt(y_w) * box_bump(y_nodes, Y_BOX_DISTANCE)
    real = np.zeros((n_rows, n_rows))
    cross = np.zeros((n_rows, n_rows))
    step = max(1, GRAM_BLOCK_ENTRIES // n_rows)
    for start in range(0, y_nodes.shape[0], step):
        yb = y_nodes[start:start + step]
        width = yb.shape[0]
        dist = np.subtract.outer(x_nodes[:, 0], yb[:, 0]) ** 2
        dist += np.subtract.outer(x_nodes[:, 1], yb[:, 1]) ** 2
        np.sqrt(dist, out=dist)
        amp = bump((dist - center) / halfwidth)
        amp *= x_amp[:, None]
        amp *= y_amp[start:start + step]
        dist *= lam
        cs = np.empty((n_rows, 2 * width))
        np.cos(dist, out=cs[:, :width])
        np.sin(dist, out=cs[:, width:])
        cs[:, :width] *= amp
        cs[:, width:] *= amp
        real += cs @ cs.T
        cross += cs[:, width:] @ cs[:, :width].T
    return OscillatoryModel(lam, real + 1j * (cross - cross.T), n_x, n_y, dense)


def validate_resolution(builder, lam: float, top_k: int = 20,
                        rel_tol: float = 1e-4, **kwargs) -> tuple[bool, float]:
    """Doubling check: top singular values must move < rel_tol relative.

    Returns (converged, worst_drift); a False flag means the base
    resolution under-resolves the oscillation and its spectra are not to
    be trusted.
    """
    base = gram_singular_values(builder(lam, **kwargs).gram)
    fine = gram_singular_values(builder(lam, refine=2, **kwargs).gram)
    k = min(top_k, base.size, fine.size)
    scale = max(fine[0], 1e-300)
    drift = float(np.max(np.abs(base[:k] - fine[:k]) / scale))
    return drift < rel_tol, drift


# ---------------------------------------------------------------------------
# Trace-ideal comparison bound
# ---------------------------------------------------------------------------

SPHERE_WEYL_CONST = 1.0 / (2.0 * math.pi)  # sup_x Pi_n(x,x) <= (1+n) * this


def sphere_lp_norm(w_samples, grid: SphereGrid, p: float) -> float:
    """L^p(S^2) norm of a weight given as a callable on (theta, phi)."""
    thetas, phis = grid.mesh()
    vals = np.abs(np.asarray(w_samples(thetas, phis), dtype=float))
    if math.isinf(p):
        return float(vals.max())
    return float(np.dot(grid.surface_weights(), vals**p) ** (1.0 / p))


def kss_bound(beta, w_samples, p: float, grid: SphereGrid, n_max: int,
              fitted_const: float = SPHERE_WEYL_CONST) -> tuple[float, float]:
    """Both sides of the cluster comparison bound for beta(sqrt(Delta)) W.

    lhs: Schatten p-norm computed exactly on the finite-rank range of
    beta(sqrt(Delta)) restricted to degrees l <= n_max, via the Gram matrix
    of the functions beta_j W Y_j.  rhs: C^{1/p} ||W||_p
    (sum_n sup_{[n,n+1]} |beta|^p (1+n))^{1/p} with the sup sampled on 64
    points per unit interval.  Requires lhs <= rhs for the calibrated C.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    ells = [ell for ell in range(0, n_max + 1)
            if beta(math.sqrt(ell * (ell + 1.0))) != 0.0]
    if not ells:
        return 0.0, 0.0
    betas = np.concatenate([np.full(2 * ell + 1, beta(math.sqrt(ell * (ell + 1.0))))
                            for ell in ells])
    gram = weighted_cluster_gram(ells, w_samples, grid)
    gram *= np.outer(betas, betas)
    eigs = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    if math.isinf(p):
        lhs = float(math.sqrt(eigs.max()))
    else:
        lhs = float(np.sum(eigs ** (p / 2.0)) ** (1.0 / p))

    tail = 0.0
    for n in range(0, n_max + 1):
        samples = np.linspace(n, n + 1, 64, endpoint=False)
        sup_beta = max(abs(beta(t)) for t in samples)
        if math.isinf(p):
            tail = max(tail, sup_beta)
        else:
            tail += sup_beta**p * (1.0 + n)
    w_norm = sphere_lp_norm(w_samples, grid, p)
    if math.isinf(p):
        rhs = w_norm * tail
    else:
        rhs = fitted_const ** (1.0 / p) * w_norm * tail ** (1.0 / p)
    return lhs, rhs
