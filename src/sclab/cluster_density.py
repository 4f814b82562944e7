"""Extremal order windows, their densities, and the one weighted p-norm.

A window of r orders at degree l defines the rank-r projection onto the
span of the matching Y_l^m.  Its density

    rho(theta) = sum_m nu_m |g_l^m(theta)|^2

is azimuth-independent, so 1-D colatitude profiles suffice and every
surface integral carries a factor 2 pi.  Two window choices saturate the
cluster bound:

    case "2"   : l - 2r < m <= l - r   concentrates on an equatorial belt
                 of width sqrt(r/l) with amplitude sqrt(l r)
    case "inf" : r <= m < 2r           concentrates off the poles with
                 amplitude r / sin(theta)

The exponent table s(p), alpha(p) has a kink at p = 2(N+1)/(N-1) (p = 6 on
the sphere); the scaling identity 2 s(p) + (N-1)/alpha(p) = N-1 ties the
two exponents together at every p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphere_basis import (GridResolutionError, SphereGrid, _order_band, build_grid,
                           cluster_rank, radial_rows)
from .wkb_engine import case_window, normalize_case

SPHERE_AREA = 4.0 * math.pi


@dataclass(frozen=True)
class ClusterSpec:
    """Degree, window width, case selector, and optional weights nu."""

    ell: int
    r: int
    case_tag: str
    nu: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "case_tag", normalize_case(self.case_tag))
        case_window(self.ell, self.r, self.case_tag)  # 1 <= r <= ell/2 or ValueError
        if self.nu is not None:
            nu = np.asarray(self.nu, dtype=float)
            if nu.shape != (self.r,):
                raise ValueError("nu must have one coefficient per window order")
            object.__setattr__(self, "nu", nu)

    @property
    def window(self) -> np.ndarray:
        return case_window(self.ell, self.r, self.case_tag)

    @property
    def weights(self) -> np.ndarray:
        return np.ones(self.r) if self.nu is None else self.nu


def lp_norm(values, p: float, weights=None) -> float:
    """(sum_i w_i v_i^p)^(1/p) of nonnegative values; p = inf gives max v.

    ``weights`` default to one (an l^p or Schatten norm); quadrature
    weights make it an L^p norm.  Empty input gives 0.  The top value is
    factored out, so large p cannot overflow.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    values = np.asarray(values, dtype=float)
    if not np.all(values >= 0):
        raise ValueError("values must be nonnegative")
    if values.size == 0:
        return 0.0
    top = values.max()
    if math.isinf(p):
        return float(top)
    if top == 0.0:
        return 0.0
    powers = (values / top) ** p
    total = np.sum(powers) if weights is None else np.dot(weights, powers)
    return float(top * total ** (1.0 / p))


@dataclass
class DensityProfile:
    """Colatitude density samples.

    theta_weights absorb sin(theta): the trace identity reads
    2 pi * sum_i w_i rho_i = sum_j nu_j.  ``rho`` covers every node, though
    :func:`density` evaluates one half of them and mirrors it.
    ``underflow_nodes`` counts the nodes of the whole grid where the
    recurrence seed of the window's top order underflows (see
    :mod:`sclab.sphere_basis`).
    """

    thetas: np.ndarray
    theta_weights: np.ndarray
    rho: np.ndarray
    trace: float
    underflow_nodes: int = 0

    def norm(self, p: float) -> float:
        """L^{p/2}(S^2) norm of the density; p = inf is the sup over nodes.

        The density is azimuth-independent, so the surface weights are
        2 pi times the colatitude weights.
        """
        if not p >= 2:
            raise ValueError("p must be >= 2")
        return lp_norm(self.rho, p / 2.0, 2.0 * math.pi * self.theta_weights)


def density(spec: ClusterSpec, grid: SphereGrid, check_convergence: bool = False,
            allow_coarse: bool = False) -> DensityProfile:
    """Window density on the grid's colatitude nodes.

    Since g_l^m(-x) = (-1)^(l+m) g_l^m(x), rho is symmetric under
    theta -> pi - theta, and so are the nodes of :func:`build_grid`: rho is
    evaluated on the first ceil(n/2) nodes and mirrored onto the rest, the
    centre node of an odd grid taken once.

    Resolving the fastest oscillation takes n_theta >= 4 l; coarser grids
    raise GridResolutionError unless ``allow_coarse`` (used to demonstrate
    the convergence flag).  With ``check_convergence`` the p = 2 and p = 6
    quadrature norms are recomputed on a doubled grid and a drift above
    1e-6 relative raises GridResolutionError.  The sup norm is not part of
    the drift check: a node maximum is sampling-limited and moves at O(h^2)
    even on fully resolved grids.
    """
    if grid.n_theta < 4 * spec.ell and not allow_coarse:
        raise GridResolutionError(
            f"n_theta={grid.n_theta} < 4*ell={4 * spec.ell}; "
            "pass allow_coarse=True to override"
        )
    profile = _density_on(spec, grid)
    if check_convergence:
        fine = _density_on(spec, build_grid(2 * grid.n_theta, grid.n_phi))
        for p in (2.0, 6.0):
            a, b = profile.norm(p), fine.norm(p)
            if abs(a - b) > 1e-6 * abs(b):
                raise GridResolutionError(
                    f"L^{p/2} norm drifts by {abs(a - b) / abs(b):.2e} under doubling"
                )
    return profile


def _density_on(spec: ClusterSpec, grid: SphereGrid) -> DensityProfile:
    # node i pairs with node n - 1 - i (see density); an odd centre is alone
    n_pairs = grid.n_theta // 2
    half = grid.theta_nodes[:grid.n_theta - n_pairs]
    window = spec.window
    values, underflow = _order_band(spec.ell, int(window[0]), int(window[-1]),
                                    np.cos(half))
    rho = np.einsum("i,ij,ij->j", spec.weights, values, values)
    rho = np.concatenate([rho, rho[:n_pairs][::-1]])
    n_under = 2 * np.count_nonzero(underflow[:n_pairs]) + np.count_nonzero(underflow[n_pairs:])
    return DensityProfile(grid.theta_nodes, grid.theta_weights, rho,
                          float(np.sum(spec.weights)), underflow_nodes=int(n_under))


def exponents(p: float, n_dim: int = 2) -> tuple[float, float]:
    """Growth exponent s(p) and Schatten exponent alpha(p).

    Branches meet at p = 2(N+1)/(N-1); alpha(inf) = inf (operator norm).
    """
    if not p >= 2:
        raise ValueError("p must be >= 2")
    if n_dim < 2:
        raise ValueError("n_dim must be >= 2")
    breakpoint_p = 2.0 * (n_dim + 1.0) / (n_dim - 1.0)
    if math.isinf(p):
        return (n_dim - 1.0) / 2.0, math.inf
    if p >= breakpoint_p:
        s = n_dim * (0.5 - 1.0 / p) - 0.5
        alpha = p * (n_dim - 1.0) / (2.0 * n_dim)
    else:
        s = 0.5 * (n_dim - 1.0) * (0.5 - 1.0 / p)
        alpha = 2.0 * p / (p + 2.0)
    return s, alpha


def concentration_measure(profile: DensityProfile, p: float) -> tuple[float, float]:
    """Guaranteed vs measured area of the superlevel set {rho > ||rho||_1 / (4 area)}.

    Returns (lower_bound, measured).  For a density whose weights integrate
    correctly the measured area cannot fall below the bound; the caller
    decides what a shortfall means.
    """
    if not 2 < p < math.inf:
        raise ValueError("p must be finite and > 2")
    norm1 = profile.norm(2.0)
    norm_p2 = profile.norm(p)
    threshold = norm1 / (4.0 * SPHERE_AREA)
    measured = 2.0 * math.pi * float(
        np.sum(profile.theta_weights[profile.rho > threshold])
    )
    lower = 0.5 * (p / 8.0) ** (2.0 / (p - 2.0)) * (norm1 / norm_p2) ** (p / (p - 2.0))
    return lower, measured


def heuristic_density(ell: int, a_m: int, b_m: int, theta):
    """Semiclassical prediction for sum_{a<=m<=b} |g_l^m(theta)|^2.

    Each |g_l^m|^2 averages to (l + 1/2) / pi^2 * |Q|^{-1/2} / (2 sin theta)
    over an oscillation, and summing the orders in [a, b] by the midpoint
    rule gives

        (l + 1/2)/(2 pi^2) * [asin(min(1, (b+1/2)/((l+1/2) sin theta)))
                              - asin(min(1, (a-1/2)/((l+1/2) sin theta)))].

    The prediction vanishes in the classically forbidden region
    sin(theta) <= (a - 1/2)/(l + 1/2) and matches the window sums within a
    few percent away from turning points; the factor-2 acceptance bracket
    absorbs the turning-point corrections it ignores.
    """
    if not 0 <= a_m <= b_m <= ell:
        raise ValueError("need 0 <= a_m <= b_m <= ell")
    theta_arr = np.asarray(theta, dtype=float)
    if not np.all((theta_arr > 0) & (theta_arr < math.pi)):
        raise ValueError("theta must lie in (0, pi)")
    u = np.sin(theta_arr)
    scale = ell + 0.5
    hi = np.arcsin(np.clip((b_m + 0.5) / (scale * u), 0.0, 1.0))
    lo = np.arcsin(np.clip((a_m - 0.5) / (scale * u), 0.0, 1.0))
    out = scale / (2.0 * math.pi**2) * (hi - lo)
    return float(out) if np.isscalar(theta) else out


# ---------------------------------------------------------------------------
# Random subcluster densities (stress for the upper bound)
# ---------------------------------------------------------------------------

def random_cluster_density(lam: float, n_funcs: int, rng: np.random.Generator,
                           grid: SphereGrid):
    """Density of a Haar-random weighted orthonormal system inside a cluster.

    Draws the coefficients q_k of n_funcs orthonormal combinations
    f_k = sum_(l,m) q_k[(l,m)] Y_l^m of the cluster basis (degree-major,
    m = -l..l, as :func:`radial_rows` orders each degree) as the Q factor
    of a complex Gaussian matrix (real parts drawn first, then imaginary
    parts), then weights nu uniform in [0, 1].  Returns
    (rho, nu, surface_weights) with rho = sum_k nu_k |f_k|^2 on the
    flattened theta-major (theta, phi) mesh; the mix couples different
    azimuthal orders, so rho genuinely depends on phi.

    On a ring, f_k(theta, phi_j) = sum_m F_k^m(theta) e^{i m phi_j} with
    F_k^m = sum_l q_k[(l,m)] g_l^m, and e^{i m phi_j} depends on m only
    through m mod n_phi: each F_k^m is added into azimuthal bin
    m mod n_phi, and one inverse FFT along phi gives f_k on every node.
    """
    ells, dim = cluster_rank(lam)
    if not 1 <= n_funcs <= dim:
        raise ValueError(f"need 1 <= n_funcs <= dim={dim}")
    gauss = rng.standard_normal((dim, n_funcs)) + 1j * rng.standard_normal((dim, n_funcs))
    q, _ = np.linalg.qr(gauss)
    nu = rng.uniform(0.0, 1.0, n_funcs)
    x = np.cos(grid.theta_nodes)
    bins = np.zeros((grid.n_theta, grid.n_phi, n_funcs), dtype=complex)
    coeffs = iter(q)
    for ell in ells:
        for m, g in zip(range(-ell, ell + 1), radial_rows(ell, x)):
            bins[:, m % grid.n_phi] += np.outer(g, next(coeffs))
    funcs = np.fft.ifft(bins, axis=1, norm="forward")
    return (np.abs(funcs) ** 2 @ nu).ravel(), nu, grid.surface_weights()
