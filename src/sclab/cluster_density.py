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

The density is summed as the window's band arrives (:func:`density`):
each sweep of :func:`sclab.sphere_basis._band_sweeps` hands over its rows
one order at a time, nu_m g_m^2 is added into rho on its nodes, and the
row is dropped.  Only Miller's sweep, whose scale is known once it
reaches m = 0, hands over its r rows on the polar nodes as one block.
So a density holds O(n) values plus that block, never the r x n band: at
l = 102400, r = 320, the band on half the grid was 0.5 GB.

The exponent table s(p), alpha(p) has a kink at p = 2(N+1)/(N-1) (p = 6 on
the sphere); the scaling identity 2 s(p) + (N-1)/alpha(p) = N-1 ties the
two exponents together at every p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphere_basis import (GridResolutionError, SphereGrid, _band_sweeps, _top_seed_underflows,
                           cluster_rank, radial_rows)
from .wkb_engine import case_window, normalize_case

SPHERE_AREA = 4.0 * math.pi


@dataclass(frozen=True)
class ClusterSpec:
    """Degree, window width, case selector, and optional weights nu.

    nu, one finite nonnegative weight per window order (lowest order
    first), defaults to ones.
    """

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
            if not np.all((nu >= 0) & (nu < math.inf)):  # NaN fails both
                raise ValueError("nu must be finite and nonnegative")
            object.__setattr__(self, "nu", nu)

    @property
    def window(self) -> np.ndarray:
        return case_window(self.ell, self.r, self.case_tag)

    @property
    def weights(self) -> np.ndarray:
        return np.ones(self.r) if self.nu is None else self.nu


def lp_norm(values, p: float, weights=None) -> float:
    """(sum_i w_i v_i^p)^(1/p) of finite nonnegative values; p = inf gives max v.

    ``weights`` default to one (an l^p or Schatten norm); quadrature
    weights make it an L^p norm.  Both must be finite and nonnegative: a
    negative weight could cancel a term, and a NaN would pass as the norm.
    Empty input gives 0.  The top value is factored out, so large p cannot
    overflow.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    values = np.asarray(values, dtype=float)
    if not np.all((values >= 0) & (values < math.inf)):  # NaN fails both
        raise ValueError("values must be finite and nonnegative")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if not np.all((weights >= 0) & (weights < math.inf)):
            raise ValueError("weights must be finite and nonnegative")
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
    :func:`density` evaluates one half of them and mirrors it; it is
    summed as the rows come, so no profile ever held the band behind it.
    ``underflow_nodes`` counts the nodes of the whole grid where the
    recurrence seed of the window's top order underflows (see
    :mod:`sclab.sphere_basis`).
    """

    thetas: np.ndarray
    theta_weights: np.ndarray
    rho: np.ndarray
    underflow_nodes: int = 0

    def norm(self, p: float) -> float:
        """L^{p/2}(S^2) norm of the density; p = inf is the sup over nodes.

        The density is azimuth-independent, so the surface weights are
        2 pi times the colatitude weights.
        """
        if not p >= 2:
            raise ValueError("p must be >= 2")
        return lp_norm(self.rho, p / 2.0, 2.0 * math.pi * self.theta_weights)


def density(spec: ClusterSpec, grid: SphereGrid) -> DensityProfile:
    """Window density on the grid's colatitude nodes.

    Since g_l^m(-x) = (-1)^(l+m) g_l^m(x), rho is symmetric under
    theta -> pi - theta, and so are the nodes of :func:`build_grid`: rho is
    evaluated on the first ceil(n/2) nodes and mirrored onto the rest, the
    centre node of an odd grid taken once.

    rho is summed as the band's rows come (see the module notes): nu_m
    g_m^2 is added on each sweep's nodes, in the order the sweep gives the
    rows, and each row is dropped.  Memory is O(n) plus the block of
    Miller's sweep, r rows on the polar nodes (~2 MB at l = 102400,
    r = 320), where the r x ceil(n/2) band took 0.5 GB.  With r = sqrt(l),
    case "inf", on a 2-core x86 box (Gauss rule built first, fresh
    process), this takes 0.07-0.08 s at l = 25600 and 0.74-0.86 s at
    102400, with a peak RSS of 45 and 87 MB; holding the band took
    0.10-0.19 s and 1.2-1.5 s, and 107 and 585 MB.

    Resolving the fastest oscillation takes n_theta >= 4 l; coarser grids
    raise GridResolutionError.
    """
    if grid.n_theta < 4 * spec.ell:
        raise GridResolutionError(f"n_theta={grid.n_theta} < 4*ell={4 * spec.ell}")
    # node i pairs with node n - 1 - i; an odd centre is alone
    n_pairs = grid.n_theta // 2
    x = grid.nodes[:grid.n_theta - n_pairs]
    m_lo, m_hi = int(spec.window[0]), int(spec.window[-1])
    nu = spec.weights
    rho = np.empty(x.size)
    for nodes, orders, rows in _band_sweeps(spec.ell, m_lo, m_hi, x):
        part = np.zeros(np.count_nonzero(nodes))
        for m, row in zip(orders, rows):
            part += nu[m - m_lo] * row * row
        rho[nodes] = part
    rho = np.concatenate([rho, rho[:n_pairs][::-1]])
    underflow = _top_seed_underflows(m_hi, x)
    n_under = 2 * np.count_nonzero(underflow[:n_pairs]) + np.count_nonzero(underflow[n_pairs:])
    return DensityProfile(grid.theta_nodes, grid.theta_weights, rho, underflow_nodes=int(n_under))


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
    The bins are filled and transformed one ring at a time, a degree at a
    time over n_phi orders at once, which fall into distinct bins.  So
    they take n_phi x n_funcs complex entries, 0.35 MB at lam = 100 with
    100 functions (a 112 x 216 grid), where that call's tracemalloc peak
    is 2.6 MB.  On a 2-core x86 box the call takes ~0.06 s; blocks of
    rings of 2 MB took ~0.09 s and peaked at 9.4 MB, out of cache.
    """
    ells, dim = cluster_rank(lam)
    if not 1 <= n_funcs <= dim:
        raise ValueError(f"need 1 <= n_funcs <= dim={dim}")
    gauss = rng.standard_normal((dim, n_funcs)) + 1j * rng.standard_normal((dim, n_funcs))
    q, _ = np.linalg.qr(gauss)
    nu = rng.uniform(0.0, 1.0, n_funcs)
    n_phi = grid.n_phi
    degrees, start = [], 0  # (rows, coefficients, bins) of each degree's orders
    for ell in ells:
        orders = np.arange(-ell, ell + 1)
        degrees.append((radial_rows(ell, grid.nodes), q[start:start + orders.size], orders % n_phi))
        start += orders.size
    rho = np.empty((grid.n_theta, n_phi))
    bins = np.empty((n_phi, n_funcs), dtype=complex)
    for ring in range(grid.n_theta):
        bins[...] = 0.0
        for rows, coeffs, bin_of in degrees:
            for first in range(0, bin_of.size, n_phi):
                chunk = slice(first, first + n_phi)
                bins[bin_of[chunk]] += rows[chunk, ring, None] * coeffs[chunk]
        funcs = np.fft.ifft(bins, axis=0, norm="forward")
        rho[ring] = np.abs(funcs) ** 2 @ nu
    return rho.ravel(), nu, grid.surface_weights()
