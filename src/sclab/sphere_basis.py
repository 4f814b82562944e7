"""Spherical-harmonic radial factors, special values, and quadrature on S^2.

The complex spherical harmonics factor as

    Y_l^m(theta, phi) = exp(i m phi) g_l^m(theta),

where g_l^m is the fully normalized associated Legendre function of
cos(theta), Condon-Shortley phase included:

    g_l^m(theta) = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!) P_l^m(cos theta),

so that int |Y_l^m|^2 domega = 1 and int_0^pi |g_l^m|^2 sin(theta) dtheta
= 1/(2 pi).  The equatorial form

    v_l^m(theta) = sqrt(cos theta) * g_l^m(pi/2 - theta),   |theta| < pi/2,

satisfies the normal-form equation -v'' + Q v = 0 consumed by the WKB
engine, with int_{-pi/2}^{pi/2} |v|^2 dtheta = 1/(2 pi).

Single orders go through the fully normalized three-term recurrence
upward in degree at fixed order (:func:`legendre_row`).  Normalized values
stay O(sqrt(l)), so there is no intermediate overflow for l <= 1e4.  Its
seed g_m^m ~ sin(theta)^m underflows near the poles at high order; the
row then starts from a subnormal seed, with fewer bits, or from zero.
Where that happens deep in the classically forbidden zone, the true values
are far below the double range as well, and those zeros are harmless at
the tolerances used here.

A band of orders m_lo..m_hi at one degree (:func:`legendre_band`) recurs
downward in order instead.  Two per-order seeds at m_hi and m_hi - 1 feed

    g^{m-1} = -(sqrt((l-m)(l+m+1)) g^{m+1} + 2m cot(theta) g^m)
              / sqrt((l+m)(l-m+1)),

so a window of r orders costs O((l - m_hi + r) n) on n nodes instead of
the O(r l n) of r separate degree recurrences.  Downward is the stable
direction: past the turning point m = (l + 1/2) sin(theta) the true values
grow as m decreases, so the recurrence follows the dominant solution, and
inside the oscillatory zone both solutions have the same size, so
rounding errors grow at most algebraically.  Measured against the
per-order recurrence on n = 4l Gauss nodes up to l = 2400, the band agrees
to within 3e-11 of each row's maximum.

Underflow.  Where the sectoral seed of m_hi falls below the smallest
normal double (sin(theta)^m_hi < ~1e-308), both seeds of the band are
lifted by the same factor 2^k, k <= 1000, added as k ln 2 to their
logarithm before exp.  Both recurrences are linear, and the finished rows
are scaled back by 2^-k, which rounds only where a value is itself
subnormal or below the double range.  The band is then accurate at lower orders whose values are representable even
though the top seed is not.  Past the largest lift (sin(theta)^m_hi below
~1e-609) a node restarts at the highest order whose seed is within reach,
and the orders above it read zero: their seeds are more than 300 orders
of magnitude below the double range.  ``underflow_nodes`` on a band
counts the nodes whose top seed underflows.

Closed-form values at the equator are evaluated through log-gamma.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, jn_zeros, roots_legendre

FOUR_PI = 4.0 * math.pi
_LN2 = math.log(2.0)
_LOG_TINY = math.log(np.finfo(float).tiny)
# Largest lift of an order-band seed, in bits: 2^1000 times any |g_l^m|
# <= sqrt((2l + 1) / (4 pi)) stays finite, so lifted bands never overflow.
_MAX_LIFT = 1000


class GridResolutionError(ValueError):
    """A quadrature grid is too coarse for the requested computation."""


# ---------------------------------------------------------------------------
# Fully normalized associated Legendre recurrences
# ---------------------------------------------------------------------------

def _seed_log_magnitude(m: int, x: np.ndarray) -> np.ndarray:
    """log |g_m^m| on nodes x, finite wherever |x| < 1."""
    if m == 0:
        return np.full_like(x, -0.5 * math.log(FOUR_PI))
    return (
        0.5 * (math.log(2 * m + 1) - math.log(FOUR_PI) + gammaln(2 * m + 1))
        - gammaln(m + 1)
        - m * _LN2
        + 0.5 * m * np.log1p(-x * x)
    )


def _seed_values(m: int, x: np.ndarray, shift=0) -> np.ndarray:
    """g-value of degree m at order m on nodes x, times 2**shift, via logs.

    ``shift`` (one integer, or one per node) lifts seeds that would
    underflow into the normal range; the default gives the plain seed.
    """
    if m == 0:
        return np.ldexp(np.full_like(x, 1.0 / math.sqrt(FOUR_PI)), shift)
    sign = -1.0 if m % 2 else 1.0
    with np.errstate(under="ignore"):
        return sign * np.exp(_seed_log_magnitude(m, x) + shift * _LN2)


def legendre_degree_table(m: int, ell_max: int, x) -> np.ndarray:
    """g-values for all degrees m..ell_max at fixed order m.

    Parameters
    ----------
    m : order, >= 0
    ell_max : largest degree, >= m
    x : nodes in the open interval (-1, 1); typically cos(theta)

    Returns array of shape (ell_max - m + 1, len(x)); row k holds degree
    m + k.
    """
    if m < 0 or ell_max < m:
        raise ValueError(f"need 0 <= m <= ell_max, got m={m}, ell_max={ell_max}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) >= 1.0):
        raise ValueError("nodes must lie strictly inside (-1, 1)")
    out = np.empty((ell_max - m + 1, x.size))
    out[0] = _seed_values(m, x)
    if ell_max > m:
        out[1] = math.sqrt(2 * m + 3) * x * out[0]
    for ell in range(m + 2, ell_max + 1):
        a = math.sqrt((4 * ell * ell - 1.0) / (ell * ell - m * m))
        b = math.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
        k = ell - m
        out[k] = a * (x * out[k - 1] - b * out[k - 2])
    return out


def legendre_row(m: int, ell: int, x) -> np.ndarray:
    """g-values of a single (ell, m) on nodes x, O(1) memory in degree."""
    if not 0 <= m <= ell:
        raise ValueError(f"need 0 <= m <= ell, got m={m}, ell={ell}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) >= 1.0):
        raise ValueError("nodes must lie strictly inside (-1, 1)")
    return _degree_recurrence(m, ell, x, _seed_values(m, x))


def _degree_recurrence(m: int, ell: int, x: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Carry the order-m seed (degree m) up to degree ell; linear in the seed."""
    prev = seed
    if ell == m:
        return prev
    cur = math.sqrt(2 * m + 3) * x * prev
    for deg in range(m + 2, ell + 1):
        a = math.sqrt((4 * deg * deg - 1.0) / (deg * deg - m * m))
        b = math.sqrt(((deg - 1.0) ** 2 - m * m) / (4.0 * (deg - 1.0) ** 2 - 1.0))
        prev, cur = cur, a * (x * cur - b * prev)
    return cur


def _order_band(ell: int, m_lo: int, m_hi: int, x: np.ndarray) -> tuple[np.ndarray, int]:
    """g_ell^m for m = m_lo..m_hi (rows) on nodes x, by downward recurrence in m.

    Returns (values, underflow_nodes), the latter counting the nodes where
    the sectoral seed of m_hi is below the smallest normal double.  The
    band seeds at m_hi and m_hi - 1 and recurs down; wherever its seeds are
    normal doubles, a one-order band is :func:`legendre_row` bit for bit.
    Where a seed would underflow, both seeds are lifted by the same power
    of two, and the finished rows are scaled back.  Nodes whose top seed
    lies beyond the largest lift restart at the highest order within
    reach, and the orders above it read zero.
    """
    out = np.zeros((m_hi - m_lo + 1, x.size))
    top_log = _seed_log_magnitude(m_hi, x)
    reach = _LOG_TINY - _MAX_LIFT * _LN2
    top = np.full(x.size, m_hi)
    short = np.flatnonzero(top_log < reach)
    if short.size:
        top[short] = m_lo - 1  # no order within reach: the column reads zero
        for m in range(m_lo, m_hi):
            top[short[_seed_log_magnitude(m, x[short]) >= reach]] = m
    for m_top in np.unique(top[top >= m_lo]).tolist():
        cols = np.flatnonzero(top == m_top)
        xs = x[cols]
        lift = np.ceil((_LOG_TINY - _seed_log_magnitude(m_top, xs)) / _LN2)
        lift = np.maximum(lift, 0.0).astype(int)
        upper = _degree_recurrence(m_top, ell, xs, _seed_values(m_top, xs, lift))
        out[m_top - m_lo, cols] = upper
        if m_top > m_lo:
            lower = _degree_recurrence(m_top - 1, ell, xs,
                                       _seed_values(m_top - 1, xs, lift))
            out[m_top - 1 - m_lo, cols] = lower
            # 1 - x*x is the sin^2 the seeds were built from (log1p(-x*x)),
            # so the cotangent matches them where 1 - x^2 is tiny
            cot = xs / np.sqrt(1.0 - xs * xs)
            for m in range(m_top - 1, m_lo, -1):
                row = math.sqrt((ell - m) * (ell + m + 1.0)) * upper
                row += (2.0 * m) * cot * lower
                row *= -1.0 / math.sqrt((ell + m) * (ell - m + 1.0))
                out[m - 1 - m_lo, cols] = row
                upper, lower = lower, row
        lifted = lift > 0
        if lifted.any():
            rows = out[:m_top - m_lo + 1, cols[lifted]]
            out[:m_top - m_lo + 1, cols[lifted]] = np.ldexp(rows, -lift[lifted])
    return out, int(np.count_nonzero(top_log < _LOG_TINY))


# ---------------------------------------------------------------------------
# Radial tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialTable:
    """Sampled v- and g-values for a band of orders at fixed degree.

    ``thetas`` live in the equatorial chart (-pi/2, pi/2); row i of
    ``values_v`` is v_ell^m(theta) for m = m_lo + i, and ``values_g`` holds
    the matching colatitude values g_ell^m(pi/2 - theta).
    ``underflow_nodes`` counts the nodes where the sectoral seed of m_hi
    is below the smallest normal double (see the module notes).
    """

    ell: int
    m_lo: int
    m_hi: int
    thetas: np.ndarray
    values_v: np.ndarray
    values_g: np.ndarray
    underflow_nodes: int = 0

    @property
    def orders(self) -> np.ndarray:
        return np.arange(self.m_lo, self.m_hi + 1)


def legendre_band(ell: int, m_lo: int, m_hi: int, thetas) -> RadialTable:
    """Evaluate v_ell^m and g_ell^m for all orders m_lo..m_hi.

    thetas must avoid +-pi/2 exactly: cos(theta) = 0 makes the normal-form
    potential singular downstream, and the sqrt(cos) factor degenerate.
    Costs O((ell - m_hi + number of orders) * nodes); see the module notes
    for the order recurrence and its seeds.
    """
    if not 0 <= m_lo <= m_hi <= ell:
        raise ValueError(
            f"need 0 <= m_lo <= m_hi <= ell, got ({m_lo}, {m_hi}) at ell={ell}"
        )
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any(np.abs(thetas) >= math.pi / 2):
        raise ValueError("band nodes must satisfy |theta| < pi/2")
    values_g, n_under = _order_band(ell, m_lo, m_hi, np.sin(thetas))
    values_v = np.sqrt(np.cos(thetas)) * values_g
    return RadialTable(ell, m_lo, m_hi, thetas, values_v, values_g, n_under)


def radial_table_to_csv(table: RadialTable, path) -> None:
    """Debug dump, one row per (order, node): columns m, theta, v, g."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "theta", "v", "g"])
        for i, m in enumerate(table.orders):
            for j, theta in enumerate(table.thetas):
                writer.writerow(
                    [int(m), repr(float(theta)),
                     repr(float(table.values_v[i, j])),
                     repr(float(table.values_g[i, j]))]
                )


# ---------------------------------------------------------------------------
# Closed forms at the equator
# ---------------------------------------------------------------------------

def legendre_at_zero(ell: int, m: int) -> tuple[float, float]:
    """P_ell^m(0) and (P_ell^m)'(0), through log-gamma.

    Exactly one of the two is zero, by parity of ell + m.  The survivor is
    assembled in log space, so there is no intermediate overflow; the final
    value itself can exceed the double range for large ell + m (use
    :func:`normalized_at_zero` for a bounded variant).
    """
    if not 0 <= m <= ell:
        raise ValueError(f"need 0 <= m <= ell, got m={m}, ell={ell}")
    if (ell + m) % 2 == 0:
        log_mag = (
            m * _LN2 - 0.5 * math.log(math.pi)
            + gammaln((ell + m + 1) / 2.0) - gammaln((ell - m + 2) / 2.0)
        )
        sign = -1.0 if ((ell + m) // 2) % 2 else 1.0
        with np.errstate(over="ignore"):
            return sign * float(np.exp(log_mag)), 0.0
    log_mag = (
        (m + 1) * _LN2 - 0.5 * math.log(math.pi)
        + gammaln((ell + m + 2) / 2.0) - gammaln((ell - m + 1) / 2.0)
    )
    sign = -1.0 if ((ell + m - 1) // 2) % 2 else 1.0
    with np.errstate(over="ignore"):
        return 0.0, sign * float(np.exp(log_mag))


def _log_norm_constant(ell, m):
    """log of sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!), vectorized."""
    ell = np.asarray(ell, dtype=float)
    m = np.asarray(m, dtype=float)
    return 0.5 * (
        np.log(2 * ell + 1) - math.log(FOUR_PI)
        + gammaln(ell - m + 1) - gammaln(ell + m + 1)
    )


def normalized_at_zero(ell, m) -> tuple[np.ndarray, np.ndarray]:
    """v_ell^m(0) and (v_ell^m)'(0), bounded for all desk-scale (ell, m).

    Vectorized over (ell, m).  The normalization constant is folded into
    the closed forms inside the logarithm, so both outputs stay O(l^{1/4})
    even where P_ell^m(0) itself overflows.
    """
    ell_arr = np.atleast_1d(np.asarray(ell, dtype=int))
    m_arr = np.atleast_1d(np.asarray(m, dtype=int))
    ell_b, m_b = np.broadcast_arrays(ell_arr, m_arr)
    if np.any(m_b < 0) or np.any(m_b > ell_b):
        raise ValueError("need 0 <= m <= ell")
    log_n = _log_norm_constant(ell_b, m_b)
    even = (ell_b + m_b) % 2 == 0
    value = np.zeros(ell_b.shape)
    deriv = np.zeros(ell_b.shape)

    le, me = ell_b[even].astype(float), m_b[even].astype(float)
    log_mag = (
        me * _LN2 - 0.5 * math.log(math.pi)
        + gammaln((le + me + 1) / 2.0) - gammaln((le - me + 2) / 2.0)
    )
    sign = np.where((((ell_b[even] + m_b[even]) // 2) % 2) == 1, -1.0, 1.0)
    value[even] = sign * np.exp(log_mag + log_n[even])

    lo, mo = ell_b[~even].astype(float), m_b[~even].astype(float)
    log_mag = (
        (mo + 1) * _LN2 - 0.5 * math.log(math.pi)
        + gammaln((lo + mo + 2) / 2.0) - gammaln((lo - mo + 1) / 2.0)
    )
    sign = np.where((((ell_b[~even] + m_b[~even] - 1) // 2) % 2) == 1, -1.0, 1.0)
    deriv[~even] = sign * np.exp(log_mag + log_n[~even])

    if np.isscalar(ell) and np.isscalar(m):
        return float(value.reshape(-1)[0]), float(deriv.reshape(-1)[0])
    return value, deriv


# ---------------------------------------------------------------------------
# Quadrature grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereGrid:
    """Gauss colatitude rule plus equispaced azimuth.

    ``theta_weights`` absorb the sin(theta) area factor: sum_i w_i f(theta_i)
    approximates int_0^pi f sin(theta) dtheta, exactly so whenever f is a
    polynomial of degree <= ``degree`` in u = cos(theta).  The azimuthal
    trapezoid rule is exact on modes e^{ik phi} with |k| < n_phi.
    """

    theta_nodes: np.ndarray
    theta_weights: np.ndarray
    n_phi: int
    degree: int

    @property
    def n_theta(self) -> int:
        return self.theta_nodes.size

    @property
    def phi_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 2.0 * math.pi, self.n_phi, endpoint=False)

    @property
    def phi_weight(self) -> float:
        return 2.0 * math.pi / self.n_phi

    def surface_weights(self) -> np.ndarray:
        """Flattened weights for the (theta, phi) product mesh, dOmega."""
        return np.repeat(self.theta_weights, self.n_phi) * self.phi_weight

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(thetas, phis) of the flattened product mesh, theta-major.

        Entry i * n_phi + j is (theta_i, phi_j): the row order of
        :func:`ylm_matrix` and of :meth:`surface_weights`.
        """
        return (np.repeat(self.theta_nodes, self.n_phi),
                np.tile(self.phi_nodes, self.n_theta))


# Rules up to this size stay scipy's bit for bit; larger ones use Newton.
_NEWTON_RULE_MIN = 1001
# Outermost nodes per half that start from Bessel zeros instead of Tricomi.
_BESSEL_GUESSES = 20


def _legendre_theta(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(cos theta) and dP_n/dtheta by the three-term recurrence.

    The recurrence runs on P_k and E_k = k (P_k - P_{k-1}) with d = 1 - cos
    theta = 2 sin^2(theta/2) (Reinsch's form): near the poles it sees theta
    itself, not a cos(theta) rounded to the spacing of doubles near 1.  In

        E_{k+1} = E_k - (2k+1) d P_k,    P_{k+1} = P_k + E_{k+1} / (k+1)

    every coefficient is an integer, so rounding errors vary from node to
    node instead of repeating as one rounded ratio per step; the latter
    biased all weights alike (sum 2 + 1.1e-14 at n = 9600, against 9e-16).
    Then dP_n/dtheta = (E_n - n d P_n) / sin(theta).
    """
    d = 2.0 * np.sin(0.5 * theta) ** 2
    p = 1.0 - d
    e = -d
    term = np.empty_like(d)
    for k in range(1, n):
        np.multiply(d, p, out=term)
        term *= 2 * k + 1
        e -= term
        np.divide(e, k + 1, out=term)
        p += term
    return p, (e - n * d * p) / np.sin(theta)


def _newton_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule by Newton's method in theta, for large n.

    Half the nodes, theta in (0, pi/2], start from asymptotic guesses (Hale
    & Townsend, SIAM J. Sci. Comput. 35 (2013)): Tricomi's expansion in the
    interior, Olver's Bessel-zero expansion for the outermost nodes.  Both
    are good to ~1e-10 relative at n > 1000, so two Newton sweeps converge.
    The weights are w = 2 / (dP_n/dtheta)^2 from the last sweep; this form
    never forms 1 - x^2, which cancels near x = +-1.
    """
    half = n // 2
    rho = n + 0.5
    phi = (np.arange(1, half + 1) - 0.25) * math.pi / rho
    theta = np.arccos((1.0 - (n - 1.0) / (8.0 * n**3)
                       - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4)) * np.cos(phi))
    psi = jn_zeros(0, min(half, _BESSEL_GUESSES)) / rho
    theta[:psi.size] = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * rho**2)
    if n % 2:
        theta = np.append(theta, math.pi / 2)  # the middle node, x = 0
    p, dp = _legendre_theta(n, theta)
    step = p / dp
    if n % 2:
        step[-1] = 0.0
    theta -= step
    # the second step is below the rounding of theta itself; fold it into x
    # to first order rather than into theta, and take w from this sweep
    p, dp = _legendre_theta(n, theta)
    x = np.cos(theta[:half]) + np.sin(theta[:half]) * (p[:half] / dp[:half])
    w = 2.0 / dp**2
    middle_x = [0.0] if n % 2 else []
    nodes = np.concatenate([-x, middle_x, x[::-1]])
    weights = np.concatenate([w[:half], w[half:], w[:half][::-1]])
    return nodes, weights


@lru_cache(maxsize=128)
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Up to n = 1000 this is ``scipy.special.roots_legendre``, bit for bit.
    The Nystrom rules of schatten_lab (12 to ~300 nodes) feed singular
    values at the roundoff floor, which move with a 1-ulp change of a
    weight, so small rules keep scipy's exact output.  Above n = 1000,
    :func:`_newton_rule` takes over.  scipy's rule (Golub-Welsch plus a
    polish) and the Newton sweeps both cost O(n^2) flops, but on a 2-core
    x86 box scipy took 3.6 s at n = 9600 against 0.48 s for Newton.  Newton
    is already the faster one from n ~ 350 (at n = 1000, 9 ms against
    scipy's 39 ms); below the cutoff the saving is at most ~30 ms a rule.
    Against 30-digit mpmath, at 30-40 sampled nodes for n = 1001 and 4096,
    the Newton nodes are within 1.3e-16 absolute and the weights within
    1.6e-14 relative, the outermost ones included.  scipy's nodes are as
    good, but its end weights are off by 4e-9 at n = 1001 and by up to
    5.9e-6 at n = 9600, from cancellation in 1 - x^2.
    """
    if n < _NEWTON_RULE_MIN:
        nodes, weights = roots_legendre(n)
    else:
        nodes, weights = _newton_rule(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def build_grid(n_theta: int, n_phi: int = 1) -> SphereGrid:
    """Gauss nodes in u = cos(theta), mapped to ascending theta in (0, pi).

    n_theta = 1 is rejected: a single interior node cannot certify any of
    the exactness properties the grid advertises.
    """
    if n_theta < 2:
        raise ValueError("n_theta must be >= 2")
    if n_phi < 1:
        raise ValueError("n_phi must be >= 1")
    u, w = _gauss_rule(n_theta)
    theta = np.arccos(u)[::-1].copy()
    weights = w[::-1].copy()
    return SphereGrid(theta, weights, n_phi, 2 * n_theta - 1)


def ylm_matrix(ells, grid: SphereGrid):
    """Columns Y_l^m on the flattened (theta, phi) mesh for all given degrees.

    Returns (matrix, labels, weights): matrix has shape
    (n_theta * n_phi, sum(2l+1)), labels is the list of (ell, m) pairs in
    column order, and weights are the matching surface weights.
    """
    ells = [int(e) for e in ells]
    x = np.cos(grid.theta_nodes)
    phis = grid.phi_nodes
    n_nodes = grid.n_theta * grid.n_phi
    dim = sum(2 * e + 1 for e in ells)
    matrix = np.empty((n_nodes, dim), dtype=complex)
    labels = []
    col = 0
    for ell in ells:
        for m in range(-ell, ell + 1):
            g = legendre_row(abs(m), ell, x)
            if m < 0 and m % 2 != 0:
                g = -g
            phase = np.exp(1j * m * phis)
            matrix[:, col] = np.outer(g, phase).ravel()
            labels.append((ell, m))
            col += 1
    return matrix, labels, grid.surface_weights()


# ---------------------------------------------------------------------------
# Spectral counting
# ---------------------------------------------------------------------------

def weyl_count(lam: float) -> int:
    """Number of spherical-harmonic eigenvalues l(l+1) strictly below lam^2.

    Equals (L+1)^2 with L the largest admissible degree; grows like lam^2
    with unit leading coefficient.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    lam2 = lam * lam
    L = int(math.floor((-1.0 + math.sqrt(1.0 + 4.0 * lam2)) / 2.0))
    while L >= 0 and L * (L + 1) >= lam2:
        L -= 1
    while (L + 1) * (L + 2) < lam2:
        L += 1
    return (L + 1) ** 2


def cluster_rank(lam: float) -> tuple[list[int], int]:
    """Degrees with lam^2 <= l(l+1) < (lam+1)^2, and their total multiplicity."""
    if lam < 1:
        raise ValueError("lam must be >= 1")
    lo, hi = lam * lam, (lam + 1.0) ** 2
    first = max(0, int(math.floor(lam)) - 2)
    last = int(math.ceil(lam)) + 2
    ells = [ell for ell in range(first, last + 1) if lo <= ell * (ell + 1) < hi]
    return ells, sum(2 * ell + 1 for ell in ells)
