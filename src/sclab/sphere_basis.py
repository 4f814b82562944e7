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

Fixed-order rows come from one normalized three-term recurrence upward
in degree (:func:`_degree_rows`), over one order or a column of orders
advancing together: a row (:func:`legendre_row`) or a degree table each
take one call.  Fixed-degree rows all come from one order band
(:func:`_order_band`, below); the rows of all orders 0..l
(:func:`radial_rows`) are the band 0..l.  Normalized values stay
O(sqrt(l)), so nothing overflows for l <= 1e4.  The seed g_m^m ~
sin(theta)^m underflows near the poles at high order; rows, degree tables
and bands lift it (see Underflow below), since the degree-l value can be
representable even so: g_1600^533(-0.97) = 7.23e-38 has a seed of
~1e-327.

A band of orders m_lo..m_hi at one degree (:func:`legendre_band`) recurs
downward in order instead,

    g^{m-1} = -(sqrt((l-m)(l+m+1)) g^{m+1} + 2m cot(theta) g^m)
              / sqrt((l+m)(l-m+1)),

from two top rows that one degree recurrence gives.  That recurrence runs
at order m = m_hi - 1; its last two rows are g_{l-1}^m and g_l^m, and the
order-raising identity (sin(theta) P_l^{m+1} = (l-m) x P_l^m - (l+m)
P_{l-1}^m, normalized)

    g_l^{m+1} = [(l-m) x g_l^m - sqrt((2l+1)(l-m)(l+m)/(2l-1)) g_{l-1}^m]
                / (sin(theta) sqrt((l+m+1)(l-m)))

gives the top row.  A window of r orders thus costs O((l - m_hi + r) n) on
n nodes instead of the O(r l n) of r separate degree recurrences.
Downward is the stable direction: past the turning point
m = (l + 1/2) sin(theta) the true values grow as m decreases, so the
recurrence follows the dominant solution, and inside the oscillatory zone
both solutions have the same size, so rounding errors grow at most
algebraically.  The identity's two terms cancel where g_l^{m+1} is far
below them: deep in the forbidden zone next to a pole, and next to a zero
of g_l^{m+1}.  Where they cancel by more than ``_CANCEL_BITS`` = 10 bits,
|t1| + |t2| > 2^10 |t1 - t2|, the top row is recomputed on those nodes
alone by its own degree recurrence: on n = 4l Gauss nodes that is ~1% of
a case-"inf" window's nodes (92 of 9600 at l = 2400) and none of a
case-"2" window's.  Every sin^2(theta) is formed as (1 - x)(1 + x), in the
seeds as log1p(-x) + log1p(x): 1 - x*x would lose m/2 * 2^-53 / (1 - x^2)
of relative accuracy in sin^m next to the poles (at l = 400 on the first
of 1600 Gauss nodes, seeds of m = 60..137 are within 5e-14 of mpmath this
way, against up to 1.1e-9 from 1 - x*x).  Measured against
the per-order recurrence on n = 4l Gauss nodes up to l = 2400, the band
agrees to within 1.2e-11 of each row's maximum (6.5e-13 in case "inf").
Against 50-digit mpmath at l = 975 and 2400, the top row is within 7e-12
at sampled allowed, forbidden and fallback nodes (of the row's maximum
where allowed, pointwise elsewhere).

A band can also be swept upward in order, by the same relation solved for
g^{m+1}, from g_l^0 and g_l^1.  Stieltjes' interior series
(:func:`_legendre_interior`) gives P_l and dP_l/dtheta in O(36) per node,
and so both seeds, wherever (l + 1/2) sin(theta) >= ``_SERIES_MIN_RHO_SIN``.
Upward is the stable direction only up to the turning point: inside the
oscillatory zone rounding errors grow at most algebraically, but past it
the wanted solution is the one that decays with m, and the other one
takes over (at l = 1600, m = 400, with nodes reaching 10% past the
turning point, the sweep is off by 1.5e-9 where the value is 7.4e-6).  A
band therefore takes this route only when every node satisfies
(l + 1/2) sin(theta) >= max(``_SERIES_MIN_RHO_SIN``, m_hi), so that every
order is oscillatory everywhere, and when it is the cheaper route,
m_hi + ``_SERIES_COST_STEPS`` < l - m_lo.  It then costs O((36 + m_hi) n)
instead of O((l - m_lo) n).  This is the route of case-"inf" windows
(orders [r, 2r)) on their WKB intervals, which end ~8r/l from the poles:
at l = 1600 a row of order m <= 79 takes the series and m - 1 order steps
instead of 1600 - m degree steps.  Gauss grids have nodes next to the
poles, and case-"2" windows have m_hi near l, so both keep the degree
route.  Against 50-digit mpmath on both windows' WKB intervals at l = 400
and 1600 (ends included; case "2" swept upward on purpose), upward rows
are within 9.7e-14 of each row's maximum, against
4.9e-14 by the degree recurrence; the gap is the series phase
(l + 1/2) theta, which is rounded at an arbitrary node, ~l 2^-53.

Underflow.  Where the sectoral seed of m_hi falls below the smallest
normal double (sin(theta)^m_hi < ~1e-308), the seed of the band's degree
recurrence is lifted by the power 2^k, k <= 1000, that brings the top
seed into the normal range, added as k ln 2 to its logarithm before exp.
The degree and order recurrences and the identity are all linear, and
the finished rows are scaled back by 2^-k, which rounds only where a
value is itself subnormal or below the double range.  The band is then
accurate at lower orders whose values are representable even though the
top seed is not.  Past the largest lift (sin(theta)^m_hi below ~1e-609) a
node restarts at the highest order within reach, and the orders above it
read zero: their seeds are more than 300 orders of magnitude below the
double range.  ``underflow_nodes`` on a band counts the nodes whose top
seed underflows.  A single row (:func:`legendre_row`) and a degree table
(:func:`legendre_degree_table`) lift their seed the same way, up to the
largest lift, and so does :func:`radial_rows` as a band.

Normalization.  One quantity, the central binomial logarithm
S_k = log((2k)! / (4^k k!^2)) = sum_{j<=k} log1p(-1/(2j)), is read from
one cached table of exactly rounded prefix sums
(:func:`_central_binomial_table`) wherever a normalization is needed: the
seeds' constant log |g_m^m(0)| = (log((2m + 1)/(4 pi)) + S_m) / 2, so a
column of orders costs one lookup; the closed-form values at the equator
(:func:`normalized_at_zero`), g_l^m(0)^2 = (2l + 1)/(4 pi) e^(S_a + S_b)
with a = (l + m)/2, b = a - m; and the interior series' constant
C_n = 4 / (pi (2n + 1)) e^(-S_n) (:func:`_series_constant`).

Quadrature.  Colatitude grids are Gauss-Legendre rules (:func:`_gauss_rule`):
scipy's up to 1000 nodes, and above that one Newton step in theta from
asymptotic guesses, O(n) in all.  P_n comes from Stieltjes' interior
series (:func:`_legendre_interior`), except at the few nodes next to each
pole where the series cannot reach 2^-53; those take the n-step
recurrence (:func:`_legendre_theta`).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import jn_zeros, roots_legendre

FOUR_PI = 4.0 * math.pi
_LN2 = math.log(2.0)
_LOG_TINY = math.log(np.finfo(float).tiny)
# Largest lift of an order-band seed, in bits: 2^1000 times any |g_l^m|
# <= sqrt((2l + 1) / (4 pi)) stays finite, so lifted bands never overflow.
_MAX_LIFT = 1000
# Bits the order-raising identity of an order band may lose to cancellation
# before the top row is recomputed by its own degree recurrence.
_CANCEL_BITS = 10


class GridResolutionError(ValueError):
    """A quadrature grid is too coarse: for the cluster Gram or a window density."""


# ---------------------------------------------------------------------------
# Fully normalized associated Legendre recurrences
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _central_binomial_table(size: int) -> np.ndarray:
    """S_k = log((2k)! / (4^k k!^2)) = sum_{j<=k} log1p(-1/(2j)) for k < size, read-only.

    The one source of normalization in this module: the seeds, the values
    at the equator and the interior series' constant all read it.  The
    running sums are corrected by the running sum of their own rounding
    errors, each found exactly by two-sum, which gives the exactly rounded
    sum of the terms, as ``math.fsum`` would, at every k.  Both sums run
    in index order, so an entry does not depend on the size of its table.
    Through log-gamma, S_k is a sum of three terms in the thousands that
    cancel to ~-5, and was off by 1.1e-12 (k = 376), 1.3e-12 (2346) and
    1.9e-11 (6400).  Built once per power-of-two size, ~1 ms at 16384.
    """
    terms = np.log1p(-0.5 / np.arange(1.0, size))
    sums = np.cumsum(terms)  # accumulate adds in order: sums[k] = sums[k-1] + terms[k]
    before = np.concatenate([[0.0], sums[:-1]])
    part = sums - before
    errors = (before - (sums - part)) + (terms - part)
    exact = np.concatenate([[0.0], sums + np.cumsum(errors)])
    exact.setflags(write=False)
    return exact


def _log_central_binomial(k):
    """S_k (see :func:`_central_binomial_table`) for an index or an array of them."""
    k = np.asarray(k)
    return _central_binomial_table(1 << max(10, int(k.max(initial=0)).bit_length()))[k]


def _seed_log_magnitude(m, x: np.ndarray) -> np.ndarray:
    """log |g_m^m| on nodes x for one order or a column of orders (k, 1).

    log |g_m^m(0)| = (log((2m + 1) / (4 pi)) + S_m) / 2; within 5.1e-16
    of 40-digit mpmath at m = 376, 1000, 2346 and 6400.  Finite wherever
    |x| < 1; at x = +-1 it is -inf except at order 0.
    """
    m = np.asarray(m)
    equator = 0.5 * (np.log(2.0 * m + 1.0) - math.log(FOUR_PI) + _log_central_binomial(m))
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log(0) at order 0
        log_mag = equator + 0.5 * m * (np.log1p(-x) + np.log1p(x))
    return np.where(m == 0, -0.5 * math.log(FOUR_PI), log_mag)


def _seed_values(m, x: np.ndarray, shift=0) -> np.ndarray:
    """g-values of degree m at order m (or a column of orders), times 2**shift.

    ``shift`` (one integer, or one per node) lifts seeds that would
    underflow into the normal range; the default gives the plain seed.
    """
    m = np.asarray(m)
    with np.errstate(under="ignore"):
        values = np.where(m % 2, -1.0, 1.0) * np.exp(
            _seed_log_magnitude(m, x) + shift * _LN2)
    return np.where(m == 0, np.ldexp(1.0 / math.sqrt(FOUR_PI), shift), values)


def _check_nodes(x) -> np.ndarray:
    """x as a 1-D float array, checked to lie strictly inside (-1, 1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) >= 1.0):
        raise ValueError("nodes must lie strictly inside (-1, 1)")
    return x


def legendre_degree_table(m: int, ell_max: int, x) -> np.ndarray:
    """g-values for all degrees m..ell_max at fixed order m.

    Parameters
    ----------
    m : order, >= 0
    ell_max : largest degree, >= m
    x : nodes in the open interval (-1, 1); typically cos(theta)

    Returns array of shape (ell_max - m + 1, len(x)); row k holds degree
    m + k, bit for bit the :func:`legendre_row` of that degree: a seed
    that would underflow is lifted the same way and the table scaled back.
    """
    if m < 0 or ell_max < m:
        raise ValueError(f"need 0 <= m <= ell_max, got m={m}, ell_max={ell_max}")
    x = _check_nodes(x)
    lift = _seed_lift(m, x)
    rows = _degree_rows(m, ell_max, x, _seed_values(m, x, lift))
    # times an exact power of two: the ldexp of legendre_row, bit for bit, and vectorized
    return np.array(list(rows)) * np.ldexp(1.0, -lift)


def legendre_row(m: int, ell: int, x) -> np.ndarray:
    """g-values of a single (ell, m) on nodes x, O(1) memory in degree.

    Seeds that would underflow are lifted as in an order band (see the
    module notes) and the row is scaled back; where the seed is a normal
    double, the row is the plain degree recurrence bit for bit.
    """
    if not 0 <= m <= ell:
        raise ValueError(f"need 0 <= m <= ell, got m={m}, ell={ell}")
    x = _check_nodes(x)
    lift = _seed_lift(m, x)
    return np.ldexp(_last_rows(m, ell, x, lift)[-1], -lift)


def _degree_rows(m, ell: int, x: np.ndarray, seed: np.ndarray):
    """Yield the rows of degree m + j, j = 0..ell - min(m), from degree-m seeds.

    The one upward recurrence in degree; linear in the seed.  ``m`` is one
    order (one seed row, Python-float coefficients) or a column of orders
    (shape (k, 1), k seed rows) advancing together; order m reaches ell at
    step ell - m, and higher orders run on past it.  Each element takes
    the operations of its order alone, so a column gives its one-order
    rows bit for bit.  A generator: O(1) rows are held.
    """
    sqrt = math.sqrt if np.ndim(m) == 0 else np.sqrt
    prev = seed
    yield prev
    steps = ell - int(np.min(m))
    if steps == 0:
        return
    cur = sqrt(2 * m + 3) * x * prev
    yield cur
    for step in range(2, steps + 1):
        deg = m + step
        a = sqrt((4 * deg * deg - 1.0) / (deg * deg - m * m))
        b = sqrt(((deg - 1.0) ** 2 - m * m) / (4.0 * (deg - 1.0) ** 2 - 1.0))
        prev, cur = cur, a * (x * cur - b * prev)
        yield cur


def radial_rows(ell: int, x) -> np.ndarray:
    """Rows g_ell^m for m = -ell..ell on nodes x: the theta factors of Y_ell^m.

    The order band 0..ell (:func:`_order_band`), O(ell n).  Negative
    orders carry the Condon-Shortley convention g_ell^{-m} = (-1)^m g_ell^m;
    row ell + m holds order m.
    """
    x = _check_nodes(x)
    g = _order_band(ell, 0, ell, x)[0]
    sign = np.where(np.arange(ell, 0, -1) % 2, -1.0, 1.0)[:, None]
    return np.concatenate([sign * g[:0:-1], g])


def _seed_lift(m: int, x: np.ndarray) -> np.ndarray:
    """Per node, the k <= ``_MAX_LIFT`` that brings 2^k g_m^m into the normal range.

    Zero where the seed is a normal double already.
    """
    lift = np.ceil((_LOG_TINY - _seed_log_magnitude(m, x)) / _LN2)
    return np.clip(lift, 0, _MAX_LIFT).astype(int)


def _last_rows(m: int, ell: int, x: np.ndarray, shift=0) -> deque:
    """The rows of degree ell - 1 and ell at one order m (degree ell alone if m = ell).

    Seeds are lifted by 2**shift as in :func:`_seed_values`.
    """
    return deque(_degree_rows(m, ell, x, _seed_values(m, x, shift)), maxlen=2)


def _order_rows(ell: int, m: int, step: int, far: np.ndarray, near: np.ndarray,
                cot: np.ndarray):
    """Yield g^{m + step}, g^{m + 2 step}, ... from far = g^{m - step} and near = g^m.

    The three-term relation in order at degree ell,

        sqrt((l - m)(l + m + 1)) g^{m+1} + 2m cot(theta) g^m
            + sqrt((l + m)(l - m + 1)) g^{m-1} = 0,

    solved for g^{m+1} (step = 1, upward) or g^{m-1} (step = -1, downward).
    Endless; the caller takes as many rows as it needs.
    """
    while True:
        row = math.sqrt((ell + step * m) * (ell - step * m + 1.0)) * far
        row += (2.0 * m) * cot * near
        row *= -1.0 / math.sqrt((ell - step * m) * (ell + step * m + 1.0))
        yield row
        far, near, m = near, row, m + step


def _upward_band(ell: int, m_lo: int, m_hi: int, x: np.ndarray) -> np.ndarray:
    """g_ell^m for m = m_lo..m_hi on nodes x, upward in order from m = 0 and 1.

    The seeds come from Stieltjes' series at degree ell (:func:`_legendre_interior`),
    on theta = arccos |x| <= pi/2 and reflected by parity:

        g_l^0 = sqrt((2l + 1) / (4 pi)) P_l,
        g_l^1 = sqrt((2l + 1) / (4 pi l (l + 1))) dP_l/dtheta.

    Stable only while every order stays in its oscillatory zone,
    m_hi <= (l + 1/2) sin(theta), which the caller checks, together with
    the series' own reach (see the module notes).
    """
    theta = np.arccos(np.abs(x))
    p, dp = _legendre_interior(ell, theta)
    negative = x < 0
    p[negative] *= (-1) ** ell
    dp[negative] *= (-1) ** (ell + 1)
    below = math.sqrt((2 * ell + 1) / FOUR_PI) * p
    above = math.sqrt((2 * ell + 1) / (FOUR_PI * ell * (ell + 1.0))) * dp
    cot = x / np.sqrt((1.0 - x) * (1.0 + x))
    rows = itertools.chain([below, above], _order_rows(ell, 1, 1, below, above, cot))
    return np.array(list(itertools.islice(rows, m_lo, m_hi + 1)))


def _order_band(ell: int, m_lo: int, m_hi: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g_ell^m for m = m_lo..m_hi (rows) on nodes x, by a recurrence in m.

    Returns (values, underflow), the latter marking the nodes where the
    sectoral seed of m_hi is below the smallest normal double.  Where every
    order is oscillatory at every node, (l + 1/2) sin(theta) >=
    max(``_SERIES_MIN_RHO_SIN``, m_hi), and sweeping up from m = 0 is
    cheaper than the degree recurrence, m_hi + ``_SERIES_COST_STEPS`` <
    l - m_lo, the band is :func:`_upward_band`.  Otherwise, a band of one
    order is its degree recurrence (:func:`legendre_row` bit for bit).  A
    wider band runs one degree recurrence, at the order below its top, and
    takes the top row from that recurrence's last two rows by the
    order-raising identity, then recurs downward (see the module notes); at
    nodes where the identity's two terms cancel by more
    than ``_CANCEL_BITS`` bits, the top row comes from its own degree
    recurrence instead.  Where a seed would underflow, the rows are lifted
    by one power of two and the finished rows scaled back.  Nodes whose top
    seed lies beyond the largest lift restart at the highest order within
    reach, and the orders above it read zero.
    """
    top_log = _seed_log_magnitude(m_hi, x)
    underflow = top_log < _LOG_TINY
    sin = np.sqrt((1.0 - x) * (1.0 + x))  # the seeds' sin^2 (module notes)
    if (m_hi + _SERIES_COST_STEPS < ell - m_lo
            and np.all((ell + 0.5) * sin >= max(_SERIES_MIN_RHO_SIN, m_hi))):
        return _upward_band(ell, m_lo, m_hi, x), underflow
    out = np.zeros((m_hi - m_lo + 1, x.size))
    reach = _LOG_TINY - _MAX_LIFT * _LN2
    top = np.full(x.size, m_hi)
    short = np.flatnonzero(top_log < reach)
    if short.size:
        within = _seed_log_magnitude(np.arange(m_lo, m_hi + 1)[:, None], x[short]) >= reach
        # the highest order within reach; where none is, the column reads zero
        top[short] = np.where(within.any(axis=0),
                              m_hi - np.argmax(within[::-1], axis=0), m_lo - 1)
    for m_top in np.unique(top[top >= m_lo]).tolist():
        cols = np.flatnonzero(top == m_top)
        xs = x[cols]
        lift = _seed_lift(m_top, xs)
        if m_top == m_lo:
            out[0, cols] = _last_rows(m_top, ell, xs, lift)[-1]
        else:
            m = m_top - 1
            below, lower = _last_rows(m, ell, xs, lift)  # degrees ell - 1 and ell
            t1 = (ell - m) * xs * lower
            t2 = math.sqrt((2 * ell + 1.0) * (ell - m) * (ell + m) / (2 * ell - 1.0)) * below
            upper = (t1 - t2) / (math.sqrt((ell + m + 1.0) * (ell - m)) * sin[cols])
            cancel = np.flatnonzero(np.abs(t1 - t2)
                                    < 2.0**-_CANCEL_BITS * (np.abs(t1) + np.abs(t2)))
            if cancel.size:
                upper[cancel] = _last_rows(m_top, ell, xs[cancel], lift[cancel])[-1]
            out[m_top - m_lo, cols] = upper
            out[m - m_lo, cols] = lower
            rows = _order_rows(ell, m, -1, upper, lower, xs / sin[cols])
            for i, row in zip(range(m - 1 - m_lo, -1, -1), rows):
                out[i, cols] = row
        lifted = lift > 0
        if lifted.any():
            rows = out[:m_top - m_lo + 1, cols[lifted]]
            out[:m_top - m_lo + 1, cols[lifted]] = np.ldexp(rows, -lift[lifted])
    return out, underflow


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


def legendre_band(ell: int, m_lo: int, m_hi: int, thetas) -> RadialTable:
    """Evaluate v_ell^m and g_ell^m for all orders m_lo..m_hi.

    thetas must avoid +-pi/2 exactly: cos(theta) = 0 makes the normal-form
    potential singular downstream, and the sqrt(cos) factor degenerate.
    Costs O((ell - m_hi + number of orders) * nodes) by the degree and
    downward order recurrences, or O((36 + m_hi) * nodes) where every order
    is oscillatory at every node and the upward sweep from the interior
    series is cheaper; see the module notes for both routes and their seeds.
    """
    if not 0 <= m_lo <= m_hi <= ell:
        raise ValueError(
            f"need 0 <= m_lo <= m_hi <= ell, got ({m_lo}, {m_hi}) at ell={ell}"
        )
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any(np.abs(thetas) >= math.pi / 2):
        raise ValueError("band nodes must satisfy |theta| < pi/2")
    values_g, underflow = _order_band(ell, m_lo, m_hi, np.sin(thetas))
    values_v = np.sqrt(np.cos(thetas)) * values_g
    return RadialTable(ell, m_lo, m_hi, thetas, values_v, values_g,
                       int(np.count_nonzero(underflow)))


# ---------------------------------------------------------------------------
# Closed forms at the equator
# ---------------------------------------------------------------------------

def normalized_at_zero(ell, m) -> tuple[np.ndarray, np.ndarray]:
    """v_ell^m(0) and (v_ell^m)'(0), bounded for all desk-scale (ell, m).

    Vectorized over (ell, m).  With a = floor((l + m) / 2) and b = a - m,
    the closed forms from S_k (:func:`_central_binomial_table`) are

        g_l^m(0) = (-1)^a sqrt((2l + 1) / (4 pi) exp(S_a + S_b))       (l + m even),
        (g_l^m)'(0) = sqrt((2l + 1)(l - m)(l + m) / (2l - 1)) g_{l-1}^m(0)   (l + m odd),

    the other one being zero by parity; v(0) = g(0), and v'(0) is the
    derivative of g in x = cos(theta) at 0.  Both stay O(l^{1/4}) even
    where P_ell^m(0) itself overflows.  Against 40-digit mpmath at ten pairs up to l = 10001 they
    are within 3.2e-16; through log-gamma they were off by up to 1.6e-11.
    """
    ell_arr = np.atleast_1d(np.asarray(ell, dtype=int))
    m_arr = np.atleast_1d(np.asarray(m, dtype=int))
    ell_b, m_b = np.broadcast_arrays(ell_arr, m_arr)
    if np.any(m_b < 0) or np.any(m_b > ell_b):
        raise ValueError("need 0 <= m <= ell")
    odd = (ell_b + m_b) % 2 == 1
    a = (ell_b + m_b) // 2
    factor = (2.0 * ell_b + 1.0) * np.where(odd, (ell_b - m_b) * (ell_b + m_b), 1)
    magnitude = np.sqrt(factor / FOUR_PI) * np.exp(
        0.5 * (_log_central_binomial(a) + _log_central_binomial(a - m_b)))
    signed = np.where(a % 2, -magnitude, magnitude)
    value = np.where(odd, 0.0, signed)
    deriv = np.where(odd, signed, 0.0)
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

        Entry i * n_phi + j is (theta_i, phi_j): the order of
        :meth:`surface_weights` and of the density that
        :func:`sclab.cluster_density.random_cluster_density` returns.
        """
        return (np.repeat(self.theta_nodes, self.n_phi),
                np.tile(self.phi_nodes, self.n_theta))


# Rules up to this size stay scipy's bit for bit; larger ones use Newton.
_NEWTON_RULE_MIN = 1001
# Outermost nodes per half that start from Bessel zeros instead of Tricomi.
_BESSEL_GUESSES = 20


def _series_truncation() -> tuple[int, float]:
    """Terms M of the interior series, and the least rho sin(theta) it serves.

    The remainder after M terms of :func:`_legendre_interior` is below
    twice the first omitted term taken at full size (Szegő's bound, as used
    by Hale & Townsend).  Relative to the leading term that is
    2 prod_{j<=M} (j - 1/2)^2 / (2 j (n + j + 1/2) sin theta), at most
    B_M(x) = 2 prod_{j<=M} (j - 1/2)^2 / (2 j x) with x = rho sin(theta),
    rho = n + 1/2, for every n.  M is the count that reaches B_M(x) = 2^-53
    at the smallest x: 36 terms from x = 17.7, past the fifth zero of J_0.
    """
    log_b = math.log(2.0)
    reach = []  # (x with B_m(x) = 2^-53, m)
    for m in range(1, 100):
        log_b += math.log((m - 0.5) ** 2 / (2.0 * m))
        reach.append((math.exp((log_b + 53.0 * _LN2) / m), m))
    x, m = min(reach)
    return m, x


_SERIES_TERMS, _SERIES_MIN_RHO_SIN = _series_truncation()
# What the interior series costs at one degree, with both seeds of an
# upward band, in steps of the degree recurrence on the same nodes: measured
# 57 to 73 at l = 400, 1600 and 10000 on 1001 nodes (flat in l: C_n is a
# table lookup)
_SERIES_COST_STEPS = 70


def _legendre_theta(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(cos theta) and dP_n/dtheta by the three-term recurrence.

    The recurrence runs on P_k and E_k = k (P_k - P_{k-1}) with d = 1 - cos
    theta = 2 sin^2(theta/2) (Reinsch's form): near the poles it sees theta
    itself, not a cos(theta) rounded to the spacing of doubles near 1.  In

        E_{k+1} = E_k - (2k+1) d P_k,    P_{k+1} = P_k + E_{k+1} / (k+1)

    every coefficient is an integer, so rounding errors vary from node to
    node instead of repeating as one rounded ratio per step; the latter
    biased all weights alike (sum 2 + 1.1e-14 at n = 9600, against 9e-16).
    Then dP_n/dtheta = (E_n - n d P_n) / sin(theta).  O(n) per node; the
    Gauss rule uses it only where the interior series cannot reach 2^-53,
    a few nodes, so each node runs as one loop on Python floats: ~5x
    faster there than numpy calls on a short array, with the same bits.
    """
    d = 2.0 * np.sin(0.5 * theta) ** 2
    p = np.empty_like(d)
    e = np.empty_like(d)
    for i, d_i in enumerate(d.tolist()):
        p_i, e_i = 1.0 - d_i, -d_i
        for k in range(1, n):
            e_i -= d_i * p_i * (2 * k + 1)
            p_i += e_i / (k + 1)
        p[i], e[i] = p_i, e_i
    return p, (e - n * d * p) / np.sin(theta)


def _series_constant(n: int) -> float:
    """C_n = (4/pi) prod_{j<=n} j / (j + 1/2), the interior series' prefactor.

    The product is 4^n n!^2 / (2n + 1)! = exp(-S_n) / (2n + 1), with S_n
    read from :func:`_central_binomial_table`: within 3.2e-16 of 30-digit
    mpmath at n = 1001, 9600 and 51200.  Through log-gamma or poch the
    ratio n!/Gamma(n + 3/2) was 3e-12 to 5e-12 off at n = 4096 and 9600.
    """
    return 4.0 / (math.pi * (2 * n + 1)) * math.exp(-float(_log_central_binomial(n)))


def _legendre_interior(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(cos theta) and dP_n/dtheta by Stieltjes' interior series.

        P_n(cos theta) = C_n sum_{m<M} h_m cos(alpha_m) / (2 sin theta)^(m+1/2),
        alpha_m = (n + m + 1/2) theta - (m + 1/2) pi/2,
        h_0 = 1,   h_m = h_{m-1} (m - 1/2)^2 / (m (n + m + 1/2)),

    with C_n from :func:`_series_constant` and M = ``_SERIES_TERMS``
    (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013), section 3).  Good to
    2^-53 of the leading term where (n + 1/2) sin(theta) is at least
    ``_SERIES_MIN_RHO_SIN``; O(M) per node.  Term m is the real part of
    z_m = h_m e^{i alpha_0} w^m / sqrt(2 sin theta), w = (1 - i cot theta)/2,
    so dP_n/dtheta = -C_n sum_m ((rho + m) Im z_m + (m + 1/2) cot theta Re z_m).
    The phase rho theta, rho = n + 1/2, enters as one product.  The Gauss
    rule keeps it exact, since its rounding would move a node by 2^-53
    theta.  At an arbitrary node, such as an order band's upward route
    takes, it is rounded: up to ~rho theta 2^-53 of the amplitude, the
    same conditioning that P_n has in theta.
    """
    rho = n + 0.5
    sin = np.sin(theta)
    cot = np.cos(theta) / sin
    w = 0.5 - 0.5j * cot
    z = np.exp(1j * (rho * theta)) * (complex(1.0, -1.0) / np.sqrt(4.0 * sin))
    total = z.copy()  # sum of z_m
    weighted = np.zeros_like(z)  # sum of m z_m
    h = 1.0
    for m in range(1, _SERIES_TERMS):
        h *= (m - 0.5) ** 2 / (m * (n + m + 0.5))
        z *= w
        total += h * z
        weighted += (m * h) * z
    c_n = _series_constant(n)
    p = c_n * total.real
    dp = -c_n * (rho * total.imag + weighted.imag + cot * (weighted.real + 0.5 * total.real))
    return p, dp


def _newton_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule by one Newton step in theta, for large n; O(n).

    Half the nodes, theta in (0, pi/2], start from asymptotic guesses (Hale
    & Townsend, SIAM J. Sci. Comput. 35 (2013)): Tricomi's expansion in the
    interior, Olver's Bessel-zero expansion for the outermost nodes.  Both
    are within ~4e-13 at n > 1000.  Each guess is rounded to a multiple of
    a power of two q for which (n + 1/2) theta is exact.  P_n and dP_n/dtheta
    at the guess come from :func:`_legendre_interior`, except at the nodes
    with (n + 1/2) sin(theta) below ``_SERIES_MIN_RHO_SIN`` (five per half),
    which take the O(n) recurrence :func:`_legendre_theta`.  The Legendre
    equation gives the higher derivatives,

        P'' = -cot(theta) P' - n (n + 1) P,
        P''' = P' / sin^2(theta) - cot(theta) P'' - n (n + 1) P',

    so one Newton step is taken to second order, and dP_n/dtheta at the node
    to third order.  The node x = cos(theta + step) is a Taylor series
    about the guess, which is exact, so theta + step is never rounded.
    The weights are w = 2 / (dP_n/dtheta)^2; this form never forms 1 - x^2,
    which cancels near x = +-1.
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
    # a multiple of q below 2 is q times an integer below 2^53 / (2n + 1),
    # so rho * theta = (2n + 1) * integer * q / 2 is a double
    q = math.ldexp(1.0, math.frexp(2 * n + 1)[1] - 52)
    theta = np.round(theta / q) * q
    sin, cos = np.sin(theta), np.cos(theta)
    near_pole = rho * sin < _SERIES_MIN_RHO_SIN
    p, dp = np.empty_like(theta), np.empty_like(theta)
    p[~near_pole], dp[~near_pole] = _legendre_interior(n, theta[~near_pole])
    p[near_pole], dp[near_pole] = _legendre_theta(n, theta[near_pole])
    cot = cos / sin
    lam = n * (n + 1.0)
    d2 = -cot * dp - lam * p
    d3 = dp / sin**2 - cot * d2 - lam * dp
    step = -p / dp
    step -= 0.5 * (d2 / dp) * step**2
    dp += d2 * step + 0.5 * d3 * step**2
    x = cos[:half] - sin[:half] * step[:half] - 0.5 * cos[:half] * step[:half] ** 2
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
    polish) costs O(n^2) flops, the Newton rule O(n): 36 series terms a
    node, plus the n-step recurrence on five nodes per half.  On a 2-core
    x86 box it takes 8, 16, 32 and 64 ms at n = 6400, 12800, 25600 and
    51200, where two recurrence sweeps at every node (the O(n^2) route, kept
    as a test oracle) take 0.16, 0.49, 1.7 and 6.8 s.
    Against 30-digit mpmath at n = 1001, 4096, 9600, 20000, 25600 and
    51200 (the two outermost nodes, both sides of the series switch, three
    interior nodes), the nodes are within 1.1e-16 absolute and the weights
    within 3e-14 relative.  The largest weight errors are at the
    recurrence nodes: 4.7e-15 at n = 1001, 1.2e-14 at 4096, 3.0e-14 at
    20000 and 1.3e-14 at 51200, with no trend toward the 1e-13 gate; the
    series nodes stay within 1.4e-15.  scipy's nodes are as good, but its
    end weights are off by 4e-9 at n = 1001 and by up to 5.9e-6 at
    n = 9600, from cancellation in 1 - x^2.
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
