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
in degree (:func:`_degree_rows`), run on a column of orders advancing
together through one pipeline (:func:`_degree_column`) that lifts, keeps
and scales back the seeds' powers of two (see Underflow below).  A row
(:func:`legendre_row`) is a column of one order; the degree tables of many
orders (:func:`_degree_tables`) take one column per block of consecutive
orders, and each order's rows are those it would have alone: the 201
tables of the acceptance suite's orthonormality check (l <= 200 on 256
nodes) take 6641 column steps in 49 blocks.
Fixed-degree rows all come from the sweeps of one order band
(:func:`_band_sweeps`, below), which runs no degree recurrence; the rows
of all orders 0..l (:func:`radial_rows`) are the band 0..l.  Normalized
values stay O(sqrt(l)), so nothing overflows.  The seed g_m^m ~
sin(theta)^m underflows near the poles at high order; rows, degree tables
and bands lift it (see Underflow below), since the degree-l value can be
representable even so: g_1600^533(-0.97) = 7.23e-38 has a seed of
~1e-327.

Order bands.  A band of orders m_lo..m_hi at one degree
(:func:`legendre_band`) comes from one three-term relation in order
(:func:`_order_rows`),

    sqrt((l-m)(l+m+1)) g^{m+1} + 2m cot(theta) g^m
        + sqrt((l+m)(l-m+1)) g^{m-1} = 0,

swept in one of three ways at each node.

Downward, from g_l^{l+1} = 0 and the sectoral seed g_l^l, which gives
g_l^{l-1} = -sqrt(2l) cot(theta) g_l^l and then every lower order: l - m_lo
steps, the rows above m_hi passed over before they are scaled back (see
Underflow).  Downward is the stable direction: past the turning point
m = (l + 1/2) sin(theta) the true values grow as m decreases, so the
relation follows the dominant solution, and inside the oscillatory zone
both solutions have the same size, so rounding errors grow at most
algebraically.

By Miller's method (:func:`_miller_rows`; Gautschi, SIAM Rev. 9 (1967)):
downward too, but from g^{M+1} = 0, g^M = 1 at an order M past the node's
turning point, M = 2 max(``_SERIES_MIN_RHO_SIN``, m_hi) + 40, to m = 0,
the rows scaled by the addition theorem g^0^2 + 2 sum_{m>=1} g^m^2 =
(2l + 1)/(4 pi) and signed by (-1)^M (parity on x < 0).  The start brings in
some of the other solution, which dies away as the sweep follows the
dominant one down, and the sweep needs no seed: M steps a node.

Upward, by the relation solved for g^{m+1}, from g_l^0 and g_l^1
(:func:`_upward_rows`).  Stieltjes' interior series
(:func:`_legendre_interior`) gives P_l and dP_l/dtheta, and so both seeds,
wherever (l + 1/2) sin(theta) >= ``_SERIES_MIN_RHO_SIN``.  It costs what its
nodes need, not a fixed count: the fewest terms that reach 2^-53 at the
call's smallest (l + 1/2) sin(theta), 36 at that floor, 30 at the Gauss
rule's nodes (whose least is the sixth zero of J_0) and 8 or fewer on a
case-"inf" window's WKB interval, where it is at least ~8r.
Upward is the stable direction only up to the turning point: inside the
oscillatory zone rounding errors grow at most algebraically, but past it
the wanted solution is the one that decays with m, and the other one
takes over (at l = 1600, m = 400, with nodes reaching 10% past the
turning point, the sweep is off by 1.5e-9 where the value is 7.4e-6).

A node is oscillatory for the band where every order of it is,
(l + 1/2) sin(theta) >= max(``_SERIES_MIN_RHO_SIN``, m_hi).  An oscillatory
node sweeps upward in a band for which upward is the cheaper direction,
m_hi + ``_SERIES_COST_STEPS`` < l - m_lo: O(terms + m_hi) per node
instead of O(l - m_lo), with at most 36 series terms.  Every other node
takes Miller's sweep in a band for which its start lies below l - m_lo,
M < l - m_lo: M lies past the node's turning point by at least as much
again plus 40.  The rest sweep
downward.  Case-"inf" windows (orders [r, 2r)) sweep upward on their WKB
intervals, which end ~8r/l from the poles, and on a Gauss grid everywhere
but next to the poles, where they take Miller's sweep, ~4r + 40 steps (246
of 9600 nodes at l = 2400); case-"2" windows have m_hi near l and sweep
downward, as does :func:`radial_rows`.  Every sin^2(theta) is formed as
(1 - x)(1 + x): 1 - x*x would lose m/2 * 2^-53 / (1 - x^2) of relative
accuracy in sin^m next to the poles (at l = 400 on the first of 1600
Gauss nodes, seeds of m = 60..137 are within 1.2e-13 of 50-digit mpmath
this way, the rounding of their exponents, against up to 1.1e-9 from
1 - x*x).
Measured against the per-order degree recurrence on n = 4l Gauss nodes
up to l = 2400, both windows' bands agree to within 7.2e-13 of each row's
maximum.  Against 50-digit mpmath at l = 975 and 2400, the top and bottom
rows of both windows are within 3.3e-13 at sampled upward nodes, Miller's
and downward nodes allowed and forbidden for the top order on both sides
of the equator, and the nodes either side of each switch (of the row's
maximum where allowed, pointwise elsewhere); Miller's nodes within
8.4e-15.  At l = 25600 and 102400, the case-"inf" window's top and bottom
rows on Miller's nodes are within 4.4e-14 and 6.3e-14 (pointwise where
forbidden), where the downward sweep was off by 4.5e-12 and 1.1e-11, and
within 1.1e-13 and 2.6e-13 of the row's maximum on upward nodes.
On both windows' WKB intervals at l = 400 and 1600 (ends included; case
"2" swept upward on purpose), upward rows are within 9.7e-14 of each
row's maximum, against 4.9e-14 by the degree recurrence; the gap is the
series phase (l + 1/2) theta, which is rounded at an arbitrary node,
~l 2^-53.

Band memory.  :func:`_band_sweeps` chooses each node's route and hands
over each sweep's rows as they are finished, one order at a time: upward
and downward sweeps hold two rows on their nodes, Miller's sweep holds
its r kept rows on the polar nodes, since it is normalized only at m = 0,
and hands them over as one block.  Its consumers decide what to keep.
:func:`_order_band` stores every row in an r x n table (what
:func:`legendre_band` and :func:`radial_rows` return); a window density
(:func:`sclab.cluster_density.density`) adds nu_m g_m^2 into rho and
drops the row, so it holds O(n) values plus Miller's block, never the
r x n band (0.5 GB at l = 102400, r = 320, on half the 4l-point grid).

Underflow.  Where the seed g_m^m of a recurrence falls below the smallest
normal double (sin(theta)^m < ~1e-308 next to the poles), that node's rows
carry a power of two: the seed is lifted by the least 2^lift that brings
it into the normal range.  Every seed, lifted or not, goes through exp
as (m/2) log(f) + (lift + m k) ln 2 plus the log of its value at the
equator, with sin^2(theta) = f 4^k and f in [1/2, 2)
(:func:`_seed_log_magnitude`), not as the log of sin^m itself, whose
rounding (~1e5 2^-53 at m = 1e4) left seeds 1.7e-11 off next to a pole
at l = 10000 (1.4e-12 this way).  Both recurrences are linear, so lifted
rows are the true rows times 2^lift.  As the rows grow, the recurrences
keep that power up to date (:func:`_rescaled`): every
``_DEGREE_CHECK_STEPS`` steps in degree and every ``_ORDER_CHECK_STEPS``
in order, a node whose two latest rows have passed 2^512 is scaled down
by that power, and its lift drops by as much.  The checks are often
enough (the bounds are stated beside ``_RESCALE_BITS``): no row of an
order sweep passes 2^808 for l <= 1e6, and no row of a degree recurrence
2^768 for l <= 1e4.  Each kept row is scaled back once, by 2^-lift,
which rounds only where a value is itself subnormal or below the double
range.  There is no largest lift and
nothing restarts: an order whose value is representable reads it however
far below the double range its seed lies.  At l = 10000 and
sin(theta) = 0.06, orders 499, 549 and 600 (values -0.94, -1.49 and 2.12,
seeds below 1e-600, which a band restarting at the highest order within a
lift of 2^1000 read as 0) are within 6.2e-13 of mpmath; next to the poles
(x = +-nextafter(1, 0) and the first node of the 4l-point Gauss rule, at
l = 2400 and 10000) the band's normal values are within 1.4e-12.  A column
of the degree recurrence (:func:`_degree_column`) lifts each of its
orders' seeds the same way, so its lifts are per (order, node).

The seed-exponent floor.  The exponent of a seed is a sum of terms
up to ~(m/2) ln 2 in size, each rounded, so the seed is off by up to
~m 2^-53 relative, and a sweep passes that error on unchanged to every
row it gives on the node.  A downward sweep starts from m = l, so next to
the poles a downward band is off by ~l 2^-53 relative: at l = 1e5, on the
three nodes above, 4.4e-12 to 1.1e-11 against 50-digit mpmath, the same
at every order.  Miller's sweep starts from no seed, so it has no such
floor; it takes the polar nodes of every band for which it is cheaper,
and downward bands are those with m_hi near l, or with few orders below
l.  ``underflow_nodes`` on a band still counts the nodes where the seed of
the top order m_hi underflows, that is, where a degree recurrence of that
order would have to lift it, whatever route the node takes.

Normalization.  One quantity, the central binomial logarithm
S_k = log((2k)! / (4^k k!^2)) = sum_{j<=k} log1p(-1/(2j)), is read from
one cached table of exactly rounded prefix sums
(:func:`_central_binomial_table`) wherever a normalization is needed: the
seeds' constant log |g_m^m(0)| = (log((2m + 1)/(4 pi)) + S_m) / 2, so a
column of orders costs one lookup; the closed-form values at the equator
(:func:`normalized_at_zero`), g_l^m(0)^2 = (2l + 1)/(4 pi) e^(S_a + S_b)
with a = (l + m)/2, b = a - m; and the interior series' constant
C_n = 4 / (pi (2n + 1)) e^(-S_n) (:func:`_series_constant`).

Quadrature.  Colatitude grids are Gauss-Legendre rules (:func:`_gauss_rule`),
built with numpy alone, so the module imports no scipy.  From 76 nodes on,
one Newton step in theta from asymptotic guesses (:func:`_newton_rule`),
O(n) in all.  P_n comes from Stieltjes' interior series
(:func:`_legendre_interior`), except at the five nodes next to each pole
where the series cannot reach 2^-53.  Those take rows 0 and 1 of the
bands' Miller sweep (:func:`_miller_rows`), which start at M = 75 whatever
n, for g_n^0 and g_n^1, that is P_n and dP_n/dtheta; the sweep needs
M < n, which sets the switch.  So the module has two recurrences, in
degree, for fixed-order rows, and in order, for bands and the rule's
boundary nodes, and one Miller routine.  Up to 75 nodes, scipy's
``roots_legendre`` replicated in numpy (:func:`_jacobi_rule`): the Jacobi
matrix's eigenvalues, one Newton step, and scipy's weight formula, so that
the small Nystrom rules of schatten_lab keep the values recorded from
scipy's rule.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

FOUR_PI = 4.0 * math.pi
_LN2 = math.log(2.0)
_LOG_TINY = math.log(np.finfo(float).tiny)
# Lifted rows (see Underflow in the module notes), and every row of Miller's
# sweep, are checked at the second row of a recurrence and then every
# _DEGREE_CHECK_STEPS steps in degree and every _ORDER_CHECK_STEPS steps in
# order; where either of a node's two latest rows has passed
# 2^_RESCALE_BITS, both are scaled down by that power.  A step multiplies
# the larger of the two by at most 1.6 sqrt(m + 3) < 2^8 in degree (for
# l <= 1e4), so rows of the degree recurrence stay below 2^(512 + 32 * 8).
# A step in order multiplies it by at most 1 + sqrt(2l) |cot(theta)|, and
# |cot(theta)| < 2^26.5 at every double inside (-1, 1).  A lifted node's
# downward sweep starts from a seed just above the smallest normal double,
# and Miller's sweep from g^M = 1; both stay below 2^512 until a check finds
# them past it, so for l <= 1e6 no row of either passes
# 2^(8 log2(1 + sqrt(2e6) 2^26.5) + 512) ~ 2^808 < 2^1023.  Miller's running
# root sum of squares is at most sqrt(M) times the largest row, and is
# scaled with the rows.
_RESCALE_BITS = 512
_DEGREE_CHECK_STEPS = 32
_ORDER_CHECK_STEPS = 8
# Entries of the one buffer that holds a block of degree tables
# (_degree_tables): 1 MB.  Measured on the acceptance suite's
# orthonormality check (orders 0..200, 256 nodes; 2-core x86 box): its
# tables and Grams take 0.11 s with 1 MB blocks, 0.16 s with 0.5 MB and
# 0.08 s with 2 MB, but 2 MB raised the whole suite's peak RSS in a fresh
# process by 1.6 MB (43.0 -> 44.6 MB), where 1 MB leaves it flat.
_DEGREE_BLOCK_ENTRIES = 1 << 17


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


def _seed_exponent(m, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(base, power) with log |g_m^m| = base + power ln 2 on nodes x, for m or a column (k, 1).

    base = log |g_m^m(0)| + (m/2) log(f) and power = m k, an integer, with
    sin^2(theta) = (1 - x)(1 + x) = f 4^k and f in [1/2, 2): no term
    reaches the size of log(sin^m), whose rounding would cost
    |log(sin^m)| 2^-53 of relative accuracy (see Underflow in the module
    notes).  log |g_m^m(0)| = (log((2m + 1) / (4 pi)) + S_m) / 2; within
    5.1e-16 of 40-digit mpmath at m = 376, 1000, 2346 and 6400.  For
    |x| < 1, which every entry point of this module checks.
    """
    m = np.asarray(m)
    equator = 0.5 * (np.log(2.0 * m + 1.0) - math.log(FOUR_PI) + _log_central_binomial(m))
    fraction, exponent = np.frexp((1.0 - x) * (1.0 + x))
    return equator + 0.5 * m * np.log(np.ldexp(fraction, exponent % 2)), m * (exponent // 2)


def _seed_log_magnitude(m, x: np.ndarray) -> np.ndarray:
    """log |g_m^m| on nodes x, for m or a column (k, 1) (:func:`_seed_exponent`)."""
    base, power = _seed_exponent(m, x)
    return base + power * _LN2


def _lifted_seeds(m, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(seeds, lift): g_m^m times 2**lift on nodes x, for one order or a column (k, 1).

    lift is the least k >= 0 per node (per order and node for a column)
    that brings 2^k g_m^m into the normal range: zero where the seed is a
    normal double already.  There is no largest lift: the recurrences
    scale lifted rows back down as they grow (see Underflow in the module
    notes).  The seed's exponent (:func:`_seed_exponent`) is formed once,
    and the seed taken as exp(base + (lift + power) ln 2).  Order 0 is
    1/sqrt(4 pi) exactly.
    """
    base, power = _seed_exponent(m, x)
    lift = np.maximum(np.ceil((_LOG_TINY - (base + power * _LN2)) / _LN2), 0).astype(int)
    with np.errstate(under="ignore"):
        values = np.where(m % 2, -1.0, 1.0) * np.exp(base + (lift + power) * _LN2)
    # a lift meant for another order must not reach ldexp: it may overflow
    values = np.where(m == 0, np.ldexp(1.0 / math.sqrt(FOUR_PI), np.where(m == 0, lift, 0)), values)
    return values, lift


def _check_nodes(x) -> np.ndarray:
    """x as a 1-D float array, checked to lie strictly inside (-1, 1); NaN does not."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.abs(x) < 1.0):
        raise ValueError("nodes must lie strictly inside (-1, 1)")
    return x


def _degree_column(orders: np.ndarray, ell_max: int, x: np.ndarray):
    """Yield the true rows of degree m + j, j = 0..ell_max - min(m), for a column of orders.

    The one pipeline of the degree recurrence: each order's seed is lifted
    per node where it would underflow (:func:`_lifted_seeds`), the rows of
    :func:`_degree_rows` keep their lift up to date as they grow
    (:func:`_rescaled`; both in :func:`_lifted_column`), and each row comes
    scaled back (:func:`_unlifted`).
    ``orders`` has shape (k, 1), and yielded row j holds degree m + j of
    each order m, one line per order; orders past ell_max run on to the
    last step.
    """
    return _unlifted(*_lifted_column(orders, ell_max, x))


def _lifted_column(orders: np.ndarray, ell_max: int, x: np.ndarray):
    """(rows, lift): the rows of :func:`_degree_column` before they are scaled back.

    A row times 2**-lift, with the lift as it stands when the row comes, is
    the true row (:func:`_rescaled`).
    """
    seeds, lift = _lifted_seeds(orders, x)
    return _rescaled(_degree_rows(orders, ell_max, x, seeds), lift, _DEGREE_CHECK_STEPS), lift


def _degree_tables(m_lo: int, m_hi: int, ell_max: int, x: np.ndarray):
    """Yield (m, table) for m = m_lo..m_hi: g-values of degrees m..ell_max at order m.

    Row k of a table holds degree m + k, bit for bit the
    :func:`legendre_row` of that degree.  Consecutive orders run as one
    :func:`_degree_column`, as many at a time as fill
    ``_DEGREE_BLOCK_ENTRIES`` with their tables (at least one).  The rows
    of a block go into one buffer, reused by every block: a table is a
    C-contiguous view into it, which the next block overwrites, so the
    consumer takes each table before asking for the next one.  The
    higher orders of a block run on past ell_max to its last step; those
    rows are not handed over.
    """
    x = _check_nodes(x)
    buffer = np.empty(max(_DEGREE_BLOCK_ENTRIES, (ell_max - m_lo + 1) * x.size))
    m = m_lo
    while m <= m_hi:
        steps = ell_max - m + 1  # rows of order m's table, the block's first
        count = min(m_hi - m + 1, max(1, buffer.size // (steps * x.size)))
        block = buffer[:count * steps * x.size].reshape(count, steps, x.size)
        for step, row in enumerate(_degree_column(np.arange(m, m + count)[:, None], ell_max, x)):
            block[:, step] = row
        for i in range(count):
            yield m + i, block[i, :steps - i]
        m += count


def legendre_row(m: int, ell: int, x) -> np.ndarray:
    """g-values of a single (ell, m) on nodes x, O(1) memory in degree.

    The degree recurrence at order m alone, a column of one order
    (:func:`_lifted_column`) of which only the last row is kept; no order
    band runs it, so the tests check bands against it.  Seeds that would
    underflow are lifted as in an order band (see Underflow in the module
    notes), with no largest lift, and only the last row is scaled back.
    """
    if not 0 <= m <= ell:
        raise ValueError(f"need 0 <= m <= ell, got m={m}, ell={ell}")
    rows, lift = _lifted_column(np.array([[m]]), ell, _check_nodes(x))
    return next(_unlifted(deque(rows, maxlen=1), lift))[0]


def _degree_rows(m: np.ndarray, ell: int, x: np.ndarray, seed: np.ndarray):
    """Yield the rows of degree m + j, j = 0..ell - min(m), from degree-m seeds.

    The one upward recurrence in degree; linear in the seed.  ``m`` is a
    column of orders (shape (k, 1), k seed rows) advancing together;
    order m reaches ell at step ell - m, and higher orders run on past it.
    Each element takes the operations of its order alone, so an order's
    rows do not depend on the other orders of its column.  A generator:
    O(1) rows are held.
    """
    prev = seed
    yield prev
    steps = ell - int(m.min())
    if steps == 0:
        return
    cur = np.sqrt(2 * m + 3) * x * prev
    yield cur
    for a, b in _degree_coefficients(m, steps):
        prev, cur = cur, a * (x * cur - b * prev)
        yield cur


def _degree_coefficients(m: np.ndarray, steps: int):
    """Yield the coefficients (a, b) of steps 2..steps of :func:`_degree_rows`.

    Arrays (k, 1) for a column of orders, computed ``_DEGREE_CHECK_STEPS``
    steps at a time by the same operations element by element; all steps
    at once would hold 2 x 8 bytes per order and step, 4 MB for 501 orders.
    """
    for start in range(2, steps + 1, _DEGREE_CHECK_STEPS):
        deg = m + np.arange(start, min(start + _DEGREE_CHECK_STEPS, steps + 1))[:, None, None]
        yield from zip(np.sqrt((4 * deg * deg - 1.0) / (deg * deg - m * m)),
                       np.sqrt(((deg - 1.0) ** 2 - m * m) / (4.0 * (deg - 1.0) ** 2 - 1.0)))


def _rescaled(rows, lift: np.ndarray, every: int, nodes=None, held=None):
    """Yield the rows of a recurrence on lifted seeds, keeping ``lift`` up to date.

    ``rows`` is :func:`_degree_rows` or a sweep of :func:`_order_rows` after
    its two first rows, and ``lift`` the power of two its seeds carry, one
    per node, or one per (order, node) for a column of orders.  At rows 1,
    1 + every, 1 + 2 every, ..., where either of a node's two latest rows
    has passed 2^``_RESCALE_BITS``, both are scaled down by that power in
    place, so that the recurrence goes on from them, and the node's lift
    drops by as much; so is ``held``, an array kept at the rows' scale
    (Miller's running norm), if given.  A row times 2**-lift, with the lift
    as it stands when the row is yielded, is the true row.  Scaling by a
    power of two is exact.  The nodes checked are ``nodes``, flat indices
    into ``lift``, by default those lifted at the start: the others hold
    true values, below sqrt((2l + 1) / (4 pi)).  The bound after
    ``_RESCALE_BITS`` shows why the check intervals keep every row finite.
    Rows are the fresh arrays of a recurrence step, so their flat
    reshapes are views.
    """
    nodes = np.flatnonzero(lift) if nodes is None else nodes
    flat_lift = lift.reshape(-1)
    for k, row in enumerate(rows):
        if nodes.size and k % every == 1:
            before, now = last.reshape(-1), row.reshape(-1)
            big = nodes[np.maximum(np.abs(before[nodes]), np.abs(now[nodes])) > 2.0**_RESCALE_BITS]
            before[big], now[big] = before[big] * 2.0**-_RESCALE_BITS, now[big] * 2.0**-_RESCALE_BITS
            if held is not None:
                held[big] *= 2.0**-_RESCALE_BITS
            flat_lift[big] -= _RESCALE_BITS
        yield row
        last = row


def _unlifted(rows, lift: np.ndarray):
    """Yield each of the rows times 2**-lift, with the lift as it stands when it comes.

    The nodes lifted at the start are scaled on a copy of the row, since
    the recurrence goes on from the lifted one; with none, rows pass as
    they are.
    """
    lifted = lift != 0
    any_lifted = lifted.any()
    for row in rows:
        yield np.ldexp(row, -lift, out=row.copy(), where=lifted) if any_lifted else row


def radial_rows(ell: int, x) -> np.ndarray:
    """Rows g_ell^m for m = -ell..ell on nodes x: the theta factors of Y_ell^m.

    The order band 0..ell (:func:`_order_band`), swept downward from
    g_ell^ell on every node, O(ell n).  Negative
    orders carry the Condon-Shortley convention g_ell^{-m} = (-1)^m g_ell^m;
    row ell + m holds order m.
    """
    x = _check_nodes(x)
    g = _order_band(ell, 0, ell, x)[0]
    sign = np.where(np.arange(ell, 0, -1) % 2, -1.0, 1.0)[:, None]
    return np.concatenate([sign * g[:0:-1], g])


def _order_rows(ell: int, m: int, step: int, far: np.ndarray, near: np.ndarray,
                cot: np.ndarray):
    """Yield g^{m + step}, g^{m + 2 step}, ... from far = g^{m - step} and near = g^m.

    The three-term relation in order at degree ell,

        sqrt((l - m)(l + m + 1)) g^{m+1} + 2m cot(theta) g^m
            + sqrt((l + m)(l - m + 1)) g^{m-1} = 0,

    solved for g^{m+1} (step = 1, upward) or g^{m-1} (step = -1, downward),
    as -(2m / a) cot g^m - (b / a) g^{m - step} with a and b the square
    roots on the new and the far row: four ufunc calls and two fresh arrays
    a step.  Endless; the caller takes as many rows as it needs.
    """
    while True:
        scale = -1.0 / math.sqrt((ell - step * m) * (ell + step * m + 1.0))
        row = np.multiply(cot, near)
        row *= (2.0 * m) * scale
        row += far * (scale * math.sqrt((ell + step * m) * (ell - step * m + 1.0)))
        yield row
        far, near, m = near, row, m + step


def _upward_rows(ell: int, x: np.ndarray, cot: np.ndarray):
    """Yield g_ell^0, g_ell^1, g_ell^2, ... on nodes x, upward in order; endless.

    The seeds come from Stieltjes' series at degree ell (:func:`_legendre_interior`),
    on theta = arccos |x| <= pi/2 and reflected by parity:

        g_l^0 = sqrt((2l + 1) / (4 pi)) P_l,
        g_l^1 = sqrt((2l + 1) / (4 pi l (l + 1))) dP_l/dtheta.

    Stable only up to the turning point m = (l + 1/2) sin(theta), and only
    where the series reaches 2^-53, which the caller checks (see the module
    notes).
    """
    theta = np.arccos(np.abs(x))
    p, dp = _legendre_interior(ell, theta)
    negative = x < 0
    p[negative] *= (-1) ** ell
    dp[negative] *= (-1) ** (ell + 1)
    below = math.sqrt((2 * ell + 1) / FOUR_PI) * p
    above = math.sqrt((2 * ell + 1) / (FOUR_PI * ell * (ell + 1.0))) * dp
    yield from itertools.chain([below, above], _order_rows(ell, 1, 1, below, above, cot))


def _miller_order(m_hi: int) -> int:
    """The order M at which Miller's sweep (:func:`_miller_rows`) starts.

    M = 2 max(``_SERIES_MIN_RHO_SIN``, m_hi) + 40 (rounded down): past the
    turning point (l + 1/2) sin(theta) of every node that takes the sweep,
    which lies below max(``_SERIES_MIN_RHO_SIN``, m_hi), by at least as much
    again plus 40.  75 for the Gauss rule's rows 0 and 1.
    """
    return int(2 * max(_SERIES_MIN_RHO_SIN, m_hi)) + 40


def _miller_rows(ell: int, m_lo: int, m_hi: int, cot: np.ndarray) -> np.ndarray:
    """g_ell^m for m = m_lo..m_hi (rows) by Miller's backward sweep in order.

    The relation in order (:func:`_order_rows`) runs down from g^{M+1} = 0,
    g^M = 1, M = :func:`_miller_order` (m_hi), to m = 0 (Gautschi, SIAM
    Rev. 9 (1967)): past the turning point the true rows grow downward, so
    the sweep follows them, and the component of the other solution that
    the start brings in dies away.  The addition theorem,
    g^0^2 + 2 sum_{m>=1} g^m^2 = (2l + 1)/(4 pi), fixes the scale.  On
    x > 0, g^M has no zero past its turning point and the sign (-1)^M
    (Condon-Shortley).  On x < 0 the sweep runs with cot(theta) < 0, whose
    rows are (-1)^(M-m) those at |x|, so that sign and the parity
    (-1)^(l+m) come to one sign, (-1)^l.  Every node is checked for growth
    (:func:`_rescaled`); the running root of the sum, taken by hypot, is
    scaled with the rows, and each kept row is scaled to the sweep's final
    power of two once, together with the normalization.  M steps per node,
    whatever l; for nodes whose turning point lies below
    max(``_SERIES_MIN_RHO_SIN``, m_hi), which the caller checks.
    """
    big_m = _miller_order(m_hi)
    top, above = np.ones_like(cot), np.zeros_like(cot)
    lift = np.zeros(cot.size, dtype=int)
    norm = np.zeros_like(cot)  # sqrt(sum_{m>=1} g^m^2) so far, at the rows' scale
    sweep = itertools.chain([above, top], _order_rows(ell, big_m, -1, above, top, cot))
    rows = _rescaled(sweep, lift, _ORDER_CHECK_STEPS, np.arange(cot.size), norm)
    next(rows)  # g^{M+1}
    kept = np.empty((m_hi - m_lo + 1, cot.size))
    kept_lift = np.empty(kept.shape, dtype=int)
    for m, row in zip(range(big_m, -1, -1), rows):
        if m_lo <= m <= m_hi:
            kept[m - m_lo], kept_lift[m - m_lo] = row, lift
        if m:
            np.hypot(norm, row, out=norm)
    total = np.hypot(row, math.sqrt(2.0) * norm)  # row is g^0
    sign = np.where(cot < 0, (-1.0) ** ell, (-1.0) ** big_m)
    fraction, exponent = np.frexp(sign * math.sqrt((2 * ell + 1) / FOUR_PI) / total)
    # kept * fraction * 2^(lift - kept_lift + exponent), formed in place
    kept *= fraction
    np.subtract(lift, kept_lift, out=kept_lift)
    kept_lift += exponent
    return np.ldexp(kept, kept_lift, out=kept)


def _order_band(ell: int, m_lo: int, m_hi: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g_ell^m for m = m_lo..m_hi (rows) on nodes x, by the relation in order alone.

    Returns (values, underflow), the latter marking the nodes where the
    sectoral seed of m_hi is below the smallest normal double
    (:func:`_top_seed_underflows`); the band itself runs no degree
    recurrence.  The table of :func:`_band_sweeps`: each row goes straight
    into the one output array as its sweep gives it.
    """
    out = np.empty((m_hi - m_lo + 1, x.size))
    for nodes, orders, rows in _band_sweeps(ell, m_lo, m_hi, x):
        for m, row in zip(orders, rows):
            out[m - m_lo, nodes] = row
    return out, _top_seed_underflows(m_hi, x)


def _top_seed_underflows(m_hi: int, x: np.ndarray) -> np.ndarray:
    """Where the sectoral seed of m_hi is below the smallest normal double.

    That is, where the degree recurrence of the top order would start from
    an underflowing seed, whatever route the band takes at the node.
    """
    return _seed_log_magnitude(m_hi, x) < _LOG_TINY


def _band_sweeps(ell: int, m_lo: int, m_hi: int, x: np.ndarray):
    """Yield (nodes, orders, rows) for each sweep of the band m_lo..m_hi on nodes x.

    ``nodes`` masks the nodes of x that take the sweep, and ``rows`` gives
    g_ell^m on them for each m of ``orders`` in turn, as the sweep finishes
    it: from m_lo up on upward nodes, from m_hi down on downward nodes.
    Miller's sweep is normalized only once it reaches m = 0, so its rows
    come as one block, from m_lo up.  Each node takes one of three sweeps
    (see the module notes).  A node is oscillatory where (l + 1/2) sin(theta) >=
    max(``_SERIES_MIN_RHO_SIN``, m_hi).  In a band that sweeping up from
    m = 0 makes cheaper, m_hi + ``_SERIES_COST_STEPS`` < l - m_lo, an
    oscillatory node sweeps upward (:func:`_upward_rows`).  In a band where
    Miller's start lies below l - m_lo, M = :func:`_miller_order` (m_hi) <
    l - m_lo, every other node takes Miller's sweep down from M
    (:func:`_miller_rows`).  The remaining nodes sweep downward from
    g_l^{l+1} = 0 and the sectoral seed g_l^l; where that seed would
    underflow, the node's rows carry a power of two that the sweep keeps up
    to date, and each row is scaled back as it comes.  The consumer takes
    each sweep's rows before asking for the next sweep; only Miller's
    block, r rows on its nodes, is held whole.
    """
    sin = np.sqrt((1.0 - x) * (1.0 + x))  # the seeds' sin^2 (module notes)
    cot = x / sin
    oscillatory = (ell + 0.5) * sin >= max(_SERIES_MIN_RHO_SIN, m_hi)
    up = oscillatory & (m_hi + _SERIES_COST_STEPS < ell - m_lo)
    miller = ~oscillatory & (_miller_order(m_hi) < ell - m_lo)
    down = ~(up | miller)
    ascending = range(m_lo, m_hi + 1)
    if up.any():
        yield up, ascending, itertools.islice(_upward_rows(ell, x[up], cot[up]), m_lo, None)
    if miller.any():
        yield miller, ascending, _miller_rows(ell, m_lo, m_hi, cot[miller])
    if down.any():
        top, lift = _lifted_seeds(ell, x[down])
        above = np.zeros_like(top)  # g_l^{l+1}
        sweep = itertools.chain([above, top], _order_rows(ell, ell, -1, above, top, cot[down]))
        rows = itertools.islice(_rescaled(sweep, lift, _ORDER_CHECK_STEPS), ell + 1 - m_hi, None)
        yield down, range(m_hi, m_lo - 1, -1), _unlifted(rows, lift)


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
    So must their sines: within ~1e-8 of +-pi/2, sin(theta) rounds to +-1,
    a pole, and such a node is refused like one at +-pi/2.
    Each node sweeps in order, with no degree recurrence: upward from the
    interior series, O(36 + m_hi) at most, where every order is oscillatory
    at it and the band is one for which that is cheaper; elsewhere by Miller's
    method from M = 2 max(17.7, m_hi) + 40, O(M), in a band for which
    M < ell - m_lo; and otherwise downward from the sectoral seed
    g_ell^ell, O(ell - m_lo); see the module notes for the three routes.
    A downward node whose seed falls below the double range sweeps the same
    way, its rows carrying a power of two (Underflow in the module notes).  ``underflow_nodes`` counts the nodes where the seed of the top
    order m_hi underflows: a diagnostic of how far the band reaches into
    the poles' forbidden zone, not of a route taken.
    """
    if not 0 <= m_lo <= m_hi <= ell:
        raise ValueError(
            f"need 0 <= m_lo <= m_hi <= ell, got ({m_lo}, {m_hi}) at ell={ell}"
        )
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if not np.all(np.abs(thetas) < math.pi / 2):
        raise ValueError("band nodes must satisfy |theta| < pi/2")
    values_g, underflow = _order_band(ell, m_lo, m_hi, _check_nodes(np.sin(thetas)))
    values_v = np.sqrt(np.cos(thetas)) * values_g
    return RadialTable(ell, m_lo, m_hi, thetas, values_v, values_g,
                       int(np.count_nonzero(underflow)))


# ---------------------------------------------------------------------------
# Closed forms at the equator
# ---------------------------------------------------------------------------

def normalized_at_zero(ell, m) -> tuple[np.ndarray, np.ndarray]:
    """v_ell^m(0) and (v_ell^m)'(0), bounded for all desk-scale (ell, m).

    Vectorized over (ell, m), which broadcast to arrays of at least one
    dimension, scalars included.  With a = floor((l + m) / 2) and b = a - m,
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
    return value, deriv


# ---------------------------------------------------------------------------
# Quadrature grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereGrid:
    """Gauss colatitude rule plus equispaced azimuth.

    ``nodes`` are the rule's own nodes x = cos(theta), descending as
    ``theta_nodes`` ascend, and exactly antisymmetric, which cos of the
    ``theta_nodes`` is only to ~3e-16.  ``theta_weights`` absorb the
    sin(theta) area factor: sum_i w_i f(theta_i) approximates
    int_0^pi f sin(theta) dtheta, exactly so whenever f is a polynomial of
    degree <= ``degree`` in u = cos(theta).  The azimuthal
    trapezoid rule is exact on modes e^{ik phi} with |k| < n_phi.
    """

    theta_nodes: np.ndarray
    nodes: np.ndarray
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


# The first 20 zeros of J_0 (scipy.special.jn_zeros(0, 20), bit for bit):
# the Bessel-zero guesses of the Newton rule's outermost nodes per half
_J0_ZEROS = np.array([
    2.4048255576957724, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
    27.493479132040253, 30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815, 49.482609897397815,
    52.624051841115, 55.76551075501998, 58.90698392608094, 62.048469190227166,
])
_J0_ZEROS.setflags(write=False)


def _series_reach() -> np.ndarray:
    """Entry M - 1: the least rho sin(theta) at which M terms of the interior series reach 2^-53.

    The remainder after M terms of :func:`_legendre_interior` is below
    twice the first omitted term taken at full size (Szegő's bound, as used
    by Hale & Townsend).  Relative to the leading term that is
    2 prod_{j<=M} (j - 1/2)^2 / (2 j (n + j + 1/2) sin theta), at most
    B_M(x) = 2 prod_{j<=M} (j - 1/2)^2 / (2 j x) with x = rho sin(theta),
    rho = n + 1/2, for every n; entry M - 1 is the x with B_M(x) = 2^-53,
    for M = 1..99.  It falls with M to 17.7 at M = 36, past the fifth zero
    of J_0, and rises after.
    """
    log_b = math.log(2.0)
    reach = []
    for m in range(1, 100):
        log_b += math.log((m - 0.5) ** 2 / (2.0 * m))
        reach.append(math.exp((log_b + 53.0 * _LN2) / m))
    return np.array(reach)


_SERIES_REACH = _series_reach()
_SERIES_REACH.setflags(write=False)
# The most terms the interior series takes, and the least rho sin(theta) it
# serves: 36 and 17.7
_SERIES_TERMS = int(np.argmin(_SERIES_REACH)) + 1
_SERIES_MIN_RHO_SIN = float(_SERIES_REACH.min())
# What the interior series costs at one degree, with both seeds of an
# upward band, in steps of the degree recurrence on the same nodes: measured
# 57 to 73 at l = 400, 1600 and 10000 on 1001 nodes with all 36 terms
# summed forward (flat in l: C_n is a table lookup); a step of the downward
# order sweep, which the upward route saves, costs about as much.  Sized and
# by Horner it costs 44 to 46 steps down to the floor and 19 to 22 on a
# case-"inf" WKB interval (6 to 8 terms); the constant is kept, and with it
# every band's routes
_SERIES_COST_STEPS = 70


def _series_terms(rho_sin: float) -> int:
    """Fewest terms of the interior series that reach 2^-53 where rho sin(theta) >= rho_sin.

    At most ``_SERIES_TERMS``, which nodes at the series' floor
    ``_SERIES_MIN_RHO_SIN`` take: 8 terms from rho sin(theta) = 135, 7 from
    227, and 6 from 467.
    """
    reached = np.flatnonzero(_SERIES_REACH[:_SERIES_TERMS] <= rho_sin)
    return int(reached[0]) + 1 if reached.size else _SERIES_TERMS


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

    with C_n from :func:`_series_constant` (Hale & Townsend, SIAM J. Sci.
    Comput. 35 (2013), section 3).  M is the fewest terms that reach 2^-53
    of the leading term at the call's smallest (n + 1/2) sin(theta)
    (:func:`_series_terms`), which must be at least ``_SERIES_MIN_RHO_SIN``:
    36 there, and 8 or fewer from 135 on, such as on the WKB intervals of a
    case-"inf" window, which end ~8r/l from the poles.  Term m is the real
    part of z_m = h_m z_0 w^m, z_0 = e^{i alpha_0} / sqrt(2 sin theta),
    w = (1 - i cot theta)/2, so with T = sum_m h_m w^m and
    W = sum_m m h_m w^m, both by Horner in w in place,
    P_n = C_n Re(z_0 T) and
    dP_n/dtheta = -C_n (rho Im(z_0 T) + Im(z_0 W) + cot theta Re(z_0 (W + T/2))).
    The phase rho theta, rho = n + 1/2, enters as one product.  The Gauss
    rule keeps it exact, since its rounding would move a node by 2^-53
    theta.  At an arbitrary node, such as an order band's upward route
    takes, it is rounded: up to ~rho theta 2^-53 of the amplitude, the
    same conditioning that P_n has in theta.
    """
    rho = n + 0.5
    sin = np.sin(theta)
    cot = np.cos(theta) / sin
    terms = _series_terms(rho * float(sin.min(initial=math.inf)))
    h = [1.0]
    for m in range(1, terms):
        h.append(h[-1] * ((m - 0.5) ** 2 / (m * (n + m + 0.5))))
    w = 0.5 - 0.5j * cot
    total = np.full(theta.shape, complex(h[-1]))  # T, by Horner
    weighted = np.full(theta.shape, complex((terms - 1) * h[-1]))  # W / w, likewise
    for m in range(terms - 2, -1, -1):
        total *= w
        total += h[m]
        if m:
            weighted *= w
            weighted += m * h[m]
    weighted *= w
    z = np.exp(1j * (rho * theta)) * (complex(1.0, -1.0) / np.sqrt(4.0 * sin))
    total *= z
    weighted *= z
    c_n = _series_constant(n)
    p = c_n * total.real
    dp = -c_n * (rho * total.imag + weighted.imag + cot * (weighted.real + 0.5 * total.real))
    return p, dp


def _newton_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule by one Newton step in theta, for n > 75; O(n).

    Half the nodes, theta in (0, pi/2], start from asymptotic guesses (Hale
    & Townsend, SIAM J. Sci. Comput. 35 (2013)): Tricomi's expansion in the
    interior, Olver's Bessel-zero expansion (from ``_J0_ZEROS``) for the 20
    outermost nodes.  Each guess is rounded to a multiple of a power of two
    q for which (n + 1/2) theta is exact.  P_n and dP_n/dtheta at the guess
    come from :func:`_legendre_interior`, except at the nodes with
    (n + 1/2) sin(theta) below ``_SERIES_MIN_RHO_SIN`` (five per half),
    which take rows 0 and 1 of Miller's sweep in order (:func:`_miller_rows`),
    M = 75 steps whatever n.  That sweep runs at degree n down from order M,
    so it needs M < n, which sets the rule's smallest n
    (``_NEWTON_RULE_MIN``).  The Legendre equation gives the higher
    derivatives,

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
    psi = _J0_ZEROS[:half] / rho
    theta[:psi.size] = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * rho**2)
    if n % 2:
        theta = np.append(theta, math.pi / 2)  # the middle node, x = 0
    # a multiple of q below 2 is q times an integer below 2^53 / (2n + 1),
    # so rho * theta = (2n + 1) * integer * q / 2 is a double
    q = math.ldexp(1.0, math.frexp(2 * n + 1)[1] - 52)
    theta = np.round(theta / q) * q
    sin, cos = np.sin(theta), np.cos(theta)
    cot = cos / sin
    near_pole = rho * sin < _SERIES_MIN_RHO_SIN
    p, dp = np.empty_like(theta), np.empty_like(theta)
    p[~near_pole], dp[~near_pole] = _legendre_interior(n, theta[~near_pole])
    # g_n^0 = sqrt((2n + 1) / (4 pi)) P_n, g_n^1 = that / sqrt(n (n + 1)) dP_n/dtheta
    g = _miller_rows(n, 0, 1, cot[near_pole])
    scale = math.sqrt((2 * n + 1) / FOUR_PI)
    p[near_pole], dp[near_pole] = g[0] / scale, g[1] * (math.sqrt(n * (n + 1.0)) / scale)
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


# Rules from this size on are Newton rules: the Miller sweep of their
# boundary nodes starts at order M = 75 of degree n, and needs M < n
_NEWTON_RULE_MIN = _miller_order(1) + 1


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_{n-1} and P_n on nodes x, for n >= 1, as scipy's ``eval_legendre`` gives them.

    The recurrence of scipy's integer-degree evaluation, on P_k and
    d = P_k - P_{k-1}, in its order of operations, so that the values are
    scipy's bit for bit wherever |x| >= 1e-5 (scipy takes a series below):

        d = ((2k + 1) / (k + 1)) (x - 1) P_k + (k / (k + 1)) d,
        P_{k+1} = d + P_k.

    O(n) per node; only :func:`_jacobi_rule` runs it.
    """
    below, p, d = np.ones_like(x), x.copy(), x - 1.0
    for k in range(1, n):
        d = ((2.0 * k + 1.0) / (k + 1.0)) * (x - 1.0) * p + (k / (k + 1.0)) * d
        below, p = p, d + p
    return below, p


def _jacobi_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule for n below ``_NEWTON_RULE_MIN``, as scipy builds it.

    scipy's ``roots_legendre`` (Golub & Welsch, Math. Comp. 23 (1969)),
    step for step in numpy: the eigenvalues of the Jacobi matrix, with
    off-diagonal k sqrt(1 / (4k^2 - 1)), from ``eigvalsh`` (on x86
    OpenBLAS bit for bit the values of scipy's banded solver at every
    n <= 1000); one Newton step by :func:`_legendre_pair`; weights
    1 / (P_{n-1} P'_n), each factor first divided by the geometric middle of
    its range; nodes and weights symmetrized, and the weights scaled to sum
    to 2.  The middle node of an odd rule falls in scipy's |x| < 1e-5
    series branch, which reads P_{n-1}(0) off a beta function; here it is
    the exactly rounded (-1)^a C(2a, a) / 4^a, a = (n - 1) / 2.  So an even
    rule is scipy's bit for bit, and an odd one has its nodes, and its
    weights within 5.0 2^-52 relative.  The accuracy is scipy's: against
    30-digit mpmath, over every n <= 75, the nodes are within 1.7e-16 and
    the weights within 5.6e-12 (n = 69).  O(n^2) time and memory.
    """
    k = np.arange(1.0, n)
    off = k * np.sqrt(1.0 / (4.0 * k * k - 1.0))
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    below, p = _legendre_pair(n, x)
    dp = (-n * x * p + n * below) / (1 - x**2)
    middle = n // 2
    if n % 2:  # P_{n-1}(0), and P'_n(0) = n P_{n-1}(0); no Newton step
        central = (-1) ** (middle % 2) * (math.comb(2 * middle, middle) / 4**middle)
        p[middle], dp[middle] = 0.0, n * central
    x -= p / dp
    below = _legendre_pair(n, x)[0]
    if n % 2:
        below[middle] = central
    log_below, log_dp = np.log(np.abs(below)), np.log(np.abs(dp))
    below /= np.exp((log_below.max() + log_below.min()) / 2.0)
    dp /= np.exp((log_dp.max() + log_dp.min()) / 2.0)
    w = 1.0 / (below * dp)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


@lru_cache(maxsize=128)
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Two routes, both numpy alone.  Below ``_NEWTON_RULE_MIN`` = 76,
    :func:`_jacobi_rule`, scipy's ``roots_legendre`` replicated: bit for bit
    at even n, and at odd n the nodes bit for bit and the weights within
    5.0 2^-52 relative.  The Nystrom rules of schatten_lab feed singular
    values at the roundoff floor, which move with a 1-ulp change of a
    weight: numpy's more accurate ``leggauss`` in place of the small rules
    moved the recorded sigma_8 and sigma_9 of the dense rung (~4e-8 and
    ~9e-9) by 0.25%, so small rules keep scipy's output.  From n = 76 on,
    :func:`_newton_rule`; the switch is set by its boundary nodes' Miller
    sweep, which starts at M = :func:`_miller_order` (1) = 75.
    The Jacobi rule costs O(n^2), the Newton rule O(n): 30 series terms a
    node (its least (n + 1/2) sin(theta) is the sixth zero of J_0, 18.07),
    plus 75 steps of Miller's sweep on five nodes per half.  On a
    2-core x86 box a Newton rule takes ~0.5 ms at n = 1000, and 0.9, 1.4,
    2.4 and 4.5 ms at n = 6400, 12800, 25600 and 51200, and 0.05 s at 4e5
    (best of 20, and of 3 at 4e5; 1.2, 1.7, 2.9, 5.6 ms and 0.08 s with all
    36 terms summed forward), where two sweeps of the n-step recurrence at
    every node (the O(n^2) route, kept as a test oracle) take 0.16, 0.49,
    1.7 and 6.8 s.
    Every Newton rule from n = 76 to 1000 is monotone and symmetric, with
    weights summing to 2 within 1e-14.  Against 30-digit mpmath at n = 76,
    77, 100, 256, 301, 306, 564, 999 and 1000 (the nine nodes sampled as
    below), its nodes are within 1.1e-16 and its weights within 1.6e-15,
    where scipy's weights are off by 4.9e-12 at n = 76 and 1.8e-8 at
    n = 1000.  Against 30-digit mpmath at n = 1001, 4096, 9600, 20000,
    25600 and 51200 (the five boundary nodes of one half and two of the
    other, both sides of the series switch, three interior nodes), the
    nodes are within 1.1e-16 absolute and the weights within 1.4e-15
    relative.  At the boundary nodes the weights are within 6.7e-16 at
    n = 1001, 4.4e-16 at 4096, 7.8e-16 at 9600, 4.4e-16 at 20000 and
    2.2e-16 at 25600 and 51200 (by the n-step recurrence there: 4.7e-15,
    1.2e-14, 1.3e-14, 3.0e-14, 2.1e-14 and 3.2e-14); the series nodes stay
    within 1.4e-15.  scipy's end weights are off by 4e-9 at n = 1001 and by
    up to 5.9e-6 at n = 9600, from cancellation in 1 - x^2.
    """
    rule = _jacobi_rule if n < _NEWTON_RULE_MIN else _newton_rule
    nodes, weights = rule(n)
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
    nodes = u[::-1].copy()
    return SphereGrid(np.arccos(nodes), nodes, w[::-1].copy(), n_phi, 2 * n_theta - 1)


# ---------------------------------------------------------------------------
# Spectral counting
# ---------------------------------------------------------------------------

def weyl_count(lam: float) -> int:
    """Number of spherical-harmonic eigenvalues l(l+1) strictly below lam^2.

    Equals (L+1)^2 with L the largest admissible degree; grows like lam^2
    with unit leading coefficient.  The test l(l+1) < lam^2 runs exactly,
    in integers, as l(l+1) den^2 < num^2 with lam = num / den.  In floats,
    lam * lam underflows to 0 below lam ~ 1.5e-162, where degree 0 still
    counts, and can round onto l(l+1) where lam lies just above
    sqrt(l(l+1)).
    """
    if not 0 <= lam < math.inf:
        raise ValueError("lam must be finite and >= 0")
    num, den = float(lam).as_integer_ratio()
    L = int(lam)  # (L + 1)(L + 2) > lam^2 from here on
    while L >= 0 and L * (L + 1) * den * den >= num * num:
        L -= 1
    return (L + 1) ** 2


def cluster_rank(lam: float) -> tuple[list[int], int]:
    """Degrees with lam^2 <= l(l+1) < (lam+1)^2, and their total multiplicity."""
    if not 1 <= lam < math.inf:
        raise ValueError("lam must be finite and >= 1")
    lo, hi = lam * lam, (lam + 1.0) ** 2
    first = max(0, int(math.floor(lam)) - 2)
    last = int(math.ceil(lam)) + 2
    ells = [ell for ell in range(first, last + 1) if lo <= ell * (ell + 1) < hi]
    return ells, sum(2 * ell + 1 for ell in ells)
