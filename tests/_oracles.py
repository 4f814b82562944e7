"""Independent reference computations used to freeze expected values.

Everything here deliberately avoids the library code path it checks:
the associated Legendre recurrence runs in 50-digit mpmath arithmetic,
the closed-form action is checked against its plain antiderivative in
40-digit mpmath, P_n comes from the n-step degree recurrence (the
library's Gauss rule takes Stieltjes' series, and Miller's sweep in order
next to the poles), the all-node Gauss rule runs that recurrence at every
node, the associated Legendre rows of one order run the recurrence in
degree (the library sweeps in order only), the interior series is summed
forward over all its 36 terms, the action integral is a brute-force
composite Simpson rule, the profile integrals run one Gauss panel at a
time in a Python loop, the equator anchors of the column of degrees are
checked one order at a time, and the projector spectrum comes from the
dense addition-theorem kernel on the mesh.
Frozen literals in the tests were produced by these functions; rerun
them to re-derive any of the constants.

Three WKB routes have no caller in the library: the closed-form Q' and
Q'', the error functional E by scipy's adaptive ``quad`` (the reference
for the profiles' per-interval Gauss panel sums), and the closed-form
defect -y'' + Q y of the approximant.  The window's Q bounds, read at the
window's corners by the library, are checked against Q sampled over every
order and 129 angles of the case interval.

Two dense routes are the references for the library's structured ones.
``ylm_matrix`` expands every Y_l^m on the mesh from the library's
``radial_rows`` (themselves tested against mpmath): the reference for the
FFT routes in phi, the cluster Gram and the random cluster density.
``singular_values`` takes the spectrum of a dense matrix through its
smaller Gram: the reference for the Gram blocks of the oscillatory
models.
"""

import collections
import math

import numpy as np


def normalized_legendre_mp(m: int, ell: int, x, dps: int = 50):
    """Fully normalized associated Legendre value in mpmath arithmetic."""
    import mpmath as mp

    with mp.workdps(dps):
        xx = mp.mpf(x)
        seed = ((-1) ** m * mp.sqrt((2 * m + 1) / (4 * mp.pi))
                * mp.sqrt(mp.factorial(2 * m)) / (2**m * mp.factorial(m))
                * (1 - xx * xx) ** (mp.mpf(m) / 2))
        if ell == m:
            return seed
        prev, cur = seed, mp.sqrt(2 * m + 3) * xx * seed
        for deg in range(m + 2, ell + 1):
            a = mp.sqrt((4 * deg * deg - 1) / mp.mpf(deg * deg - m * m))
            b = mp.sqrt(((deg - 1) ** 2 - m * m) / mp.mpf(4 * (deg - 1) ** 2 - 1))
            prev, cur = cur, a * (xx * cur - b * prev)
        return cur


def gauss_legendre_node_mp(n: int, x0: float, dps: int = 30):
    """Gauss-Legendre node next to x0 and its weight, in mpmath arithmetic.

    Two Newton steps on P_n from a double-precision x0 (already within
    ~1e-16 of the node); the weight is then 2 (1 - x^2) / (n P_{n-1}(x))^2.
    One step is not enough near x = +-1: there the quadratic constant of
    Newton's method grows like n^2 / (1 - x), one step left x ~5e-26 off
    at the outermost node for n = 20000, and the weight formula, which is
    not stationary in x, turned that into a relative error of 1.5e-13.
    Returns (node, weight) as mpf.
    """
    import mpmath as mp

    def recurrence(x):
        prev, cur = mp.mpf(1), x
        for k in range(1, n):
            prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
        return prev, cur

    with mp.workdps(dps):
        x = mp.mpf(x0)
        for _ in range(2):
            p_prev, p_n = recurrence(x)
            x -= p_n * (x * x - 1) / (n * (x * p_n - p_prev))
        p_prev, _ = recurrence(x)
        return x, 2 * (1 - x * x) / (n * p_prev) ** 2


def legendre_theta_recurrence(n: int, theta):
    """P_n(cos theta) and dP_n/dtheta by the n-step three-term recurrence.

    Reinsch's form: the recurrence runs on P_k and E_k = k (P_k - P_{k-1})
    with d = 1 - cos theta = 2 sin^2(theta/2), so that near the poles it
    sees theta itself, not a cos(theta) rounded to the spacing of doubles
    near 1:

        E_{k+1} = E_k - (2k+1) d P_k,    P_{k+1} = P_k + E_{k+1} / (k+1),

    then dP_n/dtheta = (E_n - n d P_n) / sin(theta).  O(n) per node; the
    reference for the library's interior series and for Miller's sweep.
    """
    d = 2.0 * np.sin(0.5 * theta) ** 2
    p, e = 1.0 - d, -d
    for k in range(1, n):
        e = e - (2 * k + 1) * (d * p)
        p = p + e / (k + 1)
    return p, (e - n * d * p) / np.sin(theta)


def legendre_interior_forward(n: int, theta):
    """P_n(cos theta) and dP_n/dtheta from all 36 terms of Stieltjes' series, summed forward.

    The terms z_m = h_m z_0 w^m are formed one from the next and added in
    increasing m, whatever the nodes: the reference for the library's
    series, which takes only the terms its nodes need, by Horner in w.
    """
    from sclab import sphere_basis as sb

    rho = n + 0.5
    sin = np.sin(theta)
    cot = np.cos(theta) / sin
    w = 0.5 - 0.5j * cot
    z = np.exp(1j * (rho * theta)) * (complex(1.0, -1.0) / np.sqrt(4.0 * sin))
    total = z.copy()  # sum of z_m
    weighted = np.zeros_like(z)  # sum of m z_m
    h = 1.0
    for m in range(1, 36):
        h *= (m - 0.5) ** 2 / (m * (n + m + 0.5))
        z = z * w
        total = total + h * z
        weighted = weighted + (m * h) * z
    c_n = sb._series_constant(n)
    p = c_n * total.real
    dp = -c_n * (rho * total.imag + weighted.imag + cot * (weighted.real + 0.5 * total.real))
    return p, dp


def gauss_legendre_recurrence_rule(n: int):
    """Gauss-Legendre rule (ascending nodes, weights) with P_n by recurrence.

    Newton in theta from the same Tricomi and Bessel-zero guesses as
    ``sphere_basis._newton_rule``, but with two full sweeps of
    ``legendre_theta_recurrence`` at every node, so O(n^2): the all-node
    oracle for the O(n) rule.  After the first sweep the second Newton step
    is below the rounding of theta and is folded into x to first order; the
    weights are 2 / (dP_n/dtheta)^2 from the last sweep.
    """
    from scipy.special import jn_zeros

    half = n // 2
    rho = n + 0.5
    phi = (np.arange(1, half + 1) - 0.25) * math.pi / rho
    theta = np.arccos((1.0 - (n - 1.0) / (8.0 * n**3)
                       - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4)) * np.cos(phi))
    psi = jn_zeros(0, min(half, 20)) / rho
    theta[:psi.size] = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * rho**2)
    if n % 2:
        theta = np.append(theta, math.pi / 2)
    p, dp = legendre_theta_recurrence(n, theta)
    step = p / dp
    if n % 2:
        step[-1] = 0.0
    theta -= step
    p, dp = legendre_theta_recurrence(n, theta)
    x = np.cos(theta[:half]) + np.sin(theta[:half]) * (p[:half] / dp[:half])
    w = 2.0 / dp**2
    nodes = np.concatenate([-x, [0.0] if n % 2 else [], x[::-1]])
    weights = np.concatenate([w[:half], w[half:], w[:half][::-1]])
    return nodes, weights


def action_simpson(ell: int, m: int, theta: float, n: int = 1_000_001) -> float:
    """Composite Simpson value of int_0^theta sqrt(-Q) with ~1e6 points."""
    t = np.linspace(0.0, theta, n)
    q = (m * m - 0.25) / np.cos(t) ** 2 - 0.25 - ell * (ell + 1.0)
    f = np.sqrt(-q)
    h = t[1] - t[0]
    return float(h / 3 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum()))


def action_mp(ell: int, m: int, theta: float, dps: int = 40):
    """S_{l,m}(theta) = int_0^theta sqrt(-Q) in mpmath arithmetic, as an mpf.

    The antiderivative in its plain form, with a = l + 1/2, b^2 = m^2 - 1/4
    and kappa = sqrt(a^2 cos^2(theta) - b^2):

        S = a atan2(a sin, kappa) - b atan2(b sin, kappa)      (m >= 1),
        S = a atan2(a sin, kappa) + artanh(sin / (2 kappa)) / 2     (m = 0).

    Its terms cancel to ~(a - b) / a, which at dps digits still leaves
    ~dps - log10(l^2) of them.  ``theta`` is taken as the double it is.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.mpf(ell) + mp.mpf(1) / 2
        b_sq = mp.mpf(m) ** 2 - mp.mpf(1) / 4
        t = mp.mpf(theta)
        sin, cos = mp.sin(t), mp.cos(t)
        kappa = mp.sqrt(a * a * cos * cos - b_sq)
        head = a * mp.atan2(a * sin, kappa)
        if m == 0:
            return head + mp.atanh(sin / (2 * kappa)) / 2
        b = mp.sqrt(b_sq)
        return head - b * mp.atan2(b * sin, kappa)


def profile_integrals_loop(ell: int, m: int, positive_thetas):
    """S and E from 0 along an ascending grid that starts at 0.

    One 16-point Gauss panel per grid interval, evaluated and accumulated
    one interval at a time in a Python loop, with Q, Q' and Q'' written out
    here in closed form.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    coef = m * m - 0.25

    def integrands(t):
        c, s = np.cos(t), np.sin(t)
        q = coef / c**2 - 0.25 - ell * (ell + 1.0)
        q1 = coef * 2.0 * s / c**3
        q2 = coef * (2.0 / c**2 + 6.0 * s**2 / c**4)
        return np.sqrt(-q), np.abs(q2 - 1.25 * q1 * q1 / q) / (8.0 * np.abs(q) ** 1.5)

    s_out = np.zeros(len(positive_thetas))
    e_out = np.zeros(len(positive_thetas))
    s_total = e_total = 0.0
    for i in range(1, len(positive_thetas)):
        a, b = positive_thetas[i - 1], positive_thetas[i]
        half = 0.5 * (b - a)
        f_s, f_e = integrands(0.5 * (a + b) + half * nodes)
        s_total += half * float(np.dot(f_s, weights))
        e_total += half * float(np.dot(f_e, weights))
        s_out[i], e_out[i] = s_total, e_total
    return s_out, e_out


def double_factorial(n: int) -> int:
    out = 1
    for k in range(n, 0, -2):
        out *= k
    return out


def projector_kernel_eigs(lam: float, w_samples, grid) -> np.ndarray:
    """Descending eigenvalues of W Pi W through the addition-theorem kernel.

    Builds sqrt(w) W K W sqrt(w) with K(x, y) = sum_l (2l+1)/(4 pi)
    P_l(x . y) over the cluster degrees: the dense mesh route that the
    cluster Gram reduction of ``schatten_lab.projector_gram`` must match.
    """
    from sclab.sphere_basis import cluster_rank

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


def ylm_matrix(ells, grid):
    """Columns Y_l^m on the flattened theta-major (theta, phi) mesh.

    Returns (matrix, labels, weights): matrix has shape
    (n_theta * n_phi, sum(2l+1)), labels is the list of (ell, m) pairs in
    column order (degree-major, m = -l..l), and weights are the matching
    surface weights.
    """
    from sclab.sphere_basis import radial_rows

    x = np.cos(grid.theta_nodes)
    columns, labels = [], []
    for ell in ells:
        for m, g in zip(range(-ell, ell + 1), radial_rows(ell, x)):
            columns.append(np.outer(g, np.exp(1j * m * grid.phi_nodes)).ravel())
            labels.append((ell, m))
    return np.stack(columns, axis=1), labels, grid.surface_weights()


def singular_values(matrix) -> np.ndarray:
    """Descending singular values of a dense matrix through its smaller Gram.

    The eigenvalues of M M^H or M^H M, whichever is the smaller square,
    clipped at 0 and square-rooted.
    """
    n_rows, n_cols = matrix.shape
    if n_rows <= n_cols:
        gram = matrix @ matrix.conj().T
    else:
        gram = matrix.conj().T @ matrix
    return np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))[::-1]


def _degree_recurrence(m: int, ell: int, x):
    """Yield (row, lift) for l = m..ell: g_l^m on nodes x is row * 2**-lift.

    The three-term recurrence in degree at the one order m,

        g_{m+1}^m = sqrt(2m + 3) x g_m^m,
        g_l^m = a (x g_{l-1}^m - b g_{l-2}^m),
        a = sqrt((4l^2 - 1) / (l^2 - m^2)),
        b = sqrt(((l - 1)^2 - m^2) / (4 (l - 1)^2 - 1)),

    from the library's sectoral seed, lifted where it would underflow
    (``sphere_basis._lifted_seeds``).  Lifted nodes are checked every 32
    steps: where either of the two latest rows has passed 2^512, both are
    scaled down by that power and the lift drops by as much (a step
    multiplies a row by at most 1.6 sqrt(m + 3) < 2^8 for l <= 1e4).  The
    library sweeps in order only; this is the per-order reference that
    its bands and its column of degrees are checked against.  O(1) rows
    are held, and ``lift`` is updated in place.
    """
    from sclab import sphere_basis as sb

    if not 0 <= m <= ell:
        raise ValueError(f"need 0 <= m <= ell, got m={m}, ell={ell}")
    x = sb._check_nodes(x)
    row, lift = sb._lifted_seeds(m, x)
    lifted = np.flatnonzero(lift)
    below = None
    for degree in range(m, ell + 1):
        if degree == m + 1:
            below, row = row, math.sqrt(2 * m + 3) * x * row
        elif degree > m + 1:
            a = math.sqrt((4 * degree * degree - 1.0) / (degree * degree - m * m))
            b = math.sqrt(((degree - 1.0) ** 2 - m * m) / (4.0 * (degree - 1.0) ** 2 - 1.0))
            new = x * row
            new -= b * below
            new *= a
            below, row = row, new
        if lifted.size and (degree - m) % 32 == 1:
            big = lifted[np.maximum(np.abs(below[lifted]), np.abs(row[lifted])) > 2.0**512]
            below[big] *= 2.0**-512
            row[big] *= 2.0**-512
            lift[big] -= 512
        yield row, lift


def legendre_row(m: int, ell: int, x) -> np.ndarray:
    """g_ell^m on nodes x by the recurrence in degree (:func:`_degree_recurrence`)."""
    row, lift = collections.deque(_degree_recurrence(m, ell, x), maxlen=1)[0]
    return np.ldexp(row, -lift)


def degree_table(m: int, ell_max: int, x) -> np.ndarray:
    """g-values of degrees m..ell_max (rows) at order m, by :func:`_degree_recurrence`."""
    return np.array([np.ldexp(row, -lift) for row, lift in _degree_recurrence(m, ell_max, x)])


def equator_anchors_per_step(ell_max: int):
    """Worst relative errors of the library's column of degrees at x = 0, order by order.

    Runs ``sphere_basis._order_column`` over all degrees 0..ell_max at the
    one node x = 0 and compares each order's table with the closed forms
    of ``sphere_basis.normalized_at_zero``, one call per order: values
    where l - m is even, derivatives through g_{l-1}^m(0) where it is odd.
    The per-order reference for the acceptance criterion c03, which
    gathers 32 orders per call.  Returns (worst value error, worst
    derivative error).
    """
    from sclab import sphere_basis as sb

    worst_val, worst_der = 0.0, 0.0
    for m, table in sb._order_column(ell_max, np.zeros(1)):
        g = table[:, 0]
        ells = np.arange(m, ell_max + 1)
        values, derivs = sb.normalized_at_zero(ells, m)
        rel = np.abs(g[::2] - values[::2]) / np.abs(values[::2])
        worst_val = max(worst_val, float(rel.max()))
        ell_o = ells[1::2].astype(float)
        factor = np.sqrt((2 * ell_o + 1) * (ell_o - m) * (ell_o + m) / (2 * ell_o - 1))
        rel = np.abs(factor * g[:-1:2] - derivs[1::2]) / np.abs(derivs[1::2])
        worst_der = max(worst_der, float(rel.max(initial=0.0)))
    return worst_val, worst_der


def cluster_gram_per_diagonal(ells, w_samples, grid):
    """The cluster Gram of ``weighted_cluster_gram``, every diagonal computed.

    The loop runs over all blocks and every diagonal of each, upper
    triangle included; the library computes the lower triangle this same
    way and mirrors it.
    """
    from sclab.sphere_basis import radial_rows

    thetas, phis = grid.mesh()
    w_sq = np.asarray(w_samples(thetas, phis), dtype=float) ** 2
    coef = np.fft.fft(w_sq.reshape(grid.n_theta, grid.n_phi), axis=1)
    coef *= grid.phi_weight
    tables = [radial_rows(ell, grid.nodes) for ell in ells]
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


def q_derivatives(ell: int, m: int, theta):
    """Closed-form Q' and Q'' of the WKB potential (the l-term drops out)."""
    from sclab import wkb_engine as wkb

    _, q1, q2 = wkb._potential(ell, m, np.asarray(theta, dtype=float), derivatives=True)
    if np.isscalar(theta):
        return float(q1), float(q2)
    return q1, q2


def wkb_error_functional(ell: int, m: int, theta: float) -> float:
    """Fedoryuk-form error integral E(theta) by scipy's adaptive ``quad``.

    Even, nonnegative, E(0) = 0: the reference for the profiles' per-interval
    Gauss panel sums of ``wkb_approximant``, over the library's integrand.
    Q grows with |theta| for m >= 1 and is negative for m = 0, so Q < 0 on
    the range wherever it is at |theta|; otherwise TurningPointError.
    """
    from scipy.integrate import quad

    from sclab import wkb_engine as wkb

    upper = abs(float(theta))
    if wkb.q_potential(ell, m, upper) >= 0:
        raise wkb.TurningPointError(f"Q_(l={ell}) is nonnegative inside [0, {upper}]")

    def density(t):
        return float(wkb._error_density(*wkb._potential(ell, m, t, derivatives=True)))

    return quad(density, 0.0, upper, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def window_q_bounds_sampled(ell: int, r: int, case_tag, eta1: float, eta2: float):
    """(c1, c2) of ``window_q_bounds`` from Q at every window order and 129 angles.

    The angles are equispaced over the case interval, its ends and centre
    among them.
    """
    from sclab import wkb_engine as wkb

    lo, hi = wkb.case_interval(ell, r, case_tag, eta1, eta2)
    thetas = np.linspace(lo, hi, 129)
    scale = ell * r if wkb.normalize_case(case_tag) == "2" else ell * ell
    ratios = np.concatenate([wkb.q_potential(ell, int(m), thetas) / scale
                             for m in wkb.case_window(ell, r, case_tag)])
    return float(-ratios.min()), float(-ratios.max())


def wkb_defect(ell: int, m: int, theta, action=None) -> np.ndarray:
    """Closed-form residual -y'' + Q y of the WKB approximant.

    Equals -A'' cos(S) (even parity) or -A'' sin(S) with A = |Q|^{-1/4};
    the S'-terms cancel identically, which is the construction.  ``action``
    may be supplied to reuse precomputed phases; otherwise one adaptive
    doubling loop computes S at every theta at once.
    """
    from sclab import wkb_engine as wkb

    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    q, q1, q2 = wkb._potential(ell, m, theta, derivatives=True)
    if np.any(q >= 0):
        raise wkb.TurningPointError("defect requested outside the oscillatory regime")
    absq = -q
    # with |Q|' = -Q' and |Q|'' = -Q'', A = |Q|^(-1/4) has
    a2 = (5.0 / 16.0) * absq**-2.25 * q1**2 + 0.25 * absq**-1.25 * q2
    if action is None:
        action = wkb._from_zero(ell, m, theta)
    osc = np.cos(action) if (ell + m) % 2 == 0 else np.sin(action)
    return -a2 * osc
