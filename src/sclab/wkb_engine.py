"""Oscillatory-regime approximants for the equatorial radial equation.

The equatorial profiles v of :mod:`sclab.sphere_basis` solve -v'' + Q v = 0
with the potential

    Q_{l,m}(theta) = (m^2 - 1/4)/cos^2(theta) - 1/4 - l(l+1),

negative throughout the windows treated here.  In that regime the
approximants

    y = cos(S)/|Q|^{1/4}   (l+m even),      y = sin(S)/|Q|^{1/4}  (l+m odd),
    S(theta) = int_0^theta sqrt(|Q(t)|) dt,

track v up to the matching constant c fixed at theta = 0 by the parity
data v(0) or v'(0).  The error functional

    E(theta) = int_0^{|theta|} |Q'' - 5 Q'^2 / (4Q)| / (8 |Q|^{3/2}) dt

yields the rigorous pointwise envelope |v - c y| <= 2(e^{2E}-1)|c||Q|^{-1/4}.

Two window geometries are used, selected by ``case_tag``:

    "2"   : orders just below l,   |theta| <  eta2 sqrt(r/l)   (equatorial)
    "inf" : orders of size r,      |theta| <  pi/2 - eta1 r/l  (off-polar)

with band radius r (default ceil(sqrt(l))) and window parameters eta2 < sqrt2,
eta1 > 2.  The defaults eta2 = 0.5, eta1 = 8 pass all desk-scale sign and
monotonicity checks; both are configurable everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphere_basis import normalized_at_zero

DEFAULT_ETA1 = 8.0
DEFAULT_ETA2 = 0.5


class TurningPointError(RuntimeError):
    """The potential changes sign inside the integration range."""


def normalize_case(case_tag) -> str:
    """Map 2 / "2" / inf / "inf" to the canonical string tag."""
    if case_tag in (2, "2"):
        return "2"
    if case_tag in (math.inf, "inf", "oo"):
        return "inf"
    raise ValueError(f"unknown case tag {case_tag!r}; expected 2 or inf")


def band_radius(ell: int, zeta: float = 0.5) -> int:
    """Default window width r = ceil(l^zeta), for l >= 1."""
    if ell < 1:
        raise ValueError(f"need ell >= 1, got ell={ell}")
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must lie in (0, 1)")
    return int(math.ceil(ell**zeta))


def case_window(ell: int, r: int, case_tag) -> np.ndarray:
    """Orders in the saturating window: (l-2r, l-r] for "2", [r, 2r) for "inf"."""
    if not 1 <= r <= ell // 2:
        raise ValueError(f"need 1 <= r <= ell/2, got r={r} at ell={ell}")
    if normalize_case(case_tag) == "2":
        return np.arange(ell - 2 * r + 1, ell - r + 1)
    return np.arange(r, 2 * r)


def case_interval(ell: int, r: int, case_tag, eta1: float = DEFAULT_ETA1,
                  eta2: float = DEFAULT_ETA2) -> tuple[float, float]:
    """Symmetric theta-interval on which the window's WKB data is built.

    Case "2" reads only eta2 and case "inf" only eta1; an error names the
    one its case reads.  The interval must be nonempty and stay inside
    (-pi/2, pi/2).
    """
    if ell < 1 or r < 1:
        raise ValueError(f"need ell >= 1 and r >= 1, got ell={ell}, r={r}")
    if normalize_case(case_tag) == "2":
        name, eta, half = "eta2", eta2, eta2 * math.sqrt(r / ell)
    else:
        name, eta, half = "eta1", eta1, math.pi / 2 - eta1 * r / ell
    if not math.isfinite(eta):
        raise ValueError(f"{name} must be finite, got {eta}")
    if not 0 < half < math.pi / 2:
        raise ValueError(f"{name} = {eta} gives the interval |theta| < {half:.6g} at "
                         f"ell={ell}, r={r}; it must be nonempty and inside (-pi/2, pi/2)")
    return (-half, half)


# ---------------------------------------------------------------------------
# Potential and derivatives
# ---------------------------------------------------------------------------

def _potential(ell: int, m, theta, derivatives: bool = False):
    """Q, or (Q, Q', Q''), from one cos and one sin of theta; m broadcasts."""
    if not np.all(np.abs(theta) < math.pi / 2):
        raise ValueError("Q requires |theta| < pi/2")
    c = np.cos(theta)
    coef = m * m - 0.25
    q = coef / c**2 - 0.25 - ell * (ell + 1.0)
    if not derivatives:
        return q
    s = np.sin(theta)
    return q, coef * 2.0 * s / c**3, coef * (2.0 / c**2 + 6.0 * s**2 / c**4)


def q_potential(ell: int, m: int, theta):
    """(m^2 - 1/4)/cos^2(theta) - 1/4 - l(l+1); requires |theta| < pi/2."""
    out = _potential(ell, m, np.asarray(theta, dtype=float))
    return float(out) if np.isscalar(theta) else out


def q_derivatives(ell: int, m: int, theta):
    """Closed-form Q' and Q'' (the l-term drops out)."""
    _, q1, q2 = _potential(ell, m, np.asarray(theta, dtype=float), derivatives=True)
    if np.isscalar(theta):
        return float(q1), float(q2)
    return q1, q2


def _error_density(q, q1, q2):
    """The integrand |Q'' - 5 Q'^2 / (4Q)| / (8 |Q|^{3/2}) of E."""
    return np.abs(q2 - 1.25 * q1 * q1 / q) / (8.0 * np.abs(q) ** 1.5)


# ---------------------------------------------------------------------------
# Quadrature of the action and of the error functional
# ---------------------------------------------------------------------------
#
# One kernel: 16-point Gauss on panels.  A profile takes its grid intervals
# as panels and accumulates the panel sums; the adaptive route splits
# [0, |theta|] into 2^k equal panels and doubles k until the whole batch
# (orders at one angle, or angles at one order) agrees with the previous k.

# numpy's rule, not sphere_basis._gauss_rule: that one is scipy's, whose
# first call imports scipy.linalg (+6.8 MB resident), and the WKB layer
# otherwise never loads it.
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_DOUBLINGS = 16
# Relative change between panel doublings at which S and E are accepted
ADAPTIVE_RTOL = 1e-10


def _panel_nodes(edges):
    """Gauss nodes (..., panels, 16) and half-widths (..., panels) between edges."""
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    return mid[..., None] + half[..., None] * _GAUSS_NODES, half


def _panel_sums(values, half):
    """Gauss sum on every panel of integrand values at ``_panel_nodes``."""
    return half * (values @ _GAUSS_WEIGHTS)


def _from_zero(ell: int, m, theta: np.ndarray, error: bool = False) -> np.ndarray:
    """S (odd in theta) or E (even) from 0 to every theta, panels doubling.

    The batch runs along ``theta`` at one order, or along an array of orders
    ``m`` at a one-element ``theta``; all its entries share the panel count.
    Panels double until no entry changes by more than ``ADAPTIVE_RTOL``
    relative.
    """
    m = np.asarray(m)[..., None, None]
    upper = np.abs(theta)

    def integrand(nodes):
        terms = _potential(ell, m, nodes, derivatives=error)
        q = terms[0] if error else terms
        if np.any(q >= 0):
            raise TurningPointError(f"Q_(l={ell}) is nonnegative inside "
                                    f"[0, {float(upper.max())}]")
        return _error_density(*terms) if error else np.sqrt(-q)

    prev = None
    n_panels = 1
    for _ in range(_MAX_DOUBLINGS):
        nodes, half = _panel_nodes(np.linspace(0.0, upper, n_panels + 1, axis=-1))
        vals = _panel_sums(integrand(nodes), half).sum(axis=-1)
        if prev is not None and np.all(
            np.abs(vals - prev) <= ADAPTIVE_RTOL * np.maximum(np.abs(vals), 1e-300)
        ):
            return vals if error else np.sign(theta) * vals
        prev = vals
        n_panels *= 2
    raise RuntimeError(f"adaptive quadrature failed to reach rtol={ADAPTIVE_RTOL}")


def action_integral(ell: int, m: int, theta: float) -> float:
    """Accumulated phase S(theta) = int_0^theta sqrt(|Q|); odd in theta.

    Raises :class:`TurningPointError` if Q reaches 0 on the range, which
    means the requested theta has left the oscillatory regime.
    """
    theta = float(theta)
    if theta == 0.0:
        return 0.0
    return float(_from_zero(ell, m, np.array([theta]))[0])


def action_values(ell: int, ms, theta: float) -> np.ndarray:
    """S_{l,m}(theta) for a whole vector of orders at one angle."""
    ms = np.asarray(ms, dtype=int)
    theta = float(theta)
    if theta == 0.0:
        return np.zeros(ms.size)
    return _from_zero(ell, ms, np.array([theta]))


def wkb_error_functional(ell: int, m: int, theta: float) -> float:
    """Fedoryuk-form error integral E(theta); even, nonnegative, E(0) = 0."""
    theta = float(theta)
    if theta == 0.0:
        return 0.0
    return float(_from_zero(ell, m, np.array([theta]), error=True)[0])


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WkbProfile:
    """All WKB data of one (l, m) sampled on its case interval."""

    ell: int
    m: int
    case_tag: str
    r: int
    eta1: float
    eta2: float
    interval: tuple[float, float]
    thetas: np.ndarray
    q: np.ndarray
    action: np.ndarray
    y: np.ndarray
    c: float
    err: np.ndarray

    @property
    def parity_even(self) -> bool:
        return (self.ell + self.m) % 2 == 0


def wkb_approximant(ell: int, m: int, case_tag, r: int | None = None,
                    eta1: float = DEFAULT_ETA1, eta2: float = DEFAULT_ETA2,
                    n_theta: int = 201) -> WkbProfile:
    """Sample Q, S, y, E on the case interval and match c at theta = 0.

    The matching uses v(0) for even l+m and v'(0) for odd l+m (see
    :func:`matching_constants`).  S and E are summed outward from the
    grid's centre node theta = 0, so ``n_theta`` must be at least 2 (an
    even count is raised by one to keep that node).
    """
    if n_theta < 2:
        raise ValueError(f"n_theta must be >= 2, got {n_theta}")
    case = normalize_case(case_tag)
    if r is None:
        r = band_radius(ell)
    interval = case_interval(ell, r, case, eta1, eta2)
    if n_theta % 2 == 0:
        n_theta += 1
    thetas = np.linspace(interval[0], interval[1], n_theta)
    q = q_potential(ell, m, thetas)
    if np.any(q >= 0):
        raise TurningPointError(
            f"Q_(l={ell}, m={m}) not negative on the case-{case} interval"
        )
    # one Gauss panel per grid interval of [0, hi]; S is odd, E even
    nodes, widths = _panel_nodes(thetas[n_theta // 2:])
    qn, q1, q2 = _potential(ell, m, nodes, derivatives=True)
    sums = _panel_sums(np.stack([np.sqrt(-qn), _error_density(qn, q1, q2)]), widths)
    s_pos, e_pos = np.concatenate([np.zeros((2, 1)), np.cumsum(sums, axis=1)], axis=1)
    action = np.concatenate([-s_pos[:0:-1], s_pos])
    err = np.concatenate([e_pos[:0:-1], e_pos])

    amp = np.abs(q) ** -0.25
    parity_even = (ell + m) % 2 == 0
    y = amp * (np.cos(action) if parity_even else np.sin(action))

    c = matching_constants(ell, np.array([m]))[0]
    return WkbProfile(ell, m, case, r, eta1, eta2, interval,
                      thetas, q, action, y, float(c), err)


def matching_constants(ell: int, ms: np.ndarray) -> np.ndarray:
    """The constants c of :func:`wkb_approximant` for an array of orders.

    c = v(0) |Q(0)|^{1/4} for even l+m and v'(0) / |Q(0)|^{1/4} for odd
    l+m; |Q(0)| cannot vanish in the oscillatory regime, which is asserted.
    """
    ms = np.asarray(ms, dtype=int)
    q0 = -_potential(ell, ms, 0.0)
    assert np.all(q0 > 0.0), "matching point left the oscillatory regime"
    # Python's pow per element, the rounding that recorded values of c carry:
    # numpy's vectorized pow differs from it in the last bit for some orders
    quarter = np.array([q ** 0.25 for q in q0.tolist()])
    values, derivs = normalized_at_zero(np.full(ms.size, ell), ms)
    return np.where((ell + ms) % 2 == 0, values * quarter, derivs / quarter)


def envelope(profile: WkbProfile) -> np.ndarray:
    """Rigorous pointwise bound on |v - c y| along the profile."""
    return 2.0 * np.expm1(2.0 * profile.err) * abs(profile.c) * np.abs(profile.q) ** -0.25


def wkb_defect(ell: int, m: int, theta, action=None) -> np.ndarray:
    """Closed-form residual -y'' + Q y of the approximant.

    Equals -A'' cos(S) (even parity) or -A'' sin(S) with A = |Q|^{-1/4};
    the S'-terms cancel identically, which is the construction.  ``action``
    may be supplied to reuse precomputed phases; otherwise one adaptive
    doubling loop computes S at every theta at once.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    q, q1, q2 = _potential(ell, m, theta, derivatives=True)
    if np.any(q >= 0):
        raise TurningPointError("defect requested outside the oscillatory regime")
    absq = -q
    # with |Q|' = -Q' and |Q|'' = -Q'', A = |Q|^(-1/4) has
    a2 = (5.0 / 16.0) * absq**-2.25 * q1**2 + 0.25 * absq**-1.25 * q2
    if action is None:
        action = _from_zero(ell, m, theta)
    osc = np.cos(action) if (ell + m) % 2 == 0 else np.sin(action)
    return -a2 * osc


def window_q_bounds(ell: int, r: int, case_tag, eta1: float = DEFAULT_ETA1,
                    eta2: float = DEFAULT_ETA2, n_theta: int = 129):
    """Fitted constants (c1, c2) with -c1 <= Q/scale <= -c2 over the window.

    scale is l*r in case "2" and l^2 in case "inf".  Both constants are
    positive once l is past the sign threshold; the WKB runners require
    c2 > 0, that Q < 0 for every order on the whole interval.
    """
    case = normalize_case(case_tag)
    lo, hi = case_interval(ell, r, case, eta1, eta2)
    thetas = np.linspace(lo, hi, n_theta)
    scale = ell * r if case == "2" else ell * ell
    ratios = []
    for m in case_window(ell, r, case):
        ratios.append(q_potential(ell, int(m), thetas) / scale)
    ratios = np.concatenate(ratios)
    return float(-ratios.min()), float(-ratios.max())
