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

One geometry per window.  Q depends on m only through m^2 - 1/4 times
sec^2(theta), and Q', Q'' are m^2 - 1/4 times 2 sin sec^3 and
2 sec^2 + 6 sin^2 sec^4 (:func:`_potential_factors`).  Every order of a
window samples the same grid, so the grid, E's Gauss panels on it and the
three factors on the panels' nodes are formed once per window and held
read-only (:func:`_window_geometry`, keyed by the interval's half-width
and the node count); a profile scales them by its m^2 - 1/4.  At 1001
nodes the factors replace a cos, a sin and four powers on 8000 nodes per
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .sphere_basis import _gauss_rule, normalized_at_zero

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

def _potential_factors(theta, derivatives: bool = False):
    """F0 = sec^2(theta), or (F0, F1, F2), the m-independent parts of Q, Q', Q''.

    With F1 = 2 sin sec^3 and F2 = 2 sec^2 + 6 sin^2 sec^4, formed as
    2 tan F0 and F0 (2 + 6 tan^2) from one cos, one sin and no general
    power: Q = (m^2 - 1/4) F0 - 1/4 - l(l+1), Q' = (m^2 - 1/4) F1 and
    Q'' = (m^2 - 1/4) F2, so a window's orders share one set of factors.
    """
    sec = 1.0 / np.cos(theta)
    f0 = sec * sec
    if not derivatives:
        return f0
    tan = np.sin(theta) * sec
    return f0, 2.0 * tan * f0, f0 * (2.0 + 6.0 * tan * tan)


def _scaled_potential(ell: int, m, f0):
    """Q from its factor F0 = sec^2 (:func:`_potential_factors`); m broadcasts."""
    return (m * m - 0.25) * f0 - (0.25 + ell * (ell + 1.0))


def _potential(ell: int, m, theta, derivatives: bool = False):
    """Q, or (Q, Q', Q''), scaled from :func:`_potential_factors`; m broadcasts."""
    if not np.all(np.abs(theta) < math.pi / 2):
        raise ValueError("Q requires |theta| < pi/2")
    if not derivatives:
        return _scaled_potential(ell, m, _potential_factors(theta))
    f0, f1, f2 = _potential_factors(theta, derivatives=True)
    coef = m * m - 0.25
    return _scaled_potential(ell, m, f0), coef * f1, coef * f2


def q_potential(ell: int, m: int, theta):
    """(m^2 - 1/4)/cos^2(theta) - 1/4 - l(l+1); requires |theta| < pi/2."""
    return _potential(ell, m, np.asarray(theta, dtype=float))


def _error_density(q, q1, q2):
    """The integrand |Q'' - 5 Q'^2 / (4Q)| / (8 |Q|^{3/2}) of E, on arrays."""
    size = np.abs(q)
    return np.abs(q2 - 1.25 * q1 * q1 / q) / (8.0 * size * np.sqrt(size))


# ---------------------------------------------------------------------------
# Quadrature of the action and of the error functional
# ---------------------------------------------------------------------------
#
# S is elementary: action_values and the profiles take it in closed form
# (_closed_action).  E is not, and takes the one quadrature kernel,
# 16-point Gauss on panels: a profile takes its grid intervals as panels
# and accumulates the panel sums.  The adaptive route integrates S only: it
# splits [0, |theta|] into 2^k equal panels and doubles k until the whole
# batch (angles at one order) agrees with the previous k.  S by that route
# (action_integral) is the quadrature oracle that the closed form is
# checked against; E's oracle, for the profiles' panel sums, lives in the
# tests.

_GAUSS_NODES, _GAUSS_WEIGHTS = _gauss_rule(16)
_MAX_DOUBLINGS = 16
# Relative change between panel doublings at which S is accepted
ADAPTIVE_RTOL = 1e-10


def _panel_nodes(edges):
    """Gauss nodes (..., panels, 16) and half-widths (..., panels) between edges."""
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    return mid[..., None] + half[..., None] * _GAUSS_NODES, half


def _panel_sums(values, half):
    """Gauss sum on every panel of integrand values at ``_panel_nodes``."""
    return half * (values @ _GAUSS_WEIGHTS)


def _from_zero(ell: int, m: int, theta: np.ndarray) -> np.ndarray:
    """S (odd in theta) from 0 to every theta, panels doubling.

    The batch runs along ``theta`` at one order; all its entries share the
    panel count.  Panels double until no entry changes by more than
    ``ADAPTIVE_RTOL`` relative.
    """
    upper = np.abs(theta)
    prev = None
    n_panels = 1
    for _ in range(_MAX_DOUBLINGS):
        nodes, half = _panel_nodes(np.linspace(0.0, upper, n_panels + 1, axis=-1))
        q = _potential(ell, m, nodes)
        if np.any(q >= 0):
            raise TurningPointError(f"Q_(l={ell}) is nonnegative inside "
                                    f"[0, {float(upper.max())}]")
        vals = _panel_sums(np.sqrt(-q), half).sum(axis=-1)
        if prev is not None and np.all(
            np.abs(vals - prev) <= ADAPTIVE_RTOL * np.maximum(np.abs(vals), 1e-300)
        ):
            return np.sign(theta) * vals
        prev = vals
        n_panels *= 2
    raise RuntimeError(f"adaptive quadrature failed to reach rtol={ADAPTIVE_RTOL}")


def _closed_action(ell: int, m, theta) -> np.ndarray:
    """S_{l,m}(theta) = int_0^theta sqrt(|Q|) in closed form, for 0 <= theta < pi/2.

    With a = l + 1/2, b = sqrt(|m^2 - 1/4|) and kappa = cos(theta)
    sqrt(|Q(theta)|) = sqrt(a^2 cos^2 - m^2 + 1/4), the antiderivative is
    a arcsin(a sin / sqrt(a^2 - b^2)) - b arctan(b sin / kappa) for m >= 1.
    Its two terms nearly cancel where m is near l, so it is summed as two
    positive ones,

        S = (a - b) atan2(a sin, kappa)
            + b atan2((a - b) sin kappa, kappa^2 + a b sin^2),

    the second being the difference of the two angles, with a - b =
    (l^2 + l + 1/2 - m^2) / (a + b).  kappa^2 is formed as
    (l^2 + l + 1/2 - m^2) cos^2 - (m^2 - 1/4) sin^2, which cancels only
    next to the turning point, where S is stationary in kappa.
    cos sqrt(|Q|) would carry the rounding of Q, which cancels in case
    "2": 1.5e-15 of a profile's maximum at l = 1600, against 3.2e-16 this
    way.  At m = 0, where m^2 - 1/4 = -b^2, the arctan becomes
    b artanh(b sin / kappa), taken as
    log1p(2 b sin (kappa + b sin) / (cos^2 (a^2 + b^2))) / 2, which stays
    accurate next to the pole, where the artanh's argument tends to 1.
    m and theta broadcast; the caller checks that Q < 0 on [0, theta].
    """
    m = np.asarray(m)
    sin, cos = np.sin(theta), np.cos(theta)
    sin_sq, cos_sq = sin * sin, cos * cos
    a = ell + 0.5
    b_sq = m * m - 0.25
    b = np.sqrt(np.abs(b_sq))
    gap = ell * (ell + 1.0) + 0.5 - m * m  # a^2 - b^2, exact for l < 6e7
    kappa_sq = np.maximum(gap * cos_sq - b_sq * sin_sq, 0.0)
    kappa = np.sqrt(kappa_sq)
    head = np.arctan2(a * sin, kappa)
    a_minus_b = gap / (a + b)
    action = a_minus_b * head
    action += b * np.arctan2(a_minus_b * sin * kappa, kappa_sq + (a * b) * sin_sq)
    if np.any(m == 0):
        zonal = a * head + 0.5 * b * np.log1p(2.0 * b * sin * (kappa + b * sin) / (cos_sq * gap))
        action = np.where(m == 0, zonal, action)
    return action


def action_integral(ell: int, m: int, theta: float) -> float:
    """Accumulated phase S(theta) = int_0^theta sqrt(|Q|); odd in theta.

    By adaptive panel quadrature, the oracle for the closed form of
    :func:`action_values` (they differ by 4.4e-13 relative at l = 1000,
    m = 1, theta = 1.5, where the quadrature is the one off).  Raises
    :class:`TurningPointError` if Q reaches 0 on the range, which means
    the requested theta has left the oscillatory regime.
    """
    theta = float(theta)
    if theta == 0.0:
        return 0.0
    return float(_from_zero(ell, m, np.array([theta]))[0])


def action_values(ell: int, ms, theta: float) -> np.ndarray:
    """S_{l,m}(theta) for a whole vector of orders at one angle, in closed form.

    See :func:`_closed_action`.  Raises :class:`TurningPointError` where
    Q_{l,m}(theta) >= 0 for some order, and ValueError unless
    |theta| < pi/2.
    """
    ms = np.asarray(ms, dtype=int)
    theta = float(theta)
    if theta == 0.0:
        return np.zeros(ms.size)
    if np.any(_potential(ell, ms, abs(theta)) >= 0):
        raise TurningPointError(f"Q_(l={ell}) is nonnegative inside [0, {abs(theta)}]")
    return math.copysign(1.0, theta) * _closed_action(ell, ms, abs(theta))


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WkbProfile:
    """All WKB data of one (l, m) sampled on its case interval."""

    ell: int
    m: int
    case_tag: str
    thetas: np.ndarray
    q: np.ndarray
    action: np.ndarray
    y: np.ndarray
    c: float
    err: np.ndarray


class _WindowGeometry(NamedTuple):
    """The m-independent arrays of a window's profiles (:func:`_window_geometry`)."""

    thetas: np.ndarray  # the profile grid, symmetric about its centre node 0
    sec_sq: np.ndarray  # F0 on the grid
    widths: np.ndarray  # half-widths of the Gauss panels, one per interval of [0, hi]
    f0: np.ndarray  # F0, F1, F2 on the panels' nodes (panels, 16)
    f1: np.ndarray
    f2: np.ndarray


@lru_cache(maxsize=4)
def _window_geometry(half: float, n_theta: int) -> _WindowGeometry:
    """The grid of ``n_theta`` (odd) angles on [-half, half], its panels and factors, read-only.

    Every order of a window samples the same grid, so its cos, sin and
    factors (:func:`_potential_factors`) are formed once per window, not
    once per order: each order only scales them by m^2 - 1/4.  The callers
    run a window's orders one after another, so a few windows are kept.
    """
    thetas = np.linspace(-half, half, n_theta)
    nodes, widths = _panel_nodes(thetas[n_theta // 2:])
    geometry = _WindowGeometry(thetas, _potential_factors(thetas), widths,
                               *_potential_factors(nodes, derivatives=True))
    for array in geometry:
        array.setflags(write=False)
    return geometry


def wkb_approximant(ell: int, m: int, case_tag, r: int,
                    eta1: float = DEFAULT_ETA1, eta2: float = DEFAULT_ETA2,
                    n_theta: int = 201) -> WkbProfile:
    """Sample Q, S, y, E on the case interval and match c at theta = 0.

    The matching uses v(0) for even l+m and v'(0) for odd l+m (see
    :func:`matching_constants`).  S is taken in closed form
    (:func:`_closed_action`) and E summed outward, one Gauss panel per grid
    interval, both from the grid's centre node theta = 0, so ``n_theta``
    must be at least 2 (an even count is raised by one to keep that node).
    The grid and its factors are the window's (:func:`_window_geometry`);
    the profile's ``thetas`` is that read-only array.
    """
    if n_theta < 2:
        raise ValueError(f"n_theta must be >= 2, got {n_theta}")
    case = normalize_case(case_tag)
    _, half = case_interval(ell, r, case, eta1, eta2)
    geometry = _window_geometry(half, n_theta + 1 - n_theta % 2)
    thetas = geometry.thetas
    q = _scaled_potential(ell, m, geometry.sec_sq)
    if np.any(q >= 0):
        raise TurningPointError(
            f"Q_(l={ell}, m={m}) not negative on the case-{case} interval"
        )
    # S in closed form, E by one Gauss panel per grid interval of [0, hi];
    # S is odd, E even.  S is formed while the panels' Q, Q', Q'' (64 kB
    # each at 1001 nodes) are held: in a process set up as perfbench's
    # worker, S formed before them let glibc trim the heap after more
    # profiles, and a wkb_reach pass's profiles took 14.6k minor page
    # faults instead of 7.7k.
    mid = thetas.size // 2
    coef = m * m - 0.25
    qn, q1, q2 = _scaled_potential(ell, m, geometry.f0), coef * geometry.f1, coef * geometry.f2
    s_pos = _closed_action(ell, m, thetas[mid + 1:])
    e_pos = np.cumsum(_panel_sums(_error_density(qn, q1, q2), geometry.widths))
    action = np.concatenate([-s_pos[::-1], [0.0], s_pos])
    err = np.concatenate([e_pos[::-1], [0.0], e_pos])

    amp = np.abs(q) ** -0.25
    y = amp * (np.cos(action) if (ell + m) % 2 == 0 else np.sin(action))

    c = matching_constants(ell, np.array([m]))[0]
    return WkbProfile(ell, m, case, thetas, q, action, y, float(c), err)


def matching_constants(ell: int, ms: np.ndarray) -> np.ndarray:
    """The constants c of :func:`wkb_approximant` for an array of orders.

    c = v(0) |Q(0)|^{1/4} for even l+m and v'(0) / |Q(0)|^{1/4} for odd
    l+m; |Q(0)| cannot vanish in the oscillatory regime, which is asserted.
    """
    ms = np.asarray(ms, dtype=int)
    q0 = -_potential(ell, ms, 0.0)
    assert np.all(q0 > 0.0), "matching point left the oscillatory regime"
    quarter = q0 ** 0.25
    values, derivs = normalized_at_zero(np.full(ms.size, ell), ms)
    return np.where((ell + ms) % 2 == 0, values * quarter, derivs / quarter)


def envelope(profile: WkbProfile) -> np.ndarray:
    """Rigorous pointwise bound on |v - c y| along the profile."""
    return 2.0 * np.expm1(2.0 * profile.err) * abs(profile.c) * np.abs(profile.q) ** -0.25


def window_q_bounds(ell: int, r: int, case_tag, eta1: float = DEFAULT_ETA1,
                    eta2: float = DEFAULT_ETA2):
    """Constants (c1, c2) with -c1 <= Q/scale <= -c2 over the window.

    Every window order has m >= 1, where Q grows with m and with |theta|,
    so Q is least at the lowest order and theta = 0, and greatest at the
    highest order and the ends of the case interval.  scale is l*r in case
    "2" and l^2 in case "inf".  Both constants are positive once l is past
    the sign threshold; the WKB runners require c2 > 0, that Q < 0 for
    every order on the whole interval.
    """
    case = normalize_case(case_tag)
    _, hi = case_interval(ell, r, case, eta1, eta2)
    window = case_window(ell, r, case)
    scale = ell * r if case == "2" else ell * ell
    return (float(-q_potential(ell, int(window[0]), 0.0) / scale),
            float(-q_potential(ell, int(window[-1]), hi) / scale))
