import math

import numpy as np
import pytest

from sclab import sphere_basis as sb
from sclab import wkb_engine as wkb

from _oracles import (action_mp, action_simpson, profile_integrals_loop, q_derivatives,
                      window_q_bounds_sampled, wkb_defect, wkb_error_functional)


# ---------------------------------------------------------------------------
# Potential
# ---------------------------------------------------------------------------

def test_q_values_at_equator():
    assert wkb.q_potential(10, 0, 0.0) == pytest.approx(-110.5, rel=1e-15)
    assert wkb.q_potential(10, 10, 0.0) == pytest.approx(-10.5, rel=1e-15)


def test_q_rejects_the_poles():
    with pytest.raises(ValueError):
        wkb.q_potential(10, 2, math.pi / 2)
    with pytest.raises(ValueError):
        q_derivatives(10, 2, np.array([0.1, 1.8]))


def test_q_derivatives_match_finite_differences():
    ell, m = 80, 30
    thetas = np.linspace(-1.2, 1.2, 11)
    h = 1e-5
    q1, q2 = q_derivatives(ell, m, thetas)
    fd1 = (wkb.q_potential(ell, m, thetas + h)
           - wkb.q_potential(ell, m, thetas - h)) / (2 * h)
    fd2 = (wkb.q_potential(ell, m, thetas + h) - 2 * wkb.q_potential(ell, m, thetas)
           + wkb.q_potential(ell, m, thetas - h)) / h**2
    assert np.allclose(q1, fd1, rtol=1e-8)
    assert np.allclose(q2, fd2, rtol=1e-4)


def test_window_q_bands():
    # fitted sign constants; scales l*r (case 2) and l^2 (case inf)
    c1, c2 = wkb.window_q_bounds(400, 20, "2")
    assert 1.0 < c2 < c1 < 5.0
    c1, c2 = wkb.window_q_bounds(400, 20, "inf")
    assert 0.5 < c2 <= c1 < 1.5


def test_window_q_bounds_match_the_sampled_table():
    # Q read at the window's corners against Q over every order and 129
    # angles of the interval, for every window and interval that exists
    cases = 0
    for ell in np.unique(np.geomspace(8, 10_000, 40).astype(int)):
        for zeta in (0.3, 0.5, 0.7):
            r = wkb.band_radius(int(ell), zeta)
            if r > ell // 2:
                continue
            for eta1, eta2 in ((8.0, 0.5), (2.5, 1.4), (4.0, 1.0), (3.0, 0.75), (20.0, 0.1)):
                for case in ("2", "inf"):
                    args = (int(ell), r, case, eta1, eta2)
                    try:
                        expected = window_q_bounds_sampled(*args)
                    except ValueError:
                        with pytest.raises(ValueError):
                            wkb.window_q_bounds(*args)
                        continue
                    assert wkb.window_q_bounds(*args) == expected, args
                    cases += 1
    assert cases > 1000


def test_windows_and_intervals():
    assert list(wkb.case_window(10, 2, "2")) == [7, 8]
    assert list(wkb.case_window(10, 2, "inf")) == [2, 3]
    assert list(wkb.case_window(10, 2, 2)) == [7, 8]
    assert list(wkb.case_window(10, 2, math.inf)) == [2, 3]
    lo, hi = wkb.case_interval(400, 20, "2")
    assert hi == pytest.approx(0.5 * math.sqrt(20 / 400))
    lo, hi = wkb.case_interval(400, 20, "inf")
    assert hi == pytest.approx(math.pi / 2 - 8 * 20 / 400)
    with pytest.raises(ValueError):
        wkb.case_window(10, 6, "2")
    with pytest.raises(ValueError):
        wkb.normalize_case("3")
    with pytest.raises(ValueError):
        wkb.case_interval(100, 10, "inf", eta1=20.0)  # empty interval


# ---------------------------------------------------------------------------
# Action integral and error functional
# ---------------------------------------------------------------------------

def test_action_basics():
    assert wkb.action_integral(100, 50, 0.0) == 0.0
    s = wkb.action_integral(100, 50, 0.2)
    assert wkb.action_integral(100, 50, -0.2) == -s


def test_action_matches_composite_simpson_oracle():
    # frozen from _oracles.action_simpson (1e6 points): 17.397237889189857
    s = wkb.action_integral(100, 50, 0.2)
    assert s == pytest.approx(17.397237889189857, rel=1e-12)
    assert s == pytest.approx(action_simpson(100, 50, 0.2, n=200_001), rel=1e-9)


def test_action_vector_matches_scalar():
    ms = np.array([40, 45, 50])
    vec = wkb.action_values(100, ms, 0.15)
    for m, val in zip(ms, vec):
        assert val == pytest.approx(wkb.action_integral(100, int(m), 0.15),
                                    rel=1e-12)


def test_action_detects_turning_point():
    # Q_(10,8) changes sign inside [0, 1.3]
    with pytest.raises(wkb.TurningPointError):
        wkb.action_integral(10, 8, 1.3)
    with pytest.raises(wkb.TurningPointError):
        wkb.action_values(10, np.array([8, 9]), 1.3)


def _turning_point(ell: int, m: int) -> float:
    """The theta > 0 where Q_(l,m) vanishes, for m >= 1, in 40-digit arithmetic."""
    import mpmath as mp

    with mp.workdps(40):
        return float(mp.acos(mp.sqrt(mp.mpf(m) ** 2 - 0.25) / (ell + mp.mpf(0.5))))


@pytest.mark.parametrize("ell", [10, 100, 1000, 10_000])
def test_closed_action_matches_mpmath(ell):
    # m = 0 (the artanh branch, up to 1e-12 short of the pole), m = 1 and
    # m = l - 1, from next to 0 to within 1e-9 of the turning point;
    # measured within 2.7e-16 relative at every point
    for m in (0, 1, ell - 1):
        top = math.pi / 2 - 1e-12 if m == 0 else _turning_point(ell, m) - 1e-9
        for theta in [f * top for f in (1e-6, 0.1, 0.5, 0.9, 0.999)] + [top]:
            value = wkb.action_values(ell, [m], theta)[0]
            assert value == pytest.approx(float(action_mp(ell, m, theta)), rel=4e-16)
            assert wkb.action_values(ell, [m], -theta)[0] == -value


def test_closed_action_refuses_what_the_potential_refuses():
    ell, m = 100, 60
    beyond = _turning_point(ell, m) + 1e-9
    with pytest.raises(wkb.TurningPointError):
        wkb.action_values(ell, [0, m], beyond)
    for theta in (math.pi / 2, 1.6, math.nan):
        with pytest.raises(ValueError, match="theta"):
            wkb.action_values(ell, [0], theta)


def test_error_functional_values():
    assert wkb_error_functional(100, 50, 0.0) == 0.0
    val = wkb_error_functional(100, 50, 0.2)
    assert val == pytest.approx(2.0269243315787684e-4, rel=1e-10)
    assert wkb_error_functional(100, 50, -0.2) == pytest.approx(val, rel=1e-12)


@pytest.mark.parametrize("case", ["2", "inf"])
def test_error_functional_window_scaling(case):
    # sup_I E * r stays bounded as the degree grows
    scaled = []
    for ell in (100, 400, 1000):
        r = wkb.band_radius(ell)
        m = int(wkb.case_window(ell, r, case)[r // 2])
        _, hi = wkb.case_interval(ell, r, case)
        scaled.append(wkb_error_functional(ell, m, hi) * r)
    assert max(scaled) / min(scaled) < 3.0


def test_adaptive_route_detects_non_convergence():
    # sqrt|Q_(0,0)| ~ 1/(2 cos theta) is nearly singular 1e-12 short of the
    # pole; uniform panels cannot resolve it within 2^15 of them
    near_pole = math.pi / 2 - 1e-12
    with pytest.raises(RuntimeError, match="failed to reach"):
        wkb.action_integral(0, 0, near_pole)
    # the closed form of action_values has no panels, and holds there
    closed = wkb.action_values(0, np.array([0]), near_pole)[0]
    assert closed == pytest.approx(float(action_mp(0, 0, near_pole)), rel=4e-16)
    with pytest.raises(RuntimeError, match="failed to reach"):  # 0.1 converges
        wkb_defect(0, 0, np.array([0.1, near_pole]))


def test_batched_adaptive_route_detects_turning_points():
    with pytest.raises(wkb.TurningPointError):
        wkb_error_functional(10, 8, 1.3)
    # Q_(10,8)(0) < 0 at every requested angle, but the last integral
    # crosses the turning point
    with pytest.raises(wkb.TurningPointError):
        wkb_defect(10, 8, np.array([0.1, -0.2, 1.3]))
    with pytest.raises(ValueError):
        wkb.action_integral(10, 2, 1.6)  # past the pole


# ---------------------------------------------------------------------------
# Approximants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ell", [100, 400, 1600])
@pytest.mark.parametrize("case", ["2", "inf"])
def test_profile_panels_match_the_per_interval_loop(ell, case):
    r = wkb.band_radius(ell)
    window = wkb.case_window(ell, r, case)
    for m in (int(window[0]), int(window[-1])):
        prof = wkb.wkb_approximant(ell, m, case, r, n_theta=1001)
        mid = prof.thetas.size // 2
        s_ref, e_ref = profile_integrals_loop(ell, m, prof.thetas[mid:])
        assert np.max(np.abs(prof.action[mid:] - s_ref)) <= 1e-14 * np.max(s_ref)
        assert np.max(np.abs(prof.err[mid:] - e_ref)) <= 1e-14 * np.max(e_ref)


@pytest.mark.parametrize("case", ["2", "inf"])
def test_profile_integrals_match_the_adaptive_route(case):
    ell = 400
    r = wkb.band_radius(ell)
    m = int(wkb.case_window(ell, r, case)[r // 2])
    prof = wkb.wkb_approximant(ell, m, case, r, n_theta=1001)
    for i in (0, 137, 480, 500, 501, 777, 1000):
        theta = float(prof.thetas[i])
        assert prof.action[i] == pytest.approx(
            wkb.action_integral(ell, m, theta), rel=1e-9, abs=1e-300)
        assert prof.err[i] == pytest.approx(
            wkb_error_functional(ell, m, theta), rel=1e-9, abs=1e-300)



def _profile_arrays(prof):
    return (prof.thetas, prof.q, prof.action, prof.y, prof.err)


def test_window_geometry_is_read_only():
    ell = 400
    r = wkb.band_radius(ell)
    prof = wkb.wkb_approximant(ell, r, "inf", r, n_theta=1000)  # raised to 1001
    _, half = wkb.case_interval(ell, r, "inf")
    geometry = wkb._window_geometry(half, 1001)
    assert prof.thetas is geometry.thetas and prof.thetas.size == 1001
    assert geometry.f0.shape == geometry.f1.shape == geometry.f2.shape == (500, 16)
    for array in geometry:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    # Q, Q' and Q'' are the factors times m^2 - 1/4, less the constant of Q
    f0, f1, f2 = wkb._potential_factors(geometry.thetas, derivatives=True)
    assert np.array_equal(f0, geometry.sec_sq)
    q, q1, q2 = wkb._potential(ell, r, geometry.thetas, derivatives=True)
    coef = r * r - 0.25
    assert np.array_equal(q, coef * f0 - (0.25 + ell * (ell + 1.0)))
    assert np.array_equal(q1, coef * f1) and np.array_equal(q2, coef * f2)


def test_profiles_do_not_depend_on_the_window_cache():
    # each profile computed alone after cache_clear(), against the same
    # profiles with every window's orders interleaved through the cache
    orders = []
    for ell in (100, 400):
        r = wkb.band_radius(ell)
        for case in ("2", "inf"):
            window = wkb.case_window(ell, r, case)
            orders += [(ell, int(m), case, r) for m in (window[0], window[-1])]
    alone = {}
    for key in orders:
        wkb._window_geometry.cache_clear()
        alone[key] = _profile_arrays(wkb.wkb_approximant(*key, n_theta=401))
    wkb._window_geometry.cache_clear()
    for key in orders[::2] + orders[1::2]:  # the windows alternate
        for a, b in zip(_profile_arrays(wkb.wkb_approximant(*key, n_theta=401)), alone[key]):
            assert np.array_equal(a, b)
    assert wkb._window_geometry.cache_info().hits > 0


def test_approximant_matching_point_values():
    prof = wkb.wkb_approximant(100, 80, "2", wkb.band_radius(100))
    mid = prof.thetas.size // 2
    assert prof.thetas[mid] == 0.0
    q0 = abs(wkb.q_potential(100, 80, 0.0))
    assert prof.y[mid] == pytest.approx(q0 ** -0.25, rel=1e-13)
    h = prof.thetas[mid + 1] - prof.thetas[mid]
    slope = (prof.y[mid + 1] - prof.y[mid - 1]) / (2 * h)
    assert abs(slope) < 1e-6 * abs(prof.y[mid]) / h


def test_profile_action_and_error_monotonicity():
    prof = wkb.wkb_approximant(100, 80, "2", wkb.band_radius(100))
    mid = prof.thetas.size // 2
    assert np.all(np.diff(prof.action) > 0.0)  # S strictly increasing
    assert np.allclose(prof.action[:mid], -prof.action[:mid:-1])  # odd
    assert np.all(prof.err >= 0.0)
    assert np.all(np.diff(prof.err[mid:]) >= 0.0)  # nondecreasing in |theta|
    assert np.allclose(prof.err[:mid], prof.err[:mid:-1])  # even


@pytest.mark.parametrize("ell,case", [(100, "2"), (100, "inf"),
                                      (200, "2"), (200, "inf")])
def test_envelope_bounds_true_error(ell, case):
    r = wkb.band_radius(ell)
    window = wkb.case_window(ell, r, case)
    for m in (int(window[0]), int(window[-1])):
        prof = wkb.wkb_approximant(ell, m, case, r)
        v = sb.legendre_band(ell, m, m, prof.thetas).values_v[0]
        err = np.abs(v - prof.c * prof.y)
        env = wkb.envelope(prof)
        slack = 1e-10 * abs(prof.c) * np.abs(prof.q) ** -0.25
        assert np.all(err <= env + slack)


def test_wrong_parity_matching_breaks_the_fit():
    ell, m = 100, 80  # l + m even; the odd-parity rule gives c = 0
    prof = wkb.wkb_approximant(ell, m, "2", wkb.band_radius(ell))
    dv0 = sb.normalized_at_zero(ell, m)[1][0]
    c_wrong = dv0 / abs(wkb.q_potential(ell, m, 0.0)) ** 0.25
    assert c_wrong == 0.0
    v = sb.legendre_band(ell, m, m, prof.thetas).values_v[0]
    err_wrong = np.abs(v - c_wrong * prof.y)
    env_wrong = 2.0 * np.expm1(2.0 * prof.err) * abs(c_wrong) * np.abs(prof.q) ** -0.25
    assert np.max(err_wrong) > 100.0 * (np.max(env_wrong) + 1e-12)


def test_normalization_constants_scale_linearly():
    values = []
    for ell in (100, 400, 800):
        r = wkb.band_radius(ell)
        for case in ("2", "inf"):
            for m in wkb.case_window(ell, r, case):
                v0, dv0 = (v[0] for v in sb.normalized_at_zero(ell, int(m)))
                q0 = abs(wkb.q_potential(ell, int(m), 0.0))
                c = v0 * q0**0.25 if (ell + m) % 2 == 0 else dv0 / q0**0.25
                values.append(abs(c) ** 2 / ell)
    assert max(values) / min(values) < 4.0
    assert min(values) > 0.05 and max(values) < 0.5  # ~1/pi^2 in practice


def test_constant_matches_stirling_asymptotics():
    ell = 200
    for case in ("2", "inf"):
        r = wkb.band_radius(ell)
        m = int(wkb.case_window(ell, r, case)[0])
        if (ell + m) % 2:
            m += 1
        v0 = sb.normalized_at_zero(ell, m)[0][0]
        q0 = abs(wkb.q_potential(ell, m, 0.0))
        c = abs(v0 * q0**0.25)
        asym = (q0**0.25 * math.sqrt((2 * ell + 1) / (2 * math.pi**2))
                * (ell + m + 1.0) ** -0.25 * (ell - m + 1.0) ** -0.25)
        assert c == pytest.approx(asym, rel=0.05)


def test_turning_point_rejected_in_approximant():
    with pytest.raises(wkb.TurningPointError):
        wkb.wkb_approximant(10, 9, "inf", r=2, eta1=0.2)


@pytest.mark.parametrize("n_theta", [1, 0, -3])
def test_approximant_refuses_a_grid_without_two_nodes(n_theta):
    # one node would be theta = lo, not the centre that S and E start from:
    # at (100, 90) case 2 it gave S = 0 and a zero envelope at theta = -0.158
    with pytest.raises(ValueError, match="n_theta"):
        wkb.wkb_approximant(100, 90, "2", 10, n_theta=n_theta)


# ---------------------------------------------------------------------------
# Closed-form defect
# ---------------------------------------------------------------------------

def test_defect_matches_second_differences_where_conditioned():
    # moderate |Q| keeps the finite-difference truncation below the defect
    ell, case = 60, "2"
    r = wkb.band_radius(ell)
    m = int(wkb.case_window(ell, r, case)[r // 2])
    prof = wkb.wkb_approximant(ell, m, case, r, n_theta=8001)
    h = prof.thetas[1] - prof.thetas[0]
    d2 = (prof.y[2:] - 2 * prof.y[1:-1] + prof.y[:-2]) / h**2
    fd = -d2 + prof.q[1:-1] * prof.y[1:-1]
    cf = wkb_defect(ell, m, prof.thetas[1:-1], action=prof.action[1:-1])
    assert np.max(np.abs(fd - cf)) < 0.05 * np.max(np.abs(cf))


@pytest.mark.parametrize("case", ["2", "inf"])
def test_defect_computes_the_same_action_itself(case):
    ell = 200
    r = wkb.band_radius(ell)
    m = int(wkb.case_window(ell, r, case)[-1])
    prof = wkb.wkb_approximant(ell, m, case, r, n_theta=401)
    own = wkb_defect(ell, m, prof.thetas)
    given = wkb_defect(ell, m, prof.thetas, action=prof.action)
    assert np.max(np.abs(own - given)) <= 1e-9 * np.max(np.abs(given))


def test_defect_relative_size_decays_with_band_radius():
    sups = {}
    for ell in (100, 400):
        r = wkb.band_radius(ell)
        m = int(wkb.case_window(ell, r, "2")[r // 2])
        prof = wkb.wkb_approximant(ell, m, "2", r)
        cf = wkb_defect(ell, m, prof.thetas, action=prof.action)
        sups[ell] = np.max(np.abs(cf) / np.abs(prof.q) ** 0.75)
    assert sups[400] < sups[100] / 2.0
