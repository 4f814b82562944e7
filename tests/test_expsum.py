import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sclab import expsum as es
from sclab import wkb_engine as wkb


# ---------------------------------------------------------------------------
# Cotangent bound
# ---------------------------------------------------------------------------

def test_bound_at_pi_is_one():
    assert es.kuzmin_landau_bound(math.pi) == pytest.approx(1.0, rel=1e-12)


def test_bound_at_half_pi_closed_form():
    assert es.kuzmin_landau_bound(math.pi / 2) == pytest.approx(
        1.0 + math.sqrt(2.0), rel=1e-12)


def test_bound_small_eps_asymptote():
    eps = 1e-4
    assert es.kuzmin_landau_bound(eps) * eps / 4.0 == pytest.approx(1.0, abs=1e-6)


def test_bound_domain():
    for bad in (0.0, -1.0, math.pi + 0.1):
        with pytest.raises(ValueError):
            es.kuzmin_landau_bound(bad)


# ---------------------------------------------------------------------------
# Phase sequences
# ---------------------------------------------------------------------------

def test_sequence_accepts_both_monotone_directions():
    eps = 0.4
    inc = np.array([1.5, 1.2, 1.0, 0.8, 0.5])
    seq = es.PhaseSequence(np.concatenate([[0.0], np.cumsum(inc)]), eps)
    assert seq.direction == -1
    seq = es.PhaseSequence(np.concatenate([[0.0], np.cumsum(inc[::-1])]), eps)
    assert seq.direction == +1


def test_sequence_rejections():
    with pytest.raises(ValueError):  # mixed monotonicity
        es.PhaseSequence(np.array([0.0, 1.0, 1.5, 2.8]), 0.3)
    with pytest.raises(ValueError):  # increment below eps
        es.PhaseSequence(np.array([0.0, 0.1, 0.2]), 0.3)
    with pytest.raises(ValueError):  # increment above 2 pi - eps
        es.PhaseSequence(np.array([0.0, 6.2]), 0.3)
    with pytest.raises(ValueError):  # eps out of range
        es.PhaseSequence(np.array([0.0, 1.0]), 4.0)
    with pytest.raises(ValueError):  # too short
        es.PhaseSequence(np.array([1.0]), 0.5)


def test_alternating_sum_stays_below_one():
    seq = es.PhaseSequence(np.arange(6) * math.pi, math.pi)
    assert abs(es.exp_sum(seq)) <= 1.0
    assert abs(es.exp_sum(seq)) == pytest.approx(0.0, abs=1e-12)


def test_geometric_progression_closed_form():
    eps, k = 0.3, 1000
    seq = es.PhaseSequence(np.arange(k + 1) * eps, eps)
    total = es.exp_sum(seq)
    closed = abs(math.sin((k + 1) * eps / 2.0) / math.sin(eps / 2.0))
    assert abs(total) == pytest.approx(closed, abs=1e-9)
    assert abs(total) <= es.kuzmin_landau_bound(eps)


@given(
    st.floats(0.05, math.pi),
    st.integers(1, 80),
    st.booleans(),
    st.floats(0.0, 2.0 * math.pi),
    st.integers(0, 2**31 - 1),
)
# eps = pi: every increment is pi and the bound cot(pi/4) = 1 is attained
@example(eps=math.pi, k=12, descending=False, phase0=1.0, seed=0)
def test_cotangent_bound_property(eps, k, descending, phase0, seed):
    rng = np.random.default_rng(seed)
    inc = np.sort(rng.uniform(eps, 2.0 * math.pi - eps, k))
    if descending:
        inc = inc[::-1]
    phases = phase0 + np.concatenate([[0.0], np.cumsum(inc)])
    seq = es.PhaseSequence(phases, eps)
    # where the bound is attained, the float sum of k + 1 unit terms may
    # exceed it by roundoff: allow (k + 1) ulps of the bound
    bound = es.kuzmin_landau_bound(eps)
    assert abs(es.exp_sum(seq)) <= bound * (1.0 + (k + 1) * 2.0**-52)


# ---------------------------------------------------------------------------
# Cluster phase sums
# ---------------------------------------------------------------------------

def test_cluster_sum_at_zero_angle():
    res = es.cluster_phase_sum(100, "2", 10, theta=0.0)
    assert abs(res.total) <= 1.0 + 1e-12
    assert res.monotone and res.separated and res.bound_holds


def test_cluster_sum_rejects_theta_outside_interval():
    with pytest.raises(ValueError):
        es.cluster_phase_sum(100, "2", 10, theta=1.0)


@pytest.mark.parametrize("case", ["2", "inf"])
def test_cluster_sum_uniformly_bounded(case):
    maxima = []
    for ell in (100, 400):
        r = wkb.band_radius(ell)
        _, hi = wkb.case_interval(ell, r, case)
        best = 0.0
        for theta in np.linspace(0.0, hi, 12):
            res = es.cluster_phase_sum(ell, case, r, theta=float(theta))
            assert res.monotone and res.separated and res.bound_holds
            best = max(best, abs(res.total))
        maxima.append(best)
    assert max(maxima) / min(maxima) < 2.0
    assert max(maxima) < 2.0  # observed ~1.03 with the default windows


@pytest.mark.parametrize("case", ["2", "inf"])
def test_increment_concavity(case):
    # (sqrt|Q_{m+1}| + sqrt|Q_{m-1}|)/2 <= sqrt|Q_m| pointwise on the interval
    ell = 150
    r = wkb.band_radius(ell)
    lo, hi = wkb.case_interval(ell, r, case)
    thetas = np.linspace(lo, hi, 41)
    for m in wkb.case_window(ell, r, case)[1:-1]:
        roots = [np.sqrt(-wkb.q_potential(ell, int(m + d), thetas))
                 for d in (-1, 0, 1)]
        assert np.all(0.5 * (roots[0] + roots[2]) <= roots[1] + 1e-12)


@pytest.mark.parametrize("case", ["2", "inf"])
def test_increment_separation_stable_in_degree(case):
    # fitted deficit constants pi - min(h) stay put as the degree grows
    deficits = {}
    for ell in (200, 800):
        r = wkb.band_radius(ell)
        _, hi = wkb.case_interval(ell, r, case)
        h = es.phase_increments(ell, case, r, theta=0.9 * hi)
        assert np.all(h > 2.0) and np.all(h <= math.pi + 1e-12)
        deficits[ell] = math.pi - float(h.min())
    assert 0.7 < deficits[200] / deficits[800] < 1.4


def test_increments_match_action_differences():
    ell, r, theta = 120, 11, 0.05
    h = es.phase_increments(ell, "2", r, theta=theta)
    window = wkb.case_window(ell, r, "2")
    actions = [wkb.action_integral(ell, int(m), theta) for m in window]
    manual = 2.0 * np.diff(actions) + math.pi
    assert np.allclose(h, manual, rtol=1e-10)
