"""Exponential-sum bounds for monotone, separated phase increments.

A finite phase sequence Phi_0..Phi_K whose consecutive increments are
monotone and confined to [eps, 2 pi - eps] satisfies

    |sum_k exp(i Phi_k)| <= cot(eps / 4),

by summation by parts against a telescoping cotangent sum.  The increments
may be monotone in either direction: reversing the sequence leaves the
modulus unchanged, so :func:`cluster_phase_sum` accepts both orderings
when it flags monotonicity.

The cluster phase sums Phi_m = 2 S_{l,m}(theta) + m pi fall into this
regime: increments are non-increasing in m because sqrt is concave and
|Q_{l,m}| is affine in m^2, and they are pinned near pi by the window
geometry.  That uniform bound is what makes sums of squared harmonics over
a window behave like their non-oscillatory part.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .wkb_engine import (DEFAULT_ETA1, DEFAULT_ETA2, action_values,
                         case_interval, case_window, normalize_case)

# slack for monotonicity of the increments, closed-form action differences
_MONOTONE_TOL = 1e-9


def kuzmin_landau_bound(eps: float) -> float:
    """cot(eps/4); diverges like 4/eps as eps -> 0+."""
    if not 0.0 < eps <= math.pi:
        raise ValueError("eps must lie in (0, pi]")
    return 1.0 / math.tan(eps / 4.0)


class PhaseSumCheck(NamedTuple):
    total: complex
    bound_holds: bool
    monotone: bool
    separated: bool
    # |total| / cot(min(margin, pi) / 4), the headroom under the bound; nan
    # where the increments are not separated
    bound_ratio: float


def cluster_phase_sum(ell: int, case_tag, r: int, eta1: float = DEFAULT_ETA1,
                      eta2: float = DEFAULT_ETA2, theta: float = 0.0) -> PhaseSumCheck:
    """Sum exp(i (2 S_{l,m}(theta) + m pi)) over the case window, with flags.

    Flags report (a) monotonicity of the increments in m, either way,
    (b) separation of every increment from 0 and 2 pi, and (c) whether
    |sum| respects the cotangent bound at the observed separation, up to
    the float sum's rounding: a factor 1 + (K + 1) 2^-52 for K + 1 terms.
    At theta = 0 with odd r the sum is 1 = cot(pi/4), the bound's equality
    case, and holds only by that allowance.  They are the one check of the
    bound's hypotheses and never raise; the phase-sum experiment requires
    all three at every sampled angle.
    """
    case = normalize_case(case_tag)
    lo, hi = case_interval(ell, r, case, eta1, eta2)
    if not lo <= theta <= hi:
        raise ValueError(f"theta={theta} outside the case-{case} interval")
    ms = case_window(ell, r, case)
    actions = action_values(ell, ms, theta)
    phases = 2.0 * actions + math.pi * ms
    total = complex(np.exp(1j * phases).sum())

    h = np.diff(phases)
    dh = np.diff(h)
    monotone = bool(np.all(dh <= _MONOTONE_TOL) or np.all(dh >= -_MONOTONE_TOL))
    margin = float(min(h.min(), 2.0 * math.pi - h.max())) if h.size else math.pi
    separated = margin > 0.0
    ratio = abs(total) / kuzmin_landau_bound(min(margin, math.pi)) if separated else math.nan
    bound_holds = monotone and ratio <= 1.0 + ms.size * 2.0**-52
    return PhaseSumCheck(total, bound_holds, monotone, separated, ratio)
