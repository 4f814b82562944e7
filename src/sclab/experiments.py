"""Configuration-driven experiment sweeps with CSV/JSON reporting.

Each experiment is a named runner taking an :class:`ExperimentConfig` and
returning pass/fail checks plus CSV rows.  Config files are flat key-value
text (``key = value``; '#' comments), ranges are comma lists, and a fixed
seed makes every run byte-reproducible.  All asymptotic claims are tested
as log-log slopes or as boundedness of compensated ratios; constants are
fitted, never asserted.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import cluster_density as cd
from . import expsum as es
from . import schatten_lab as sl
from . import sphere_basis as sb
from . import wkb_engine as wkb

SCHEMA_VERSION = 1

class ConfigError(ValueError):
    """Malformed experiment configuration, with a line/field diagnostic."""


@dataclass
class ExperimentConfig:
    experiment: str
    ell_range: list | None = None
    lambda_range: list | None = None
    zeta: float = 0.5
    eta1: float = wkb.DEFAULT_ETA1
    eta2: float = wkb.DEFAULT_ETA2
    p_list: list | None = None
    seed: int = 0
    output: str | None = None

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENT_NAMES:
            raise ConfigError(
                f"field 'experiment': unknown experiment {self.experiment!r}"
            )
        if not 0.0 < self.zeta < 1.0:
            raise ConfigError(f"field 'zeta': must lie in (0, 1), got {self.zeta}")
        # the window ranges of the theory (see sclab.wkb_engine)
        if not self.eta1 > 2.0:
            raise ConfigError(f"field 'eta1': must exceed 2, got {self.eta1}")
        if not 0.0 < self.eta2 < math.sqrt(2.0):
            raise ConfigError(f"field 'eta2': must lie in (0, sqrt 2), got {self.eta2}")
        if self.seed < 0:
            raise ConfigError(f"field 'seed': must be nonnegative, got {self.seed}")
        for name in ("ell_range", "lambda_range", "p_list"):
            value = getattr(self, name)
            if value is not None and len(value) == 0:
                raise ConfigError(f"field '{name}': must be nonempty when given")
        return self


_INT_FIELDS = {"seed"}
_FLOAT_FIELDS = {"zeta", "eta1", "eta2"}
_LIST_FIELDS = {"ell_range", "lambda_range", "p_list"}
_STR_FIELDS = {"experiment", "output"}


def _parse_number(token: str):
    """An int where the token is written as one, else a float; nan is refused."""
    value = float(token)
    if math.isnan(value):
        raise ValueError(f"not a number: {token.strip()!r}")
    return value if math.isinf(value) or "e" in token.lower() or "." in token else int(value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key-value config text; unknown or repeated keys fail with line numbers."""
    known = {f.name for f in fields(ExperimentConfig)}
    data, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            if key in _STR_FIELDS:
                data[key] = value
            elif key in _INT_FIELDS:
                data[key] = int(value)
            elif key in _FLOAT_FIELDS:
                data[key] = float(value)
            elif key in _LIST_FIELDS:
                data[key] = [_parse_number(tok) for tok in value.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: field {key!r}: {exc}") from None
    if "experiment" not in data:
        raise ConfigError("missing required key 'experiment'")
    return ExperimentConfig(**data).validate()


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# Checks and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One acceptance line: measured vs predicted at a tolerance.

    For slope-style checks ``passed`` means |measured - predicted| <= tol;
    for bound-style checks predicted is the cap and tol repeats it, with
    measured <= tol required.  ``passed`` is computed by the producer.
    """

    name: str
    predicted: float
    measured: float
    tol: float
    passed: bool


def slope_check(name: str, predicted: float, measured: float, tol: float) -> Check:
    predicted, measured, tol = float(predicted), float(measured), float(tol)
    return Check(name, predicted, measured, tol,
                 bool(abs(measured - predicted) <= tol))


def bound_check(name: str, measured: float, cap: float) -> Check:
    measured, cap = float(measured), float(cap)
    return Check(name, cap, measured, cap, bool(measured <= cap))


def flag_check(name: str, ok: bool) -> Check:
    return Check(name, 1.0, 1.0 if ok else 0.0, 0.0, bool(ok))


@dataclass
class AcceptanceReport:
    experiment: str
    seed: int
    checks: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "seed": self.seed,
            "checks": [
                {"check": c.name, "predicted": c.predicted, "measured": c.measured,
                 "tol": c.tol, "pass": c.passed}
                for c in self.checks
            ],
        }


def format_rows(header, rows) -> str:
    """RFC-4180 CSV text for the given rows (floats via shortest repr)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([
            repr(float(v)) if isinstance(v, (float, np.floating)) else v
            for v in row
        ])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Slope fitting
# ---------------------------------------------------------------------------

def fit_slope(points) -> tuple[float, float]:
    """Least-squares slope of log y against log x, with its standard error.

    Requires at least four points with strictly increasing positive x and
    positive y; fewer points cannot support the error estimate.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 4:
        raise ValueError("need at least 4 points for a slope fit")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive coordinates")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("x must be strictly increasing")
    lx, ly = np.log(xs), np.log(ys)
    lx_c = lx - lx.mean()
    slope = float(np.dot(lx_c, ly) / np.dot(lx_c, lx_c))
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (slope * lx + intercept)
    dof = len(pts) - 2
    stderr = float(np.sqrt(np.dot(resid, resid) / dof / np.dot(lx_c, lx_c)))
    return slope, stderr


def _fit_range(cfg: ExperimentConfig, name: str, default) -> list:
    """The swept range in field ``name``, checked for a log-log slope fit.

    fit_slope needs at least four strictly increasing positive abscissae;
    a range that cannot give them is a ConfigError naming the field.
    """
    values = list(getattr(cfg, name) or default)
    if len(values) < 4:
        raise ConfigError(f"field '{name}': a slope fit needs at least 4 values, "
                          f"got {len(values)}")
    if values[0] <= 0 or any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"field '{name}': values must be positive and "
                          f"strictly increasing, got {values}")
    return values


def _degrees(values) -> list[int]:
    """ell_range values as degrees: integers l >= 1, else a ConfigError."""
    if not all(math.isfinite(v) and v >= 1 and v == int(v) for v in values):
        raise ConfigError(f"field 'ell_range': degrees must be integers >= 1, "
                          f"got {values}")
    return [int(v) for v in values]


def _wkb_band_radius(cfg: ExperimentConfig, ell: int) -> int:
    """Window width r = ceil(l^zeta) at a degree of ell_range.

    Both windows need 1 <= r <= l/2 and the case-inf interval
    pi/2 - eta1 r/l must be nonempty, else a ConfigError naming ell_range.
    The case-2 interval eta2 sqrt(r/l) then lies in (0, 1), as validation
    keeps eta2 < sqrt 2.
    """
    r = wkb.band_radius(ell, cfg.zeta)
    if r > ell // 2:
        raise ConfigError(f"field 'ell_range': no window fits at l = {ell}: "
                          f"r = ceil(l^zeta) = {r} at zeta = {cfg.zeta} "
                          f"exceeds l/2")
    if cfg.eta1 * r / ell >= math.pi / 2:
        raise ConfigError(f"field 'ell_range': the case-inf interval "
                          f"pi/2 - eta1 r/l is empty at l = {ell}, r = {r} "
                          f"(eta1 = {cfg.eta1})")
    return r


def _oscillatory_radii(cfg: ExperimentConfig, ells) -> list[int]:
    """_wkb_band_radius per degree; both windows must keep Q_{l,m} < 0 on their intervals."""
    radii = [_wkb_band_radius(cfg, ell) for ell in ells]
    for ell, r in zip(ells, radii):
        for case in ("2", "inf"):
            if wkb.window_q_bounds(ell, r, case, cfg.eta1, cfg.eta2)[1] <= 0:
                raise ConfigError(
                    f"field 'ell_range': the case-{case} window is not oscillatory "
                    f"on its interval at l = {ell}, r = {r} (zeta = {cfg.zeta}, "
                    f"eta1 = {cfg.eta1}, eta2 = {cfg.eta2})")
    return radii


def _exponent_list(cfg: ExperimentConfig, default) -> list:
    """p_list (or ``default``): exponents p >= 2, inf allowed."""
    p_list = list(cfg.p_list or default)
    if not all(p >= 2 for p in p_list):
        raise ConfigError(f"field 'p_list': exponents must satisfy p >= 2, "
                          f"got {p_list}")
    return p_list


def _cluster_lambdas(values) -> list[float]:
    """lambda_range values as finite floats, each with a nonempty spectral cluster."""
    lams = [float(v) for v in values]
    for lam in lams:
        if not math.isfinite(lam):
            raise ConfigError(f"field 'lambda_range': values must be finite, "
                              f"got {lam}")
        if lam < 1 or not sb.cluster_rank(lam)[0]:
            raise ConfigError("field 'lambda_range': no degree l with "
                              f"lam^2 <= l(l+1) < (lam+1)^2 at lam = {lam}")
    return lams


def _int_geomspace(lo: float, hi: float, n: int) -> list[int]:
    vals = sorted({int(round(v)) for v in np.geomspace(lo, hi, n)})
    return vals


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------

def reference_weight(theta, phi):
    """The fixed smooth weight W used by the projector experiments."""
    return np.exp(-2.0 * (np.cos(theta) - 0.3) ** 2) * (
        1.0 + 0.3 * np.sin(theta) * np.cos(phi)
    )


def _cluster_grid(lam: float) -> sb.SphereGrid:
    ells, _ = sb.cluster_rank(lam)
    lmax = max(ells)
    return sb.build_grid(lmax + 12, 2 * lmax + 16)


def _lower_slope_prediction(case: str, p: float, zeta: float) -> float:
    if case == "2":
        return (0.5 - 1.0 / p) + zeta * (0.5 + 1.0 / p)
    inv = 0.0 if math.isinf(p) else 4.0 / p
    return (1.0 - inv) + zeta * inv


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def run_weyl(cfg: ExperimentConfig):
    bounds = cfg.lambda_range or [10.0, 300.0]
    if len(bounds) != 2 or not 0 < bounds[0] < bounds[1] < math.inf:
        raise ConfigError("field 'lambda_range': weyl sweeps between two finite "
                          f"values 0 < lo < hi, got {bounds}")
    lo, hi = bounds
    lams = np.geomspace(lo, hi, 25)
    counts = [sb.weyl_count(lam) for lam in lams]
    slope, _ = fit_slope(zip(lams, counts))
    ratio_top = counts[-1] / lams[-1] ** 2
    checks = [
        slope_check("weyl-count-slope", 2.0, slope, 0.02),
        slope_check("weyl-leading-coefficient", 1.0, ratio_top, 0.05),
    ]
    rows = [(float(lam), count, count / lam**2) for lam, count in zip(lams, counts)]
    return checks, rows, ("lambda", "count", "count_over_lambda_sq")


def run_sogge_single(cfg: ExperimentConfig):
    ells = _degrees(_fit_range(cfg, "ell_range", _int_geomspace(32, 512, 7)))
    norms = []
    for ell in ells:
        grid = sb.build_grid(max(4 * ell, 64))
        table = sb.legendre_band(ell, ell, ell, math.pi / 2 - grid.theta_nodes)
        norms.append(cd.lp_norm(np.abs(table.values_g[0]), 6.0,
                                2.0 * math.pi * grid.theta_weights))
    slope, _ = fit_slope(zip(ells, norms))
    s6, _ = cd.exponents(6.0)
    checks = [slope_check("sogge-single-L6-slope", s6, slope, 0.03)]
    rows = [(ell, norm) for ell, norm in zip(ells, norms)]
    return checks, rows, ("ell", "l6_norm")


def run_cluster_lower(cfg: ExperimentConfig):
    ells = _degrees(_fit_range(cfg, "ell_range", _int_geomspace(100, 800, 7)))
    zeta = cfg.zeta
    case_plists = {
        "2": _exponent_list(cfg, [2.0, 4.0, 6.0]),
        "inf": _exponent_list(cfg, [6.0, 8.0, math.inf]),
    }
    # the case-inf prediction is the saturating branch, which holds for p >= 6
    if min(case_plists["inf"]) < 6.0:
        raise ConfigError(f"field 'p_list': the case-inf slope prediction holds "
                          f"for p >= 6, got {case_plists['inf']}")
    radii = [_wkb_band_radius(cfg, ell) for ell in ells]
    profiles = {}
    for ell, r in zip(ells, radii):
        grid = sb.build_grid(4 * ell)
        for case in ("2", "inf"):
            profiles[(ell, case)] = cd.density(cd.ClusterSpec(ell, r, case), grid)

    checks, rows = [], []
    for case, p_list in case_plists.items():
        for p in p_list:
            norms = [profiles[(ell, case)].norm(p) for ell in ells]
            predicted = _lower_slope_prediction(case, p, zeta)
            slope, _ = fit_slope(zip(ells, norms))
            checks.append(
                slope_check(f"lower-slope-case{case}-p{p}", predicted, slope, 0.07)
            )
            for ell, norm in zip(ells, norms):
                rows.append((ell, wkb.band_radius(ell, zeta), case,
                             float(p), norm, predicted, slope))

    # pointwise window constants (fitted, stability asserted)
    window_ells = [ell for ell in (200, 400, 800) if ell in ells] or ells[-3:]
    c2s, cinfs = [], []
    for ell in window_ells:
        r = wkb.band_radius(ell, zeta)
        prof2 = profiles[(ell, "2")]
        sel2 = np.abs(math.pi / 2 - prof2.thetas) <= cfg.eta2 * math.sqrt(r / ell)
        c2s.append(float(np.min(prof2.rho[sel2]) / math.sqrt(ell * r)))
        profi = profiles[(ell, "inf")]
        seli = (profi.thetas >= cfg.eta1 * r / ell) & (profi.thetas <= math.pi / 2)
        cinfs.append(float(np.min(profi.rho[seli] * np.sin(profi.thetas[seli])) / r))
    checks.append(flag_check("window-constants-positive",
                             min(c2s) > 0 and min(cinfs) > 0))
    checks.append(bound_check("window-constant-variation-case2",
                              max(c2s) / min(c2s), 2.0))
    checks.append(bound_check("window-constant-variation-caseinf",
                              max(cinfs) / min(cinfs), 2.0))

    # concentration-set estimate on the extremal profiles
    ell_c = 400 if 400 in ells else ells[len(ells) // 2]
    for case, p in (("2", 6.0), ("inf", 8.0)):
        lower, measured = cd.concentration_measure(profiles[(ell_c, case)], p)
        checks.append(flag_check(f"concentration-case{case}-p{p}",
                                 measured >= lower))

    # triangle-inequality gap: naive bound over measured norm grows like
    # l^{zeta (1 - 1/alpha(6))} on the case-2 family
    s6, alpha6 = cd.exponents(6.0)
    gap = [ell ** (2 * s6) * wkb.band_radius(ell, zeta)
           / profiles[(ell, "2")].norm(6.0) for ell in ells]
    gap_slope, _ = fit_slope(zip(ells, gap))
    checks.append(slope_check("triangle-gap-slope",
                              zeta * (1.0 - 1.0 / alpha6), gap_slope, 0.07))
    header = ("ell", "r", "case", "p", "norm", "predicted_exponent", "fitted_slope")
    return checks, rows, header


CLUSTER_UPPER_RATIO_CAP = 2.5  # frozen after the calibration sweep


def run_cluster_upper(cfg: ExperimentConfig):
    lams = _cluster_lambdas(cfg.lambda_range or [5, 10, 20, 35, 50])
    p_list = _exponent_list(cfg, [2.0, 4.0, 6.0, 10.0, math.inf])
    rng = np.random.default_rng(cfg.seed)
    rows, worst = [], {p: 0.0 for p in p_list}
    for lam in lams:
        grid = _cluster_grid(lam)
        _, dim = sb.cluster_rank(lam)
        n_funcs = max(1, dim // 2)
        rho, nu, weights = cd.random_cluster_density(lam, n_funcs, rng, grid)
        for p in p_list:
            s, alpha = cd.exponents(p)
            denom = lam ** (2 * s) * cd.lp_norm(nu, alpha)
            ratio = cd.lp_norm(rho, p / 2.0, weights) / denom
            worst[p] = max(worst[p], ratio)
            rows.append((lam, float(p), ratio))
    checks = [bound_check(f"upper-ratio-p{p}", worst[p], CLUSTER_UPPER_RATIO_CAP)
              for p in p_list]
    return checks, rows, ("lambda", "p", "ratio")


WKB_SINGLE_C_CAP = 4.0  # |c|^2/l spread, both windows pooled


def run_wkb_accuracy(cfg: ExperimentConfig):
    ells = _degrees(cfg.ell_range or [100, 200, 400, 800])
    radii = _oscillatory_radii(cfg, ells)
    checks, rows = [], []
    pooled_c = []
    for case in ("2", "inf"):
        metrics, sup_errs = [], []
        for ell, r in zip(ells, radii):
            window = wkb.case_window(ell, r, case)
            sampled = {int(window[0]), int(window[window.size // 2]), int(window[-1])}
            worst_metric, worst_e = 0.0, 0.0
            for m in sorted(sampled):
                prof = wkb.wkb_approximant(ell, m, case, r, cfg.eta1, cfg.eta2)
                v = sb.legendre_band(ell, m, m, prof.thetas).values_v[0]
                metric = float(np.max(
                    np.abs(v - prof.c * prof.y) * np.abs(prof.q) ** 0.25
                    / abs(prof.c)))
                worst_metric = max(worst_metric, metric)
                worst_e = max(worst_e, float(prof.err.max()))
                rows.append((ell, case, m, metric, float(prof.err.max()),
                             abs(prof.c) ** 2 / ell))
            metrics.append(worst_metric * r)
            sup_errs.append(worst_e * r)
            pooled_c.extend(
                float(np.abs(c) ** 2) / ell
                for c in wkb.matching_constants(ell, window)
            )
        checks.append(bound_check(f"wkb-metric-variation-case{case}",
                                  max(metrics) / min(metrics), 3.0))
        checks.append(bound_check(f"wkb-error-functional-variation-case{case}",
                                  max(sup_errs) / min(sup_errs), 3.0))
    checks.append(bound_check("normalization-constant-spread",
                              max(pooled_c) / min(pooled_c), WKB_SINGLE_C_CAP))
    header = ("ell", "case", "m", "sup_err_metric", "sup_error_functional",
              "c_sq_over_ell")
    return checks, rows, header


def run_phase_sums(cfg: ExperimentConfig):
    ells = _degrees(cfg.ell_range or [100, 200, 400, 700, 1000])
    radii = _oscillatory_radii(cfg, ells)
    checks, rows = [], []
    for case in ("2", "inf"):
        amplitudes = []
        all_flags = True
        for ell, r in zip(ells, radii):
            _, hi = wkb.case_interval(ell, r, case, cfg.eta1, cfg.eta2)
            best = 0.0
            for theta in np.linspace(0.0, hi, 50):
                res = es.cluster_phase_sum(ell, case, r, cfg.eta1, cfg.eta2,
                                           float(theta))
                best = max(best, abs(res.total))
                all_flags &= res.monotone and res.separated and res.bound_holds
                rows.append((ell, case, float(theta), abs(res.total),
                             int(res.monotone), int(res.separated),
                             int(res.bound_holds)))
            amplitudes.append(best)
        checks.append(bound_check(f"phase-sum-variation-case{case}",
                                  max(amplitudes) / min(amplitudes), 2.0))
        checks.append(flag_check(f"phase-sum-flags-case{case}", all_flags))

    # tie the batched cluster sum back to per-order action integrals
    ell, r = ells[-1], radii[-1]
    theta = 0.5 * wkb.case_interval(ell, r, "2", cfg.eta1, cfg.eta2)[1]
    window = wkb.case_window(ell, r, "2")
    actions = np.array([wkb.action_integral(ell, int(m), theta) for m in window])
    direct = complex(np.exp(1j * (2.0 * actions + math.pi * window)).sum())
    res = es.cluster_phase_sum(ell, "2", r, cfg.eta1, cfg.eta2, theta)
    agree = abs(direct - res.total) <= 1e-12 * max(1.0, abs(direct))
    checks.append(flag_check("phase-sum-matches-exp-sum",
                             agree and res.bound_holds))
    header = ("ell", "case", "theta", "abs_sum", "monotone", "separated",
              "bound_holds")
    return checks, rows, header


def _spectra_files(cfg: ExperimentConfig, lams) -> dict:
    """lambda -> its singular-value file under output/spectra; {} without output.

    A file is named by the experiment and {lambda:g}, so two lambda_range
    values that print alike would share one file and one spectrum would be
    lost: a ConfigError naming the field, raised before any work.
    """
    if not cfg.output:
        return {}
    files = {lam: os.path.join(cfg.output, "spectra",
                               f"{cfg.experiment}_lambda{lam:g}.csv") for lam in lams}
    if len(set(files.values())) < len(lams):
        raise ConfigError(f"field 'lambda_range': values {list(lams)} repeat a "
                          "spectra file name (lambda printed with 6 significant digits)")
    return files


def _dump_spectra(files: dict, spectra: dict) -> None:
    """Write each lambda's singular values to its file from :func:`_spectra_files`."""
    for lam, path in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        sigma = np.asarray(spectra[lam], dtype=float)
        with open(path, "w", newline="") as fh:
            fh.write(format_rows(("k", "sigma"), list(enumerate(sigma))))


def run_schatten_dual(cfg: ExperimentConfig):
    lams = _cluster_lambdas(cfg.lambda_range or [5, 10, 15, 20, 25, 30, 40])
    p_list = _exponent_list(cfg, [4.0, 6.0, 10.0])
    files = _spectra_files(cfg, lams)
    checks, rows = [], []
    spectra = {lam: sl.projector_gram(lam, reference_weight, _cluster_grid(lam))
               for lam in lams}
    _dump_spectra(files, spectra)
    for p in p_list:
        ratios = []
        for lam in lams:
            report = sl.make_report(lam, p, spectra[lam])
            ratios.append(report.ratio)
            rows.append((lam, float(p), report.alpha_prime,
                         report.schatten_norm, report.ratio))
        tail = ratios[-max(3, len(ratios) // 2):]
        checks.append(bound_check(f"dual-ratio-tail-p{p}",
                                  max(tail) / min(tail), 2.0))
    return checks, rows, ("lambda", "p", "alpha_prime", "schatten_norm", "ratio")


def run_oscillatory_scaling(cfg: ExperimentConfig):
    lams = [float(v) for v in (cfg.lambda_range or [4, 8, 16, 32, 64])]
    if not all(0.0 < lam < math.inf for lam in lams):
        raise ConfigError("field 'lambda_range': frequencies must be positive "
                          f"and finite, got {lams}")
    files = _spectra_files(cfg, lams)
    checks, rows = [], []
    compensated = []
    spectra = {}
    for lam in lams:
        sv = sl.gram_singular_values(sl.paraboloid_model(lam).gram)
        spectra[lam] = sv[:40]
        norm = cd.lp_norm(sv, 6.0)
        eta = norm * lam ** (1.0 / 3.0)
        compensated.append(eta)
        rows.append((lam, 6.0, 6.0, norm, eta))
    _dump_spectra(files, spectra)
    checks.append(bound_check("oscillatory-paraboloid-variation",
                              max(compensated) / min(compensated), 2.0))
    ok, _ = sl.validate_resolution(sl.paraboloid_model, max(lams))
    checks.append(flag_check("oscillatory-resolution-validated", ok))
    return checks, rows, ("lambda", "p", "alpha_prime", "schatten_norm", "ratio")


def run_kss_compare(cfg: ExperimentConfig):
    lams = _cluster_lambdas(_fit_range(cfg, "lambda_range",
                                       [6, 9, 14, 20, 30, 44, 60]))
    p_list = cfg.p_list or [6.0]
    if len(p_list) != 1 or not 2.0 < p_list[0] < math.inf:
        raise ConfigError("field 'p_list': kss_compare takes one exponent "
                          f"2 < p < inf, got {p_list}")
    p = float(p_list[0])
    s_p, _ = cd.exponents(p)
    q = 2.0 * p / (p - 2.0)
    measured, rhss, mains, ksss, rows = [], [], [], [], []
    for lam in lams:
        grid = _cluster_grid(lam)
        ells, _ = sb.cluster_rank(lam)
        beta = (lambda lo: (lambda t: 1.0 if lo <= t < lo + 1.0 else 0.0))(lam)
        lhs, rhs = sl.kss_bound(beta, reference_weight, p, grid, max(ells) + 1)
        thetas, phis = grid.mesh()
        w_q = cd.lp_norm(np.abs(reference_weight(thetas, phis)), q,
                         grid.surface_weights())
        measured.append(lhs)
        rhss.append(rhs)
        mains.append(lam**s_p * w_q)
        ksss.append((1.0 + lam) ** (1.0 / q) * w_q)
    c_main = max(m / b for m, b in zip(measured, mains))
    c_kss = max(m / b for m, b in zip(measured, ksss))
    ratios = [c_main * m / (c_kss * k) for m, k in zip(mains, ksss)]
    slope, _ = fit_slope(zip(lams, ratios))
    predicted = s_p - 1.0 / q
    checks = [
        slope_check("kss-ratio-slope", predicted, slope, 0.1),
        # kss_bound's own right-hand side, with SPHERE_WEYL_CONST fixed in
        # advance: c_main and c_kss are fitted to the measurements
        flag_check("kss-bounds-hold", all(m <= r for m, r in zip(measured, rhss))),
    ]
    for lam, m, b, k, rr in zip(lams, measured, mains, ksss, ratios):
        rows.append((lam, m, c_main * b, c_kss * k, rr))
    return checks, rows, ("lambda", "measured", "main_bound", "kss_bound", "ratio")


def run_heuristic_compare(cfg: ExperimentConfig):
    ells = _degrees(cfg.ell_range or [200, 400])
    checks, rows = [], []
    radii = [_wkb_band_radius(cfg, ell) for ell in ells]
    for ell, r in zip(ells, radii):
        grid = sb.build_grid(4 * ell)

        window = wkb.case_window(ell, r, "inf")
        theta_star = 2.0 * cfg.eta1 * r / ell
        prof = cd.density(cd.ClusterSpec(ell, r, "inf"), grid)
        exact = float(np.interp(theta_star, prof.thetas, prof.rho))
        heur = cd.heuristic_density(ell, int(window[0]), int(window[-1]),
                                    theta_star)
        ratio_inf = heur / exact
        rows.append((ell, "inf", theta_star, exact, heur, ratio_inf))
        checks.append(bound_check(f"heuristic-ratio-inf-ell{ell}",
                                  max(ratio_inf, 1.0 / ratio_inf), 2.0))

        window = wkb.case_window(ell, r, "2")
        wavelength = math.pi / math.sqrt(ell * r)
        thetas = np.linspace(math.pi / 2 - wavelength / 2,
                             math.pi / 2 + wavelength / 2, 65)
        prof2 = cd.density(cd.ClusterSpec(ell, r, "2"), grid)
        exact2 = float(np.interp(thetas, prof2.thetas, prof2.rho).mean())
        heur2 = float(cd.heuristic_density(ell, int(window[0]), int(window[-1]),
                                           thetas).mean())
        ratio_2 = heur2 / exact2
        rows.append((ell, "2", math.pi / 2, exact2, heur2, ratio_2))
        checks.append(bound_check(f"heuristic-ratio-2-ell{ell}",
                                  max(ratio_2, 1.0 / ratio_2), 2.0))
    return checks, rows, ("ell", "case", "theta", "exact", "heuristic", "ratio")


RUNNERS = {
    "sogge_single": run_sogge_single,
    "cluster_lower": run_cluster_lower,
    "cluster_upper": run_cluster_upper,
    "wkb_accuracy": run_wkb_accuracy,
    "phase_sums": run_phase_sums,
    "schatten_dual": run_schatten_dual,
    "oscillatory_scaling": run_oscillatory_scaling,
    "kss_compare": run_kss_compare,
    "heuristic_compare": run_heuristic_compare,
    "weyl": run_weyl,
}
EXPERIMENT_NAMES = tuple(RUNNERS)  # the order scripts/run_all_experiments.py runs


def run(config: ExperimentConfig) -> AcceptanceReport:
    """Execute one experiment; write CSV rows and a JSON report if asked."""
    config.validate()
    checks, rows, header = RUNNERS[config.experiment](config)
    report = AcceptanceReport(config.experiment, config.seed, list(checks))
    if config.output:
        os.makedirs(config.output, exist_ok=True)
        csv_path = os.path.join(config.output, f"{config.experiment}.csv")
        with open(csv_path, "w", newline="") as fh:
            fh.write(format_rows(header, rows))
        json_path = os.path.join(config.output, f"{config.experiment}.json")
        with open(json_path, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
