"""Layer spans for the traced run, measured from outside the program.

Every public function of the seven sclab modules is replaced by a timing
wrapper at every place it is bound: in its own module, in each module that
imported it by name (``cluster_density`` binds ``legendre_row``,
``schatten_lab`` binds ``ylm_matrix``), in ``experiments.RUNNERS`` and in
``acceptance.CRITERIA``.  A wrapper records a span only when the call
crosses from one module into another, so a layer's self time includes the
helpers it calls inside its own module (``wkb_approximant`` includes its
``q_potential`` calls, ``ylm_matrix`` its ``legendre_row`` calls).  Runners,
acceptance criteria and the functions that a self-time metric names record
wherever they are called, because their callers often live in the same
module (``validate_resolution`` calls ``distance_model``).  The Legendre
functions are the exception: ``legendre_band`` calls ``legendre_row``, and
the recurrence steps of the group would otherwise be counted twice.

Self time is a span's duration minus the durations of its child spans.
Work counts and byte counts are computed from arguments and result shapes,
so they repeat exactly from run to run; nothing here reads hardware
counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

LAYERS = ("sphere_basis", "wkb_engine", "expsum", "cluster_density",
          "schatten_lab", "experiments", "acceptance")

COMPLEX_BYTES = 16

# metric -> span names whose self times it sums (default: the metric's prefix)
SELF_GROUPS = {
    "sphere_basis.legendre.self_s": ("sphere_basis.legendre_row",
                                     "sphere_basis.legendre_band",
                                     "sphere_basis.legendre_degree_table"),
    "wkb_engine.action.self_s": ("wkb_engine.action_values",
                                 "wkb_engine.action_integral"),
}
SELF_METRICS = (
    "sphere_basis.build_grid.self_s", "sphere_basis.legendre.self_s",
    "sphere_basis.ylm_matrix.self_s", "sphere_basis.normalized_at_zero.self_s",
    "cluster_density.density.self_s", "cluster_density.lp_norm.self_s",
    "cluster_density.random_cluster_density.self_s",
    "wkb_engine.wkb_approximant.self_s", "wkb_engine.action.self_s",
    "expsum.cluster_phase_sum.self_s",
    "schatten_lab.paraboloid_model.self_s", "schatten_lab.distance_model.self_s",
    "schatten_lab.singular_values.self_s", "schatten_lab.projector_gram.self_s",
    "schatten_lab.kss_bound.self_s",
)
ALWAYS_RECORDED = ({m[:-len(".self_s")] for m in SELF_METRICS if m not in SELF_GROUPS}
                   | set(SELF_GROUPS["wkb_engine.action.self_s"]))
CALL_METRICS = {
    "sphere_basis.legendre.calls": SELF_GROUPS["sphere_basis.legendre.self_s"],
    "cluster_density.density.calls": ("cluster_density.density",),
    "wkb_engine.wkb_approximant.calls": ("wkb_engine.wkb_approximant",),
    "expsum.cluster_phase_sum.calls": ("expsum.cluster_phase_sum",),
}
# metric -> key of the computed count that probes report
COUNT_METRICS = {
    "sphere_basis.legendre.steps": "steps",
    "sphere_basis.ylm_matrix.bytes": "ylm_bytes",
    "wkb_engine.wkb_approximant.nodes": "nodes",
    "schatten_lab.matrix_bytes": "matrix_bytes",
}
# metric -> fit series for cost exponents against problem size
EXPONENT_METRICS = {
    "sphere_basis.build_grid.cost_exponent": "build_grid",
    "cluster_density.density_inf.cost_exponent": "density_inf",
    "cluster_density.density_2.cost_exponent": "density_2",
    "schatten_lab.paraboloid_model.cost_exponent": "paraboloid_model",
    "schatten_lab.projector_gram.cost_exponent": "projector_gram",
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Probes: (args, kwargs, result, before) -> computed counts for one span.
# A "fit" entry (series, size) feeds the cost-exponent fits with the span's
# inclusive duration.

def _probe_legendre_row(args, kwargs, result, before):
    m, ell = _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "ell")
    return {"steps": (ell - m + 1) * np.size(_arg(args, kwargs, 2, "x"))}


def _probe_legendre_degree_table(args, kwargs, result, before):
    m, ell_max = _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "ell_max")
    return {"steps": (ell_max - m + 1) * np.size(_arg(args, kwargs, 2, "x"))}


def _probe_legendre_band(args, kwargs, result, before):
    ell = _arg(args, kwargs, 0, "ell")
    m_lo, m_hi = _arg(args, kwargs, 1, "m_lo"), _arg(args, kwargs, 2, "m_hi")
    orders = m_hi - m_lo + 1
    per_node = orders * (ell - m_lo + 1) - orders * (orders - 1) // 2
    return {"steps": per_node * np.size(_arg(args, kwargs, 3, "thetas"))}


def _probe_ylm_matrix(args, kwargs, result, before):
    return {"ylm_bytes": result[0].size * COMPLEX_BYTES}


def _gauss_misses():
    from sclab import sphere_basis
    return sphere_basis._gauss_rule.cache_info().misses


def _probe_build_grid(args, kwargs, result, before):
    if _gauss_misses() > before:
        return {"fit": ("build_grid", _arg(args, kwargs, 0, "n_theta"))}
    return {}


def _probe_density(args, kwargs, result, before):
    spec = _arg(args, kwargs, 0, "spec")
    return {"fit": (f"density_{spec.case_tag}", spec.ell)}


def _probe_wkb_approximant(args, kwargs, result, before):
    return {"nodes": result.thetas.size}


def _probe_model(series):
    def probe(args, kwargs, result, before):
        counts = {"matrix_bytes": result.matrix.size * COMPLEX_BYTES}
        if _arg(args, kwargs, 2, "refine", 1) == 1:
            counts["fit"] = (series, _arg(args, kwargs, 0, "lam"))
        return counts
    return probe


def _probe_singular_values(args, kwargs, result, before):
    return {"matrix_bytes": result.size * result.size * COMPLEX_BYTES}


def _probe_projector_gram(args, kwargs, result, before):
    return {"matrix_bytes": result.size * result.size * COMPLEX_BYTES,
            "fit": ("projector_gram", _arg(args, kwargs, 0, "lam"))}


PROBES = {
    "sphere_basis.legendre_row": _probe_legendre_row,
    "sphere_basis.legendre_degree_table": _probe_legendre_degree_table,
    "sphere_basis.legendre_band": _probe_legendre_band,
    "sphere_basis.ylm_matrix": _probe_ylm_matrix,
    "sphere_basis.build_grid": _probe_build_grid,
    "cluster_density.density": _probe_density,
    "wkb_engine.wkb_approximant": _probe_wkb_approximant,
    "schatten_lab.paraboloid_model": _probe_model("paraboloid_model"),
    "schatten_lab.distance_model": _probe_model("distance_model"),
    "schatten_lab.singular_values": _probe_singular_values,
    "schatten_lab.projector_gram": _probe_projector_gram,
}
BEFORE = {"sphere_basis.build_grid": _gauss_misses}


class Tracer:
    """Spans kept in memory for one pass; ``install`` patches, ``restore`` undoes."""

    def __init__(self):
        self.stack = []      # open spans: [layer, child_seconds]
        self.spans = []      # closed spans: (name, duration, self_time, counts)
        self.root_seconds = 0.0
        self._patched = []   # (setter, old value) pairs for restore

    def _wrap(self, name, layer, func, force=False):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        probe, before_hook = PROBES.get(name), BEFORE.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not force and stack and stack[-1][0] == layer:
                return func(*args, **kwargs)
            before = before_hook() if before_hook else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_seconds += duration
            counts = probe(args, kwargs, result, before) if probe else None
            spans.append((name, duration, duration - frame[1], counts))
            return result

        return traced

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"sclab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(name, layer, obj,
                                               force=name in ALWAYS_RECORDED)
        for label, func in modules["acceptance"].CRITERIA:
            wrappers[func] = self._wrap(f"acceptance.{label[:3]}", "acceptance",
                                        func, force=True)
        for func in modules["experiments"].RUNNERS.values():
            wrappers[func] = self._wrap(f"experiments.{func.__name__}", "experiments",
                                        func, force=True)

        for module in [m for n, m in sys.modules.items()
                       if n == "sclab" or n.startswith("sclab.")]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])
        runners = modules["experiments"].RUNNERS
        for key, func in list(runners.items()):
            self._patched.append((functools.partial(runners.__setitem__, key), func))
            runners[key] = wrappers[func]
        acc = modules["acceptance"]
        self._set(acc, "CRITERIA", tuple((label, wrappers[func])
                                         for label, func in acc.CRITERIA))
        return self

    def _set(self, module, attr, value):
        self._patched.append((functools.partial(setattr, module, attr),
                              getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        for setter, old in reversed(self._patched):
            setter(old)
        self._patched.clear()

    def metrics(self, wall_seconds: float) -> dict:
        """Per-layer metrics of the pass this tracer recorded."""
        from sclab import sphere_basis
        from sclab.experiments import RUNNERS, fit_slope

        self_by_name, incl_by_name, calls_by_name = {}, {}, {}
        counts, fits = dict.fromkeys(COUNT_METRICS.values(), 0), {}
        for name, duration, self_time, probe_counts in self.spans:
            self_by_name[name] = self_by_name.get(name, 0.0) + self_time
            incl_by_name[name] = incl_by_name.get(name, 0.0) + duration
            calls_by_name[name] = calls_by_name.get(name, 0) + 1
            for key, value in (probe_counts or {}).items():
                if key == "fit":
                    series, size = value
                    fits.setdefault(series, {}).setdefault(size, []).append(duration)
                else:
                    counts[key] += value

        out = {}
        for metric in SELF_METRICS:
            names = SELF_GROUPS.get(metric, (metric[:-len(".self_s")],))
            out[metric] = sum(self_by_name.get(n, 0.0) for n in names)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for n, v in self_by_name.items()
                                         if n.split(".")[0] == layer)
        for metric, names in CALL_METRICS.items():
            out[metric] = sum(calls_by_name.get(n, 0) for n in names)
        for metric, key in COUNT_METRICS.items():
            out[metric] = counts[key]
        for metric, series in EXPONENT_METRICS.items():
            by_size = fits.get(series, {})
            sizes = sorted(by_size)
            # fewer than four sizes cannot be fitted; 0 marks "not exercised"
            out[metric] = fit_slope(
                [(s, statistics.median(by_size[s])) for s in sizes]
            )[0] if len(sizes) >= 4 else 0.0
        for experiment, func in RUNNERS.items():
            out[f"experiments.run.{experiment}.s"] = incl_by_name.get(
                f"experiments.{func.__name__}", 0.0)
        for i in range(1, 14):
            out[f"acceptance.c{i:02d}.s"] = incl_by_name.get(f"acceptance.c{i:02d}", 0.0)

        info = sphere_basis._gauss_rule.cache_info()
        lookups = info.hits + info.misses
        out["sphere_basis.gauss_rule.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["trace.spans"] = len(self.spans)
        out["trace.span_share"] = self.root_seconds / wall_seconds
        out["trace.unattributed_s"] = wall_seconds - self.root_seconds
        return {name: int(v) if isinstance(v, (int, np.integer)) else float(v)
                for name, v in out.items()}
