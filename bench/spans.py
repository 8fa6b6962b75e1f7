"""Span recorder for the traced benchmark run.

Functions are wrapped where their caller looks them up: ``susytb.cli``
binds names with ``from .x import f``, so the wrapper goes on
``susytb.cli.f``; methods are wrapped on their class. Every span records
its name, layer, start, end, parent span and run id; spans stay in memory
until the run ends. A layer's self time is the summed duration of its
spans minus the part covered by their child spans. ``Tracer.restore``
puts every original function back.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter
from typing import Callable

import numpy as np

LAYERS = ("cli", "config", "darboux", "calibrate", "tightbinding", "systems",
          "quadrature", "observables", "bpm")


class Tracer:
    def __init__(self, run_id: str, period: float | None):
        self.run_id = run_id
        self.period = period  # modulation period T_V, for distinct H(z) samples
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self.counts: Counter = Counter()
        self.distinct_z: set = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owner_path: str, attr: str, make: Callable) -> None:
        module_path, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module_path)
        if cls:
            owner = getattr(owner, cls, None)
        if owner is None or not hasattr(owner, attr):
            self.missing.append(f"{owner_path}.{attr}")
            return
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(self, owner: str, attr: str, layer: str, name: str | None = None,
             on_call: Callable | None = None) -> None:
        """Record a span around every call; ``on_call(args, kwargs, result)`` counts."""
        tracer = self
        label = name or attr

        def make(fn):
            def wrapper(*args, **kwargs):
                span_name = label(args, kwargs) if callable(label) else label
                rec = [span_name, layer, time.perf_counter(), 0.0,
                       tracer._stack[-1] if tracer._stack else -1]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[3] = time.perf_counter()
                    tracer._stack.pop()
                if on_call is not None:
                    on_call(args, kwargs, result)
                return result
            return wrapper

        self._patch(owner, attr, make)

    def count(self, owner: str, attr: str, on_call: Callable) -> None:
        """Count calls without a span (for very frequent, cheap calls)."""
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_call(args, kwargs, result)
                return result
            return wrapper

        self._patch(owner, attr, make)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name, over spans recorded from index ``first``."""
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for i in range(first, len(self.spans)):
            name, layer, start, end, _ = self.spans[i]
            out[f"{layer}:{name}"] += (end - start) - covered[i]
        return dict(out)

    def inclusive(self, layer: str, name: str, first: int = 0) -> float:
        """Summed duration of the named spans, children included."""
        return float(sum(end - start for n, lay, start, end, _ in self.spans[first:]
                         if n == name and lay == layer))

    def dump(self) -> dict:
        return {"run_id": self.run_id,
                "fields": ["name", "layer", "start", "end", "parent"],
                "spans": self.spans}


def _points(x) -> int:
    return int(np.size(x))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every susytb layer."""
    c = tracer.counts

    def bump(key: str, points_arg: int | None = None):
        def on_call(args, kwargs, result):
            c[key + "_calls"] += 1
            if points_arg is not None:
                c[key + "_points"] += _points(args[points_arg])
        return on_call

    # cli: pipeline roots and file emission
    for attr in ("run", "main", "emit_csv", "emit_potential_csv"):
        tracer.span("susytb.cli", attr, "cli")
    # config
    for owner in ("susytb.config", "susytb.cli"):
        tracer.span(owner, "validate_config", "config")
    # darboux / seeds
    for owner in ("susytb.cli", "susytb.darboux"):
        tracer.span(owner, "regularity_scan", "darboux")
    for owner in ("susytb.darboux", "susytb.seeds"):
        tracer.count(owner, "x_derivatives", bump("seeds.x_derivatives"))

    # calibrate
    def calibrated(args, kwargs, result):
        problem = args[0]
        c["calibrate.multistart_points"] += math.prod(problem.seeds)
        c["calibrate.feasible_starts"] += result.trace.get("n_feasible_starts", 0)
        c["calibrate.nm_evaluations"] += result.trace.get("nm_evaluations", 0)

    tracer.span("susytb.cli", "default_problem", "calibrate")
    for attr in ("spectral_match", "profile_match"):
        tracer.span("susytb.cli", attr, "calibrate", on_call=calibrated)

    def count_objective(fn):
        def wrapper(objective, *args, **kwargs):
            def counted(x):
                c["calibrate.objective_evals"] += 1
                return objective(x)
            return fn(counted, *args, **kwargs)
        return wrapper

    tracer._patch("susytb.calibrate", "_multistart_then_refine", count_objective)

    # tightbinding
    def h_call(args, kwargs, result):
        c["tightbinding.h_calls"] += 1
        z = float(args[1] if len(args) > 1 else kwargs.get("z", 0.0))
        if tracer.period:
            z = round(math.fmod(z, tracer.period) / tracer.period, 9) % 1.0
        tracer.distinct_z.add(z)

    def march(args, kwargs, result):
        sysm, z0, z1 = args[0], args[2], args[3]
        if z1 != z0:
            c["tightbinding.rk4_substeps"] += max(1, math.ceil(abs(z1 - z0) / sysm.control.dz_max))

    tracer.span("susytb.tightbinding:TBModel", "__init__", "tightbinding", name="TBModel",
                on_call=lambda a, k, r: c.update(["tightbinding.model_builds"]))
    tracer.span("susytb.tightbinding:TBModel", "hamiltonian_matrix", "tightbinding", on_call=h_call)
    tracer.count("susytb.tightbinding:_CoupledSystem", "march", march)
    for owner in ("susytb.calibrate", "susytb.tightbinding"):
        tracer.span(owner, "solve_spectrum", "tightbinding",
                    on_call=lambda a, k, r: c.update(["tightbinding.spectrum_calls"]))
    tracer.span("susytb.calibrate", "single_well_potential", "tightbinding")
    for attr in ("two_well_model", "static_guided_modes", "floquet_guided_modes",
                 "overlap_kappa", "floquet_monodromy", "propagate_coefficients"):
        tracer.span("susytb.cli", attr, "tightbinding")

    # systems
    tracer.span("susytb.systems:WaveguideSystem", "potential", "systems",
                on_call=bump("systems.potential", 1))
    for attr in ("mode", "mode_dz", "mode_h2"):
        tracer.span("susytb.systems:WaveguideSystem", attr, "systems", name="mode",
                    on_call=bump("systems.mode", 2))

    # quadrature
    for owner in ("susytb.observables", "susytb.systems", "susytb.tightbinding",
                  "susytb.quadrature"):
        tracer.span(owner, "quad_nodes", "quadrature", on_call=bump("quadrature.nodes"))

    # observables
    tracer.span("susytb.cli", "moment_series", "observables",
                name=lambda a, k: f"moment_series.{k.get('engine') or 'exact'}",
                on_call=bump("observables.series"))
    tracer.span("susytb.cli", "comparison_metrics", "observables")
    for cls in ("ExactState", "TBStaticState", "TBTrajectoryState"):
        for attr in ("__call__", "h_apply", "h2_apply"):
            tracer.count(f"susytb.observables:{cls}", attr, bump("observables.field", 1))

    # bpm
    tracer.span("susytb.bpm", "step", "bpm", on_call=lambda a, k, r: c.update(["bpm.cn_steps"]))
    tracer.span("susytb.cli", "propagate", "bpm")
    for attr in ("pde_residual", "eigen_residual"):
        tracer.span("susytb.cli", attr, "bpm", name="oracle")


def layer_metrics(tracer: Tracer, first_run_span: int) -> dict[str, float]:
    """Per-layer figures of one traced child (times in s, counts as numbers)."""
    run_self = tracer.self_times(first_run_span)
    all_self = tracer.self_times(0)
    c = tracer.counts

    def t(table: dict, *keys: str) -> float:
        return float(sum(table.get(k, 0.0) for k in keys))

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(sum(v for k, v in run_self.items()
                                           if k.startswith(layer + ":")))
    points = c["calibrate.multistart_points"]
    out.update({
        "calibrate.objective_evals": c["calibrate.objective_evals"],
        "calibrate.nm_evaluations": c["calibrate.nm_evaluations"],
        "calibrate.feasible_ratio": c["calibrate.feasible_starts"] / points if points else 0.0,
        "tightbinding.h_calls": c["tightbinding.h_calls"],
        "tightbinding.h_s": t(run_self, "tightbinding:hamiltonian_matrix"),
        "tightbinding.h_incl_s": tracer.inclusive("tightbinding", "hamiltonian_matrix",
                                                  first_run_span),
        "tightbinding.h_distinct_ratio": (len(tracer.distinct_z) / c["tightbinding.h_calls"]
                                          if c["tightbinding.h_calls"] else 0.0),
        "tightbinding.monodromy_s": t(run_self, "tightbinding:floquet_monodromy"),
        "tightbinding.trajectory_s": t(run_self, "tightbinding:propagate_coefficients"),
        "tightbinding.rk4_substeps": c["tightbinding.rk4_substeps"],
        "tightbinding.model_builds": c["tightbinding.model_builds"],
        "tightbinding.spectrum_calls": c["tightbinding.spectrum_calls"],
        "systems.potential_calls": c["systems.potential_calls"],
        "systems.potential_points": c["systems.potential_points"],
        "systems.potential_s": t(run_self, "systems:potential"),
        "systems.mode_calls": c["systems.mode_calls"],
        "systems.mode_points": c["systems.mode_points"],
        "systems.mode_s": t(run_self, "systems:mode"),
        "quadrature.nodes_calls": c["quadrature.nodes_calls"],
        "quadrature.nodes_s": t(run_self, "quadrature:quad_nodes"),
        "observables.series_calls": c["observables.series_calls"],
        "observables.exact_s": t(run_self, "observables:moment_series.exact"),
        "observables.tb_s": t(run_self, "observables:moment_series.tb"),
        "observables.field_evals": c["observables.field_calls"],
        "observables.field_points": c["observables.field_points"],
        "bpm.cn_steps": c["bpm.cn_steps"],
        "bpm.step_s": t(run_self, "bpm:step"),
        "bpm.propagate_s": t(run_self, "bpm:propagate"),
        "bpm.oracle_s": t(run_self, "bpm:oracle"),
        "darboux.regularity_s": t(all_self, "darboux:regularity_scan"),
        "seeds.x_derivatives_calls": c["seeds.x_derivatives_calls"],
        "config.validate_s": t(all_self, "config:validate_config"),
        "cli.emit_s": t(run_self, "cli:emit_csv", "cli:emit_potential_csv"),
    })
    return out


# Counters that must repeat exactly between two traced runs of one seed.
DETERMINISTIC = (
    "calibrate.objective_evals", "calibrate.nm_evaluations", "calibrate.feasible_ratio",
    "tightbinding.h_calls", "tightbinding.h_distinct_ratio", "tightbinding.rk4_substeps",
    "tightbinding.model_builds", "tightbinding.spectrum_calls",
    "systems.potential_calls", "systems.potential_points", "systems.mode_calls",
    "systems.mode_points", "quadrature.nodes_calls", "observables.series_calls",
    "observables.field_evals", "observables.field_points", "bpm.cn_steps",
    "seeds.x_derivatives_calls",
)
