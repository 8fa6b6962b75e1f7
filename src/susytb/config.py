"""Scenario configuration: JSON schema, validation, resolved run plans.

A scenario file is a single JSON object in natural units (hbar = 1,
lengths in inverse-wavenumber units):

    {
      "system": {"kind": "hermitian_static" | "pt_static" | "pt_dynamic",
                 "k1": ..., "k2": ..., "k3": ..., "alpha": ...},
      "tb": {"seeds": [9, 9]},  # calibrated; optional grid, one size per fitted parameter
         # or {"k": ..., "x0": ..., "alpha_tilde": ...}, the explicit model
      "z_grid": {"periods": 2.0, "num": 361}               # or "stop": <z>
      "mode_kind": "left",
      "observables": ["x_mean", {"name": "H_mean", "metric": "pt"}, ...],
      "quadrature": {"nodes": 4097, "half_width": null},     # uniform Simpson grid
      "bpm": {"enabled": false, "nx": 2048, "dz": 0.01},
      "potential_dump": {"enabled": false, "nx": 201, "nz": 129,
                         "x_half_width": 6.0, "periods": 2.0},
      "output": {"basename": "run"}
    }

A `tb` block giving any of k, x0, alpha_tilde is the explicit model (k and
x0 required); else the system kind picks spectral or profile calibration.
The removed `tb.mode` and `quadrature.rule`, and seeds next to explicit
parameters, are refused: ignoring them would change what runs. The dump
sizes are always validated; `enabled` only decides whether `compare` writes it.

Validation is aggregated and field-addressed; physics constraints
(parameter orderings, the dynamic regularity bound with its `certified`
semantics, the BPM grid rules of `bpm.PropagationGrid`, the closed forms'
overflow window, and the kind's mode kinds and fitted TB parameters from
`systems.KINDS`) are enforced here so a validated config is a runnable
plan. An observable object takes only "name" and "metric" (its
normalization is fixed by the observable and metric), and any other key
in it is refused; other unknown keys are ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Optional

from .bpm import PropagationGrid
from .observables import OBSERVABLES, ObservableRequest
from .quadrature import QuadratureSpec, default_spec
from .systems import KINDS, ParameterError, WaveguideSystem, make_system

__all__ = ["ScenarioConfig", "ConfigError", "validate_config", "config_digest"]


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class ScenarioConfig:
    raw: dict
    system: WaveguideSystem
    certified: Optional[bool]  # None for static systems
    tb_explicit: Optional[dict]
    tb_seeds: Optional[tuple[int, ...]]
    z_values: "list[float]"
    mode_kind: str
    observables: list[ObservableRequest]
    quad: QuadratureSpec
    bpm_enabled: bool
    bpm_options: dict
    potential_dump_enabled: bool
    potential_dump: dict
    basename: str
    warnings: list[str]


def _get(d: dict, key: str, typ, errors: list[str], where: str, default=None, required=False):
    if key not in d:
        if required:
            errors.append(f"{where}.{key}: missing required field")
        return default
    v = d[key]
    if typ is float and isinstance(v, (int, float)) and not isinstance(v, bool):
        if not math.isfinite(v):
            errors.append(f"{where}: {key} must be finite, got {float(v)!r}")
            return default
        return float(v)
    if not isinstance(v, typ) or (typ is int and isinstance(v, bool)):
        errors.append(f"{where}.{key}: expected {getattr(typ, '__name__', typ)}, got {type(v).__name__}")
        return default
    return v


def _past_limit(field: str, half_width: float, system: WaveguideSystem) -> str:
    return f"{field}: {half_width:.4g} runs past |x| = {system.x_limit:.4g}, where the closed forms overflow"


def validate_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario; raises ConfigError with all findings."""
    errors: list[str] = []
    warnings: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: not valid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be an object"])

    sysd = _get(raw, "system", dict, errors, "config", required=True) or {}
    kind = _get(sysd, "kind", str, errors, "system", required=True)
    params = None
    if kind is not None and kind not in KINDS:
        errors.append(f"system.kind: unknown kind {kind!r}")
    elif kind is not None:
        values = {f.name: _get(sysd, f.name, float, errors, "system", required=True)
                  for f in fields(KINDS[kind].params)}
        if not errors:
            try:
                params = KINDS[kind].params(**values)
            except ParameterError as exc:
                errors.append(f"system: {exc}")
    if errors:
        raise ConfigError(errors)

    try:
        system = make_system(params)
    except ParameterError as exc:
        raise ConfigError([f"system: {exc}"])
    certified = params.certified if system.is_dynamic else None
    if certified is False:
        warnings.append("system: alpha exceeds the sufficient regularity bound "
                        "(certified=false); nodelessness established by scan")

    tbd = _get(raw, "tb", dict, errors, "config", default={}) or {}
    if "mode" in tbd:
        errors.append("tb.mode: removed; the system kind picks the calibration, "
                      "and giving k and x0 selects the explicit model")
    tb_explicit = None
    tb_seeds = None
    if any(key in tbd for key in ("k", "x0", "alpha_tilde")):
        k = _get(tbd, "k", float, errors, "tb", required=True)
        x0 = _get(tbd, "x0", float, errors, "tb", required=True)
        at = _get(tbd, "alpha_tilde", float, errors, "tb", default=0.0)
        if None not in (k, x0):
            if k == 0:
                errors.append("tb.k: must be nonzero")
            if x0 <= 0:
                errors.append("tb.x0: must be positive")
            tb_explicit = {"k": k, "x0": x0, "alpha_tilde": at}
        if at and system.facts.wells == "hermitian":
            errors.append("tb.alpha_tilde: must be 0 for the Hermitian wells of a "
                          f"{system.kind} system")
        if "seeds" in tbd:
            errors.append("tb.seeds: explicit TB parameters are not calibrated, so take no seeds")
    elif "seeds" in tbd:
        seeds = tbd["seeds"]
        fit = list(system.facts.fit)
        if isinstance(seeds, list) and any(isinstance(s, bool) for s in seeds):
            errors.append("tb.seeds: expected int, got bool")
        elif (not isinstance(seeds, list) or not seeds
                or any(not isinstance(s, int) or s < 1 for s in seeds)):
            errors.append("tb.seeds: expected a list of positive integers")
        elif len(seeds) != len(fit):
            errors.append(f"tb.seeds: expected one grid size per fitted parameter {fit}, "
                          f"got {len(seeds)}")
        else:
            tb_seeds = tuple(seeds)

    zd = _get(raw, "z_grid", dict, errors, "config", required=True) or {}
    num = _get(zd, "num", int, errors, "z_grid", required=True)
    if num is not None and num < 2:
        errors.append("z_grid.num: need at least 2 samples")
    stop = None
    if "stop" in zd and "periods" in zd:
        errors.append("z_grid: give either 'stop' or 'periods', not both")
    elif "stop" in zd:
        stop = _get(zd, "stop", float, errors, "z_grid")
        if stop is not None and stop <= 0:
            errors.append("z_grid.stop: must be positive")
    elif "periods" in zd:
        per = _get(zd, "periods", float, errors, "z_grid")
        if per is not None and per <= 0:
            errors.append("z_grid.periods: must be positive")
        elif per is not None:
            base = system.periods().fundamental
            stop = per * base
    else:
        errors.append("z_grid: missing 'stop' or 'periods'")

    mode_kind = _get(raw, "mode_kind", str, errors, "config", default="left")
    if mode_kind not in system.mode_kinds:
        errors.append(f"mode_kind: a {system.kind} system has no mode {mode_kind!r}; "
                      f"expected one of {list(system.mode_kinds)}")

    obs_raw = _get(raw, "observables", list, errors, "config", required=True) or []
    observables: list[ObservableRequest] = []
    for i, entry in enumerate(obs_raw):
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict):
            errors.append(f"observables[{i}]: expected name or object")
            continue
        name = entry.get("name")
        metric = entry.get("metric", "dirac")
        errors.extend(f"observables[{i}]: unknown key {key!r}" for key in entry
                      if key not in ("name", "metric"))
        if name not in OBSERVABLES:
            errors.append(f"observables[{i}].name: unknown observable {name!r}")
            continue
        if metric not in ("dirac", "pt"):
            errors.append(f"observables[{i}].metric: unknown metric {metric!r}")
            continue
        observables.append(ObservableRequest(name=name, metric=metric))

    qd = _get(raw, "quadrature", dict, errors, "config", default={}) or {}
    q_nodes = _get(qd, "nodes", int, errors, "quadrature", default=4097)
    if "rule" in qd:
        errors.append("quadrature.rule: removed; observables always use the uniform Simpson grid")
    q_half = default_spec(system.min_k).half_width
    if qd.get("half_width") is not None:  # null selects the default window, as an omitted key does
        q_half = _get(qd, "half_width", float, errors, "quadrature", default=q_half)
    quad = None
    try:
        quad = QuadratureSpec(half_width=q_half, nodes=q_nodes)
    except ValueError as exc:
        errors.append(f"quadrature: {exc}")
    if quad is not None and quad.half_width > system.x_limit:
        errors.append(_past_limit("quadrature.half_width", quad.half_width, system))

    bd = _get(raw, "bpm", dict, errors, "config", default={}) or {}
    bpm_enabled = _get(bd, "enabled", bool, errors, "bpm", default=False)
    bpm_options = {
        "nx": _get(bd, "nx", int, errors, "bpm", default=2048),
        "dz": _get(bd, "dz", float, errors, "bpm", default=0.01),
    }
    for key, value in bpm_options.items():  # `propagate` builds this grid even when disabled
        try:
            PropagationGrid(half_width=1.0, **{key: value})
        except ValueError as exc:
            errors.append(f"bpm.{key}: {exc}")

    pd_cfg = _get(raw, "potential_dump", dict, errors, "config", default={}) or {}
    potential_dump_enabled = _get(pd_cfg, "enabled", bool, errors, "potential_dump", default=False)
    potential_dump = {
        "nx": _get(pd_cfg, "nx", int, errors, "potential_dump", default=201),
        "nz": _get(pd_cfg, "nz", int, errors, "potential_dump", default=129),
        "x_half_width": _get(pd_cfg, "x_half_width", float, errors, "potential_dump", default=6.0),
        "periods": _get(pd_cfg, "periods", float, errors, "potential_dump", default=2.0),
    }
    for key, message in (("nx", "need at least 1 sample"), ("nz", "need at least 1 sample"),
                         ("x_half_width", "must be positive"), ("periods", "must be positive")):
        if potential_dump[key] <= 0:
            errors.append(f"potential_dump.{key}: {message}")
    if potential_dump["x_half_width"] > system.x_limit:
        errors.append(_past_limit("potential_dump.x_half_width", potential_dump["x_half_width"], system))

    outd = _get(raw, "output", dict, errors, "config", default={}) or {}
    basename = _get(outd, "basename", str, errors, "output", default="run")

    if errors:
        raise ConfigError(errors)

    z_values = [stop * i / (num - 1) for i in range(num)]
    return ScenarioConfig(
        raw=raw, system=system, certified=certified, tb_explicit=tb_explicit,
        tb_seeds=tb_seeds, z_values=z_values, mode_kind=mode_kind, observables=observables, quad=quad,
        bpm_enabled=bpm_enabled, bpm_options=bpm_options,
        potential_dump_enabled=potential_dump_enabled, potential_dump=potential_dump,
        basename=basename, warnings=warnings)


def config_digest(raw: dict) -> str:
    """Stable hash of the scenario object (canonical JSON, sorted keys)."""
    import hashlib

    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
