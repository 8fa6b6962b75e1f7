"""Scenario configuration: JSON schema, validation, resolved run plans.

A scenario file is a single JSON object in natural units (hbar = 1,
lengths in inverse-wavenumber units):

    {
      "system": {"kind": "hermitian_static" | "pt_static" | "pt_dynamic",
                 "k1": ..., "k2": ..., "k3": ..., "alpha": ...},
      "tb": {"mode": "auto" | "spectral" | "profile" | "explicit",
             "k": ..., "x0": ..., "alpha_tilde": ...,      # explicit mode
             "seeds": [9, 9]},                             # multistart grid
      "z_grid": {"periods": 2.0, "num": 361}               # or "stop": <z>
      "mode_kind": "left",
      "observables": ["x_mean", {"name": "H_mean", "metric": "pt"}, ...],
      "quadrature": {"nodes": 4097, "rule": "simpson",
                     "half_width": null, "tail_tol": 1e-9},
      "bpm": {"enabled": false, "nx": 2048, "dz": 0.01},
      "potential_dump": {"enabled": false, "nx": 201, "nz": 129,
                         "x_half_width": 6.0, "periods": 2.0},
      "output": {"basename": "run"},
      "seed": 0
    }

Validation is aggregated and field-addressed; physics constraints
(parameter orderings, the dynamic regularity bound with its `certified`
semantics) are enforced here so a validated config is a runnable plan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .observables import OBSERVABLES
from .quadrature import QuadratureSpec, default_spec
from .systems import (
    HermitianStaticParams,
    ParameterError,
    PTDynamicParams,
    PTStaticParams,
    WaveguideSystem,
    make_system,
)

__all__ = ["ScenarioConfig", "ConfigError", "validate_config", "config_digest"]


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class ObservableRequest:
    name: str
    metric: str
    normalization: Optional[str] = None


@dataclass
class ScenarioConfig:
    raw: dict
    system: WaveguideSystem
    certified: Optional[bool]  # None for static systems
    tb_mode: str
    tb_explicit: Optional[dict]
    tb_seeds: Optional[tuple[int, ...]]
    z_values: "list[float]"
    mode_kind: str
    observables: list[ObservableRequest]
    quad: QuadratureSpec
    bpm_enabled: bool
    bpm_options: dict
    potential_dump: Optional[dict]
    basename: str
    warnings: list[str]


def _get(d: dict, key: str, typ, errors: list[str], where: str, default=None, required=False):
    if key not in d:
        if required:
            errors.append(f"{where}.{key}: missing required field")
        return default
    v = d[key]
    if typ is float and isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    if typ is int and isinstance(v, int) and not isinstance(v, bool):
        return v
    if not isinstance(v, typ):
        errors.append(f"{where}.{key}: expected {getattr(typ, '__name__', typ)}, got {type(v).__name__}")
        return default
    return v


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
    if kind is not None:
        try:
            if kind == "hermitian_static":
                params = HermitianStaticParams(
                    k1=_get(sysd, "k1", float, errors, "system", required=True) or 0.0,
                    k2=_get(sysd, "k2", float, errors, "system", required=True) or 0.0)
            elif kind == "pt_static":
                params = PTStaticParams(
                    k1=_get(sysd, "k1", float, errors, "system", required=True) or 0.0,
                    k2=_get(sysd, "k2", float, errors, "system", required=True) or 0.0,
                    alpha=_get(sysd, "alpha", float, errors, "system", required=True) or 0.0)
            elif kind == "pt_dynamic":
                params = PTDynamicParams(
                    k1=_get(sysd, "k1", float, errors, "system", required=True) or 0.0,
                    k2=_get(sysd, "k2", float, errors, "system", required=True) or 0.0,
                    k3=_get(sysd, "k3", float, errors, "system", required=True) or 0.0,
                    alpha=_get(sysd, "alpha", float, errors, "system", required=True) or 0.0)
            else:
                errors.append(f"system.kind: unknown kind {kind!r}")
        except ParameterError as exc:
            errors.append(f"system: {exc}")
    if errors:
        raise ConfigError(errors)

    certified = None
    if isinstance(params, PTDynamicParams):
        certified = params.certified
        if not certified:
            warnings.append("system: alpha exceeds the sufficient regularity bound "
                            "(certified=false); nodelessness established by scan")
    try:
        system = make_system(params)
    except ParameterError as exc:
        raise ConfigError([f"system: {exc}"])

    tbd = _get(raw, "tb", dict, errors, "config", default={}) or {}
    tb_mode = _get(tbd, "mode", str, errors, "tb", default="auto")
    if tb_mode not in ("auto", "spectral", "profile", "explicit"):
        errors.append(f"tb.mode: unknown mode {tb_mode!r}")
    if tb_mode == "spectral" and system.is_dynamic:
        errors.append("tb.mode: spectral matching needs a static system")
    if tb_mode == "profile" and not system.is_dynamic:
        errors.append("tb.mode: profile matching needs the dynamic system")
    tb_explicit = None
    if tb_mode == "explicit":
        k = _get(tbd, "k", float, errors, "tb", required=True)
        x0 = _get(tbd, "x0", float, errors, "tb", required=True)
        at = _get(tbd, "alpha_tilde", float, errors, "tb", default=0.0)
        if None not in (k, x0):
            if k == 0:
                errors.append("tb.k: must be nonzero")
            if x0 is not None and x0 <= 0:
                errors.append("tb.x0: must be positive")
            tb_explicit = {"k": k, "x0": x0, "alpha_tilde": at}
    tb_seeds = None
    if "seeds" in tbd:
        seeds = tbd["seeds"]
        if (not isinstance(seeds, list) or not seeds
                or any(not isinstance(s, int) or s < 1 for s in seeds)):
            errors.append("tb.seeds: expected a list of positive integers")
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
    if mode_kind not in ("left", "right", "ground", "excited", "floquet1", "floquet2"):
        errors.append(f"mode_kind: unknown kind {mode_kind!r}")
    if mode_kind in ("ground", "excited") and system.is_dynamic:
        errors.append("mode_kind: ground/excited are static-system modes")
    if mode_kind in ("floquet1", "floquet2") and not system.is_dynamic:
        errors.append("mode_kind: floquet modes exist only for the dynamic system")

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
        normalization = entry.get("normalization")
        if name not in OBSERVABLES:
            errors.append(f"observables[{i}].name: unknown observable {name!r}")
            continue
        if metric not in ("dirac", "pt"):
            errors.append(f"observables[{i}].metric: unknown metric {metric!r}")
            continue
        if normalization not in (None, "instantaneous_power", "initial_power", "none"):
            errors.append(f"observables[{i}].normalization: unknown normalization {normalization!r}")
            continue
        observables.append(ObservableRequest(name=name, metric=metric, normalization=normalization))

    qd = _get(raw, "quadrature", dict, errors, "config", default={}) or {}
    q_nodes = _get(qd, "nodes", int, errors, "quadrature", default=4097)
    q_rule = _get(qd, "rule", str, errors, "quadrature", default="simpson")
    q_tail = _get(qd, "tail_tol", float, errors, "quadrature", default=1e-9)
    q_half = _get(qd, "half_width", float, errors, "quadrature",
                  default=default_spec(system.min_k).half_width)
    quad = None
    try:
        quad = QuadratureSpec(half_width=q_half, nodes=q_nodes, rule=q_rule, tail_tol=q_tail)
    except ValueError as exc:
        errors.append(f"quadrature: {exc}")
    if quad is not None and quad.rule == "gauss_legendre_composite":
        errors.append("quadrature.rule: observable series need a uniform rule")

    bd = _get(raw, "bpm", dict, errors, "config", default={}) or {}
    bpm_enabled = bool(bd.get("enabled", False))
    bpm_options = {
        "nx": _get(bd, "nx", int, errors, "bpm", default=2048),
        "dz": _get(bd, "dz", float, errors, "bpm", default=0.01),
    }

    pd_cfg = _get(raw, "potential_dump", dict, errors, "config", default={}) or {}
    potential_dump = None
    if pd_cfg.get("enabled", False):
        potential_dump = {
            "nx": _get(pd_cfg, "nx", int, errors, "potential_dump", default=201),
            "nz": _get(pd_cfg, "nz", int, errors, "potential_dump", default=129),
            "x_half_width": _get(pd_cfg, "x_half_width", float, errors, "potential_dump", default=6.0),
            "periods": _get(pd_cfg, "periods", float, errors, "potential_dump", default=2.0),
        }

    outd = _get(raw, "output", dict, errors, "config", default={}) or {}
    basename = _get(outd, "basename", str, errors, "output", default="run")

    if errors:
        raise ConfigError(errors)

    z_values = [stop * i / (num - 1) for i in range(num)]
    return ScenarioConfig(
        raw=raw, system=system, certified=certified, tb_mode=tb_mode,
        tb_explicit=tb_explicit, tb_seeds=tb_seeds, z_values=z_values,
        mode_kind=mode_kind, observables=observables, quad=quad,
        bpm_enabled=bpm_enabled, bpm_options=bpm_options,
        potential_dump=potential_dump, basename=basename, warnings=warnings)


def config_digest(raw: dict) -> str:
    """Stable hash of the scenario object (canonical JSON, sorted keys)."""
    import hashlib

    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
