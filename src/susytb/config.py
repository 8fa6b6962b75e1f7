"""Scenario configuration: the key table, validation, resolved run plans.

A scenario file is one JSON object in natural units (hbar = 1, lengths in
inverse-wavenumber units). `SCHEMA` is its schema: every key with its type,
default and check, a block's keys as a nested table, `system`'s from
`system_keys` and an observable object's from `OBSERVABLE`. `validate_config`
walks it and refuses a key it does not list, at any level: ignoring it would
run something other than what the file asks. Each default lives only there.

After the walk come the rules across keys: the `tb` route (any of k, x0, alpha_tilde is
the explicit pair, built here so that an ill-conditioned S is refused, else the kind picks
the calibration and `SystemKind.fit` its multistart grid) and the physics (orderings, the
regularity bound and `certified`, the kind's mode kinds and wells, the closed forms' overflow
window, and for p moments the run's `_resolution_guard` at z = 0), so a validated
config is a runnable plan. The LAPACK a plan calls (a static system's TB spectrum, `bpm.enabled`)
is numpy's own OpenBLAS, bound here by `lapack.bind`; no plan loads scipy, and a modulated one without
BPM needs no LAPACK. The z grid is `z_grid.num` samples over `z_grid.periods` fundamental periods.
Findings are aggregated and field-addressed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple, Optional

from . import lapack
from .bpm import PropagationGrid
from .observables import OBSERVABLES, DerivativeResolutionError, ObservableRequest, _resolution_guard
from .quadrature import QuadratureSpec, default_half_width
from .systems import KINDS, ParameterError, WaveguideSystem, make_system
from .tightbinding import COND_LIMIT, IllConditionedOverlap, TBModel

__all__ = ["ScenarioConfig", "ConfigError", "validate_config", "config_digest", "SCHEMA", "system_keys"]


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


REQUIRED, OPTIONAL = object(), object()  # no default: the key must be given / may be left out


class Key(NamedTuple):
    """One key: its type (a nested table for a block), default and check (raises ValueError)."""

    type: Any
    default: Any = REQUIRED
    check: Optional[Callable] = None


def _need(ok: Callable, message: str) -> Callable:
    def check(value):
        if not ok(value):
            raise ValueError(message.format(value))
    return check


POSITIVE = _need(lambda v: v > 0, "must be positive")
SAMPLES = _need(lambda v: v > 0, "need at least 1 sample")
PLAIN_NAME = _need(lambda v: v not in ("", ".", "..") and not set(v) & set("/\\\0"),
                   "must be a plain file name, got {!r}")  # outputs land in --out, not beside it or below
NAME_BYTES = 255 - len(".csv.meta.json")  # the file system's name limit less the longest output suffix
SHORT_NAME = _need(lambda v: len(v.encode()) <= NAME_BYTES, f"must be at most {NAME_BYTES} bytes in UTF-8")
OBSERVABLE = {"name": Key(str, check=_need(OBSERVABLES.__contains__, "unknown observable {!r}")),
              "metric": Key(str, "dirac", _need(("dirac", "pt").__contains__, "unknown metric {!r}"))}
SCHEMA = {
    "system": Key(dict),  # keys: `system_keys`
    "tb": Key({"k": Key(float, OPTIONAL, _need(lambda v: v != 0, "must be nonzero")),
               "x0": Key(float, OPTIONAL, POSITIVE),
               "alpha_tilde": Key(float, 0.0)}, {}),
    "z_grid": Key({"num": Key(int, check=_need(lambda v: v >= 2, "need at least 2 samples")),
                   "periods": Key(float, check=POSITIVE)}),
    "mode_kind": Key(str, "left"),
    "observables": Key(list, check=_need(len, "need at least one observable")),  # names or OBSERVABLE objects
    "quadrature": Key({"nodes": Key(int, 4097, lambda v: QuadratureSpec(half_width=1.0, nodes=v)),
                       "half_width": Key(float, None, lambda v: QuadratureSpec(half_width=v, nodes=64))},
                      {}),  # half_width null: `default_half_width`
    "bpm": Key({"enabled": Key(bool, False),  # `propagate` builds the grid even when disabled
                "nx": Key(int, 2048, lambda v: PropagationGrid(half_width=1.0, nx=v, dz=1.0)),
                "dz": Key(float, 0.01, lambda v: PropagationGrid(half_width=1.0, nx=256, dz=v))}, {}),
    "potential_dump": Key({"enabled": Key(bool, False),
                           "nx": Key(int, 201, SAMPLES), "nz": Key(int, 129, SAMPLES),
                           "x_half_width": Key(float, 6.0, POSITIVE),
                           "periods": Key(float, 2.0, POSITIVE)}, {}),
    "output": Key({"basename": Key(str, "run", lambda v: (PLAIN_NAME(v), SHORT_NAME(v)))}, {}),
}


def system_keys(kind) -> dict:
    """The `system` block's table: its kind, then the fields of that kind's parameter record."""
    keys = {"kind": Key(str, check=_need(KINDS.__contains__, "unknown kind {!r}"))}
    if isinstance(kind, str) and kind in KINDS:
        keys.update((f.name, Key(float)) for f in fields(KINDS[kind].params))
    return keys


def _typed(value, key: Key):
    """`value` checked against `key`'s type and check: floats finite, booleans no integers,
    and null only where the default is null."""
    typ = dict if isinstance(key.type, dict) else key.type
    if value is None and key.default is None:
        return None
    if typ is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {float(value)!r}")
        value = float(value)
    elif not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
        raise ValueError(f"expected {typ.__name__}, got {type(value).__name__}")
    if key.check is not None:
        key.check(value)
    return value


def _walk(d: dict, table: dict, path: str, errors: list[str]) -> dict:
    """`d` read by `table`, each unknown, missing or bad key one error addressed `path + key`.

    Absent keys take their defaults (one without a default stays absent), nested tables are
    walked in turn, and a bad value reads as its default, or None where there is none.
    """
    errors.extend(f"{path}{key}: unknown key; expected one of {', '.join(sorted(table))}"
                  for key in d if key not in table)
    out = {}
    for name, key in table.items():
        value = key.default
        if name in d:
            try:
                value = _typed(d[name], key)
            except ValueError as exc:
                errors.append(f"{path}{name}: {exc}")
        elif value is REQUIRED:
            errors.append(f"{path}{name}: missing required field")
        if value is REQUIRED or value is OPTIONAL:
            if name in d:
                out[name] = None
        elif isinstance(key.type, dict):
            out[name] = _walk(value, key.type, f"{path}{name}.", errors)
        else:
            out[name] = value
    return out


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

    top = _walk(raw, SCHEMA, "", errors)
    sysd = top.get("system") or {}
    kind = sysd.get("kind")
    keys = system_keys(kind)
    if keys.keys() == {"kind"}:  # an unknown kind: its other keys cannot be judged
        sysd = {key: sysd[key] for key in keys if key in sysd}
    system_errors: list[str] = []
    values = _walk(sysd, keys, "system.", system_errors)
    if not system_errors:
        try:
            system = make_system(KINDS[values.pop("kind")].params(**values))
        except ParameterError as exc:
            system_errors.append(f"system: {exc}")
    if system_errors:
        raise ConfigError(errors + system_errors)
    certified = system.params.certified if system.is_dynamic else None
    if certified is False:
        warnings.append("system: alpha exceeds the sufficient regularity bound "
                        "(certified=false); nodelessness established by scan")

    tb, given = top["tb"], raw["tb"] if isinstance(raw.get("tb"), dict) else {}
    tb_explicit = None
    if any(key in given for key in ("k", "x0", "alpha_tilde")):
        errors.extend(f"tb.{key}: missing required field" for key in ("k", "x0") if key not in given)
        if tb.get("k") is not None and tb.get("x0") is not None:
            tb_explicit = {key: tb[key] for key in ("k", "x0", "alpha_tilde")}
        if tb["alpha_tilde"] and system.facts.wells == "hermitian":
            errors.append("tb.alpha_tilde: must be 0 for the Hermitian wells of a "
                          f"{system.kind} system")
        elif tb_explicit is not None:
            try:  # the pair's S depends on k, x0 and alpha_tilde alone: the well-sum pair has the run's S
                TBModel(system.facts.wells, **tb_explicit)
            except IllConditionedOverlap as exc:
                errors.append(f"tb.x0: the wells at +-x0 overlap too far: {exc} > {COND_LIMIT:.0e}")

    mode_kind = top["mode_kind"]
    if mode_kind not in system.mode_kinds:
        errors.append(f"mode_kind: a {system.kind} system has no mode {mode_kind!r}; "
                      f"expected one of {list(system.mode_kinds)}")

    observables: dict[ObservableRequest, int] = {}  # each request at its first index: asked once
    for i, entry in enumerate(top.get("observables") or []):
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict):
            errors.append(f"observables[{i}]: expected name or object")
            continue
        known = len(errors)
        request = _walk(entry, OBSERVABLE, f"observables[{i}].", errors)
        request = ObservableRequest(request.get("name"), request["metric"])
        if len(errors) == known and observables.setdefault(request, i) != i:  # a refused entry reads as defaults
            errors.append(f"observables[{i}]: duplicate of observables[{observables[request]}] ({', '.join(request)})")

    qd = top["quadrature"]
    quad = QuadratureSpec(half_width=default_half_width(system.min_k) if qd["half_width"] is None
                          else qd["half_width"], nodes=qd["nodes"])
    if quad.half_width > system.x_limit:
        errors.append(_past_limit("quadrature.half_width", quad.half_width, system))

    bpm_options, potential_dump = dict(top["bpm"]), dict(top["potential_dump"])
    bpm_enabled, potential_dump_enabled = bpm_options.pop("enabled"), potential_dump.pop("enabled")
    if potential_dump["x_half_width"] > system.x_limit:
        errors.append(_past_limit("potential_dump.x_half_width", potential_dump["x_half_width"], system))

    if errors:
        raise ConfigError(errors)

    zd = top["z_grid"]
    stop = zd["periods"] * system.periods().fundamental
    z_values = [stop * i / (zd["num"] - 1) for i in range(zd["num"])]
    if any(request.name in ("p_mean", "p_std") for request in observables):  # the run's guard, up front
        x = quad.points[0]  # the run's own nodes, so the mode's x-only parts serve moment_table too
        try:
            _resolution_guard(system.mode(mode_kind, x, z_values[0]), x[1] - x[0])
        except DerivativeResolutionError as exc:
            raise ConfigError([f"quadrature.nodes: {quad.nodes} do not resolve the {mode_kind} mode: {exc}"])
    if not system.is_dynamic or bpm_enabled:  # the LAPACK the plan calls: an ImportError here, not in the run
        lapack.bind()
    return ScenarioConfig(
        raw=raw, system=system, certified=certified, tb_explicit=tb_explicit,
        z_values=z_values, mode_kind=mode_kind, observables=list(observables), quad=quad,
        bpm_enabled=bpm_enabled, bpm_options=bpm_options,
        potential_dump_enabled=potential_dump_enabled, potential_dump=potential_dump,
        basename=top["output"]["basename"], warnings=warnings)


def config_digest(raw: dict) -> str:
    """Stable hash of the scenario object (canonical JSON, sorted keys)."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
