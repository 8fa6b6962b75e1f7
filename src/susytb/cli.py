"""Command-line harness: scenario orchestration and CSV/report emission.

Pipeline per scenario: regularity scan -> exact evaluators -> calibration
(or explicit TB parameters) -> TB spectrum / coupled-mode ODE / Floquet ->
observable series for both engines -> optional BPM cross-check -> metrics
-> files. Deterministic given the config: fixed quadrature orders, fixed
optimizer seeding, no wall-clock anywhere near the output path.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bpm import PropagationGrid, eigen_residual, pde_residual, propagate
from .calibrate import CalibrationResult, default_problem, profile_match, spectral_match
from .config import ConfigError, ScenarioConfig, config_digest, validate_config
from .darboux import regularity_scan
from .observables import (
    ExactState,
    ObservableSeries,
    TBStaticState,
    TBTrajectoryState,
    comparison_metrics,
    moment_series,
)
from .presets import PRESETS, preset_config
from .quadrature import QuadratureSpec
from .systems import WaveguideSystem
from .tightbinding import (
    StepControl,
    floquet_guided_modes,
    floquet_monodromy,
    overlap_kappa,
    propagate_coefficients,
    static_guided_modes,
    two_well_model,
    WellBasis,
)

ENGINE_ORDER = ("exact", "tb", "bpm")


@dataclass
class ComparisonReport:
    system: dict
    periods: dict
    regularity: dict
    calibration: dict
    kappa: dict
    tb_spectrum: dict
    metrics: dict
    oracle_residuals: dict
    provenance: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2, default=_json_default)


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _column_name(s: ObservableSeries) -> str:
    return s.observable if s.metric == "dirac" else f"{s.observable}_{s.metric}"


def emit_csv(series: Sequence[ObservableSeries], path) -> None:
    """Wide CSV: z column, one (or _re/_im pair of) column(s) per observable,
    engine column; rows z-ascending with engines ordered exact, tb, bpm."""
    path = Path(path)
    columns: list[tuple[str, bool]] = []  # (name, is_complex)
    seen: dict[str, bool] = {}
    for s in series:
        name = _column_name(s)
        is_c = bool(np.max(np.abs(s.values.imag)) > 1e-15 * max(1.0, float(np.max(np.abs(s.values.real)))))
        seen[name] = seen.get(name, False) or is_c
    for s in series:
        name = _column_name(s)
        if all(name != c for c, _ in columns):
            columns.append((name, seen[name]))
    by_key: dict[tuple[float, str], dict[str, complex]] = {}
    zs: list[float] = []
    for s in series:
        engine = s.engine or "exact"
        name = _column_name(s)
        for z, v in zip(s.z, s.values):
            key = (float(z), engine)
            if key not in by_key:
                by_key[key] = {}
            by_key[key][name] = complex(v)
            if float(z) not in zs:
                zs.append(float(z))
    zs.sort()
    header = ["z"]
    for name, is_c in columns:
        if is_c:
            header += [f"{name}_re", f"{name}_im"]
        else:
            header.append(name)
    header.append("engine")
    lines = [",".join(header)]
    for z in zs:
        for engine in ENGINE_ORDER:
            row_vals = by_key.get((z, engine))
            if row_vals is None:
                continue
            row = [_fmt(z)]
            for name, is_c in columns:
                v = row_vals.get(name)
                if v is None:
                    row += ["", ""] if is_c else [""]
                elif is_c:
                    row += [_fmt(v.real), _fmt(v.imag)]
                else:
                    row.append(_fmt(v.real))
            row.append(engine)
            lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _emit_field_csv(field, xs, zs, name: str, path) -> None:
    """x, z, <name>_re, <name>_im rows (z-major) of field(xs, z)."""
    lines = [f"x,z,{name}_re,{name}_im"]
    for z in zs:
        v = np.asarray(field(xs, float(z)), dtype=complex)
        for x, val in zip(xs, v):
            lines.append(",".join([_fmt(float(x)), _fmt(float(z)), _fmt(val.real), _fmt(val.imag)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def emit_potential_csv(system: WaveguideSystem, dump: dict, path) -> None:
    """x, z, V_re, V_im rows (z-major) over the requested window."""
    xs = np.linspace(-dump["x_half_width"], dump["x_half_width"], dump["nx"])
    if system.is_dynamic:
        z_end = dump["periods"] * system.periods().fundamental
        zs = np.linspace(0.0, z_end, dump["nz"])
    else:
        zs = np.array([0.0])
    _emit_field_csv(system.potential, xs, zs, "V", path)


def _sidecar(path: Path, cfg: ScenarioConfig, series: Sequence[ObservableSeries], extra: dict) -> None:
    meta = {
        "config_sha256": config_digest(cfg.raw),
        "package": f"susytb {__version__}",
        "series": [
            {"column": _column_name(s), "observable": s.observable, "metric": s.metric,
             "normalization": s.normalization, "engine": s.engine}
            for s in series
        ],
    }
    meta.update(extra)
    Path(str(path) + ".meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2, default=_json_default) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _calibrate(cfg: ScenarioConfig) -> tuple[dict, Optional[CalibrationResult]]:
    if cfg.tb_mode == "explicit":
        return dict(cfg.tb_explicit), None
    problem = default_problem(cfg.system, seeds=cfg.tb_seeds)
    result = profile_match(problem) if problem.mode == "profile_dynamic" else spectral_match(problem)
    params = dict(result.parameters)
    params.setdefault("alpha_tilde", 0.0)
    return params, result


def _build_tb(cfg: ScenarioConfig, tb_params: dict):
    system = cfg.system
    k, x0, at = tb_params["k"], tb_params["x0"], tb_params.get("alpha_tilde", 0.0)
    if system.is_dynamic:
        model = two_well_model("hermitian", k, x0,
                               potential=system.potential,
                               hamiltonian_source="system", dynamic=True)
        targets = sorted(system.energies().values())
        flq = floquet_monodromy(model, system.periods().fundamental,
                                StepControl(dz_max=0.02), targets=targets)
        guided = floquet_guided_modes(model, flq)
        c0 = guided.coefficients(cfg.mode_kind, 0.0)
        traj = propagate_coefficients(model, c0, cfg.z_values, StepControl(dz_max=0.02))
        state = TBTrajectoryState(model, traj, system)
        spectrum = {"quasi_energies": [complex(e) for e in flq.quasi_energies],
                    "targets": list(flq.targets), "branch_shifts": flq.branch_shifts.tolist()}
        return model, guided, state, spectrum
    kind = "pt" if system.kind == "pt_static" else "hermitian"
    model = two_well_model(kind, k, x0, at)
    guided = static_guided_modes(model)
    state = TBStaticState(model, guided, cfg.mode_kind, system)
    spectrum = {"energies": [complex(e) for e in guided.energies],
                "exact": sorted(system.energies().values())}
    return model, guided, state, spectrum


def _oracle_residuals(cfg: ScenarioConfig) -> dict:
    system = cfg.system
    L = cfg.quad.half_width
    out: dict = {}
    if system.is_dynamic:
        grid = PropagationGrid(half_width=L, nx=1025, dz=0.01, z_end=4.0)
        out["pde_residual"] = {
            k: pde_residual(lambda x, z, kk=k: system.mode(kk, x, z), system.potential, grid, nz=161)
            for k in ("floquet1", "floquet2")}
    else:
        x = np.linspace(-L, L, 2049)
        energies = system.energies()
        out["eigen_residual"] = {
            kind: eigen_residual(lambda xx, kk=kind: system.mode(kk, xx, 0.0),
                                 lambda xx: system.potential(xx, 0.0), energies[kind], x)
            for kind in ("ground", "excited")}
    return out


def _bpm_check(cfg: ScenarioConfig) -> dict:
    """Propagate the configured exact mode over one fundamental period."""
    system = cfg.system
    t_end = system.periods().fundamental
    grid = PropagationGrid(half_width=cfg.quad.half_width,
                           nx=cfg.bpm_options["nx"], dz=cfg.bpm_options["dz"], z_end=t_end)
    x = grid.x
    snaps = propagate(lambda xx: system.mode(cfg.mode_kind, xx, 0.0),
                      system.potential, grid, [t_end])
    numeric = snaps[-1].samples
    analytic = system.mode(cfg.mode_kind, x, t_end)
    err = math.sqrt(float(np.trapezoid(np.abs(numeric - analytic) ** 2, x)))
    ref = math.sqrt(float(np.trapezoid(np.abs(analytic) ** 2, x)))
    return {"z_end": t_end, "l2_error": err / ref, "nx": grid.nx, "dz": grid.dz}


def run(cfg: ScenarioConfig, outdir) -> tuple[ComparisonReport, list[Path]]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    system = cfg.system
    files: list[Path] = []

    # 1. regularity
    u1, u2, _, _ = system.seeds()
    if system.is_dynamic:
        scan = regularity_scan(u1, u2, (-10.0, 10.0), (0.0, 2 * system.periods().fundamental), 241)
    else:
        scan = regularity_scan(u1, u2, (-10.0, 10.0), (0.0, 0.0), 2001)
    regularity = {"nodeless": scan.nodeless, "min_abs_w": scan.min_abs_w,
                  "argmin": list(scan.argmin), "certified": cfg.certified}

    # 2./3. calibration and TB construction
    tb_params, cal_result = _calibrate(cfg)
    model, guided, tb_state, tb_spectrum = _build_tb(cfg, tb_params)
    calibration = {"mode": cfg.tb_mode, "parameters": tb_params}
    if cal_result is not None:
        calibration.update({"objective_value": cal_result.objective_value,
                            "trace": cal_result.trace})

    well_kind = "pt" if system.kind == "pt_static" else "hermitian"
    kap = overlap_kappa(WellBasis(well_kind, tb_params["k"], tb_params.get("alpha_tilde", 0.0), 0.0),
                        tb_params["x0"])
    kappa = {"value": complex(kap), "well_kind": well_kind}

    # 4./5. observable series for both engines
    exact_state = ExactState(system, cfg.mode_kind)
    all_series: list[ObservableSeries] = []
    metrics: dict = {}
    for req in cfg.observables:
        ex = moment_series(exact_state, req.name, req.metric, cfg.z_values, cfg.quad,
                           normalization=req.normalization, engine="exact")
        tb = moment_series(tb_state, req.name, req.metric, cfg.z_values, cfg.quad,
                           normalization=req.normalization, engine="tb")
        all_series += [ex, tb]
        m = comparison_metrics(ex, tb)
        metrics[_column_name(ex)] = {
            "rmse": m.rmse, "amplitude_ratio": m.amplitude_ratio,
            "phase_shift": m.phase_shift, "period": m.period,
            "engines": ["exact", "tb"],
        }

    # 6. oracles
    residuals = _oracle_residuals(cfg)
    if cfg.bpm_enabled:
        residuals["bpm"] = _bpm_check(cfg)

    # 7. files
    per = system.periods()
    periods_info = {"fundamental": per.fundamental}
    if per.repetition is not None:
        periods_info["repetition"] = asdict(per.repetition)
    report = ComparisonReport(
        system={"kind": system.kind, "params": asdict(system.params),
                "mode_kind": cfg.mode_kind, "warnings": cfg.warnings},
        periods=periods_info,
        regularity=regularity,
        calibration=calibration,
        kappa=kappa,
        tb_spectrum=tb_spectrum,
        metrics=metrics,
        oracle_residuals=residuals,
        provenance={"config_sha256": config_digest(cfg.raw), "package": f"susytb {__version__}"},
    )
    csv_path = outdir / f"{cfg.basename}.csv"
    emit_csv(all_series, csv_path)
    _sidecar(csv_path, cfg, all_series, {"report": f"{cfg.basename}.report.json"})
    files += [csv_path, Path(str(csv_path) + ".meta.json")]
    report_path = outdir / f"{cfg.basename}.report.json"
    report_path.write_text(report.to_json() + "\n", encoding="utf-8")
    files.append(report_path)
    if cfg.potential_dump is not None:
        pot_path = outdir / f"{cfg.basename}.potential.csv"
        emit_potential_csv(system, cfg.potential_dump, pot_path)
        files.append(pot_path)
    return report, files


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_config(args) -> ScenarioConfig:
    text = Path(args.config).read_text(encoding="utf-8")
    cfg = validate_config(text)
    if getattr(args, "nodes", None):
        cfg.quad = QuadratureSpec(half_width=cfg.quad.half_width, nodes=args.nodes,
                                  rule=cfg.quad.rule, tail_tol=cfg.quad.tail_tol)
    if getattr(args, "z_samples", None):
        stop = cfg.z_values[-1]
        n = args.z_samples
        cfg.z_values = [stop * i / (n - 1) for i in range(n)]
    return cfg


def _cmd_validate(args) -> int:
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    for w in cfg.warnings:
        print(f"warning: {w}")
    print("OK")
    return 0


def _cmd_potential(args) -> int:
    cfg = _load_config(args)
    dump = cfg.potential_dump or {"nx": 401, "nz": 129, "x_half_width": 8.0, "periods": 2.0}
    out = Path(args.out) / f"{cfg.basename}.potential.csv"
    Path(args.out).mkdir(parents=True, exist_ok=True)
    emit_potential_csv(cfg.system, dump, out)
    print(out)
    return 0


def _cmd_modes(args) -> int:
    cfg = _load_config(args)
    system = cfg.system
    xs = np.linspace(-cfg.quad.half_width, cfg.quad.half_width, 801)
    zs = cfg.z_values[:: max(1, len(cfg.z_values) // 8)]
    Path(args.out).mkdir(parents=True, exist_ok=True)
    out = Path(args.out) / f"{cfg.basename}.modes.csv"
    _emit_field_csv(lambda x, z: system.mode(cfg.mode_kind, x, z), xs, zs, "psi", out)
    print(out)
    return 0


def _cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    params, result = _calibrate(cfg)
    payload = {"parameters": params}
    if result is not None:
        payload["objective_value"] = result.objective_value
        payload["trace"] = result.trace
        if result.achieved_energies is not None:
            payload["achieved_energies"] = [complex(e) for e in result.achieved_energies]
    print(json.dumps(payload, sort_keys=True, indent=2, default=_json_default))
    return 0


def _cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    tb_params, _ = _calibrate(cfg)
    _, _, _, spectrum = _build_tb(cfg, tb_params)
    print(json.dumps({"tb_parameters": tb_params, "spectrum": spectrum},
                     sort_keys=True, indent=2, default=_json_default))
    return 0


def _cmd_propagate(args) -> int:
    cfg = _load_config(args)
    check = _bpm_check(cfg)
    print(json.dumps({"bpm": check}, sort_keys=True, indent=2, default=_json_default))
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    report, files = run(cfg, args.out)
    for f in files:
        print(f)
    return 0


def _cmd_preset(args) -> int:
    if args.action == "list":
        for name in sorted(PRESETS):
            print(name)
        return 0
    raw = preset_config(args.name)
    cfg = validate_config(json.dumps(raw))
    report, files = run(cfg, args.out)
    for f in files:
        print(f)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="susytb",
        description="Exact PT-symmetric coupled waveguides vs tight-binding models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("config", help="path to a scenario JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--nodes", type=int, default=None, help="override quadrature nodes")
        p.add_argument("--z-samples", type=int, default=None, help="override z sample count")

    for name, fn in [("validate", _cmd_validate), ("potential", _cmd_potential),
                     ("modes", _cmd_modes), ("calibrate", _cmd_calibrate),
                     ("spectrum", _cmd_spectrum), ("propagate", _cmd_propagate),
                     ("compare", _cmd_compare)]:
        p = sub.add_parser(name)
        add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("preset")
    psub = p.add_subparsers(dest="action", required=True)
    pl = psub.add_parser("list")
    pl.set_defaults(fn=_cmd_preset, action="list")
    pr = psub.add_parser("run")
    pr.add_argument("name")
    pr.add_argument("--out", default=".")
    pr.set_defaults(fn=_cmd_preset, action="run")

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures -> exit 2, stage attributed by message
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
