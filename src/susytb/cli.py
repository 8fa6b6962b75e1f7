"""Command-line harness: scenario orchestration and CSV/report emission.

Pipeline per scenario: regularity scan -> exact evaluators -> calibration
(or explicit TB parameters) -> TB spectrum / coupled-mode ODE / Floquet ->
observable series for both engines -> optional BPM cross-check -> metrics
-> files, all series on the config's one z grid and all JSON strict. Deterministic
given the config: fixed quadrature orders, fixed optimizer seeding, no wall-clock
anywhere near the output path.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bpm import PropagationGrid, eigen_residual, pde_residual, propagate
from .calibrate import CalibrationResult, default_problem, profile_match, spectral_match
from .config import ConfigError, ScenarioConfig, config_digest, validate_config
from .observables import (
    ExactState,
    ObservableSeries,
    TBStaticState,
    TBTrajectoryState,
    comparison_metrics,
    moment_table,
)
from .presets import PRESETS, preset_config
from .quadrature import read_only
from .systems import WaveguideSystem
from .tightbinding import (
    StepControl,
    floquet_guided_modes,
    floquet_monodromy,
    overlap_kappa,
    static_guided_modes,
    two_well_model,
)

ENGINE_ORDER = ("exact", "tb")

# glibc keeps 2 MiB of free heap top (mallopt M_TRIM_THRESHOLD, -1), not 128 KiB: else the ~1 MB that the exact
# tables free per z or phase goes back to the kernel, to be faulted in again on the next
if hasattr(_libc := ctypes.CDLL(None) if sys.platform != "win32" else None, "mallopt"):
    _libc.mallopt(-1, 2 << 20)


def _json(obj) -> str:
    """Strict JSON (no NaN or Infinity: ValueError) with sorted keys, a complex number as {"re", "im"}."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default, allow_nan=False)


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

_FMT = "%.17g"  # the bytes of format(v, ".17g"): both call PyOS_double_to_string


def _column_name(s: ObservableSeries) -> str:
    return s.observable if s.metric == "dirac" else f"{s.observable}_{s.metric}"


def emit_csv(series: Sequence[ObservableSeries], path) -> None:
    """Wide CSV: z column, one (or _re/_im pair of) column(s) per observable, engine column; at
    each z of the series' one grid a row per engine, ordered exact, tb (no engine: exact).
    ValueError unless each engine present has one series of every column, all on one z grid."""
    path = Path(path)
    columns: dict[str, bool] = {}  # name -> is_complex, in first-seen order
    table: dict[tuple[str, str], np.ndarray] = {}  # (engine, column) -> values
    for s in series:
        name = _column_name(s)
        is_c = bool(np.max(np.abs(s.values.imag)) > 1e-15 * max(1.0, float(np.max(np.abs(s.values.real)))))
        columns[name] = columns.get(name, False) or is_c
        table[s.engine or "exact", name] = s.values
    engines = [engine for engine in ENGINE_ORDER if any(key[0] == engine for key in table)]
    if (len(table) < len(series) or table.keys() != {(e, name) for e in engines for name in columns}
            or any(not np.array_equal(s.z, series[0].z) for s in series)):
        raise ValueError("CSV series: each engine given (exact or tb) needs one of every column, on one z grid")
    header = ["z"]
    for name, is_c in columns.items():
        if is_c:
            header += [f"{name}_re", f"{name}_im"]
        else:
            header.append(name)
    header.append("engine")
    cells = []  # at each z, every engine's row: z, then each column's real (and imaginary) part
    for engine in engines:
        cells.append(series[0].z)
        for name, is_c in columns.items():
            v = table[engine, name]
            cells += [v.real, v.imag] if is_c else [v.real]
    row = ",".join([_FMT] * (len(header) - 1))
    fmt = "\n".join(f"{row},{engine}" for engine in engines)
    lines = [",".join(header), *(fmt % tuple(at_z.tolist()) for at_z in np.array(cells, dtype=float).T)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _emit_field_csv(field, xs, zs, name: str, path) -> None:
    """x, z, <name>_re, <name>_im rows (z-major) of field(xs, z), written one z at a time."""
    block = "".join(f"{_FMT % x},{{z}},{_FMT},{_FMT}\n" for x in xs)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"x,z,{name}_re,{name}_im\n")
        for z in zs:
            z = float(z)
            v = np.ascontiguousarray(field(xs, z), dtype=complex)
            fh.write(block.replace("{z}", _FMT % z) % tuple(v.view(float).tolist()))


def emit_potential_csv(system: WaveguideSystem, dump: dict, path) -> None:
    """x, z, V_re, V_im rows (z-major) over the requested window."""
    xs = read_only(np.linspace(-dump["x_half_width"], dump["x_half_width"], dump["nx"]))
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
    Path(str(path) + ".meta.json").write_text(_json(meta) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _calibrate(cfg: ScenarioConfig) -> tuple[str, dict, Optional[CalibrationResult]]:
    """The route that ran ("explicit", "spectral" or "profile"), the TB parameters and the fit."""
    if cfg.tb_explicit is not None:
        return "explicit", dict(cfg.tb_explicit), None
    problem = default_problem(cfg.system)
    route, match = ("profile", profile_match) if cfg.system.is_dynamic else ("spectral", spectral_match)
    result = match(problem)
    return route, dict(result.parameters), result


def _build_tb(cfg: ScenarioConfig, tb_params: dict):
    system = cfg.system
    if system.is_dynamic:
        model = two_well_model(system.facts.wells, **tb_params, potential=system.potential,
                               hamiltonian_source="system", dynamic=True)
        targets = sorted(system.energies().values())
        flq = floquet_monodromy(model, system.periods().fundamental,
                                StepControl(), targets=targets, z_grid=cfg.z_values)
        guided = floquet_guided_modes(model, flq)
        state = TBTrajectoryState(model, flq, guided.coefficients(cfg.mode_kind, 0.0))
        spectrum = {"quasi_energies": [complex(e) for e in flq.quasi_energies],
                    "targets": list(flq.targets), "branch_shifts": flq.branch_shifts.tolist()}
        return model, state, spectrum
    model = two_well_model(system.facts.wells, **tb_params)
    guided = static_guided_modes(model)
    state = TBStaticState(model, guided, cfg.mode_kind, system)
    spectrum = {"energies": [complex(e) for e in guided.energies],
                "exact": sorted(system.energies().values())}
    return model, state, spectrum


def _oracle_residuals(cfg: ScenarioConfig) -> dict:
    system = cfg.system
    L = cfg.quad.half_width
    if system.is_dynamic:
        grid = PropagationGrid(half_width=L, nx=1025, dz=0.01, z_end=4.0)
        # one march for both modes, sharing each V sample and closed-form pass
        worst = pde_residual(lambda x, z: system.pair(x, z)(0), system.potential, grid, nz=161)
        return {"pde_residual": dict(zip(system.facts.stationary, worst.tolist()))}
    x = read_only(np.linspace(-L, L, 2049))  # frozen: both kinds share one x-only pass
    energies = system.energies()
    return {"eigen_residual": {
        kind: eigen_residual(lambda xx, kk=kind: system.mode(kk, xx, 0.0),
                             lambda xx: system.potential(xx, 0.0), energies[kind], x)
        for kind in system.facts.stationary}}


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


def run(cfg: ScenarioConfig, outdir) -> tuple[dict, list[Path]]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    system = cfg.system
    files: list[Path] = []

    # 1. regularity
    scan = system.regularity
    regularity = {"nodeless": scan.nodeless, "min_abs_w": scan.min_abs_w,
                  "argmin": list(scan.argmin), "certified": cfg.certified}

    # 2. exact observable series, before the TB model samples V: validate's guard kept their x parts
    exact_table = moment_table(ExactState(system, cfg.mode_kind), cfg.observables, cfg.z_values,
                               cfg.quad, engine="exact")
    # 3./4. calibration and TB construction
    route, tb_params, cal_result = _calibrate(cfg)
    model, tb_state, tb_spectrum = _build_tb(cfg, tb_params)
    calibration = {"mode": route, "parameters": tb_params}
    if cal_result is not None:
        calibration.update({"objective_value": cal_result.objective_value,
                            "trace": cal_result.trace})

    well = model.wells[0]
    kappa = {"value": complex(overlap_kappa(well, tb_params["x0"])), "well_kind": well.kind}

    # 5. TB observable series
    tb_table = moment_table(tb_state, cfg.observables, cfg.z_values, cfg.quad, engine="tb")
    all_series: list[ObservableSeries] = []
    metrics: dict = {}
    for ex, tb in zip(exact_table, tb_table):
        all_series += [ex, tb]
        metrics[_column_name(ex)] = {**asdict(comparison_metrics(ex, tb)), "engines": ["exact", "tb"]}

    # 6. oracles
    residuals = _oracle_residuals(cfg)
    if cfg.bpm_options["enabled"]:
        residuals["bpm"] = _bpm_check(cfg)

    # 7. files
    per = system.periods()
    periods_info = {"fundamental": per.fundamental}
    if per.repetition is not None:
        periods_info["repetition"] = asdict(per.repetition)
    report = {
        "system": {"kind": system.kind, "params": asdict(system.params),
                   "mode_kind": cfg.mode_kind, "warnings": cfg.warnings},
        "periods": periods_info,
        "regularity": regularity,
        "calibration": calibration,
        "kappa": kappa,
        "tb_spectrum": tb_spectrum,
        "metrics": metrics,
        "oracle_residuals": residuals,
        "provenance": {"config_sha256": config_digest(cfg.raw), "package": f"susytb {__version__}"},
    }
    report_text = _json(report)  # first, so a non-finite value writes no file
    csv_path = outdir / f"{cfg.basename}.csv"
    emit_csv(all_series, csv_path)
    _sidecar(csv_path, cfg, all_series, {"report": f"{cfg.basename}.report.json"})
    files += [csv_path, Path(str(csv_path) + ".meta.json")]
    report_path = outdir / f"{cfg.basename}.report.json"
    report_path.write_text(report_text + "\n", encoding="utf-8")
    files.append(report_path)
    if cfg.potential_dump["enabled"]:
        pot_path = outdir / f"{cfg.basename}.potential.csv"
        emit_potential_csv(system, cfg.potential_dump, pot_path)
        files.append(pot_path)
    return report, files


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(cfg: ScenarioConfig, out: Path) -> int:
    for w in cfg.warnings:
        print(f"warning: {w}")
    print("OK")
    return 0


def _cmd_potential(cfg: ScenarioConfig, out: Path) -> int:
    path = out / f"{cfg.basename}.potential.csv"
    out.mkdir(parents=True, exist_ok=True)
    emit_potential_csv(cfg.system, cfg.potential_dump, path)
    print(path)
    return 0


def _cmd_modes(cfg: ScenarioConfig, out: Path) -> int:
    system = cfg.system
    xs = read_only(np.linspace(-cfg.quad.half_width, cfg.quad.half_width, 801))
    zs = cfg.z_values[:: max(1, len(cfg.z_values) // 8)]
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg.basename}.modes.csv"
    _emit_field_csv(lambda x, z: system.mode(cfg.mode_kind, x, z), xs, zs, "psi", path)
    print(path)
    return 0


def _cmd_calibrate(cfg: ScenarioConfig, out: Path) -> int:
    _, params, result = _calibrate(cfg)
    payload = {"parameters": params}
    if result is not None:
        payload["objective_value"] = result.objective_value
        payload["trace"] = result.trace
        if result.achieved_energies is not None:
            payload["achieved_energies"] = [complex(e) for e in result.achieved_energies]
    print(_json(payload))
    return 0


def _cmd_spectrum(cfg: ScenarioConfig, out: Path) -> int:
    _, tb_params, _ = _calibrate(cfg)
    _, _, spectrum = _build_tb(cfg, tb_params)
    print(_json({"tb_parameters": tb_params, "spectrum": spectrum}))
    return 0


def _cmd_propagate(cfg: ScenarioConfig, out: Path) -> int:
    print(_json({"bpm": _bpm_check(cfg)}))
    return 0


def _cmd_compare(cfg: ScenarioConfig, out: Path) -> int:
    _, files = run(cfg, out)
    for f in files:
        print(f)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Load and validate the scenario once, then run the subcommand on it; `preset run NAME`
    is `compare` on the bundled scenario. Exit 1 on a refused config, 2 on a runtime failure."""
    parser = argparse.ArgumentParser(
        prog="susytb",
        description="Exact PT-symmetric coupled waveguides vs tight-binding models")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in [("validate", _cmd_validate), ("potential", _cmd_potential),
                     ("modes", _cmd_modes), ("calibrate", _cmd_calibrate),
                     ("spectrum", _cmd_spectrum), ("propagate", _cmd_propagate),
                     ("compare", _cmd_compare)]:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a scenario JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(fn=fn)

    p = sub.add_parser("preset")
    psub = p.add_subparsers(dest="action", required=True)
    psub.add_parser("list")
    pr = psub.add_parser("run")
    pr.add_argument("name")
    pr.add_argument("--out", default=".")
    pr.set_defaults(fn=_cmd_compare)

    args = parser.parse_args(argv)
    if args.command == "preset" and args.action == "list":
        print("\n".join(sorted(PRESETS)))
        return 0
    try:
        if args.command == "preset":
            text = json.dumps(preset_config(args.name), allow_nan=False)
        else:
            text = Path(args.config).read_text(encoding="utf-8")
        return args.fn(validate_config(text), Path(args.out))
    except ConfigError as exc:
        for e in exc.errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures -> exit 2, stage attributed by message
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
