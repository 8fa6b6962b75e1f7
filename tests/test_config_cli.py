import json
from pathlib import Path

import numpy as np
import pytest

from susytb.cli import emit_csv, main, run
from susytb.config import ConfigError, config_digest, validate_config
from susytb.observables import ObservableSeries
from susytb.presets import PRESETS, preset_config

BASE = {
    "system": {"kind": "hermitian_static", "k1": 0.645, "k2": 0.865},
    "tb": {"mode": "explicit", "k": 0.7454, "x0": 1.66214},
    "z_grid": {"periods": 0.5, "num": 17},
    "mode_kind": "left",
    "observables": ["x_mean", "power"],
    "quadrature": {"nodes": 1025},
    "output": {"basename": "tiny"},
}


def _cfg(**overrides):
    raw = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(raw.get(key), dict):
            raw[key].update(val)
        else:
            raw[key] = val
    return raw


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_valid_config_parses():
    cfg = validate_config(json.dumps(BASE))
    assert cfg.system.kind == "hermitian_static"
    assert len(cfg.z_values) == 17
    assert cfg.z_values[0] == 0.0
    assert cfg.observables[0].name == "x_mean"


def test_ordering_violation_is_field_addressed():
    raw = _cfg(system={"kind": "hermitian_static", "k1": 0.9, "k2": 0.5})
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps(raw))
    assert any("system" in e and "|k2| > |k1|" in e for e in exc.value.errors)


def test_missing_z_grid_rejected():
    raw = _cfg()
    del raw["z_grid"]
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps(raw))
    assert any("z_grid" in e for e in exc.value.errors)


def test_error_aggregation():
    raw = _cfg(observables=["x_mean", "charge"], mode_kind="floquet1")
    raw["z_grid"] = {"num": 1}
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps(raw))
    msgs = "\n".join(exc.value.errors)
    assert "observables[1].name" in msgs
    assert "mode_kind" in msgs
    assert "z_grid.num" in msgs and "z_grid:" in msgs


def test_uncertified_dynamic_accepted_with_warning():
    raw = _cfg(system={"kind": "pt_dynamic", "k1": 1.0, "k2": 1.1, "k3": 0.95, "alpha": 0.1},
               tb={"mode": "explicit", "k": 1.045, "x0": 1.77114})
    cfg = validate_config(json.dumps(raw))
    assert cfg.certified is False
    assert any("certified=false" in w for w in cfg.warnings)


def test_singular_dynamic_rejected():
    raw = _cfg(system={"kind": "pt_dynamic", "k1": 1.0, "k2": 1.1, "k3": 0.95, "alpha": 1.0})
    with pytest.raises(ConfigError):
        validate_config(json.dumps(raw))


def test_not_json_and_bad_shape():
    with pytest.raises(ConfigError):
        validate_config("k2 = 0.86")
    with pytest.raises(ConfigError):
        validate_config("[1, 2]")


def test_gl_rule_rejected_for_series():
    raw = _cfg(quadrature={"nodes": 1024, "rule": "gauss_legendre_composite"})
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps(raw))
    assert any("uniform" in e for e in exc.value.errors)


def test_config_digest_is_order_insensitive():
    a = config_digest({"b": 1, "a": [1, 2]})
    b = config_digest({"a": [1, 2], "b": 1})
    assert a == b and len(a) == 64


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _series(obs, vals, engine, metric="dirac"):
    z = np.arange(len(vals), dtype=float)
    return ObservableSeries(z=z, values=np.asarray(vals, complex), observable=obs,
                            metric=metric, normalization="none", engine=engine)


def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == "z,engine\n"


def test_emit_csv_single_real_series(tmp_path):
    path = tmp_path / "one.csv"
    emit_csv([_series("power", [1.0, 0.5, 0.25], "exact")], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "z,power,engine"
    assert lines[1] == "0,1,exact"


def test_emit_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(5) * 1e3 + rng.standard_normal(5) * 1j
    path = tmp_path / "rt.csv"
    emit_csv([_series("x_mean", vals, "tb")], path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["z", "x_mean_re", "x_mean_im", "engine"]
    for line, v in zip(lines[1:], vals):
        cells = line.split(",")
        assert float(cells[1]) == v.real and float(cells[2]) == v.imag


def test_emit_csv_engine_order_and_pt_columns(tmp_path):
    path = tmp_path / "multi.csv"
    emit_csv([
        _series("H_mean", [1.0, 2.0], "tb", metric="pt"),
        _series("H_mean", [1.5, 2.5], "exact", metric="pt"),
    ], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "z,H_mean_pt,engine"
    assert [l.split(",")[-1] for l in lines[1:]] == ["exact", "tb", "exact", "tb"]


# ---------------------------------------------------------------------------
# pipeline and CLI
# ---------------------------------------------------------------------------

def test_run_pipeline_tiny(tmp_path):
    cfg = validate_config(json.dumps(BASE))
    report, files = run(cfg, tmp_path)
    assert (tmp_path / "tiny.csv").exists()
    assert (tmp_path / "tiny.report.json").exists()
    assert report.regularity["nodeless"] is True
    assert report.kappa["value"].real == pytest.approx(0.4188, abs=1e-3)
    assert "x_mean" in report.metrics
    meta = json.loads((tmp_path / "tiny.csv.meta.json").read_text())
    assert meta["config_sha256"] == config_digest(cfg.raw)
    engines = {s["engine"] for s in meta["series"]}
    assert engines == {"exact", "tb"}


def test_cli_validate_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(BASE))
    assert main(["validate", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_cfg(system={"kind": "hermitian_static", "k1": 0.9, "k2": 0.5})))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("k3", [0.0, 0.01])
def test_cli_refuses_unguided_or_overflowing_pair(tmp_path, capsys, k3):
    """k3 = 0 with alpha != 0 is not guided; k3 = 0.01 widens the window past float range."""
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps(_cfg(system={"kind": "pt_dynamic", "k1": 1.0, "k2": 1.1,
                                           "k3": k3, "alpha": 0.1})))
    assert main(["validate", str(cfg)]) == 1
    assert "error: system:" in capsys.readouterr().err


def test_cli_missing_file_is_runtime_error(tmp_path):
    assert main(["compare", str(tmp_path / "nope.json")]) == 2


def test_cli_preset_list(capsys):
    assert main(["preset", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert sorted(PRESETS) == out


def test_cli_calibrate_explicit(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(BASE))
    assert main(["calibrate", str(cfgp)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameters"]["k"] == 0.7454


def test_cli_compare_writes_files(tmp_path):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(BASE))
    assert main(["compare", str(cfgp), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "tiny.csv").exists()


def test_cli_spectrum(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(BASE))
    assert main(["spectrum", str(cfgp)]) == 0
    payload = json.loads(capsys.readouterr().out)
    energies = [e["re"] for e in payload["spectrum"]["energies"]]
    assert energies[0] < energies[1] < 0


def test_preset_configs_validate():
    for name in PRESETS:
        cfg = validate_config(json.dumps(preset_config(name)))
        assert cfg.basename == name


def test_run_pipeline_pt_static(tmp_path):
    raw = _cfg(system={"kind": "pt_static", "k1": 1.1, "k2": 1.2, "alpha": 0.2},
               tb={"mode": "explicit", "k": 1.1468, "x0": 1.6579, "alpha_tilde": 0.21},
               observables=["power", {"name": "H_mean", "metric": "pt"}],
               output={"basename": "ptsmoke"})
    cfg = validate_config(json.dumps(raw))
    report, _ = run(cfg, tmp_path)
    assert report.regularity["nodeless"] is True
    hp = report.metrics["H_mean_pt"]
    assert hp["rmse"] < 0.05  # near-identical conserved constants
    energies = [e.real for e in report.tb_spectrum["energies"]]
    assert energies[0] == pytest.approx(-1.44, abs=0.05)


def test_run_pipeline_dynamic(tmp_path):
    raw = _cfg(system={"kind": "pt_dynamic", "k1": 1.0, "k2": 1.1, "k3": 0.95, "alpha": 0.1},
               tb={"mode": "explicit", "k": 1.045, "x0": 1.77114},
               observables=["x_mean", "power"],
               output={"basename": "dynsmoke"})
    raw["z_grid"] = {"periods": 0.25, "num": 17}
    raw["potential_dump"] = {"enabled": True, "nx": 41, "nz": 17,
                             "x_half_width": 5.0, "periods": 1.0}
    cfg = validate_config(json.dumps(raw))
    report, files = run(cfg, tmp_path)
    assert (tmp_path / "dynsmoke.potential.csv").exists()
    assert report.regularity["certified"] is False and report.regularity["nodeless"] is True
    q = [e.real for e in report.tb_spectrum["quasi_energies"]]
    assert q[0] == pytest.approx(-1.21, abs=0.01)
    assert q[1] == pytest.approx(-1.0, abs=0.01)
    assert report.oracle_residuals["pde_residual"]["floquet1"] < 1e-6
    # the potential dump covers one modulation period on the requested window
    lines = (tmp_path / "dynsmoke.potential.csv").read_text().splitlines()
    assert lines[0] == "x,z,V_re,V_im"
    assert len(lines) == 1 + 41 * 17


def test_run_pipeline_with_bpm_check(tmp_path):
    raw = _cfg(bpm={"enabled": True, "nx": 1024, "dz": 0.02},
               output={"basename": "bpmsmoke"})
    cfg = validate_config(json.dumps(raw))
    report, _ = run(cfg, tmp_path)
    assert report.oracle_residuals["bpm"]["l2_error"] < 5e-3
