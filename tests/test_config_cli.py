import contextlib
import io
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import susytb.cli as cli
import susytb.darboux as darboux
import susytb.systems as systems
import susytb.tightbinding as tightbinding
from susytb.calibrate import default_problem, spectral_match
from susytb.cli import emit_csv, main, run
from susytb.config import OBSERVABLE, SCHEMA, ConfigError, config_digest, system_keys, validate_config
from susytb.observables import ObservableSeries
from susytb.presets import PRESETS, preset_config
from susytb.quadrature import read_only
from susytb.systems import KINDS

BASE = {
    "system": {"kind": "hermitian_static", "k1": 0.645, "k2": 0.865},
    "tb": {"k": 0.7454, "x0": 1.66214},
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
    assert "z_grid.num" in msgs and "z_grid.periods: missing required field" in msgs


def test_uncertified_dynamic_accepted_with_warning():
    raw = _cfg(system={"kind": "pt_dynamic", "k1": 1.0, "k2": 1.1, "k3": 0.95, "alpha": 0.1},
               tb={"k": 1.045, "x0": 1.77114})
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
    assert exc.value.errors == ["quadrature.rule: unknown key; expected one of half_width, nodes"]


def test_null_half_width_selects_the_default_window(tmp_path):
    omitted = validate_config(json.dumps(_cfg(quadrature={"nodes": 1025})))
    null = validate_config(json.dumps(_cfg(quadrature={"nodes": 1025, "half_width": None})))
    assert null.quad == omitted.quad
    path = tmp_path / "null.json"
    path.write_text(json.dumps(_cfg(quadrature={"half_width": None})))
    assert main(["validate", str(path)]) == 0
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps(_cfg(quadrature={"half_width": "wide"})))
    assert any(e.startswith("quadrature.half_width:") for e in exc.value.errors)


@pytest.mark.parametrize("block, key, value, message", [
    ("bpm", "nx", 255, "need nx >= 256"),
    ("bpm", "dz", 0.0, "dz must be positive"),
    ("potential_dump", "nx", 0, "need at least 1 sample"),
    ("potential_dump", "nz", 0, "need at least 1 sample"),
    ("potential_dump", "x_half_width", -5.0, "must be positive"),
    ("potential_dump", "periods", 0.0, "must be positive"),
])
def test_grid_sizes_a_run_refuses_are_field_addressed(tmp_path, capsys, block, key, value, message):
    raw = _cfg(**{block: {"enabled": True, key: value}})
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps(raw))
    assert exc.value.errors == [f"{block}.{key}: {message}"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 1
    assert f"error: {block}.{key}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("block", ["bpm", "potential_dump"])
@pytest.mark.parametrize("value, got", [("false", "str"), ("no", "str"), (1, "int")])
def test_enabled_flags_must_be_booleans(tmp_path, capsys, block, value, got):
    raw = _cfg(**{block: {"enabled": value}})
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps(raw))
    assert exc.value.errors == [f"{block}.enabled: expected bool, got {got}"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 1
    assert f"error: {block}.enabled: expected bool, got {got}" in capsys.readouterr().err


@pytest.mark.parametrize("preset, key, value", [
    ("pt-dynamic-fig1-5-6", "alpha", math.nan),  # the regularity scan used to raise on it
    ("pt-static-fig3-4", "alpha", math.nan),
    ("hermitian-fig2", "k2", math.inf),
])
def test_non_finite_system_parameters_exit_1(tmp_path, capsys, preset, key, value):
    raw = preset_config(preset)
    raw["system"][key] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 1
    assert f"error: system.{key}: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("block, key, value, message", [
    ("quadrature", "half_width", math.nan, "quadrature.half_width: must be finite, got nan"),
    ("z_grid", "periods", math.nan, "z_grid.periods: must be finite, got nan"),
    ("tb", "x0", math.nan, "tb.x0: must be finite, got nan"),
    ("tb", "k", math.inf, "tb.k: must be finite, got inf"),
    ("quadrature", "nodes", 8, "quadrature.nodes: need at least 64 quadrature nodes"),
    ("quadrature", "half_width", -5.0, "quadrature.half_width: half_width must be positive"),
    ("tb", "alpha_tilde", 0.2, "tb.alpha_tilde: must be 0 for the Hermitian wells"),
])
def test_bad_numbers_outside_the_system_block_exit_1(tmp_path, capsys, block, key, value, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_cfg(**{block: {key: value}})))
    for argv in (["validate", str(path)], ["compare", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


CONFIG_COMMANDS = ("validate", "potential", "modes", "calibrate", "spectrum", "propagate", "compare")


@pytest.mark.parametrize("preset, block, value, message", [
    ("hermitian-fig2", "quadrature", {"half_width": 300},
     "quadrature.half_width: 300 runs past |x| = 235, where the closed forms overflow"),
    ("hermitian-fig2", "quadrature", {"half_width": 700, "nodes": 400001},
     "quadrature.half_width: 700 runs past |x| = 235, where the closed forms overflow"),
    ("pt-dynamic-fig1-5-6", "quadrature", {"half_width": 170},
     "quadrature.half_width: 170 runs past |x| = 169, where the closed forms overflow"),
    ("pt-static-fig3-4", "potential_dump", {"enabled": True, "x_half_width": 200},
     "potential_dump.x_half_width: 200 runs past |x| = 154.3, where the closed forms overflow"),
])
def test_what_calibration_or_the_closed_forms_cannot_run_exits_1(tmp_path, capsys, preset, block,
                                                                  value, message):
    """A window past the overflow limit gave NaNs."""
    raw = preset_config(preset)
    raw.setdefault(block, {}).update(value)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    for command in CONFIG_COMMANDS:
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_the_widest_window_inside_the_overflow_limit_runs():
    raw = preset_config("pt-static-fig3-4")
    # at the default 4,097 nodes, dx = 0.075 leaves the p moments unresolved, which validate refuses
    raw["quadrature"].update(half_width=154.3, nodes=32769)
    cfg = validate_config(json.dumps(raw))
    assert cfg.quad.half_width == 154.3 < cfg.system.x_limit
    psi = cfg.system.mode(cfg.mode_kind, np.array([-154.3, 0.0, 154.3]), 1.0)
    assert np.all(np.isfinite(psi))


@pytest.mark.parametrize("alpha, cause", [(1e19, "could not label left/right modes by <x>"),
                                          (1e200, "float division by zero")])
@pytest.mark.parametrize("observables", [None, ["x_mean"]])
def test_a_pt_static_pair_whose_modes_cannot_be_normalized_exits_1(tmp_path, capsys, alpha, cause, observables):
    """The record is valid at any finite alpha, but past ~1e19 the pair's two modes merge (left and right read
    one <x> sign) and at 1e200 the excited mode's pseudo-norm underflows to 0. validate evaluates the norms, so
    both observable sets are refused field-addressed with exit 1, not as a runtime error (exit 2)."""
    raw = preset_config("pt-static-fig3-4")
    raw["system"]["alpha"] = alpha
    if observables is not None:
        raw["observables"] = observables
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    for command in ("validate", "compare"):
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: system.alpha: the pair's modes cannot be normalized ({cause})\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset, mode_kind, kinds", [
    ("hermitian-fig2", "floquet1", ["ground", "excited", "left", "right"]),
    ("pt-static-fig3-4", "sideways", ["ground", "excited", "left", "right"]),
    ("pt-dynamic-fig1-5-6", "ground", ["floquet1", "floquet2", "left", "right"]),
])
def test_a_mode_kind_the_system_lacks_is_refused(tmp_path, capsys, preset, mode_kind, kinds):
    raw = preset_config(preset)
    raw["mode_kind"] = mode_kind
    kind = raw["system"]["kind"]
    message = f"mode_kind: a {kind} system has no mode {mode_kind!r}; expected one of {kinds}"
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps(raw))
    assert exc.value.errors == [message]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_alpha_tilde_is_refused_on_the_dynamic_system_too():
    raw = preset_config("pt-dynamic-fig1-5-6")
    raw["tb"] = {"k": 1.0, "x0": 1.8, "alpha_tilde": 0.1}
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps(raw))
    assert exc.value.errors == ["tb.alpha_tilde: must be 0 for the Hermitian wells of a "
                                "pt_dynamic system"]
    raw["tb"]["alpha_tilde"] = 0.0
    validate_config(json.dumps(raw))


@pytest.mark.parametrize("preset", ["hermitian-fig2", "pt-dynamic-fig1-5-6"])
def test_explicit_pair_with_an_ill_conditioned_overlap_exits_1(tmp_path, capsys, preset):
    """Wells at +-1e-6 nearly coincide (cond(S) 3.0e12): validate refuses the pair, where a static spectrum
    used to divide rounding by 1 - s ~ 7e-13 and a modulated run to fail in its march (exit 2)."""
    raw = preset_config(preset)
    raw["tb"] = {"k": 1.0, "x0": 1e-6}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tb.x0: the wells at +-x0 overlap too far: cond(S) = 3.0")
    assert err.endswith("e+12 > 1e+12\n") and err.count("\n") == 1
    raw["tb"]["alpha_tilde"] = 0.1  # refused for the Hermitian wells first: no pair is built
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps(raw))
    assert [e.split(":")[0] for e in exc.value.errors] == ["tb.alpha_tilde"]
    raw["tb"] = {"k": 1.0, "x0": 1e-4}  # cond(S) 3.0e8
    assert validate_config(json.dumps(raw)).tb_explicit == {"k": 1.0, "x0": 1e-4, "alpha_tilde": 0.0}


TB_MODE = "tb.mode: unknown key; expected one of alpha_tilde, k, x0"
TB_SEEDS = "tb.seeds: unknown key; expected one of alpha_tilde, k, x0"
RULE = "quadrature.rule: unknown key; expected one of half_width, nodes"
EXPLICIT = {"k": 0.7, "x0": 1.5, "alpha_tilde": 0.0}


@pytest.mark.parametrize("blocks, explicit, errors", [
    # the inference rule: any of k, x0, alpha_tilde is the explicit model, else calibration
    ({"tb": {}}, None, []),
    ({"tb": {"seeds": [5, 5]}}, None, [TB_SEEDS]),  # the multistart grid is the kind's
    ({"tb": {"k": 0.7, "x0": 1.5}}, EXPLICIT, []),
    ({"tb": dict(EXPLICIT)}, EXPLICIT, []),
    ({"tb": {"k": 0.7}}, None, ["tb.x0: missing required field"]),
    ({"tb": {"x0": 1.5}}, None, ["tb.k: missing required field"]),
    ({"tb": {"alpha_tilde": 0.0}}, None,
     ["tb.k: missing required field", "tb.x0: missing required field"]),
    # unknown keys (the removed mode, seeds and rule too) are refused, not ignored
    ({"tb": {"mode": "auto"}}, None, [TB_MODE]),
    ({"tb": {"mode": "spectral", "k": 1.0, "x0": 1.5}}, None, [TB_MODE]),
    ({"tb": {"k": 0.7, "x0": 1.5, "seeds": [5, 5]}}, None, [TB_SEEDS]),
    ({"quadrature": {"rule": "simpson"}}, None, [RULE]),
    # JSON true is not a number: neither 1.0 nor the integer 1
    ({"z_grid": {"periods": True, "num": 17}}, None, ["z_grid.periods: expected float, got bool"]),
    ({"z_grid": {"periods": 0.5, "num": True}}, None, ["z_grid.num: expected int, got bool"]),
    ({"quadrature": {"nodes": True}}, None, ["quadrature.nodes: expected int, got bool"]),
    ({"bpm": {"nx": True}}, None, ["bpm.nx: expected int, got bool"]),
    ({"potential_dump": {"nx": True}}, None, ["potential_dump.nx: expected int, got bool"]),
    # the dump's sizes are validated whether or not compare writes it
    ({"potential_dump": {"enabled": False, "nz": 0}}, None,
     ["potential_dump.nz: need at least 1 sample"]),
])
def test_validate_infers_the_tb_route_and_refuses_what_it_would_ignore(tmp_path, capsys, blocks,
                                                                        explicit, errors):
    raw = dict(BASE, **blocks)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == (1 if errors else 0)
    assert capsys.readouterr().err == "".join(f"error: {e}\n" for e in errors)
    if not errors:
        assert validate_config(json.dumps(raw)).tb_explicit == explicit


@pytest.mark.parametrize("preset", ["hermitian-fig2", "pt-static-fig3-4"])
def test_explicit_parameters_from_calibrate_reproduce_the_calibrated_run(tmp_path, capsys, preset):
    """`calibrate` JSON fed back as the tb block gives the calibrated run's TB columns exactly."""
    raw = preset_config(preset)
    raw["z_grid"]["num"] = 41
    calibrated = tmp_path / "calibrated.json"
    calibrated.write_text(json.dumps(raw))
    assert main(["calibrate", str(calibrated)]) == 0
    raw["tb"] = json.loads(capsys.readouterr().out)["parameters"]
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps(raw))
    for path, out in ((calibrated, "a"), (explicit, "b")):
        assert main(["compare", str(path), "--out", str(tmp_path / out)]) == 0
    capsys.readouterr()
    csvs = [(tmp_path / out / f"{preset}.csv").read_text() for out in "ab"]
    tb_rows = [[line for line in text.splitlines() if line.endswith(",tb")] for text in csvs]
    assert len(tb_rows[0]) == 41 and tb_rows[0] == tb_rows[1]
    assert csvs[0] == csvs[1]
    reports = [json.loads((tmp_path / out / f"{preset}.report.json").read_text()) for out in "ab"]
    assert [r["calibration"]["mode"] for r in reports] == ["spectral", "explicit"]
    assert reports[0]["calibration"]["parameters"] == reports[1]["calibration"]["parameters"]
    for key in ("kappa", "tb_spectrum", "metrics"):
        assert reports[0][key] == reports[1][key]


def test_the_modulated_pair_is_calibrated_by_profile_matching():
    cfg = validate_config(json.dumps(preset_config("pt-dynamic-fig1-5-6")))
    route, params, result = cli._calibrate(cfg)
    assert route == "profile" and cfg.tb_explicit is None
    assert params == result.parameters and set(params) == {"k", "x0", "alpha_tilde"}


@pytest.mark.parametrize("flag", ["--nodes", "--z-samples"])
def test_config_overrides_are_not_options(tmp_path, flag):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(BASE))
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(path), flag, "64"])
    assert exc.value.code == 2  # argparse: unrecognized arguments


def test_pt_dynamic_preset_scans_regularity_once(tmp_path, monkeypatch):
    """validate_config and run share the system's one Wronskian scan."""
    calls = []
    scan = darboux.regularity_scan
    for owner in (darboux, cli):  # count the scan wherever a caller has bound it
        if hasattr(owner, "regularity_scan"):
            monkeypatch.setattr(owner, "regularity_scan",
                                lambda *a, **k: calls.append(a) or scan(*a, **k))
    raw = preset_config("pt-dynamic-fig1-5-6")
    raw["z_grid"] = {"periods": 0.1, "num": 5}  # the scan covers two periods whatever the grid
    report, _ = run(validate_config(json.dumps(raw)), tmp_path)
    assert len(calls) == 1
    assert report["regularity"]["nodeless"] is True and report["regularity"]["certified"] is False


def _table_paths(table: dict, path: tuple = ()):
    for name, key in table.items():
        yield path + (name,)
        if isinstance(key.type, dict):
            yield from _table_paths(key.type, path + (name,))


# Config mutations: a leaf of the key table replaced by a value of the wrong type, a non-finite
# number or a zero/negative count, a whole block removed, or an unknown key inserted in an object.
TABLE_PATHS = sorted(_table_paths(SCHEMA))
SYSTEM_PATHS = sorted({("system", name) for kind in KINDS for name in system_keys(kind)})
OBSERVABLE_PATHS = [("observables", -1)] + [("observables", -1, name) for name in OBSERVABLE]
OBJECTS = [(), ("system",), ("observables", -1)] + [
    (name,) for name, key in SCHEMA.items() if isinstance(key.type, dict)]
UNKNOWN = "unknown_key"
BAD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, -2.5, 0.0, "x", None, [],
                              {}, True])
LEAVES = st.sampled_from(TABLE_PATHS + SYSTEM_PATHS + OBSERVABLE_PATHS)
BLOCKS = st.sampled_from(sorted(SCHEMA))
MUTATIONS = st.lists(st.one_of(st.tuples(st.just("set"), LEAVES, BAD_VALUES),
                               st.tuples(st.just("drop"), BLOCKS),
                               st.tuples(st.just("add"), st.sampled_from(OBJECTS))),
                     min_size=1, max_size=3)


def _owner(raw, parents):
    owner = raw
    for key in parents:
        try:
            owner = owner[key]
        except (KeyError, IndexError, TypeError):
            return None
    return owner if isinstance(owner, (dict, list)) else None


def _mutate(raw: dict, mutations) -> dict:
    for kind, *args in mutations:
        if kind == "drop":
            raw.pop(args[0], None)
            continue
        if kind == "add":
            owner = _owner(raw, args[0])
            if isinstance(owner, dict):
                owner[UNKNOWN] = 1
            continue
        (*parents, last), value = args
        owner = _owner(raw, parents)
        if isinstance(owner, dict) or (isinstance(owner, list) and isinstance(last, int) and owner):
            owner[last] = value
    return raw


def _holds(obj, key: str) -> bool:
    if isinstance(obj, dict):
        return key in obj or any(_holds(v, key) for v in obj.values())
    return isinstance(obj, list) and any(_holds(v, key) for v in obj)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(preset=st.sampled_from(sorted(PRESETS)), mutations=MUTATIONS)
def test_mutated_presets_fail_only_as_config_errors(tmp_path, capsys, preset, mutations):
    raw = _mutate(preset_config(preset), mutations)
    text = json.dumps(raw)
    try:
        validate_config(text)
    except ConfigError:
        pass
    path = tmp_path / "mutated.json"
    path.write_text(text)
    code = main(["validate", str(path)])
    assert code in (0, 1)
    assert "runtime error" not in capsys.readouterr().err
    if _holds(raw, UNKNOWN):  # an unknown key left anywhere is refused, never ignored
        assert code == 1


MISSPELT = "unknown key; expected one of "


@pytest.mark.parametrize("path, value, expected", [
    ("bpm.enabeld", True, "dz, enabled, nx"),
    ("potential_dump.enable", True, "enabled, nx, nz, periods, x_half_width"),
    ("quadrature.node", 8193, "half_width, nodes"),
    ("tb.seed", [3, 3], "alpha_tilde, k, x0"),
    ("mode_knd", "right",
     "bpm, mode_kind, observables, output, potential_dump, quadrature, system, tb, z_grid"),
    ("system.alpah", 0.1, "k1, k2, kind"),
    ("output.basenme", "other", "basename"),
    ("z_grid.nmu", 9, "num, periods"),
    ("system.alpha", 0.1, "k1, k2, kind"),  # a hermitian_static system has no alpha
])
def test_misspelt_keys_are_refused_not_ignored(tmp_path, capsys, path, value, expected):
    """Each of these used to validate, and compare then ran hermitian-fig2 at its defaults."""
    raw = preset_config("hermitian-fig2")
    *blocks, key = path.split(".")
    owner = raw
    for block in blocks:
        owner = owner.setdefault(block, {})
    owner[key] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    for command in ("validate", "compare"):
        assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {path}: {MISSPELT}{expected}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("block, key, value, expected", [
    ("z_grid", "stop", 3.0, "num, periods"),  # the grid spans z_grid.periods alone
    ("tb", "seeds", [9, 9], "alpha_tilde, k, x0"),  # the multistart grid is the kind's
])
def test_removed_keys_are_refused_by_every_command(tmp_path, capsys, preset, block, key, value,
                                                   expected):
    raw = preset_config(preset)
    raw.setdefault(block, {})[key] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    for command in CONFIG_COMMANDS:
        assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {block}.{key}: {MISSPELT}{expected}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("basename", ["sub/dir/x", "../x", "a\\b", "a\0b", "", ".", ".."])
def test_output_basename_must_be_a_plain_file_name(tmp_path, capsys, basename):
    """A path used to fail after the run (exit 2) or write beside --out; "" wrote hidden files."""
    raw = _cfg(output={"basename": basename})
    out = tmp_path / "run" / "out"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    for command in ("validate", "compare"):
        assert main([command, str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: output.basename: must be a plain file name, got {basename!r}\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.json"]


@pytest.mark.parametrize("basename, expected", [
    ("x" * 300, "must be at most 241 bytes in UTF-8"),
    ("x" * 242, "must be at most 241 bytes in UTF-8"),
    ("é" * 121, "must be at most 241 bytes in UTF-8"),  # 121 characters, 242 bytes
    ("\ud800", "'utf-8' codec can't encode character '\\ud800' in position 0: surrogates not allowed"),
], ids=["300-bytes", "242-bytes", "242-bytes-in-121-characters", "lone-surrogate"])
def test_output_basename_must_fit_a_file_name(tmp_path, capsys, basename, expected):
    """A name past 255 bytes with its longest suffix (.csv.meta.json) used to run, then exit 2."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_cfg(output={"basename": basename})))
    for command in ("validate", "compare"):
        assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: output.basename: {expected}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.json"]


def test_output_basename_of_the_longest_length_is_written(tmp_path):
    basename = "é" * 120 + "x"  # 241 bytes: every output file name is at most 255
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_cfg(output={"basename": basename})))
    assert main(["compare", str(cfg), "--out", str(tmp_path / "out")]) == 0
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == [basename + suffix for suffix in (".csv", ".csv.meta.json", ".report.json")]
    assert max(len(name.encode()) for name in written) == 255


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


@pytest.mark.parametrize("series", [
    [_series("power", [1.0, 0.5], "exact"), _series("power", [1.0, 0.5, 0.25], "tb")],
    [_series("power", [1.0, 0.5], "exact"), _series("x_mean", [0.0, 0.1], "exact"),
     _series("power", [1.0, 0.6], "tb")],
    [_series("power", [1.0, 0.5], "exact"), _series("power", [1.0, 0.6], "exact")],
    [_series("power", [1.0, 0.5], "bpm")],
], ids=["other-grid", "engine-lacks-a-column", "one-column-twice", "unknown-engine"])
def test_emit_csv_refuses_what_one_grid_cannot_hold(tmp_path, series):
    """These used to be merged by (z, engine), with blank cells for what an engine lacked."""
    path = tmp_path / "refused.csv"
    with pytest.raises(ValueError, match="each engine given .exact or tb. needs one of every column, on one z grid"):
        emit_csv(series, path)
    assert not path.exists()


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
    assert report["regularity"]["nodeless"] is True
    assert report["kappa"]["value"].real == pytest.approx(0.4188, abs=1e-3)
    assert "x_mean" in report["metrics"]
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


@pytest.mark.parametrize("k3", [-0.05527840677225296, 0.05527840677225296])
def test_cli_refuses_the_pair_whose_mode_dz_overflows_in_its_window(tmp_path, capsys, k3):
    """Window 217.08 (rho 0.0145). With k3 opposite k1 the modes' d/dz grows like e^{3.305 |x|} and overflows at
    |x| = 216.8 (`compare` would exit 2 on a NaN), so validate refuses the record: x_limit 214.7. With k3 of k1's
    sign (x_limit 218.4) every row is finite and `compare` exits 0."""
    c = preset_config("pt-dynamic-fig1-5-6")
    c["system"].update(k1=0.625, k2=1.0, k3=k3, alpha=0.1776782304998549)
    c["observables"] = ["x_mean", {"name": "H_mean", "metric": "pt"}]
    c["potential_dump"]["enabled"] = False
    path = tmp_path / "c.json"
    path.write_text(json.dumps(c))
    if k3 < 0:
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == ("error: system: the quadrature window 12/min|k| runs past |x| = 214.7, "
                                           "where the closed forms overflow\n")
    else:
        assert main(["compare", str(path), "--out", str(tmp_path / "out")]) == 0


def test_cli_refuses_a_pair_past_the_rho_gate(tmp_path, capsys):
    """rho = 1.02 at x = 15.2: nodes at |x| ~ 12.5 and 19.2, outside the |x| <= 10 regularity scan. validate
    refuses the record with one system error naming rho; the preset (rho 0.121) and alpha 0.8 (rho 0.971)
    still validate, with the one uncertified warning, which names rho."""
    c = preset_config("pt-dynamic-fig1-5-6")
    c["system"].update(k1=0.2, k2=0.3, k3=0.19, alpha=1.1072)
    cfg = tmp_path / "past.json"
    cfg.write_text(json.dumps(c))
    assert main(["validate", str(cfg)]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("error: system: rho = |alpha| sup|h2/h1| = 1.02001 (at x = +-15.17)")
    for alpha, rho in ((0.1, "0.121358"), (0.8, "0.970867")):
        c = preset_config("pt-dynamic-fig1-5-6")
        c["system"]["alpha"] = alpha
        assert validate_config(json.dumps(c)).warnings == ["system: alpha exceeds the sufficient regularity bound "
                                                           f"(certified=false); nodeless by rho = {rho} < 1"]


@pytest.mark.parametrize("k3, alpha, rho", [(0.5, 2.7889984311581753e-05, "0.999"),
                                            (0.3, 0.00012597396807908929, "0.9999")])
def test_cli_accepts_a_pair_the_record_accepts_whatever_the_scan_reads(tmp_path, capsys, k3, alpha, rho):
    """k1 1, k2 1.0000001: rho 0.999 and 0.9999, nodeless, yet near enough a node for the |x| <= 10 scan to
    read `nodeless` false (min |W| 4.0e-3 and 2.9e-4). The record alone decides regularity: validate exits 0
    with the uncertified warning naming rho, and the scan still ran at set-up, for the report's cross-check."""
    c = preset_config("pt-dynamic-fig1-5-6")
    c["system"].update(k1=1.0, k2=1.0000001, k3=k3, alpha=alpha)
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(c))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == ("warning: system: alpha exceeds the sufficient regularity bound "
                                       f"(certified=false); nodeless by rho = {rho} < 1\nOK\n")
    system = validate_config(json.dumps(c)).system
    assert "regularity" in system.__dict__ and not system.regularity.nodeless  # cached at set-up


def test_cli_missing_file_is_runtime_error(tmp_path):
    assert main(["compare", str(tmp_path / "nope.json")]) == 2


def test_cli_preset_list(capsys):
    assert main(["preset", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert sorted(PRESETS) == out


def test_cli_unknown_preset_is_a_config_error(tmp_path, capsys):
    assert main(["preset", "run", "nope", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: preset: unknown preset 'nope'; available: ")
    assert "runtime error" not in err and not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["validate", "compare"])
def test_cli_refuses_an_unknown_observable_key(tmp_path, capsys, command):
    """The normalization follows from name and metric; a key that tries to set it is refused."""
    path = tmp_path / "extra-key.json"
    path.write_text(json.dumps(_cfg(observables=[{"name": "x_mean", "normalization": "none"}])))
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: observables[0].normalization: unknown key; "
                                       "expected one of metric, name\n")
    assert not out.exists()


def test_an_observable_that_is_neither_name_nor_object_is_refused(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_cfg(observables=[3])))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: observables[0]: expected name or object\n"


def test_an_empty_observable_list_is_refused(tmp_path, capsys):
    """A run with nothing to compare would write a CSV of its header alone and empty metrics."""
    raw = _cfg(observables=[])
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps(raw))
    assert exc.value.errors == ["observables: need at least one observable"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: observables: need at least one observable\n"
    assert main(["compare", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("observables, index, first, request_", [
    (["x_mean", "x_mean"], 1, 0, "x_mean, dirac"),
    (["power", {"name": "x_mean", "metric": "pt"}, "x_mean", {"name": "x_mean", "metric": "pt"}], 3, 1,
     "x_mean, pt"),
    ([{"name": "p_std"}, "p_std"], 1, 0, "p_std, dirac"),
], ids=["names", "objects-under-pt", "object-and-name"])
def test_duplicate_observable_requests_are_refused(tmp_path, capsys, observables, index, first, request_):
    """Two requests of one series used to run: one CSV column, four series in the sidecar."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_cfg(observables=observables)))
    for command in ("validate", "compare"):
        assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: observables[{index}]: duplicate of observables[{first}] ({request_})\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.json"]


def test_written_json_is_strict(tmp_path):
    """The PT p_std of this pair is imaginary, so its exact series has no real peak-to-peak: the
    amplitude ratio is null, where the report used to hold NaN, which RFC 8259 JSON has no word for."""
    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_cfg(observables=["x_mean", {"name": "p_std", "metric": "pt"}])))
    assert main(["compare", str(cfg), "--out", str(tmp_path / "out")]) == 0
    written = {p.name: json.loads(p.read_text(), parse_constant=refuse) for p in (tmp_path / "out").glob("*.json")}
    assert sorted(written) == ["tiny.csv.meta.json", "tiny.report.json"]
    assert written["tiny.report.json"]["metrics"]["p_std_pt"]["amplitude_ratio"] is None


def test_report_json_writes_complex_as_parts_and_refuses_other_objects():
    assert json.loads(cli._json({"kappa": 1 + 2j})) == {"kappa": {"re": 1.0, "im": 2.0}}
    with pytest.raises(TypeError, match="cannot serialize <class 'set'>"):
        cli._json({"value": {1.0}})
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._json({"value": math.nan})


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


@pytest.mark.parametrize("preset", ["hermitian-fig2", "pt-static-fig3-4"])
def test_spectrum_prints_the_energies_calibrate_reached(tmp_path, capsys, preset):
    """One pencil end to end: `spectrum` (the model) prints `calibrate`'s achieved energies (the objective's
    pencil), byte for byte."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(preset_config(preset)))
    printed = {}
    for command in ("calibrate", "spectrum"):
        assert main([command, str(path)]) == 0
        printed[command] = json.loads(capsys.readouterr().out)
    achieved, energies = printed["calibrate"]["achieved_energies"], printed["spectrum"]["spectrum"]["energies"]
    assert json.dumps(energies) == json.dumps(achieved)


def test_preset_configs_validate():
    for name in PRESETS:
        cfg = validate_config(json.dumps(preset_config(name)))
        assert cfg.basename == name


def test_run_pipeline_pt_static(tmp_path):
    raw = _cfg(system={"kind": "pt_static", "k1": 1.1, "k2": 1.2, "alpha": 0.2},
               tb={"k": 1.1468, "x0": 1.6579, "alpha_tilde": 0.21},
               observables=["power", {"name": "H_mean", "metric": "pt"}],
               output={"basename": "ptsmoke"})
    cfg = validate_config(json.dumps(raw))
    report, _ = run(cfg, tmp_path)
    assert report["regularity"]["nodeless"] is True
    hp = report["metrics"]["H_mean_pt"]
    assert hp["rmse"] < 0.05  # near-identical conserved constants
    energies = [e.real for e in report["tb_spectrum"]["energies"]]
    assert energies[0] == pytest.approx(-1.44, abs=0.05)


def test_run_pipeline_dynamic(tmp_path):
    raw = _cfg(system={"kind": "pt_dynamic", "k1": 1.0, "k2": 1.1, "k3": 0.95, "alpha": 0.1},
               tb={"k": 1.045, "x0": 1.77114},
               observables=["x_mean", "power"],
               output={"basename": "dynsmoke"})
    raw["z_grid"] = {"periods": 0.25, "num": 17}
    raw["potential_dump"] = {"enabled": True, "nx": 41, "nz": 17,
                             "x_half_width": 5.0, "periods": 1.0}
    cfg = validate_config(json.dumps(raw))
    report, files = run(cfg, tmp_path)
    assert (tmp_path / "dynsmoke.potential.csv").exists()
    assert report["regularity"]["certified"] is False and report["regularity"]["nodeless"] is True
    q = [e.real for e in report["tb_spectrum"]["quasi_energies"]]
    assert q[0] == pytest.approx(-1.21, abs=0.01)
    assert q[1] == pytest.approx(-1.0, abs=0.01)
    assert report["oracle_residuals"]["pde_residual"]["floquet1"] < 1e-6
    # the potential dump covers one modulation period on the requested window
    lines = (tmp_path / "dynsmoke.potential.csv").read_text().splitlines()
    assert lines[0] == "x,z,V_re,V_im"
    assert len(lines) == 1 + 41 * 17


def test_oracle_residuals_march_both_floquet_modes_at_once(monkeypatch):
    """One march for both modes: V is sampled at the 161 - 4 interior z once, not once per mode,
    and each mode's residual is the one its own march gives, bit for bit."""
    cfg = validate_config(json.dumps(preset_config("pt-dynamic-fig1-5-6")))
    system = cfg.system
    grid = cli.PropagationGrid(half_width=cfg.quad.half_width, nx=1025, dz=0.01, z_end=4.0)
    alone = {k: cli.pde_residual(lambda x, z, k=k: system.mode(k, x, z), system.potential, grid, nz=161)
             for k in system.facts.stationary}
    v_zs = []
    potential = system.potential
    monkeypatch.setattr(system, "potential", lambda x, z: v_zs.append(z) or potential(x, z))
    assert cli._oracle_residuals(cfg) == {"pde_residual": alone}
    assert len(v_zs) == 161 - 4


UNRESOLVED = {  # (preset, change to its config): validate sees the p moments' grid is too coarse
    "hermitian-64-nodes": ("hermitian-fig2", {"quadrature": {"nodes": 64}}),
    "pt-dynamic-64-nodes": ("pt-dynamic-fig1-5-6", {"quadrature": {"nodes": 64}}),
    # a certified modulated point whose default window, 12 / k3 = 81.5, leaves 4,097 nodes too coarse
    "pt-dynamic-small-k3": ("pt-dynamic-fig1-5-6", {
        "system": {"k1": 0.39797996093800203, "k2": 1.0097425064154797, "k3": 0.14721351663029963,
                   "alpha": 0.02882854205572604},
        "z_grid": {"periods": 2.0, "num": 81}}),
}


@pytest.mark.parametrize("case", sorted(UNRESOLVED))
def test_an_unresolved_grid_is_refused_by_validate(tmp_path, capsys, monkeypatch, case):
    """These used to validate, calibrate and march, then exit 2 at the first p moment."""
    preset, changes = UNRESOLVED[case]
    raw = preset_config(preset)
    for block, values in changes.items():
        raw[block].update(values)
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps(raw))
    assert len(exc.value.errors) == 1
    assert exc.value.errors[0].startswith(f"quadrature.nodes: {raw['quadrature']['nodes']} do not resolve "
                                          "the left mode: finite-difference derivatives change by ")
    monkeypatch.setattr(cli, "_calibrate", lambda cfg: pytest.fail("calibration ran"))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    for command in ("validate", "compare"):
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {exc.value.errors[0]}\n"
    assert not (tmp_path / "out").exists()


def test_an_unresolved_grid_without_p_moments_validates():
    """The resolution test is the p moments': a grid they would not use is not judged."""
    raw = preset_config("hermitian-fig2")
    raw["quadrature"]["nodes"] = 64
    raw["observables"] = ["x_mean", "power"]
    assert validate_config(json.dumps(raw)).quad.nodes == 64


def test_run_pipeline_with_bpm_check(tmp_path):
    raw = _cfg(bpm={"enabled": True, "nx": 1024, "dz": 0.02},
               output={"basename": "bpmsmoke"})
    cfg = validate_config(json.dumps(raw))
    report, _ = run(cfg, tmp_path)
    assert report["oracle_residuals"]["bpm"]["l2_error"] < 5e-3


WARM_CASES = {
    "pt-static": _cfg(system={"kind": "pt_static", "k1": 1.1, "k2": 1.2, "alpha": 0.2},
                      tb={"k": 1.1468, "x0": 1.6579, "alpha_tilde": 0.21},
                      observables=PRESETS["pt-static-fig3-4"]["observables"],
                      output={"basename": "warm"}),
    "pt-dynamic": _cfg(system={"kind": "pt_dynamic", "k1": 1.0, "k2": 1.1, "k3": 0.95, "alpha": 0.1},
                       tb={"k": 1.045, "x0": 1.77114},
                       observables=PRESETS["pt-dynamic-fig1-5-6"]["observables"],
                       z_grid={"periods": 0.1, "num": 9},
                       potential_dump={"enabled": True, "nx": 21, "nz": 5, "x_half_width": 5.0,
                                       "periods": 1.0},
                       output={"basename": "warm"}),
}


@pytest.mark.parametrize("case", sorted(WARM_CASES))
def test_warm_caches_leave_outputs_byte_identical(tmp_path, case):
    """Two runs on one config (caches warm the second time), then a fresh config: same bytes."""
    text = json.dumps(WARM_CASES[case])
    cfg = validate_config(text)
    outs = [tmp_path / name for name in ("first", "warm", "fresh")]
    run(cfg, outs[0])
    run(cfg, outs[1])
    run(validate_config(text), outs[2])
    contents = [{p.name: p.read_bytes() for p in sorted(out.iterdir())} for out in outs]
    assert len(contents[0]) >= 3
    assert contents[0] == contents[1] == contents[2]


@pytest.mark.parametrize("case", sorted(WARM_CASES))
def test_x_only_computes_do_not_grow_with_the_z_grid(tmp_path, monkeypatch, case):
    """Every loop over z samples frozen node sets, so each x-only factor is computed per grid, not per z."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for module, name in ((systems, "_dynamic_x_parts"), (systems, "_static_profiles"),
                         (tightbinding, "_well_modes")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    per_num = {}
    for num in (9, 17):
        raw = json.loads(json.dumps(WARM_CASES[case]))
        raw["z_grid"]["num"] = num
        counts.clear()
        run(validate_config(json.dumps(raw)), tmp_path / str(num))
        per_num[num] = dict(counts)
    x_parts = "_dynamic_x_parts" if case == "pt-dynamic" else "_static_profiles"
    assert per_num[9][x_parts] > 0 and per_num[9]["_well_modes"] > 0
    assert per_num[9] == per_num[17]


def test_propagate_computes_the_x_parts_once_per_node_set(tmp_path, capsys, monkeypatch):
    """`propagate` on the modulated pair: the x-only parts once for validate's frozen quadrature nodes
    (the left mode reads both Floquet modes there), once for the norms' nodes and once for the BPM grid."""
    sizes = Counter()
    x_parts = systems._dynamic_x_parts

    def counted(params, x):
        sizes[len(x)] += 1
        return x_parts(params, x)

    monkeypatch.setattr(systems, "_dynamic_x_parts", counted)
    raw = preset_config("pt-dynamic-fig1-5-6")
    raw["bpm"] = {"enabled": True, "nx": 512, "dz": 0.04}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["propagate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["bpm"]["nx"] == 512
    assert sizes == {4097: 1, 2048: 1, 512: 1}


def _node_set(x):
    return len(x), float(x[0]), float(x[-1])


@pytest.fixture(scope="module", params=sorted(PRESETS))
def counted_preset_run(request, tmp_path_factory):
    """One `preset run` under both sets of counters: each `systems` x-part call by name and node set, the
    `pair_parts` calls, the node sets `_well_modes` evaluates and those `_well_d` sees."""
    x_parts, parts, modes, evaluated = Counter(), [], Counter(), set()
    pair_parts, well_modes, well_d = tightbinding.pair_parts, tightbinding._well_modes, tightbinding._well_d

    def counted(name):
        fn = getattr(systems, name)

        def wrapper(params, x):
            x_parts[(name, *_node_set(x))] += 1
            return fn(params, x)
        return wrapper

    def counted_modes(wells, x):
        modes[_node_set(x)] += 1
        return well_modes(wells, x)

    def seen_d(b, x):
        evaluated.add(_node_set(np.asarray(x)))
        return well_d(b, x)

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        for name in ("_dynamic_x_parts", "_static_profiles"):
            mp.setattr(systems, name, counted(name))
        mp.setattr(tightbinding, "pair_parts", lambda *args: parts.append(args) or pair_parts(*args))
        mp.setattr(tightbinding, "_well_modes", counted_modes)
        mp.setattr(tightbinding, "_well_d", seen_d)
        assert main(["preset", "run", request.param, "--out", str(tmp_path_factory.mktemp("run"))]) == 0
    return request.param, x_parts, parts, modes, evaluated


def test_preset_run_computes_the_x_parts_once_per_node_set(counted_preset_run):
    """validate's resolution guard and moment_table read one frozen node array (`QuadratureSpec.points`),
    the norms freeze their mirrored nodes and the static oracle its grid: no node set twice."""
    preset, per_set, *_ = counted_preset_run
    assert per_set and set(per_set.values()) == {1}
    assert ("_dynamic_x_parts" if "dynamic" in preset else "_static_profiles", 4097) in {k[:2] for k in per_set}


def test_preset_run_evaluates_the_well_modes_once_per_node_set(counted_preset_run):
    """The TB model's rows come from one `pair_parts` evaluation on its own nodes and never from a well
    evaluation there or at their mirror -x (the static pseudo-norm and the PT metric mirror the rows); the
    observable grid's come from `_well_modes`, once."""
    _, _, parts, per_set, evaluated = counted_preset_run
    assert len(parts) == 1
    nodes = tightbinding.pair_parts(*parts[0])[2].points[0]
    assert not {_node_set(nodes), _node_set(-nodes)} & evaluated
    assert list(per_set.values()) == [1] and next(iter(per_set))[0] == 4097


@pytest.mark.parametrize("case", sorted(WARM_CASES))
def test_cli_potential_dumps_the_system_potential(tmp_path, capsys, case):
    """`potential` writes nx*nz rows (one z for a static pair), the same bytes each run."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(WARM_CASES[case]))
    cfg = validate_config(path.read_text())
    dump = cfg.potential_dump
    outs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["potential", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"{out / 'warm.potential.csv'}\n"
        outs.append((out / "warm.potential.csv").read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[0] == "x,z,V_re,V_im"
    assert len(lines) == 1 + dump["nx"] * (dump["nz"] if cfg.system.is_dynamic else 1)
    xs = read_only(np.linspace(-dump["x_half_width"], dump["x_half_width"], dump["nx"]))
    v = complex(cfg.system.potential(xs, 0.0)[0])
    assert [float(c) for c in lines[1].split(",")] == [xs[0], 0.0, v.real, v.imag]


@pytest.mark.parametrize("case", sorted(WARM_CASES))
def test_cli_modes_dumps_the_configured_mode(tmp_path, capsys, case):
    """`modes` writes 801 x per sampled z of the configured mode, the same bytes each run."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(WARM_CASES[case]))
    cfg = validate_config(path.read_text())
    zs = cfg.z_values[:: max(1, len(cfg.z_values) // 8)]
    outs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["modes", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"{out / 'warm.modes.csv'}\n"
        outs.append((out / "warm.modes.csv").read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[0] == "x,z,psi_re,psi_im"
    assert len(lines) == 1 + 801 * len(zs)
    half = cfg.quad.half_width
    xs = read_only(np.linspace(-half, half, 801))
    psi = complex(cfg.system.mode(cfg.mode_kind, xs, zs[0])[0])
    assert [float(c) for c in lines[1].split(",")] == [xs[0], zs[0], psi.real, psi.imag]


# signed zero, the smallest subnormal, tiny, inexact, the largest float, integral, 17 significant digits
EDGE = np.array([-0.0, 5e-324, 1e-300, 0.1, 1.7976931348623157e308, 3.0, -2.0, 1e16,
                 0.30000000000000004, 1 / 3, -123456.78901234567])


def _complex(re, im):
    v = np.empty(len(re), dtype=complex)
    v.real, v.imag = re, im  # set part by part: arithmetic would lose the sign of a zero
    return v


def _cells(*values) -> str:
    """The per-cell reference: one format(v, ".17g") per value."""
    return ",".join(format(float(v), ".17g") for v in values)


def test_emit_csv_writes_the_per_cell_bytes(tmp_path):
    """Rows formatted in bulk are the bytes of one format(v, ".17g") per cell: real and complex
    columns, both engines, edge values in z, real and imaginary parts."""
    z = EDGE[::-1].copy()
    power = {"exact": _complex(EDGE, 0.0), "tb": _complex(np.roll(EDGE, 4), 0.0)}
    x_mean = {"exact": _complex(np.roll(EDGE, 1), EDGE), "tb": _complex(np.roll(EDGE, 2), -np.roll(EDGE, 5))}
    series = [ObservableSeries(z=z, values=vals[engine], observable=obs, metric="dirac", normalization="none",
                               engine=engine)
              for engine in ("tb", "exact") for obs, vals in (("power", power), ("x_mean", x_mean))]
    path = tmp_path / "edge.csv"
    emit_csv(series, path)
    expected = ["z,power,x_mean_re,x_mean_im,engine"]
    for i in range(len(z)):
        expected += [_cells(z[i], power[e][i].real, x_mean[e][i].real, x_mean[e][i].imag) + f",{e}"
                     for e in ("exact", "tb")]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_field_csv_writes_the_per_cell_bytes(tmp_path, capsys):
    """The potential and mode dumps, each z block formatted in bulk, are the bytes of one
    format(v, ".17g") per cell: a stand-in potential of edge values, and `susytb modes`."""
    def potential(x, z):
        k = int(z)
        return _complex(np.roll(EDGE, k), np.roll(EDGE, -k))

    stand_in = type("EdgeSystem", (), {"is_dynamic": True, "potential": staticmethod(potential),
                                       "periods": lambda self: type("P", (), {"fundamental": 3.0})()})()
    dump = {"x_half_width": 6.1, "nx": len(EDGE), "nz": 4, "periods": 1.0}
    cli.emit_potential_csv(stand_in, dump, tmp_path / "v.csv")
    xs = np.linspace(-6.1, 6.1, len(EDGE))
    expected = ["x,z,V_re,V_im"] + [_cells(x, z, v.real, v.imag) for z in (0.0, 1.0, 2.0, 3.0)
                                    for x, v in zip(xs, potential(xs, z))]
    assert (tmp_path / "v.csv").read_bytes() == ("\n".join(expected) + "\n").encode()

    path = tmp_path / "c.json"
    path.write_text(json.dumps(WARM_CASES["pt-dynamic"]))
    cfg = validate_config(path.read_text())
    assert main(["modes", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    xs = np.linspace(-cfg.quad.half_width, cfg.quad.half_width, 801)
    expected = ["x,z,psi_re,psi_im"] + [_cells(x, z, v.real, v.imag) for z in cfg.z_values
                                        for x, v in zip(xs, cfg.system.mode(cfg.mode_kind, xs, z))]
    assert (tmp_path / "warm.modes.csv").read_bytes() == ("\n".join(expected) + "\n").encode()


def test_cli_calibrate_spectral(tmp_path, capsys):
    """A calibrated config prints the fit, its objective, its trace and the energies it reached."""
    raw = _cfg()
    del raw["tb"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["calibrate", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    system = validate_config(json.dumps(raw)).system
    direct = spectral_match(default_problem(system))
    assert payload["parameters"] == dict(direct.parameters, alpha_tilde=0.0)
    assert payload["objective_value"] == direct.objective_value < 1e-3
    assert payload["trace"]["nm_converged"] is True
    assert payload["trace"]["nm_evaluations"] == direct.trace["nm_evaluations"]
    achieved = [complex(e["re"], e["im"]) for e in payload["achieved_energies"]]
    assert achieved == [complex(e) for e in direct.achieved_energies]
    targets = sorted(system.energies().values())
    assert sum(abs(t - e) for t, e in zip(targets, achieved)) == pytest.approx(
        payload["objective_value"], rel=1e-12)
