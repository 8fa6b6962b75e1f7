"""Where scipy loads: only for the LAPACK a plan calls (a static system's TB spectrum, the BPM march),
and then in `validate_config`, never inside a run. Each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import susytb
from susytb.presets import preset_config

DYNAMIC = "pt-dynamic-fig1-5-6"


def _probe(code: str, *args: str):
    """Run `code` in a fresh interpreter that imports this checkout's susytb; its last stdout line, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(susytb.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["susytb", "susytb.cli"])
def test_import_loads_no_scipy(module):
    assert _probe(f"import json, sys, {module}; print(json.dumps('scipy' in sys.modules))") is False


def test_modulated_commands_load_no_scipy(tmp_path):
    path = tmp_path / "dynamic.json"
    path.write_text(json.dumps(preset_config(DYNAMIC)), encoding="utf-8")
    loaded = _probe("""
import contextlib, io, json, sys
import susytb.cli as cli
config, out, loaded = sys.argv[1], sys.argv[2], {}
for command in ("validate", "compare", "calibrate", "spectrum", "modes", "potential"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, config, "--out", out]) == 0, command
    loaded[command] = "scipy" in sys.modules
print(json.dumps(loaded))
""", str(path), str(tmp_path / "out"))
    assert loaded == dict.fromkeys(["validate", "compare", "calibrate", "spectrum", "modes", "potential"], False)


@pytest.mark.parametrize("name, bpm", [("hermitian-fig2", False), ("pt-static-fig3-4", False), (DYNAMIC, True)])
def test_lapack_plans_load_scipy_in_validation(name, bpm):
    raw = preset_config(name)
    raw["bpm"] = {"enabled": bpm}
    assert _probe("""
import json, sys
from susytb.config import validate_config
before = "scipy" in sys.modules
validate_config(sys.argv[1])
print(json.dumps([before, "scipy" in sys.modules]))
""", json.dumps(raw)) == [False, True]


def test_modulated_run_imports_no_module(tmp_path):
    """Everything a validated run of the modulated preset uses is loaded before it starts: a module
    imported inside the run would be timed as part of it."""
    assert _probe("""
import json, sys
import susytb.cli as cli
from susytb.config import validate_config
cfg = validate_config(sys.argv[1])
before = set(sys.modules)
cli.run(cfg, sys.argv[2])
print(json.dumps(sorted(set(sys.modules) - before)))
""", json.dumps(preset_config(DYNAMIC)), str(tmp_path)) == []
