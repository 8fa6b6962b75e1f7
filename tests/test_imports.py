"""Where scipy loads: only for the LAPACK a plan calls (a static system's TB spectrum, the BPM march),
and then in `validate_config`, never inside a run, and only as far as its f2py modules (`lapack.fortran`):
the `scipy.linalg` package is never imported.

Each (preset, `bpm.enabled`) plan runs once per session in one fresh interpreter (`_PLAN`), the four side
by side. Each records, in order: scipy after `import susytb` and after `import susytb.cli`; scipy and the
`scipy.linalg.*` modules before and after `validate_config`; the modules a validated run imports
(`cli.run`, or `propagate` with BPM enabled); and scipy and the `scipy.linalg.*` modules after each of the
plan's commands. The tests read those records. The cold page-fault counts and the two import-order checks
need a cold or an ordered start, so each runs in a fresh interpreter of its own."""

import inspect
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import susytb
from susytb.lapack import fortran
from susytb.presets import preset_config

DYNAMIC = "pt-dynamic-fig1-5-6"
STATIC = ("hermitian-fig2", "pt-static-fig3-4")
MODULATED_COMMANDS = ("validate", "compare", "calibrate", "spectrum", "modes", "potential", "propagate")
STATIC_COMMANDS = ("validate", "compare", "calibrate", "spectrum", "propagate")


def _probe(code: str, *args: str):
    """Run `code` in a fresh interpreter that imports this checkout's susytb; its last stdout line, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(susytb.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


_PLAN = """
import contextlib, io, json, sys
import susytb
record = {"import": {"susytb": "scipy" in sys.modules}}
import susytb.cli as cli
from susytb.config import validate_config
record["import"]["susytb.cli"] = "scipy" in sys.modules
config, out, commands = sys.argv[1], sys.argv[2], sys.argv[3:]

def loaded():
    return {"scipy": "scipy" in sys.modules,
            "scipy.linalg": sorted(m for m in sys.modules if m.startswith("scipy.linalg"))}

before = loaded()
cfg = validate_config(open(config).read())
record["validation"] = [before, loaded()]
before = set(sys.modules)
if cfg.bpm_enabled:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["propagate", config]) == 0
else:
    cli.run(cfg, out)
record["run"] = sorted(set(sys.modules) - before)
record["commands"] = {}
for command in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, config, "--out", out]) == 0, command
    record["commands"][command] = loaded()
print(json.dumps(record))
"""


PLANS = (("hermitian-fig2", False), ("pt-static-fig3-4", False), (DYNAMIC, False), (DYNAMIC, True))


@pytest.fixture(scope="session")
def plans(tmp_path_factory):
    """The `_PLAN` record of each (preset, `bpm.enabled`) plan, one fresh interpreter per plan, the four side
    by side. The modulated preset runs every command; the static ones all but `modes` and `potential`; the
    BPM plan none."""
    argv = []
    for name, bpm in PLANS:
        raw = preset_config(name)
        raw["bpm"] = {"enabled": bpm}
        tmp = tmp_path_factory.mktemp("plan")
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        commands = () if bpm else MODULATED_COMMANDS if name == DYNAMIC else STATIC_COMMANDS
        argv.append((str(path), str(tmp / "out"), *commands))
    with ThreadPoolExecutor(len(PLANS)) as pool:
        return dict(zip(PLANS, pool.map(lambda args: _probe(_PLAN, *args), argv)))


@pytest.mark.parametrize("module", ["susytb", "susytb.cli"])
def test_import_loads_no_scipy(plans, module):
    assert plans[DYNAMIC, False]["import"][module] is False


def test_modulated_commands_load_no_scipy(plans):
    commands = plans[DYNAMIC, False]["commands"]
    loaded = {command: commands[command]["scipy"] for command in MODULATED_COMMANDS[:-1]}
    assert loaded == dict.fromkeys(["validate", "compare", "calibrate", "spectrum", "modes", "potential"], False)


@pytest.mark.parametrize("name, bpm", [("hermitian-fig2", False), ("pt-static-fig3-4", False), (DYNAMIC, True)])
def test_lapack_plans_load_scipy_in_validation(plans, name, bpm):
    before, after = plans[name, bpm]["validation"]
    assert [before["scipy"], after["scipy"]] == [False, True]


def test_modulated_run_imports_no_module(plans):
    """Everything a validated run of the modulated preset uses is loaded before it starts: a module
    imported inside the run would be timed as part of it."""
    assert plans[DYNAMIC, False]["run"] == []


@pytest.mark.parametrize("name, bpm", [(STATIC[0], False), (STATIC[1], False), (DYNAMIC, True)])
def test_lapack_runs_import_no_module(plans, name, bpm):
    """So do the runs that call LAPACK: `cli.run` of each static preset (zggev, dznrm2), and `propagate`
    of the modulated one with BPM enabled (zgtsv), which validates its config again."""
    assert plans[name, bpm]["run"] == []


@pytest.mark.parametrize("name", [*STATIC, DYNAMIC])
def test_commands_never_import_the_scipy_linalg_package(plans, name):
    """LAPACK comes from scipy's f2py modules alone: no command imports `scipy.linalg` itself, and a static
    preset's commands load `_flapack` and `_fblas` (its TB spectrum), `propagate` `_flapack` (zgtsv)."""
    commands = plans[name, False]["commands"]
    loaded = {command: commands[command]["scipy.linalg"] for command in STATIC_COMMANDS}
    lapack = ["scipy.linalg._fblas", "scipy.linalg._flapack"] if name in STATIC else []
    assert loaded == dict.fromkeys(("validate", "compare", "calibrate", "spectrum"), lapack) | {
        "propagate": lapack or ["scipy.linalg._flapack"]}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's allocator, whose trim threshold cli pins")
@pytest.mark.parametrize("names", [[DYNAMIC], list(STATIC)], ids=["modulated", "static"])
def test_cold_run_takes_few_page_faults(names, tmp_path):
    """A cold `cli.run` keeps its freed temporaries: with glibc's trim threshold pinned at 2 MiB the modulated
    preset takes ~830-890 minor faults and both static presets ~550; left at glibc's default (128 KiB, which
    importing scipy.linalg used to raise), ~8,200 and 50,000-70,000, as each table pass hands back its heap top."""
    faults = _probe("""
import json, resource, sys
import susytb.cli as cli
from susytb.config import validate_config
from susytb.presets import preset_config
cfgs = [validate_config(json.dumps(preset_config(name))) for name in sys.argv[2:]]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for cfg in cfgs:
    cli.run(cfg, sys.argv[1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""", str(tmp_path), *names)
    assert faults <= 3000


def _routine_results(routines, seed: int) -> list:
    """zggev on random complex pencils, zgtsv on random tridiagonal systems and dznrm2 on random vectors;
    every array as [re, im] pairs, so a fresh interpreter can print them as JSON, exactly (its source runs
    there too, hence the import)."""
    import numpy as np
    ggev, gtsv, nrm2 = routines
    rng, out = np.random.default_rng(seed), []
    cplx = lambda *shape: rng.normal(size=(*shape, 2)) @ [1, 1j]
    for n in (2, 3, 7):
        out += ggev(cplx(n, n), cplx(n, n), 0, 1, 4 * n, 0, 0)[:4]
        out += gtsv(cplx(n - 1), cplx(n) + 4, cplx(n - 1), cplx(n))[:4]
        out.append(nrm2(cplx(5 * n)))
    return [np.stack([np.real(r), np.imag(r)], axis=-1).tolist() for r in out]


def _scipy_linalg_routines():
    z = np.zeros(1, complex)
    return (*sla.get_lapack_funcs(("ggev", "gtsv"), (z,)), sla.get_blas_funcs("nrm2", dtype=complex, ilp64="preferred"))


def test_fortran_routines_are_scipy_linalgs():
    """zggev, zgtsv and dznrm2 from `lapack.fortran` are the routines `get_lapack_funcs`/`get_blas_funcs`
    pick for complex arrays, bit for bit on random input."""
    mine = fortran("_flapack").zggev, fortran("_flapack").zgtsv, fortran("_fblas").dznrm2
    for seed in range(5):
        assert _routine_results(mine, seed) == _routine_results(_scipy_linalg_routines(), seed)


def test_missing_fortran_module_is_an_import_error():
    with pytest.raises(ImportError, match="scipy.linalg._nonexistent"):
        fortran("_nonexistent")


def test_fortran_first_then_scipy_linalg():
    """susytb loads the f2py modules first, and its routines give the bits scipy.linalg's give here; a later
    `import scipy.linalg` takes those very modules, and `scipy.linalg.eig` still gives `solve_spectrum`'s pairs."""
    before, after = _probe(inspect.getsource(_routine_results) + """
import json, sys
import numpy as np
from susytb.tightbinding import solve_spectrum
from susytb.lapack import fortran
flapack, fblas = fortran("_flapack"), fortran("_fblas")
mine = [_routine_results((flapack.zggev, flapack.zgtsv, fblas.dznrm2), seed) for seed in range(3)]
rng = np.random.default_rng(3)
h, s = (rng.normal(size=(4, 4, 2)) @ [1, 1j] for _ in range(2))
spectrum = solve_spectrum((h, s))
package_before = "scipy.linalg" in sys.modules
import scipy.linalg as sla
vals, vecs = sla.eig(h, s)
order = np.lexsort((vals.imag, vals.real))
print(json.dumps([mine, [package_before, sla.lapack._flapack is flapack, sla.blas._fblas is fblas,
                         np.array_equal(vals[order], spectrum.energies),
                         np.array_equal(vecs[:, order], spectrum.vectors)]]))
""")
    assert after == [False, True, True, True, True]
    assert before == [_routine_results(_scipy_linalg_routines(), seed) for seed in range(3)]


def test_scipy_linalg_first_then_fortran():
    """With `scipy.linalg` imported first, the helper takes its modules from sys.modules."""
    assert _probe("""
import json, sys
import scipy.linalg as sla
from susytb.bpm import _gtsv
from susytb.tightbinding import _lapack
print(json.dumps([_lapack()[0] is sla.lapack._flapack.zggev, _lapack()[1] is sla.blas._fblas.dznrm2,
                  _gtsv() is sla.lapack._flapack.zgtsv]))
""") == [True, True, True]
