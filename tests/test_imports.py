"""scipy never loads: the LAPACK a plan calls (zggev and dznrm2 for a static system's TB spectrum, zgtsv for
the BPM march) is numpy's own OpenBLAS, bound by `susytb.lapack` on first use, and the process maps no second
one; without that library, susytb still imports and the modulated pair still runs.

Each (preset, `bpm.enabled`) plan runs once per session in one fresh interpreter (`_PLAN`), the four side
by side. Each records, in order: the `scipy*` modules after `import susytb` and after `import susytb.cli`,
and before and after `validate_config`; the routines `susytb.lapack` has bound after the imports and after
the validated run; the modules that run imports (`cli.run`, or the `propagate` command's own function with
BPM enabled); the `scipy*` modules after each of the plan's commands; and, on Linux, the OpenBLAS libraries
in `/proc/self/maps`. The tests read those records. The cold page-fault counts and the two import-order
checks need a cold or an ordered start, so each runs in a fresh interpreter of its own."""

import inspect
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import susytb
from susytb import lapack
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
import contextlib, io, json, os, sys
from pathlib import Path
import susytb

def scipy():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

def bound():
    return sorted(set(vars(susytb.lapack)) & {"zggev", "zgtsv", "dznrm2"})

record = {"import": {"susytb": scipy()}}
import susytb.cli as cli
from susytb.config import validate_config
record["import"]["susytb.cli"] = scipy()
record["bound"] = [bound()]
config, out, commands = sys.argv[1], sys.argv[2], sys.argv[3:]
before = scipy()
cfg = validate_config(open(config).read())
record["validation"] = [before, scipy()]
before = set(sys.modules)
if cfg.bpm_enabled:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli._cmd_propagate(cfg, Path(out)) == 0
else:
    cli.run(cfg, out)
record["run"] = sorted(set(sys.modules) - before)
record["bound"].append(bound())
record["commands"] = {}
for command in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, config, "--out", out]) == 0, command
    record["commands"][command] = scipy()
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as maps:
        record["openblas"] = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1].lower()})
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
    assert plans[DYNAMIC, False]["import"][module] == []


@pytest.mark.parametrize("name, bpm", PLANS)
def test_lapack_binds_only_where_a_plan_calls_it(plans, name, bpm):
    """Importing susytb and susytb.cli binds no routine, so opens no library; validation binds all three for a
    plan that calls LAPACK (a static TB spectrum, `bpm.enabled`), and a modulated run without BPM binds none."""
    calls_lapack = name != DYNAMIC or bpm
    assert plans[name, bpm]["bound"] == [[], ["dznrm2", "zggev", "zgtsv"] if calls_lapack else []]


def test_modulated_commands_load_no_scipy(plans):
    commands = plans[DYNAMIC, False]["commands"]
    loaded = {command: commands[command] for command in MODULATED_COMMANDS[:-1]}
    assert loaded == dict.fromkeys(["validate", "compare", "calibrate", "spectrum", "modes", "potential"], [])


@pytest.mark.parametrize("name, bpm", [("hermitian-fig2", False), ("pt-static-fig3-4", False), (DYNAMIC, True)])
def test_lapack_plans_load_no_scipy(plans, name, bpm):
    """The plans that call LAPACK (zggev and dznrm2 for a static TB spectrum, zgtsv for the BPM march) take it
    from numpy's own OpenBLAS: no `scipy*` module loads in validation or in the run."""
    record = plans[name, bpm]
    assert record["validation"] == [[], []]
    assert [module for module in record["run"] if module.startswith("scipy")] == []


def test_modulated_run_imports_no_module(plans):
    """Everything a validated run of the modulated preset uses is loaded before it starts: a module
    imported inside the run would be timed as part of it."""
    assert plans[DYNAMIC, False]["run"] == []


@pytest.mark.parametrize("name, bpm", [(STATIC[0], False), (STATIC[1], False), (DYNAMIC, True)])
def test_lapack_runs_import_no_module(plans, name, bpm):
    """So do the runs that call LAPACK: `cli.run` of each static preset (zggev, dznrm2), and the `propagate`
    command's function `_cmd_propagate` on the modulated one with BPM enabled (zgtsv)."""
    assert plans[name, bpm]["run"] == []


@pytest.mark.parametrize("name", [*STATIC, DYNAMIC])
def test_commands_never_import_the_scipy_linalg_package(plans, name):
    """Nor any other `scipy*` module: no command of any preset, `propagate` (the BPM march, zgtsv) included,
    leaves one in sys.modules."""
    commands = plans[name, False]["commands"]
    assert commands == dict.fromkeys(MODULATED_COMMANDS if name == DYNAMIC else STATIC_COMMANDS, [])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
@pytest.mark.parametrize("name, bpm", PLANS)
def test_one_openblas_in_the_process(plans, name, bpm):
    """After every command of a plan (a static preset's `compare` calls zggev and dznrm2, its `propagate` then
    zgtsv), the process maps one OpenBLAS: numpy's, which `susytb.lapack` binds."""
    assert len(plans[name, bpm]["openblas"]) == 1


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
    """zggev (alpha, beta, VR) on random complex pencils, zgtsv (DL, D, DU, X) on random tridiagonal systems
    and dznrm2 on random vectors, every array as [re, im] pairs."""
    ggev, gtsv, nrm2 = routines
    rng, out = np.random.default_rng(seed), []
    cplx = lambda *shape: rng.normal(size=(*shape, 2)) @ [1, 1j]
    for n in (2, 3, 7):
        out += ggev(cplx(n, n), cplx(n, n))
        out += gtsv(cplx(n - 1), cplx(n) + 4, cplx(n - 1), cplx(n))
        out.append(nrm2(cplx(5 * n)))
    return [np.stack([np.real(r), np.imag(r)], axis=-1).tolist() for r in out]


def _scipy_linalg_routines():
    z = np.zeros(1, complex)
    ggev, gtsv = sla.get_lapack_funcs(("ggev", "gtsv"), (z,))
    return ((lambda a, b: [ggev(a, b, 0, 1, 4 * len(a), 0, 0)[i] for i in (0, 1, 3)]),
            (lambda *bands: list(gtsv(*bands)[:4])), sla.get_blas_funcs("nrm2", dtype=complex, ilp64="preferred"))


def _bound_routines():
    """`susytb.lapack`'s zggev (JOBVL = 'N', JOBVR = 'V', LWORK = 4n), zgtsv and dznrm2, called on fresh
    buffers as `_scipy_linalg_routines` calls f2py's."""
    def ints(*values):  # int64 arguments, kept alive with their addresses
        array = np.array(values, dtype=np.int64)
        return array, *lapack.addresses(array)

    def ggev(a, b):
        n = len(a)
        a, b, vr = (np.array(m, dtype=complex, order="F") for m in (a, b, np.zeros((n, n))))
        alpha, beta, vl = np.zeros((3, n), dtype=complex)
        work, rwork = np.zeros(4 * n, dtype=complex), np.zeros(8 * n)
        _, n_, one, lwork, info = kept = ints(n, 1, 4 * n, 0)
        lapack.zggev(b"N", b"V", n_, a.ctypes.data, n_, b.ctypes.data, n_, alpha.ctypes.data, beta.ctypes.data,
                     vl.ctypes.data, one, vr.ctypes.data, n_, work.ctypes.data, lwork, rwork.ctypes.data, info, 1, 1)
        assert kept[0][3] == 0
        return [alpha, beta, vr]

    def gtsv(*bands):
        dl, d, du, x = (np.array(band, dtype=complex) for band in bands)
        kept, n_, one, info = ints(len(d), 1, 0)
        lapack.zgtsv(n_, one, dl.ctypes.data, d.ctypes.data, du.ctypes.data, x.ctypes.data, n_, info)
        assert kept[2] == 0
        return [dl, d, du, x]

    def nrm2(x):
        x = np.array(x, dtype=complex)
        _, n_, one = ints(len(x), 1)
        return lapack.dznrm2(n_, x.ctypes.data, one)

    return ggev, gtsv, nrm2


def test_fortran_routines_are_scipy_linalgs():
    """zggev, zgtsv and dznrm2 bound from numpy's OpenBLAS by `susytb.lapack` give, bit for bit on random input,
    what the routines `get_lapack_funcs`/`get_blas_funcs` pick for complex arrays give."""
    for seed in range(5):
        assert _routine_results(_bound_routines(), seed) == _routine_results(_scipy_linalg_routines(), seed)


def test_missing_symbol_is_an_import_error(monkeypatch):
    monkeypatch.setitem(lapack._ROUTINES, "nonexistent", (None,))
    with pytest.raises(ImportError, match="exports no scipy_nonexistent_64_"):
        lapack.bind()


def test_missing_library_is_an_import_error(monkeypatch, tmp_path):
    monkeypatch.setattr(lapack, "_DIRS", (tmp_path,))
    with pytest.raises(ImportError, match=re.escape(f"bundles no OpenBLAS in {tmp_path}")):
        lapack._library()


def test_without_numpys_openblas_only_the_lapack_plans_stop(monkeypatch, tmp_path, capsys):
    """Where numpy bundles no OpenBLAS (conda-forge, distribution and source builds, its wheels for macOS 14 and
    later), the modulated preset runs and writes its four files; a static preset stops in validation, before it
    writes any, with exit 2 and the ImportError that says where the library was looked for."""
    monkeypatch.setattr(lapack, "_DIRS", (tmp_path,))
    for name in lapack._ROUTINES:
        monkeypatch.delitem(vars(lapack), name, raising=False)
    from susytb.cli import main

    assert main(["preset", "run", DYNAMIC, "--out", str(tmp_path / "modulated")]) == 0
    assert len(list((tmp_path / "modulated").iterdir())) == 4
    assert main(["preset", "run", STATIC[0], "--out", str(tmp_path / "static")]) == 2
    assert f"bundles no OpenBLAS in {tmp_path}" in capsys.readouterr().err
    assert not (tmp_path / "static").exists()


def _solver_bits() -> str:
    """sha256 of every bit of `solve_spectrum` on random pencils and on singular ones, and of a short
    `propagate` march on a complex potential. Its source runs in fresh interpreters too, hence the imports."""
    import hashlib

    import numpy as np

    from susytb.bpm import PropagationGrid, propagate
    from susytb.tightbinding import solve_spectrum

    rng, digest = np.random.default_rng(7), hashlib.sha256()
    pencils = [[rng.normal(size=(n, n, 2)) @ [1, 1j] for _ in range(2)] for n in (1, 2, 3, 7)]
    pencils += [(np.diag([1.0 + 0j, a]), np.diag([1.0, 0.0])) for a in (2.0, 0.0, 1j)]
    for pencil in pencils:
        spectrum = solve_spectrum(pencil)
        digest.update(spectrum.energies.tobytes() + spectrum.vectors.tobytes())
    grid = PropagationGrid(half_width=8.0, nx=256, dz=0.01, z_end=0.2)
    potential = lambda x, z: -2.0 * (1 + 0.5j * np.sin(8 * z)) / np.cosh(x) ** 2
    for snapshot in propagate(lambda x: np.exp(-(x - 1) ** 2), potential, grid, [0.1, 0.2]):
        digest.update(snapshot.samples.tobytes())
    return digest.hexdigest()


def test_fortran_first_then_scipy_linalg():
    """`solve_spectrum` and `propagate` run first in a fresh interpreter, with no `scipy*` module loaded, then
    after `import scipy.linalg`: each bit the same both times, and the same as in this process."""
    first, loaded, then = _probe(inspect.getsource(_solver_bits) + """
import json, sys
first = _solver_bits()
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
import scipy.linalg
print(json.dumps([first, loaded, _solver_bits()]))
""")
    assert loaded == [] and first == then == _solver_bits()


def test_scipy_linalg_first_then_fortran():
    """With `scipy.linalg` imported before susytb, the same bits again."""
    assert _probe(inspect.getsource(_solver_bits) + """
import json
import scipy.linalg
print(json.dumps(_solver_bits()))
""") == _solver_bits()
