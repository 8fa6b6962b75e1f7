"""susytb benchmark: scenario workloads through the public CLI pipeline.

    python3 bench/run.py --workload static-pair --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (it needs ``src/susytb`` and
``BENCHMARK.json`` there). Each run generates its scenario inputs from the
seed, then starts fresh child processes one at a time (``bench/child.py``,
BLAS/OpenMP pinned to one thread): first a few set-up-only children, then
full runs until ``--seconds`` is used up, at least three of them. With
``--trace 0`` every child samples the host's speed (``pacer.py``) and the
times it reports are rescaled to a fixed reference speed. Every full
run's outputs are checked: accuracy invariants for every seed,
byte-identical files across runs of one seed, and for seed 0 the stored
snapshot in ``bench/reference``. With ``--trace 0`` the end-to-end metrics
come from untraced children; with ``--trace 1`` two traced children give
the per-layer metrics (their deterministic counters must agree) and one
untraced child gives the tracing overhead.

Human-readable lines go to stdout first; the last stdout line is the JSON
result. ``--write-reference`` (seed 0) stores the snapshot from the first
run; ``--describe-env`` prints the machine description kept in
``bench/environment.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import pacer

BENCH = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5  # set-up-only children per untraced run, so setup_s is a median
HARD_LIMIT_S = 150.0  # launch no child after this; every run must end within 180 s


def environment(cpu_model: bool = False) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "threads": {v: os.environ.get(v) for v in THREAD_VARS}}
    if cpu_model:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    return env


class Runner:
    """Launches the children of one benchmark run and checks their outputs."""

    def __init__(self, root: Path, work: Path, command: str, configs: list[Path],
                 reference: dict | None, t_begin: float):
        self.root, self.work, self.command, self.configs = root, work, command, configs
        self.reference = reference
        self.t_begin = t_begin
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        **{v: "1" for v in THREAD_VARS})
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.first_digests: dict | None = None
        self.first_out: Path | None = None  # kept until the end for the snapshot
        self.accuracy: dict | None = None

    def _fail(self, index: int, message: str) -> None:
        self.failed += 1
        self.problems.append(f"run {index}: {message}")

    def child(self, *, traced: bool = False, setup_only: bool = False,
              pace: bool = False) -> dict | None:
        index = self.attempted
        self.attempted += 1
        out = self.work / f"out-{index}"
        result = self.work / f"child-{index}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), "--command", self.command,
               "--out", str(out), "--result", str(result), "--trace", str(int(traced))]
        if setup_only:
            cmd.append("--setup-only")
        if pace:
            cmd.append("--pace")
        cmd += [str(p) for p in self.configs]
        timeout = max(5.0, 175.0 - (time.perf_counter() - self.t_begin))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self._fail(index, f"timed out after {timeout:.0f} s")
            return None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            self._fail(index, f"exit code {proc.returncode}: {tail}")
            return None
        res = json.loads(result.read_text(encoding="utf-8"))
        res["wall"] = wall
        if setup_only:
            return res
        problems = check.invariants(check.accuracy(out))
        digests = check.digests(out)
        if self.first_digests is None:
            self.first_digests = digests
            self.first_out = out
            self.accuracy = check.accuracy(out)
            if self.reference is not None:
                problems += check.compare(self.reference, check.fingerprint(out))
        elif digests != self.first_digests:
            problems.append("output files differ from the first run of this seed")
        if problems:
            self._fail(index, "; ".join(p[:300] for p in problems[:5]))
            res = None
        if out != self.first_out:
            shutil.rmtree(out, ignore_errors=True)
        return res

    def full_runs(self, pattern: list[bool], minimum: int, seconds: float,
                  pace: bool = False) -> list[tuple[bool, dict]]:
        """Full runs cycling through ``pattern`` (traced or not) until time is up."""
        done: list[tuple[bool, dict]] = []
        walls: list[float] = []
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            now = time.perf_counter()
            if now - self.t_begin > HARD_LIMIT_S:
                break
            if i >= minimum and now + max(walls, default=0.0) > deadline:
                break
            traced = pattern[i % len(pattern)]
            res = self.child(traced=traced, pace=pace)
            i += 1
            if res is not None:
                walls.append(res["wall"])
                done.append((traced, res))
        return done


def tail_line(values: list[float]) -> str:
    n = len(values)
    if n < 11:
        return f"run_s_tail: not reported ({n} samples; a tail with ten samples beyond it needs 11)"
    v = sorted(values)
    return (f"run_s_tail: {v[n - 11]} s (p{100.0 * (n - 10) / n:.0f}, "
            f"10 of {n} samples beyond it)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--describe-env", action="store_true")
    args = ap.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.describe_env:
        print(json.dumps(environment(cpu_model=True), indent=2, sort_keys=True))
        return 0

    root = Path.cwd()
    if not (root / "src" / "susytb" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from a susytb source checkout (src/susytb and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS, make_inputs

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    if args.write_reference and (args.seed != 0 or args.trace):
        print("error: --write-reference needs --seed 0 --trace 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    t_begin = time.perf_counter()

    work = root / ".bench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    configs, refused = make_inputs(workload, args.seed)
    paths = []
    for raw in configs:
        path = work / "inputs" / f"{raw['output']['basename']}.json"
        path.write_text(json.dumps(raw, sort_keys=True, indent=2), encoding="utf-8")
        paths.append(path)
    ref_path = BENCH / "reference" / f"{workload.name}.json"
    reference = None
    if args.seed == 0 and not args.write_reference:
        reference = json.loads(ref_path.read_text(encoding="utf-8"))

    env = environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
          + " threads=1 (" + ",".join(THREAD_VARS) + ")")
    print(f"workload {workload.name} seed {args.seed} (loads {', '.join(workload.layers)}): "
          + "; ".join(json.dumps(c["system"], sort_keys=True) for c in configs))
    for reason in refused:
        print(f"refused draw: {reason}")

    runner = Runner(root, work, workload.command, paths, reference, t_begin)
    # Set-up-only children come first: they give setup_s its samples and warm
    # the file cache, so the first full run is not slower than the rest.
    pace = not args.trace
    setups = [r for r in (runner.child(setup_only=True, pace=pace)
                          for _ in range(1 if args.trace else SETUP_PROBES)) if r]
    if args.trace:
        runs = runner.full_runs([False, True, True], 3, args.seconds)
    else:
        runs = runner.full_runs([False], 3, args.seconds, pace=True)
    if runner.first_out is not None:
        if args.write_reference:
            ref_path.parent.mkdir(exist_ok=True)
            ref_path.write_text(json.dumps(check.fingerprint(runner.first_out), sort_keys=True)
                                + "\n", encoding="utf-8")
            print(f"wrote {ref_path.relative_to(root)}")
        shutil.rmtree(runner.first_out, ignore_errors=True)

    plain = [r for traced, r in runs if not traced]
    traced_runs = [r for traced, r in runs if traced]
    for p in runner.problems:
        print(f"FAILED {p}")
    if not plain or (args.trace and len(traced_runs) < 2):
        print("error: too few successful runs to report", file=sys.stderr)
        return 1

    wall_s = [r["run_s"] for r in plain]
    acc = runner.accuracy or {}
    if args.trace:
        layers = [r["layers"] for r in traced_runs]
        from spans import DETERMINISTIC

        # Self-test: counters repeat exactly, and the layers' self times add up
        # to the traced run's wall time (every span nests under a pipeline root).
        problems = [f"counter {key} differs between traced runs: {[m[key] for m in layers]}"
                    for key in DETERMINISTIC if len({m[key] for m in layers}) != 1]
        problems += [f"layer self times cover {m['trace.accounted_ratio']:.3f} of the run"
                     for m in layers if abs(m["trace.accounted_ratio"] - 1.0) > 0.02]
        for p in problems:
            print(f"FAILED {p}")
        runner.failed += bool(problems)
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced_runs)
                                      - statistics.median(wall_s))
        missing = sorted({w for r in traced_runs for w in r["missing_wrappers"]})
        if missing:
            print("note: not wrapped (absent in this version): " + ", ".join(missing))
        declared = spec["per_layer"]
    else:
        run_s = [pacer.adjust(r["run_s"], r["run_pace"], r["run_paced_s"]) for r in plain]
        setup_s = [pacer.adjust(r["setup_s"], r["setup_pace"]) for r in setups + plain]
        values = {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ref_err": acc.get("ref_err", 0.0),
        }
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {values[m['name']]} {m['unit']}")
    if not args.trace:
        print(f"  (medians of {len(run_s)} runs and {len(setup_s)} set-ups at the reference pace "
              f"{pacer.REFERENCE_S * 1e6:.0f} us/chunk; unadjusted: run wall "
              f"{statistics.median(wall_s)} s, CPU "
              f"{statistics.median(r['run_cpu_s'] for r in plain)} s, set-up "
              f"{statistics.median(r['setup_s'] for r in setups + plain)} s; host pace "
              f"{statistics.median(r['run_pace'] for r in plain) * 1e6:.1f} us/chunk over "
              f"{sum(r['run_chunks'] for r in plain)} chunks)")
        print(tail_line(run_s))
        for key in ("tb_energy_err", "tb_beat_err_rad", "bpm_l2_error"):
            if key in acc:
                print(f"{key}: {acc[key]}")
    print(f"fail_ratio: {runner.failed}/{runner.attempted}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
