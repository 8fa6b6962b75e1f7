"""Behaviour lock: the benchmark's seed-0 inputs reproduce its stored output snapshot.

The inputs come from `bench/workloads.make_inputs`, the `propagate` output
is stored as `bench/child.py` stores it, and the comparison comes from
`bench/check.fingerprint`/`compare` (1e-10 relative on closed-form paths,
1e-6 downstream of calibration, RK4 and finite differences), so a change
that moves any report field or CSV column beyond those bounds fails here
as it fails the benchmark.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from susytb.cli import main, run
from susytb.config import validate_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


check = _bench_module("check")
workloads = _bench_module("workloads")


@pytest.mark.parametrize("workload", ["static-pair", "pt-dynamic"])
def test_seed0_outputs_match_the_snapshot(workload, tmp_path):
    configs, refused = workloads.make_inputs(workloads.WORKLOADS[workload], 0)
    assert refused == []
    for raw in configs:
        run(validate_config(json.dumps(raw)), tmp_path)
    reference = json.loads((BENCH / "reference" / f"{workload}.json").read_text(encoding="utf-8"))
    assert check.compare(reference, check.fingerprint(tmp_path)) == []


def test_seed0_propagate_output_matches_the_snapshot(tmp_path):
    configs, refused = workloads.make_inputs(workloads.WORKLOADS["bpm-oracle"], 0)
    assert refused == []
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    for raw in configs:
        basename = raw["output"]["basename"]
        path = inputs / f"{basename}.json"
        path.write_text(json.dumps(raw, sort_keys=True, indent=2), encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["propagate", str(path)]) == 0
        (out / f"{basename}.propagate.json").write_text(buf.getvalue(), encoding="utf-8")
    reference = json.loads((BENCH / "reference" / "bpm-oracle.json").read_text(encoding="utf-8"))
    assert check.compare(reference, check.fingerprint(out)) == []
