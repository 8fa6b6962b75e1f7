"""Output checks: accuracy figures, per-seed invariants, and the seed-0 snapshot.

The snapshot stores a fingerprint of every numeric report field and of
every CSV column (split by engine): mean, mean |v|, RMS, a ramp-weighted
mean, min, max and nine evenly spaced samples, all compared against the
column's own scale. Closed-form paths must match to CLOSED; everything
downstream of calibration (Nelder-Mead stops at a 1e-6 simplex diameter),
the RK4 march, the finite-difference oracles and the BPM march must match
to TRUNC.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

CLOSED = 1e-10
TRUNC = 1e-6
CLOSED_REPORT_FIELDS = ("system", "periods")


# ---------------------------------------------------------------------------
# accuracy and invariants
# ---------------------------------------------------------------------------

def _complex(v) -> complex:
    return complex(v["re"], v["im"]) if isinstance(v, dict) else complex(v)


def _reports(out: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(out.glob("*.report.json"))]


def accuracy(out: Path) -> dict[str, float]:
    """Accuracy against the analytic references, from one run's output files.

    ``ref_err`` is the workload's bounded accuracy figure: the larger <x>
    RMSE (TB vs exact) of the static presets, the TB beat-phase error of the
    modulated pair, or the relative L2 error of the BPM field at T_V.
    """
    acc: dict[str, float] = {}
    for rep in _reports(out):
        kind = rep["system"]["kind"]
        spec = rep["tb_spectrum"]
        if kind == "pt_dynamic":
            p = rep["system"]["params"]
            qe = [_complex(e).real for e in spec["quasi_energies"]]
            t_v = rep["periods"]["fundamental"]
            acc["tb_beat_err_rad"] = abs((qe[1] - qe[0]) - (p["k2"] ** 2 - p["k1"] ** 2)) * t_v
            acc["ref_err"] = acc["tb_beat_err_rad"]
            continue
        tb = [_complex(e) for e in spec["energies"]]
        err = sum(abs(a - b) for a, b in zip(tb, spec["exact"]))
        acc["tb_energy_err"] = max(acc.get("tb_energy_err", 0.0), err)
        acc["ref_err"] = max(acc.get("ref_err", 0.0), rep["metrics"]["x_mean"]["rmse"])
        if kind == "pt_static":
            acc["pt_static_max_imag"] = max(abs(e.imag) for e in tb)
    for p in sorted(out.glob("*.propagate.json")):
        acc["bpm_l2_error"] = json.loads(p.read_text(encoding="utf-8"))["bpm"]["l2_error"]
        acc["ref_err"] = acc["bpm_l2_error"]
    return acc


def invariants(acc: dict[str, float]) -> list[str]:
    """Checks that hold for every seed and need no snapshot."""
    problems = []
    if "ref_err" not in acc:
        problems.append("no accuracy figure could be read from the outputs")
    if acc.get("pt_static_max_imag", 0.0) > 1e-8:
        problems.append(f"PT static TB spectrum not real: |Im E| = {acc['pt_static_max_imag']:.3e}")
    if acc.get("tb_beat_err_rad", 0.0) >= 5e-3:
        problems.append(f"tb_beat_err_rad = {acc['tb_beat_err_rad']:.3e} >= 5e-3")
    if acc.get("bpm_l2_error", 0.0) >= 5e-3:
        problems.append(f"bpm_l2_error = {acc['bpm_l2_error']:.3e} >= 5e-3")
    return problems


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


# ---------------------------------------------------------------------------
# snapshot fingerprints
# ---------------------------------------------------------------------------

def _column_fp(values: list[float]) -> dict:
    n = len(values)
    scale = max(abs(v) for v in values)
    picks = [values[round(i * (n - 1) / 8)] for i in range(9)]
    return {
        "n": n,
        "scale": scale,
        "stats": [sum(values) / n, sum(abs(v) for v in values) / n,
                  math.sqrt(sum(v * v for v in values) / n),
                  sum(v * i for i, v in enumerate(values)) / (n * max(1, n - 1)),
                  min(values), max(values)] + picks,
    }


def _csv_fp(path: Path) -> dict:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    engine_col = header.index("engine") if "engine" in header else None
    columns: dict[str, list[float]] = {}
    for row in body:
        suffix = f"@{row[engine_col]}" if engine_col is not None else ""
        for name, cell in zip(header, row):
            if name != "engine" and cell != "":
                columns.setdefault(name + suffix, []).append(float(cell))
    return {name: _column_fp(vals) for name, vals in columns.items()}


def _json_leaves(node, path: str, out: dict) -> None:
    if isinstance(node, dict) and set(node) == {"re", "im"}:
        out[path] = [node["re"], node["im"]]
    elif isinstance(node, dict):
        for key in sorted(node):
            _json_leaves(node[key], f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _json_leaves(item, f"{path}[{i}]", out)
    elif isinstance(node, (int, float)):
        out[path] = node


def fingerprint(out: Path) -> dict:
    """Fingerprint of every output file of one run."""
    fps: dict = {}
    for p in sorted(out.iterdir()):
        if p.suffix == ".csv":
            fps[p.name] = _csv_fp(p)
        elif p.suffix == ".json":
            leaves: dict = {}
            _json_leaves(json.loads(p.read_text(encoding="utf-8")), "", leaves)
            fps[p.name] = leaves
    return fps


def _tolerance(fname: str, key: str) -> float:
    if fname.endswith(".csv"):
        return TRUNC if key.endswith("@tb") else CLOSED
    if fname.endswith(".report.json") and key.split(".")[0] in CLOSED_REPORT_FIELDS:
        return CLOSED
    return TRUNC


def _close(a, b, tol: float, scale: float) -> bool:
    if isinstance(b, bool) or isinstance(a, bool):
        return a == b
    return abs(a - b) <= tol * scale


def compare(ref: dict, got: dict) -> list[str]:
    """Differences between a run's fingerprint and the stored snapshot."""
    problems = []
    for fname in sorted(set(ref) | set(got)):
        if fname not in got or fname not in ref:
            problems.append(f"{fname}: {'missing' if fname not in got else 'not in the snapshot'}")
            continue
        r_file, g_file = ref[fname], got[fname]
        for key in sorted(set(r_file) | set(g_file)):
            if key not in g_file or key not in r_file:
                problems.append(f"{fname}:{key}: {'missing' if key not in g_file else 'unexpected'}")
                continue
            r, g = r_file[key], g_file[key]
            tol = _tolerance(fname, key)
            if isinstance(r, dict):  # CSV column
                # An imaginary part that is rounding noise is judged on the
                # scale of its real part, as complex report values are.
                name, at, engine = key.partition("@")
                partner = r_file.get(f"{name[:-3]}_re{at}{engine}") if name.endswith("_im") else None
                scale = max(r["scale"], partner["scale"] if partner else 0.0)
                ok = r["n"] == g["n"] and all(
                    _close(a, b, tol, scale) for a, b in zip(g["stats"], r["stats"]))
            elif isinstance(r, list):  # complex report value
                scale = math.hypot(*r)
                ok = all(_close(a, b, tol, scale) for a, b in zip(g, r))
            else:
                ok = _close(g, r, tol, abs(r))
            if not ok:
                shown = "column statistics" if isinstance(r, dict) else f"{g!r} vs snapshot {r!r}"
                problems.append(f"{fname}:{key}: {shown} differ beyond {tol:g}")
    return problems
