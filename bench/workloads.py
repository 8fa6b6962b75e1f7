"""Benchmark workloads and the seeded input generator.

Each workload is a fixed list of bundled presets plus the CLI subcommand
that runs them. Seed 0 yields the presets exactly. Any other seed scales
the physical parameters named in ``jitter`` by ``1 + u`` with ``u`` drawn
uniformly from ``[-a, a]``; grid sizes, sample counts and quadrature
orders are never touched, so the amount of work stays fixed. A drawn set
that breaks a parameter ordering or fails the regularity scan is refused,
the reason is recorded, and the generator draws again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

MAX_DRAWS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple[str, ...]
    command: str  # "compare" (cli.run) or "propagate" (cli.main)
    jitter: dict  # parameter -> relative half-width of the uniform draw
    layers: tuple[str, ...]
    overrides: dict = field(default_factory=dict)


# The jitter widths are set by how sharply each workload's accuracy figure
# responds to its parameters. The TB beat error of the modulated pair moves
# by ~19 % per 0.001 of alpha (it is the modulus of a signed bias that
# crosses zero near alpha = 0.094), so pt-dynamic draws alpha within
# +-0.2 %; the BPM error moves by ~0.5 % over +-10 % of alpha.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="static-pair",
            presets=("hermitian-fig2", "pt-static-fig3-4"),
            command="compare",
            jitter={"k1": 0.01, "k2": 0.01, "alpha": 0.01},
            layers=("observables", "systems", "calibrate", "tightbinding", "quadrature"),
        ),
        Workload(
            name="pt-dynamic",
            presets=("pt-dynamic-fig1-5-6",),
            command="compare",
            jitter={"alpha": 0.002},
            layers=("tightbinding", "systems", "observables", "cli"),
        ),
        Workload(
            name="bpm-oracle",
            presets=("pt-dynamic-fig1-5-6",),
            command="propagate",
            jitter={"alpha": 0.1},
            overrides={"bpm": {"enabled": True, "nx": 2048, "dz": 0.01}},
            layers=("bpm", "systems"),
        ),
    )
}


def _refusal(raw: dict) -> str | None:
    """Why a drawn scenario is unusable, or None when it is valid and nodeless."""
    from susytb.config import ConfigError, validate_config
    from susytb.darboux import regularity_scan

    try:
        cfg = validate_config(json.dumps(raw))
    except ConfigError as exc:  # orderings, and the dynamic regularity scan
        return "; ".join(exc.errors)
    system = cfg.system
    u1, u2, _, _ = system.seeds()
    z_end = 2 * system.periods().fundamental if system.is_dynamic else 0.0
    scan = regularity_scan(u1, u2, (-10.0, 10.0), (0.0, z_end), 241 if system.is_dynamic else 2001)
    if not scan.nodeless:
        return f"regularity scan: min |W| = {scan.min_abs_w:.3e} at {scan.argmin}"
    return None


def make_inputs(workload: Workload, seed: int) -> tuple[list[dict], list[str]]:
    """Scenario dicts for one run, plus the reasons any drawn set was refused."""
    from susytb.presets import preset_config

    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    configs: list[dict] = []
    refused: list[str] = []
    for name in workload.presets:
        base = preset_config(name)
        base.update(workload.overrides)
        if seed == 0:
            configs.append(base)
            continue
        for _ in range(MAX_DRAWS):
            raw = json.loads(json.dumps(base))
            params = raw["system"]
            for key in sorted(workload.jitter):
                if key in params:
                    params[key] *= 1.0 + workload.jitter[key] * (2.0 * rng.random() - 1.0)
            reason = _refusal(raw)
            if reason is None:
                configs.append(raw)
                break
            refused.append(f"{name} {params}: {reason}")
        else:
            raise RuntimeError(f"no valid draw for {name} in {MAX_DRAWS} attempts")
    return configs, refused
