"""Bundled scenario presets reproducing the benchmark data series."""

from __future__ import annotations

import copy

from .config import ConfigError

__all__ = ["PRESETS", "preset_config"]

PRESETS: dict[str, dict] = {
    # <x>, <p>, dx, dp of the left guided mode over two beat lengths
    "hermitian-fig2": {
        "system": {"kind": "hermitian_static", "k1": 0.645, "k2": 0.865},
        "z_grid": {"periods": 2.0, "num": 361},
        "mode_kind": "left",
        "observables": ["x_mean", "p_mean", "x_std", "p_std"],
        "quadrature": {"nodes": 4097},
        "output": {"basename": "hermitian-fig2"},
    },
    # power, beam moments, and the Dirac Hamiltonian moments of the
    # PT-symmetric static pair (plus the conserved PT sandwich)
    "pt-static-fig3-4": {
        "system": {"kind": "pt_static", "k1": 1.1, "k2": 1.2, "alpha": 0.2},
        "z_grid": {"periods": 2.0, "num": 361},
        "mode_kind": "left",
        "observables": [
            "power",
            "x_mean",
            "p_mean",
            "x_std",
            "p_std",
            {"name": "H_mean", "metric": "dirac"},
            {"name": "H_std", "metric": "dirac"},
            {"name": "H_mean", "metric": "pt"},
        ],
        "quadrature": {"nodes": 4097},
        "output": {"basename": "pt-static-fig3-4"},
    },
    # modulated pair: potential landscape over two modulation periods plus
    # the guided-mode series and the PT-metric Hamiltonian moments
    "pt-dynamic-fig1-5-6": {
        "system": {"kind": "pt_dynamic", "k1": 1.0, "k2": 1.1, "k3": 0.95, "alpha": 0.1},
        "z_grid": {"periods": 2.0, "num": 321},
        "mode_kind": "left",
        "observables": [
            "x_mean",
            "p_mean",
            "power",
            "x_std",
            "p_std",
            {"name": "H_mean", "metric": "pt"},
            {"name": "H_std", "metric": "pt"},
        ],
        "quadrature": {"nodes": 4097},
        "potential_dump": {"enabled": True, "nx": 161, "nz": 101,
                           "x_half_width": 6.0, "periods": 2.0},
        "output": {"basename": "pt-dynamic-fig1-5-6"},
    },
}


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError([f"preset: unknown preset {name!r}; "
                           f"available: {', '.join(sorted(PRESETS))}"])
    return copy.deepcopy(PRESETS[name])
