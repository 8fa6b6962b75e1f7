"""Quadrature-based observable series over propagation distance.

Moments are sesquilinear sandwiches (psi, A psi) under the Dirac or PT
inner product, divided by a recorded normalization (instantaneous power
for beam moments, initial power for the PT Hamiltonian moments). States
are adapters exposing psi(x, z) plus, when available, an exact
application of the Hamiltonian: the exact states use the closed-form
d/dz, the tight-binding states stay inside the model (energy-weighted or
generator-applied coefficients). Momentum moments, and H for a state
without h_apply, use the 4th-order stencils of `quadrature` on the
uniform quadrature grid, once `_resolution_guard` has checked that halving
the grid resolution moves the first derivative by at most 1e-5 of its scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quadrature import QuadratureSpec, d1_fourth, d2_fourth, quad_nodes
from .systems import WaveguideSystem
from .tightbinding import TBGuidedModes, TBModel, CoefficientTrajectory, assemble_state

__all__ = [
    "OBSERVABLES",
    "ObservableSeries",
    "ComparisonEntry",
    "ExactState",
    "TBStaticState",
    "TBTrajectoryState",
    "power",
    "moment_series",
    "comparison_metrics",
    "DerivativeResolutionError",
]

OBSERVABLES = ("x_mean", "p_mean", "x_std", "p_std", "power", "H_mean", "H_std")


class DerivativeResolutionError(RuntimeError):
    pass


@dataclass(frozen=True)
class ObservableSeries:
    z: np.ndarray
    values: np.ndarray
    observable: str
    metric: str
    normalization: str
    engine: str = ""

    def __post_init__(self) -> None:
        if len(self.z) != len(self.values):
            raise ValueError("z grid and values must have equal length")


# ---------------------------------------------------------------------------
# state adapters
# ---------------------------------------------------------------------------

class ExactState:
    """Closed-form mode of a WaveguideSystem as an observable state."""

    def __init__(self, system: WaveguideSystem, kind: str):
        self.system = system
        self.kind = kind

    def __call__(self, x, z: float):
        return self.system.mode(self.kind, x, z)

    def h_apply(self, x, z: float):
        # every exact mode solves the paraxial equation, so H psi = i d_z psi
        return 1j * self.system.mode_dz(self.kind, x, z)

    def h2_apply(self, x, z: float):
        if self.system.is_dynamic:
            return None
        return self.system.mode_h2(self.kind, x, z)

    def potential(self, x, z: float):
        return self.system.potential(x, z)


class TBStaticState:
    """Stationary-model guided mode: coefficients evolve as e^{-i E_j z}.

    Hamiltonian moments are taken within the tight-binding representation
    (H psi := i d_z psi, the model's own evolution generator), mirroring
    the exact states where the same identity holds for the continuum
    operator. This is what keeps the PT sandwich of a static model
    strictly constant, as it is for the exact modes.
    """

    def __init__(self, model: TBModel, guided: TBGuidedModes, kind: str,
                 system: WaveguideSystem):
        self.model = model
        self.guided = guided
        self.kind = kind
        self.system = system

    def __call__(self, x, z: float):
        return assemble_state(self.model, self.guided.coefficients(self.kind, z), x)

    def h_apply(self, x, z: float):
        return assemble_state(self.model, self.guided.coefficients(self.kind, z, 1), x)

    def h2_apply(self, x, z: float):
        return assemble_state(self.model, self.guided.coefficients(self.kind, z, 2), x)

    def potential(self, x, z: float):
        return self.system.potential(x, z)


class TBTrajectoryState:
    """Dynamic-model state riding a precomputed coefficient trajectory.

    As for the static case, H applications stay inside the model:
    H psi := i d_z psi = sum_j (S^-1 H(z) c)_j phi_j, and H^2 applies the
    matrix generator twice.
    """

    def __init__(self, model: TBModel, trajectory: CoefficientTrajectory,
                 system: WaveguideSystem):
        self.model = model
        self.trajectory = trajectory
        self.system = system

    def _c(self, z: float) -> np.ndarray:
        zs = self.trajectory.z
        i = int(np.argmin(np.abs(zs - z)))
        if abs(zs[i] - z) > 1e-9 * max(1.0, abs(z)):
            raise ValueError(f"z={z} not on the integrated trajectory grid")
        return self.trajectory.c[i]

    def _generator(self, c: np.ndarray, z: float) -> np.ndarray:
        return self.model.overlap_inverse() @ (self.model.hamiltonian_matrix(z) @ c)

    def __call__(self, x, z: float):
        return assemble_state(self.model, self._c(z), x)

    def h_apply(self, x, z: float):
        return assemble_state(self.model, self._generator(self._c(z), z), x)

    def h2_apply(self, x, z: float):
        c = self._c(z)
        return assemble_state(self.model, self._generator(self._generator(c, z), z), x)

    def potential(self, x, z: float):
        return self.system.potential(x, z)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def power(state, z: float, quad: QuadratureSpec) -> float:
    x, w = quad_nodes(quad)
    f = np.asarray(state(x, z))
    return float(np.sum(w * np.abs(f) ** 2).real)


def _default_normalization(observable: str, metric: str) -> str:
    if observable == "power":
        return "none"
    if observable in ("H_mean", "H_std") and metric == "pt":
        return "initial_power"
    return "instantaneous_power"


def moment_series(
    state,
    observable: str,
    metric: str,
    z_grid,
    quad: QuadratureSpec,
    *,
    normalization: Optional[str] = None,
    engine: str = "",
) -> ObservableSeries:
    """Sampled z-series of one observable for one state.

    p = -i d_x and H = -d_x^2 + V; H applications use the state's exact
    h_apply when present, else finite differences against the state's
    bound potential. For the PT metric the integrand pairs conj(f(x)) with
    (A g)(-x); the quadrature grid must be uniform (simpson/trapezoid).
    """
    if observable not in OBSERVABLES:
        raise ValueError(f"unknown observable {observable!r}")
    if metric not in ("dirac", "pt"):
        raise ValueError(f"unknown metric {metric!r}")
    if quad.rule == "gauss_legendre_composite":
        raise ValueError("moment_series needs a uniform quadrature rule")
    normalization = normalization or _default_normalization(observable, metric)
    if normalization not in ("instantaneous_power", "initial_power", "none"):
        raise ValueError(f"unknown normalization {normalization!r}")

    x, w = quad_nodes(quad)
    h = x[1] - x[0]
    z_grid = np.asarray(z_grid, dtype=float)

    needs_fd = observable in ("p_mean", "p_std") or (
        observable in ("H_mean", "H_std") and getattr(state, "h_apply", None) is None)
    if needs_fd:
        _resolution_guard(state, x, h, float(z_grid[0]))

    p_initial = None
    if normalization == "initial_power":
        f0 = np.asarray(state(x, 0.0))
        p_initial = float(np.sum(w * np.abs(f0) ** 2).real)

    def sandwich(f: np.ndarray, g: np.ndarray) -> complex:
        """(f, g-field)_metric with g sampled on x; PT flips the second slot."""
        gs = g[::-1] if metric == "pt" else g
        return complex(np.sum(w * np.conj(f) * gs))

    values = np.empty(len(z_grid), dtype=complex)
    for i, z in enumerate(z_grid):
        z = float(z)
        f = np.asarray(state(x, z))
        pw = float(np.sum(w * np.abs(f) ** 2).real)
        if observable == "power":
            values[i] = pw
            continue
        if normalization == "instantaneous_power":
            norm = pw
        elif normalization == "initial_power":
            norm = p_initial
        else:
            norm = 1.0
        # first moment (A f), then for the spreads the second (A^2 f)
        if observable in ("x_mean", "x_std"):
            af = x * f
        elif observable in ("p_mean", "p_std"):
            af = -1j * d1_fourth(f, h)
        else:  # H_mean / H_std
            af = _apply_h(state, "h_apply", f, x, h, z)
        m1 = sandwich(f, af) / norm
        if observable.endswith("_mean"):
            values[i] = m1
            continue
        if observable == "x_std":
            a2f = x * x * f
        elif observable == "p_std":
            a2f = -d2_fourth(f, h)
        else:
            a2f = _apply_h(state, "h2_apply", af, x, h, z)
        values[i] = np.sqrt(sandwich(f, a2f) / norm - m1 * m1)
    return ObservableSeries(z=z_grid, values=values, observable=observable,
                            metric=metric, normalization=normalization, engine=engine)


def _apply_h(state, method: str, f: np.ndarray, x: np.ndarray, h: float, z: float) -> np.ndarray:
    """H f by the state's exact `method` (h_apply/h2_apply) when it gives one, else -f'' + V f."""
    apply = getattr(state, method, None)
    out = apply(x, z) if apply is not None else None
    if out is not None:
        return np.asarray(out)
    v = np.asarray(state.potential(x, z))
    return -d2_fourth(f, h) + v * f


def _resolution_guard(state, x: np.ndarray, h: float, z: float, tol: float = 1e-5) -> None:
    """Fail fast when halving the grid resolution moves a derivative moment."""
    f = np.asarray(state(x, z))
    d_full = d1_fourth(f, h)
    d_half = np.zeros_like(f)
    fh = f[::2]
    d_half[::2] = d1_fourth(fh, 2 * h)
    scale = float(np.max(np.abs(d_full))) or 1.0
    diff = float(np.max(np.abs(d_full[::2][3:-3] - d_half[::2][3:-3]))) / scale
    if diff > tol:
        raise DerivativeResolutionError(
            f"finite-difference derivatives change by {diff:.2e} under coarsening; refine the grid")


# ---------------------------------------------------------------------------
# series comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonEntry:
    rmse: float
    amplitude_ratio: float
    phase_shift: Optional[float]
    period: Optional[float]


def comparison_metrics(exact: ObservableSeries, approx: ObservableSeries) -> ComparisonEntry:
    """RMSE, peak-to-peak amplitude ratio, and cross-correlation phase shift.

    The phase shift is the lag maximizing the cross-correlation of the
    mean-removed real parts, converted to radians of the dominant
    oscillation of the exact series and wrapped to (-pi, pi]; positive
    means the approximate series lags the exact one. None when either
    series is flat.
    """
    za = exact.z
    b_vals = approx.values
    if len(approx.z) != len(za) or not np.allclose(approx.z, za):
        b_vals = np.interp(za, approx.z, approx.values.real) + 1j * np.interp(za, approx.z, approx.values.imag)
    a = exact.values
    rmse = float(np.sqrt(np.mean(np.abs(a - b_vals) ** 2)))
    ar = a.real
    br = b_vals.real
    pp_a = float(ar.max() - ar.min())
    pp_b = float(br.max() - br.min())
    scale = max(np.max(np.abs(ar)), np.max(np.abs(br)), 1e-300)
    if pp_a < 1e-9 * scale or pp_b < 1e-9 * scale:
        return ComparisonEntry(rmse=rmse, amplitude_ratio=(pp_b / pp_a if pp_a > 0 else math.nan),
                               phase_shift=None, period=None)
    am = ar - ar.mean()
    bm = br - br.mean()
    dz = za[1] - za[0]
    # dominant period from the spectral peak of the exact series
    spec = np.abs(np.fft.rfft(am))
    spec[0] = 0.0
    kbin = int(np.argmax(spec))
    period = len(am) * dz / kbin if kbin > 0 else None
    if period is None:
        return ComparisonEntry(rmse=rmse, amplitude_ratio=pp_b / pp_a, phase_shift=None, period=None)
    xc = np.correlate(bm, am, mode="full")
    lags = np.arange(-len(am) + 1, len(am))
    j = int(np.argmax(xc))
    lag = float(lags[j])
    if 0 < j < len(xc) - 1:  # parabolic sub-sample refinement
        y0, y1, y2 = xc[j - 1], xc[j], xc[j + 1]
        denom = y0 - 2 * y1 + y2
        if denom != 0:
            lag += 0.5 * (y0 - y2) / denom
    phase = 2 * math.pi * lag * dz / period
    phase = (phase + math.pi) % (2 * math.pi) - math.pi
    return ComparisonEntry(rmse=rmse, amplitude_ratio=pp_b / pp_a,
                           phase_shift=float(phase), period=float(period))
