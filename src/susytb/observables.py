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

`moment_table` makes one pass over z for all requested observables of a
state: at each z it evaluates psi, its power, x psi, the two stencils,
h_apply and h2_apply at most once each and shares them, and it runs the
resolution guard and the initial power once per state. `moment_series`
is the one-observable case. The field values themselves come from the
node-set caches of the states' engines (`WaveguideSystem` profiles and
x-factors, `TBModel.basis_values`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .quadrature import QuadratureSpec, d1_fourth, d2_fourth, quad_nodes, read_only
from .systems import WaveguideSystem
from .tightbinding import TBGuidedModes, TBModel, CoefficientTrajectory, assemble_state

__all__ = [
    "OBSERVABLES",
    "ObservableSeries",
    "ComparisonEntry",
    "ExactState",
    "TBStaticState",
    "TBTrajectoryState",
    "ObservableRequest",
    "moment_table",
    "moment_series",
    "comparison_metrics",
    "DerivativeResolutionError",
]

OBSERVABLES = ("x_mean", "p_mean", "x_std", "p_std", "power", "H_mean", "H_std")

RESOLUTION_TOL = 1e-5  # largest derivative change under coarsening that `_resolution_guard` passes


class DerivativeResolutionError(RuntimeError):
    pass


class ObservableRequest(NamedTuple):
    """One requested series; its normalization is `_default_normalization`'s."""

    name: str
    metric: str


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


class TBTrajectoryState:
    """Dynamic-model state riding a precomputed coefficient trajectory.

    As for the static case, H applications stay inside the model:
    H psi := i d_z psi = sum_j (S^-1 H(z) c)_j phi_j, and H^2 applies the
    matrix generator twice. H(z) is built once per z and kept for the
    next application at the same z.
    """

    def __init__(self, model: TBModel, trajectory: CoefficientTrajectory,
                 system: WaveguideSystem):
        self.model = model
        self.trajectory = trajectory
        self.system = system
        self._h_at: Optional[tuple[float, np.ndarray]] = None

    def _c(self, z: float) -> np.ndarray:
        zs = self.trajectory.z
        i = int(np.argmin(np.abs(zs - z)))
        if abs(zs[i] - z) > 1e-9 * max(1.0, abs(z)):
            raise ValueError(f"z={z} not on the integrated trajectory grid")
        return self.trajectory.c[i]

    def _generator(self, c: np.ndarray, z: float) -> np.ndarray:
        if self._h_at is None or self._h_at[0] != z:
            self._h_at = (z, self.model.hamiltonian_matrix(z))
        return self.model.overlap_inverse() @ (self._h_at[1] @ c)

    def __call__(self, x, z: float):
        return assemble_state(self.model, self._c(z), x)

    def h_apply(self, x, z: float):
        return assemble_state(self.model, self._generator(self._c(z), z), x)

    def h2_apply(self, x, z: float):
        c = self._c(z)
        return assemble_state(self.model, self._generator(self._generator(c, z), z), x)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def _default_normalization(observable: str, metric: str) -> str:
    """The one normalization rule: power raw, PT H moments by the initial power, the rest by P(z)."""
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
    engine: str = "",
) -> ObservableSeries:
    """Sampled z-series of one observable for one state (see `moment_table`)."""
    return moment_table(state, [ObservableRequest(observable, metric)], z_grid, quad, engine=engine)[0]


def moment_table(
    state,
    requests: Sequence[ObservableRequest],
    z_grid,
    quad: QuadratureSpec,
    *,
    engine: str = "",
) -> list[ObservableSeries]:
    """Sampled z-series of every requested observable for one state, in request order.

    p = -i d_x and H = -d_x^2 + V; H applications use the state's exact
    h_apply when present, else finite differences against the state's
    bound potential. For the PT metric the integrand pairs conj(f(x)) with
    (A g)(-x); the quadrature grid must be uniform (simpson).
    Every request is validated before any field is evaluated.
    """
    plans = []
    for observable, metric in requests:
        if observable not in OBSERVABLES:
            raise ValueError(f"unknown observable {observable!r}")
        if metric not in ("dirac", "pt"):
            raise ValueError(f"unknown metric {metric!r}")
        plans.append((observable, metric, _default_normalization(observable, metric)))
    if quad.rule == "gauss_legendre_composite":
        raise ValueError("observable series need a uniform quadrature rule")

    x, w = quad_nodes(quad)
    x = read_only(x)  # frozen, so the engines' node-set caches keep its values across z
    h = x[1] - x[0]
    z_grid = np.asarray(z_grid, dtype=float)

    if any(observable in ("p_mean", "p_std") or (
            observable in ("H_mean", "H_std") and getattr(state, "h_apply", None) is None)
           for observable, _, _ in plans):
        _resolution_guard(state, x, h, float(z_grid[0]))

    p_initial = None
    if any(normalization == "initial_power" for _, _, normalization in plans):
        f0 = np.asarray(state(x, 0.0))
        p_initial = float(np.sum(w * np.abs(f0) ** 2).real)

    values = np.empty((len(plans), len(z_grid)), dtype=complex)
    for i, z in enumerate(z_grid):
        at = _Fields(state, x, w, h, float(z))
        for row, (observable, metric, normalization) in zip(values, plans):
            if observable == "power":
                row[i] = at.power
                continue
            norm = at.power if normalization == "instantaneous_power" else p_initial
            # first moment (A f), then for the spreads the second (A^2 f)
            family = observable.split("_")[0]
            m1 = at.sandwich(1, family, metric) / norm
            if observable.endswith("_mean"):
                row[i] = m1
                continue
            row[i] = np.sqrt(at.sandwich(2, family, metric) / norm - m1 * m1)
    return [ObservableSeries(z=z_grid, values=row, observable=observable, metric=metric,
                             normalization=normalization, engine=engine)
            for row, (observable, metric, normalization) in zip(values, plans)]


class _Fields:
    """psi at one z and the operator images the moments need, each evaluated on first use."""

    def __init__(self, state, x: np.ndarray, w: np.ndarray, h: float, z: float):
        self.state, self.x, self.w, self.h, self.z = state, x, w, h, z
        self.f = np.asarray(state(x, z))
        self.power = float(np.sum(w * np.abs(self.f) ** 2).real)
        self._sandwiches: dict[tuple, complex] = {}

    def sandwich(self, order: int, family: str, metric: str) -> complex:
        """(f, A^order f) for A in {x, p, H}, from the image `<family><order>`; PT flips slot two."""
        key = (order, family, metric)
        if key not in self._sandwiches:
            g = getattr(self, f"{family}{order}")
            gs = g[::-1] if metric == "pt" else g
            self._sandwiches[key] = complex(np.sum(self._wcf * gs))
        return self._sandwiches[key]

    @cached_property
    def _wcf(self) -> np.ndarray:
        return self.w * np.conj(self.f)

    @cached_property
    def _d2(self) -> np.ndarray:
        return d2_fourth(self.f, self.h)

    @cached_property
    def _v(self) -> np.ndarray:
        return np.asarray(self.state.potential(self.x, self.z))

    @cached_property
    def x1(self) -> np.ndarray:
        return self.x * self.f

    @cached_property
    def x2(self) -> np.ndarray:
        return self.x * self.x * self.f

    @cached_property
    def p1(self) -> np.ndarray:
        return -1j * d1_fourth(self.f, self.h)

    @cached_property
    def p2(self) -> np.ndarray:
        return -self._d2

    @cached_property
    def H1(self) -> np.ndarray:
        return self._apply_h("h_apply", self.f, lambda: self._d2)

    @cached_property
    def H2(self) -> np.ndarray:
        return self._apply_h("h2_apply", self.H1, lambda: d2_fourth(self.H1, self.h))

    def _apply_h(self, method: str, g: np.ndarray, d2g) -> np.ndarray:
        """H g by the state's exact `method` (h_apply/h2_apply) when it gives one, else -g'' + V g."""
        apply = getattr(self.state, method, None)
        out = apply(self.x, self.z) if apply is not None else None
        if out is not None:
            return np.asarray(out)
        return -d2g() + self._v * g


def _resolution_guard(state, x: np.ndarray, h: float, z: float) -> None:
    """Fail fast when halving the grid resolution moves a derivative moment."""
    f = np.asarray(state(x, z))
    d_full = d1_fourth(f, h)
    d_half = np.zeros_like(f)
    fh = f[::2]
    d_half[::2] = d1_fourth(fh, 2 * h)
    scale = float(np.max(np.abs(d_full))) or 1.0
    diff = float(np.max(np.abs(d_full[::2][3:-3] - d_half[::2][3:-3]))) / scale
    if diff > RESOLUTION_TOL:
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
    oscillation of the exact series and wrapped to [-pi, pi); positive
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
