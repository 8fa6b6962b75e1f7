"""Quadrature-based observable series over propagation distance.

Moments are sesquilinear sandwiches (psi, A psi) under the Dirac or PT
inner product, divided by a recorded normalization (instantaneous power
for beam moments, initial power for the PT Hamiltonian moments). H comes
from the state itself; p uses the 4th-order stencils of `quadrature` on the
uniform grid, once `_resolution_guard` has checked that halving the grid
resolution moves the first derivative by at most 1e-5 of its scale.

`moment_table` takes each state through one of two contracts and evaluates each image at most
once. A per-z state (static `ExactState`, `TBStaticState`) is one call `state(x, z, order)`, H^order
psi at z, taken field by field with unchanged sums: the comparison metrics' sub-resolution
`phase_shift` fields move with any new summation order. A two-mode state
(`ExactState` on the modulated pair, `TBTrajectoryState`) is psi = sum_j c_j(z) u_j, and its `forms`
returns the rows u_j at z = 0 and a `_Stack` whose moments are quadratic forms c^H G b in 2x2 Gram
matrices G, each one array pass over all z (TB: one basis for every z, H read off its Floquet march).
For the exact pair c = w e^{-i E z} and P(r) = G(r) e^{-i(E_i - E_j) r} is T_V-periodic, its
harmonics falling like rho^|m|, rho = |alpha| sup |h2/h1| < 1: a mirrored `PeriodicSeries` of
tolerance GRAM_SERIES_TOL, N/2 + 1 closed-form passes as r and T_V - r are PT mirrors (N = 32
at the preset), or the grid's own phases once those take no more passes (rho -> 1). Either
way, when the resolution guard or the initial power is needed, z = 0 is evaluated once, first
(the grid's own first z when it is 0). `moment_series` is the one-observable case.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .quadrature import PeriodicSeries, QuadratureSpec, d1_fourth, d2_fourth, fold_phases
from .systems import WaveguideSystem
from .tightbinding import FloquetResult, TBGuidedModes, TBModel, assemble_state

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

SPREAD_TOL = 1e-8  # |Im|/|Re| up to which a negative variance is real; modulated-preset PT p_std: 3.4e-10
RESOLUTION_TOL = 1e-5  # largest derivative change under coarsening that `_resolution_guard` passes
GRAM_SERIES_TOL = 1e-12  # largest top harmonic a phase series keeps; above the p^2/H^2 stencil floor (1.3e-13)


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
    """Closed-form mode of a WaveguideSystem as an observable state.

    On a modulated pair psi = sum_j w_j u_j over the normalized Floquet modes u_j, w the
    left/right weights (or a unit vector for one mode).
    """

    def __init__(self, system: WaveguideSystem, kind: str):
        self.system = system
        self.kind = kind

    def __call__(self, x, z: float, order: int = 0):
        """H^order psi at z; H psi = i d_z psi, as every exact mode solves the paraxial equation."""
        if order == 1:
            return 1j * self.system.mode_dz(self.kind, x, z)
        return (self.system.mode_h2 if order == 2 else self.system.mode)(self.kind, x, z)

    def phase_series(self, x, w, h, keys, budget: float = 0) -> PeriodicSeries:
        """The `PeriodicSeries` of both Floquet modes' Gram stacks P(r) = G(r) e^{-i(E_i - E_j) r} under each key,
        T_V-periodic as u_j(x, r + T_V) = e^{-i E_j T_V} u_j(x, r), fitted within `budget` passes; H u = i d_z u
        off each pass, H^2 u by the stencils against V(r). Its `f0` holds the rows of the pass at r = 0."""
        system, energies = self.system, np.array(list(self.system.energies().values()))  # the rows' order

        def sample(r):
            at_r = system.pair(x, r)
            rows = _Fields(at_r(0), x, w, h, hf=lambda: 1j * at_r(1), v=functools.partial(system.potential, x, r))
            series.f0 = rows.f if r == 0.0 else series.f0  # the resolution guard's
            return np.stack([rows.sandwich(*key) for key in keys]) * np.exp(
                -1j * np.subtract.outer(energies, energies) * r)
        # PT symmetry: u_j(x, T_V - r) = c_j e^{-i E_j T_V} conj u_j(-x, r), c = (+1, -1) even-like first; the grid,
        # w and stencils are even, so P(T_V - r) = s c_i c_j conj P(r), s = -1 for x^1 and +1 else
        flip = np.array([-1 if key[:2] == (1, "x") else 1 for key in keys])[:, None, None] * [[1, -1], [-1, 1]]
        p, period = system.params, system.periods().fundamental  # P's harmonics fall like p.rho^|m|
        # a pass's phases e^{i b r}, b up to k1^2 + k2^2 + k3^2, carry eps b T of rounding by r = T
        floor = np.finfo(float).eps * (p.k1**2 + p.k2**2 + p.k3**2) * period
        series = PeriodicSeries(sample, period, GRAM_SERIES_TOL, rho=p.rho, floor=floor, flip=flip)
        series.f0 = None
        return series.fit(budget)

    def forms(self, x, w, h, z_grid, keys):
        """The rows at z = 0 and the `_Stack` of every z: coefficients w e^{-i E z} on P at its phase, from the
        phase series, or at the grid's own phases when those take no more passes."""
        system, period = self.system, self.system.periods().fundamental
        if self.kind in ("left", "right"):
            sign, inv_n = system.combination(self.kind)
            weights = np.array([inv_n, sign * inv_n])
        else:
            weights = np.eye(2)[system.facts.stationary.index(self.kind)]
        _, which, phases = fold_phases(z_grid, period)
        series = self.phase_series(x, w, h, keys)
        series.fit(len(series.fold(phases)[1]) - 1)  # fewer passes than the grid's phases, a pass per mirrored pair
        grams = series(z_grid) if series.n else series.at_phases(phases)[which]
        a = weights * np.exp(-1j * np.outer(z_grid, list(system.energies().values())))
        return series.f0, _Stack(a, {key: (gram, a) for key, gram in zip(keys, np.moveaxis(grams, 1, 0))})


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

    def __call__(self, x, z: float, order: int = 0):
        """H^order psi at z."""
        return assemble_state(self.model, self.guided.coefficients(self.kind, z, order), x)


class TBTrajectoryState:
    """Dynamic-model state psi = sum_j c_j(z) phi_j, read off the Floquet march of its grid.

    As for the static case, H stays inside the model: H psi := i d_z psi = sum_j (S^-1 H(z) c)_j phi_j,
    with S^-1 H(r) the march's own generator at each phase r (`FloquetResult.generators`).
    """

    def __init__(self, model: TBModel, floquet: FloquetResult, c0: Sequence[complex]):
        self.model = model
        self.floquet = floquet
        self.trajectory = floquet.trajectory(c0)

    def forms(self, x, w, h, z_grid, keys):
        """The basis rows and the `_Stack` of every z, each a point of the marched grid: H^k psi = gen^k c on the
        basis' Gram matrices G_0, the rest c on G, each G evaluated on first use."""
        flq = self.floquet
        at = np.minimum(np.searchsorted(flq.z, z_grid), len(flq.z) - 1)
        if not np.array_equal(flq.z[at], z_grid):
            raise ValueError("z grid is not on the marched grid")
        c, gen = self.trajectory.c[at], flq.generators  # one matrix power per phase and order
        hk = functools.cache(lambda k: np.einsum("zij,zj->zi", np.linalg.matrix_power(gen, k)[flq.which[at]], c))
        rows = _Fields(np.stack(self.model.basis_values(x)), x, w, h)
        return rows.f, _Stack(c, {key: (rows.sandwich(0, "", key[2]), hk(key[0])) if key[1] == "H"
                                  else (rows.sandwich(*key), c) for key in keys})


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

    A per-z state gives H^k psi at each z as state(x, z, k): the field as state(x, z), H images on demand;
    a two-mode state's `forms(x, w, h, z, keys)` gives its rows at z = 0 and their `_Stack` over z,
    H by the modulated pair's i d_z or the TB generator. p = -i d_x by the stencils. For the PT
    metric the integrand pairs conj(f(x)) with (A g)(-x); the grid must be uniform. When the
    resolution guard (p moments) or the initial power (PT H moments) is needed, z = 0 is evaluated
    once, first (the grid's first z if it is 0). Each request is validated before any evaluation.
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

    x, w = quad.points  # frozen, so the engines' node-set caches keep its values across z
    h = x[1] - x[0]
    z_grid = np.asarray(z_grid, dtype=float)
    guard = any(observable in ("p_mean", "p_std") for observable, _, _ in plans)
    initial = any(normalization == "initial_power" for _, _, normalization in plans)
    lead = int((guard or initial) and z_grid[:1].tolist() != [0.0])  # z = 0 once, first, unless the grid starts there
    z_all = np.concatenate([np.zeros(lead), z_grid])
    f0 = p_initial = None
    if isinstance(state, TBTrajectoryState) or (isinstance(state, ExactState) and state.system.is_dynamic):
        rows, stack = state.forms(x, w, h, z_all, _Stack.keys(plans))  # each moment at all z in one pass
        if guard or initial:
            f0, p_initial = stack.a[0] @ rows, stack.power[0]
        columns = [(slice(None), stack)]
    else:
        fields = (_Fields(np.asarray(state(x, z)), x, w, h, hf=lambda z=z: state(x, z, 1),
                          h2f=lambda z=z: state(x, z, 2)) for z in z_all.tolist())
        if guard or initial:
            first = next(fields)
            f0, p_initial = first.f, first.power
            if not lead:
                fields = itertools.chain([first], fields)
        columns = enumerate(fields, lead)
    if guard:
        _resolution_guard(f0, h)
    values = np.empty((len(plans), lead + len(z_grid)), dtype=complex)
    for i, at_z in columns:
        for row, (observable, metric, normalization) in zip(values, plans):
            if observable == "power":
                row[i] = at_z.power
                continue
            norm = at_z.power if normalization == "instantaneous_power" else p_initial
            # first moment (A f), then for the spreads the second (A^2 f)
            family = observable.split("_")[0]
            m1 = at_z.sandwich(1, family, metric) / norm
            if observable.endswith("_mean"):
                row[i] = m1
                continue
            variance = at_z.sandwich(2, family, metric) / norm - m1 * m1
            real = (variance.real < 0) & (np.abs(variance.imag) <= SPREAD_TOL * -variance.real)
            row[i] = np.sqrt(np.where(real, variance.real + 0j, variance))  # +i root, not the noise's sign
    return [ObservableSeries(z=z_grid, values=row[lead:], observable=observable, metric=metric,
                             normalization=normalization, engine=engine)
            for row, (observable, metric, normalization) in zip(values, plans)]


class _Fields:
    """f, one field or rows stacked along axis 0, and its images, each evaluated on first use.

    Images act along the last axis: x1 = x f, x2 = x^2 f, p1 = -i f', p2 = -f'' by the
    stencils; H1 is `hf()`, and H2 is `h2f()` when given, else -H1'' + V H1 by the stencils with
    V = `v()`. `sandwich` is (f, A^order f) for one field, summed on the nodes, or the Gram
    matrix G_ij = (f_i, A^order f_j) of rows; PT flips slot two.
    """

    def __init__(self, f, x, w, h: float, *, hf=None, h2f=None, v=None):
        self.f, self.x, self.w, self.h = f, x, w, h
        self._hf, self._h2f, self._v = hf, h2f, v
        self._images, self._sandwiches = {}, {}

    _RULES = {  # per class, not per instance: closures over self would keep every z's arrays in a cycle
        "x1": lambda s: s.x * s.f, "x2": lambda s: s.x * s.x * s.f,
        "p1": lambda s: -1j * d1_fourth(s.f, s.h), "p2": lambda s: -d2_fourth(s.f, s.h),
        "H1": lambda s: s._hf(),
        "H2": lambda s: s._h2f() if s._h2f else -d2_fourth(s.image("H1"), s.h) + s.image("v") * s.image("H1"),
        "v": lambda s: s._v(), "wcf": lambda s: s.w * np.conj(s.f),
        "wcf_pt": lambda s: np.ascontiguousarray(s.image("wcf")[..., ::-1]),
    }

    def image(self, name: str) -> np.ndarray:
        if name not in self._images:
            self._images[name] = np.asarray(self._RULES[name](self))
        return self._images[name]

    @functools.cached_property
    def power(self) -> float:
        return float(np.sum(self.w * np.abs(self.f) ** 2).real)

    def sandwich(self, order: int, family: str, metric: str):
        """(f, A^order f) for A in {x, p, H}; order 0 is the identity."""
        key = (order, family if order else "", metric)
        if key not in self._sandwiches:
            g = self.f if order == 0 else self.image(f"{family}{order}")
            if self.f.ndim == 1:
                gs = g[::-1] if metric == "pt" else g
                self._sandwiches[key] = complex(np.sum(self.image("wcf") * gs))
            else:  # the grid and w are even, so PT flips the rows w conj(f_i) instead of g
                wcf = self.image("wcf_pt" if metric == "pt" else "wcf")
                self._sandwiches[key] = np.matmul(g, wcf[..., None])[..., 0]  # row i: g @ wcf_i
        return self._sandwiches[key]


class _Stack:
    """The power and each sandwich the plans ask of a two-mode state, psi = a[n] @ rows at z n: per key one pass
    conj(a) G b over every z, G a 2x2 Gram matrix of the rows (one for all z, or one per z) and b = a, or b the
    coefficients of A^k psi when G is the rows' own (TB H)."""

    POWER = (0, "", "dirac")

    @classmethod
    def keys(cls, plans) -> list:  # the power's, then each (order, family, metric) the plans ask, once
        return list(dict.fromkeys([cls.POWER] + [(order, name.split("_")[0], metric) for name, metric, _ in plans
                                                 if name != "power" for order in ((1, 2) if "_std" in name else (1,))]))

    def __init__(self, a: np.ndarray, forms: dict):
        self.a = a
        self._q = {key: np.einsum("zi,zij,zj->z", np.conj(a),
                                  np.ascontiguousarray(np.broadcast_to(gram, (len(a),) + gram.shape[-2:])), b)
                   for key, (gram, b) in forms.items()}
        self.power = self._q[self.POWER].real

    def sandwich(self, order: int, family: str, metric: str) -> np.ndarray:
        return self._q[order, family, metric]


def _resolution_guard(f: np.ndarray, h: float) -> None:
    """Fail fast when halving the grid resolution moves a derivative moment of the field f."""
    d_full = d1_fourth(f, h)
    d_half = np.zeros_like(f)
    d_half[::2] = d1_fourth(f[::2], 2 * h)
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
    amplitude_ratio: Optional[float]
    phase_shift: Optional[float]
    period: Optional[float]


def comparison_metrics(exact: ObservableSeries, approx: ObservableSeries) -> ComparisonEntry:
    """RMSE, peak-to-peak amplitude ratio, and cross-correlation phase shift of two series on one z grid.

    The ratio is None when the exact series' real part has no peak-to-peak or the ratio is not
    finite. The phase shift is the lag maximizing the cross-correlation of the mean-removed real
    parts, converted to radians of the dominant oscillation of the exact series and wrapped to
    [-pi, pi); positive means the approximate series lags the exact one. None when either
    series is flat.
    """
    za = exact.z
    if not np.array_equal(approx.z, za):
        raise ValueError("compared series must lie on one z grid")
    a = exact.values
    rmse = float(np.sqrt(np.mean(np.abs(a - approx.values) ** 2)))
    ar = a.real
    br = approx.values.real
    pp_a = float(ar.max() - ar.min())
    pp_b = float(br.max() - br.min())
    ratio = pp_b / pp_a if pp_a > 0 and math.isfinite(pp_b / pp_a) else None
    scale = max(np.max(np.abs(ar)), np.max(np.abs(br)), 1e-300)
    if pp_a < 1e-9 * scale or pp_b < 1e-9 * scale:
        return ComparisonEntry(rmse=rmse, amplitude_ratio=ratio, phase_shift=None, period=None)
    am = ar - ar.mean()
    bm = br - br.mean()
    dz = za[1] - za[0]
    # dominant period from the spectral peak of the exact series
    spec = np.abs(np.fft.rfft(am))
    spec[0] = 0.0
    kbin = int(np.argmax(spec))
    period = len(am) * dz / kbin if kbin > 0 else None
    if period is None:
        return ComparisonEntry(rmse=rmse, amplitude_ratio=ratio, phase_shift=None, period=None)
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
    return ComparisonEntry(rmse=rmse, amplitude_ratio=ratio, phase_shift=float(phase), period=float(period))
