"""Quadrature-based observable series over propagation distance.

Moments are sesquilinear sandwiches (psi, A psi) under the Dirac or PT
inner product, divided by a recorded normalization (instantaneous power
for beam moments, initial power for the PT Hamiltonian moments). H comes
from the state itself; p uses the 4th-order stencils of `quadrature` on the
uniform grid, once `_resolution_guard` has checked that halving the grid
resolution moves the first derivative by at most 1e-5 of its scale.

`moment_table` makes one pass for all requested observables of a state and evaluates
each image at most once. The modulated pair's states are two-mode superpositions psi
= sum_j a_j(z) u_j(x, z mod T_V) (Floquet's theorem), so their moments are quadratic
forms a^H G b in 2x2 Gram matrices G, all that is kept of each distinct phase's rows
(`quadrature.fold_phases`; TB has one basis for every z and reads H off its Floquet
march); each moment is then one array pass over all z. The exact pair is PT-symmetric: phases r and T_V - r
share one evaluation, however many z meet them. Static states are still taken field by
field at each z with unchanged sums: their comparison metrics' sub-resolution `phase_shift`
fields move with any new summation order. `moment_series` is the one-observable case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .quadrature import PHASE_TOL, QuadratureSpec, d1_fourth, d2_fourth, fold_phases
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

    On a modulated pair psi(x, n T_V + r) = sum_j w_j e^{-i E_j n T_V} u_j(x, r) over
    the normalized Floquet modes u_j, w the left/right weights (or the one mode itself).
    """

    def __init__(self, system: WaveguideSystem, kind: str):
        self.system = system
        self.kind = kind

    def __call__(self, x, z: float):
        return self.system.mode(self.kind, x, z)

    def h_apply(self, x, z: float):
        # every exact mode solves the paraxial equation, so H psi = i d_z psi
        return 1j * self.system.mode_dz(self.kind, x, z)

    def h2_apply(self, x, z: float):
        return self.system.mode_h2(self.kind, x, z)

    def forms(self, x, w, h, z_grid):
        """A `_Group` per phase r: the z at r, and those at T_V - r as PT images, on the rows at r."""
        system, period = self.system, self.system.periods().fundamental
        if self.kind in ("left", "right"):
            sign, inv_n = system.combination(self.kind)
            kinds, weights, pick = system.facts.stationary, np.array([inv_n, sign * inv_n]), slice(None)
        else:
            j = system.facts.stationary.index(self.kind)
            kinds, weights, pick = (self.kind,), np.ones(1), slice(j, j + 1)
        energies = np.array([system.energies()[k] for k in kinds])
        # PT symmetry: u_j(x, T_V - r) = kappa_j conj u_j(-x, r), c_j = +1 even-like, -1 odd-like
        kappa = np.exp(-1j * energies * period) * [1 - 2 * system.facts.stationary.index(k) for k in kinds]
        turns, which, phases = fold_phases(z_grid, period)
        met = [np.flatnonzero(which == p) for p in range(len(phases))]
        tol, served = PHASE_TOL * period, set()
        for p, r in enumerate(phases.tolist()):
            if p in served:
                continue
            # H u = i d_z u from the pass of u, and H^2 u by finite differences against V(r)
            at_r = system.pair(x, r)
            rows = _Fields(at_r(0)[pick], x, w, h, hf=lambda at_r=at_r: 1j * at_r(1)[pick],
                           v=functools.partial(system.potential, x, r))
            q = int(np.searchsorted(phases, period - r - tol))  # T_V - r, read off the rows at r
            pair = [p, q] if p < q < len(phases) and phases[q] <= period - r + tol else [p]
            served.update(pair)
            i = np.concatenate([met[k] for k in pair])
            a = weights * np.exp(-1j * energies * turns[i][:, None] * period)
            mirror = np.arange(len(i)) >= len(met[p])  # there psi = sum_j a_j kappa_j conj u_j(-x, r),
            a[mirror] = np.conj(kappa * a[mirror])  # the PT image of conj(kappa a) @ rows
            yield _Group(i, rows, a, mirror=mirror)


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
    """Dynamic-model state psi = sum_j c_j(z) phi_j, read off the Floquet march of its grid.

    As for the static case, H stays inside the model: H psi := i d_z psi = sum_j (S^-1 H(z) c)_j phi_j,
    with S^-1 H(r) the march's own generator at each phase r (`FloquetResult.generators`).
    """

    def __init__(self, model: TBModel, floquet: FloquetResult, c0: Sequence[complex]):
        self.model = model
        self.floquet = floquet
        self.trajectory = floquet.trajectory(c0)

    def forms(self, x, w, h, z_grid):
        """One `_Group` of every z, each a point of the marched grid: the basis is the same at each."""
        flq = self.floquet
        at = np.minimum(np.searchsorted(flq.z, z_grid), len(flq.z) - 1)
        if not np.array_equal(flq.z[at], z_grid):
            raise ValueError("z grid is not on the marched grid")
        c, gen = self.trajectory.c[at], flq.generators  # H^k psi: gen^k c, one matrix power per phase and order
        hk = functools.cache(lambda k: np.einsum("zij,zj->zi", np.linalg.matrix_power(gen, k)[flq.which[at]], c))
        yield _Group(np.arange(len(z_grid)), _Fields(np.stack(self.model.basis_values(x)), x, w, h), c, hk)


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

    p = -i d_x by the stencils, and H as the state applies it: a per-z state by its own h_apply
    and h2_apply, a two-mode state by the modulated pair's i d_z or the TB generator. For the PT
    metric the integrand pairs conj(f(x)) with (A g)(-x); the grid must be uniform.
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

    x, w = quad.points  # frozen, so the engines' node-set caches keep its values across z
    h = x[1] - x[0]
    z_grid = np.asarray(z_grid, dtype=float)
    two_mode = isinstance(state, TBTrajectoryState) or (
        isinstance(state, ExactState) and state.system.is_dynamic)
    forms = state.forms if two_mode else functools.partial(_per_z_forms, state)

    if any(observable in ("p_mean", "p_std") for observable, _, _ in plans):
        g = next(forms(x, w, h, z_grid[:1]))
        _resolution_guard(g.rows.f if g.a is None else g.a[0] @ g.rows.f, h)
        del g  # its field and basis rows, not kept through the table

    p_initial = None
    if any(normalization == "initial_power" for _, _, normalization in plans):
        p_initial = float(_Stack(forms(x, w, h, np.zeros(1)), 1, []).power[0])

    items = ([(slice(None), _Stack(forms(x, w, h, z_grid), len(z_grid), plans))] if two_mode  # sandwiches first
             else ((g.index, g.rows) for g in forms(x, w, h, z_grid)))  # then each moment at all z at once
    values = np.empty((len(plans), len(z_grid)), dtype=complex)
    for i, at_z in items:
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
    return [ObservableSeries(z=z_grid, values=row, observable=observable, metric=metric,
                             normalization=normalization, engine=engine)
            for row, (observable, metric, normalization) in zip(values, plans)]


def _per_z_forms(state, x, w, h, z_grid):
    """A `_Group` per z of a state taken field by field; H by its h_apply/h2_apply, if asked."""
    for i, z in enumerate(z_grid.tolist()):
        yield _Group(i, _Fields(np.asarray(state(x, z)), x, w, h, hf=lambda z=z: state.h_apply(x, z),
                                h2f=lambda z=z: state.h2_apply(x, z)))


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


class _Group(NamedTuple):
    """z `index` sharing `rows`: psi = a[n] @ rows.f at z index[n], H^k psi = hk(k)[n] @ rows.f if given (TB).
    Where `mirror` (per z, or one for all), the PT image conj psi(-x) instead: its sandwiches are s conj(psi's),
    s = -1 for x^1, +1 else, the grid, w and stencils being even. Without `a`, rows is the field at one z."""

    index: object
    rows: _Fields
    a: Optional[np.ndarray] = None
    hk: Optional[Callable] = None
    mirror: object = False


class _Stack:
    """The power and each sandwich the plans ask, at every z of the groups: one z's field by its own sums, the
    others by one pass conj(a) G b over all their z, G each group's 2x2 Gram matrices, all that is kept."""

    POWER = (0, "", "dirac")

    def __init__(self, groups, nz: int, plans):
        keys = [(order, name.split("_")[0], metric) for name, metric, _ in plans
                if name != "power" for order in ((1, 2) if name.endswith("_std") else (1,))]
        self._q = {key: np.empty(nz, dtype=complex) for key in (self.POWER, *keys)}  # a key asked twice is one
        index, coef, flip, grams, right = [], [], [], [], []
        for g in groups:
            if g.a is None:
                for key, q in self._q.items():
                    q[g.index] = g.rows.power if key == self.POWER else g.rows.sandwich(*key)
                continue
            index.append(g.index)
            coef.append(g.a)
            flip.append(g.mirror)
            tb = [family == "H" and g.hk is not None for _, family, _ in self._q]  # TB: conj(a) G_0 gen^k a
            grams.append(np.stack([g.rows.sandwich(*((0, "", k[2]) if t else k)) for t, k in zip(tb, self._q)]))
            right.append(g.hk and [g.hk(k[0]) if t else g.a for t, k in zip(tb, self._q)])
        if index:
            owner = np.repeat(np.arange(len(coef)), [len(a) for a in coef])
            flip = np.concatenate([np.broadcast_to(f, len(a)) for f, a in zip(flip, coef)])
            index, a, grams = np.concatenate(index), np.concatenate(coef), np.stack(grams)
            for n, (key, q) in enumerate(self._q.items()):
                b = np.concatenate([c if r is None else r[n] for c, r in zip(coef, right)])
                values = np.einsum("zi,zij,zj->z", np.conj(a), grams[owner, n], b)
                values[flip] = np.conj(values[flip]) * (-1 if key[:2] == (1, "x") else 1)
                q[index] = values
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
