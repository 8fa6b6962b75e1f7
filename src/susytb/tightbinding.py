"""Tight-binding machinery: single-well bases, metric-aware matrices,
generalized spectra, coupled-mode propagation and Floquet extraction.

Two kinds of single wells (both exactly solvable, eigenvalue -k^2):

    hermitian: V0 = -2 k^2 sech^2(k xi),         phi0 ~ sech(k xi)
    pt:        V0 = -2 k^2 (1+at^2) / D(xi)^2,   phi0 ~ 1 / D(xi),
               D(xi) = cosh(k xi) + i at sinh(k xi)

The centered mode is normalized under the model's metric (Dirac for
hermitian, PT inner product for pt). The model is the pair of wells at +-x0: its rows
and its well-sum pencil come from `pair_parts` through `_pair`, which the calibration's
`pair_pencil` reads too. Stationary spectra take one LAPACK zggev solve (bound from numpy's
own OpenBLAS by `lapack`, its buffers kept per size by `_Ggev`); the z-dependent coupled
equations, on numpy alone, use the bound exact potential, the only z-dependent object available.

For a z-periodic H(z) one RK4 pass over one period serves the monodromy, the
trajectory and its H moments: `floquet_monodromy` marches every interval between 0,
the distinct phases r = z mod T of the requested z grid and T at once (the one stacked
kernel, `_propagators`), chains the propagator U(r) on to M = U(T), keeps U(r)
and S^-1 H(r), and `FloquetResult.trajectory` gives c(nT + r) = U(r) M^n c0 (Floquet theorem).
That march reads H(z) off a `quadrature.PeriodicSeries` at rho 0, N = 8, 16, ... samples per period
until its top harmonics are within H_SERIES_TOL of its scale (past H_SERIES_MAX_SAMPLES samples, or
those of a direct march, it builds H(z) directly, as the step-by-step `propagate_coefficients` does).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.linalg import LinAlgError

from . import lapack
from .quadrature import NodeCache, PeriodicSeries, QuadratureSpec, fold_phases, localized_combos, quad_nodes, read_only

__all__ = [
    "WellBasis",
    "TBModel",
    "two_well_model",
    "pair_parts",
    "pair_pencil",
    "single_well_potential",
    "single_well_mode",
    "overlap_kappa",
    "kappa_hermitian_closed_form",
    "solve_spectrum",
    "generalized_energies_2x2",
    "SpectrumResult",
    "StepControl",
    "CoefficientTrajectory",
    "propagate_coefficients",
    "FloquetResult",
    "floquet_monodromy",
    "assemble_state",
    "static_guided_modes",
    "floquet_guided_modes",
    "TBGuidedModes",
    "IllConditionedOverlap",
    "DefectiveMonodromy",
]


class IllConditionedOverlap(RuntimeError):
    pass


# Largest cond(S) a pair may have: `TBModel` refuses a worse-conditioned one when it is built.
COND_LIMIT = 1e12


class DefectiveMonodromy(RuntimeError):
    pass


@dataclass(frozen=True)
class WellBasis:
    kind: str  # "hermitian" | "pt"
    k: float
    alpha_tilde: float = 0.0
    center: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("hermitian", "pt"):
            raise ValueError(f"well kind must be 'hermitian' or 'pt', got {self.kind!r}")
        if self.k == 0:
            raise ValueError("well wavenumber must be nonzero")
        if self.kind == "hermitian" and self.alpha_tilde != 0.0:
            raise ValueError("hermitian wells carry alpha_tilde = 0")

    @property
    def beta(self) -> float:
        """Eigenvalue of the isolated-well mode."""
        return -self.k**2


def _well_d(b: WellBasis, x):
    """D(xi) of the well: cosh(k xi), plus i at sinh(k xi) for a pt well."""
    kxi = b.k * (np.asarray(x, dtype=float) - b.center)
    return np.cosh(kxi) if b.kind == "hermitian" else np.cosh(kxi) + 1j * b.alpha_tilde * np.sinh(kxi)


def _well_potential(b: WellBasis, d):
    """V0 of the well from its D(xi) (real for hermitian wells, whose at is 0)."""
    return -2 * b.k**2 * (1 + b.alpha_tilde**2) / d**2


def _well_mode(b: WellBasis, d):
    """phi0 of the well from its D(xi)."""
    return mode_norm_constant(b) * b.k / d


def single_well_potential(b: WellBasis, x):
    return _well_potential(b, _well_d(b, x))


def mode_norm_constant(b: WellBasis) -> float:
    """Closed-form normalization: Dirac for hermitian, PT product for pt.

    Raw integrals: int sech^2 = 2/|k|; int 1/D(xi)^2 = 2 / (|k| (1+at^2)).
    """
    if b.kind == "hermitian":
        return 1.0 / math.sqrt(2 * abs(b.k))
    return math.sqrt((1 + b.alpha_tilde**2) / (2 * abs(b.k)))


def single_well_mode(b: WellBasis, x):
    """Metric-normalized fundamental mode of the isolated well at `center`."""
    return _well_mode(b, _well_d(b, x))


def _well_modes(wells: Sequence[WellBasis], x: np.ndarray) -> tuple[np.ndarray, ...]:
    """phi_j(x) of every well on one node set."""
    return tuple(single_well_mode(b, x) for b in wells)


def pair_parts(kind: str, k: float, x0: float) -> tuple:
    """The alpha_tilde-free parts of the pair at +-x0: kind, k, its GL rule (wells at |center| <= |x0|, decay |k|)
    and cosh, sinh(k xi) of both wells, [right, left], on its frozen nodes (sinh for pt wells only). The only
    evaluation of the pair's well rows on its nodes: `TBModel` and `pair_pencil` read them through `_pair`."""
    quad = QuadratureSpec(half_width=abs(x0) + 13.0 / abs(k), nodes=2048, rule="gauss_legendre_composite")
    kxi = k * (quad.points[0] - np.array([[x0], [-x0]]))
    return kind, k, quad, np.cosh(kxi), np.sinh(kxi) if kind == "pt" else None


def _pair(parts: tuple, alpha_tilde: float) -> tuple[np.ndarray, ...]:
    """(phi, phi_s, V0_s, H, S) of the pair from its `pair_parts`: the mode rows phi_j on the nodes x, the rows
    phi_j, V0_j on xs (x; -x under the PT metric, where phi_j(-x) = conj phi_{1-j}(x), V0_j(-x) = conj V0_{1-j}(x))
    and the well-sum pencil: S_ij = sum w conj(phi_i) phi_j(xs), and H_ij with H phi_j = (beta + V0_{1-j}) phi_j
    on xs, since -phi_j'' = beta phi_j - V0_j phi_j exactly."""
    kind, k, quad, ch, sh = parts
    well, w = WellBasis(kind, k, alpha_tilde), quad.points[1]
    d = ch if kind == "hermitian" else ch + 1j * alpha_tilde * sh
    phi, v0 = _well_mode(well, d), _well_potential(well, d)
    phi_s, v0_s = (phi, v0) if kind == "hermitian" else (np.conj(phi[::-1]), np.conj(v0[::-1]))
    h_phi = ((well.beta + v0_s[::-1]) * phi_s).astype(complex, copy=False)  # complex for real rows too: zgemm
    bra = np.conj(phi)
    return phi, phi_s, v0_s, bra @ (w[:, None] * h_phi.T), bra @ (w[:, None] * phi_s.T)


def pair_pencil(parts: tuple, alpha_tilde: float) -> tuple[np.ndarray, np.ndarray]:
    """(H, S) of `TBModel(kind, k, x0, alpha_tilde)` from its `pair_parts`: the model's own pencil."""
    return _pair(parts, alpha_tilde)[3:]


def kappa_hermitian_closed_form(k: float, x0: float) -> float:
    """Overlap of displaced normalized sech modes: 2a/sinh(2a), a = |k| x0."""
    a = abs(k) * x0
    if a == 0:
        return 1.0
    return 2 * a / math.sinh(2 * a)


def overlap_kappa(b: WellBasis, x0: float):
    """Dirac overlap of the two metric-normalized modes displaced to +-x0."""
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    x, w = quad_nodes(QuadratureSpec(half_width=x0 + 14.0 / abs(b.k), nodes=2048,
                                     rule="gauss_legendre_composite"))
    left = single_well_mode(WellBasis(b.kind, b.k, b.alpha_tilde, 0.0), x + x0)
    right = single_well_mode(WellBasis(b.kind, b.k, b.alpha_tilde, 0.0), x - x0)
    val = complex(np.sum(w * np.conj(left) * right))
    return float(val.real) if b.kind == "hermitian" else val


class TBModel:
    """The symmetric pair of wells at +-x0, ordered [right, left], with its metric and an optional
    exact-potential binding; `two_well_model` is its public name.

    The metric is PT for pt wells, Dirac for hermitian ones.
    hamiltonian_source selects what enters H_ij: "well_sum" uses the
    superposed single-well potential (the stationary TB pencil used for
    spectra and calibration), "system" uses the bound exact potential
    (required for the z-dependent coupled equations). `basis_values(x)`
    gives the well modes phi_j on a node set, kept for the last frozen one.
    """

    n = 2

    def __init__(
        self,
        kind: str,
        k: float,
        x0: float,
        alpha_tilde: float = 0.0,
        *,
        potential: Optional[Callable] = None,
        hamiltonian_source: str = "well_sum",
        dynamic: bool = False,
    ):
        if hamiltonian_source not in ("well_sum", "system"):
            raise ValueError("hamiltonian_source must be 'well_sum' or 'system'")
        if hamiltonian_source == "system" and potential is None:
            raise ValueError("a system potential binding is required for hamiltonian_source='system'")
        if dynamic and hamiltonian_source != "system":
            raise ValueError("a dynamic model needs the exact potential inside H")
        self.wells = (WellBasis(kind, k, alpha_tilde, +x0), WellBasis(kind, k, alpha_tilde, -x0))
        self.metric = "pt" if kind == "pt" else "dirac"
        self.potential = potential
        self.hamiltonian_source = hamiltonian_source
        self.dynamic = dynamic
        parts = pair_parts(kind, k, x0)
        self.quad = parts[2]
        self._phi, self._phi_s, self._v0_s, self._h_well_sum, self._s = _pair(parts, alpha_tilde)
        if (cond := np.linalg.cond(self._s)) > COND_LIMIT:
            raise IllConditionedOverlap(f"cond(S) = {cond:.3e}")
        self._s_inv: Optional[np.ndarray] = None
        self.basis_values = NodeCache(functools.partial(_well_modes, self.wells))
        if hamiltonian_source == "system":
            x, w = self.quad.points
            # frozen: every H(z) build samples the bound potential on these nodes
            self._xs = read_only(-x) if self.metric == "pt" else x
            # H(z) = C + A V(xs, z): with -phi_j'' = beta phi_j - V0_j phi_j,
            # C_ij = sum w conj(phi_i) (beta - V0_j) phi_j(xs) and
            # A_ij(x) = w conj(phi_i) phi_j(xs) do not depend on z.
            wphi = w * np.conj(self._phi)
            self._h_const = wphi @ ((self.wells[0].beta - self._v0_s) * self._phi_s).T
            self._h_lin = (wphi[:, None, :] * self._phi_s[None, :, :]).reshape(self.n**2, -1)

    def overlap_matrix(self) -> np.ndarray:
        return self._s.copy()

    def overlap_inverse(self) -> np.ndarray:
        """S^-1, computed once per model and shared by every z-march."""
        if self._s_inv is None:
            self._s_inv = np.linalg.inv(self.overlap_matrix())
        return self._s_inv

    def hamiltonian_matrix(self, z: float = 0.0) -> np.ndarray:
        if self.hamiltonian_source == "system":
            v = np.asarray(self.potential(self._xs, z))
            return self._h_const + (self._h_lin @ v).reshape(self.n, self.n)
        return self._h_well_sum.copy()


two_well_model = TBModel


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumResult:
    energies: np.ndarray
    vectors: np.ndarray


@functools.lru_cache(maxsize=16)
class _Ggev:
    """zggev as `scipy.linalg.eig(H, S)` calls it for a complex H, on kept n x n buffers (column-major: each holds the
    transpose), one per n and thread, its workspace queried once (JOBVL = JOBVR = 'V', as eig's query: it reads n)."""

    def __init__(self, n: int, thread: int):
        self.ints = np.array([n, 1, -1, 0], dtype=np.int64)  # N = LDA = LDB = LDVR, LDVL = INCX, LWORK, INFO
        mats, vecs = np.empty((3, n, n), dtype=complex), np.empty((3, n), dtype=complex)  # A, B, VR; ALPHA, BETA, VL
        (self.ab, self.vr), (self.alpha, self.beta) = (mats[:2], mats[2]), vecs[:2]
        self.rwork, work = np.empty(8 * n), np.empty(1, dtype=complex)
        (self.n, self.one, lwork, info), (a, b, vr), (alpha, beta, vl) = map(lapack.addresses, (self.ints, mats, vecs))
        head, tail = (self.n, a, self.n, b, self.n, alpha, beta), (lwork, self.rwork.ctypes.data, info, 1, 1)
        lapack.zggev(b"V", b"V", *head, vr, self.n, vr, self.n, work.ctypes.data, *tail)
        self.ints[2], self.work = work[0].real, np.empty(int(work[0].real), dtype=complex)
        self.call = (b"N", b"V", *head, vl, self.one, vr, self.n, self.work.ctypes.data, *tail)


def solve_spectrum(model) -> SpectrumResult:
    """Eigenpairs of H c = E S c for a static model or an (H, S) pencil, sorted by Re E (then Im E).

    One QZ solve (Moler & Stewart 1973) by LAPACK zggev, called as `scipy.linalg.eig(H, S)` calls it for
    a complex H, so both give the same bits: ValueError for a non-finite H or S, the queried workspace,
    E = alpha/beta (inf where only beta is 0, NaN where both are), and unit columns by BLAS nrm2."""
    if isinstance(model, TBModel):
        if model.dynamic:
            raise ValueError("solve_spectrum needs a static model")
        model = model.hamiltonian_matrix(), model.overlap_matrix()
    h, s = (np.asarray_chkfinite(m) for m in model)
    if h.ndim != 2 or h.shape != s.shape or h.shape[0] != h.shape[1]:
        raise ValueError(f"a pencil is two square matrices of one shape, got {h.shape} and {s.shape}")
    ggev = _Ggev(len(h), threading.get_ident())
    ggev.ab[:] = h.T, s.T
    lapack.zggev(*ggev.call)
    if ggev.ints[3]:  # > 0: QZ did not converge (< 0, a bad argument, cannot come from two square arrays)
        raise LinAlgError(f"generalized eig algorithm (ggev) did not converge (LAPACK info={ggev.ints[3]})")
    alpha, beta = ggev.alpha, ggev.beta
    vals, finite = np.full_like(alpha, np.inf), beta != 0
    vals[finite] = alpha[finite] / beta[finite]
    vals[~finite & (alpha == 0)] = np.nan if np.all(alpha.imag == 0) else complex(np.nan, np.nan)
    rows = np.asarray_chkfinite(ggev.vr.copy())  # row j: the eigenvector of alpha_j / beta_j
    rows /= [[lapack.dznrm2(ggev.n, address, ggev.one)] for address in lapack.addresses(rows)]
    order = np.lexsort((vals.imag, vals.real))
    return SpectrumResult(energies=vals[order], vectors=rows.T[:, order])


def generalized_energies_2x2(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Closed-form roots of det(H - E S) = 0 for N=2 (solver cross-check)."""
    a = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    b = -(h[0, 0] * s[1, 1] + h[1, 1] * s[0, 0] - h[0, 1] * s[1, 0] - h[1, 0] * s[0, 1])
    c = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    disc = np.sqrt(b * b - 4 * a * c + 0j)
    roots = np.array([(-b - disc) / (2 * a), (-b + disc) / (2 * a)])
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


# ---------------------------------------------------------------------------
# z-dependent coupled equations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepControl:
    dz_max: float = 0.02

    def __post_init__(self) -> None:
        if not 0 < self.dz_max < math.inf:  # NaN included
            raise ValueError(f"dz_max must be {'finite' if self.dz_max > 0 else 'positive'}")


@dataclass(frozen=True)
class CoefficientTrajectory:
    z: np.ndarray
    c: np.ndarray  # shape (len(z), N)


# Most z per H(z) request and per block of stacked intervals: one request for the 6,880 substep z of the
# pt-dynamic preset's period raised its peak RSS by 11 %, blocks of 1,024 z by 0.1 %, blocks of 256 z by 0.04 %.
_H_REQUEST_MAX = 256


def _generators(model: TBModel, h: Optional[Callable], zs: np.ndarray) -> np.ndarray:
    """S^-1 H(z) stacked over zs, asking h(zs) (direct H(z) builds when None) for _H_REQUEST_MAX z at most."""
    s_inv = model.overlap_inverse()
    h = h or (lambda zs: np.reshape([model.hamiltonian_matrix(z) for z in zs], (-1, model.n, model.n)))
    return np.concatenate([s_inv @ h(zs[i:i + _H_REQUEST_MAX]) for i in range(0, len(zs) or 1, _H_REQUEST_MAX)])


def _propagators(model: TBModel, control: StepControl, z0: np.ndarray, z1: np.ndarray,
                 h: Optional[Callable] = None) -> np.ndarray:
    """P_{n-1} ... P_0 of each interval [z0_i, z1_i] (I where z1_i == z0_i) of i S c' = H(z) c, marched as
    c' = -i S^-1 H(z) c (`_generators`) by classic RK4 with n uniform substeps of at most dz_max. The ODE
    is linear, so substep j is c -> P_j c with P_j = I + dz/6 (K1 + 2 K2 + 2 K3 + K4), K1 = g0,
    K2 = gm (I + dz/2 K1), K3 = gm (I + dz/2 K2), K4 = g1 (I + dz K3). Intervals of one n are stacked on
    a leading axis, in blocks of at most _H_REQUEST_MAX z; every P_j comes from stacked products, and
    each product is multiplied out pairwise, neighbours first."""
    eye = np.eye(model.n)
    out = np.broadcast_to(eye, (len(z0), *eye.shape)).astype(complex)
    steps = np.where(z1 == z0, 0, np.maximum(1, np.ceil(np.abs(z1 - z0) / control.dz_max))).astype(int)
    for n in sorted(set(steps.tolist()) - {0}):  # np.unique would import numpy.ma mid-run
        group, per_block = np.flatnonzero(steps == n), max(1, _H_REQUEST_MAX // (2 * n + 1))
        for at in (group[i:i + per_block] for i in range(0, len(group), per_block)):
            dz = (z1[at] - z0[at]) / n
            zs = z0[at, None] + 0.5 * np.arange(2 * n + 1) * dz[:, None]
            gs = -1j * _generators(model, h, zs.ravel()).reshape(len(at), 2 * n + 1, *eye.shape)
            dz = dz[:, None, None, None]
            g0, gm, g1 = gs[:, 0:-1:2], gs[:, 1::2], gs[:, 2::2]
            k2 = gm @ (eye + 0.5 * dz * g0)
            k3 = gm @ (eye + 0.5 * dz * k2)
            k4 = g1 @ (eye + dz * k3)
            props = eye + (dz / 6.0) * (g0 + 2 * k2 + 2 * k3 + k4)
            while props.shape[1] > 1:  # (P_1 P_0), (P_3 P_2), ...; an odd last P_j waits a round
                pairs = props[:, 1::2] @ props[:, 0:-1:2]
                props = np.concatenate([pairs, props[:, -1:]], axis=1) if props.shape[1] % 2 else pairs
            out[at] = props[:, 0]
    return out


def _z_grid(z_grid: Sequence[float]) -> np.ndarray:
    """The z samples as a 1-D array; ValueError unless finite, z >= 0 and strictly increasing."""
    z = np.asarray(z_grid, dtype=float)
    if (z.ndim != 1 or not np.all(np.isfinite(z)) or np.any(z < 0)
            or np.any(np.diff(z) <= 0)):
        raise ValueError("z_grid must be strictly increasing from z >= 0")
    return z


def _initial_coefficients(n: int, c0: Sequence[complex]) -> np.ndarray:
    c = np.asarray(c0, dtype=complex)
    if c.shape != (n,):
        raise ValueError("c0 length must match the number of wells")
    return c


def propagate_coefficients(
    model: TBModel,
    c0: Sequence[complex],
    z_grid: Sequence[float],
    control: Optional[StepControl] = None,
) -> CoefficientTrajectory:
    """Integrate i S c' = H(z) c, sampling on the requested grid."""
    control = control or StepControl()
    z = _z_grid(z_grid)
    if len(z) < 1:
        raise ValueError("z_grid must not be empty")
    c, out = _initial_coefficients(model.n, c0), np.empty((len(z), model.n), dtype=complex)
    # one kernel pass over 0 -> z_0 (I when z_0 is 0), z_0 -> z_1, ..., chained as c_i = P_i c_{i-1}
    for i, p in enumerate(_propagators(model, control, np.concatenate([[0.0], z[:-1]]), z)):
        c = out[i] = p @ c
    return CoefficientTrajectory(z=z, c=out)


# ---------------------------------------------------------------------------
# Floquet
# ---------------------------------------------------------------------------

H_SERIES_TOL = 1e-15  # largest top harmonic of H(z), over its scale, that the march's `PeriodicSeries` drops
H_SERIES_MAX_SAMPLES = 512  # k 1, 1.1, 0.95: N = 512 (alpha 0.7) marches faster than direct H(z), 1,024 (0.75) slower


@dataclass(frozen=True)
class FloquetResult:
    """Monodromy eigensystem, plus what the march made at each distinct phase of its grid:
    z = turns * T + phases[which] elementwise, propagators[p] = U(phases[p]) and generators[p] =
    S^-1 H(phases[p]) on the H(z) the march integrated. harmonics, harmonic_tail: N and tail of its
    H(z) `PeriodicSeries` (N 0: H(z) built directly)."""

    monodromy: np.ndarray
    quasi_energies: np.ndarray
    vectors: np.ndarray
    targets: np.ndarray
    branch_shifts: np.ndarray
    z: np.ndarray
    turns: np.ndarray
    which: np.ndarray
    phases: np.ndarray
    propagators: np.ndarray
    generators: np.ndarray
    harmonics: int
    harmonic_tail: float

    def trajectory(self, c0: Sequence[complex]) -> CoefficientTrajectory:
        """c(z) = U(r) M^n c0 on the marched grid, z = n T + r (Floquet theorem)."""
        if len(self.z) == 0:
            raise ValueError("the monodromy was marched without a z_grid")
        powers = [_initial_coefficients(len(self.monodromy), c0)]  # M^n c0
        for _ in range(int(self.turns.max())):
            powers.append(self.monodromy @ powers[-1])
        out = np.stack([self.propagators[p] @ powers[n] for p, n in zip(self.which, self.turns)])
        return CoefficientTrajectory(z=self.z, c=out)


def _assign_branches(eps: np.ndarray, targets: np.ndarray, omega: float):
    """(cols, shifts, values): target by target, the eigenvalue eps[col] no earlier target took whose
    branch value Re eps + shift omega (shift an integer) is nearest, the first of equally near ones."""
    shifts = np.round((targets[:, None] - eps.real) / omega)  # every target against every eigenvalue
    values = eps.real + shifts * omega
    dist, cols = np.abs(values - targets[:, None]), []
    for d in dist:
        cols.append(int(np.argmin(d)))
        dist[:, cols[-1]] = np.inf
    rows = np.arange(len(targets))
    return np.array(cols), shifts[rows, cols].astype(int), values[rows, cols]


def floquet_monodromy(
    model: TBModel,
    period: float,
    control: Optional[StepControl] = None,
    *,
    targets: Sequence[float],
    z_grid: Sequence[float] = (),
) -> FloquetResult:
    """One-period propagator of the coupled equations and its eigensystem.

    The propagator U is marched once from 0 through the distinct phases
    z mod T of z_grid (see `quadrature.fold_phases`) on to the monodromy M = U(T), keeping
    U and S^-1 H at each phase (`FloquetResult`); an empty z_grid is the single
    march from 0 to T, on H(z) from its `PeriodicSeries` if that converges.

    Quasi-energies come from eps = i ln(lambda) / T on the principal
    branch, then are shifted by multiples of 2 pi / T to the representative
    nearest the given targets (`_assign_branches`). Results are ordered to match the targets.
    """
    if not 0 < period < math.inf:  # NaN included
        raise ValueError(f"period must be positive and finite, got {period!r}")
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (model.n,) or not np.all(np.isfinite(targets)):
        raise ValueError(f"targets must be {model.n} finite values, one per well, got {targets.tolist()!r}")
    control = control or StepControl()
    z = _z_grid(z_grid)
    series = PeriodicSeries(model.hamiltonian_matrix, period, H_SERIES_TOL).fit(
        min(2 * math.ceil(period / control.dz_max) + 1, H_SERIES_MAX_SAMPLES))  # no more than a direct march
    h = series if series.n else None
    turns, which, phases = fold_phases(z, period)
    stops, u = np.array([0.0, *phases.tolist(), period]), [np.eye(model.n, dtype=complex)]  # U at 0, each phase and T
    for p in _propagators(model, control, stops[:-1], stops[1:], h):  # an empty interval, 0 to phase 0, gives I I = I
        u.append(p @ u[-1])
    lam, vecs = np.linalg.eig(u[-1])
    if np.linalg.cond(vecs) > 1e8:
        raise DefectiveMonodromy("monodromy eigenvector matrix is near-defective")
    eps_pb = 1j * np.log(lam) / period
    cols, shifts, values = _assign_branches(eps_pb, targets, 2 * math.pi / period)
    # the monodromy itself stays basis-ordered, not target-ordered
    return FloquetResult(monodromy=u[-1], quasi_energies=values + 1j * eps_pb.imag[cols],
                         vectors=vecs[:, cols], targets=targets, branch_shifts=shifts,
                         z=z, turns=turns, which=which, phases=phases,
                         propagators=np.array(u[1:-1]).reshape(-1, model.n, model.n),
                         generators=_generators(model, h, phases), harmonics=series.n, harmonic_tail=float(series.tail))


def assemble_state(model: TBModel, c: Sequence[complex], x):
    """psi(x) = sum_j c_j phi_j(x), with the phi_j from the model's node-set cache."""
    return _superpose(c, model.basis_values(x))


def _superpose(c: Sequence[complex], rows) -> np.ndarray:
    """sum_j c_j rows_j, term by term into zeros."""
    out = np.zeros(np.shape(rows[0]), dtype=complex)
    for cj, phi in zip(c, rows):
        out += cj * phi
    return out


# ---------------------------------------------------------------------------
# guided-mode reconstruction (two-well models)
# ---------------------------------------------------------------------------

def _fix_gauge(c: np.ndarray, combo: np.ndarray) -> np.ndarray:
    """Rotate c by a phase so that combo . c is real positive."""
    s = complex(combo @ c)
    if abs(s) == 0:
        return c
    return c * (np.conj(s) / abs(s))


def _even_odd(vectors: np.ndarray, e: np.ndarray):
    """Order the two columns of a two-well model as (even-like, odd-like), gauge-fixed.

    Even-like is the vector with the larger share in c_right + c_left; it
    is rotated so that share is real positive, the odd-like one so that
    c_right - c_left is real positive. The energies e follow the order.
    """
    def evenness(c):
        return abs(c[0] + c[1]) / (abs(c[0] + c[1]) + abs(c[0] - c[1]))

    v0, v1 = vectors[:, 0], vectors[:, 1]
    if evenness(v0) < evenness(v1):
        v0, v1 = v1, v0
        e = e[::-1]
    return _fix_gauge(v0, np.array([1.0, 1.0])), _fix_gauge(v1, np.array([1.0, -1.0])), e


@dataclass
class TBGuidedModes:
    """Gauge-fixed even/odd mode pair and their localized combinations.

    vectors columns are coefficient vectors of the even-like and odd-like
    modes; combos map 'left'/'right' to (sign, 1/N) with N the Dirac power
    normalization of (even + sign * odd) at z=0.
    """

    energies: np.ndarray
    vectors: np.ndarray
    combos: dict

    def coefficients(self, kind: str, z: float = 0.0, power: int = 0) -> np.ndarray:
        """Coefficients of H^power applied to the requested mode at propagation z (static)."""
        e = self.energies
        if kind in ("ground", "excited", "floquet1", "floquet2"):
            j = 0 if kind in ("ground", "floquet1") else 1
            return e[j] ** power * np.exp(-1j * e[j] * z) * self.vectors[:, j]
        sign, inv_n = self.combos[kind]
        return inv_n * (e[0] ** power * np.exp(-1j * e[0] * z) * self.vectors[:, 0]
                        + sign * e[1] ** power * np.exp(-1j * e[1] * z) * self.vectors[:, 1])


def _guided_modes(model: TBModel, energies, c_even: np.ndarray, c_odd: np.ndarray,
                  norm2: Callable) -> TBGuidedModes:
    """Scale both vectors by 1/sqrt(norm2(c, w)), then label their localized combinations, all on the
    model's own nodes and mode rows."""
    x, w = model.quad.points
    c_even, c_odd = (c / math.sqrt(norm2(c, w)) for c in (c_even, c_odd))
    combos = localized_combos(lambda sign: _superpose(c_even + sign * c_odd, model._phi), x, w)
    return TBGuidedModes(energies=np.asarray(energies), vectors=np.column_stack([c_even, c_odd]),
                         combos=combos)


def static_guided_modes(model: TBModel) -> TBGuidedModes:
    """Even/odd stationary modes of a two-well model, gauged like the exact ones.

    Gauge: even mode has c_right + c_left real positive; odd mode has
    c_right - c_left real positive (the exact excited profile ~ +sinh).
    Both are scaled to unit pseudo-norm magnitude of the assembled function.
    """
    spec = solve_spectrum(model)
    c_even, c_odd, e = _even_odd(spec.vectors, spec.energies)

    mirror = np.conj(model._phi[::-1])  # the rows at -x: phi_j(-x) = conj phi_{1-j}(x)

    def pseudo_norm(c, w):
        return abs(complex(np.sum(w * np.conj(_superpose(c, model._phi)) * _superpose(c, mirror))))

    return _guided_modes(model, e, c_even, c_odd, pseudo_norm)


def floquet_guided_modes(model: TBModel, flq: FloquetResult) -> TBGuidedModes:
    """Localized combinations of the two TB Floquet vectors at z=0.

    Mirrors the exact construction: the even-like vector is rotated so its
    symmetric part is real positive, the odd-like one so its antisymmetric
    part is real negative (the exact odd-like mode has a negative right
    lobe); both are scaled to unit Dirac power, then superposed with unit
    Dirac power and labeled by the sign of <x>.
    """
    c_even, c_odd, e = _even_odd(flq.vectors, flq.quasi_energies.real)

    def dirac_power(c, w):
        return float(np.sum(w * np.abs(_superpose(c, model._phi)) ** 2).real)

    return _guided_modes(model, e, c_even, -c_odd, dirac_power)
