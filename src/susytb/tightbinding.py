"""Tight-binding machinery: single-well bases, metric-aware matrices,
generalized spectra, coupled-mode propagation and Floquet extraction.

Two kinds of single wells (both exactly solvable, eigenvalue -k^2):

    hermitian: V0 = -2 k^2 sech^2(k xi),         phi0 ~ sech(k xi)
    pt:        V0 = -2 k^2 (1+at^2) / D(xi)^2,   phi0 ~ 1 / D(xi),
               D(xi) = cosh(k xi) + i at sinh(k xi)

The centered mode is normalized under the model's metric (Dirac for
hermitian, PT inner product for pt). Stationary spectra use the well-sum
Hamiltonian; the z-dependent coupled equations use the bound exact
potential, which is the only z-dependent object available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg as sla

from .quadrature import QuadratureSpec, certify_tail, integrate, localized_combos, quad_nodes

__all__ = [
    "WellBasis",
    "TBModel",
    "two_well_model",
    "single_well_potential",
    "single_well_mode",
    "inner_product",
    "overlap_kappa",
    "kappa_hermitian_closed_form",
    "gram_schmidt",
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
    "GramSchmidtBreakdown",
    "IllConditionedOverlap",
    "DefectiveMonodromy",
]


class GramSchmidtBreakdown(RuntimeError):
    pass


class IllConditionedOverlap(RuntimeError):
    pass


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


def single_well_potential(b: WellBasis, x):
    xi = np.asarray(x, dtype=float) - b.center
    if b.kind == "hermitian":
        return -2 * b.k**2 / np.cosh(b.k * xi) ** 2
    d = np.cosh(b.k * xi) + 1j * b.alpha_tilde * np.sinh(b.k * xi)
    return -2 * b.k**2 * (1 + b.alpha_tilde**2) / d**2


def mode_norm_constant(b: WellBasis) -> float:
    """Closed-form normalization: Dirac for hermitian, PT product for pt.

    Raw integrals: int sech^2 = 2/|k|; int 1/D(xi)^2 = 2 / (|k| (1+at^2)).
    """
    if b.kind == "hermitian":
        return 1.0 / math.sqrt(2 * abs(b.k))
    return math.sqrt((1 + b.alpha_tilde**2) / (2 * abs(b.k)))


def single_well_mode(b: WellBasis, x):
    """Metric-normalized fundamental mode of the isolated well at `center`."""
    xi = np.asarray(x, dtype=float) - b.center
    c = mode_norm_constant(b)
    if b.kind == "hermitian":
        return c * b.k / np.cosh(b.k * xi)
    return c * b.k / (np.cosh(b.k * xi) + 1j * b.alpha_tilde * np.sinh(b.k * xi))


def kappa_hermitian_closed_form(k: float, x0: float) -> float:
    """Overlap of displaced normalized sech modes: 2a/sinh(2a), a = |k| x0."""
    a = abs(k) * x0
    if a == 0:
        return 1.0
    return 2 * a / math.sinh(2 * a)


def overlap_kappa(b: WellBasis, x0: float, quad: Optional[QuadratureSpec] = None):
    """Dirac overlap of the two metric-normalized modes displaced to +-x0."""
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    if quad is None:
        quad = QuadratureSpec(half_width=x0 + 14.0 / abs(b.k), nodes=2048,
                              rule="gauss_legendre_composite")
    x, w = quad_nodes(quad)
    left = single_well_mode(WellBasis(b.kind, b.k, b.alpha_tilde, 0.0), x + x0)
    right = single_well_mode(WellBasis(b.kind, b.k, b.alpha_tilde, 0.0), x - x0)
    val = complex(np.sum(w * np.conj(left) * right))
    return float(val.real) if b.kind == "hermitian" else val


class TailNotConverged(RuntimeError):
    pass


def inner_product(f: Callable, g: Callable, metric: str, quad: QuadratureSpec,
                  *, check_tail: bool = False) -> complex:
    """(f,g) = int conj(f(x)) g(x) dx  (dirac)  or  int conj(f(x)) g(-x) dx  (pt).

    check_tail refuses a window whose doubling moves the integral by more
    than quad.tail_tol (`quadrature.certify_tail`).
    """
    if metric not in ("dirac", "pt"):
        raise ValueError(f"metric must be 'dirac' or 'pt', got {metric!r}")

    def integrand(x):
        return np.conj(f(x)) * (g(-x) if metric == "pt" else g(x))

    if check_tail:
        ok, tail = certify_tail(integrand, quad)
        if not ok:
            raise TailNotConverged(f"tail contribution {tail:.3e} exceeds {quad.tail_tol:.3e}")
    return integrate(integrand, quad)


class TBModel:
    """Well list + metric + optional exact-potential binding.

    hamiltonian_source selects what enters H_ij: "well_sum" uses the
    superposed single-well potential (the stationary TB pencil used for
    spectra and calibration), "system" uses the bound exact potential
    (required for the z-dependent coupled equations).
    """

    def __init__(
        self,
        wells: Sequence[WellBasis],
        *,
        metric: Optional[str] = None,
        quad: Optional[QuadratureSpec] = None,
        potential: Optional[Callable] = None,
        hamiltonian_source: str = "well_sum",
        dynamic: bool = False,
    ):
        self.wells = tuple(wells)
        if not self.wells:
            raise ValueError("need at least one well")
        if metric is None:
            metric = "pt" if any(w.kind == "pt" for w in self.wells) else "dirac"
        if metric not in ("dirac", "pt"):
            raise ValueError(f"metric must be 'dirac' or 'pt', got {metric!r}")
        if hamiltonian_source not in ("well_sum", "system"):
            raise ValueError("hamiltonian_source must be 'well_sum' or 'system'")
        if hamiltonian_source == "system" and potential is None:
            raise ValueError("a system potential binding is required for hamiltonian_source='system'")
        if dynamic and hamiltonian_source != "system":
            raise ValueError("a dynamic model needs the exact potential inside H")
        self.metric = metric
        self.potential = potential
        self.hamiltonian_source = hamiltonian_source
        self.dynamic = dynamic
        if quad is None:
            span = max(abs(w.center) for w in self.wells)
            kmin = min(abs(w.k) for w in self.wells)
            quad = QuadratureSpec(half_width=span + 13.0 / kmin, nodes=2048,
                                  rule="gauss_legendre_composite")
        self.quad = quad
        x, w = quad_nodes(quad)
        self._x, self._w = x, w
        self._xs = -x if metric == "pt" else x
        self._phi = np.stack([single_well_mode(b, x) for b in self.wells])
        self._phi_s = np.stack([single_well_mode(b, self._xs) for b in self.wells])
        self._v0_s = np.stack([single_well_potential(b, self._xs) for b in self.wells])
        self._s_inv: Optional[np.ndarray] = None
        if hamiltonian_source == "system":
            # H(z) = C + A V(xs, z): with -phi_j'' = beta_j phi_j - V0_j phi_j,
            # C_ij = sum w conj(phi_i) (beta_j - V0_j) phi_j(xs) and
            # A_ij(x) = w conj(phi_i) phi_j(xs) do not depend on z.
            beta = np.array([b.beta for b in self.wells])
            wphi = w * np.conj(self._phi)
            self._h_const = wphi @ ((beta[:, None] - self._v0_s) * self._phi_s).T
            self._h_lin = (wphi[:, None, :] * self._phi_s[None, :, :]).reshape(self.n**2, -1)

    @property
    def n(self) -> int:
        return len(self.wells)

    def overlap_matrix(self) -> np.ndarray:
        w, phi, phi_s = self._w, self._phi, self._phi_s
        return np.conj(phi) @ (w[:, None] * phi_s.T)

    def overlap_inverse(self) -> np.ndarray:
        """S^-1, computed once per model and shared by every z-march."""
        if self._s_inv is None:
            self._s_inv = np.linalg.inv(self.overlap_matrix())
        return self._s_inv

    def _h_applied_well_sum(self) -> np.ndarray:
        """(H phi_j) of the well-sum Hamiltonian on the (possibly parity-flipped) nodes.

        Uses the exact identity -phi_j'' = beta_j phi_j - V0_j phi_j, so no
        numerical differentiation enters the matrix elements.
        """
        out = np.empty(self._phi_s.shape, dtype=complex)
        for j, b in enumerate(self.wells):
            v_other = sum(self._v0_s[m] for m in range(self.n) if m != j)
            out[j] = (b.beta + v_other) * self._phi_s[j]
        return out

    def hamiltonian_matrix(self, z: float = 0.0) -> np.ndarray:
        if self.hamiltonian_source == "system":
            v = np.asarray(self.potential(self._xs, z))
            return self._h_const + (self._h_lin @ v).reshape(self.n, self.n)
        w, phi = self._w, self._phi
        return np.conj(phi) @ (w[:, None] * self._h_applied_well_sum().T)

    def normalized_overlap(self) -> tuple[np.ndarray, np.ndarray]:
        """Rescaled overlap with unit diagonal, plus the applied scales."""
        s = self.overlap_matrix()
        scales = np.sqrt(np.array([complex(s[i, i]) for i in range(self.n)]))
        shat = s / np.outer(np.conj(scales), scales)
        return shat, scales


def two_well_model(
    kind: str,
    k: float,
    x0: float,
    alpha_tilde: float = 0.0,
    *,
    metric: Optional[str] = None,
    quad: Optional[QuadratureSpec] = None,
    potential: Optional[Callable] = None,
    hamiltonian_source: str = "well_sum",
    dynamic: bool = False,
) -> TBModel:
    """Symmetric pair of wells at +-x0; wells ordered [right, left]."""
    wells = (WellBasis(kind, k, alpha_tilde, +x0), WellBasis(kind, k, alpha_tilde, -x0))
    return TBModel(wells, metric=metric, quad=quad, potential=potential,
                   hamiltonian_source=hamiltonian_source, dynamic=dynamic)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def gram_schmidt(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize the basis against the (pseudo) Gram matrix s.

    Returns (r, signs): columns of r express the orthonormal functions in
    the original basis, with r^H s r = diag(signs), signs in {+1, -1}.
    Pseudo-norms may be negative under the PT metric; the principal square
    root is taken and the sign recorded.
    """
    n = s.shape[0]
    r = np.zeros((n, n), dtype=complex)
    signs = np.zeros(n)
    scale = float(np.max(np.abs(s)))
    for j in range(n):
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        for mu in range(j):
            proj = signs[mu] * (np.conj(r[:, mu]) @ (s @ v))
            v = v - proj * r[:, mu]
        nrm = complex(np.conj(v) @ (s @ v))
        if abs(nrm) < 1e-12 * scale:
            raise GramSchmidtBreakdown(f"pseudo-norm magnitude {abs(nrm):.3e} below threshold")
        root = np.sqrt(nrm)  # principal branch
        r[:, j] = v / root
        signs[j] = 1.0 if nrm.real >= 0 else -1.0
    return r, signs


@dataclass(frozen=True)
class SpectrumResult:
    energies: np.ndarray
    vectors: np.ndarray
    method: str
    gs_signs: Optional[np.ndarray] = None


def _sorted_eig(h: np.ndarray, s: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    if s is None:
        vals, vecs = sla.eig(h)
    else:
        vals, vecs = sla.eig(h, s)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order], vecs[:, order]


def solve_spectrum(model: TBModel, *, method: str = "generalized") -> SpectrumResult:
    """Eigenpairs of H c = E S c for a static model, sorted by Re E."""
    if model.dynamic:
        raise ValueError("solve_spectrum needs a static model")
    s = model.overlap_matrix()
    h = model.hamiltonian_matrix()
    if method == "generalized":
        vals, vecs = _sorted_eig(h, s)
        return SpectrumResult(energies=vals, vectors=vecs, method=method)
    if method != "gram_schmidt":
        raise ValueError(f"unknown method {method!r}")
    r, signs = gram_schmidt(s)
    ht = np.conj(r.T) @ h @ r
    vals, vecs_t = _sorted_eig(np.diag(signs) @ ht)
    return SpectrumResult(energies=vals, vectors=r @ vecs_t, method=method, gs_signs=signs)


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
    cond_limit: float = 1e12

    def __post_init__(self) -> None:
        if self.dz_max <= 0:
            raise ValueError("dz_max must be positive")


@dataclass(frozen=True)
class CoefficientTrajectory:
    z: np.ndarray
    c: np.ndarray  # shape (len(z), N)


class _CoupledSystem:
    """i S c' = H(z) c, marched as c' = G(z) c with G = -i S^-1 H(z) per H sample."""

    def __init__(self, model: TBModel, control: StepControl):
        self.model = model
        cond = np.linalg.cond(model.overlap_matrix())
        if cond > control.cond_limit:
            raise IllConditionedOverlap(f"cond(S) = {cond:.3e}")
        self._s_inv = model.overlap_inverse()
        self.control = control

    def march(self, c: np.ndarray, z0: float, z1: float) -> np.ndarray:
        """Classic RK4 with uniform substeps of at most dz_max."""
        if z1 == z0:
            return c
        n = max(1, math.ceil(abs(z1 - z0) / self.control.dz_max))
        h_step = (z1 - z0) / n
        gs = [-1j * (self._s_inv @ self.model.hamiltonian_matrix(z0 + 0.5 * j * h_step))
              for j in range(2 * n + 1)]
        for j in range(n):
            g0, gm, g1 = gs[2 * j], gs[2 * j + 1], gs[2 * j + 2]
            k1 = g0 @ c
            k2 = gm @ (c + 0.5 * h_step * k1)
            k3 = gm @ (c + 0.5 * h_step * k2)
            k4 = g1 @ (c + h_step * k3)
            c = c + (h_step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return c


def propagate_coefficients(
    model: TBModel,
    c0: Sequence[complex],
    z_grid: Sequence[float],
    control: Optional[StepControl] = None,
) -> CoefficientTrajectory:
    """Integrate i S c' = H(z) c, sampling on the requested grid."""
    control = control or StepControl()
    z = np.asarray(z_grid, dtype=float)
    if z.ndim != 1 or len(z) < 1 or np.any(np.diff(z) <= 0):
        raise ValueError("z_grid must be strictly increasing")
    c = np.asarray(c0, dtype=complex)
    if c.shape != (model.n,):
        raise ValueError("c0 length must match the number of wells")
    sysm = _CoupledSystem(model, control)
    out = np.empty((len(z), model.n), dtype=complex)
    cur = c.copy()
    z_prev = z[0]
    if z[0] != 0.0:
        cur = sysm.march(cur, 0.0, z[0])
    out[0] = cur
    for i in range(1, len(z)):
        cur = sysm.march(cur, z_prev, z[i])
        z_prev = z[i]
        out[i] = cur
    return CoefficientTrajectory(z=z, c=out)


# ---------------------------------------------------------------------------
# Floquet
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloquetResult:
    monodromy: np.ndarray
    quasi_energies: np.ndarray
    vectors: np.ndarray
    targets: np.ndarray
    branch_shifts: np.ndarray


def floquet_monodromy(
    model: TBModel,
    period: float,
    control: Optional[StepControl] = None,
    targets: Optional[Sequence[float]] = None,
) -> FloquetResult:
    """One-period propagator of the coupled equations and its eigensystem.

    Quasi-energies come from eps = i ln(lambda) / T on the principal
    branch, then are shifted by multiples of 2 pi / T to the representative
    nearest the given targets (default: the spectrum of the period-averaged
    pencil). Results are ordered to match the targets.
    """
    control = control or StepControl()
    sysm = _CoupledSystem(model, control)
    n = model.n
    mono = sysm.march(np.eye(n, dtype=complex), 0.0, period)
    lam, vecs = np.linalg.eig(mono)
    if np.linalg.cond(vecs) > 1e8:
        raise DefectiveMonodromy("monodromy eigenvector matrix is near-defective")
    omega = 2 * math.pi / period
    if targets is None:
        n_avg = 64
        h_bar = sum(model.hamiltonian_matrix(period * j / n_avg) for j in range(n_avg)) / n_avg
        targets = np.sort(sla.eig(h_bar, model.overlap_matrix())[0].real)
    targets = np.asarray(targets, dtype=float)
    eps_pb = (1j * np.log(lam) / period)
    # assign each target its closest eigenvalue branch
    used: list[int] = []
    eps_out = np.empty(n, dtype=complex)
    vec_out = np.empty_like(vecs)
    shifts = np.empty(n, dtype=int)
    lam_out = np.empty(n, dtype=complex)
    for i, t in enumerate(targets):
        best = None
        for j in range(n):
            if j in used:
                continue
            shift = round((t - eps_pb[j].real) / omega)
            cand = eps_pb[j].real + shift * omega
            d = abs(cand - t)
            if best is None or d < best[0]:
                best = (d, j, shift, cand)
        _, j, shift, cand = best
        used.append(j)
        eps_out[i] = cand + 1j * eps_pb[j].imag
        vec_out[:, i] = vecs[:, j]
        shifts[i] = shift
        lam_out[i] = lam[j]
    # the monodromy itself stays basis-ordered, not target-ordered
    return FloquetResult(monodromy=mono, quasi_energies=eps_out,
                         vectors=vec_out, targets=targets, branch_shifts=shifts)


def assemble_state(model: TBModel, c: Sequence[complex], x):
    """psi(x) = sum_j c_j phi_j(x)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for cj, b in zip(c, model.wells):
        out += cj * single_well_mode(b, x)
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
    if vectors.shape != (2, 2):
        raise ValueError("guided-mode reconstruction expects a two-well model")

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
    """Scale both vectors by 1/sqrt(norm2(c, x, w)), then label their localized combinations."""
    x, w = quad_nodes(model.quad)
    c_even, c_odd = (c / math.sqrt(norm2(c, x, w)) for c in (c_even, c_odd))
    combos = localized_combos(lambda sign: assemble_state(model, c_even + sign * c_odd, x), x, w)
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

    def pseudo_norm(c, x, w):
        return abs(complex(np.sum(w * np.conj(assemble_state(model, c, x)) * assemble_state(model, c, -x))))

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

    def dirac_power(c, x, w):
        return float(np.sum(w * np.abs(assemble_state(model, c, x)) ** 2).real)

    return _guided_modes(model, e, c_even, -c_odd, dirac_power)
