"""Closed-form coupled-waveguide systems and their guided modes.

Three exactly solvable configurations, hard-coded independently of the
generic Darboux machinery so the two routes can cross-check each other:

* Hermitian static double well, spectrum {-k2^2, -k1^2}, beat length
  T = 2 pi / (k2^2 - k1^2).
* PT-symmetric static double well with balanced gain/loss of strength
  alpha; V(-x) = conj V(x).
* PT-symmetric longitudinally modulated pair, periodic in z with
  T_V = 2 pi / (k1^2 - k3^2); V(-x,-z) = conj V(x,z). The potential and
  the two Floquet modes are assembled from the auxiliary hyperbolic
  functions h1..h8 and K below, kept for the last frozen node set (V part
  by part from six real combinations and cos, sin of (k1^2 - k3^2) z). One
  closed-form pass (`_DynamicPass`) evaluates both Floquet modes and their
  z-derivatives on one node set at one z, and each system keeps its last
  pass, so mode and mode_dz at one z on a frozen node set share the
  Wronskian, the phases and each mode's numerator.

Stationary modes are normalized to unit pseudo-norm magnitude (the sign
of the PT self-product is recorded; for the Hermitian system this is
plain Dirac normalization). Localized left/right superpositions are
normalized to unit Dirac power at z=0 and labeled by the sign of <x>.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from . import darboux
from .darboux import SingularPointError
from .quadrature import NodeCache, QuadratureSpec, _frozen, default_half_width, localized_combos, read_only
from .seeds import SeedSuperposition

__all__ = [
    "ParameterError",
    "HermitianStaticParams",
    "PTStaticParams",
    "PTDynamicParams",
    "Repetition",
    "Periods",
    "WaveguideSystem",
    "potential_hermitian_static",
    "potential_pt_static",
    "potential_pt_dynamic",
    "periods",
    "make_system",
    "SystemKind",
    "KINDS",
]

# Largest exponent a float64 holds: the closed-form denominators grow like
# e^{2(|k1|+|k2|)|x|}, so they overflow past |x| = `WaveguideSystem.x_limit`,
# and every quadrature window must stay inside it.
LOG_FLOAT_MAX = math.log(sys.float_info.max)

PERIOD_TOL, PERIOD_MAX_DENOMINATOR = 1e-9, 10**6  # the rational repetition search of periods()


class ParameterError(ValueError):
    """System parameters violate a regularity/ordering requirement."""


def _require_finite(p) -> None:
    for f in fields(p):
        if not math.isfinite(getattr(p, f.name)):
            raise ParameterError(f"{f.name} must be finite, got {getattr(p, f.name)!r}")


@dataclass(frozen=True)
class HermitianStaticParams:
    k1: float
    k2: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (abs(self.k2) > abs(self.k1) > 0):
            raise ParameterError("need |k2| > |k1| > 0 for a nodeless Wronskian")


@dataclass(frozen=True)
class PTStaticParams:
    k1: float
    k2: float
    alpha: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.k1 == 0:
            raise ParameterError("k1 must be nonzero")
        if not (abs(self.k2) > abs(self.k1)):
            raise ParameterError("need |k2| > |k1| for regularity")


@dataclass(frozen=True)
class PTDynamicParams:
    k1: float
    k2: float
    k3: float
    alpha: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.k2 == 0:
            raise ParameterError("k2 must be nonzero")
        if not (abs(self.k3) < abs(self.k1) < abs(self.k2)):
            raise ParameterError("need |k3| < |k1| < |k2|")
        if self.k3 == 0 and self.alpha != 0:
            # the -i alpha K(x) term of floquet2 decays like e^{-|k3| |x|}
            raise ParameterError("k3 = 0 with alpha != 0 leaves the floquet2 mode unguided")

    @property
    def certified(self) -> bool:
        """Sufficient (not necessary) nodelessness bound on alpha."""
        return (1.0 - abs(self.k1) / abs(self.k2)) > abs(self.alpha) * (1.0 + abs(self.k3) / abs(self.k2))


class SystemKind(NamedTuple):
    """The facts one system kind fixes; `KINDS` is the only place they are written."""

    params: type  # the parameter record
    stationary: tuple[str, str]  # the stationary mode kinds, even-like first; "left"/"right" combine them
    wells: str  # the TB well family that models the pair
    fit: dict  # TB parameter -> multistart grid size, in the order calibration fits them


KINDS = {
    "hermitian_static": SystemKind(HermitianStaticParams, ("ground", "excited"), "hermitian",
                                   {"k": 9, "x0": 9}),
    "pt_static": SystemKind(PTStaticParams, ("ground", "excited"), "pt",
                            {"k": 9, "x0": 9, "alpha_tilde": 5}),
    "pt_dynamic": SystemKind(PTDynamicParams, ("floquet1", "floquet2"), "hermitian",
                             {"k": 9, "x0": 9}),
}


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def potential_hermitian_static(p: HermitianStaticParams, x):
    """Symmetric real double well; even in x; -> 0 as |x| -> inf."""
    x = np.asarray(x, dtype=float)
    k1, k2 = p.k1, p.k2
    num = (k1**2 - k2**2) * (k2**2 * (1 + np.cosh(2 * k1 * x)) - k1**2 * (1 - np.cosh(2 * k2 * x)))
    den = (k1 * np.sinh(k1 * x) * np.sinh(k2 * x) - k2 * np.cosh(k1 * x) * np.cosh(k2 * x)) ** 2
    return num / den


def _w_pt_static(p: PTStaticParams, x):
    """Phase-stripped Wronskian of the PT-static pair (real for alpha=0)."""
    k1, k2, a = p.k1, p.k2, p.alpha
    v1 = np.cosh(k1 * x) + 1j * a * np.sinh(k1 * x)
    dv1 = np.sinh(k1 * x) + 1j * a * np.cosh(k1 * x)
    return k2 * np.cosh(k2 * x) * v1 - k1 * np.sinh(k2 * x) * dv1


def potential_pt_static(p: PTStaticParams, x):
    """Complex double well with V(-x) = conj V(x)."""
    x = np.asarray(x, dtype=float)
    k1, k2, a = p.k1, p.k2, p.alpha
    v1 = np.cosh(k1 * x) + 1j * a * np.sinh(k1 * x)
    w = _w_pt_static(p, x)
    return 2 * (k1**2 - k2**2) / w**2 * (k2**2 * v1**2 + k1**2 * (1 + a**2) * np.sinh(k2 * x) ** 2)


class _DynamicXParts(NamedTuple):
    """x-only factors of the modulated pair's closed forms on one node set.

    z enters the potential and both Floquet modes only through the phases
    e^{+-i(k1^2-k3^2)z}, so everything here is computed once per node set
    and combined with those phases per z.
    """

    h1: np.ndarray
    h2: np.ndarray
    den_re: np.ndarray    # h1^2 - alpha^2 h2^2: Re den = den_re cos(delta z)
    den_im: np.ndarray    # h1^2 + alpha^2 h2^2: Im den = den_im sin(delta z) + den_im0
    den_im0: np.ndarray   # 2 alpha h1 h2
    guard: np.ndarray     # 1e-10 (|h1| + |alpha| |h2|), the Wronskian-node threshold
    guard_sq_hi: np.ndarray  # bound above guard^2, see _guard_sq_hi
    num_re: np.ndarray    # h3 + alpha^2 h4: Re num = num_re cos(delta z)
    num_im: np.ndarray    # h3 - alpha^2 h4: Im num = num_im sin(delta z) - num_im0
    num_im0: np.ndarray   # alpha h8
    c1: np.ndarray        # cosh k1 x
    s3: np.ndarray        # sinh k3 x
    s2: np.ndarray        # sinh k2 x
    kx: np.ndarray        # K(x) of the odd-like mode


def _guard_sq_hi(guard: np.ndarray) -> np.ndarray:
    """Above the real guard^2: a 1e-12 margin over its rounding, and tiny where it underflows."""
    return np.maximum(guard * guard * (1 + 1e-12), np.finfo(float).tiny)


def _dynamic_x_parts(p: PTDynamicParams, x) -> _DynamicXParts:
    """The auxiliary functions h1..h8 and K(x) with their alpha weights."""
    x = np.asarray(x, dtype=float)
    k1, k2, k3, a = p.k1, p.k2, p.k3, p.alpha
    c1, s1 = np.cosh(k1 * x), np.sinh(k1 * x)
    c2, s2 = np.cosh(k2 * x), np.sinh(k2 * x)
    c3, s3 = np.cosh(k3 * x), np.sinh(k3 * x)
    h1 = k2 * c1 * c2 - k1 * s1 * s2
    h2 = k2 * c2 * s3 - k3 * c3 * s2
    h3 = (k1**2 - k2**2) * (2 * k1**2 * s2**2 + k2**2 * (1 + np.cosh(2 * k1 * x)))
    h4 = 2 * (k2**2 - k3**2) * (k2**2 * s3**2 - k3**2 * s2**2)
    h5 = 2 * k1 * k3 * (k1**2 - 2 * k2**2 + k3**2) * c3 * s1 * s2**2
    h6 = (4 * k2**4 - 4 * k1**2 * k3**2 * s2**2 + k2**2 * (k1**2 + k3**2) * (np.cosh(2 * k2 * x) - 3)) * c1 * s3
    h7 = k2 * (k1**2 - k3**2) * (k3 * c1 * c3 - k1 * s1 * s3) * np.sinh(2 * k2 * x)
    h8 = h5 + h6 + h7
    kx = (k2 * (k1**2 - k3**2) * c2 * np.cosh((k1 - k3) * x)
          + (k1 + k3) * (k1 * k3 - k2**2) * s2 * np.sinh((k1 - k3) * x))
    guard = 1e-10 * (np.abs(h1) + abs(a) * np.abs(h2))
    h1_sq, a2_h2_sq, a2_h4 = h1**2, a**2 * h2**2, a**2 * h4
    return _DynamicXParts(
        h1=h1, h2=h2, den_re=h1_sq - a2_h2_sq, den_im=h1_sq + a2_h2_sq, den_im0=2 * a * h1 * h2,
        guard=guard, guard_sq_hi=_guard_sq_hi(guard),
        num_re=h3 + a2_h4, num_im=h3 - a2_h4, num_im0=a * h8, c1=c1, s3=s3, s2=s2, kx=kx)


def _potential_dynamic_at(p: PTDynamicParams, xp: _DynamicXParts, z: float):
    """V = num / den, each written part by part from the real x parts (see `_DynamicXParts`)."""
    theta = (p.k1**2 - p.k3**2) * z
    cos, sin = math.cos(theta), math.sin(theta)
    den, num = np.empty(xp.h1.shape, dtype=complex), np.empty(xp.h1.shape, dtype=complex)
    np.multiply(xp.den_re, cos, out=den.real)
    np.add(np.multiply(xp.den_im, sin, out=den.imag), xp.den_im0, out=den.imag)
    near = np.abs(den) < xp.guard_sq_hi  # holds wherever sqrt(|den|) < guard does
    if near.any() and np.any(np.sqrt(np.abs(den[near])) < xp.guard[near]):
        raise SingularPointError("dynamic potential evaluated at a Wronskian node")
    np.multiply(xp.num_re, cos, out=num.real)
    np.subtract(np.multiply(xp.num_im, sin, out=num.imag), xp.num_im0, out=num.imag)
    return np.divide(num, den, out=num)


def potential_pt_dynamic(p: PTDynamicParams, x, z: float):
    """z-periodic complex double well; V(-x,-z) = conj V(x,z)."""
    return _potential_dynamic_at(p, _dynamic_x_parts(p, x), z)


# ---------------------------------------------------------------------------
# raw (unnormalized) guided modes and their z-derivatives
# ---------------------------------------------------------------------------

def raw_mode_hermitian(p: HermitianStaticParams, kind: str, x):
    """psi_g, psi_e profiles exactly as the closed forms give them."""
    x = np.asarray(x, dtype=float)
    k1, k2 = p.k1, p.k2
    w = k2 * np.cosh(k1 * x) * np.cosh(k2 * x) - k1 * np.sinh(k1 * x) * np.sinh(k2 * x)
    if kind == "ground":
        return k2 * (k2**2 - k1**2) * np.cosh(k1 * x) / w
    if kind == "excited":
        return k1 * (k2**2 - k1**2) * np.sinh(k2 * x) / w
    raise ValueError(kind)


def raw_mode_pt_static(p: PTStaticParams, kind: str, x):
    x = np.asarray(x, dtype=float)
    k1, k2, a = p.k1, p.k2, p.alpha
    w = _w_pt_static(p, x)
    if kind == "ground":
        return k2 * (k2**2 - k1**2) * (np.cosh(k1 * x) + 1j * a * np.sinh(k1 * x)) / w
    if kind == "excited":
        return k1 * (k2**2 - k1**2) * np.sinh(k2 * x) / w
    raise ValueError(kind)


def _static_profiles(p, x) -> dict[str, np.ndarray]:
    """Raw ground and excited profiles of a static pair on one node set."""
    raw = raw_mode_hermitian if isinstance(p, HermitianStaticParams) else raw_mode_pt_static
    return {kind: raw(p, kind, x) for kind in ("ground", "excited")}


class _DynamicPass:
    """Floquet modes psi_1 (quasi-energy -k2^2) and psi_2 (-k1^2) on one node set at one z.

    Each mode is pre * A / W with the full Wronskian W shared by both;
    W and its phases are computed once per pass, pre and A once per mode,
    and dW/dz, dpre/dz, dA/dz only when a derivative is asked for. Every
    expression is the closed form's own, term by term, so a value is
    bitwise the same however the pass is shared.

    psi_2 carries the phase e^{-i(k1^2-k3^2)z} on its alpha^2 term; with
    that phase both modes satisfy the paraxial equation identically and
    psi_1 = L12 f2, psi_2 = L12 f1 for the seeds in `make_system().seeds()`.
    """

    def __init__(self, p: PTDynamicParams, xp: _DynamicXParts, z: float):
        self.p, self.xp, self.z = p, xp, z
        b1, b2, b3 = p.k1**2, p.k2**2, p.k3**2
        self._e_w = np.exp(1j * (b1 + b2) * z)
        self._e_minus = np.exp(-1j * (b1 - b3) * z)  # e^{-i delta z}
        # full Wronskian W(u1,u2) = e^{i(b1+b2)z} (h1 + i alpha h2 e^{-i delta z})
        self.w = self._e_w * (xp.h1 + 1j * p.alpha * xp.h2 * self._e_minus)
        self._terms: dict[str, tuple] = {}

    def _numerator(self, kind: str) -> tuple:
        """(pre, A, pre * A) of one mode, computed once per pass."""
        if kind not in self._terms:
            p, xp, z = self.p, self.xp, self.z
            k1, k2, k3, a = p.k1, p.k2, p.k3, p.alpha
            b1, b2, b3 = k1**2, k2**2, k3**2
            if kind == "floquet1":
                pre = k2 * np.exp(2j * b2 * z)
                A = (np.exp(1j * b1 * z) * (b2 - b1) * xp.c1
                     + 1j * a * np.exp(1j * b3 * z) * (b2 - b3) * xp.s3)
            elif kind == "floquet2":
                delta = b1 - b3
                pre = np.exp(1j * (b1 + b2 + b3) * z)
                A = (np.exp(1j * delta * z) * k1 * (b1 - b2) * xp.s2
                     + self._e_minus * a**2 * k3 * (b3 - b2) * xp.s2
                     - 1j * a * xp.kx)
            else:
                raise ValueError(kind)
            self._terms[kind] = (pre, A, pre * A)
        return self._terms[kind]

    def mode(self, kind: str) -> np.ndarray:
        return self._numerator(kind)[2] / self.w

    @functools.cached_property
    def _wz_and_w_sq(self) -> tuple[np.ndarray, np.ndarray]:
        """dW/dz and W^2."""
        p, w = self.p, self.w
        b1, b2 = p.k1**2, p.k2**2
        delta = b1 - p.k3**2
        # dW/dz = i(b1+b2) W + alpha * delta * h2 * e^{i(b1+b2)z} e^{-i delta z}
        wz = 1j * (b1 + b2) * w + p.alpha * delta * self.xp.h2 * self._e_w * self._e_minus
        return wz, w * w

    def mode_dz(self, kind: str) -> np.ndarray:
        p, xp, z = self.p, self.xp, self.z
        k1, k3, a = p.k1, p.k3, p.alpha
        b1, b2, b3 = k1**2, p.k2**2, k3**2
        pre, A, pre_a = self._numerator(kind)
        if kind == "floquet1":
            pre_z = 2j * b2 * pre
            A_z = (1j * b1 * np.exp(1j * b1 * z) * (b2 - b1) * xp.c1
                   + 1j * a * 1j * b3 * np.exp(1j * b3 * z) * (b2 - b3) * xp.s3)
        else:
            delta = b1 - b3
            pre_z = 1j * (b1 + b2 + b3) * pre
            A_z = (1j * delta * np.exp(1j * delta * z) * k1 * (b1 - b2) * xp.s2
                   - 1j * delta * self._e_minus * a**2 * k3 * (b3 - b2) * xp.s2)
        wz, w_sq = self._wz_and_w_sq
        return (pre_z * A + pre * A_z) / self.w - pre_a * wz / w_sq


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Repetition:
    n: int
    m: int
    q: int
    T_rep: float


@dataclass(frozen=True)
class Periods:
    fundamental: float
    repetition: Optional[Repetition] = None


def periods(p) -> Periods:
    """Beat length (static) or modulation period plus rational repetition.

    For the dynamic system the guided modes repeat after lcm(n,m) * T_V
    when k2^2/(k1^2-k3^2) = n/q and k1^2/(k1^2-k3^2) = m/q with a common
    integer q; the rational approximations are accepted only within PERIOD_TOL.
    """
    if not isinstance(p, PTDynamicParams):
        return Periods(fundamental=2 * math.pi / (p.k2**2 - p.k1**2))
    delta = p.k1**2 - p.k3**2
    t_v = 2 * math.pi / delta
    rn = p.k2**2 / delta
    rm = p.k1**2 / delta
    fn = Fraction(rn).limit_denominator(PERIOD_MAX_DENOMINATOR)
    fm = Fraction(rm).limit_denominator(PERIOD_MAX_DENOMINATOR)
    if abs(rn - fn) > PERIOD_TOL or abs(rm - fm) > PERIOD_TOL:
        return Periods(fundamental=t_v)
    q = math.lcm(fn.denominator, fm.denominator)
    if q > PERIOD_MAX_DENOMINATOR:
        return Periods(fundamental=t_v)
    n = fn.numerator * (q // fn.denominator)
    m = fm.numerator * (q // fm.denominator)
    return Periods(fundamental=t_v, repetition=Repetition(n=n, m=m, q=q, T_rep=math.lcm(n, m) * t_v))


# ---------------------------------------------------------------------------
# assembled systems
# ---------------------------------------------------------------------------

class WaveguideSystem:
    """Closed-form potential plus normalized mode evaluators for one system.

    Built through `make_system`. Stationary profiles carry unit pseudo-norm
    magnitude; `left`/`right` evaluate the localized superpositions with
    unit Dirac power at z=0, labeled by the sign of <x> there.
    """

    def __init__(self, params):
        self.params = params
        kinds = [name for name, facts in KINDS.items() if isinstance(params, facts.params)]
        if not kinds:
            raise TypeError(f"unsupported parameter record {type(params)!r}")
        self.kind = kinds[0]
        self.facts = KINDS[self.kind]
        self.mode_kinds = self.facts.stationary + ("left", "right")
        ks = [abs(getattr(params, name, 0.0)) for name in ("k1", "k2", "k3")]
        self.min_k = min(k for k in ks if k != 0)  # k3 = 0 (or none) sets no decay length
        self.x_limit = LOG_FLOAT_MAX / (2 * (abs(params.k1) + abs(params.k2)))
        if default_half_width(self.min_k) > self.x_limit:
            raise ParameterError(f"the quadrature window 12/min|k| runs past |x| = {self.x_limit:.4g}, "
                                 f"where the closed forms overflow")
        self.quad = QuadratureSpec(default_half_width(self.min_k), nodes=2048, rule="gauss_legendre_composite")
        self._nodes, self._weights = self.quad.points  # frozen, so the norms' samples share one x-only pass
        self._norm: dict[str, float] = {}
        self._pseudo_sign: dict[str, int] = {}
        self._combos: dict[str, tuple[int, float]] = {}
        # x-only factors (the dynamic h1..h8, or the static raw profiles) of the last frozen node set
        self._x_parts = NodeCache(functools.partial(
            _dynamic_x_parts if self.is_dynamic else _static_profiles, params))
        # the modulated pair's last closed-form pass, shared by mode and mode_dz at one z
        self._pass: Optional[_DynamicPass] = None

    # -- basic facts -------------------------------------------------------

    @property
    def is_dynamic(self) -> bool:
        return self.kind == "pt_dynamic"

    @functools.cached_property
    def regularity(self) -> darboux.RegularityScan:
        """Wronskian node scan on x in [-10, 10] (z in [0, 2 T_V] if modulated); run once per system."""
        u1, u2, _, _ = self.seeds()
        if self.is_dynamic:
            z_end, n_points = 2 * self.periods().fundamental, 241
        else:
            z_end, n_points = 0.0, 2001
        return darboux.regularity_scan(u1, u2, (-10.0, 10.0), (0.0, z_end), n_points)

    def energies(self) -> dict[str, float]:
        p = self.params
        k_even, k_odd = self.facts.stationary
        return {k_even: -p.k2**2, k_odd: -p.k1**2}

    def periods(self) -> Periods:
        return periods(self.params)

    def potential(self, x, z: float = 0.0):
        if self.kind == "hermitian_static":
            return potential_hermitian_static(self.params, x)
        if self.kind == "pt_static":
            return potential_pt_static(self.params, x)
        return _potential_dynamic_at(self.params, self._x_parts(x), z)

    def seeds(self):
        """Transformation/solution seeds reproducing this system generically.

        Returns (u1, u2, f_for_mode1, f_for_mode2); constant prefactors of
        the encoded seeds differ from the closed forms by fixed scalars.
        """
        p = self.params
        if self.kind == "hermitian_static":
            u1 = SeedSuperposition.even(1.0, p.k1)
            u2 = SeedSuperposition.odd(1.0, p.k2)
            return u1, u2, SeedSuperposition.even(1.0, p.k2), SeedSuperposition.odd(1.0, p.k1)
        if self.kind == "pt_static":
            u1 = SeedSuperposition.build([("even", 1.0, p.k1), ("odd", p.alpha, p.k1)])
            u2 = SeedSuperposition.odd(1.0, p.k2)
            return u1, u2, SeedSuperposition.even(1.0, p.k2), SeedSuperposition.odd(1.0, p.k1)
        u1 = SeedSuperposition.build([("even", 1.0, p.k1), ("odd", p.alpha, p.k3)])
        u2 = SeedSuperposition.odd(1.0, p.k2)
        f1 = SeedSuperposition.even(1.0, p.k2)
        f2 = SeedSuperposition.build([("odd", -1.0, p.k1), ("even", p.alpha, p.k3)])
        return u1, u2, f1, f2

    # -- internals ---------------------------------------------------------

    def _dynamic_pass(self, x, z: float) -> _DynamicPass:
        """The closed-form pass on x at z, kept for the next call on the same frozen node set and z."""
        xp = self._x_parts(x)
        last = self._pass
        if last is None or last.xp is not xp or last.z != z:
            last = _DynamicPass(self.params, xp, z)
            self._pass = last if _frozen(np.asarray(x)) else None  # any other x: new x parts, no reuse
        return last

    def _raw_profile(self, kind: str, x, z: float = 0.0):
        if self.is_dynamic:
            return self._dynamic_pass(x, z).mode(kind)
        # stationary: profile only; phases handled by callers
        return self._x_parts(x)[kind]

    def _ensure_norms(self) -> None:
        if self._combos:
            return
        x, w = self._nodes, self._weights
        k_even, k_odd = self.facts.stationary
        if self.is_dynamic:
            # unit Dirac power at the input facet for each Floquet mode
            for kind in (k_even, k_odd):
                f = self._raw_profile(kind, x, 0.0)
                self._norm[kind] = 1.0 / math.sqrt(float(np.sum(w * np.abs(f) ** 2).real))
                self._pseudo_sign[kind] = 0
        else:
            # unit |PT pseudo-norm| (Dirac norm for the Hermitian system); -x first, so x stays cached
            mirrored = self._x_parts(read_only(-x))
            for kind in (k_even, k_odd):
                f = self._raw_profile(kind, x)
                ps = complex(np.sum(w * np.conj(f) * mirrored[kind]))
                self._norm[kind] = 1.0 / math.sqrt(abs(ps))
                self._pseudo_sign[kind] = 1 if ps.real >= 0 else -1
        # localized combinations: unit Dirac power at z=0, labels by <x>
        e = self._norm[k_even] * self._raw_profile(k_even, x, 0.0)
        o = self._norm[k_odd] * self._raw_profile(k_odd, x, 0.0)
        self._combos = localized_combos(lambda sign: e + sign * o, x, w)

    def pseudo_norm_sign(self, kind: str) -> int:
        self._ensure_norms()
        return self._pseudo_sign[kind]

    def combination(self, kind: str) -> tuple[int, float]:
        """(sign, 1/N) of the left/right mode 1/N (even + sign * odd), N its Dirac power at z=0."""
        self._ensure_norms()
        return self._combos[kind]

    def _pair(self, kind: str, field):
        """field(k) for a stationary kind k, or the normalized left/right superposition."""
        self._ensure_norms()
        if kind in ("left", "right"):
            sign, inv_n = self.combination(kind)
            k_even, k_odd = self.facts.stationary
            return inv_n * (field(k_even) + sign * field(k_odd))
        return field(kind)

    # -- public evaluators ---------------------------------------------------

    def mode(self, kind: str, x, z: float = 0.0):
        """Normalized mode field at (x, z)."""
        return self._pair(kind, lambda k: self._evolved(k, x, z))

    def _evolved(self, kind: str, x, z: float):
        if kind not in self.facts.stationary:
            raise ValueError(f"a {self.kind} system has no mode {kind!r}")
        if self.is_dynamic:
            return self._norm[kind] * self._raw_profile(kind, x, z)
        e = self.energies()[kind]
        return self._norm[kind] * np.exp(-1j * e * z) * self._raw_profile(kind, x)

    def mode_dz(self, kind: str, x, z: float = 0.0):
        """Exact d(mode)/dz; i * mode_dz is the Hamiltonian applied to the mode."""
        return self._pair(kind, lambda k: self._evolved_dz(k, x, z))

    def _evolved_dz(self, kind: str, x, z: float):
        if self.is_dynamic:
            return self._norm[kind] * self._dynamic_pass(x, z).mode_dz(kind)
        e = self.energies()[kind]
        return -1j * e * self._norm[kind] * np.exp(-1j * e * z) * self._raw_profile(kind, x)

    def mode_h2(self, kind: str, x, z: float = 0.0):
        """H^2 applied to a stationary-system mode (exact, E^2 weights)."""
        if self.is_dynamic:
            raise ValueError("exact H^2 application is only available for static systems")
        energies = self.energies()
        return self._pair(kind, lambda k: energies[k] ** 2 * self._evolved(k, x, z))


def make_system(params, *, verify_regularity: bool = True) -> WaveguideSystem:
    """Validate parameters, optionally scan-verify an uncertified dynamic case."""
    system = WaveguideSystem(params)
    if isinstance(params, PTDynamicParams) and verify_regularity and not params.certified:
        scan = system.regularity
        if not scan.nodeless:
            raise ParameterError(
                f"dynamic parameters fail the sufficient bound and the regularity scan "
                f"(min |W| = {scan.min_abs_w:.3e} at {scan.argmin})")
    return system
