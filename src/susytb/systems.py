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
  by part from six real combinations and cos, sin of (k1^2 - k3^2) z).
  Its Wronskian has a node exactly when rho = |alpha| sup_x |h2/h1| >= 1: the
  record refuses rho >= 1 - RHO_MARGIN, so no evaluator checks for nodes.

Each system evaluates both modes of its pair at (x, z) in one closed-form
pass (`WaveguideSystem.pair`): (2, n) rows, even-like first, over one
Wronskian, with their d/dz (and, for a static pair, H^2) read off the same
pass. Nothing of a pass is kept; `mode`, `mode_dz` and `mode_h2` pick or
combine its rows.

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
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import darboux
from .quadrature import NodeCache, QuadratureSpec, default_half_width, localized_combos, read_only
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
    "x_limit",
    "SystemKind",
    "KINDS",
]

LOG_FLOAT_MAX = math.log(sys.float_info.max)  # the largest exponent a float64 holds

PERIOD_TOL, PERIOD_MAX_DENOMINATOR = 1e-9, 10**6  # the rational repetition search of periods()

# Least 1 - rho a modulated record accepts: |den| >= h1^2 (1 - rho)^2 clears den's rounding (a few eps h1^2) and the
# 1e-10 (|h1| + |alpha h2|) node threshold V was once checked against when 1 - rho >~ 5e-8; 1e-6 leaves room.
RHO_MARGIN = 1e-6


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
    """The modulated pair's record; it refuses rho >= 1 - RHO_MARGIN, so every pair it builds is nodeless."""

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
        if self.rho >= 1 - RHO_MARGIN:
            sup, x = _sup_ratio(self.k1, self.k2, self.k3)
            raise ParameterError(f"rho = |alpha| sup|h2/h1| = {self.rho:.6g} (at x = +-{x:.4g}) is not below 1 - "
                                 f"{RHO_MARGIN:g}: the Wronskian has a node; need |alpha| < "
                                 f"{(1 - RHO_MARGIN) / sup:.6g}")

    @functools.cached_property
    def rho(self) -> float:
        """|alpha| sup_x |h2/h1|: nodeless exactly when below 1; the Floquet modes' z harmonics fall like rho^|m|."""
        return abs(self.alpha) * _sup_ratio(self.k1, self.k2, self.k3)[0]

    @property
    def certified(self) -> bool:
        """Sufficient (not necessary) nodelessness bound on alpha."""
        return (1.0 - abs(self.k1) / abs(self.k2)) > abs(self.alpha) * (1.0 + abs(self.k3) / abs(self.k2))


def x_limit(p) -> float:
    """|x| past which record p's closed forms overflow, so every window must stay inside it: LOG_FLOAT_MAX over the
    rate of their fastest product, the squared Wronskian e^{2(|k1|+|k2|)|x|} or, in a modulated pair's d/dz,
    K(x) dW/dz ~ e^{(2|k2| + |k1| + |k1 - k3|)|x|}, which grows faster when k3 and k1 have opposite signs."""
    rate = 2 * (abs(p.k1) + abs(p.k2))
    if isinstance(p, PTDynamicParams):
        rate = max(rate, 2 * abs(p.k2) + abs(p.k1) + abs(p.k1 - p.k3))
    return LOG_FLOAT_MAX / rate


def _sup_ratio(k1: float, k2: float, k3: float) -> tuple[float, float]:
    """(sup_x |h2/h1|, an x >= 0 reaching it), |k3| < |k1| < |k2|: the even ratio, 0 at x = 0 and falling like
    e^{-(|k1| - |k3|) x}, over 257 points on [0, 8/|k1|] (doubled while the argmax is at the end), zoomed 5 x 16."""
    a, b, c = abs(k1), abs(k2), abs(k3)

    def ratio(x):
        ea, eb, ta, tb = np.exp(-2 * a * x), np.exp(-2 * b * x), np.tanh(a * x), np.tanh(b * x)
        h1 = b - a + 2 * a * (ea / (1 + ea) + ta * eb / (1 + eb))  # b - a ta tb, without cancellation
        return np.exp((c - a) * x) * (1 + np.exp(-2 * c * x)) / (1 + ea) * np.abs(b * np.tanh(c * x) - c * tb) / h1

    x = np.linspace(0.0, 8.0 / a, 257)
    while np.argmax(ratio(x)) >= len(x) - 8:
        x *= 2
    for _ in range(5):
        i = int(np.argmax(ratio(x)))
        x = np.linspace(x[max(i - 1, 0)], x[min(i + 1, len(x) - 1)], 33)
    i = int(np.argmax(r := ratio(x)))
    return float(r[i]), float(x[i])


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


def potential_pt_static(p: PTStaticParams, x):
    """Complex double well with V(-x) = conj V(x)."""
    x = np.asarray(x, dtype=float)
    k1, k2, a = p.k1, p.k2, p.alpha
    v1 = np.cosh(k1 * x) + 1j * a * np.sinh(k1 * x)
    w = k2 * np.cosh(k2 * x) * v1 - k1 * np.sinh(k2 * x) * (np.sinh(k1 * x) + 1j * a * np.cosh(k1 * x))
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
    num_re: np.ndarray    # h3 + alpha^2 h4: Re num = num_re cos(delta z)
    num_im: np.ndarray    # h3 - alpha^2 h4: Im num = num_im sin(delta z) - num_im0
    num_im0: np.ndarray   # alpha h8
    c1: np.ndarray        # cosh k1 x
    s3: np.ndarray        # sinh k3 x
    s2: np.ndarray        # sinh k2 x
    kx: np.ndarray        # K(x) of the odd-like mode


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
    h1_sq, a2_h2_sq, a2_h4 = h1**2, a**2 * h2**2, a**2 * h4
    return _DynamicXParts(
        h1=h1, h2=h2, den_re=h1_sq - a2_h2_sq, den_im=h1_sq + a2_h2_sq, den_im0=2 * a * h1 * h2,
        num_re=h3 + a2_h4, num_im=h3 - a2_h4, num_im0=a * h8, c1=c1, s3=s3, s2=s2, kx=kx)


def _potential_dynamic_at(p: PTDynamicParams, xp: _DynamicXParts, z: float):
    """V = num / den, each written part by part from the real x parts (see `_DynamicXParts`)."""
    theta = (p.k1**2 - p.k3**2) * z
    cos, sin = math.cos(theta), math.sin(theta)
    den, num = np.empty(xp.h1.shape, dtype=complex), np.empty(xp.h1.shape, dtype=complex)
    np.multiply(xp.den_re, cos, out=den.real)
    np.add(np.multiply(xp.den_im, sin, out=den.imag), xp.den_im0, out=den.imag)
    np.multiply(xp.num_re, cos, out=num.real)
    np.subtract(np.multiply(xp.num_im, sin, out=num.imag), xp.num_im0, out=num.imag)
    return np.divide(num, den, out=num)


def potential_pt_dynamic(p: PTDynamicParams, x, z: float):
    """z-periodic complex double well; V(-x,-z) = conj V(x,z)."""
    return _potential_dynamic_at(p, _dynamic_x_parts(p, x), z)


# ---------------------------------------------------------------------------
# raw (unnormalized) mode pairs: (2, n) rows, even-like first
# ---------------------------------------------------------------------------

def _static_profiles(p, x) -> np.ndarray:
    """Raw ground and excited profiles of a static pair on one node set, over one Wronskian."""
    x = np.asarray(x, dtype=float)
    k1, k2 = p.k1, p.k2
    c1, s1, c2, s2 = np.cosh(k1 * x), np.sinh(k1 * x), np.cosh(k2 * x), np.sinh(k2 * x)
    if isinstance(p, HermitianStaticParams):
        v1, w = c1, k2 * c1 * c2 - k1 * s1 * s2
    else:  # `potential_pt_static`'s Wronskian, term by term
        v1 = c1 + 1j * p.alpha * s1
        w = k2 * c2 * v1 - k1 * s2 * (s1 + 1j * p.alpha * c1)
    return np.stack([k2 * (k2**2 - k1**2) * v1, k1 * (k2**2 - k1**2) * s2]) / w


def _floquet_pair(p: PTDynamicParams, xp: _DynamicXParts, z: float,
                  scale) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Floquet modes psi_1 (quasi-energy -k2^2) and psi_2 (-k1^2) on one node set at one z.

    Each mode is pre * A / W with the full Wronskian W shared by both. Returns
    the (2, n) rows scale_j psi_j and `dz()`, their z-derivatives from the same
    W, pre and A. Every expression is the closed form's own, term by term; each
    row is formed on its own and written into the result, so a pass makes no
    (2, n) temporaries.

    psi_2 carries the phase e^{-i(k1^2-k3^2)z} on its alpha^2 term; with
    that phase both modes satisfy the paraxial equation identically and
    psi_1 = L12 f2, psi_2 = L12 f1 for the seeds in `make_system().seeds()`.
    """
    k1, k2, k3, a = p.k1, p.k2, p.k3, p.alpha
    b1, b2, b3 = k1**2, k2**2, k3**2
    delta = b1 - b3
    e_w, e_minus = np.exp(1j * (b1 + b2) * z), np.exp(-1j * (b1 - b3) * z)  # e^{-i delta z}
    e1, e3, e_delta = np.exp(1j * b1 * z), np.exp(1j * b3 * z), np.exp(1j * delta * z)
    # full Wronskian W(u1,u2) = e^{i(b1+b2)z} (h1 + i alpha h2 e^{-i delta z})
    w = e_w * (xp.h1 + 1j * a * xp.h2 * e_minus)
    pre = (k2 * np.exp(2j * b2 * z), np.exp(1j * (b1 + b2 + b3) * z))
    A = (e1 * (b2 - b1) * xp.c1 + 1j * a * e3 * (b2 - b3) * xp.s3,
         e_delta * k1 * (b1 - b2) * xp.s2 + e_minus * a**2 * k3 * (b3 - b2) * xp.s2 - 1j * a * xp.kx)
    pre_a = [pre[j] * A[j] for j in (0, 1)]
    rows = np.empty((2,) + w.shape, dtype=complex)
    for j in (0, 1):
        np.multiply(scale[j], pre_a[j] / w, out=rows[j])

    def dz() -> np.ndarray:
        # dW/dz = i(b1+b2) W + alpha * delta * h2 * e^{i(b1+b2)z} e^{-i delta z}
        wz, w_sq = 1j * (b1 + b2) * w + a * delta * xp.h2 * e_w * e_minus, w * w
        pre_z = (2j * b2 * pre[0], 1j * (b1 + b2 + b3) * pre[1])
        A_z = (1j * b1 * e1 * (b2 - b1) * xp.c1 + 1j * a * 1j * b3 * e3 * (b2 - b3) * xp.s3,
               1j * delta * e_delta * k1 * (b1 - b2) * xp.s2
               - 1j * delta * e_minus * a**2 * k3 * (b3 - b2) * xp.s2)
        out = np.empty_like(rows)
        for j in (0, 1):
            np.multiply(scale[j], (pre_z[j] * A[j] + pre[j] * A_z[j]) / w - pre_a[j] * wz / w_sq, out=out[j])
        return out

    return rows, dz


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
        self.x_limit = x_limit(params)
        if default_half_width(self.min_k) > self.x_limit:
            raise ParameterError(f"the quadrature window 12/min|k| runs past |x| = {self.x_limit:.4g}, "
                                 f"where the closed forms overflow")
        self.quad = QuadratureSpec(default_half_width(self.min_k), nodes=2048, rule="gauss_legendre_composite")
        # x-only factors (the dynamic h1..h8, or the static raw profiles) of the last frozen node set
        self._x_parts = NodeCache(functools.partial(
            _dynamic_x_parts if self.is_dynamic else _static_profiles, params))

    # -- basic facts -------------------------------------------------------

    @property
    def is_dynamic(self) -> bool:
        return self.kind == "pt_dynamic"

    @functools.cached_property
    def regularity(self) -> darboux.RegularityScan:
        """Wronskian node scan on x in [-10, 10] (z in [0, 2 T_V] if modulated), run once per system: the
        report's cross-check of the records' regularity, blind to a modulated pair's nodes past |x| = 10."""
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

    @functools.cached_property
    def _norms(self) -> tuple[dict[str, float], dict[str, int], dict[str, tuple[int, float]]]:
        """(1/N, pseudo-norm sign) per stationary kind and the left/right combos, on the frozen `quad` nodes, so
        their samples share one x-only pass."""
        x, w = self.quad.points
        k_even, k_odd = self.facts.stationary
        norm, pseudo_sign = {}, {}
        if self.is_dynamic:
            # unit Dirac power at the input facet for each Floquet mode
            raw = _floquet_pair(self.params, self._x_parts(x), 0.0, (1.0, 1.0))[0]  # scale 1: the raw modes
            for kind, f in zip((k_even, k_odd), raw):
                norm[kind] = 1.0 / math.sqrt(float(np.sum(w * np.abs(f) ** 2).real))
                pseudo_sign[kind] = 0
        else:
            # unit |PT pseudo-norm| (Dirac norm for the Hermitian system); -x first, so x stays cached
            mirrored = self._x_parts(read_only(-x))
            raw = self._x_parts(x)
            for kind, f, f_mirrored in zip((k_even, k_odd), raw, mirrored):
                ps = complex(np.sum(w * np.conj(f) * f_mirrored))
                norm[kind] = 1.0 / math.sqrt(abs(ps))
                pseudo_sign[kind] = 1 if ps.real >= 0 else -1
        # localized combinations: unit Dirac power at z=0, labels by <x>
        e = norm[k_even] * raw[0]
        o = norm[k_odd] * raw[1]
        return norm, pseudo_sign, localized_combos(lambda sign: e + sign * o, x, w)

    def pseudo_norm_sign(self, kind: str) -> int:
        return self._norms[1][kind]

    def combination(self, kind: str) -> tuple[int, float]:
        """(sign, 1/N) of the left/right mode 1/N (even + sign * odd), N its Dirac power at z=0."""
        return self._norms[2][kind]

    # -- public evaluators ---------------------------------------------------

    def pair(self, x, z: float = 0.0) -> Callable[[int], np.ndarray]:
        """Both normalized modes at (x, z) from one closed-form pass, even-like row first.

        Returns `rows`: rows(0) the (2, n) fields, rows(1) their d/dz and, for a
        static pair, rows(2) H^2 applied (E^2 weights). Every order reads the
        same pass: the modulated pair's W, phases and numerators, or the static
        pair's profiles.
        """
        kinds, norm = self.facts.stationary, self._norms[0]
        if self.is_dynamic:
            fields, dz = _floquet_pair(self.params, self._x_parts(x), z, [norm[k] for k in kinds])

            def floquet_rows(order: int) -> np.ndarray:
                if order == 2:
                    raise ValueError("exact H^2 application is only available for static systems")
                return fields if order == 0 else dz()
            return floquet_rows
        raw, e = self._x_parts(x), self.energies()

        def rows(order: int) -> np.ndarray:
            out = np.empty(raw.shape, dtype=complex)
            for k, f, o in zip(kinds, raw, out):
                # N e^{-i E z} u, times -i E for d/dz (its scalars multiplied first), E^2 times it for H^2
                np.multiply((-1j * e[k] if order == 1 else 1) * norm[k] * np.exp(-1j * e[k] * z), f, out=o)
                if order == 2:
                    np.multiply(e[k] ** 2, o, out=o)
            return out
        return rows

    def _combined(self, kind: str, x, z: float, order: int):
        """One mode of `pair(x, z)(order)`, or the normalized left/right superposition of both."""
        if kind not in self.mode_kinds:
            raise ValueError(f"a {self.kind} system has no mode {kind!r}")
        rows = self.pair(x, z)(order)
        if kind in ("left", "right"):
            sign, inv_n = self.combination(kind)
            return inv_n * (rows[0] + sign * rows[1])
        return rows[self.facts.stationary.index(kind)]

    def mode(self, kind: str, x, z: float = 0.0):
        """Normalized mode field at (x, z)."""
        return self._combined(kind, x, z, 0)

    def mode_dz(self, kind: str, x, z: float = 0.0):
        """Exact d(mode)/dz; i * mode_dz is the Hamiltonian applied to the mode."""
        return self._combined(kind, x, z, 1)

    def mode_h2(self, kind: str, x, z: float = 0.0):
        """H^2 applied to a stationary-system mode (exact, E^2 weights)."""
        return self._combined(kind, x, z, 2)


def make_system(params, *, verify_regularity: bool = True) -> WaveguideSystem:
    """The system of a validated record (a modulated one has refused rho >= 1 - RHO_MARGIN); an uncertified
    modulated pair is also scanned over |x| <= 10, a cross-check that cannot see past that window."""
    system = WaveguideSystem(params)
    if isinstance(params, PTDynamicParams) and verify_regularity and not params.certified:
        scan = system.regularity
        if not scan.nodeless:
            raise ParameterError(
                f"dynamic parameters fail the sufficient bound and the regularity scan "
                f"(min |W| = {scan.min_abs_w:.3e} at {scan.argmin})")
    return system
