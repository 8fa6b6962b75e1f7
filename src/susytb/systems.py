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
  functions h1..h8 and K below.

Stationary modes are normalized to unit pseudo-norm magnitude (the sign
of the PT self-product is recorded; for the Hermitian system this is
plain Dirac normalization). Localized left/right superpositions are
normalized to unit Dirac power at z=0 and labeled by the sign of <x>.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .darboux import SingularPointError
from .quadrature import QuadratureSpec, default_spec, localized_combos, quad_nodes
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
    "MODE_KINDS",
]

MODE_KINDS = ("ground", "excited", "floquet1", "floquet2", "left", "right")

# Node sets whose dynamic x-factors a system keeps: the TB quadrature, the
# observable grid and a BPM or dump grid interleave; a one-shot grid (such
# as the calibration target) must not stay resident for the whole run.
X_PARTS_CACHE = 4

# Largest exponent a float64 holds: the closed-form denominators grow like
# e^{2(|k1|+|k2|)|x|} and must stay finite across the quadrature window.
LOG_FLOAT_MAX = math.log(sys.float_info.max)


class ParameterError(ValueError):
    """System parameters violate a regularity/ordering requirement."""


@dataclass(frozen=True)
class HermitianStaticParams:
    k1: float
    k2: float

    def __post_init__(self) -> None:
        if not (abs(self.k2) > abs(self.k1) > 0):
            raise ParameterError("need |k2| > |k1| > 0 for a nodeless Wronskian")


@dataclass(frozen=True)
class PTStaticParams:
    k1: float
    k2: float
    alpha: float

    def __post_init__(self) -> None:
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
    h1_sq: np.ndarray     # h1^2
    a2_h2_sq: np.ndarray  # alpha^2 h2^2
    cross: np.ndarray     # 2i alpha h1 h2
    guard: np.ndarray     # 1e-10 (|h1| + |alpha| |h2|), the Wronskian-node threshold
    h3: np.ndarray
    a2_h4: np.ndarray     # alpha^2 h4
    ia_h8: np.ndarray     # i alpha h8
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
    return _DynamicXParts(
        h1=h1, h2=h2, h1_sq=h1**2, a2_h2_sq=a**2 * h2**2, cross=2j * a * h1 * h2,
        guard=1e-10 * (np.abs(h1) + abs(a) * np.abs(h2)),
        h3=h3, a2_h4=a**2 * h4, ia_h8=1j * a * h8, c1=c1, s3=s3, s2=s2, kx=kx)


def _potential_dynamic_at(p: PTDynamicParams, xp: _DynamicXParts, z: float):
    delta = p.k1**2 - p.k3**2
    ep = np.exp(1j * delta * z)
    em = np.exp(-1j * delta * z)
    den = xp.h1_sq * ep - xp.a2_h2_sq * em + xp.cross
    if np.any(np.sqrt(np.abs(den)) < xp.guard):
        raise SingularPointError("dynamic potential evaluated at a Wronskian node")
    return (xp.h3 * ep + xp.a2_h4 * em - xp.ia_h8) / den


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


def _mode_dynamic_at(p: PTDynamicParams, xp: _DynamicXParts, kind: str, z: float, dz: bool):
    """Floquet modes psi_1 (quasi-energy -k2^2) and psi_2 (-k1^2), or their d/dz.

    psi_2 carries the phase e^{-i(k1^2-k3^2)z} on its alpha^2 term; with
    that phase both modes satisfy the paraxial equation identically and
    psi_1 = L12 f2, psi_2 = L12 f1 for the seeds in `make_system().seeds()`.
    """
    k1, k2, k3, a = p.k1, p.k2, p.k3, p.alpha
    b1, b2, b3 = k1**2, k2**2, k3**2
    delta = b1 - b3
    # full Wronskian W(u1,u2) = e^{i(b1+b2)z} (h1 + i alpha h2 e^{-i delta z})
    w = np.exp(1j * (b1 + b2) * z) * (xp.h1 + 1j * a * xp.h2 * np.exp(-1j * delta * z))
    # dW/dz = i(b1+b2) W + alpha * delta * h2 * e^{i(b1+b2)z} e^{-i delta z}
    wz = 1j * (b1 + b2) * w + a * delta * xp.h2 * np.exp(1j * (b1 + b2) * z) * np.exp(-1j * delta * z)
    if kind == "floquet1":
        pre = k2 * np.exp(2j * b2 * z)
        pre_z = 2j * b2 * pre
        A = (np.exp(1j * b1 * z) * (b2 - b1) * xp.c1
             + 1j * a * np.exp(1j * b3 * z) * (b2 - b3) * xp.s3)
        A_z = (1j * b1 * np.exp(1j * b1 * z) * (b2 - b1) * xp.c1
               + 1j * a * 1j * b3 * np.exp(1j * b3 * z) * (b2 - b3) * xp.s3)
    elif kind == "floquet2":
        pre = np.exp(1j * (b1 + b2 + b3) * z)
        pre_z = 1j * (b1 + b2 + b3) * pre
        A = (np.exp(1j * delta * z) * k1 * (b1 - b2) * xp.s2
             + np.exp(-1j * delta * z) * a**2 * k3 * (b3 - b2) * xp.s2
             - 1j * a * xp.kx)
        A_z = (1j * delta * np.exp(1j * delta * z) * k1 * (b1 - b2) * xp.s2
               - 1j * delta * np.exp(-1j * delta * z) * a**2 * k3 * (b3 - b2) * xp.s2)
    else:
        raise ValueError(kind)
    if not dz:
        return pre * A / w
    return (pre_z * A + pre * A_z) / w - pre * A * wz / (w * w)


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


def periods(p, *, tol: float = 1e-9, max_denominator: int = 10**6) -> Periods:
    """Beat length (static) or modulation period plus rational repetition.

    For the dynamic system the guided modes repeat after lcm(n,m) * T_V
    when k2^2/(k1^2-k3^2) = n/q and k1^2/(k1^2-k3^2) = m/q with a common
    integer q; the rational approximations are accepted only within `tol`.
    """
    if isinstance(p, (HermitianStaticParams, PTStaticParams)):
        return Periods(fundamental=2 * math.pi / (p.k2**2 - p.k1**2))
    if not isinstance(p, PTDynamicParams):
        raise TypeError(f"unsupported parameter record {type(p)!r}")
    delta = p.k1**2 - p.k3**2
    t_v = 2 * math.pi / delta
    rn = p.k2**2 / delta
    rm = p.k1**2 / delta
    fn = Fraction(rn).limit_denominator(max_denominator)
    fm = Fraction(rm).limit_denominator(max_denominator)
    if abs(rn - fn) > tol or abs(rm - fm) > tol:
        return Periods(fundamental=t_v)
    q = math.lcm(fn.denominator, fm.denominator)
    if q > max_denominator:
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

    def __init__(self, params, quad: Optional[QuadratureSpec] = None):
        self.params = params
        if isinstance(params, HermitianStaticParams):
            self.kind = "hermitian_static"
            ks = (params.k1, params.k2)
        elif isinstance(params, PTStaticParams):
            self.kind = "pt_static"
            ks = (params.k1, params.k2)
        elif isinstance(params, PTDynamicParams):
            self.kind = "pt_dynamic"
            ks = (params.k1, params.k2, params.k3)
        else:
            raise TypeError(f"unsupported parameter record {type(params)!r}")
        self.min_k = min(abs(k) for k in ks if k != 0)  # k3 = 0 sets no decay length
        limit = LOG_FLOAT_MAX / (2 * (abs(params.k1) + abs(params.k2)))
        if default_spec(self.min_k).half_width > limit:
            raise ParameterError(f"the quadrature window 12/min|k| runs past |x| = {limit:.4g}, "
                                 f"where the closed forms overflow")
        if quad is None:
            quad = default_spec(self.min_k, nodes=2048, rule="gauss_legendre_composite")
        self.quad = quad
        self._nodes, self._weights = quad_nodes(quad)
        self._norm: dict[str, float] = {}
        self._pseudo_sign: dict[str, int] = {}
        self._combos: dict[str, tuple[int, float]] = {}
        # dynamic x-only factors, least recently used first, keyed by node values
        self._x_parts: dict[tuple, _DynamicXParts] = {}

    # -- basic facts -------------------------------------------------------

    @property
    def is_dynamic(self) -> bool:
        return self.kind == "pt_dynamic"

    def energies(self) -> dict[str, float]:
        p = self.params
        if self.is_dynamic:
            return {"floquet1": -p.k2**2, "floquet2": -p.k1**2}
        return {"ground": -p.k2**2, "excited": -p.k1**2}

    def periods(self) -> Periods:
        return periods(self.params)

    def potential(self, x, z: float = 0.0):
        if self.kind == "hermitian_static":
            return potential_hermitian_static(self.params, x)
        if self.kind == "pt_static":
            return potential_pt_static(self.params, x)
        return _potential_dynamic_at(self.params, self._dynamic_parts(x), z)

    def _dynamic_parts(self, x) -> _DynamicXParts:
        """x-only factors on node set x, from an LRU of X_PARTS_CACHE node sets."""
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        parts = self._x_parts.pop(key, None)
        if parts is None:
            parts = _dynamic_x_parts(self.params, x)
            if len(self._x_parts) >= X_PARTS_CACHE:
                del self._x_parts[next(iter(self._x_parts))]
        self._x_parts[key] = parts
        return parts

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

    def _raw_profile(self, kind: str, x, z: float = 0.0):
        if self.is_dynamic:
            return _mode_dynamic_at(self.params, self._dynamic_parts(x), kind, z, False)
        # stationary: profile only; phases handled by callers
        if self.kind == "hermitian_static":
            return raw_mode_hermitian(self.params, kind, x)
        return raw_mode_pt_static(self.params, kind, x)

    def _stationary_kinds(self) -> tuple[str, str]:
        return ("floquet1", "floquet2") if self.is_dynamic else ("ground", "excited")

    def _ensure_norms(self) -> None:
        if self._combos:
            return
        x, w = self._nodes, self._weights
        k_even, k_odd = self._stationary_kinds()
        if self.is_dynamic:
            # unit Dirac power at the input facet for each Floquet mode
            for kind in (k_even, k_odd):
                f = self._raw_profile(kind, x, 0.0)
                self._norm[kind] = 1.0 / math.sqrt(float(np.sum(w * np.abs(f) ** 2).real))
                self._pseudo_sign[kind] = 0
        else:
            # unit |PT pseudo-norm| (Dirac norm for the Hermitian system)
            for kind in (k_even, k_odd):
                f = self._raw_profile(kind, x)
                fm = self._raw_profile(kind, -x)
                ps = complex(np.sum(w * np.conj(f) * fm))
                self._norm[kind] = 1.0 / math.sqrt(abs(ps))
                self._pseudo_sign[kind] = 1 if ps.real >= 0 else -1
        # localized combinations: unit Dirac power at z=0, labels by <x>
        e = self._norm[k_even] * self._raw_profile(k_even, x, 0.0)
        o = self._norm[k_odd] * self._raw_profile(k_odd, x, 0.0)
        self._combos = localized_combos(lambda sign: e + sign * o, x, w)

    def pseudo_norm_sign(self, kind: str) -> int:
        self._ensure_norms()
        return self._pseudo_sign[kind]

    def _pair(self, kind: str, field):
        """field(k) for a stationary kind k, or the normalized left/right superposition."""
        self._ensure_norms()
        if kind in ("left", "right"):
            sign, inv_n = self._combos[kind]
            k_even, k_odd = self._stationary_kinds()
            return inv_n * (field(k_even) + sign * field(k_odd))
        return field(kind)

    # -- public evaluators ---------------------------------------------------

    def mode(self, kind: str, x, z: float = 0.0):
        """Normalized mode field at (x, z)."""
        if kind not in MODE_KINDS:
            raise ValueError(f"unknown mode kind {kind!r}")
        return self._pair(kind, lambda k: self._evolved(k, x, z))

    def _evolved(self, kind: str, x, z: float):
        if kind not in self._stationary_kinds():
            raise ValueError(f"mode kind {kind!r} not defined for a {self.kind} system")
        if self.is_dynamic:
            return self._norm[kind] * self._raw_profile(kind, x, z)
        e = self.energies()[kind]
        return self._norm[kind] * np.exp(-1j * e * z) * self._raw_profile(kind, x)

    def mode_dz(self, kind: str, x, z: float = 0.0):
        """Exact d(mode)/dz; i * mode_dz is the Hamiltonian applied to the mode."""
        return self._pair(kind, lambda k: self._evolved_dz(k, x, z))

    def _evolved_dz(self, kind: str, x, z: float):
        if self.is_dynamic:
            return self._norm[kind] * _mode_dynamic_at(self.params, self._dynamic_parts(x), kind, z, True)
        e = self.energies()[kind]
        return -1j * e * self._norm[kind] * np.exp(-1j * e * z) * self._raw_profile(kind, x)

    def mode_h2(self, kind: str, x, z: float = 0.0):
        """H^2 applied to a stationary-system mode (exact, E^2 weights)."""
        if self.is_dynamic:
            raise ValueError("exact H^2 application is only available for static systems")
        energies = self.energies()
        return self._pair(kind, lambda k: energies[k] ** 2 * self._evolved(k, x, z))


def make_system(params, *, quad: Optional[QuadratureSpec] = None,
                verify_regularity: bool = True) -> WaveguideSystem:
    """Validate parameters, optionally scan-verify an uncertified dynamic case."""
    system = WaveguideSystem(params, quad=quad)
    if isinstance(params, PTDynamicParams) and verify_regularity and not params.certified:
        from .darboux import regularity_scan

        u1, u2, _, _ = system.seeds()
        t_v = system.periods().fundamental
        scan = regularity_scan(u1, u2, (-10.0, 10.0), (0.0, 2 * t_v), n_points=241)
        if not scan.nodeless:
            raise ParameterError(
                f"dynamic parameters fail the sufficient bound and the regularity scan "
                f"(min |W| = {scan.min_abs_w:.3e} at {scan.argmin})")
    return system
