"""Hyperbolic free-beam seed functions and their exact derivatives.

Every building block of the solvable waveguide systems is a finite
superposition of terms

    even:  A * cosh(k x) * exp(i k^2 z)
    odd:   i * B * sinh(k x) * exp(i k^2 z)

Each term solves the free paraxial equation i d_z u + d_x^2 u = 0
identically, and the family is closed under differentiation, so every
partial derivative used downstream (Wronskians, potentials, intertwiners)
is computed exactly, never by finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "SeedTerm",
    "SeedSuperposition",
    "DerivativeBundle",
    "eval_seed",
    "wronskian_bundle",
]


@dataclass(frozen=True)
class SeedTerm:
    """One hyperbolic term; `parity` selects the evaluation rule above."""

    parity: str  # "even" | "odd"
    amplitude: float
    k: float

    def __post_init__(self) -> None:
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.k)):
            raise ValueError("seed term amplitude and wavenumber must be finite")


@dataclass(frozen=True)
class SeedSuperposition:
    """Ordered finite superposition of SeedTerms."""

    terms: tuple[SeedTerm, ...]

    def __post_init__(self) -> None:
        if len(self.terms) == 0:
            raise ValueError("a seed superposition needs at least one term")

    @classmethod
    def build(cls, terms: Iterable[tuple[str, float, float]]) -> "SeedSuperposition":
        return cls(tuple(SeedTerm(p, a, k) for p, a, k in terms))

    @classmethod
    def even(cls, amplitude: float, k: float) -> "SeedSuperposition":
        return cls((SeedTerm("even", amplitude, k),))

    @classmethod
    def odd(cls, amplitude: float, k: float) -> "SeedSuperposition":
        return cls((SeedTerm("odd", amplitude, k),))


@dataclass(frozen=True)
class DerivativeBundle:
    """Value and exact partials of a field at one point (or grid)."""

    value: np.ndarray | complex
    d1x: np.ndarray | complex
    d2x: np.ndarray | complex
    d1z: np.ndarray | complex


def _derivatives(u: SeedSuperposition, x, z: float, order: int, *, dz: bool):
    """(d, d_z d) with d[m] = d^m u / dx^m for m = 0..order, exactly, term by term.

    cosh/sinh cycle under differentiation with a factor k per order; the
    common phase exp(i k^2 z) rides along unchanged, and d_z acts term-wise
    as multiplication by i k^2. The second stack is None unless dz is set.
    """
    x = np.asarray(x, dtype=float)
    d = np.zeros((order + 1,) + x.shape, dtype=complex)
    d_z = np.zeros_like(d) if dz else None
    for t in u.terms:
        phase = np.exp(1j * t.k * t.k * z)
        ch, sh = np.cosh(t.k * x), np.sinh(t.k * x)
        for m in range(order + 1):
            if t.parity == "even":
                base = ch if m % 2 == 0 else sh
                coeff = t.amplitude
            else:
                base = sh if m % 2 == 0 else ch
                coeff = 1j * t.amplitude
            val = coeff * (t.k ** m) * base * phase
            d[m] += val
            if dz:
                d_z[m] += 1j * t.k * t.k * val
    return d, d_z


def x_derivatives(u: SeedSuperposition, x, z: float, order: int) -> np.ndarray:
    """Stack d[m] = d^m u / dx^m for m = 0..order, exactly, term by term."""
    return _derivatives(u, x, z, order, dz=False)[0]


def eval_seed(u: SeedSuperposition, x, z: float) -> DerivativeBundle:
    """Evaluate u with exact partials d_x, d_x^2 and d_z."""
    d, d_z = _derivatives(u, x, z, 2, dz=True)
    return DerivativeBundle(value=d[0], d1x=d[1], d2x=d[2], d1z=d_z[0])


def wronskian_bundle(u1: SeedSuperposition, u2: SeedSuperposition, x, z: float) -> DerivativeBundle:
    """W(u1,u2) = u1 d_x u2 - (d_x u1) u2 with exact partials.

    The x-partials collapse because the cross terms cancel:
        W'   = u1 u2'' - u1'' u2
        W''  = u1' u2'' + u1 u2''' - u1''' u2 - u1'' u2'
    """
    d1, z1 = _derivatives(u1, x, z, 3, dz=True)
    d2, z2 = _derivatives(u2, x, z, 3, dz=True)
    w = d1[0] * d2[1] - d1[1] * d2[0]
    wx = d1[0] * d2[2] - d1[2] * d2[0]
    wxx = d1[1] * d2[2] + d1[0] * d2[3] - d1[3] * d2[0] - d1[2] * d2[1]
    wz = z1[0] * d2[1] + d1[0] * z2[1] - z1[1] * d2[0] - d1[1] * z2[0]
    return DerivativeBundle(value=w, d1x=wx, d2x=wxx, d1z=wz)


def derivative_wronskian(u1: SeedSuperposition, u2: SeedSuperposition, x, z: float):
    """W(u1', u2') = u1' u2'' - u1'' u2', needed by the composite intertwiner."""
    d1 = x_derivatives(u1, x, z, 2)
    d2 = x_derivatives(u2, x, z, 2)
    return d1[1] * d2[2] - d1[2] * d2[1]
