"""Quadrature rules over symmetric transverse windows [-L, L].

All integrals in the artifact run over the real line against fields with
sech-type decay; the window half-width defaults to 12 / min|k| which puts
the truncated tails below 1e-12 of the integrand scale. Simpson is the
workhorse (uniform grid, reused for the 4th-order finite-difference
stencils below); composite Gauss-Legendre is available where spectral
accuracy pays off (overlap integrals, matrix elements). Both the exact and
the tight-binding engines build their localized left/right modes with
`localized_combos`, so the two are labelled the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = ["QuadratureSpec", "quad_nodes", "integrate", "certify_tail", "default_spec",
           "localized_combos", "d1_fourth", "d2_fourth"]

RULES = ("trapezoid", "simpson", "gauss_legendre_composite")


@dataclass(frozen=True)
class QuadratureSpec:
    half_width: float
    nodes: int = 4096
    rule: str = "simpson"
    tail_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.nodes < 64:
            raise ValueError("need at least 64 quadrature nodes")
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}")


def default_spec(min_k: float, **overrides) -> QuadratureSpec:
    """The window rule: half-width 12 / |min_k|, min_k the slowest decay rate."""
    spec = QuadratureSpec(half_width=12.0 / abs(min_k))
    return replace(spec, **overrides) if overrides else spec


def quad_nodes(spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights; symmetric about 0 for every rule."""
    L = spec.half_width
    if spec.rule in ("trapezoid", "simpson"):
        n = spec.nodes
        if spec.rule == "simpson" and n % 2 == 0:
            n += 1  # Simpson needs an even interval count
        x = np.linspace(-L, L, n)
        h = x[1] - x[0]
        w = np.full(n, h)
        if spec.rule == "trapezoid":
            w[0] = w[-1] = h / 2
        else:
            w[:] = 0.0
            w[0] = w[-1] = h / 3
            w[1:-1:2] = 4 * h / 3
            w[2:-1:2] = 2 * h / 3
        return x, w
    # composite Gauss-Legendre: ~16 points per panel, even panel count
    panels = max(2, 2 * (spec.nodes // 32))
    order = 16
    xs, ws = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-L, L, panels + 1)
    a, b = edges[:-1], edges[1:]
    x = (0.5 * (b - a)[:, None] * xs[None, :] + 0.5 * (a + b)[:, None]).ravel()
    w = (0.5 * (b - a)[:, None] * ws[None, :]).ravel()
    return x, w


def integrate(f: Callable[[np.ndarray], np.ndarray], spec: QuadratureSpec) -> complex:
    x, w = quad_nodes(spec)
    return complex(np.sum(w * np.asarray(f(x))))


def certify_tail(f: Callable[[np.ndarray], np.ndarray], spec: QuadratureSpec) -> tuple[bool, float]:
    """Estimate |integral over L < |x| < 2L| by doubling the window."""
    wide = replace(spec, half_width=2 * spec.half_width)
    tail = abs(integrate(f, wide) - integrate(f, spec))
    return tail <= spec.tail_tol, float(tail)


def localized_combos(superpose: Callable[[int], np.ndarray], x: np.ndarray,
                     w: np.ndarray) -> dict[str, tuple[int, float]]:
    """Label the two superpositions even + s * odd (s = +-1) by the sign of <x>.

    `superpose(s)` returns that superposition on the nodes x (weights w);
    each engine sums its own way. Returns {"left"|"right": (s, 1/sqrt(P))}
    with P the Dirac power of the superposition.
    """
    combos = {}
    for sign in (+1, -1):
        f = superpose(sign)
        power = float(np.sum(w * np.abs(f) ** 2).real)
        xmean = float(np.sum(w * x * np.abs(f) ** 2).real) / power
        combos["right" if xmean > 0 else "left"] = (sign, 1.0 / math.sqrt(power))
    if len(combos) != 2:
        raise RuntimeError("could not label left/right modes by <x>")
    return combos


def d1_fourth(f: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """4th-order central d/dx along `axis` of a uniform grid; two edge nodes per side are 0."""
    f = np.moveaxis(f, axis, 0)
    out = np.zeros_like(f)
    out[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    return np.moveaxis(out, 0, axis)


def d2_fourth(f: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """4th-order central d^2/dx^2 along `axis` of a uniform grid; two edge nodes per side are 0."""
    f = np.moveaxis(f, axis, 0)
    out = np.zeros_like(f)
    out[2:-2] = (-f[:-4] + 16 * f[1:-3] - 30 * f[2:-2] + 16 * f[3:-1] - f[4:]) / (12 * h * h)
    return np.moveaxis(out, 0, axis)
