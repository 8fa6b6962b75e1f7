"""First- and second-order Darboux machinery over hyperbolic seeds.

Potentials come from log-derivatives of the seed (first order) or of the
seed Wronskian (second order); guided modes come from the intertwining
operators A1 and L12. The arbitrary longitudinal gauge functions are fixed
to 1 throughout, so no i d_z ln(l) terms appear.

The regularity scan takes blocks of z rows at once: cosh/sinh once per x set, a phase per row.

Symmetry checks are performed on the induced potential directly (max |Im V|
for Hermiticity, max |V - conj(V o parity)| for the PT variants) rather
than on the third-derivative logarithmic conditions, which are equivalent
at regular points but numerically ill-conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .seeds import SeedSuperposition, stack_wronskian, x_derivatives

__all__ = [
    "SingularPointError",
    "SymmetryResidual",
    "RegularityScan",
    "first_order_potential",
    "second_order_potential",
    "apply_A1",
    "apply_L12",
    "symmetry_residual",
    "regularity_scan",
    "SYMMETRY_KINDS",
]

# A point counts as a node when the (seed or Wronskian) value is this many
# orders below the magnitude of the terms that formed it, i.e. the value
# survives only through catastrophic cancellation.
NODE_RTOL = 1e-10

REFINE_LEVELS = 12  # zoom levels (factor 8 each) of regularity_scan's argmin refinement
SCAN_BLOCK = 768  # (z, x) points regularity_scan evaluates at once, in whole z rows


class SingularPointError(ValueError):
    """Evaluation hit a node of the transformation seed / Wronskian."""


def _seed_scale(v: SeedSuperposition, x):
    """sum |a| cosh(k x): the magnitude of the terms that form the seed."""
    return sum(abs(t.amplitude) * np.cosh(t.k * np.asarray(x, float)) for t in v.terms)


def _wronskian_scale(d1, d2):
    """|u1 u2'| + |u1' u2|: the magnitude of the two products that form W(u1, u2)."""
    return np.abs(d1[0] * d2[1]) + np.abs(d1[1] * d2[0])


def _check_nodes(value, scale, what: str) -> None:
    bad = np.abs(value) < NODE_RTOL * np.abs(scale)
    if np.any(bad):
        raise SingularPointError(f"{what} vanishes at an evaluation point (node)")


def first_order_potential(v: SeedSuperposition, x, *, z: float = 0.0):
    """V1 = -2 d_x^2 ln v = -2 (v''/v - (v'/v)^2); V0 = 0 background."""
    d = x_derivatives(v, x, z, 2)
    _check_nodes(d[0], _seed_scale(v, x), "seed")
    r1 = d[1] / d[0]
    return -2.0 * (d[2] / d[0] - r1 * r1)


def _wronskian(u1: SeedSuperposition, u2: SeedSuperposition, x, z: float):
    """(W with its x-partials, d1, d2) from each seed's order-3 stack, evaluated once; refuses a node of W."""
    d1, d2 = x_derivatives(u1, x, z, 3), x_derivatives(u2, x, z, 3)
    wb = stack_wronskian(d1, d2)
    _check_nodes(wb.value, _wronskian_scale(d1, d2), "Wronskian")
    return wb, d1, d2


def second_order_potential(u1: SeedSuperposition, u2: SeedSuperposition, x, z: float = 0.0):
    """V2 = -2 d_x^2 ln W(u1,u2) = -2 (W''/W - (W'/W)^2)."""
    wb, _, _ = _wronskian(u1, u2, x, z)
    r1 = wb.d1x / wb.value
    return -2.0 * (wb.d2x / wb.value - r1 * r1)


def apply_A1(v: SeedSuperposition, f: SeedSuperposition, x, *, z: float = 0.0):
    """First-order intertwiner: (A1 f)(x) = f' - (v'/v) f."""
    dv = x_derivatives(v, x, z, 1)
    df = x_derivatives(f, x, z, 1)
    _check_nodes(dv[0], _seed_scale(v, x), "seed")
    return df[1] - (dv[1] / dv[0]) * df[0]


def apply_L12(u1: SeedSuperposition, u2: SeedSuperposition, f: SeedSuperposition, x, z: float = 0.0):
    """Composite intertwiner: [W f'' - W' f' + W(u1',u2') f] / W."""
    wb, d1, d2 = _wronskian(u1, u2, x, z)
    wp = d1[1] * d2[2] - d1[2] * d2[1]  # W(u1', u2')
    df = x_derivatives(f, x, z, 2)
    return (wb.value * df[2] - wb.d1x * df[1] + wp * df[0]) / wb.value


SYMMETRY_KINDS = (
    "hermitian_1st",
    "PxT_1st",
    "P2T_1st",
    "hermitian_2nd",
    "P2T_2nd",
    "stationary_hermitian",
    "stationary_PxT",
)


@dataclass(frozen=True)
class SymmetryResidual:
    kind: str
    max_abs_residual: float
    grid: str


def symmetry_residual(
    kind: str,
    u1: SeedSuperposition,
    u2: Optional[SeedSuperposition] = None,
    *,
    x_grid: Sequence[float],
    z_grid: Sequence[float] = (0.0,),
) -> SymmetryResidual:
    """Max deviation of the induced potential from the selected symmetry.

    First-order kinds use V1 from u1 alone; `_2nd` kinds use V2 from
    (u1,u2); `stationary_*` kinds evaluate the second-order potential at
    z=0 only. Grids must avoid nodes (SingularPointError otherwise).
    """
    if kind not in SYMMETRY_KINDS:
        raise ValueError(f"unknown symmetry kind {kind!r}")
    x = np.asarray(x_grid, dtype=float)
    if kind.startswith("stationary_"):
        z = np.array([0.0])
    else:
        z = np.asarray(z_grid, dtype=float)

    second = kind in ("hermitian_2nd", "P2T_2nd") or kind.startswith("stationary_")
    if second and u2 is None:
        raise ValueError(f"kind {kind!r} needs two transformation functions")

    def V(xv, zv: float):
        if second:
            return second_order_potential(u1, u2, xv, zv)
        return first_order_potential(u1, xv, z=zv)

    res = 0.0
    for zz in z:
        v = V(x, float(zz))
        if kind in ("hermitian_1st", "hermitian_2nd", "stationary_hermitian"):
            r = np.abs(v.imag)
        elif kind in ("PxT_1st", "stationary_PxT"):
            r = np.abs(v - np.conj(V(-x, float(zz))))
        else:  # P2T
            r = np.abs(v - np.conj(V(-x, float(-zz))))
        res = max(res, float(np.max(r)))
    return SymmetryResidual(kind=kind, max_abs_residual=res,
                            grid=f"x[{x[0]:g},{x[-1]:g}]x{len(x)} z x{len(z)}")


@dataclass(frozen=True)
class RegularityScan:
    min_abs_w: float
    argmin: tuple[float, float]
    nodeless: bool


def regularity_scan(
    u1: SeedSuperposition,
    u2: SeedSuperposition,
    x_range: tuple[float, float],
    z_range: tuple[float, float],
    n_points: int = 801,
) -> RegularityScan:
    """Scan the Wronskian for nodes; verdict against a pointwise scale.

    |W| is compared pointwise with the magnitude sum of the two products that form it
    (|u1 u2'| + |u1' u2|): at a node the ratio collapses to cancellation level while a healthy
    hyperbolic Wronskian keeps it O(1), no matter how fast the factors grow across the window. The
    ratio minimum is zoom-refined (factor 8 per level) around the running argmin — twelve levels
    push a genuine zero crossing ten orders below the coarse spacing, far beyond the verdict floor,
    while a positive minimum stalls at its true value. A coarse argmin on an x edge is zoomed, and so
    is the smallest coarse minimum along x inside the window, the smaller result kept: a node region
    crossing the edge would otherwise pull the zoom away from nodes inside. It sees only x_range: a
    node past it (a modulated pair whose rho peaks at |x| > 10) passes the scan.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2 per axis")

    def scan(xv, zv, best, inside=False):
        """`best` = (ratio, |W|, x, z) updated by the rows zv over xv, row by row: a row counts at its first
        minimum (`inside`: along x, off the edges; not at all if NaN), and only when strictly below the best."""
        # each term's u, u' at z = 0, once per x set: on a row z it takes its phase exp(i k^2 z),
        # and the terms add up in order, as `x_derivatives` forms them
        terms = [[(1j * t.k * t.k, x_derivatives(SeedSuperposition((t,)), xv, 0.0, 1)) for t in u.terms]
                 for u in (u1, u2)]
        step = max(1, SCAN_BLOCK // len(xv))
        for i in range(0, len(zv), step):
            d1, d2 = (sum(d[:, None] * np.exp(rate * zv[i:i + step])[:, None] for rate, d in tu) for tu in terms)
            p, q = d1[0] * d2[1], d1[1] * d2[0]  # the products `_wronskian_scale` sums
            del d1, d2
            w = np.abs(p - q)
            r = w / (np.abs(p) + np.abs(q))
            if inside:
                r = np.where(np.pad((r[:, 1:-1] <= r[:, :-2]) & (r[:, 1:-1] <= r[:, 2:]), ((0, 0), (1, 1))), r, np.inf)
            m = r.min(axis=1)
            row = int(np.argmin(np.where(np.isnan(m), np.inf, m)))
            if m[row] < best[0]:
                j = int(np.argmin(r[row]))
                best = (float(m[row]), float(w[row, j]), float(xv[j]), float(zv[i + row]))
        return best

    xs = np.linspace(x_range[0], x_range[1], n_points)
    single_z = z_range[0] == z_range[1]
    zs = np.array([z_range[0]]) if single_z else np.linspace(z_range[0], z_range[1], n_points)

    def zoom(best):
        hx, hz = xs[1] - xs[0], 0.0 if single_z else zs[1] - zs[0]
        for _ in range(REFINE_LEVELS):
            bx, bz = best[2:]
            lzs = np.array([bz]) if single_z else np.clip(np.linspace(bz - hz, bz + hz, 17), z_range[0], z_range[1])
            best = scan(np.clip(np.linspace(bx - hx, bx + hx, 17), x_range[0], x_range[1]), lzs, best)
            hx, hz = hx / 8.0, hz / 8.0
        return best

    coarse = scan(xs, zs, (math.inf, math.inf, 0.0, 0.0))
    best = zoom(coarse)
    if coarse[2] in (xs[0], xs[-1]):  # a node region across the edge pulls the argmin there
        inner = scan(xs, zs, (math.inf, math.inf, 0.0, 0.0), inside=True)
        inner = zoom(inner) if math.isfinite(inner[0]) else inner
        best = inner if inner[0] < best[0] else best
    return RegularityScan(min_abs_w=best[1], argmin=best[2:], nodeless=bool(best[0] >= NODE_RTOL))
