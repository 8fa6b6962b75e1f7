"""Crank-Nicolson paraxial propagator and finite-difference residual oracles.

This module is deliberately independent of the analytic machinery: it
discretizes i d_z psi = (-d_x^2 + V) psi on a uniform grid and checks the
closed-form solutions from the outside. Nothing here touches seed
derivatives or mode decompositions; the residual oracles take their
4th-order stencils from `quadrature` and discard the two edge nodes per
side that the stencils cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .quadrature import d1_fourth, d2_fourth

__all__ = [
    "PropagationGrid",
    "FieldSnapshot",
    "step",
    "propagate",
    "pde_residual",
    "eigen_residual",
    "PropagationUnstable",
]

POWER_BLOWUP = 1e6


class PropagationUnstable(RuntimeError):
    pass


@dataclass(frozen=True)
class AbsorbingLayer:
    width: float
    strength: float


@dataclass(frozen=True)
class PropagationGrid:
    half_width: float
    nx: int = 2048
    dz: float = 0.01
    z_end: float = 1.0
    boundary: str = "dirichlet_zero"  # or "transparent_absorbing_layer"
    absorber: Optional[AbsorbingLayer] = None

    def __post_init__(self) -> None:
        if self.nx < 256:
            raise ValueError("need nx >= 256")
        if self.dz <= 0:
            raise ValueError("dz must be positive")
        if self.boundary not in ("dirichlet_zero", "transparent_absorbing_layer"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.boundary == "transparent_absorbing_layer" and self.absorber is None:
            raise ValueError("absorbing boundary needs an AbsorbingLayer")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.nx)

    @property
    def dx(self) -> float:
        return 2 * self.half_width / (self.nx - 1)

    def cfl_ok(self) -> bool:
        return self.dz <= self.dx


@dataclass(frozen=True)
class FieldSnapshot:
    z: float
    samples: np.ndarray


def _absorber_potential(grid: PropagationGrid) -> np.ndarray:
    """Quartic-ramp imaginary potential switched on near the walls."""
    if grid.boundary != "transparent_absorbing_layer":
        return np.zeros(grid.nx)
    x = grid.x
    layer = grid.absorber
    xa = grid.half_width - layer.width
    ramp = np.clip((np.abs(x) - xa) / layer.width, 0.0, 1.0)
    return -1j * layer.strength * ramp**4


def step(field: np.ndarray, v_now: np.ndarray, v_next: np.ndarray, dx: float, dz: float) -> np.ndarray:
    """One Crank-Nicolson step with the potential averaged at the half step.

    (1 + i dz/2 H) psi_new = (1 - i dz/2 H) psi_old, H = -d_x^2 + V_half,
    solved on the interior with hard-zero Dirichlet walls (which keeps the
    scheme exactly unitary for real potentials). Second order in dz, dx.
    """
    v_half = 0.5 * (np.asarray(v_now) + np.asarray(v_next))[1:-1]
    inner = field[1:-1]
    n = inner.shape[0]
    lam = 1j * dz / 2.0
    off = -lam / dx**2
    diag = 1.0 + lam * (2.0 / dx**2 + v_half)
    rhs = (1.0 - lam * (2.0 / dx**2 + v_half)) * inner
    rhs[1:] += lam / dx**2 * inner[:-1]
    rhs[:-1] += lam / dx**2 * inner[1:]
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = off
    ab[1, :] = diag
    ab[2, :-1] = off
    out = np.zeros_like(field, dtype=complex)
    out[1:-1] = solve_banded((1, 1), ab, rhs)
    return out


def propagate(
    initial,
    potential: Callable[[np.ndarray, float], np.ndarray],
    grid: PropagationGrid,
    snapshot_zs: Sequence[float],
) -> list[FieldSnapshot]:
    """March from z=0 to max(snapshot_zs), recording requested snapshots.

    `initial` is an array on grid.x or a callable of x. The potential is
    sampled per step; snapshots land on the nearest step boundary (the
    step size divides the snapshot spacing in normal use).
    """
    x = grid.x
    if not grid.cfl_ok():
        import warnings

        warnings.warn(f"dz = {grid.dz:g} exceeds dx = {grid.dx:g}; accuracy may suffer",
                      RuntimeWarning, stacklevel=2)
    psi = np.asarray(initial(x) if callable(initial) else initial, dtype=complex).copy()
    if psi.shape != x.shape:
        raise ValueError("initial field does not match the grid")
    absorb = _absorber_potential(grid)
    p0 = float(np.trapezoid(np.abs(psi) ** 2, x))
    targets = sorted(float(zz) for zz in snapshot_zs)
    out: list[FieldSnapshot] = []
    z = 0.0
    ti = 0
    while ti < len(targets) and targets[ti] <= z + grid.dz * 1e-9:
        out.append(FieldSnapshot(z=targets[ti], samples=psi.copy()))
        ti += 1
    v_now = np.asarray(potential(x, z)) + absorb
    while ti < len(targets):
        dz = min(grid.dz, targets[ti] - z)
        v_next = np.asarray(potential(x, z + dz)) + absorb
        psi = step(psi, v_now, v_next, grid.dx, dz)
        z += dz
        v_now = v_next
        p = float(np.trapezoid(np.abs(psi) ** 2, x))
        if not np.isfinite(p) or p > POWER_BLOWUP * p0:
            raise PropagationUnstable(f"power grew to {p / p0:.3e} x initial at z={z:.3f}")
        if targets[ti] - z <= grid.dz * 1e-9:
            out.append(FieldSnapshot(z=targets[ti], samples=psi.copy()))
            ti += 1
    return out


# ---------------------------------------------------------------------------
# residual oracles (4th-order central stencils)
# ---------------------------------------------------------------------------

def pde_residual(
    state: Callable[[np.ndarray, float], np.ndarray],
    potential: Callable[[np.ndarray, float], np.ndarray],
    grid: PropagationGrid,
    *,
    nz: int = 33,
) -> float:
    """max |i d_z psi + d_x^2 psi - V psi| over the interior of the grid.

    4th-order stencils in x and z; the z window is [0, z_end] sampled at
    nz points. This is the module's core oracle for the dynamic modes.
    """
    x = grid.x
    zs = np.linspace(0.0, grid.z_end, nz)
    hz = zs[1] - zs[0]
    psi = np.stack([np.asarray(state(x, float(z))) for z in zs])  # (nz, nx)
    v = np.stack([np.asarray(potential(x, float(z))) for z in zs])
    dzpsi = d1_fourth(psi, hz, axis=0)
    dxx = d2_fourth(psi, grid.dx, axis=1)
    res = 1j * dzpsi + dxx - v * psi
    core = res[2:-2, 2:-2]
    return float(np.max(np.abs(core)))


def eigen_residual(
    mode: Callable[[np.ndarray], np.ndarray],
    potential: Callable[[np.ndarray], np.ndarray],
    energy: float,
    x: np.ndarray,
) -> float:
    """max |(-d_x^2 + V - E) phi| on the interior of a uniform grid."""
    x = np.asarray(x, dtype=float)
    h = x[1] - x[0]
    f = np.asarray(mode(x))
    d2 = d2_fourth(f, h)
    res = -d2 + (np.asarray(potential(x)) - energy) * f
    return float(np.max(np.abs(res[2:-2])))
