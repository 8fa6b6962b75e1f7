"""Crank-Nicolson paraxial propagator and finite-difference residual oracles.

This module is deliberately independent of the analytic machinery: it
discretizes i d_z psi = (-d_x^2 + V) psi on a uniform grid and checks the
closed-form solutions from the outside. Each Crank-Nicolson step is one
call of LAPACK's tridiagonal solver `gtsv`, and the power guard measures
dx * sum |psi|^2 on the Dirichlet interior. Nothing here touches seed
derivatives or mode decompositions; the residual oracles take their
4th-order stencils from `quadrature` and discard the two edge nodes per
side that the stencils cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .quadrature import d1_five, d2_fourth, read_only

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
# the tridiagonal solver `solve_banded((1, 1), ...)` dispatches to, without its wrappers
_GTSV, = get_lapack_funcs(("gtsv",), (np.zeros(1, complex),))


class PropagationUnstable(RuntimeError):
    pass


@dataclass(frozen=True)
class PropagationGrid:
    half_width: float
    nx: int
    dz: float
    z_end: float = 1.0

    def __post_init__(self) -> None:
        if self.nx < 256:
            raise ValueError("need nx >= 256")
        if not self.dz > 0:  # NaN included
            raise ValueError("dz must be positive")

    @property
    def x(self) -> np.ndarray:
        """The nodes, frozen (`quadrature.read_only`): a march samples V on them at every step."""
        return read_only(np.linspace(-self.half_width, self.half_width, self.nx))

    @property
    def dx(self) -> float:
        return 2 * self.half_width / (self.nx - 1)

    def cfl_ok(self) -> bool:
        return self.dz <= self.dx


@dataclass(frozen=True)
class FieldSnapshot:
    z: float
    samples: np.ndarray


def step(field: np.ndarray, v_now: np.ndarray, v_next: np.ndarray, dx: float, dz: float) -> np.ndarray:
    """One Crank-Nicolson step with the potential averaged at the half step.

    (1 + i dz/2 H) psi_new = (1 - i dz/2 H) psi_old, H = -d_x^2 + V_half,
    solved by `gtsv` on the interior with hard-zero Dirichlet walls (which
    keeps the scheme exactly unitary for real potentials). Second order in
    dz, dx.
    """
    v_half = 0.5 * (np.asarray(v_now) + np.asarray(v_next))[1:-1]
    if not np.isfinite(v_half).all():
        raise ValueError("potential must not contain infs or NaNs")
    inner = field[1:-1]
    lam = 1j * dz / 2.0
    a = lam * (2.0 / dx**2 + v_half)
    diag = 1.0 + a
    c = lam / dx**2
    rhs = (1.0 - a) * inner
    rhs[1:] += c * inner[:-1]
    rhs[:-1] += c * inner[1:]
    off = np.full(inner.shape[0] - 1, -c)
    *_, sol, info = _GTSV(off, diag, off, rhs)  # copies its inputs before factorising
    if info > 0:
        raise LinAlgError("singular matrix")
    out = np.zeros(field.shape, dtype=complex)
    out[1:-1] = sol
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
    if not np.isfinite(psi).all():
        raise ValueError("initial field must be finite")
    p0 = float(np.trapezoid(np.abs(psi) ** 2, x))
    targets = sorted(float(zz) for zz in snapshot_zs)
    out: list[FieldSnapshot] = []
    z = 0.0
    ti = 0
    while ti < len(targets) and targets[ti] <= z + grid.dz * 1e-9:
        out.append(FieldSnapshot(z=targets[ti], samples=psi.copy()))
        ti += 1
    v_now = np.asarray(potential(x, z))
    while ti < len(targets):
        dz = min(grid.dz, targets[ti] - z)
        v_next = np.asarray(potential(x, z + dz))
        psi = step(psi, v_now, v_next, grid.dx, dz)
        z += dz
        v_now = v_next
        p = grid.dx * np.vdot(psi[1:-1], psi[1:-1]).real  # the trapezoid rule: the walls are zeros
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
):
    """max |i d_z psi + d_x^2 psi - V psi| over the interior of the grid.

    4th-order stencils in x and z; the z window is [0, z_end] sampled at
    nz >= 5 points. The march keeps psi at the last five z only (O(nx)
    memory) and samples V at the nz - 4 interior z once for every row `state`
    stacks on leading axes; returns each row's worst (a float for one field).
    """
    if nz < 5:
        raise ValueError(f"nz must be at least 5 (the z stencil spans five samples), got {nz}")
    x = grid.x
    zs = np.linspace(0.0, grid.z_end, nz)
    hz = zs[1] - zs[0]
    window: list[np.ndarray] = []  # psi at the last five z
    worst = np.float64(0.0)
    for i, z in enumerate(zs):
        window = window[-4:] + [np.asarray(state(x, float(z)))]
        if i < 4:
            continue
        dzpsi = d1_five(window[0], window[1], window[3], window[4], hz)
        v = np.asarray(potential(x, float(zs[i - 2])))
        res = 1j * dzpsi + d2_fourth(window[2], grid.dx) - v * window[2]
        worst = np.maximum(worst, np.max(np.abs(res[..., 2:-2]), axis=-1))  # a NaN row stays NaN
    return float(worst) if worst.ndim == 0 else worst


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
