"""Crank-Nicolson paraxial propagator and finite-difference residual oracles.

This module is deliberately independent of the analytic machinery: it
discretizes i d_z psi = (-d_x^2 + V) psi on a uniform grid and checks the
closed-form solutions from the outside. Each Crank-Nicolson step is one
call of LAPACK's tridiagonal solver zgtsv (bound from numpy's own OpenBLAS by
`lapack`) through one kernel, `_Kernel`; a march keeps one kernel's buffers and
solves into the next field's interior, bit for bit as `step` does. The power
guard measures dx * sum |psi|^2 on the Dirichlet interior.
Nothing here touches seed derivatives or mode decompositions; the residual
oracles take their 4th-order stencils from `quadrature` and discard the two
edge nodes per side that the stencils cannot reach.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import LinAlgError

from . import lapack
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
        for name in ("half_width", "dz", "z_end"):
            if not 0 < getattr(self, name) < math.inf:  # NaN included
                raise ValueError(f"{name} must be {'finite' if getattr(self, name) > 0 else 'positive'}")

    @functools.cached_property
    def x(self) -> np.ndarray:
        """The nodes, built once and frozen (`quadrature.read_only`): a march samples V on them each step."""
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


class _Kernel:
    """The step on n interior nodes by zgtsv (what `solve_banded((1, 1), ...)` calls), its buffers kept: a, diag, DL
    and DU (filled afresh per solve: zgtsv overwrites DL, and DU where it pivots), and the int64 N, NRHS = 1, INFO."""

    def __init__(self, n: int):
        self.a, self.diag, *_ = rows = np.empty((4, n), dtype=complex)
        self.bands, self.ints = rows[2:], np.array([n, 1, 0], dtype=np.int64)  # DL and DU; N, NRHS, INFO
        (self.n, nrhs, self.info), (_, diag, dl, du) = lapack.addresses(self.ints), lapack.addresses(rows)
        self.args = (self.n, nrhs, dl, diag, du)

    def __call__(self, inner, v_now, v_next, dx: float, dz: float, rhs, at: int) -> None:
        """The new interior into rhs, a contiguous buffer at `at`: the step's formula, each operation in its order."""
        a, diag = self.a, self.diag
        np.add(v_now[1:-1], v_next[1:-1], out=a)
        if not np.isfinite(a).all():  # as V_half is: halving keeps a value finite or not
            raise ValueError("potential must not contain infs or NaNs")
        lam = 1j * dz / 2.0
        np.multiply(lam, np.add(2.0 / dx**2, np.multiply(0.5, a, out=a), out=a), out=a)  # lam (2/dx^2 + V_half)
        np.add(1.0, a, out=diag)
        np.multiply(np.subtract(1.0, a, out=rhs), inner, out=rhs)
        np.multiply(lam / dx**2, inner, out=a)  # c psi, added from the left neighbour, then the right
        rhs[1:] += a[:-1]
        rhs[:-1] += a[1:]
        self.bands.fill(-(lam / dx**2))  # -i dz / (2 dx^2) beside each node
        lapack.zgtsv(*self.args, at, self.n, self.info)  # solves in rhs
        if self.ints[2] > 0:
            raise LinAlgError("singular matrix")


def step(field: np.ndarray, v_now: np.ndarray, v_next: np.ndarray, dx: float, dz: float) -> np.ndarray:
    """One Crank-Nicolson step with the potential averaged at the half step.

    (1 + i dz/2 H) psi_new = (1 - i dz/2 H) psi_old, H = -d_x^2 + V_half,
    solved by zgtsv on the interior with hard-zero Dirichlet walls (which
    keeps the scheme exactly unitary for real potentials). Second order in
    dz, dx.
    """
    out = np.zeros(field.shape, dtype=complex)
    _Kernel(out.size - 2)(field[1:-1], np.asarray(v_now), np.asarray(v_next), dx, dz, out[1:-1], out[1:].ctypes.data)
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
    x, dx = grid.x, grid.dx
    if not grid.cfl_ok():
        import warnings

        warnings.warn(f"dz = {grid.dz:g} exceeds dx = {dx:g}; accuracy may suffer",
                      RuntimeWarning, stacklevel=2)
    psi = np.asarray(initial(x) if callable(initial) else initial, dtype=complex).copy()
    if psi.shape != x.shape:
        raise ValueError("initial field does not match the grid")
    if not np.isfinite(psi).all():
        raise ValueError("initial field must be finite")
    targets = sorted(float(zz) for zz in snapshot_zs)
    if not all(math.isfinite(zz) and zz >= 0 for zz in targets):
        raise ValueError(f"snapshot z must be finite and >= 0, got {targets}")
    p0 = float(np.trapezoid(np.abs(psi) ** 2, x))
    out: list[FieldSnapshot] = []
    z = 0.0
    ti = 0
    while ti < len(targets) and targets[ti] <= z + grid.dz * 1e-9:
        out.append(FieldSnapshot(z=targets[ti], samples=psi.copy()))
        ti += 1
    # kept for the march: both fields (the next one's walls stay zero), each with its interior and that one's address
    kernel, march = _Kernel(psi.size - 2), [(f, f[1:-1], f[1:-1].ctypes.data) for f in (psi, np.zeros_like(psi))]
    psi[0] = psi[-1] = 0.0  # the walls enter no step, and every step leaves them zero
    v_now = np.asarray(potential(x, z))
    while ti < len(targets):
        dz = min(grid.dz, targets[ti] - z)
        v_next = np.asarray(potential(x, z + dz))
        (_, inner, _), (psi, new, at) = march
        kernel(inner, v_now, v_next, dx, dz, new, at)
        march.reverse()
        z += dz
        v_now = v_next
        p = dx * np.vdot(new, new).real  # the trapezoid rule: the walls are zeros
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
