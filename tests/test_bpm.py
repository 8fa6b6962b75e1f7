import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from susytb.bpm import (
    PropagationGrid,
    PropagationUnstable,
    eigen_residual,
    pde_residual,
    propagate,
    step,
)
from susytb.quadrature import d1_fourth, d2_fourth

from conftest import potential_pt_dynamic_complex


def _grid(**kw):
    base = dict(half_width=16.0, nx=2048, dz=0.01, z_end=1.0)
    base.update(kw)
    return PropagationGrid(**base)


def test_grid_validation():
    with pytest.raises(ValueError):
        _grid(nx=64)
    for dz in (0.0, -0.01, math.nan):
        with pytest.raises(ValueError):
            _grid(dz=dz)
    assert _grid().cfl_ok()
    assert not _grid(dz=1.0).cfl_ok()


@pytest.mark.parametrize("field", ["half_width", "dz", "z_end"])
@pytest.mark.parametrize("value, message", [(0.0, "positive"), (-1.0, "positive"), (math.nan, "positive"),
                                            (-math.inf, "positive"), (math.inf, "finite")])
def test_grid_refuses_a_length_that_is_not_positive_and_finite(field, value, message):
    with pytest.raises(ValueError, match=f"^{field} must be {message}$"):
        _grid(**{field: value})


@pytest.mark.parametrize("zs", [[math.nan], [0.5, math.nan], [-1.0], [0.0, -0.01], [math.inf]],
                         ids=["nan", "nan-after-0.5", "negative", "negative-after-0", "inf"])
def test_propagate_refuses_a_snapshot_z_that_is_not_finite_and_non_negative(zs):
    """A NaN or infinite target would march forever, and a negative one was returned as the z = 0 field."""
    with pytest.raises(ValueError, match="snapshot z must be finite and >= 0"):
        propagate(lambda xx: np.exp(-xx**2) + 0j, lambda xx, zz: np.zeros_like(xx), _grid(nx=256), zs)


def test_free_gaussian_spreading_law():
    """<x^2>(z) = s0^2/2 + 2 z^2 / s0^2 for psi0 = exp(-x^2 / (2 s0^2))."""
    s0 = 2.0
    grid = _grid(dz=0.005, z_end=2.0)
    x = grid.x
    free = lambda xx, zz: np.zeros_like(xx)
    snaps = propagate(lambda xx: np.exp(-xx**2 / (2 * s0**2)) + 0j, free, grid, [0.5, 1.0, 2.0])
    for snap in snaps:
        f = snap.samples
        x2 = np.trapezoid(x**2 * np.abs(f) ** 2, x) / np.trapezoid(np.abs(f) ** 2, x)
        expected = s0**2 / 2 + 2 * snap.z**2 / s0**2
        assert abs(x2 - expected) / expected < 1e-4


def test_unitarity_with_real_potential(herm_system):
    grid = _grid()
    x = grid.x
    v = np.real(herm_system.potential(x, 0.0))
    f = herm_system.mode("left", x, 0.0).astype(complex)
    f[0] = f[-1] = 0.0  # consistent Dirichlet data
    p_prev = float(np.sum(np.abs(f) ** 2))
    for _ in range(50):
        f = step(f, v, v, grid.dx, grid.dz)
        p = float(np.sum(np.abs(f) ** 2))
        assert abs(p - p_prev) / p_prev < 1e-12
        p_prev = p


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # coarse dz on purpose
def test_second_order_in_dz(herm_system):
    grid_kw = dict(half_width=16.0, nx=1024, z_end=2.0)
    x = PropagationGrid(dz=0.1, **grid_kw).x
    init = herm_system.mode("left", x, 0.0)
    pot = lambda xx, zz: herm_system.potential(xx, 0.0)

    def terminal(dz):
        g = PropagationGrid(dz=dz, **grid_kw)
        return propagate(init, pot, g, [2.0])[-1].samples

    ref = terminal(0.005)
    e_coarse = np.linalg.norm(terminal(0.08) - ref)
    e_fine = np.linalg.norm(terminal(0.04) - ref)
    assert 3.0 < e_coarse / e_fine < 6.0


def test_tracks_hermitian_beat(herm_system):
    t = herm_system.periods().fundamental
    grid = _grid(half_width=12.0 / herm_system.min_k, z_end=t)
    x = grid.x
    snaps = propagate(lambda xx: herm_system.mode("left", xx, 0.0),
                      lambda xx, zz: herm_system.potential(xx, 0.0), grid, [t])
    num = snaps[-1].samples
    ana = herm_system.mode("left", x, t)
    err = math.sqrt(float(np.trapezoid(np.abs(num - ana) ** 2, x)))
    assert err < 1e-3


def test_pt_stationary_mode_shape_invariant(pt_system):
    grid = _grid(half_width=12.0 / pt_system.min_k, z_end=3.0)
    x = grid.x
    snaps = propagate(lambda xx: pt_system.mode("ground", xx, 0.0),
                      pt_system.potential, grid, [3.0])
    num = np.abs(snaps[-1].samples)
    ana = np.abs(pt_system.mode("ground", x, 0.0))
    assert math.sqrt(float(np.trapezoid((num - ana) ** 2, x))) < 1e-3


def test_dynamic_floquet_recurrence(dyn_system):
    t_v = dyn_system.periods().fundamental
    grid = _grid(half_width=12.0 / dyn_system.min_k, z_end=t_v)
    x = grid.x
    snaps = propagate(lambda xx: dyn_system.mode("floquet1", xx, 0.0),
                      dyn_system.potential, grid, [t_v])
    num = np.abs(snaps[-1].samples)
    ana = np.abs(dyn_system.mode("floquet1", x, 0.0))  # intensity recurs after T_V
    assert math.sqrt(float(np.trapezoid((num - ana) ** 2, x))) < 5e-3


def _step_banded(field, v_now, v_next, dx, dz):
    """The CN step as it was written on `solve_banded`: the bit-level reference."""
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


def test_step_is_bit_identical_to_the_banded_solve(dyn_system, rng):
    t_v = dyn_system.periods().fundamental
    grid = _grid(half_width=12.0 / dyn_system.min_k, z_end=t_v)
    x = grid.x
    field = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    field[0] = field[-1] = 0.0
    z = 1.234
    for dz in (grid.dz, t_v % grid.dz):  # a regular step and a shortened final one
        v_now, v_next = dyn_system.potential(x, z), dyn_system.potential(x, z + dz)
        new = step(field, v_now, v_next, grid.dx, dz)
        assert np.array_equal(new, _step_banded(field, v_now, v_next, grid.dx, dz))
        assert new[0] == new[-1] == 0.0


def test_propagate_is_bit_identical_to_a_march_of_steps(dyn_system):
    """The march keeps its buffers and its off-diagonals; its snapshots are those of `step` called in turn,
    shortened steps onto the targets included, on V as the complex closed form gives it."""
    grid = _grid(half_width=12.0 / dyn_system.min_k, nx=512)
    x = grid.x
    potential = lambda xx, zz: potential_pt_dynamic_complex(dyn_system.params, xx, zz)
    init = dyn_system.mode("left", x, 0.0) + 1e-3  # non-zero walls: each step writes zeros there
    targets = [0.0, 0.25, 0.2537, 0.4, 0.41]
    snaps = propagate(init, potential, grid, targets)
    psi, z = init, 0.0
    for snap, target in zip(snaps, targets):
        while target - z > grid.dz * 1e-9:
            dz = min(grid.dz, target - z)
            psi = step(psi, potential(x, z), potential(x, z + dz), grid.dx, dz)
            z += dz
        assert snap.z == target and np.array_equal(snap.samples, psi), target
    assert len(snaps) == len(targets)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nx=st.integers(256, 1024),
       half_width=st.floats(2.0, 20.0), dz=st.floats(1e-3, 0.1), depth=st.floats(0.0, 5.0))
def test_cn_conserves_power_for_a_real_potential(seed, nx, half_width, dz, depth):
    gen = np.random.default_rng(seed)
    grid = PropagationGrid(half_width=half_width, nx=nx, dz=dz)
    v = -depth * gen.random(nx)
    f = gen.standard_normal(nx) + 1j * gen.standard_normal(nx)
    f[0] = f[-1] = 0.0
    p0 = grid.dx * float(np.sum(np.abs(f) ** 2))
    for _ in range(20):
        f = step(f, v, v, grid.dx, grid.dz)
    assert abs(grid.dx * float(np.sum(np.abs(f) ** 2)) / p0 - 1.0) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_potential_is_refused(bad):
    grid = _grid(z_end=0.05)
    x = grid.x
    v = np.zeros_like(x)
    v[x.size // 3] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        step(np.exp(-x**2) + 0j, v, np.zeros_like(x), grid.dx, grid.dz)
    with pytest.raises(ValueError, match="infs or NaNs"):
        propagate(lambda xx: np.exp(-xx**2) + 0j, lambda xx, zz: v, grid, [0.05])


def test_non_finite_initial_field_is_refused():
    grid = _grid(z_end=0.05)
    init = np.exp(-grid.x**2) + 0j
    init[100] = math.nan
    with pytest.raises(ValueError, match="initial field must be finite"):
        propagate(init, lambda xx, zz: np.zeros_like(xx), grid, [0.05])


def test_instability_detector():
    grid = _grid(z_end=3.0)
    # Im V > 0 amplifies in the i psi_z = -psi_xx + V psi convention
    gain = lambda xx, zz: 5j * np.ones_like(xx)
    with pytest.raises(PropagationUnstable):
        propagate(lambda xx: np.exp(-xx**2) + 0j, gain, grid, [3.0])


def test_pde_residual_negative_control(dyn_system):
    grid = PropagationGrid(half_width=12.0 / dyn_system.min_k, nx=2049, dz=0.01, z_end=2.0)
    good = pde_residual(lambda x, z: dyn_system.mode("floquet1", x, z),
                        dyn_system.potential, grid, nz=129)
    assert good < 1e-6
    wrong = pde_residual(lambda x, z: dyn_system.mode("floquet1", x, z) * np.exp(0.02j * z),
                         dyn_system.potential, grid, nz=129)
    assert wrong > 1e-2


def test_pde_residual_refinement(dyn_system):
    coarse = PropagationGrid(half_width=10.0, nx=513, dz=0.01, z_end=2.0)
    fine = PropagationGrid(half_width=10.0, nx=1025, dz=0.01, z_end=2.0)
    state = lambda x, z: dyn_system.mode("left", x, z)
    r_coarse = pde_residual(state, dyn_system.potential, coarse, nz=65)
    r_fine = pde_residual(state, dyn_system.potential, fine, nz=129)
    assert r_coarse / r_fine >= 10.0


def test_pde_residual_streams_the_full_grid_residual(dyn_system):
    grid = PropagationGrid(half_width=10.0, nx=257, dz=0.01, z_end=2.0)
    state = lambda x, z: dyn_system.mode("left", x, z)
    v_zs = []

    def potential(x, z):
        v_zs.append(z)
        return dyn_system.potential(x, z)

    streamed = pde_residual(state, potential, grid, nz=33)
    x, zs = grid.x, np.linspace(0.0, grid.z_end, 33)
    psi = np.stack([state(x, float(z)) for z in zs])
    v = np.stack([dyn_system.potential(x, float(z)) for z in zs])
    res = 1j * d1_fourth(psi.T, zs[1] - zs[0]).T + d2_fourth(psi, grid.dx) - v * psi
    assert streamed == pytest.approx(float(np.max(np.abs(res[2:-2, 2:-2]))), rel=1e-13, abs=0)
    assert v_zs == [float(z) for z in zs[2:-2]]  # V only where the z stencil reaches


@pytest.mark.parametrize("kinds", [("floquet1", "floquet2"), ("left", "right")])
def test_pde_residual_of_stacked_rows_is_each_row_alone(dyn_system, kinds):
    """Rows stacked on a leading axis share one V sample per z and give each row's own residual, bit
    for bit, which is also the full-grid residual with d1_fourth taken along z."""
    grid = PropagationGrid(half_width=10.0, nx=257, dz=0.01, z_end=2.0)
    v_zs = []

    def potential(x, z):
        v_zs.append(z)
        return dyn_system.potential(x, z)

    stacked = pde_residual(lambda x, z: np.stack([dyn_system.mode(k, x, z) for k in kinds]), potential,
                           grid, nz=21)
    assert len(v_zs) == 21 - 4
    alone = [pde_residual(lambda x, z, k=k: dyn_system.mode(k, x, z), dyn_system.potential, grid, nz=21)
             for k in kinds]
    assert all(type(r) is float for r in alone)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (2,)
    assert stacked.tolist() == alone
    x, zs = grid.x, np.linspace(0.0, grid.z_end, 21)
    psi = np.stack([np.stack([dyn_system.mode(k, x, float(z)) for k in kinds], axis=-1) for z in zs])
    v = np.stack([dyn_system.potential(x, float(z)) for z in zs])[..., None]
    res = 1j * d1_fourth(psi.T, zs[1] - zs[0]).T + d2_fourth(psi.transpose(0, 2, 1), grid.dx).transpose(0, 2, 1)
    res -= v * psi
    assert stacked.tolist() == np.max(np.abs(res[2:-2, 2:-2]), axis=(0, 1)).tolist()


@pytest.mark.parametrize("nz", [0, 1, 4])
def test_pde_residual_refuses_fewer_than_five_z(dyn_system, nz):
    grid = PropagationGrid(half_width=10.0, nx=257, dz=0.01, z_end=2.0)
    with pytest.raises(ValueError, match="nz"):
        pde_residual(lambda x, z: dyn_system.mode("left", x, z), dyn_system.potential, grid, nz=nz)


def test_eigen_residual_negative_control(herm_system):
    x = np.linspace(-15, 15, 2049)
    e = herm_system.energies()["ground"]
    good = eigen_residual(lambda xx: herm_system.mode("ground", xx, 0.0),
                          lambda xx: herm_system.potential(xx, 0.0), e, x)
    bad = eigen_residual(lambda xx: herm_system.mode("ground", xx, 0.0),
                         lambda xx: herm_system.potential(xx, 0.0), e + 0.05, x)
    assert good < 1e-7 and bad > 1e-2


def test_propagate_initial_mismatch():
    grid = _grid()
    with pytest.raises(ValueError):
        propagate(np.zeros(7, complex), lambda x, z: np.zeros_like(x), grid, [1.0])


def test_cfl_diagnostic_warning():
    grid = _grid(dz=0.2, z_end=0.4)  # dz > dx
    free = lambda xx, zz: np.zeros_like(xx)
    with pytest.warns(RuntimeWarning, match="exceeds dx"):
        propagate(lambda xx: np.exp(-xx**2) + 0j, free, grid, [0.4])
