import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from susytb.bpm import eigen_residual
from susytb.darboux import (
    NODE_RTOL,
    REFINE_LEVELS,
    RegularityScan,
    SingularPointError,
    _wronskian_scale,
    apply_A1,
    apply_L12,
    first_order_potential,
    regularity_scan,
    second_order_potential,
    symmetry_residual,
)
import susytb.darboux as darboux
import susytb.seeds as seeds
from susytb.seeds import SeedSuperposition, wronskian_bundle, x_derivatives
from susytb.systems import (PTDynamicParams, _sup_ratio, potential_hermitian_static,
                           potential_pt_dynamic)

from conftest import PTD, PTD_STRONG, certified_dynamic_params


def test_first_order_sech_well_origin():
    v = SeedSuperposition.even(1.0, 1.0)
    assert first_order_potential(v, 0.0) == pytest.approx(-2.0)


def test_first_order_sech_well_grid():
    k = 0.7454
    v = SeedSuperposition.even(1.0, k)
    x = np.linspace(-8, 8, 401)
    expected = -2 * k * k / np.cosh(k * x) ** 2
    assert np.max(np.abs(first_order_potential(v, x) - expected)) < 1e-12


def test_first_order_pt_well_matches_closed_form():
    k, at = 1.14, 0.21
    v = SeedSuperposition.build([("even", 1.0, k), ("odd", at, k)])
    x = np.linspace(-6, 6, 301)
    d = np.cosh(k * x) + 1j * at * np.sinh(k * x)
    expected = -2 * k * k * (1 + at * at) / d**2
    assert np.max(np.abs(first_order_potential(v, x) - expected)) < 1e-12


def test_first_order_node_detection():
    v = SeedSuperposition.odd(1.0, 1.0)  # ~ i sinh, vanishes at x=0
    with pytest.raises(SingularPointError):
        first_order_potential(v, 0.0)


def test_second_order_reduces_to_hermitian_at_alpha_zero():
    p = PTD
    u1 = SeedSuperposition.even(1.0, p.k1)  # alpha = 0 drops the odd component
    u2 = SeedSuperposition.odd(1.0, p.k2)
    x = np.linspace(-6, 6, 241)
    from susytb.systems import HermitianStaticParams

    expected = potential_hermitian_static(HermitianStaticParams(p.k1, p.k2), x)
    for z in (0.0, 3.7):
        got = second_order_potential(u1, u2, x, z)
        assert np.max(np.abs(got - expected)) < 1e-10


def test_second_order_z_independent_when_k3_equals_k1():
    u1 = SeedSuperposition.build([("even", 1.0, 1.0), ("odd", 0.5, 1.0)])
    u2 = SeedSuperposition.odd(1.0, 1.1)
    x = np.linspace(-5, 5, 161)
    v0 = second_order_potential(u1, u2, x, 0.0)
    worst = max(
        float(np.max(np.abs(second_order_potential(u1, u2, x, z) - v0)))
        for z in np.linspace(0.0, 40.0, 9)
    )
    assert worst < 1e-10


def test_second_order_matches_dynamic_closed_form(dyn_strong_system):
    u1, u2, _, _ = dyn_strong_system.seeds()
    x = np.linspace(-5, 5, 101)
    for z in (0.0, 7.3, 41.0):
        got = second_order_potential(u1, u2, x, z)
        expected = potential_pt_dynamic(PTD_STRONG, x, z)
        assert np.max(np.abs(got - expected)) < 1e-9


def test_apply_A1_annihilates_its_seed():
    v = SeedSuperposition.build([("even", 1.0, 0.9), ("odd", 0.2, 0.9)])
    x = np.linspace(-4, 4, 101)
    assert np.max(np.abs(apply_A1(v, v, x))) < 1e-13


def test_apply_A1_gives_sech_mode():
    k = 0.8
    v = SeedSuperposition.even(1.0, k)
    f = SeedSuperposition.odd(1.0, k)  # i sinh(kx)
    x = np.linspace(-6, 6, 201)
    got = apply_A1(v, f, x)
    assert np.max(np.abs(got - 1j * k / np.cosh(k * x))) < 1e-13


def test_apply_A1_intertwining_eigen_residual():
    """A1 maps free solutions to eigenfunctions of V1 at the same energy.

    The window stays at |x| <= 7 because the A1 assembly cancels two
    exponentially growing terms; beyond that the roundoff noise amplified
    by the second-derivative stencil would mask the true residual.
    """
    k = 0.8
    v = SeedSuperposition.even(1.0, k)
    f = SeedSuperposition.odd(1.0, k)
    x = np.linspace(-7, 7, 2049)
    res = eigen_residual(
        lambda xx: apply_A1(v, f, xx),
        lambda xx: first_order_potential(v, xx),
        -k * k,
        x,
    )
    assert res < 1e-8


def test_apply_L12_annihilates_both_seeds(dyn_system):
    u1, u2, _, _ = dyn_system.seeds()
    x = np.linspace(-4, 4, 81)
    for z in (0.0, 5.0):
        scale = np.max(np.abs(np.cosh(1.1 * x)))
        assert np.max(np.abs(apply_L12(u1, u2, u1, x, z))) < 1e-10 * scale
        assert np.max(np.abs(apply_L12(u1, u2, u2, x, z))) < 1e-10 * scale


def test_second_order_route_evaluates_each_seed_once(dyn_system, monkeypatch):
    """`second_order_potential` and `apply_L12` take one order-3 stack per seed and read W, W', W'', W(u1', u2')
    and the node scale from it. Its rows 0-2 are the order-1 and order-2 stacks bit for bit, so both equal
    their composition from separate stacks exactly."""
    u1, u2, f, _ = dyn_system.seeds()
    x = np.linspace(-6.0, 6.0, 97)
    calls = []

    def counted(u, *args):
        calls.append(u)
        return x_derivatives(u, *args)

    monkeypatch.setattr(darboux, "x_derivatives", counted)
    monkeypatch.setattr(seeds, "x_derivatives", counted)
    for z in (0.0, 0.37, 5.2):
        calls.clear()
        v = second_order_potential(u1, u2, x, z)
        assert calls == [u1, u2]
        calls.clear()
        g = apply_L12(u1, u2, f, x, z)
        assert calls == [u1, u2, f]
        d1, d2, df = (x_derivatives(u, x, z, 2) for u in (u1, u2, f))
        for d, u in ((d1, u1), (d2, u2)):
            assert np.array_equal(x_derivatives(u, x, z, 3)[:3], d)
            assert np.array_equal(x_derivatives(u, x, z, 1), d[:2])
        wb = wronskian_bundle(u1, u2, x, z)
        r1 = wb.d1x / wb.value
        assert np.array_equal(v, -2.0 * (wb.d2x / wb.value - r1 * r1))
        wp = d1[1] * d2[2] - d1[2] * d2[1]
        assert np.array_equal(g, (wb.value * df[2] - wb.d1x * df[1] + wp * df[0]) / wb.value)


def test_apply_L12_pde_residual(dyn_system):
    """L12 carries free solutions to solutions of the transformed potential."""
    from susytb.bpm import PropagationGrid, pde_residual

    u1, u2, f1, _ = dyn_system.seeds()
    grid = PropagationGrid(half_width=6.5, nx=2049, dz=0.01, z_end=2.0)
    res = pde_residual(
        lambda x, z: apply_L12(u1, u2, f1, x, z),
        lambda x, z: second_order_potential(u1, u2, x, z),
        grid,
        nz=257,
    )
    assert res < 1e-6


# ---------------------------------------------------------------------------
# symmetry residuals
# ---------------------------------------------------------------------------

X_GRID = np.linspace(-6.0, 6.0, 241)


def test_symmetry_hermitian_static_seeds(herm_system):
    u1, u2, _, _ = herm_system.seeds()
    r = symmetry_residual("stationary_hermitian", u1, u2, x_grid=X_GRID)
    assert r.max_abs_residual < 1e-10


def test_symmetry_p2t_dynamic_seeds(dyn_strong_system):
    u1, u2, _, _ = dyn_strong_system.seeds()
    z = np.linspace(0.0, 30.0, 7)
    r = symmetry_residual("P2T_2nd", u1, u2, x_grid=X_GRID, z_grid=z)
    assert r.max_abs_residual < 1e-9


def test_symmetry_pt_static_seeds(pt_system):
    u1, u2, _, _ = pt_system.seeds()
    r = symmetry_residual("stationary_PxT", u1, u2, x_grid=X_GRID)
    assert r.max_abs_residual < 1e-10
    r2 = symmetry_residual("stationary_hermitian", u1, u2, x_grid=X_GRID)
    assert r2.max_abs_residual > 0.01  # genuinely non-Hermitian for alpha = 0.2


def test_symmetry_first_order_kinds(dyn_system):
    u1, _, _, _ = dyn_system.seeds()  # P2T-invariant single seed
    z = np.linspace(0.2, 10.0, 5)
    r = symmetry_residual("P2T_1st", u1, x_grid=X_GRID, z_grid=z)
    assert r.max_abs_residual < 1e-10
    v1 = SeedSuperposition.build([("even", 1.0, 1.1), ("odd", 0.2, 1.1)])
    r2 = symmetry_residual("PxT_1st", v1, x_grid=X_GRID, z_grid=(0.0,))
    assert r2.max_abs_residual < 1e-10
    r3 = symmetry_residual("hermitian_1st", SeedSuperposition.even(1.0, 0.9),
                           x_grid=X_GRID, z_grid=(0.0, 1.0))
    assert r3.max_abs_residual < 1e-12


def test_symmetry_requires_second_seed():
    u = SeedSuperposition.even(1.0, 1.0)
    with pytest.raises(ValueError):
        symmetry_residual("P2T_2nd", u, x_grid=X_GRID)
    with pytest.raises(ValueError):
        symmetry_residual("sideways", u, x_grid=X_GRID)


# ---------------------------------------------------------------------------
# regularity scans
# ---------------------------------------------------------------------------

def test_scan_static_nodeless(herm_system):
    u1, u2, _, _ = herm_system.seeds()
    scan = regularity_scan(u1, u2, (-10.0, 10.0), (0.0, 0.0), 2001)
    assert scan.nodeless


def test_scan_needs_two_points_per_axis(herm_system):
    u1, u2, _, _ = herm_system.seeds()
    with pytest.raises(ValueError, match="n_points must be >= 2"):
        regularity_scan(u1, u2, (-10.0, 10.0), (0.0, 0.0), 1)


def test_scan_detects_ordering_violation():
    # |k2| < |k1| puts a node in the Wronskian
    u1 = SeedSuperposition.even(1.0, 0.9)
    u2 = SeedSuperposition.odd(1.0, 0.5)
    scan = regularity_scan(u1, u2, (-10.0, 10.0), (0.0, 0.0), 2001)
    assert not scan.nodeless
    assert abs(scan.argmin[0]) > 0.1  # the crossing sits away from the origin


def test_scan_dynamic_nodeless(dyn_system):
    u1, u2, _, _ = dyn_system.seeds()
    t_v = dyn_system.periods().fundamental
    scan = regularity_scan(u1, u2, (-10.0, 10.0), (0.0, 2 * t_v), 241)
    assert scan.nodeless


def test_scan_certified_dynamic_parameters():
    p = PTDynamicParams(k1=1.0, k2=2.0, k3=0.5, alpha=0.2)
    assert p.certified
    u1 = SeedSuperposition.build([("even", 1.0, p.k1), ("odd", p.alpha, p.k3)])
    u2 = SeedSuperposition.odd(1.0, p.k2)
    t_v = 2 * np.pi / (p.k1**2 - p.k3**2)
    scan = regularity_scan(u1, u2, (-10.0, 10.0), (0.0, 2 * t_v), 201)
    assert scan.nodeless


@settings(max_examples=20, deadline=None)
@given(p=certified_dynamic_params())
@example(p=PTD)
@example(p=PTDynamicParams(k1=0.4, k2=1.0, k3=0.15, alpha=0.1))
# the node region at 1.01 alpha* crosses x = -10, where the coarse argmin sits; the nodes inside lie at |x| 7.79
@example(p=PTDynamicParams(k1=0.2373046875, k2=0.84375, k3=0.2076416015625, alpha=0.1))
def test_scan_flips_where_rho_crosses_one_property(p):
    """Where rho's argmax lies inside the scan's window |x| <= 10, the scan over seeds built from the raw
    numbers finds a node at 1.01 alpha* and none at 0.99 alpha*, alpha* = alpha / rho = 1 / sup|h2/h1|, also
    where the node region crosses the window's edge."""
    sup, x_max = _sup_ratio(p.k1, p.k2, p.k3)
    assume(x_max < 10.0)
    t_v = 2 * np.pi / (p.k1**2 - p.k3**2)
    for factor, nodeless in ((0.99, True), (1.01, False)):
        u1 = SeedSuperposition.build([("even", 1.0, p.k1), ("odd", factor / sup, p.k3)])
        u2 = SeedSuperposition.odd(1.0, p.k2)
        assert regularity_scan(u1, u2, (-10.0, 10.0), (0.0, 2 * t_v), 241).nodeless is nodeless, factor


def _scan_per_z(u1, u2, x_range, z_range, n_points):
    """`regularity_scan` as a loop over z rows, one `x_derivatives` pass per row and seed; a coarse argmin on an
    x edge is zoomed, and so is the smallest coarse minimum along x off the edges, the smaller kept."""

    def ratio(xv, zv: float):
        d1 = x_derivatives(u1, xv, zv, 1)
        d2 = x_derivatives(u2, xv, zv, 1)
        w = d1[0] * d2[1] - d1[1] * d2[0]
        return np.abs(w), np.abs(w) / _wronskian_scale(d1, d2)

    def rows(xs, zs, best, inside=False):
        for zz in zs:
            w, r = ratio(xs, float(zz))
            if inside:
                r = np.array([r[j] if 0 < j < len(r) - 1 and r[j] <= r[j - 1] and r[j] <= r[j + 1] else np.inf
                              for j in range(len(r))])
            j = int(np.argmin(r))
            if r[j] < best[0]:
                best = (float(r[j]), float(w[j]), float(xs[j]), float(zz))
        return best

    def zoom(best, hx, hz):
        for _ in range(REFINE_LEVELS):
            _, _, bx, bz = best
            xs = np.clip(np.linspace(bx - hx, bx + hx, 17), x_range[0], x_range[1])
            zs = np.array([bz]) if single_z else np.clip(np.linspace(bz - hz, bz + hz, 17), z_range[0], z_range[1])
            best = rows(xs, zs, best)
            hx, hz = hx / 8.0, hz / 8.0
        return best

    xs = np.linspace(x_range[0], x_range[1], n_points)
    single_z = z_range[0] == z_range[1]
    zs = np.array([z_range[0]]) if single_z else np.linspace(z_range[0], z_range[1], n_points)
    spacing = (xs[1] - xs[0], 0.0 if single_z else zs[1] - zs[0])
    coarse = rows(xs, zs, (math.inf, math.inf, 0.0, 0.0))
    best = zoom(coarse, *spacing)
    if coarse[2] in (xs[0], xs[-1]):
        inner = rows(xs, zs, (math.inf, math.inf, 0.0, 0.0), inside=True)
        if inner[0] < math.inf:
            inner = zoom(inner, *spacing)
        best = min(best, inner, key=lambda b: b[0])
    return RegularityScan(min_abs_w=best[1], argmin=(best[2], best[3]), nodeless=bool(best[0] >= NODE_RTOL))


@settings(max_examples=30, deadline=None)
@given(k=st.tuples(st.floats(0.1, 2.5), st.floats(0.1, 2.5), st.floats(0.0, 2.0)), alpha=st.floats(-1.5, 1.5),
       n_points=st.sampled_from([2, 17, 57, 241]), single_z=st.booleans())
@example(k=(0.9, 0.5, 0.3), alpha=0.1, n_points=241, single_z=False)  # |k2| < |k1|: noded
@example(k=(1.0, 1.1, 0.95), alpha=0.9, n_points=241, single_z=False)  # past the bound: noded
@example(k=(0.9, 0.5, 0.0), alpha=0.0, n_points=2001, single_z=True)  # the static ordering violation
def test_blocked_scan_is_the_per_z_loop_property(k, alpha, n_points, single_z):
    """The scan evaluates blocks of z rows at once; its verdict, minimum and argmin are the per-row loop's."""
    k1, k2, k3 = k
    u1 = SeedSuperposition.build([("even", 1.0, k1), ("odd", alpha, k3)])
    u2 = SeedSuperposition.odd(1.0, k2)
    z_end = 0.0 if single_z else 4 * math.pi / max(abs(k1**2 - k3**2), 0.05)
    args = (u1, u2, (-10.0, 10.0), (0.0, z_end), n_points)
    assert regularity_scan(*args) == _scan_per_z(*args)
