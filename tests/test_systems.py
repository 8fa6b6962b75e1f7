import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susytb.bpm import PropagationGrid, eigen_residual, pde_residual
from susytb.darboux import apply_L12, second_order_potential
from susytb.quadrature import QuadratureSpec, default_spec, quad_nodes
from susytb.systems import (
    LOG_FLOAT_MAX,
    X_PARTS_CACHE,
    HermitianStaticParams,
    ParameterError,
    PTDynamicParams,
    PTStaticParams,
    WaveguideSystem,
    make_system,
    periods,
    potential_hermitian_static,
    potential_pt_dynamic,
    potential_pt_static,
)

from conftest import HERM, PTD, PTD_STRONG, PTS


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_parameter_orderings():
    with pytest.raises(ParameterError):
        HermitianStaticParams(k1=0.9, k2=0.5)
    with pytest.raises(ParameterError):
        HermitianStaticParams(k1=0.8, k2=0.8)  # degenerate spectrum
    with pytest.raises(ParameterError):
        PTStaticParams(k1=1.2, k2=1.1, alpha=0.2)
    with pytest.raises(ParameterError):
        PTDynamicParams(k1=1.0, k2=1.1, k3=1.0, alpha=0.1)  # k3 = k1 degenerate
    with pytest.raises(ParameterError):
        PTDynamicParams(k1=1.2, k2=1.1, k3=0.9, alpha=0.1)


def test_certified_bound():
    assert PTDynamicParams(1.0, 2.0, 0.5, 0.2).certified
    assert not PTD.certified  # alpha=0.1 exceeds the sufficient bound
    assert not PTD_STRONG.certified


def test_zero_k3_is_a_valid_dynamic_system():
    system = make_system(PTDynamicParams(k1=1.0, k2=1.1, k3=0.0, alpha=0.0))
    assert system.min_k == 1.0  # the quadrature window follows the nonzero wavenumbers
    assert np.all(np.isfinite(system.mode("left", np.linspace(-8.0, 8.0, 33), 1.0)))


def test_zero_k3_with_gain_loss_is_refused():
    # floquet2's -i alpha K(x)/W term tends to a constant: the mode is not guided
    with pytest.raises(ParameterError, match="unguided"):
        PTDynamicParams(k1=1.0, k2=1.1, k3=0.0, alpha=0.1)


@pytest.mark.parametrize("params", [
    PTDynamicParams(k1=1.0, k2=1.1, k3=0.05, alpha=0.1),
    PTDynamicParams(k1=1.0, k2=1.1, k3=0.01, alpha=0.1),
    PTDynamicParams(k1=1.0, k2=1.1, k3=1.1e-309, alpha=0.1),
    HermitianStaticParams(k1=0.1, k2=3.0),
])
def test_window_past_float_range_is_refused(params):
    # the window 12/min|k| runs past the |x| where e^{2(|k1|+|k2|)|x|} overflows
    with pytest.raises(ParameterError, match="overflow"):
        WaveguideSystem(params)


def test_widest_accepted_window_stays_finite():
    system = WaveguideSystem(PTDynamicParams(k1=1.0, k2=1.1, k3=0.072, alpha=0.1))
    assert 2 * 2.1 * system.quad.half_width < LOG_FLOAT_MAX
    x = np.linspace(-system.quad.half_width, system.quad.half_width, 101)
    assert np.all(np.isfinite(system.mode("left", x, 1.0)))
    assert np.all(np.isfinite(system.potential(x, 1.0)))


def test_uncertified_but_scan_regular_accepted(dyn_system):
    assert dyn_system.params == PTD  # construction ran the scan


def test_scan_rejects_singular_dynamic_parameters():
    with pytest.raises(ParameterError):
        make_system(PTDynamicParams(1.0, 1.1, 0.95, 1.0))


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def test_hermitian_potential_origin_value():
    # closed form at x=0: 2 (k1^2 - k2^2)
    v0 = potential_hermitian_static(HERM, 0.0)
    assert v0 == pytest.approx(2 * (HERM.k1**2 - HERM.k2**2), abs=1e-12)
    assert v0 == pytest.approx(-0.66440, abs=1e-5)


def test_hermitian_potential_even_and_decaying():
    x = np.linspace(-10, 10, 801)
    v = potential_hermitian_static(HERM, x)
    assert np.max(np.abs(v - v[::-1])) < 1e-12
    assert abs(potential_hermitian_static(HERM, 20.0)) < 1e-6
    assert np.max(np.abs(np.imag(v))) == 0.0


def test_pt_potential_alpha_zero_limit():
    p0 = PTStaticParams(k1=0.645, k2=0.865, alpha=0.0)
    x = np.linspace(-8, 8, 401)
    herm = potential_hermitian_static(HermitianStaticParams(0.645, 0.865), x)
    assert np.max(np.abs(potential_pt_static(p0, x) - herm)) < 1e-12


def test_pt_potential_pxt_symmetry_and_gain_loss():
    x = np.linspace(-8, 8, 801)
    v = potential_pt_static(PTS, x)
    assert np.max(np.abs(v - np.conj(v[::-1]))) < 1e-12
    assert np.max(np.abs(v.imag)) > 0.01


def test_dynamic_potential_periodicity(dyn_system):
    t_v = dyn_system.periods().fundamental
    x = np.linspace(-8, 8, 401)
    worst = max(
        float(np.max(np.abs(potential_pt_dynamic(PTD, x, z + t_v) - potential_pt_dynamic(PTD, x, z))))
        for z in (0.0, 3.1, 17.0)
    )
    assert worst < 1e-10


def test_dynamic_potential_alpha_zero_is_static_hermitian():
    p = PTDynamicParams(k1=1.0, k2=1.1, k3=0.95, alpha=0.0)
    x = np.linspace(-8, 8, 401)
    herm = potential_hermitian_static(HermitianStaticParams(1.0, 1.1), x)
    for z in (0.0, 5.0, 40.0):
        assert np.max(np.abs(potential_pt_dynamic(p, x, z) - herm)) < 1e-10


def test_dynamic_potential_p2t_symmetry(dyn_strong_system):
    x = np.linspace(-8, 8, 401)
    for z in (0.3, 7.9):
        a = dyn_strong_system.potential(x, z)
        b = np.conj(dyn_strong_system.potential(-x, -z))
        assert np.max(np.abs(a - b)) < 1e-10


# ---------------------------------------------------------------------------
# cross-implementation: closed forms vs generic Darboux machinery
# ---------------------------------------------------------------------------

def _fit_scale(reference, candidate):
    i = int(np.argmax(np.abs(reference)))
    return candidate[i] / reference[i]


@pytest.mark.parametrize("fixture", ["herm_system", "pt_system", "dyn_strong_system"])
def test_potentials_agree_with_susy_engine(fixture, request):
    system = request.getfixturevalue(fixture)
    u1, u2, _, _ = system.seeds()
    x = np.linspace(-6, 6, 241)
    zs = (0.0,) if not system.is_dynamic else (0.0, 3.7, 50.1)
    for z in zs:
        assert np.max(np.abs(system.potential(x, z) - second_order_potential(u1, u2, x, z))) < 1e-9


@pytest.mark.parametrize("fixture", ["herm_system", "pt_system", "dyn_strong_system"])
def test_modes_agree_with_intertwiner_up_to_scale(fixture, request):
    system = request.getfixturevalue(fixture)
    u1, u2, f1, f2 = system.seeds()
    kinds = ("floquet1", "floquet2") if system.is_dynamic else ("ground", "excited")
    x = np.linspace(-6, 6, 241)
    zs = (0.0,) if not system.is_dynamic else (0.0, 11.3)
    for kind, f in zip(kinds, (f1, f2)):
        for z in zs:
            via_l12 = apply_L12(u1, u2, f, x, z)
            closed = system.mode(kind, x, z)
            lam = _fit_scale(closed, via_l12)
            assert np.max(np.abs(lam * closed - via_l12)) < 1e-9 * max(1.0, abs(lam))


# ---------------------------------------------------------------------------
# modes: structure, residuals, dynamics
# ---------------------------------------------------------------------------

def test_hermitian_mode_parity(herm_system):
    x = np.linspace(-8, 8, 401)
    g = herm_system.mode("ground", x)
    e = herm_system.mode("excited", x)
    assert np.max(np.abs(g - g[::-1])) < 1e-12
    assert np.max(np.abs(e + e[::-1])) < 1e-12


@pytest.mark.parametrize(
    "fixture,kinds",
    [("herm_system", ("ground", "excited")), ("pt_system", ("ground", "excited"))],
)
def test_static_eigen_residuals(fixture, kinds, request):
    system = request.getfixturevalue(fixture)
    energies = system.energies()
    L = 12.0 / system.min_k
    x = np.linspace(-L, L, 4097)
    for kind in kinds:
        res = eigen_residual(lambda xx, k=kind: system.mode(k, xx, 0.0),
                             lambda xx: system.potential(xx, 0.0),
                             energies[kind], x)
        assert res < 1e-7


def test_pt_static_energies_match_parameter_squares(pt_system):
    assert pt_system.energies() == {"ground": -1.44, "excited": -1.2100000000000002}


def test_left_right_exchange_over_half_period(herm_system):
    t = herm_system.periods().fundamental
    assert t == pytest.approx(18.913863055928918, rel=1e-12)
    x = np.linspace(-10, 10, 801)
    l_half = herm_system.mode("left", x, t / 2)
    r_zero = herm_system.mode("right", x, 0.0)
    assert np.max(np.abs(np.abs(l_half) ** 2 - np.abs(r_zero) ** 2)) < 1e-10


def test_pt_alpha_zero_modes_reduce_to_hermitian():
    s0 = make_system(PTStaticParams(k1=0.645, k2=0.865, alpha=0.0))
    sh = make_system(HermitianStaticParams(k1=0.645, k2=0.865))
    x = np.linspace(-8, 8, 401)
    for kind in ("ground", "excited", "left"):
        a = s0.mode(kind, x, 1.3)
        b = sh.mode(kind, x, 1.3)
        assert np.max(np.abs(a - b)) < 1e-10


def test_pt_left_right_parity_exchange(pt_system):
    x = np.linspace(-8, 8, 401)
    l = pt_system.mode("left", x, 0.0)
    r = pt_system.mode("right", x, 0.0)
    assert np.max(np.abs(np.abs(l[::-1]) - np.abs(r))) < 1e-10


def test_dynamic_mode_pde_residuals(dyn_system):
    grid = PropagationGrid(half_width=12.0 / dyn_system.min_k, nx=4097, dz=0.01, z_end=3.0)
    for kind in ("floquet1", "floquet2", "left"):
        res = pde_residual(lambda x, z, k=kind: dyn_system.mode(k, x, z),
                           dyn_system.potential, grid, nz=241)
        assert res < 1e-6


def test_dynamic_floquet_periodicity(dyn_system):
    t_v = dyn_system.periods().fundamental
    x = np.linspace(-9, 9, 401)
    quasi = dyn_system.energies()
    for kind in ("floquet1", "floquet2"):
        eps = quasi[kind]
        for z in (0.0, 2.7):
            a = dyn_system.mode(kind, x, z) * np.exp(1j * eps * z)
            b = dyn_system.mode(kind, x, z + t_v) * np.exp(1j * eps * (z + t_v))
            assert np.max(np.abs(a - b)) < 1e-8


def test_unit_power_at_input(dyn_system, herm_system, pt_system):
    for system in (dyn_system, herm_system, pt_system):
        spec = QuadratureSpec(half_width=12.0 / system.min_k, nodes=4097)
        x, w = quad_nodes(spec)
        for kind in ("left", "right"):
            p = float(np.sum(w * np.abs(system.mode(kind, x, 0.0)) ** 2).real)
            assert abs(p - 1.0) < 1e-9


def test_left_label_means_negative_centroid(dyn_system, herm_system, pt_system):
    for system in (dyn_system, herm_system, pt_system):
        spec = QuadratureSpec(half_width=12.0 / system.min_k, nodes=4097)
        x, w = quad_nodes(spec)
        f = system.mode("left", x, 0.0)
        assert float(np.sum(w * x * np.abs(f) ** 2).real) < -0.5


def test_static_revival_after_one_period(herm_system, pt_system):
    for system in (herm_system, pt_system):
        t = system.periods().fundamental
        x = np.linspace(-9, 9, 401)
        for z in (0.0, 1.7):
            a = np.abs(system.mode("left", x, z))
            b = np.abs(system.mode("left", x, z + t))
            assert np.max(np.abs(a - b)) < 1e-9


def test_mode_kind_validation(herm_system, dyn_system):
    with pytest.raises(ValueError):
        herm_system.mode("floquet1", 0.0)
    with pytest.raises(ValueError):
        dyn_system.mode("ground", 0.0)
    with pytest.raises(ValueError):
        herm_system.mode("sideways", 0.0)


def test_mode_dz_matches_finite_difference(dyn_system, pt_system):
    x = np.linspace(-5, 5, 41)
    h = 1e-5
    for system, kind in ((dyn_system, "left"), (pt_system, "left"), (dyn_system, "floquet2")):
        num = (system.mode(kind, x, 1.0 + h) - system.mode(kind, x, 1.0 - h)) / (2 * h)
        ana = system.mode_dz(kind, x, 1.0)
        assert np.max(np.abs(num - ana)) < 1e-8


# ---------------------------------------------------------------------------
# per-node-set memo of the modulated pair's x-factors
# ---------------------------------------------------------------------------

def test_dynamic_memo_matches_fresh_closed_forms(dyn_system, dyn_strong_system):
    """Interleaved node sets and systems never see each other's cached factors."""
    grids = (np.linspace(-9.0, 9.0, 301), np.linspace(-6.0, 7.0, 257))
    for z in (0.0, 1.7, -4.2):
        for system in (dyn_system, dyn_strong_system):
            for x in grids:
                assert np.array_equal(system.potential(x, z), potential_pt_dynamic(system.params, x, z))
                for kind in ("floquet1", "floquet2", "left", "right"):
                    # a new system has no entry for x yet, so it evaluates the closed forms anew
                    fresh = WaveguideSystem(system.params)
                    assert np.array_equal(system.mode(kind, x, z), fresh.mode(kind, x, z))
                    fresh = WaveguideSystem(system.params)
                    assert np.array_equal(system.mode_dz(kind, x, z), fresh.mode_dz(kind, x, z))


def test_dynamic_memo_keys_on_node_values(dyn_system):
    x = np.linspace(-5.0, 5.0, 129)
    dyn_system.potential(x, 0.4)
    x += 0.25  # same array object, new nodes
    assert np.array_equal(dyn_system.potential(x, 0.4), potential_pt_dynamic(PTD, x, 0.4))


def test_dynamic_memo_stays_bounded_after_one_shot_grid():
    system = make_system(PTD)
    big = np.linspace(-30.0, 30.0, 16001)
    system.potential(big, 0.0)
    for n in range(X_PARTS_CACHE):
        x = np.linspace(-8.0, 8.0, 101 + n)
        system.potential(x, 0.5)
        system.mode("left", x, 0.5)
        assert len(system._x_parts) <= X_PARTS_CACHE
    assert all(key[0] != big.shape for key in system._x_parts)


@st.composite
def certified_dynamic_params(draw):
    """|k3| < |k1| < |k2| with alpha inside the sufficient nodelessness bound."""
    k2 = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from((1.0, -1.0)))
    k1 = k2 * draw(st.floats(0.2, 0.95)) * draw(st.sampled_from((1.0, -1.0)))
    k3 = k1 * draw(st.floats(-0.95, 0.95))
    # refused: k3 = 0 leaves floquet2 unguided, small |k3| widens the window past float range
    assume(k3 != 0 and default_spec(k3).half_width <= LOG_FLOAT_MAX / (2 * (abs(k1) + abs(k2))))
    bound = (1.0 - abs(k1 / k2)) / (1.0 + abs(k3 / k2))
    p = PTDynamicParams(k1=k1, k2=k2, k3=k3, alpha=bound * draw(st.floats(-0.95, 0.95)))
    assert p.certified
    return p


@settings(max_examples=60, deadline=None)
@given(p=certified_dynamic_params(), half_width=st.floats(1.0, 12.0),
       nodes=st.integers(2, 400), z=st.floats(-100.0, 100.0), z_other=st.floats(-100.0, 100.0))
def test_dynamic_potential_memo_and_pt_symmetry_property(p, half_width, nodes, z, z_other):
    system = WaveguideSystem(p)
    x = np.linspace(-half_width, half_width, nodes)
    other = np.linspace(-half_width, 0.5 * half_width, nodes + 1)
    v = system.potential(x, z)
    system.potential(other, z_other)
    assert np.array_equal(system.potential(x, z), v)
    assert np.array_equal(v, potential_pt_dynamic(p, x, z))
    mirrored = np.conj(system.potential(-x, -z))
    assert np.max(np.abs(v - mirrored)) <= 1e-12 * max(1.0, float(np.max(np.abs(v))))


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

def test_static_beat_length():
    per = periods(HERM)
    assert per.fundamental == pytest.approx(2 * math.pi / (0.865**2 - 0.645**2), rel=1e-14)
    assert per.repetition is None


def test_dynamic_repetition_integers():
    per = periods(PTD)
    t_v = 2 * math.pi / (1.0 - 0.95**2)
    assert per.fundamental == pytest.approx(t_v, rel=1e-14)
    rep = per.repetition
    assert rep is not None
    # oracle: exact rational arithmetic on the decimal parameter values
    exact_n = Fraction("1.1") ** 2 / (Fraction(1) - Fraction("0.95") ** 2)
    exact_m = Fraction(1) / (Fraction(1) - Fraction("0.95") ** 2)
    assert (rep.n, rep.q) == (exact_n.numerator, exact_n.denominator) == (484, 39)
    assert (rep.m, rep.q) == (exact_m.numerator * (rep.q // exact_m.denominator), 39)
    assert rep.m == 400
    assert rep.T_rep == pytest.approx(math.lcm(484, 400) * t_v, rel=1e-12)


def test_irrational_ratio_reports_no_repetition():
    # k2^2 / (k1^2 - k3^2) deliberately irrational-ish: golden-ratio flavored
    p = PTDynamicParams(k1=1.0, k2=math.sqrt(math.pi / 2.3), k3=0.5, alpha=0.0)
    per = periods(p)
    assert per.repetition is None


def test_cross_implementation_random_parameters(rng):
    """The closed forms track the generic machinery across parameter space."""
    x = np.linspace(-5, 5, 101)
    for _ in range(6):
        k1 = float(rng.uniform(0.5, 1.2))
        k2 = k1 + float(rng.uniform(0.05, 0.6))
        k3 = k1 * float(rng.uniform(0.5, 0.95))
        alpha = float(rng.uniform(0.0, 0.3))
        p = PTDynamicParams(k1=k1, k2=k2, k3=k3, alpha=alpha)
        system = make_system(p, verify_regularity=False)
        u1, u2, f1, f2 = system.seeds()
        z = float(rng.uniform(0.0, 20.0))
        dv = np.max(np.abs(system.potential(x, z) - second_order_potential(u1, u2, x, z)))
        assert dv < 1e-9
        for kind, f in (("floquet1", f1), ("floquet2", f2)):
            via = apply_L12(u1, u2, f, x, z)
            closed = system.mode(kind, x, z)
            i = int(np.argmax(np.abs(closed)))
            lam = via[i] / closed[i]
            assert np.max(np.abs(lam * closed - via)) < 1e-9 * max(1.0, abs(lam))

        ps = PTStaticParams(k1=k1, k2=k2, alpha=alpha)
        ss = make_system(ps)
        su1, su2, _, _ = ss.seeds()
        dvs = np.max(np.abs(ss.potential(x) - second_order_potential(su1, su2, x, 0.0)))
        assert dvs < 1e-9
