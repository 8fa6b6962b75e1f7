import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susytb.bpm import PropagationGrid, eigen_residual, pde_residual
from susytb.darboux import apply_L12, second_order_potential
from susytb.observables import ExactState
from susytb.quadrature import QuadratureSpec, default_half_width, quad_nodes, read_only
from susytb.systems import (
    LOG_FLOAT_MAX,
    RHO_MARGIN,
    HermitianStaticParams,
    ParameterError,
    PTDynamicParams,
    PTStaticParams,
    WaveguideSystem,
    _dynamic_x_parts,
    _sup_ratio,
    make_system,
    periods,
    potential_hermitian_static,
    potential_pt_dynamic,
    potential_pt_static,
    x_limit,
)

from conftest import (HERM, PTD, PTD_STRONG, PTS, certified_dynamic_params, potential_pt_dynamic_complex,
                      reference_mode, reference_raw_mode)


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
    with pytest.raises(ParameterError, match="k1 must be nonzero"):
        PTStaticParams(k1=0.0, k2=1.1, alpha=0.2)
    with pytest.raises(ParameterError, match="k2 must be nonzero"):
        PTDynamicParams(k1=1.0, k2=0.0, k3=0.5, alpha=0.1)


def test_a_system_needs_a_known_parameter_record():
    with pytest.raises(TypeError, match="unsupported parameter record"):
        WaveguideSystem((1.0, 1.1))


@pytest.mark.parametrize("make, field", [
    (lambda v: HermitianStaticParams(k1=0.645, k2=v), "k2"),
    (lambda v: PTStaticParams(k1=1.1, k2=1.2, alpha=v), "alpha"),
    (lambda v: PTDynamicParams(k1=v, k2=1.1, k3=0.95, alpha=0.1), "k1"),
    (lambda v: PTDynamicParams(k1=1.0, k2=1.1, k3=0.95, alpha=v), "alpha"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_refused(make, field, value):
    with pytest.raises(ParameterError, match=f"{field} must be finite"):
        make(value)


def test_regularity_scan_runs_once_per_system(monkeypatch):
    import susytb.darboux as darboux

    calls = []
    scan = darboux.regularity_scan
    monkeypatch.setattr(darboux, "regularity_scan", lambda *a, **k: calls.append(a) or scan(*a, **k))
    system = make_system(PTD)  # uncertified: construction scans
    assert system.regularity.nodeless and system.regularity is system.regularity
    assert len(calls) == 1 and calls[0][2:] == ((-10.0, 10.0), (0.0, 2 * system.periods().fundamental), 241)
    static = make_system(HERM)  # static pairs scan on first use, in one z
    assert len(calls) == 1
    assert static.regularity.nodeless and static.regularity is static.regularity
    assert len(calls) == 2 and calls[1][2:] == ((-10.0, 10.0), (0.0, 0.0), 2001)


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


@settings(max_examples=40, deadline=None)
@given(p=certified_dynamic_params(), opposite=st.booleans(), u=st.floats(-0.95, 0.95))
def test_window_just_inside_x_limit_stays_finite_property(p, opposite, u):
    """A certified record of either k3 sign whose window 12/|k3| lies just inside `x_limit`: both modes, their
    d/dz and V are finite, with no overflow on the way, on the window's edge nodes at several z. (With k3
    opposite k1, K(x) dW/dz in the d/dz outgrows the squared Wronskian.)"""
    sign = -math.copysign(1.0, p.k1) if opposite else math.copysign(1.0, p.k1)
    k3 = 0.0
    for _ in range(8):  # |k3| = 12 / x_limit(k3) by iteration: x_limit moves ~12/709 as fast as 12 / |k3|
        k3 = sign * default_half_width(x_limit(PTDynamicParams(p.k1, p.k2, k3, 0.0)))
    k3 *= 1 + 1e-9
    bound = (1.0 - abs(p.k1 / p.k2)) / (1.0 + abs(k3 / p.k2))
    system = WaveguideSystem(PTDynamicParams(p.k1, p.k2, k3, bound * u))
    assert 0.999999 * system.x_limit < system.quad.half_width <= system.x_limit
    x = read_only(np.array([-system.quad.half_width, system.quad.half_width]))
    with np.errstate(over="raise", invalid="raise"):
        for z in (0.0, 1.3, 7.9, 41.3):
            rows = system.pair(x, z)
            for values in (rows(0), rows(1), system.potential(x, z)):
                assert np.all(np.isfinite(values))


def test_uncertified_but_scan_regular_accepted(dyn_system):
    assert dyn_system.params == PTD  # construction ran the scan


def test_scan_rejects_singular_dynamic_parameters():
    with pytest.raises(ParameterError):
        make_system(PTDynamicParams(1.0, 1.1, 0.95, 1.0))


def _reference_sup_ratio(k1, k2, k3) -> float:
    """sup_x |h2/h1| from log|h2/h1| with both closed forms over cosh(k1 x) cosh(k2 x), the signed
    k's as given (finite at any x > 0): a 100,001-point grid over (0, 64/|k1|], then three zooms
    by 50 around its argmax."""
    def log_ratio(x):
        log_cosh = lambda u: np.logaddexp(u, -u)  # log 2 cosh u; the 2s cancel
        t1, t2, t3 = np.tanh(k1 * x), np.tanh(k2 * x), np.tanh(k3 * x)
        return (log_cosh(k3 * x) - log_cosh(k1 * x)
                + np.log(np.abs(k2 * t3 - k3 * t2)) - np.log(np.abs(k2 - k1 * t1 * t2)))

    x = np.linspace(0.0, 64.0 / abs(k1), 100_001)[1:]
    for _ in range(4):
        i = int(np.argmax(lr := log_ratio(x)))
        h = x[1] - x[0]
        x = np.linspace(max(x[i] - h, h / 100), x[i] + h, 101)
    return math.exp(float(lr[i]))


@st.composite
def dynamic_wavenumbers(draw):
    """|k3| < |k1| < |k2| with |k3| anywhere in (0, |k1|): near |k1|, tiny, or in between."""
    k2 = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from((1.0, -1.0)))
    k1 = k2 * draw(st.floats(0.2, 0.95)) * draw(st.sampled_from((1.0, -1.0)))
    ratio = draw(st.one_of(st.floats(0.01, 0.95), st.floats(-12.0, -1.0).map(lambda e: 1 - 10**e),
                           st.floats(-300.0, -2.0).map(lambda e: 10**e)))
    return k1, k2, k1 * ratio * draw(st.sampled_from((1.0, -1.0)))


@pytest.mark.parametrize("k, alpha, rho", [((1.0, 1.1, 0.95), 0.1, 0.1214), ((1.0, 1.1, 0.95), 0.8, 0.9709),
                                           ((1.0, 1.1, 0.95), 0.5, 0.6068), ((1.1, 1.2, 0.0), 0.0, 0.0)])
def test_rho_of_the_preset_points(k, alpha, rho):
    assert PTDynamicParams(*k, alpha).rho == pytest.approx(rho, abs=1e-4)


@settings(max_examples=40, deadline=None)
@given(k=dynamic_wavenumbers())
@example(k=(1.0, 1.1, 0.95))
@example(k=(0.2, 0.3, 0.19))
@example(k=(1.0, 1.1, 1 - 1e-12))
@example(k=(-1.0, 1.1, 1e-300))
def test_rho_matches_a_dense_reference_property(k):
    """rho is |alpha| sup_x |h2/h1| to 1e-9 relative, also where its argmax runs out (|k3| -> |k1|) or
    h2 is tiny (|k3| -> 0); the record accepts rho just below 1 - RHO_MARGIN and refuses it from there on."""
    k1, k2, k3 = k
    alpha = 0.5 * (1 - abs(k1 / k2)) / (1 + abs(k3 / k2))  # certified
    assert PTDynamicParams(k1, k2, k3, alpha).rho == pytest.approx(alpha * _reference_sup_ratio(*k), rel=1e-9)
    sup = _sup_ratio(k1, k2, k3)[0]  # the record's rho is |alpha| times it
    edge = (1 - RHO_MARGIN) / sup
    while edge * sup < 1 - RHO_MARGIN:  # the least alpha whose rho rounds to 1 - RHO_MARGIN or above
        edge = math.nextafter(edge, math.inf)
    assert PTDynamicParams(k1, k2, k3, -edge * (1 - 1e-9)).rho < 1 - RHO_MARGIN
    for alpha in (edge, -edge, 1.01 * edge, 10 * edge):
        with pytest.raises(ParameterError, match=r"rho = \|alpha\| sup\|h2/h1\| = .* need \|alpha\| < "):
            PTDynamicParams(k1, k2, k3, alpha)


def _old_node_guard(p, x, z) -> bool:
    """The per-sample node check V's evaluator once made: sqrt|den| < 1e-10 (|h1| + |alpha h2|) anywhere."""
    xp = _dynamic_x_parts(p, x)
    theta = (p.k1**2 - p.k3**2) * z
    den = xp.den_re * math.cos(theta) + 1j * (xp.den_im * math.sin(theta) + xp.den_im0)
    return bool(np.any(np.sqrt(np.abs(den)) < 1e-10 * (np.abs(xp.h1) + abs(p.alpha) * np.abs(xp.h2))))


@settings(max_examples=40, deadline=None)
@given(p=certified_dynamic_params(), gap=st.one_of(st.just(0.0), st.floats(0.0, 0.1)))
@example(p=PTD, gap=0.0)
@example(p=PTDynamicParams(0.2, 0.3, 0.19, 0.1), gap=0.0)
def test_the_rho_gate_keeps_the_old_node_guard_from_firing_property(p, gap):
    """At rho's argmax x, and the z there that minimizes |W| (W = h1 + i alpha h2 e^{-i delta z} points
    against h1), the deleted guard stays false on every record up to rho = 1 - RHO_MARGIN."""
    sup, x_max = _sup_ratio(p.k1, p.k2, p.k3)
    p = PTDynamicParams(p.k1, p.k2, p.k3, (1 - RHO_MARGIN) * (1 - gap) / sup * (1 - 1e-15))
    assert p.rho < 1 - RHO_MARGIN
    x = np.array([-x_max, x_max])
    xp = _dynamic_x_parts(p, x[1:])
    s = np.sign(xp.h1[0] * p.alpha * xp.h2[0])
    z = -s * math.pi / (2 * (p.k1**2 - p.k3**2))  # i alpha h2 e^{-i delta z} = -sign(h1) |alpha h2|
    w = xp.h1 + 1j * p.alpha * xp.h2 * np.exp(-1j * (p.k1**2 - p.k3**2) * z)
    assert abs(w[0]) == pytest.approx(abs(xp.h1[0]) * (1 - p.rho), rel=1e-6, abs=1e-9 * abs(xp.h1[0]))
    assert not _old_node_guard(p, x, z) and not _old_node_guard(p, x, -z)


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
    with pytest.raises(ValueError, match="no mode 'sideways'"):  # refused before its rows are evaluated
        herm_system.combined("sideways", lambda: pytest.fail("rows evaluated"))


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


def test_dynamic_memo_keeps_no_writeable_grid(monkeypatch):
    """A writeable one-shot grid's x parts are not kept, and no closed-form pass is kept on any grid;
    a frozen grid's x parts stay kept across writeable ones."""
    import susytb.systems as systems

    x_parts, passes, floquet_pair = [], [], systems._floquet_pair

    def kept(refs):
        gc.collect()
        return [r() is not None for r in refs]

    def pass_counted(*args):
        fields, dz = floquet_pair(*args)
        passes.append(weakref.ref(fields))
        return fields, dz

    frozen = read_only(np.linspace(-8.0, 8.0, 101))
    grids = [x for n in range(3) for x in (frozen, np.linspace(-8.0, 8.0, 102 + n))]
    expected = [(potential_pt_dynamic(PTD, x, 0.5), WaveguideSystem(PTD).mode("left", x, 0.5)) for x in grids]
    compute = systems._dynamic_x_parts
    monkeypatch.setattr(systems, "_dynamic_x_parts", lambda p, x: x_parts.append(compute(p, x)) or x_parts[-1])
    monkeypatch.setattr(systems, "_floquet_pair", pass_counted)
    system = make_system(PTD)
    system.pseudo_norm_sign("floquet1")  # the norms' pass on the system's own nodes
    x_parts.clear()
    passes.clear()
    big = np.linspace(-30.0, 30.0, 16001)
    system.potential(big, 0.0)
    system.mode("left", big, 0.0)
    assert system._x_parts._last[0] is not big
    refs, x_parts[:] = [weakref.ref(xp.h1) for xp in x_parts], []
    assert kept(refs) == [False, False] and len(passes) == 1 and kept(passes) == [False]
    for x, (v, mode) in zip(grids, expected):
        assert np.array_equal(system.potential(x, 0.5), v)
        assert np.array_equal(system.mode("left", x, 0.5), mode)
        assert not any(kept(passes))
        assert system._x_parts._last[0] is frozen
    refs = [weakref.ref(xp.h1) for xp in x_parts]
    x_parts.clear()
    assert kept(refs) == [True] + [False] * 6  # the frozen grid's once, then each writeable one's twice


@st.composite
def uncertified_dynamic_params(draw):
    """rho drawn between its value at the sufficient bound and 0.95; rho is linear in alpha."""
    p = draw(certified_dynamic_params())
    bound = (1.0 - abs(p.k1 / p.k2)) / (1.0 + abs(p.k3 / p.k2))
    per_alpha = _sup_ratio(p.k1, p.k2, p.k3)[0]  # the record's rho at unit alpha
    rho = draw(st.floats(min(bound * per_alpha, 0.95), 0.95))
    return PTDynamicParams(k1=p.k1, k2=p.k2, k3=p.k3, alpha=rho / per_alpha * draw(st.sampled_from((1.0, -1.0))))


@settings(max_examples=40, deadline=None)
@given(p=st.one_of(certified_dynamic_params(), uncertified_dynamic_params()), z=st.floats(-100.0, 100.0))
def test_dynamic_potential_matches_the_complex_closed_form_property(p, z):
    """V written from its real x parts is the complex closed form, element by element, out to
    0.99 x_limit, where the closed forms' denominators near overflow."""
    x = np.linspace(-0.99, 0.99, 1001) * WaveguideSystem(p).x_limit
    reference = potential_pt_dynamic_complex(p, x, z)
    v = potential_pt_dynamic(p, x, z)
    assert np.all(np.isfinite(reference))
    assert np.all(np.abs(v - reference) <= 1e-13 * np.abs(reference))


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


@settings(max_examples=60, deadline=None)
@given(p=certified_dynamic_params(), z=st.floats(-100.0, 100.0))
def test_floquet_modes_are_pt_symmetric_property(p, z):
    """conj u_k(-x, -z) = c_k u_k(x, z), c = +1 for the even-like and -1 for the odd-like mode: the
    premise of the modulated pair's mirrored Gram matrices in `observables`."""
    system = WaveguideSystem(p)
    x = np.linspace(-8.0, 8.0, 161)
    for c, kind in zip((1, -1), system.facts.stationary):
        u = system.mode(kind, x, z)
        err = np.max(np.abs(np.conj(system.mode(kind, -x, -z)) - c * u))
        assert err <= 1e-12 * np.max(np.abs(u)), (kind, err)


# ---------------------------------------------------------------------------
# per-node-set memo of the static pairs' raw profiles
# ---------------------------------------------------------------------------

def _stationary_closed_form(system, kind, x, z, pre=1):
    """pre times the normalized stationary mode from the closed-form profile, bypassing the memo."""
    e = system.energies()[kind]
    return pre * system._norms[0][kind] * np.exp(-1j * e * z) * reference_raw_mode(system.params, kind, x)


def test_static_memo_matches_fresh_closed_forms(herm_system, pt_system):
    """Interleaved node sets and systems never see each other's cached profiles."""
    grids = (np.linspace(-9.0, 9.0, 301), np.linspace(-6.0, 7.0, 257))
    for z in (0.0, 1.7, -4.2):
        for system in (herm_system, pt_system):
            system.pseudo_norm_sign("ground")
            for x in grids:
                for kind in ("ground", "excited"):
                    e = system.energies()[kind]
                    closed = _stationary_closed_form(system, kind, x, z)
                    assert np.array_equal(system.mode(kind, x, z), closed)
                    assert np.array_equal(ExactState(system, kind)(x, z, 2), e**2 * closed)
                    assert np.array_equal(system.mode_dz(kind, x, z),
                                          _stationary_closed_form(system, kind, x, z, pre=-1j * e))
                for kind in ("left", "right"):
                    fresh = WaveguideSystem(system.params)
                    assert np.array_equal(system.mode(kind, x, z), fresh.mode(kind, x, z))
                    assert np.array_equal(system.mode_dz(kind, x, z), fresh.mode_dz(kind, x, z))
                    assert np.array_equal(ExactState(system, kind)(x, z, 2), ExactState(fresh, kind)(x, z, 2))


def test_static_memo_keys_on_node_values(pt_system):
    x = np.linspace(-5.0, 5.0, 129)
    pt_system.mode("ground", x, 0.4)
    x += 0.25  # same array object, new nodes
    assert np.array_equal(pt_system.mode("ground", x, 0.4),
                          _stationary_closed_form(pt_system, "ground", x, 0.4))


def test_static_memo_keeps_no_writeable_grid():
    """A writeable one-shot grid is not kept; a frozen grid stays kept across writeable ones."""
    system = make_system(PTS)
    big = np.linspace(-30.0, 30.0, 16001)
    system.mode("excited", big, 0.0)
    assert system._x_parts._last is None or system._x_parts._last[0] is not big
    frozen = read_only(np.linspace(-8.0, 8.0, 101))
    for n in range(3):
        for x in (frozen, np.linspace(-8.0, 8.0, 102 + n)):
            for kind in ("ground", "excited"):
                assert np.array_equal(system.mode(kind, x, 0.5),
                                      _stationary_closed_form(system, kind, x, 0.5))
            assert np.array_equal(system.mode_dz("right", -x, 0.5),
                                  WaveguideSystem(PTS).mode_dz("right", -x, 0.5))
        assert system._x_parts._last[0] is frozen


@pytest.mark.parametrize("params, x_parts", [(PTD, "_dynamic_x_parts"), (PTS, "_static_profiles"),
                                             (HERM, "_static_profiles")])
def test_norms_compute_the_x_only_factors_once_on_the_system_nodes(monkeypatch, params, x_parts):
    """The system's own quadrature nodes are frozen, so its norms share one x-only pass there."""
    import susytb.systems as systems

    calls = []
    compute = getattr(systems, x_parts)
    monkeypatch.setattr(systems, x_parts, lambda p, x: calls.append(x) or compute(p, x))
    system = WaveguideSystem(params)
    calls.clear()  # construction may scan or sample; count the norms only
    system.pseudo_norm_sign(next(iter(system.energies())))
    assert sum(x is system.quad.points[0] for x in calls) == 1
    if system.is_dynamic:
        assert len(calls) == 1


@st.composite
def static_params(draw):
    """Hermitian or PT static pairs with |k2| > |k1| > 0, inside the float-range window."""
    k1 = draw(st.floats(0.2, 2.0)) * draw(st.sampled_from((1.0, -1.0)))
    k2 = k1 * draw(st.floats(1.05, 3.0)) * draw(st.sampled_from((1.0, -1.0)))
    if draw(st.booleans()):
        return HermitianStaticParams(k1=k1, k2=k2)
    return PTStaticParams(k1=k1, k2=k2, alpha=draw(st.floats(-0.5, 0.5)))


@settings(max_examples=40, deadline=None)
@given(p=static_params(), half_width=st.floats(1.0, 12.0), nodes=st.integers(2, 400),
       z=st.floats(-100.0, 100.0))
def test_static_profile_memo_property(p, half_width, nodes, z):
    system = WaveguideSystem(p)
    x = np.linspace(-half_width, half_width, nodes)
    other = np.linspace(-half_width, 0.5 * half_width, nodes + 1)
    first = {kind: system.mode(kind, x, z) for kind in ("ground", "excited", "left", "right")}
    system.mode("left", other, z)
    fresh = WaveguideSystem(p)
    for kind, f in first.items():
        assert np.array_equal(system.mode(kind, x, z), f)
        assert np.array_equal(fresh.mode(kind, x, z), f)
    for kind in ("ground", "excited"):
        assert np.array_equal(first[kind], _stationary_closed_form(system, kind, x, z))


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(static_params(), certified_dynamic_params()), half_width=st.floats(1.0, 12.0),
       nodes=st.integers(2, 300), z=st.floats(-100.0, 100.0), frozen=st.booleans())
def test_pair_rows_are_the_per_kind_closed_forms_property(p, half_width, nodes, z, frozen):
    """Each order of one pass, on a frozen or a writeable grid, is the per-kind closed forms (copied
    in `conftest.reference_raw_mode`) bit for bit, and every mode evaluator picks or combines its rows."""
    system = WaveguideSystem(p)
    x = np.linspace(-half_width, half_width, nodes)
    if frozen:
        x = read_only(x)
    rows = system.pair(x, z)
    for order, evaluate in enumerate((system.mode, system.mode_dz)):
        got = rows(order)
        assert got.shape == (2, nodes)
        for row, kind in zip(got, system.facts.stationary):
            assert np.array_equal(row, reference_mode(system, kind, x, z, order))
            assert np.array_equal(evaluate(kind, x, z), row)
        for kind in ("left", "right"):
            sign, inv_n = system.combination(kind)
            assert np.array_equal(evaluate(kind, x, z), inv_n * (got[0] + sign * got[1]))
    for kind in system.mode_kinds:  # the exact state's H^2: E_j^2 times each field row, for a static pair only
        if system.is_dynamic:
            with pytest.raises(ValueError, match="only available for static systems"):
                ExactState(system, kind)(x, z, 2)
        else:
            h2 = np.stack([reference_mode(system, k, x, z, 2) for k in system.facts.stationary])
            assert np.array_equal(ExactState(system, kind)(x, z, 2), system.combined(kind, lambda: h2))


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


_FIELD_CALLS = [(method, kind) for kind in ("floquet1", "floquet2", "left", "right")
                for method in ("mode", "mode_dz")]


@settings(max_examples=25, deadline=None)
@given(p=certified_dynamic_params(), zs=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=3),
       calls=st.permutations(_FIELD_CALLS))
def test_cross_implementation_random_parameters(p, zs, calls):
    """Closed form vs Darboux over the certified domain, and the per-z pass vs fresh systems."""
    x = np.linspace(-5, 5, 101)
    z = zs[0]
    system = make_system(p, verify_regularity=False)
    u1, u2, f1, f2 = system.seeds()
    assert np.max(np.abs(system.potential(x, z) - second_order_potential(u1, u2, x, z))) < 1e-9
    for kind, f in (("floquet1", f1), ("floquet2", f2)):
        via = apply_L12(u1, u2, f, x, z)
        closed = system.mode(kind, x, z)
        i = int(np.argmax(np.abs(closed)))
        lam = via[i] / closed[i]
        assert np.max(np.abs(lam * closed - via)) < 1e-9 * max(1.0, abs(lam))
    h = 1e-5  # truncation h^2 |d_z^3 psi| / 6 and rounding eps |z d_z psi| / h both stay below 1e-7
    for kind in ("floquet1", "floquet2", "left", "right"):
        num = (system.mode(kind, x, z + h) - system.mode(kind, x, z - h)) / (2 * h)
        ana = system.mode_dz(kind, x, z)
        assert np.max(np.abs(num - ana)) < 1e-7 * np.max(np.abs(ana))

    ps = PTStaticParams(k1=p.k1, k2=p.k2, alpha=p.alpha)
    ss = make_system(ps)
    su1, su2, _, _ = ss.seeds()
    assert np.max(np.abs(ss.potential(x) - second_order_potential(su1, su2, x, 0.0))) < 1e-9

    # interleaved calls on a frozen and a writeable node set, forward through zs and back
    for zz in zs + zs[::-1]:
        for nodes in (read_only(np.linspace(-6.0, 6.0, 97)), np.linspace(-4.0, 7.0, 64)):
            assert np.array_equal(system.potential(nodes, zz), WaveguideSystem(p).potential(nodes, zz))
            for method, kind in calls:
                fresh = getattr(WaveguideSystem(p), method)(kind, nodes, zz)
                assert np.array_equal(getattr(system, method)(kind, nodes, zz), fresh)
