import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susytb import cli, systems
from susytb.calibrate import default_problem, spectral_match
from susytb.config import validate_config
from susytb.observables import (
    OBSERVABLES,
    SPREAD_TOL,
    DerivativeResolutionError,
    ExactState,
    _Fields,
    ObservableRequest,
    ObservableSeries,
    TBStaticState,
    TBTrajectoryState,
    comparison_metrics,
    moment_series,
    moment_table,
)
from susytb.presets import preset_config
from susytb.quadrature import QuadratureSpec, d1_fourth, d2_fourth, fold_phases, quad_nodes
from susytb.tightbinding import (
    assemble_state,
    floquet_monodromy,
    static_guided_modes,
    two_well_model,
)

from conftest import HERM, certified_dynamic_params


@pytest.fixture(scope="module")
def herm_quad(herm_system):
    return QuadratureSpec(half_width=12.0 / herm_system.min_k, nodes=4097)


@pytest.fixture(scope="module")
def pt_quad(pt_system):
    return QuadratureSpec(half_width=12.0 / pt_system.min_k, nodes=4097)


@pytest.fixture(scope="module")
def pt_tb_state(pt_system):
    cal = spectral_match(default_problem(pt_system))
    model = two_well_model("pt", cal.parameters["k"], cal.parameters["x0"],
                           cal.parameters["alpha_tilde"])
    return TBStaticState(model, static_guided_modes(model), "left", pt_system)


class GaussianState:
    """A free beam with no H images: only x and p moments can be asked of it."""

    def __init__(self, width=1.5):
        self.w = width

    def __call__(self, x, z):
        return np.exp(-x * x / (2 * self.w**2)) + 0j


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

def test_power_of_unit_modes(herm_system, herm_quad):
    st = ExactState(herm_system, "left")
    assert moment_series(st, "power", "dirac", [0.0], herm_quad).values[0] == pytest.approx(1.0, abs=1e-9)


def test_hermitian_power_constant(herm_system, herm_quad):
    t = herm_system.periods().fundamental
    st = ExactState(herm_system, "left")
    z = np.linspace(0.0, 2 * t, 41)
    s = moment_series(st, "power", "dirac", z, herm_quad)
    assert np.max(np.abs(s.values.real - 1.0)) < 1e-8


def test_pt_power_oscillates(pt_system, pt_quad):
    t = pt_system.periods().fundamental
    st = ExactState(pt_system, "left")
    z = np.linspace(0.0, t, 41)
    s = moment_series(st, "power", "dirac", z, pt_quad)
    assert s.values.real.max() - s.values.real.min() > 1e-3


def test_even_state_has_zero_means():
    st = GaussianState()
    quad = QuadratureSpec(half_width=12.0, nodes=2049)
    for obs in ("x_mean", "p_mean"):
        s = moment_series(st, obs, "dirac", [0.0], quad)
        assert abs(s.values[0]) < 1e-10


def test_gaussian_uncertainty_product_is_minimal():
    st = GaussianState(width=0.9)
    quad = QuadratureSpec(half_width=12.0, nodes=4097)
    dx = moment_series(st, "x_std", "dirac", [0.0], quad).values[0].real
    dp = moment_series(st, "p_std", "dirac", [0.0], quad).values[0].real
    assert dx * dp == pytest.approx(0.5, abs=1e-7)


def test_series_metadata_and_validation(herm_system, herm_quad):
    st = ExactState(herm_system, "left")
    s = moment_series(st, "x_mean", "dirac", [0.0, 1.0], herm_quad, engine="exact")
    assert (s.observable, s.metric, s.normalization, s.engine) == (
        "x_mean", "dirac", "instantaneous_power", "exact")
    with pytest.raises(ValueError):
        moment_series(st, "charge", "dirac", [0.0], herm_quad)
    with pytest.raises(ValueError):
        moment_series(st, "x_mean", "euclid", [0.0], herm_quad)
    gl = QuadratureSpec(half_width=10.0, nodes=1024, rule="gauss_legendre_composite")
    with pytest.raises(ValueError):
        moment_series(st, "x_mean", "dirac", [0.0], gl)
    with pytest.raises(ValueError):
        ObservableSeries(z=np.array([0.0]), values=np.zeros(2, complex),
                         observable="x_mean", metric="dirac", normalization="none")


# ---------------------------------------------------------------------------
# conservation suites
# ---------------------------------------------------------------------------

def test_hermitian_conservation_suite(herm_system, herm_quad):
    t = herm_system.periods().fundamental
    st = ExactState(herm_system, "left")
    z = np.linspace(0.0, 2 * t, 41)
    h = moment_series(st, "H_mean", "dirac", z, herm_quad).values
    dh = moment_series(st, "H_std", "dirac", z, herm_quad).values
    eg, ee = -HERM.k2**2, -HERM.k1**2
    assert np.max(np.abs(h - (eg + ee) / 2)) < 1e-7
    assert abs((eg + ee) / 2 - (-0.582125)) < 1e-12
    assert np.max(np.abs(dh - abs(eg - ee) / 2)) < 1e-7


def test_hermitian_uncertainty_floor(herm_system, herm_quad):
    t = herm_system.periods().fundamental
    st = ExactState(herm_system, "left")
    z = np.linspace(0.0, t, 17)
    dx = moment_series(st, "x_std", "dirac", z, herm_quad).values.real
    dp = moment_series(st, "p_std", "dirac", z, herm_quad).values.real
    assert np.all(dx * dp >= 0.5 - 1e-6)


def test_pt_h_mean_p_constancy_exact(pt_system, pt_quad):
    t = pt_system.periods().fundamental
    st = ExactState(pt_system, "left")
    z = np.linspace(0.0, 2 * t, 41)
    s = moment_series(st, "H_mean", "pt", z, pt_quad)
    assert s.normalization == "initial_power"
    mean = s.values.mean()
    assert np.max(np.abs(s.values - mean)) < 1e-4 * abs(mean)
    assert abs(mean.imag) < 1e-10


def test_pt_h_mean_p_constant_matches_quadrature_oracle(pt_system, pt_quad):
    """Independent oracle: H psi from a z finite difference of the mode."""
    x, w = quad_nodes(pt_quad)
    h = 1e-5
    psi0 = pt_system.mode("left", x, 0.0)
    dpsi = (pt_system.mode("left", x, -2 * h) - 8 * pt_system.mode("left", x, -h)
            + 8 * pt_system.mode("left", x, h) - pt_system.mode("left", x, 2 * h)) / (12 * h)
    hpsi = 1j * dpsi
    predicted = np.sum(w * np.conj(psi0) * hpsi[::-1]) / np.sum(w * np.abs(psi0) ** 2)
    st = ExactState(pt_system, "left")
    got = moment_series(st, "H_mean", "pt", [0.0], pt_quad).values[0]
    assert abs(got - predicted) < 1e-8


def test_pt_h_mean_p_constancy_tb(pt_tb_state, pt_quad, pt_system):
    t = pt_system.periods().fundamental
    z = np.linspace(0.0, 2 * t, 41)
    s = moment_series(pt_tb_state, "H_mean", "pt", z, pt_quad)
    mean = s.values.mean()
    assert np.max(np.abs(s.values - mean)) < 1e-4 * abs(mean)


def test_pt_h_mean_p_exact_tb_agreement(pt_system, pt_tb_state, pt_quad):
    z = np.linspace(0.0, 10.0, 5)
    ex = moment_series(ExactState(pt_system, "left"), "H_mean", "pt", z, pt_quad).values.mean()
    tb = moment_series(pt_tb_state, "H_mean", "pt", z, pt_quad).values.mean()
    assert abs(tb - ex) / abs(ex) < 5e-2


def test_quadrature_convergence(herm_system):
    st = ExactState(herm_system, "left")
    l = 12.0 / herm_system.min_k
    a = moment_series(st, "x_mean", "dirac", [3.0], QuadratureSpec(half_width=l, nodes=4097)).values[0]
    b = moment_series(st, "x_mean", "dirac", [3.0], QuadratureSpec(half_width=l, nodes=8193)).values[0]
    assert abs(a - b) < 1e-8


def test_tb_h_apply_is_the_evolution_generator(pt_tb_state, pt_quad):
    # H psi = i d_z psi for the model's own dynamics
    x, _ = quad_nodes(pt_quad)
    h = 1e-6
    fd = 1j * (pt_tb_state(x, 1.0 + h) - pt_tb_state(x, 1.0 - h)) / (2 * h)
    got = pt_tb_state(x, 1.0, 1)
    assert np.max(np.abs(got - fd)) < 1e-7


@pytest.mark.parametrize("system_name, wells, tb", [("herm_system", "hermitian", (0.7454, 1.66214)),
                                                     ("pt_system", "pt", (1.14, 1.65, 0.21))])
def test_static_states_give_h_to_the_order_in_one_call(system_name, wells, tb, request):
    """state(x, z, k) is H^k psi: the exact state's mode, i mode_dz and mode_h2, the TB state's assembled
    H^k coefficients, each bit for bit."""
    system = request.getfixturevalue(system_name)
    model = two_well_model(wells, *tb)
    guided = static_guided_modes(model)
    x, z = np.linspace(-9.0, 9.0, 257), 1.3
    for kind in ("ground", "excited", "left", "right"):
        exact, approx = ExactState(system, kind), TBStaticState(model, guided, kind, system)
        images = (system.mode(kind, x, z), 1j * system.mode_dz(kind, x, z), system.mode_h2(kind, x, z))
        for order, image in enumerate(images):
            assert np.array_equal(exact(x, z, order), image), (kind, order)
            assert np.array_equal(approx(x, z, order),
                                  assemble_state(model, guided.coefficients(kind, z, order), x)), (kind, order)


def test_resolution_guard_triggers():
    class Chirpy:
        def __call__(self, x, z):
            return np.exp(-x * x) * np.exp(25j * x)

    coarse = QuadratureSpec(half_width=12.0, nodes=65)
    with pytest.raises(DerivativeResolutionError):
        moment_series(Chirpy(), "p_mean", "dirac", [0.0], coarse)


# ---------------------------------------------------------------------------
# one pass over z for all observables
# ---------------------------------------------------------------------------

ALL_REQUESTS = [ObservableRequest(o, m) for o in OBSERVABLES for m in ("dirac", "pt")]
BEAM_REQUESTS = [r for r in ALL_REQUESTS if r.name not in ("H_mean", "H_std")]


class CountingState:
    """Forwards to a state and counts its calls per order: psi, H psi and H^2 psi."""

    def __init__(self, state):
        self._state = state
        self.calls = Counter()

    def __call__(self, x, z, *order):  # psi is asked for without an order, so a plain state(x, z) fits
        self.calls[("psi", "h", "h2")[order[0] if order else 0]] += 1
        return self._state(x, z, *order)


@pytest.fixture(scope="module")
def dyn_quad(dyn_system):
    return QuadratureSpec(half_width=12.0 / dyn_system.min_k, nodes=4097)


@pytest.fixture(scope="module")
def dyn_tb_state(dyn_system):
    model = two_well_model("hermitian", 1.045, 1.77114, potential=dyn_system.potential,
                           hamiltonian_source="system", dynamic=True)
    flq = floquet_monodromy(model, dyn_system.periods().fundamental,
                            targets=sorted(dyn_system.energies().values()), z_grid=[0.0, 0.5, 1.0, 1.5])
    return TBTrajectoryState(model, flq, [0.7, -0.7])


STATES = {
    "exact-hermitian": lambda r: (ExactState(r.getfixturevalue("herm_system"), "left"),
                                  r.getfixturevalue("herm_quad")),
    "exact-pt-static": lambda r: (ExactState(r.getfixturevalue("pt_system"), "right"),
                                  r.getfixturevalue("pt_quad")),
    "exact-dynamic": lambda r: (ExactState(r.getfixturevalue("dyn_system"), "left"),
                                r.getfixturevalue("dyn_quad")),
    "tb-static": lambda r: (r.getfixturevalue("pt_tb_state"), r.getfixturevalue("pt_quad")),
    "tb-trajectory": lambda r: (r.getfixturevalue("dyn_tb_state"), r.getfixturevalue("dyn_quad")),
    "finite-difference": lambda r: (GaussianState(), QuadratureSpec(half_width=12.0, nodes=2049)),
}


def _requests(name):
    """Every request, but no H moments of the state without H images."""
    return BEAM_REQUESTS if name == "finite-difference" else ALL_REQUESTS


@pytest.mark.parametrize("name", sorted(STATES))
def test_moment_table_equals_separate_series(name, request):
    state, quad = STATES[name](request)
    z = [0.0, 0.5, 1.0, 1.5]
    requests = _requests(name)
    table = moment_table(state, requests, z, quad, engine="tb")
    assert len(table) == len(requests)
    for series, (observable, metric) in zip(table, requests):
        alone = moment_series(state, observable, metric, z, quad, engine="tb")
        assert np.array_equal(series.values, alone.values)
        assert np.array_equal(series.z, alone.z)
        assert (series.observable, series.metric, series.normalization, series.engine) == (
            alone.observable, alone.metric, alone.normalization, alone.engine)


@pytest.mark.parametrize("name, has_h", [("exact-pt-static", True), ("tb-static", True),
                                         ("finite-difference", None)])
def test_moment_table_evaluates_each_field_once(name, has_h, request):
    state, quad = STATES[name](request)
    for z in ([0.0, 0.5, 1.0, 1.5], [0.5, 1.0, 1.5]):
        counted = CountingState(state)
        moment_table(counted, _requests(name), z, quad)
        n = len(z)
        # psi once at z = 0, first, for the resolution guard and the initial power that normalizes the
        # PT H moments (the grid's own first z when it is 0), then once per further z of the grid;
        # H psi and H^2 psi once per z of the grid
        expected = {"psi": n if z[0] == 0 else n + 1}
        if has_h:
            expected.update(h=n, h2=n)
        assert dict(counted.calls) == expected, z


def _repeated_phases(system):
    """A grid over two modulation periods with two distinct phases, 0 and 0.5."""
    t = system.periods().fundamental
    return [0.0, 0.5, t, t + 0.5, 2 * t]


def _dyn_trajectory_state(system, z):
    model = two_well_model("hermitian", 1.045, 1.77114, potential=system.potential,
                           hamiltonian_source="system", dynamic=True)
    flq = floquet_monodromy(model, system.periods().fundamental,
                            targets=sorted(system.energies().values()), z_grid=z)
    return TBTrajectoryState(model, flq, [0.7, -0.7])


def _count_passes(monkeypatch, system):
    """Counter of the modulated pair's closed-form passes ("pass"), the d/dz read off them ("dz", at most
    once per pass) and V samples ("potential"), once the norms are in place."""
    system.combination("left")
    calls, floquet_pair, potential = Counter(), systems._floquet_pair, system.potential

    def counted_pair(*args):
        fields, dz = floquet_pair(*args)
        calls["pass"] += 1
        read = []

        def counted_dz():
            assert not read, "d/dz read twice off one pass"
            read.append(True)
            calls["dz"] += 1
            return dz()
        return fields, counted_dz

    monkeypatch.setattr(systems, "_floquet_pair", counted_pair)
    monkeypatch.setattr(system, "potential", lambda *args: calls.update(["potential"]) or potential(*args))
    for method in ("mode", "mode_dz"):  # the table reads the passes' rows, never the per-kind evaluators
        monkeypatch.setattr(system, method, lambda *args: pytest.fail("a per-kind evaluator was called"))
    return calls


def test_exact_modulated_table_evaluates_each_phase_once(dyn_system, dyn_quad, monkeypatch):
    calls = _count_passes(monkeypatch, dyn_system)
    moment_table(ExactState(dyn_system, "left"), ALL_REQUESTS, _repeated_phases(dyn_system), dyn_quad)
    # two phases, 0 and 0.5, take fewer passes than the least phase series (N = 8: 5 passes), so the table
    # takes them: one pass each for both Floquet modes and their d/dz, sampling V once; the resolution
    # guard and the initial power read phase 0's
    assert dict(calls) == {"pass": 2, "dz": 2, "potential": 2}


def _preset_dynamic(**system):
    raw = preset_config("pt-dynamic-fig1-5-6")
    raw["system"].update(system)
    return validate_config(json.dumps(raw))


@pytest.mark.parametrize("grid, phases, mirrored, passes", [
    # 160 phases r = i T_V / 160 in 81 mirrored pairs (r and T_V - r, 0 and T_V / 2 their own mirrors): the
    # series at N = 32 takes 17 passes instead
    (lambda cfg, t: cfg.z_values, 160, 81, 17),
    # T_V / 20 over 1.8 periods: 20 phases in 11 pairs (1..9 with 19..11), fewer than 17: the grid's own
    (lambda cfg, t: np.arange(37) * t / 20, 20, 11, 11),
    # one period at T_V / 8: 1..3 pair with 7..5, so 5 passes
    (lambda cfg, t: np.linspace(0.0, t, 9), 8, 5, 5),
    # 0.5 and T_V - 0.3 are not each other's mirror, and the guard and the initial power need phase 0
    (lambda cfg, t: [0.5, t - 0.3, t + 0.5, 2 * t - 0.3], 2, 2, 3),
], ids=["preset", "1.8-periods", "9-points", "no-mirror"])
def test_exact_modulated_table_evaluates_each_mirrored_pair_once(monkeypatch, grid, phases, mirrored, passes):
    cfg = _preset_dynamic()
    system = cfg.system
    z = np.asarray(grid(cfg, system.periods().fundamental))
    assert len(fold_phases(z, system.periods().fundamental)[2]) == phases
    calls = _count_passes(monkeypatch, system)
    moment_table(ExactState(system, "left"), ALL_REQUESTS, z, cfg.quad)
    # one pass per phase taken, its d/dz included, and no more than one per mirrored pair of the grid plus
    # the resolution guard's and the initial power's, as when each pair took its own pass
    assert dict(calls) == {"pass": passes, "dz": passes, "potential": passes}
    assert passes <= mirrored + 2


def test_exact_modulated_table_passes_do_not_grow_with_the_z_grid_or_the_nodes(monkeypatch):
    """The preset grid, one 10x as long at the same step (20 periods, 3,201 z) and the preset grid on 4x the
    nodes take the same 17 passes. There the p^2/H^2 stencils' rounding, 16x the preset's, lifts their top
    harmonics above GRAM_SERIES_TOL; doubling N cannot lower it, and the series stops at the samples' own."""
    counts = []
    for periods, num, nodes in ((2.0, 321, 4097), (20.0, 3201, 4097), (2.0, 321, 16385)):
        raw = preset_config("pt-dynamic-fig1-5-6")
        raw["z_grid"], raw["quadrature"] = {"periods": periods, "num": num}, {"nodes": nodes}
        cfg = validate_config(json.dumps(raw))
        with monkeypatch.context() as patch:
            calls = _count_passes(patch, cfg.system)
            moment_table(ExactState(cfg.system, cfg.mode_kind), cfg.observables, cfg.z_values, cfg.quad)
        counts.append(calls["pass"])
    assert counts == [17, 17, 17]


def _gram_stacks(system, x, w, h, keys, r):
    """P(r) = G(r) e^{-i(E_i - E_j) r} of both Floquet modes under each key, from the per-kind evaluators at r,
    and the size of each Gram sum's terms, sum_x w |f_i| |A f_j| (A f_j at -x for PT), which sets its rounding."""
    kinds = system.facts.stationary
    energies = np.array([system.energies()[k] for k in kinds])
    rows = _Fields(np.stack([system.mode(k, x, r) for k in kinds]), x, w, h,
                   hf=lambda: 1j * np.stack([system.mode_dz(k, x, r) for k in kinds]),
                   v=lambda: system.potential(x, r))
    sizes = []
    for order, family, metric in keys:
        g = np.abs(rows.f if order == 0 else rows.image(f"{family}{order}"))
        sizes.append((w * np.abs(rows.f)) @ (g[:, ::-1] if metric == "pt" else g).T)
    beat = energies[:, None] - energies
    return np.stack([rows.sandwich(*key) for key in keys]) * np.exp(-1j * beat * r), np.stack(sizes)


GRAM_KEYS = [(0, "", "dirac")] + list(itertools.product((1, 2), ("x", "p", "H"), ("dirac", "pt")))
STENCIL_FLOOR = [order == 2 and family in ("p", "H") for order, family, _ in GRAM_KEYS]


def _series_error(system, quad, phases):
    """The phase series of the left state's Gram stacks, its largest distance per key from a fresh pass at
    the phases, and the largest size of each key's Gram sums' terms there."""
    x, w = quad.points
    series = ExactState(system, "left").phase_series(x, w, x[1] - x[0], GRAM_KEYS, budget=10**4)
    want, sizes = zip(*(_gram_stacks(system, x, w, x[1] - x[0], GRAM_KEYS, r) for r in phases))
    error = np.abs(series(np.asarray(phases)) - np.stack(want)).max(axis=(0, 2, 3))
    return series, error, np.stack(sizes).max(axis=(0, 2, 3))


@settings(max_examples=12, deadline=None)
@given(p=certified_dynamic_params(), unit=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=3, max_size=3))
@example(p=systems.PTDynamicParams(k1=1.0, k2=1.1, k3=0.95, alpha=0.3), unit=[0.1, 0.37, 0.81])
@example(p=systems.PTDynamicParams(k1=1.0, k2=1.1, k3=0.95, alpha=0.6), unit=[0.1, 0.37, 0.81])
def test_phase_series_is_the_per_phase_gram_matrices_property(p, unit):
    """At any phase the series is a fresh pass to 1e-12 of the size of each Gram sum's terms, 1e-11 for p^2
    and H^2, whose d2 stencil carries eps / h^2 of rounding per node. The size, not the sum: where x moments
    cancel over the wings of a wide window (k3 -0.25: half-width 48), a fresh pass parts from itself at
    r + T_V by 1.3e-11 of the sum."""
    _assert_phase_series_is_fresh_passes(p, unit)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 17: the Simpson nodes mirror each other only to rounding, and on this "
                   "drawn example the p^2 series parts from a fresh pass by 1.2e-11 of its size")
def test_phase_series_is_the_per_phase_gram_matrices_on_the_recorded_example():
    """The example the property test draws now and then, fixed, so that its failure shows on every run."""
    p = systems.PTDynamicParams(k1=0.8654194180826517, k2=0.9109678085080544, k3=0.8203313379498132, alpha=0.0)
    _assert_phase_series_is_fresh_passes(p, [0.0, 0.0, 0.75])


def _assert_phase_series_is_fresh_passes(p, unit):
    system = systems.make_system(p)
    quad = QuadratureSpec(half_width=12.0 / system.min_k, nodes=4097)
    series, error, size = _series_error(system, quad, [u * system.periods().fundamental for u in unit])
    assert series.n
    assert np.all(error <= np.where(STENCIL_FLOOR, 1e-11, 1e-12) * size), error / size


@pytest.mark.parametrize("alpha", [0.1, 0.3], ids=["preset", "alpha-0.3"])
def test_phase_series_error_estimate_bounds_the_error(alpha):
    """The series' estimate bounds its distance from a fresh pass at 25 random phases, for every Gram stack,
    where that distance sits at the rounding floor of the samples (1.7e-12 for p^2 and H^2 at the preset),
    well above the top harmonics; and the estimate stays that floor's size."""
    cfg = _preset_dynamic(alpha=alpha)
    phases = np.random.default_rng(26).uniform(0.0, cfg.system.periods().fundamental, 25)
    series, error, _ = _series_error(cfg.system, cfg.quad, phases)
    assert series.n == (32 if alpha == 0.1 else 64)
    assert np.all(error <= series.error * series.scale), (error / series.scale, series.error)
    assert series.error.max() <= 1e-10


def test_exact_table_near_the_regularity_edge_reads_the_grid(monkeypatch):
    """alpha 0.8 (rho 0.971) would need N = 2048: the table takes the preset grid's 81 mirrored phases
    instead, fewer passes than one per pair plus the guard's and the initial power's (83), and matches the
    per-z sums at the 1e-10 bound of `test_two_mode_tables_match_the_per_z_reference`, the PT spreads of p
    and H included, whose variances leave the negative real axis here (H's by 6 % of its size, p's by
    1.2e-8)."""
    cfg = _preset_dynamic(alpha=0.8)
    x, _ = quad_nodes(cfg.quad)
    z = np.asarray(cfg.z_values)
    requests = _per_z_requests(cfg)
    reference = _per_z_table(_exact_fields(cfg.system, "left", x, x[1] - x[0]), requests, z, cfg.quad)
    calls = _count_passes(monkeypatch, cfg.system)
    table = moment_table(ExactState(cfg.system, "left"), requests, z, cfg.quad)
    assert calls["pass"] == 81  # one per mirrored pair, the guard and the initial power reading phase 0's
    for series, ref in zip(table, reference):
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(series.values - ref)) <= 1e-10 * scale, (series.observable, series.metric)


def test_mirrored_gram_matrices_match_the_mirror_phase(monkeypatch):
    """P(T_V - r)_ij = s c_i c_j conj(P(r)_ij), P(r) = G(r) e^{-i(E_i - E_j) r}, c = (+1, -1) the modes' PT
    parities: the phase series' sampler takes one pass for both phases of each mirrored pair of the preset
    grid, for every image and both metrics; s = -1 for x only.

    Within 1e-12 of each Gram matrix's scale, but 1e-11 for p^2 and H^2: the d2 stencil turns the
    fields' rounding into noise of eps / h^2 per node, so even one phase taken twice, r and r + T_V
    scaled back by the multipliers, parts by 1.7e-12 there (the mirror: 1.8e-12)."""
    cfg = _preset_dynamic()
    system, period = cfg.system, cfg.system.periods().fundamental
    x, w = quad_nodes(cfg.quad)
    h = x[1] - x[0]
    _, _, phases = fold_phases(np.asarray(cfg.z_values), period)
    pairs = [(r, phases[np.argmin(np.abs(phases - (period - r)))]) for r in phases[1:80]]
    assert len(pairs) == 79 and all(abs(m - (period - r)) < 1e-9 * period for r, m in pairs)
    sampler = ExactState(system, "left").phase_series(x, w, h, GRAM_KEYS, budget=0)
    assert sampler.n == 0  # no series within no passes
    calls = _count_passes(monkeypatch, system)
    got = sampler.at_phases(np.array([phase for pair in pairs for phase in pair]))
    assert calls["pass"] == len(pairs)
    monkeypatch.undo()
    for (r, m), both in zip(pairs, got.reshape(len(pairs), 2, *got.shape[1:])):
        for phase, stacks in zip((r, m), both):
            want = _gram_stacks(system, x, w, h, GRAM_KEYS, phase)[0]
            for key, p, direct, floor in zip(GRAM_KEYS, stacks, want, STENCIL_FLOOR):
                tol = 1e-11 if floor else 1e-12
                assert np.max(np.abs(p - direct)) <= tol * np.max(np.abs(direct)), (phase, key)


def test_trajectory_state_builds_each_hamiltonian_once(dyn_system, dyn_quad, monkeypatch):
    """The march made S^-1 H(r) once per phase r; the table builds no H(z) of its own."""
    z = _repeated_phases(dyn_system)
    state = _dyn_trajectory_state(dyn_system, z)
    model = state.model
    built, bases = [], []
    build, basis = model.hamiltonian_matrix, model.basis_values

    def counted_build(zz):
        built.append(zz)
        return build(zz)

    def counted_basis(x):
        bases.append(x)
        return basis(x)

    monkeypatch.setattr(model, "hamiltonian_matrix", counted_build)
    monkeypatch.setattr(model, "basis_values", counted_basis)
    moment_table(state, ALL_REQUESTS, z, dyn_quad)
    assert built == []
    # one basis for the table, the resolution guard and the initial power reading its z = 0
    assert len(bases) == 1


def test_trajectory_state_takes_only_marched_z(dyn_system, dyn_quad):
    z = _repeated_phases(dyn_system)
    state = _dyn_trajectory_state(dyn_system, z)
    moment_table(state, ALL_REQUESTS, z[1:3], dyn_quad)  # a subset is fine; z[0] = 0 carries the initial power
    for off_grid in ([0.0, 0.25], [0.0, np.nextafter(0.5, 1.0)], [0.0, 3 * z[-1]]):
        with pytest.raises(ValueError, match="not on the marched grid"):
            moment_table(state, ALL_REQUESTS, off_grid, dyn_quad)


def test_trajectory_table_raises_each_generator_to_each_power_once(monkeypatch):
    """(S^-1 H(r))^k once per phase r and order k: 160 phases x H and H^2 on the preset grid,
    not once per z and order (642)."""
    cfg = _preset_dynamic()
    z = np.asarray(cfg.z_values)
    state = _dyn_trajectory_state(cfg.system, z)
    powered = Counter()
    matrix_power = np.linalg.matrix_power

    def counted(a, k):
        powered[k] += int(np.prod(np.shape(a)[:-2]))  # one per matrix of a stack
        return matrix_power(a, k)

    monkeypatch.setattr(np.linalg, "matrix_power", counted)
    moment_table(state, ALL_REQUESTS, z, cfg.quad)
    assert dict(powered) == {1: 160, 2: 160}


def _per_z_table(fields, requests, z_grid, quad):
    """moment_table's sums taken z by z; fields(i, z) gives psi, H psi and H^2 psi there."""
    x, w = quad_nodes(quad)
    h = x[1] - x[0]
    out = np.empty((len(requests), len(z_grid)), dtype=complex)
    assert z_grid[0] == 0.0
    for i, z in enumerate(z_grid):
        f, hf, h2f = fields(i, z)
        power = float(np.sum(w * np.abs(f) ** 2).real)
        p0 = power if i == 0 else p0
        images = {"x": (x * f, x * x * f), "p": (-1j * d1_fourth(f, h), -d2_fourth(f, h)),
                  "H": (hf, h2f)}
        for row, (observable, metric) in zip(out, requests):
            if observable == "power":
                row[i] = power
                continue
            family = observable.split("_")[0]
            norm = p0 if family == "H" and metric == "pt" else power
            m1, m2 = (np.sum(w * np.conj(f) * (g[::-1] if metric == "pt" else g)) / norm
                      for g in images[family])
            variance = m2 - m1 * m1  # real if negative within SPREAD_TOL: its +i root
            real = variance.real < 0 and abs(variance.imag) <= SPREAD_TOL * -variance.real
            row[i] = m1 if observable.endswith("_mean") else np.sqrt(
                complex(variance.real, 0.0) if real else variance)
    return out


def _exact_fields(system, kind, x, h):
    def fields(i, z):
        hf = 1j * system.mode_dz(kind, x, z)
        return system.mode(kind, x, z), hf, -d2_fourth(hf, h) + system.potential(x, z) * hf
    return fields


def _tb_fields(state, x):
    model = state.model

    def fields(i, z):
        c = state.trajectory.c[i]
        gen = model.overlap_inverse() @ model.hamiltonian_matrix(z)
        return tuple(assemble_state(model, a, x) for a in (c, gen @ c, gen @ (gen @ c)))
    return fields


def _per_z_requests(cfg):
    """Every mean and power, the pipeline's own spreads and the PT-metric x and p spreads, whose
    variance can sit on the negative real axis (both tables then take the +i root, whatever the
    sign of an imaginary part within SPREAD_TOL of it); the Dirac-metric spreads of a
    floquet mode are set by cancellation (<A^2> - <A>^2 of a near-eigenstate), so two
    summation orders part by more than 1e-10 there."""
    requests = [r for r in ALL_REQUESTS if not r.name.endswith("_std")]
    requests += [r for r in cfg.observables if r.name.endswith("_std")]
    return requests + [ObservableRequest(name, "pt") for name in ("x_std", "p_std")]


@pytest.fixture(scope="module", params=[(None, None), (3.3, 100), (3.3, 101), (1.8, 37)],
                ids=["preset", "3.3-periods", "3.3-periods-distinct", "1.8-periods"])
def dyn_pipeline(request):
    """The pt-dynamic preset's system, grid and TB state (explicit TB parameters), on the preset
    grid (160 phases, 79 pairs r and T_V - r), 3.3 periods at T_V/30 (phases met 3 or 4 times),
    3.3 periods with no two z at one phase, or 1.8 periods at T_V/20, where phases 1-3 T_V/20 are
    met twice but their mirrors once, so only phases 4-9 T_V/20 share their Gram matrices."""
    raw = preset_config("pt-dynamic-fig1-5-6")
    raw["tb"] = {"k": 1.045, "x0": 1.77114}
    periods, num = request.param
    if periods is not None:
        raw["z_grid"] = {"periods": periods, "num": num}
    cfg = validate_config(json.dumps(raw))
    _, tb_state, _ = cli._build_tb(cfg, dict(cfg.tb_explicit))
    return cfg, tb_state


@pytest.mark.parametrize("engine", ["exact-left", "exact-floquet1", "exact-floquet2", "tb"])
def test_two_mode_tables_match_the_per_z_reference(dyn_pipeline, engine):
    cfg, tb_state = dyn_pipeline
    x, _ = quad_nodes(cfg.quad)
    h = x[1] - x[0]
    z = np.asarray(cfg.z_values)
    if engine == "tb":
        state, fields = tb_state, _tb_fields(tb_state, x)
    else:
        kind = engine.split("-")[1]
        state, fields = ExactState(cfg.system, kind), _exact_fields(cfg.system, kind, x, h)
    requests = _per_z_requests(cfg)
    table = moment_table(state, requests, z, cfg.quad)
    reference = _per_z_table(fields, requests, z, cfg.quad)
    for series, ref in zip(table, reference):
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(series.values - ref)) <= 1e-10 * scale, (series.observable, series.metric)


def test_floquet_modes_repeat_with_their_multipliers(dyn_system):
    """The fold's premise: mode(k, x, r + n T_V) = e^{-i E_k n T_V} mode(k, x, r)."""
    t = dyn_system.periods().fundamental
    x = np.linspace(-10.0, 10.0, 801)
    for kind, energy in dyn_system.energies().items():
        for r in (0.0, 0.37 * t, 0.81 * t):
            base = dyn_system.mode(kind, x, r)
            for n in range(1, 5):
                moved = dyn_system.mode(kind, x, r + n * t)
                err = np.max(np.abs(moved - np.exp(-1j * energy * n * t) * base))
                assert err <= 1e-12 * np.max(np.abs(base)), (kind, r, n)


@pytest.mark.parametrize("bad", [ObservableRequest("charge", "dirac"),
                                 ObservableRequest("x_mean", "euclid"),
                                 ObservableRequest("power", "euclid")])
def test_moment_table_validates_before_evaluating(bad, herm_system, herm_quad):
    counted = CountingState(ExactState(herm_system, "left"))
    with pytest.raises(ValueError):
        moment_table(counted, [ObservableRequest("power", "dirac"), bad], [0.0, 1.0], herm_quad)
    gl = QuadratureSpec(half_width=10.0, nodes=1024, rule="gauss_legendre_composite")
    with pytest.raises(ValueError):
        moment_table(counted, [ObservableRequest("power", "dirac")], [0.0], gl)
    assert not counted.calls


# ---------------------------------------------------------------------------
# comparison metrics
# ---------------------------------------------------------------------------

def _series(z, vals):
    return ObservableSeries(z=np.asarray(z, float), values=np.asarray(vals, complex),
                            observable="x_mean", metric="dirac", normalization="none")


def test_metrics_identity():
    z = np.linspace(0, 20, 301)
    s = _series(z, np.sin(z))
    m = comparison_metrics(s, s)
    assert m.rmse == 0.0
    assert m.amplitude_ratio == pytest.approx(1.0)
    assert abs(m.phase_shift) < 1e-6


def test_metrics_antiphase():
    z = np.linspace(0, 8 * math.pi, 801)
    a = _series(z, np.sin(z))
    b = _series(z, -np.sin(z))
    m = comparison_metrics(a, b)
    assert abs(abs(m.phase_shift) - math.pi) < 0.05
    assert m.period == pytest.approx(2 * math.pi, rel=0.05)


def test_metrics_quarter_phase_and_amplitude():
    z = np.linspace(0, 8 * math.pi, 1601)
    a = _series(z, np.sin(z))
    b = _series(z, 0.5 * np.sin(z - math.pi / 2))
    m = comparison_metrics(a, b)
    assert m.amplitude_ratio == pytest.approx(0.5, rel=1e-6)
    # positive phase: the approximate series lags the exact one
    assert m.phase_shift == pytest.approx(math.pi / 2, abs=0.05)


def test_metrics_flat_series_has_no_phase():
    z = np.linspace(0, 10, 101)
    a = _series(z, np.sin(z))
    b = _series(z, np.ones_like(z))
    m = comparison_metrics(a, b)
    assert m.phase_shift is None


@pytest.mark.parametrize("zb", [np.linspace(0, 20, 173), np.linspace(0, 20, 401) + 1e-12],
                         ids=["other-length", "shifted"])
def test_metrics_refuse_series_on_another_grid(zb):
    za = np.linspace(0, 20, 401)
    with pytest.raises(ValueError, match="one z grid"):
        comparison_metrics(_series(za, np.sin(za)), _series(zb, np.sin(zb)))


def test_metrics_amplitude_ratio_of_a_flat_exact_series_is_none():
    z = np.linspace(0, 10, 101)
    m = comparison_metrics(_series(z, 1j * np.ones_like(z)), _series(z, np.sin(z)))
    assert m.amplitude_ratio is None and m.phase_shift is None
