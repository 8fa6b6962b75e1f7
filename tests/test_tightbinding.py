import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import susytb.tightbinding as tightbinding
from susytb.bpm import eigen_residual
from susytb.calibrate import default_problem
from susytb.config import validate_config
from susytb.presets import preset_config
from susytb.quadrature import PeriodicSeries, QuadratureSpec, fold_phases, quad_nodes, read_only
from susytb.systems import PTDynamicParams, make_system, potential_pt_dynamic
from susytb.tightbinding import (
    COND_LIMIT,
    DefectiveMonodromy,
    H_SERIES_MAX_SAMPLES,
    H_SERIES_TOL,
    IllConditionedOverlap,
    StepControl,
    TBModel,
    WellBasis,
    assemble_state,
    floquet_guided_modes,
    floquet_monodromy,
    generalized_energies_2x2,
    kappa_hermitian_closed_form,
    overlap_kappa,
    propagate_coefficients,
    single_well_mode,
    single_well_potential,
    solve_spectrum,
    static_guided_modes,
    two_well_model,
    _propagators,
    _H_REQUEST_MAX,
    _assign_branches,
    pair_parts,
    pair_pencil,
)

from conftest import (HERM, PTD, PTD_STRONG, certified_dynamic_params, reference_eig, reference_pencil,
                      reference_rows)

CAL_HERM = {"k": 0.7454, "x0": 1.66214}
CAL_PT = {"k": 1.14, "x0": 1.65, "alpha_tilde": 0.21}
CAL_DYN = {"k": 1.045, "x0": 1.77114}


# ---------------------------------------------------------------------------
# single wells
# ---------------------------------------------------------------------------

def test_well_validation():
    with pytest.raises(ValueError):
        WellBasis("square", 1.0)
    with pytest.raises(ValueError):
        WellBasis("hermitian", 0.0)
    with pytest.raises(ValueError):
        WellBasis("hermitian", 1.0, alpha_tilde=0.1)


def test_single_well_depth_at_center():
    b = WellBasis("hermitian", CAL_HERM["k"], 0.0, 1.3)
    assert single_well_potential(b, 1.3) == pytest.approx(-2 * CAL_HERM["k"] ** 2, abs=1e-12)
    assert single_well_potential(b, 1.3) == pytest.approx(-1.11124, abs=2e-5)


def test_pt_well_alpha_zero_is_hermitian():
    x = np.linspace(-6, 6, 301)
    a = single_well_potential(WellBasis("pt", 1.14, 0.0, 0.4), x)
    b = single_well_potential(WellBasis("hermitian", 1.14, 0.0, 0.4), x)
    assert np.max(np.abs(a - b)) < 1e-14


def test_pt_well_macroscopic_symmetry():
    """A displaced pt well breaks the origin PxT symmetry; the pair restores it."""
    k, at, x0 = 1.14, 0.21, 1.65
    x = np.linspace(-8, 8, 801)
    displaced = single_well_potential(WellBasis("pt", k, at, +x0), x)
    assert np.max(np.abs(displaced - np.conj(displaced[::-1]))) > 0.01
    pair = displaced + single_well_potential(WellBasis("pt", k, at, -x0), x)
    assert np.max(np.abs(pair - np.conj(pair[::-1]))) < 1e-12


def test_hermitian_mode_norm_closed_form():
    # raw norm^2 of k sech(kx) is 2k, so C = 1/sqrt(2k)
    k = 0.7454
    b = WellBasis("hermitian", k)
    spec = QuadratureSpec(half_width=16 / k, nodes=2048, rule="gauss_legendre_composite")
    x, w = quad_nodes(spec)
    assert abs(np.sum(w * np.abs(single_well_mode(b, x)) ** 2) - 1.0) < 1e-10
    assert single_well_mode(b, 0.0) == pytest.approx(k / math.sqrt(2 * k))


def test_mode_eigen_residual():
    for b in (WellBasis("hermitian", 0.7454), WellBasis("pt", 1.14, 0.21)):
        x = np.linspace(-10, 10, 4097)
        res = eigen_residual(lambda xx: single_well_mode(b, xx),
                             lambda xx: single_well_potential(b, xx), b.beta, x)
        assert res < 1e-8


def test_pt_mode_metric_normalization():
    b = WellBasis("pt", 1.14, 0.21)
    x, w = quad_nodes(QuadratureSpec(half_width=14.0, nodes=2048, rule="gauss_legendre_composite"))
    phi = single_well_mode(b, x)
    ps = np.sum(w * np.conj(phi) * single_well_mode(b, -x))
    assert abs(ps - 1.0) < 1e-10  # positive unit pseudo-norm
    dirac = np.sum(w * np.abs(phi) ** 2)
    assert dirac > 0.9  # finite, nonzero


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------

def test_kappa_matches_closed_form():
    k, x0 = CAL_HERM["k"], CAL_HERM["x0"]
    got = overlap_kappa(WellBasis("hermitian", k), x0)
    assert abs(got - kappa_hermitian_closed_form(k, x0)) < 1e-10


def test_kappa_benchmark_values():
    assert overlap_kappa(WellBasis("hermitian", CAL_HERM["k"]), CAL_HERM["x0"]) == pytest.approx(0.41, abs=0.02)
    assert overlap_kappa(WellBasis("hermitian", CAL_DYN["k"]), CAL_DYN["x0"]) == pytest.approx(0.18, abs=0.01)
    kap = overlap_kappa(WellBasis("pt", CAL_PT["k"], CAL_PT["alpha_tilde"]), CAL_PT["x0"])
    assert kap.real == pytest.approx(0.16, abs=0.02)


def test_kappa_monotone_decreasing():
    k = 0.9
    vals = [overlap_kappa(WellBasis("hermitian", k), x0) for x0 in np.linspace(0.5, 4.0, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    closed = [kappa_hermitian_closed_form(k, x0) for x0 in np.linspace(0.5, 4.0, 9)]
    assert np.allclose(vals, closed, atol=1e-10)


def test_kappa_closed_form_is_one_at_zero_separation():
    assert kappa_hermitian_closed_form(0.9, 0.0) == 1.0
    assert kappa_hermitian_closed_form(0.9, 1e-9) == pytest.approx(1.0, abs=1e-15)


def test_kappa_requires_positive_separation():
    with pytest.raises(ValueError):
        overlap_kappa(WellBasis("hermitian", 1.0), -1.0)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_two_hermitian_wells_matrix_structure():
    model = two_well_model("hermitian", CAL_HERM["k"], CAL_HERM["x0"])
    s = model.overlap_matrix()
    h = model.hamiltonian_matrix()
    assert s[0, 0] == pytest.approx(1.0, abs=1e-10)  # quadrature-tail limited
    assert s[0, 1] == pytest.approx(overlap_kappa(model.wells[0], CAL_HERM["x0"]), abs=1e-10)
    assert s[0, 1] == pytest.approx(s[1, 0], abs=1e-14)
    assert h[0, 0] == pytest.approx(h[1, 1], abs=1e-12)


def test_isolated_well_recovers_its_eigenvalue():
    """Wells at +-15 (24/k apart) are isolated: H = -k^2 S to 1e-10 and both pencil roots are -k^2, either kind."""
    k = 0.8
    for model in (TBModel("hermitian", k, 15.0), TBModel("pt", k, 15.0, 0.21)):
        h, s = model.hamiltonian_matrix(), model.overlap_matrix()
        assert np.max(np.abs(h - (-k * k) * s)) < 1e-10
        assert np.max(np.abs(generalized_energies_2x2(h, s) - (-k * k))) < 1e-12


def test_dynamic_hamiltonian_periodicity(dyn_system):
    t_v = dyn_system.periods().fundamental
    model = two_well_model("hermitian", CAL_DYN["k"], CAL_DYN["x0"],
                           potential=dyn_system.potential,
                           hamiltonian_source="system", dynamic=True)
    h0 = model.hamiltonian_matrix(1.3)
    h1 = model.hamiltonian_matrix(1.3 + t_v)
    assert np.max(np.abs(h1 - h0)) < 1e-12


@pytest.mark.parametrize("fixture", ["dyn_system", "dyn_strong_system"])
@pytest.mark.parametrize("kind", ["hermitian", "pt"])
def test_dynamic_hamiltonian_matches_direct_quadrature(fixture, kind, request):
    """The precomputed C + A V(z) form equals the quadrature of (beta + V - V0) phi."""
    system = request.getfixturevalue(fixture)
    at = CAL_PT["alpha_tilde"] if kind == "pt" else 0.0
    model = two_well_model(kind, CAL_DYN["k"], CAL_DYN["x0"], at, potential=system.potential,
                           hamiltonian_source="system", dynamic=True)
    x, w = quad_nodes(model.quad)
    xs = -x if model.metric == "pt" else x
    phi = np.stack([single_well_mode(b, x) for b in model.wells])
    phi_s = np.stack([single_well_mode(b, xs) for b in model.wells])
    v0_s = np.stack([single_well_potential(b, xs) for b in model.wells])
    beta = np.array([b.beta for b in model.wells])
    for z in (0.0, 0.9, 3.7, 41.3):
        v = potential_pt_dynamic(system.params, xs, z)
        ref = np.conj(phi) @ (w[:, None] * ((beta[:, None] + v - v0_s) * phi_s).T)
        h = model.hamiltonian_matrix(z)
        assert np.max(np.abs(h - ref)) <= 1e-13 * np.max(np.abs(ref))


def _rk4_lu_solve_reference(model, c, z0, z1, dz_max):
    """RK4 of i S c' = H(z) c solving with the LU factors of S at every stage."""
    lu = sla.lu_factor(model.overlap_matrix())
    n = max(1, math.ceil(abs(z1 - z0) / dz_max))
    h = (z1 - z0) / n

    def rhs(m, c):
        return -1j * sla.lu_solve(lu, model.hamiltonian_matrix(z0 + 0.5 * m * h) @ c)

    for j in range(n):
        k1 = rhs(2 * j, c)
        k2 = rhs(2 * j + 1, c + 0.5 * h * k1)
        k3 = rhs(2 * j + 1, c + 0.5 * h * k2)
        k4 = rhs(2 * j + 2, c + h * k3)
        c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return c


def test_monodromy_matches_lu_solve_reference(dyn_system):
    model = two_well_model("hermitian", CAL_DYN["k"], CAL_DYN["x0"],
                           potential=dyn_system.potential,
                           hamiltonian_source="system", dynamic=True)
    t_v = dyn_system.periods().fundamental
    flq = floquet_monodromy(model, t_v, StepControl(dz_max=0.02),
                            targets=sorted(dyn_system.energies().values()))
    ref = _rk4_lu_solve_reference(model, np.eye(2, dtype=complex), 0.0, t_v, 0.02)
    assert np.max(np.abs(flq.monodromy - ref)) <= 1e-12 * np.max(np.abs(ref))
    # without a z grid the monodromy is the single march over [0, T_V] on the same H(z) series
    series = _h_series(model, t_v, _march_budget(t_v, 0.02))
    single = _propagators(model, StepControl(dz_max=0.02), np.array([0.0]), np.array([t_v]), series)[0]
    assert np.array_equal(flq.monodromy, single)
    assert len(flq.z) == 0
    with pytest.raises(ValueError):
        flq.trajectory([0.7, -0.7])
    # the vector path: a step-by-step march over uneven samples (1 to 35 substeps each)
    z = np.array([0.0, 0.013, 0.05, 0.31, 0.75, 1.2, 1.9])
    c0 = np.array([0.7, -0.7j])
    traj = propagate_coefficients(model, c0, z, StepControl(dz_max=0.02))
    c = c0
    for i in range(1, len(z)):
        c = _rk4_lu_solve_reference(model, c, z[i - 1], z[i], 0.02)
        assert np.max(np.abs(traj.c[i] - c)) <= 1e-12 * np.max(np.abs(c))


def test_model_construction_errors(dyn_system):
    with pytest.raises(ValueError, match="^hamiltonian_source must be 'well_sum' or 'system'$"):
        two_well_model("hermitian", 1.0, 1.5, hamiltonian_source="bogus")
    with pytest.raises(ValueError):
        two_well_model("hermitian", 1.0, 1.5, hamiltonian_source="system")
    with pytest.raises(ValueError):
        two_well_model("hermitian", 1.0, 1.5, dynamic=True)
    for kind, k, at in (("square", 1.0, 0.0), ("hermitian", 0.0, 0.0), ("hermitian", 1.0, 0.1)):
        with pytest.raises(ValueError, match="well"):
            TBModel(kind, k, 1.5, at)


def test_propagate_coefficients_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="^z_grid must not be empty$"):
        propagate_coefficients(two_well_model("hermitian", 1.0, 1.5), [1.0, 0.0], [])


@pytest.mark.parametrize("kind, alpha_tilde", [("hermitian", 0.0), ("pt", 0.2)])
def test_pair_refuses_an_ill_conditioned_overlap_when_built(dyn_system, kind, alpha_tilde):
    """Wells at +-x0 with |k| x0 = 1e-6 nearly coincide, S ~ [[1, 1], [1, 1]]: cond(S) ~ 3e12 > COND_LIMIT, so
    the pair is refused when it is built, static or bound to the modulated potential; at 1e-4 (3e8) it builds."""
    for options in ({}, {"potential": dyn_system.potential, "hamiltonian_source": "system", "dynamic": True}):
        with pytest.raises(IllConditionedOverlap, match=r"^cond\(S\) = (2\.99|3\.00)\de\+12$"):
            TBModel(kind, 1.0, 1e-6, alpha_tilde, **options)
        model = TBModel(kind, 1.0, 1e-4, alpha_tilde, **options)
        assert 2.9e8 < np.linalg.cond(model.overlap_matrix()) < 3.1e8 < COND_LIMIT


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_decoupled_limit():
    k = 0.9
    model = two_well_model("hermitian", k, 9.0)
    spec = solve_spectrum(model)
    assert np.max(np.abs(spec.energies.real + k * k)) < 1e-5
    s = model.overlap_matrix()
    h = model.hamiltonian_matrix()
    assert abs(s[0, 1]) < 1e-5 and abs(h[0, 1]) < 1e-5


def test_calibrated_hermitian_energies_match_exact():
    model = two_well_model("hermitian", CAL_HERM["k"], CAL_HERM["x0"])
    e = solve_spectrum(model).energies.real
    assert abs(e[0] - (-HERM.k2**2)) + abs(e[1] - (-HERM.k1**2)) < 1e-3


def test_calibrated_pt_energies_real_and_matching():
    # the published parameters are rounded to 2-3 digits, so the match is
    # loose here; the self-calibrated point reaches the targets to ~1e-8
    # (see test_calibrate / acceptance criterion 6)
    model = two_well_model("pt", CAL_PT["k"], CAL_PT["x0"], CAL_PT["alpha_tilde"])
    e = solve_spectrum(model).energies
    assert np.max(np.abs(e.imag)) < 1e-10
    assert abs(e[0].real - (-1.44)) + abs(e[1].real - (-1.21)) < 5e-2


def test_quadratic_closed_form_cross_check():
    for model in (
        two_well_model("hermitian", CAL_HERM["k"], CAL_HERM["x0"]),
        two_well_model("pt", CAL_PT["k"], CAL_PT["x0"], CAL_PT["alpha_tilde"]),
    ):
        s = model.overlap_matrix()
        h = model.hamiltonian_matrix()
        dense = solve_spectrum(model).energies
        quad = generalized_energies_2x2(h, s)
        assert np.max(np.abs(dense - quad)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("hermitian", "pt")), k=st.floats(0.5, 1.7), x0=st.floats(0.8, 3.5),
       alpha_tilde=st.floats(0.0, 0.45))
def test_static_pencil_matches_closed_form_and_is_real(kind, k, x0, alpha_tilde):
    """The solver's pencil roots are the 2x2 closed form's, and real, over the calibrated domain."""
    model = two_well_model(kind, k, x0, alpha_tilde if kind == "pt" else 0.0)
    e = solve_spectrum(model).energies
    scale = np.max(np.abs(e))
    closed = generalized_energies_2x2(model.hamiltonian_matrix(), model.overlap_matrix())
    assert np.max(np.abs(e - closed)) <= 1e-10 * scale
    assert np.max(np.abs(e.imag)) <= 1e-12 * scale


@pytest.fixture(scope="module")
def calibration_boxes(herm_system, pt_system):
    """The spectral calibration's (k, x0) search boxes of both static presets, by well kind."""
    return {system.facts.wells: default_problem(system).box for system in (herm_system, pt_system)}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("hermitian", "pt")), u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
       alpha_tilde=st.floats(0.0, 0.45))
def test_lean_pencil_is_the_row_by_row_pencil_bit_for_bit(calibration_boxes, kind, u, v, alpha_tilde):
    """Over both calibration boxes: the model's rows are the row-by-row ones (its rows at -x, read as
    conj phi_{1-j}(x), an evaluation there), the model-free pencil, the model's and the row-by-row reference
    are equal arrays, and the direct ggev solve gives scipy.linalg.eig's values and vectors."""
    box = calibration_boxes[kind]
    k = box["k"][0] + u * (box["k"][1] - box["k"][0])
    x0 = box["x0"][0] + v * (box["x0"][1] - box["x0"][0])
    at = alpha_tilde if kind == "pt" else 0.0
    h_ref, s_ref = reference_pencil(kind, k, x0, at)
    h, s = pair_pencil(pair_parts(kind, k, x0), at)
    model = two_well_model(kind, k, x0, at)
    rows = reference_rows(kind, k, x0, at)[2:]
    for got, ref in zip((model._phi, model._phi_s, model._v0_s), rows):
        assert np.array_equal(got, ref)
    minus_x = -model.quad.points[0]
    assert np.array_equal(np.conj(model._phi[::-1]), np.stack([single_well_mode(b, minus_x) for b in model.wells]))
    for got in (h, model.hamiltonian_matrix()):
        assert np.array_equal(got, h_ref)
    for got in (s, model.overlap_matrix()):
        assert np.array_equal(got, s_ref)
    vals, vecs = reference_eig(h_ref, s_ref)
    for spec in (solve_spectrum((h, s)), solve_spectrum(model)):
        assert np.array_equal(spec.energies, vals) and np.array_equal(spec.vectors, vecs)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), real_s=st.booleans())
def test_solve_spectrum_is_scipy_eig_on_any_pencil(n, seed, real_s):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = rng.standard_normal((n, n)) + (0 if real_s else 1j * rng.standard_normal((n, n)))
    vals, vecs = reference_eig(h, s)
    spec = solve_spectrum((h, s))
    assert np.array_equal(spec.energies, vals) and np.array_equal(spec.vectors, vecs)


@pytest.mark.parametrize("h, s", [
    (np.diag([1.0 + 0j, 2.0]), np.diag([1.0, 0.0])),  # beta = 0: an infinite eigenvalue
    (np.diag([1.0 + 0j, 0.0]), np.diag([1.0, 0.0])),  # alpha = beta = 0: NaN
    (np.diag([1.0 + 1j, 0.0]), np.diag([1.0, 0.0])),  # the same with complex alpha: NaN + NaN i
])
def test_solve_spectrum_keeps_scipy_eig_on_singular_pencils(h, s):
    vals, vecs = reference_eig(h, s)
    spec = solve_spectrum((h, s))
    assert np.array_equal(spec.energies, vals, equal_nan=True)
    assert np.array_equal(spec.vectors, vecs, equal_nan=True)


def test_solve_spectrum_queries_the_workspace_once_per_size():
    """Each n's zggev buffers are built once, with the workspace size scipy's query (JOBVL = JOBVR = 'V')
    returns; solves of interleaved sizes on those kept buffers still give scipy.linalg.eig's bits, singular
    pencils among them, and a later solve leaves an earlier result as it was."""
    rng = np.random.default_rng(11)
    pencils = [tuple(rng.normal(size=(n, n, 2)) @ [1, 1j] for _ in range(2)) for n in (2, 3, 2, 5, 3, 2)]
    pencils += [(np.diag([1.0 + 0j, a]), np.diag([1.0, 0.0])) for a in (2.0, 0.0, 1j)]
    solved = [solve_spectrum(pencil) for pencil in pencils]
    built = tightbinding._Ggev.cache_info().misses
    for (h, s), first in zip(pencils, solved):
        vals, vecs = reference_eig(h, s)
        for spec in (first, solve_spectrum((h, s))):
            assert np.array_equal(spec.energies, vals, equal_nan=True)
            assert np.array_equal(spec.vectors, vecs, equal_nan=True)
    assert tightbinding._Ggev.cache_info().misses == built
    for n in (2, 3, 5):
        z = np.zeros((n, n), dtype=complex)
        lwork = sla.lapack.zggev(z, z, lwork=-1)[-2][0].real
        assert tightbinding._Ggev(n, threading.get_ident()).ints[2] == int(lwork)


def test_solve_spectrum_keeps_its_buffers_per_thread():
    """Threads solving at once (with a short switch interval) get the pairs a lone caller gets: each thread
    solves on buffers of its own."""
    rng = np.random.default_rng(12)
    pencils = [tuple(rng.normal(size=(n, n, 2)) @ [1, 1j] for _ in range(2)) for n in (2, 3) * 100]
    alone = [solve_spectrum(pencil) for pencil in pencils]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(lambda: [solve_spectrum(pencil) for pencil in pencils]) for _ in range(4)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for together in results:
        for a, b in zip(alone, together):
            assert np.array_equal(a.energies, b.energies) and np.array_equal(a.vectors, b.vectors)


def test_solve_spectrum_refuses_a_pencil_that_is_not_two_square_matrices():
    for h, s in ((np.eye(2), np.eye(3)), (np.ones((2, 3)), np.ones((2, 3))), (np.eye(2), np.ones(2))):
        with pytest.raises(ValueError, match="two square matrices of one shape"):
            solve_spectrum((h, s))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_solve_spectrum_refuses_a_non_finite_pencil(bad):
    h, s = np.eye(2, dtype=complex), np.eye(2)
    for pencil in ((np.where(np.eye(2) > 0, bad, h), s), (h, np.where(np.eye(2) > 0, bad, s))):
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_spectrum(pencil)


def test_metric_consistency_dirac_real_symmetric():
    model = two_well_model("hermitian", CAL_HERM["k"], CAL_HERM["x0"])
    s = model.overlap_matrix()
    h = model.hamiltonian_matrix()
    assert np.max(np.abs(s.imag)) < 1e-14 and np.max(np.abs(h.imag)) < 1e-14
    assert np.max(np.abs(h - h.T)) < 1e-12
    assert np.max(np.abs(solve_spectrum(model).energies.imag)) < 1e-12


def test_solve_spectrum_rejects_dynamic(dyn_system):
    model = two_well_model("hermitian", CAL_DYN["k"], CAL_DYN["x0"],
                           potential=dyn_system.potential,
                           hamiltonian_source="system", dynamic=True)
    with pytest.raises(ValueError):
        solve_spectrum(model)


# ---------------------------------------------------------------------------
# coupled-mode propagation
# ---------------------------------------------------------------------------

def test_static_eigenvector_scalar_exponential():
    """RK4 carries each eigenvector c of the static pair's pencil as e^{-iEz} c."""
    model = two_well_model("hermitian", CAL_HERM["k"], CAL_HERM["x0"])
    spec = solve_spectrum(model)
    z = np.linspace(0.0, 50.0, 201)
    for c0, e in zip(spec.vectors.T, spec.energies):
        traj = propagate_coefficients(model, c0, z, StepControl(dz_max=0.01))
        assert np.max(np.abs(traj.c - np.exp(-1j * e * z)[:, None] * c0)) < 1e-9


def test_hermitian_static_power_conservation():
    model = two_well_model("hermitian", CAL_HERM["k"], CAL_HERM["x0"],
                           potential=lambda x, z: np.asarray(
                               __import__("susytb.systems", fromlist=["potential_hermitian_static"])
                               .potential_hermitian_static(HERM, x)),
                           hamiltonian_source="system")
    s = model.overlap_matrix()
    z = np.linspace(0.0, 2 * 18.913863055928918, 101)
    c0 = np.array([1.0, 0.0], dtype=complex)
    traj = propagate_coefficients(model, c0, z, StepControl(dz_max=0.02))
    norms = np.array([np.real(np.conj(c) @ s @ c) for c in traj.c])
    assert np.max(np.abs(norms - norms[0])) < 1e-8


def test_rk4_convergence_order(dyn_system):
    model = two_well_model("hermitian", CAL_DYN["k"], CAL_DYN["x0"],
                           potential=dyn_system.potential,
                           hamiltonian_source="system", dynamic=True)
    c0 = np.array([1.0, 0.5j]) / math.sqrt(1.25)
    z = [0.0, 10.0]
    ref = propagate_coefficients(model, c0, z, StepControl(dz_max=0.0125)).c[-1]
    e_coarse = np.linalg.norm(propagate_coefficients(model, c0, z, StepControl(dz_max=0.2)).c[-1] - ref)
    e_fine = np.linalg.norm(propagate_coefficients(model, c0, z, StepControl(dz_max=0.1)).c[-1] - ref)
    assert e_coarse / e_fine >= 15.0


def test_propagate_validation(dyn_system):
    model = two_well_model("hermitian", 1.0, 1.7,
                           potential=dyn_system.potential,
                           hamiltonian_source="system", dynamic=True)
    with pytest.raises(ValueError):
        propagate_coefficients(model, [1.0, 0.0], [0.0, -1.0])
    with pytest.raises(ValueError):
        propagate_coefficients(model, [1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        StepControl(dz_max=0.0)


@pytest.mark.parametrize("dz_max, message", [(math.nan, "positive"), (math.inf, "finite"),
                                             (-math.inf, "positive"), (-0.01, "positive")])
def test_dz_max_must_be_positive_and_finite(dz_max, message):
    """An infinite dz_max would march each interval in one RK4 substep, a NaN one fail only in the march."""
    with pytest.raises(ValueError, match=f"dz_max must be {message}"):
        StepControl(dz_max=dz_max)


# ---------------------------------------------------------------------------
# Floquet
# ---------------------------------------------------------------------------

def test_constant_hamiltonian_quasi_energies():
    model = two_well_model("hermitian", CAL_HERM["k"], CAL_HERM["x0"])
    static = solve_spectrum(model).energies.real
    flq = floquet_monodromy(model, 7.0, StepControl(dz_max=0.01), targets=static)
    assert np.max(np.abs(flq.quasi_energies.real - static)) < 1e-8
    assert np.max(np.abs(flq.quasi_energies.imag)) < 1e-10


def test_a_defective_monodromy_is_refused(monkeypatch):
    """A Jordan-block monodromy has no eigenvector basis to read quasi-energies from: refused, not assigned."""
    model = two_well_model("hermitian", CAL_HERM["k"], CAL_HERM["x0"])
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    monkeypatch.setattr(tightbinding, "_propagators",
                        lambda model, control, z0, z1, h=None: np.array([jordan] * len(z0)))
    with pytest.raises(DefectiveMonodromy, match="near-defective"):
        floquet_monodromy(model, 7.0, StepControl(dz_max=0.01), targets=solve_spectrum(model).energies.real)


def test_dynamic_monodromy_power_neutral(dyn_system):
    model = two_well_model("hermitian", CAL_DYN["k"], CAL_DYN["x0"],
                           potential=dyn_system.potential,
                           hamiltonian_source="system", dynamic=True)
    t_v = dyn_system.periods().fundamental
    flq = floquet_monodromy(model, t_v, StepControl(dz_max=0.02),
                            targets=sorted(dyn_system.energies().values()))
    lam = np.linalg.eigvals(flq.monodromy)
    assert abs(abs(lam[0] * lam[1]) - 1.0) < 1e-3  # unbroken-phase cycle


def test_dynamic_quasi_energy_difference_matches_exact(dyn_system):
    """The gauge-invariant beat (quasi-energy difference) is TB-accurate."""
    model = two_well_model("hermitian", CAL_DYN["k"], CAL_DYN["x0"],
                           potential=dyn_system.potential,
                           hamiltonian_source="system", dynamic=True)
    t_v = dyn_system.periods().fundamental
    flq = floquet_monodromy(model, t_v, StepControl(dz_max=0.02),
                            targets=sorted(dyn_system.energies().values()))
    diff = flq.quasi_energies[1].real - flq.quasi_energies[0].real
    exact = -PTD.k1**2 - (-PTD.k2**2)
    assert abs(diff - exact) * t_v < 1e-3  # phase radians over one period


def _dyn_model(system):
    return two_well_model("hermitian", CAL_DYN["k"], CAL_DYN["x0"], potential=system.potential,
                          hamiltonian_source="system", dynamic=True)


@pytest.mark.parametrize("fixture", ["dyn_system", "dyn_strong_system"])
def test_floquet_trajectory_matches_step_by_step_march(fixture, request):
    """U(r) M^n c0 on a grid off the period multiples equals the RK4 march sample by sample.

    The two partition [0, z] into different substeps, so they differ at RK4
    truncation level: ~2e-8 at dz_max 0.02 (each ~4e-7 from the converged
    solution), ~1e-9 at 0.0125.
    """
    system = request.getfixturevalue(fixture)
    model = _dyn_model(system)
    t_v = system.periods().fundamental
    control = StepControl(dz_max=0.0125)
    z = np.linspace(0.3, 2.5 * t_v, 97)
    assert np.min(np.abs(z / t_v - np.round(z / t_v))) > 1e-3
    c0 = np.array([0.7, -0.7j])
    flq = floquet_monodromy(model, t_v, control, targets=sorted(system.energies().values()),
                            z_grid=z)
    got = flq.trajectory(c0)
    ref = propagate_coefficients(model, c0, z, control)
    assert np.array_equal(got.z, z)
    assert np.max(np.abs(got.c - ref.c)) <= 1e-8 * np.max(np.abs(ref.c))


def _h_series(model, period, budget):
    """The H(z) `PeriodicSeries` of `floquet_monodromy`'s rule, of at most `budget` samples."""
    return PeriodicSeries(model.hamiltonian_matrix, period, H_SERIES_TOL).fit(budget)


def _march_budget(period, dz_max):
    """The samples `floquet_monodromy` allows its series: at most H_SERIES_MAX_SAMPLES, and no more than a direct
    march over one period builds."""
    return min(2 * math.ceil(period / dz_max) + 1, H_SERIES_MAX_SAMPLES)


def _rho_samples(rho: float) -> int:
    """The least power of two N >= 8 with rho^{N/2} <= H_SERIES_TOL: the length rho predicts."""
    n = 8
    while rho ** (n // 2) > H_SERIES_TOL:
        n *= 2
    return n


@pytest.mark.parametrize("fixture", ["dyn_system", "dyn_strong_system"])
def test_hamiltonian_series_matches_direct_evaluation(fixture, request, rng):
    system = request.getfixturevalue(fixture)
    model = _dyn_model(system)
    t_v = system.periods().fundamental
    series = _h_series(model, t_v, 10_000)
    assert series.n > 0 and series.tail <= H_SERIES_TOL
    z = rng.uniform(0.0, 3 * t_v, 60)
    got = series(z)
    for zi, h in zip(z, got):
        ref = model.hamiltonian_matrix(zi)
        assert np.max(np.abs(h - ref)) <= 1e-14 * np.max(np.abs(ref))


@settings(max_examples=10, deadline=None)
@given(p=certified_dynamic_params(), unit=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=25, max_size=25))
def test_hamiltonian_series_length_follows_rho_property(p, unit):
    """The H(z) harmonics fall no slower than rho^|m|, rho the record's: the series converges within one
    doubling of the length rho predicts, and matches a direct H(z) at 25 random z to 1e-14 of scale."""
    system = make_system(p)
    model = _dyn_model(system)
    t_v = system.periods().fundamental
    predicted = _rho_samples(p.rho)
    series = _h_series(model, t_v, 4 * predicted)
    assert predicted // 2 <= series.n <= 2 * predicted, (p.rho, predicted, series.n)
    for zi, h in zip(np.multiply(unit, t_v), series(np.multiply(unit, t_v))):
        ref = model.hamiltonian_matrix(zi)
        assert np.max(np.abs(h - ref)) <= 1e-14 * np.max(np.abs(ref)), zi


def test_hamiltonian_series_doubling_reuses_samples(dyn_system, monkeypatch):
    model = _dyn_model(dyn_system)
    t_v = dyn_system.periods().fundamental
    sampled = []
    build = TBModel.hamiltonian_matrix

    def counted(self, z=0.0):
        sampled.append(z)
        return build(self, z)

    monkeypatch.setattr(TBModel, "hamiltonian_matrix", counted)
    series = _h_series(model, t_v, _march_budget(t_v, 0.02))
    # N = 8 and 16 are not converged on the preset model, N = 32 is: 32 builds, each z once
    assert series.n == 32
    assert sorted(sampled) == (np.arange(32) * t_v / 32).tolist()
    flq = floquet_monodromy(model, t_v, StepControl(dz_max=0.02),
                            targets=sorted(dyn_system.energies().values()))
    assert flq.harmonics == 32 and flq.harmonic_tail <= H_SERIES_TOL


@pytest.mark.parametrize("params, periods_per_dz", [(PTD, 14.5), (PTD_STRONG, 50.5),
                                                    (PTDynamicParams(1.0, 1.1, 0.95, 0.8), 2100.5)])
def test_monodromy_past_the_sample_budget_marches_direct_samples(params, periods_per_dz):
    """Budget 2 ceil(T/dz_max) + 1: 31 (alpha 0.1 needs N = 32; 8 and 16 fail the tail test), 103 (alpha 0.5
    needs N = 128) or 4203, where alpha 0.8 (rho 0.971) needs N = 2048 but the series stops at
    H_SERIES_MAX_SAMPLES; rho predicts each fallback before the first sample."""
    system = make_system(params)
    model = _dyn_model(system)
    t_v = system.periods().fundamental
    control = StepControl(dz_max=t_v / periods_per_dz)
    assert _rho_samples(params.rho) > _march_budget(t_v, control.dz_max)
    flq = floquet_monodromy(model, t_v, control, targets=sorted(system.energies().values()))
    direct = _propagators(model, control, np.array([0.0]), np.array([t_v]))[0]
    assert np.array_equal(flq.monodromy, direct)
    assert flq.harmonics == 0
    assert flq.harmonic_tail > H_SERIES_TOL


def test_monodromy_at_the_sample_cap_marches_the_series():
    """alpha 0.7 (rho 0.85) needs N = 512 = H_SERIES_MAX_SAMPLES: the march integrates the series, not direct
    H(z) builds, and its monodromy is the direct march's to 1e-12 relative at the default step."""
    params = PTDynamicParams(1.0, 1.1, 0.95, 0.7)
    assert _rho_samples(params.rho) == H_SERIES_MAX_SAMPLES == 512
    system = make_system(params)
    model = _dyn_model(system)
    t_v = system.periods().fundamental
    control = StepControl()
    flq = floquet_monodromy(model, t_v, control, targets=sorted(system.energies().values()))
    assert flq.harmonics == 512 and flq.harmonic_tail <= H_SERIES_TOL
    direct = _propagators(model, control, np.array([0.0]), np.array([t_v]))[0]
    assert np.max(np.abs(flq.monodromy - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_constant_hamiltonian_series_accepted_at_8():
    model = two_well_model("hermitian", CAL_HERM["k"], CAL_HERM["x0"])
    series = _h_series(model, 7.0, 701)
    assert series.n == 8 and series.tail <= H_SERIES_TOL
    ref = model.hamiltonian_matrix()
    for h in series(np.linspace(0.0, 21.0, 50)):
        assert np.max(np.abs(h - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_grid_folds_whole_periods_to_phase_zero():
    model = two_well_model("hermitian", CAL_HERM["k"], CAL_HERM["x0"])
    t = 1.7
    z = [0.0, 0.25 * t, np.nextafter(t, 0.0), t, np.nextafter(t, 9.0),
         1.25 * t, np.nextafter(2 * t, 0.0), 2 * t, np.nextafter(2 * t, 9.0)]
    flq = floquet_monodromy(model, t, StepControl(dz_max=0.05), targets=[-1.0, 0.0], z_grid=z)
    assert flq.turns.tolist() == [0, 0, 1, 1, 1, 1, 2, 2, 2]
    phases = flq.phases[flq.which]
    assert phases[[0, 2, 3, 4, 6, 7, 8]].tolist() == [0.0] * 7
    # 0.25 t and 1.25 t - t agree to rounding: one phase, one propagator
    assert flq.which[5] == flq.which[1] and phases[1] == pytest.approx(0.25 * t, rel=1e-12)
    assert len(flq.phases) == len(flq.propagators) == len(flq.generators) == 2
    assert np.array_equal(flq.propagators[flq.which[3]], np.eye(2))
    c = flq.trajectory([1.0, 0.0]).c
    assert np.array_equal(c[2], c[4]) and np.array_equal(c[6], c[8])
    assert np.array_equal(c[7], flq.monodromy @ (flq.monodromy @ np.array([1.0, 0.0])))


@pytest.mark.parametrize("periods_per_dz", [500.0, 14.5], ids=["series", "direct"])
def test_generators_are_the_marched_hamiltonians(dyn_system, periods_per_dz):
    """S^-1 H(r) at each phase, from the H(z) the march integrated: the harmonic series, within
    1e-14 of scale of a direct build, or, past the series' sample budget (31 < 32), the build itself."""
    model = _dyn_model(dyn_system)
    t_v = dyn_system.periods().fundamental
    flq = floquet_monodromy(model, t_v, StepControl(dz_max=t_v / periods_per_dz),
                            targets=sorted(dyn_system.energies().values()), z_grid=np.linspace(0.0, 2.5 * t_v, 41))
    assert len(flq.phases) == len(flq.generators) == 16 and (flq.harmonics > 0) == (periods_per_dz > 16)
    for r, gen in zip(flq.phases, flq.generators):
        direct = model.overlap_inverse() @ model.hamiltonian_matrix(r)
        if flq.harmonics:
            assert np.max(np.abs(gen - direct)) <= 1e-14 * np.max(np.abs(direct)), r
        else:
            assert np.array_equal(gen, direct), r


def _assign_branches_loop(eps, targets, omega):
    """The per-target loop that `_assign_branches` replaced, kept as its reference."""
    used, shifts, values = [], [], []
    for t in targets:
        best = None
        for j in range(len(eps)):
            if j in used:
                continue
            shift = round((t - eps[j].real) / omega)
            cand = eps[j].real + shift * omega
            d = abs(cand - t)
            if best is None or d < best[0]:
                best = (d, j, shift, cand)
        _, j, shift, cand = best
        used.append(j)
        shifts.append(shift)
        values.append(cand)
    return used, shifts, values


def _check_assignment(eps, targets, omega):
    cols, shifts, values = _assign_branches(np.asarray(eps, dtype=complex), np.asarray(targets, dtype=float), omega)
    assert (cols.tolist(), shifts.tolist(), values.tolist()) == _assign_branches_loop(np.asarray(eps, complex),
                                                                                      targets, omega)
    return cols.tolist(), shifts.tolist()


@pytest.mark.parametrize("eps, targets, omega, cols, shifts", [
    # the first target takes the eigenvalue both are nearest, though the sum of distances would
    # be smaller the other way round: greedy, in target order
    ([0.1, 0.4], [0.2, 0.1], 1.0, [0, 1], [0, 0]),
    # targets on branches away from the principal one
    ([0.1 - 0.01j, -0.2 + 0.02j], [-3.9, 2.05], 1.0, [0, 1], [-4, 2]),
    ([0.1, -0.2], [2.05, -3.9], 1.0, [0, 1], [2, -4]),
    ([0.3, -0.1, 0.05], [7.0, 0.0, -2.2], 2.0, [0, 2, 1], [3, 0, -1]),
    # equally near: the first eigenvalue; a shift of exactly -1/2 rounds to even, 0
    ([0.0, 0.5], [0.25, 0.0], 1.0, [0, 1], [0, 0]),
])
def test_branch_assignment_matches_the_per_target_loop(eps, targets, omega, cols, shifts):
    assert _check_assignment(eps, targets, omega) == (cols, shifts)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), omega=st.floats(0.1, 5.0))
def test_branch_assignment_matches_the_loop_on_random_spectra(data, n, omega):
    values = st.floats(-20.0, 20.0)
    eps = [complex(data.draw(values), data.draw(values)) for _ in range(n)]
    _check_assignment(eps, [data.draw(values) for _ in range(n)], omega)


@pytest.mark.parametrize("period, targets, name", [
    (1.7, [-1.0], "targets"), (1.7, [-1.0, 0.0, 1.0], "targets"), (1.7, [[-1.0, 0.0]], "targets"),
    (1.7, [float("nan"), 0.0], "targets"), (1.7, [-1.0, float("inf")], "targets"),
    (-2.0, [-1.0, 0.0], "period"), (0.0, [-1.0, 0.0], "period"), (float("nan"), [-1.0, 0.0], "period"),
    (float("inf"), [-1.0, 0.0], "period"),
])
def test_floquet_monodromy_refuses_bad_input(period, targets, name):
    model = two_well_model("hermitian", CAL_HERM["k"], CAL_HERM["x0"])
    with pytest.raises(ValueError, match=f"^{name} must be"):
        floquet_monodromy(model, period, StepControl(dz_max=0.05), targets=targets)


@pytest.mark.parametrize("grid", [[-1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0],
                                  [0.0, float("nan")], [[0.0, 1.0]]])
def test_floquet_grid_validation(grid):
    model = two_well_model("hermitian", CAL_HERM["k"], CAL_HERM["x0"])
    with pytest.raises(ValueError):
        floquet_monodromy(model, 1.0, targets=[-1.0, 0.0], z_grid=grid)
    with pytest.raises(ValueError):
        propagate_coefficients(model, [1.0, 0.0], grid)


def test_preset_grid_marches_each_phase_once(dyn_system, monkeypatch):
    cfg = validate_config(json.dumps(preset_config("pt-dynamic-fig1-5-6")))
    t_v = dyn_system.periods().fundamental
    assert cfg.system.periods().fundamental == t_v
    substeps, passes = [], []

    def counted(model, control, z0, z1, h=None):
        passes.append(len(z0))
        substeps.extend(max(1, math.ceil(abs(b - a) / control.dz_max))
                        for a, b in zip(z0.tolist(), z1.tolist()) if b != a)
        return _propagators(model, control, z0, z1, h)

    monkeypatch.setattr(tightbinding, "_propagators", counted)
    flq = floquet_monodromy(_dyn_model(dyn_system), t_v, StepControl(dz_max=0.02),
                            targets=sorted(dyn_system.energies().values()), z_grid=cfg.z_values)
    # one kernel pass over 161 intervals (0 to phase 0 is empty): 160 phases per period, 21 substeps
    # between neighbours
    assert passes == [161]
    assert sum(substeps) == 3360
    assert len(substeps) == 160
    assert sorted(set(flq.turns.tolist())) == [0, 1, 2]


@pytest.mark.parametrize("grid", ["preset", "uneven", "repeated", "blocks"])
def test_stacked_kernel_is_the_kernel_one_interval_at_a_time(dyn_system, grid):
    """Intervals stacked by substep count give, bit for bit, what the kernel gives each one alone, and
    no H(z) request asks for more than _H_REQUEST_MAX z (one request for every substep z of the preset's
    period raised its peak RSS by 11 %)."""
    model = _dyn_model(dyn_system)
    t_v = dyn_system.periods().fundamental
    if grid == "preset":  # 0, every distinct phase of the grid, then T: the stops `floquet_monodromy` marches
        z_grid = validate_config(json.dumps(preset_config("pt-dynamic-fig1-5-6"))).z_values
        stops = np.concatenate([[0.0], fold_phases(np.asarray(z_grid), t_v)[2], [t_v]])
    else:
        stops = {
            # 1-35 substeps, and one interval of 150 whose 301 z take two requests
            "uneven": np.array([0.0, 0.013, 0.05, 0.31, 0.75, 1.2, 1.9, 1.913, 4.913]),
            "repeated": np.array([0.0, 0.0, 0.5, 0.5, 0.513, 0.513, 1.0]),
            "blocks": np.linspace(0.0, 9.0, 601),  # 600 one-substep intervals: 1,800 z of one group
        }[grid]
    series = _h_series(model, t_v, _march_budget(t_v, 0.02))
    requests = []

    def h(zs):
        requests.append(len(zs))
        return series(zs)

    control = StepControl(dz_max=0.02)
    z0, z1 = stops[:-1], stops[1:]
    stacked = _propagators(model, control, z0, z1, h)
    n = np.maximum(1, np.ceil((z1 - z0) / 0.02))[z1 != z0]
    assert max(requests) <= _H_REQUEST_MAX and sum(requests) == np.sum(2 * n + 1)
    if grid in ("preset", "blocks"):
        assert len(requests) > 1  # more z than one request may hold
    else:
        assert len(np.unique(n)) > 1  # several substep groups
    for i in range(len(z0)):
        assert np.array_equal(stacked[i], _propagators(model, control, z0[i:i + 1], z1[i:i + 1], h)[0]), i
    assert np.array_equal(stacked[z1 == z0], np.broadcast_to(np.eye(2), (np.sum(z1 == z0), 2, 2)))
    if grid == "preset":  # the monodromy's U(r): the kernel's products chained, as one march per interval
        flq = floquet_monodromy(model, t_v, StepControl(dz_max=0.02), targets=sorted(dyn_system.energies().values()),
                                z_grid=z_grid)
        u = [np.eye(2, dtype=complex)]
        for a, b in zip(z0.tolist(), z1.tolist()):
            u.append(_propagators(model, control, np.array([a]), np.array([b]), h)[0] @ u[-1])
        assert np.array_equal(flq.propagators, np.array(u[1:-1])) and np.array_equal(flq.monodromy, u[-1])


# ---------------------------------------------------------------------------
# state assembly and guided modes
# ---------------------------------------------------------------------------

def test_assemble_state_parity():
    model = two_well_model("hermitian", CAL_HERM["k"], CAL_HERM["x0"])
    x = np.linspace(-8, 8, 401)
    single = assemble_state(model, [1.0, 0.0], x)
    assert np.max(np.abs(single - single_well_mode(model.wells[0], x))) < 1e-14
    even = assemble_state(model, [1.0, 1.0], x)
    odd = assemble_state(model, [1.0, -1.0], x)
    assert np.max(np.abs(even - even[::-1])) < 1e-12
    assert np.max(np.abs(odd + odd[::-1])) < 1e-12


def _fresh_state(model, c, x):
    out = np.zeros(x.shape, dtype=complex)
    for cj, b in zip(c, model.wells):
        out += cj * single_well_mode(b, x)
    return out


def test_basis_memo_matches_fresh_well_modes():
    """Interleaved node sets and models never see each other's cached phi_j."""
    models = (two_well_model("hermitian", **CAL_HERM), two_well_model("pt", **CAL_PT))
    grids = (np.linspace(-9.0, 9.0, 301), np.linspace(-6.0, 7.0, 257))
    for _ in range(2):
        for model in models:
            for x in grids:
                for c in ([1.0, 0.0], [0.3 - 0.2j, 1.1 + 0.4j]):
                    assert np.array_equal(assemble_state(model, c, x), _fresh_state(model, c, x))


def test_basis_memo_keys_on_node_values():
    model = two_well_model("pt", **CAL_PT)
    x = np.linspace(-5.0, 5.0, 129)
    assemble_state(model, [1.0, 0.5], x)
    x += 0.25  # same array object, new nodes
    assert np.array_equal(assemble_state(model, [1.0, 0.5], x), _fresh_state(model, [1.0, 0.5], x))


def test_basis_memo_keeps_no_writeable_grid():
    """A writeable one-shot grid is not kept; a frozen grid stays kept across writeable ones."""
    model = two_well_model("hermitian", **CAL_HERM)
    big = np.linspace(-30.0, 30.0, 16001)
    assemble_state(model, [1.0, 1.0], big)
    assert model.basis_values._last is None
    frozen = read_only(np.linspace(-8.0, 8.0, 101))
    for n in range(3):
        for x in (frozen, np.linspace(-8.0, 8.0, 102 + n)):
            assert np.array_equal(assemble_state(model, [1.0, -1.0], x), _fresh_state(model, [1.0, -1.0], x))
        assert model.basis_values._last[0] is frozen


def test_static_guided_modes_structure():
    model = two_well_model("hermitian", CAL_HERM["k"], CAL_HERM["x0"])
    gm = static_guided_modes(model)
    assert gm.energies[0] < gm.energies[1]
    x = np.linspace(-8, 8, 801)
    g = assemble_state(model, gm.coefficients("ground", 0.0), x)
    e = assemble_state(model, gm.coefficients("excited", 0.0), x)
    assert np.max(np.abs(g - g[::-1])) < 1e-10      # even, positive sum gauge
    assert np.max(np.abs(e + e[::-1])) < 1e-10      # odd
    assert e[500].real > 0                          # positive right lobe
    # left combination localizes on x < 0 with unit power
    spec = QuadratureSpec(half_width=16.0, nodes=4097)
    xs, w = quad_nodes(spec)
    l = assemble_state(model, gm.coefficients("left", 0.0), xs)
    assert float(np.sum(w * np.abs(l) ** 2).real) == pytest.approx(1.0, abs=1e-9)
    assert float(np.sum(w * xs * np.abs(l) ** 2).real) < -1.0


def test_even_odd_swaps_odd_like_first_columns_and_fixes_both_gauges():
    """Columns given odd-like first come back even-like first with their energies swapped; c_r + c_l is then
    real positive for the even-like vector and c_r - c_l for the odd-like one."""
    even, odd = np.exp(0.7j) * np.array([0.8, 0.6]), np.exp(-2.1j) * np.array([0.6, -0.8])
    c_even, c_odd, e = tightbinding._even_odd(np.column_stack([odd, even]), np.array([-1.0, -2.0]))
    assert np.array_equal(e, [-2.0, -1.0])
    for c, raw, share in ((c_even, even, c_even[0] + c_even[1]), (c_odd, odd, c_odd[0] - c_odd[1])):
        assert abs(np.vdot(raw, c)) == pytest.approx(1.0, abs=1e-15)  # the same vector, up to a phase
        assert share.real > 0 and abs(share.imag) <= 1e-15 * share.real


def test_fix_gauge_returns_a_vector_with_no_share_unchanged():
    c = np.array([0.5 + 0.5j, -0.5 - 0.5j])
    assert tightbinding._fix_gauge(c, np.array([1.0, 1.0])) is c


def test_floquet_guided_modes_localize(dyn_system):
    model = two_well_model("hermitian", CAL_DYN["k"], CAL_DYN["x0"],
                           potential=dyn_system.potential,
                           hamiltonian_source="system", dynamic=True)
    t_v = dyn_system.periods().fundamental
    flq = floquet_monodromy(model, t_v, StepControl(dz_max=0.02),
                            targets=sorted(dyn_system.energies().values()))
    gm = floquet_guided_modes(model, flq)
    spec = QuadratureSpec(half_width=14.0, nodes=4097)
    xs, w = quad_nodes(spec)
    for kind, sign in (("left", -1), ("right", +1)):
        f = assemble_state(model, gm.coefficients(kind, 0.0), xs)
        assert float(np.sum(w * np.abs(f) ** 2).real) == pytest.approx(1.0, abs=1e-9)
        assert sign * float(np.sum(w * xs * np.abs(f) ** 2).real) > 1.0
