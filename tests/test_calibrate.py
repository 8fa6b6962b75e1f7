import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import LinAlgError

import susytb.calibrate as calibrate
from susytb.calibrate import (
    CalibrationFailed,
    CalibrationProblem,
    default_problem,
    nelder_mead,
    profile_match,
    spectral_match,
    well_separation,
)
from susytb.systems import HermitianStaticParams, ParameterError, make_system
from susytb.tightbinding import WellBasis, pair_parts, pair_pencil, single_well_potential

from conftest import HERM, PTS, reference_eig, reference_pencil


# ---------------------------------------------------------------------------
# Nelder-Mead
# ---------------------------------------------------------------------------

def test_nelder_mead_quadratic():
    f = lambda x: float((x[0] - 1.0) ** 2 + 2 * (x[1] + 0.5) ** 2)
    res = nelder_mead(f, [0.0, 0.0], [0.3, 0.3])
    assert res.converged
    assert np.allclose(res.x, [1.0, -0.5], atol=1e-5)
    assert res.fun < 1e-10


def test_nelder_mead_rosenbrock():
    f = lambda x: float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)
    res = nelder_mead(f, [-1.2, 1.0], [0.5, 0.5], max_iter=2000)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-4)


def test_nelder_mead_never_worse_than_start():
    f = lambda x: float(abs(x[0]) + abs(math.sin(3 * x[0])))
    res = nelder_mead(f, [2.0], [0.4])
    assert res.fun <= f(np.array([2.0]))


def test_nelder_mead_deterministic():
    f = lambda x: float((x[0] - 0.3) ** 4 + abs(x[1]))
    a = nelder_mead(f, [1.0, 1.0], [0.2, 0.2])
    b = nelder_mead(f, [1.0, 1.0], [0.2, 0.2])
    assert np.array_equal(a.x, b.x) and a.fun == b.fun


# ---------------------------------------------------------------------------
# problems and boxes
# ---------------------------------------------------------------------------

def test_well_separation_near_paper_values(herm_system, pt_system, dyn_system):
    assert well_separation(herm_system) == pytest.approx(1.646, abs=0.01)
    assert well_separation(pt_system) == pytest.approx(1.658, abs=0.01)
    assert well_separation(dyn_system) == pytest.approx(1.775, abs=0.01)


def test_problem_validation(herm_system):
    with pytest.raises(ValueError):
        CalibrationProblem(herm_system, {"k": (1.0, 0.5)}, (3,))


def test_problem_needs_one_grid_size_per_searched_parameter(herm_system, pt_system):
    box = {"k": (0.5, 1.0), "x0": (1.0, 2.0)}
    with pytest.raises(ValueError, match="one multistart grid size per searched parameter"):
        CalibrationProblem(herm_system, box, (9, 9, 9))
    with pytest.raises(ValueError, match="got 2 for 3"):
        CalibrationProblem(pt_system, dict(box, alpha_tilde=(0.0, 0.3)), (9, 9))
    problem = default_problem(pt_system)
    assert list(problem.box) == ["k", "x0", "alpha_tilde"] and problem.seeds == (9, 9, 5)


def test_degenerate_target_rejected():
    with pytest.raises(ParameterError):
        HermitianStaticParams(k1=0.7, k2=0.7)


# ---------------------------------------------------------------------------
# spectral matching
# ---------------------------------------------------------------------------

def test_spectral_match_hermitian_recovers_paper_values(herm_system):
    res = spectral_match(default_problem(herm_system))
    assert res.parameters["x0"] == pytest.approx(1.66214, abs=0.02)
    assert res.parameters["k"] == pytest.approx(0.7454, abs=0.01)
    assert res.objective_value < 1e-3
    e = res.achieved_energies.real
    assert abs(e[0] + HERM.k2**2) + abs(e[1] + HERM.k1**2) < 1e-3


def test_spectral_match_pt_recovers_paper_values(pt_system):
    res = spectral_match(default_problem(pt_system))
    assert res.parameters["x0"] == pytest.approx(1.65, abs=0.03)
    assert res.parameters["k"] == pytest.approx(1.14, abs=0.03)
    assert res.parameters["alpha_tilde"] == pytest.approx(0.21, abs=0.03)
    assert res.objective_value < 1e-3


def test_spectral_match_objective_beats_every_start(herm_system):
    problem = default_problem(herm_system)
    res = spectral_match(problem)
    # re-evaluate the multistart grid independently
    from susytb.tightbinding import solve_spectrum, two_well_model

    targets = sorted(herm_system.energies().values())
    for k in np.linspace(*problem.box["k"], problem.seeds[0]):
        for x0 in np.linspace(*problem.box["x0"], problem.seeds[1]):
            e = solve_spectrum(two_well_model("hermitian", k, x0)).energies.real
            grid_val = abs(targets[0] - e[0]) + abs(targets[1] - e[1])
            assert res.objective_value <= grid_val + 1e-12


def test_spectral_match_deterministic(pt_system):
    a = spectral_match(default_problem(pt_system))
    b = spectral_match(default_problem(pt_system))
    assert a.parameters == b.parameters
    assert a.objective_value == b.objective_value


def _jittered(params, rng):
    """params with k1, k2 (and alpha) scaled by 1 + u, |u| <= 0.01, as the benchmark draws them."""
    return replace(params, **{name: getattr(params, name) * (1 + 0.01 * (2 * rng.random() - 1))
                              for name in ("k1", "k2", "alpha") if hasattr(params, name)})


_DRAWS = np.random.default_rng(24)
STATIC_TARGETS = [HERM, PTS, _jittered(HERM, _DRAWS), _jittered(PTS, _DRAWS), _jittered(PTS, _DRAWS)]


@pytest.mark.parametrize("params", STATIC_TARGETS, ids=["hermitian", "pt", "hermitian-jitter", "pt-jitter-1",
                                                         "pt-jitter-2"])
def test_spectral_match_equals_the_model_route(params, monkeypatch):
    """The lean objective fits what a TBModel per point and scipy.linalg.eig fitted, to the bit."""
    problem = default_problem(make_system(params))
    lean = spectral_match(problem)
    monkeypatch.setattr(calibrate, "pair_parts", lambda kind, k, x0: (kind, k, x0))
    monkeypatch.setattr(calibrate, "pair_pencil", lambda parts, at: reference_pencil(*parts, at))
    monkeypatch.setattr(calibrate, "solve_spectrum",
                        lambda pencil: SimpleNamespace(energies=reference_eig(*pencil)[0]))
    reference = spectral_match(problem)
    assert lean.parameters == reference.parameters
    assert lean.objective_value == reference.objective_value and lean.trace == reference.trace
    assert np.array_equal(lean.achieved_energies, reference.achieved_energies)


def test_pt_multistart_computes_the_alpha_free_parts_once_per_k_x0(pt_system, monkeypatch):
    """alpha_tilde runs innermost over the 9 x 9 x 5 grid, so 405 points need 81 (k, x0) parts."""
    parts, pencils = [], []
    monkeypatch.setattr(calibrate, "pair_parts", lambda *a: parts.append(a[1:]) or pair_parts(*a))
    monkeypatch.setattr(calibrate, "pair_pencil", lambda *a: pencils.append(a) or pair_pencil(*a))

    class MultistartDone(Exception):
        pass

    def stop(*args, **kwargs):
        raise MultistartDone

    monkeypatch.setattr(calibrate, "nelder_mead", stop)
    with pytest.raises(MultistartDone):
        spectral_match(default_problem(pt_system))
    assert len(pencils) == 405
    assert len(parts) == len(set(parts)) == 81


def test_objective_scores_numerical_failures_inf(herm_system, monkeypatch):
    """A LinAlgError at a point makes it infeasible; the fit goes on over the other points."""
    problem = default_problem(herm_system)
    ks = np.linspace(*problem.box["k"], problem.seeds[0])
    k_cut = (ks[4] + ks[5]) / 2  # the grid's 4 largest k fail
    pencil_k, solve = [], calibrate.solve_spectrum

    def failing_past_cut(pencil):
        if pencil_k[-1] > k_cut:
            raise LinAlgError("generalized eig algorithm (ggev) did not converge")
        return solve(pencil)

    monkeypatch.setattr(calibrate, "pair_pencil",
                        lambda parts, at: pencil_k.append(parts[1]) or pair_pencil(parts, at))
    monkeypatch.setattr(calibrate, "solve_spectrum", failing_past_cut)
    res = spectral_match(problem)
    assert res.trace["n_feasible_starts"] == 5 * problem.seeds[1]
    assert res.parameters["k"] <= k_cut and math.isfinite(res.objective_value)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_multistart_without_a_feasible_point_fails(value):
    """An objective that fails at every multistart point leaves Nelder-Mead no start."""
    calls = []

    def objective(x):
        calls.append(x)
        return value

    box = {"k": (0.5, 1.0), "x0": (1.0, 2.0)}
    with pytest.raises(CalibrationFailed, match="objective failed at every multistart point"):
        calibrate._multistart_then_refine(objective, ["k", "x0"], [np.linspace(*box[n], 3) for n in box], box)
    assert len(calls) == 9


def test_objective_lets_programming_errors_through(herm_system, dyn_system, monkeypatch):
    def broken(*args):
        raise TypeError("a fault in the pencil, not a numerical failure")

    monkeypatch.setattr(calibrate, "pair_pencil", broken)
    with pytest.raises(TypeError, match="a fault in the pencil"):
        spectral_match(default_problem(herm_system))
    monkeypatch.setattr(calibrate, "single_well_potential", broken)
    with pytest.raises(TypeError, match="a fault in the pencil"):
        profile_match(default_problem(dyn_system))


# ---------------------------------------------------------------------------
# profile matching
# ---------------------------------------------------------------------------

def test_profile_match_recovers_paper_values(dyn_system):
    res = profile_match(default_problem(dyn_system))
    assert res.parameters["x0"] == pytest.approx(1.77114, abs=0.03)
    assert res.parameters["k"] == pytest.approx(1.045, abs=0.02)


def test_profile_match_self_target_is_exact():
    """A pure two-well sech sum is recovered with ~zero objective."""
    k_true, x0_true = 1.05, 1.8

    def vtb(x, z=0.0):
        return (single_well_potential(WellBasis("hermitian", k_true, 0.0, +x0_true), x)
                + single_well_potential(WellBasis("hermitian", k_true, 0.0, -x0_true), x))

    stub = SimpleNamespace(potential=vtb)
    problem = CalibrationProblem(
        system=stub,
        box={"k": (0.7, 1.4), "x0": (1.2, 2.4)}, seeds=(9, 9),
        window=(-1.8 - 3.0 / 1.05, 0.0))
    res = profile_match(problem)
    assert res.objective_value < 1e-8
    assert res.parameters["k"] == pytest.approx(k_true, abs=1e-4)
    assert res.parameters["x0"] == pytest.approx(x0_true, abs=1e-4)


def test_profile_window_shrink_degrades_fit(dyn_system):
    """Fitting on a sliver of the well loses shape information.

    The well position x0 stays pinned by the minimax even on narrow
    windows, but the recovered well scale k walks away monotonically once
    the window shrinks below one well width.
    """
    full = profile_match(CalibrationProblem(
        system=dyn_system,
        box={"k": (0.63, 1.47), "x0": (1.08, 2.48)}, seeds=(9, 9),
        window=(-4.775, 0.0)))
    k_ref = full.parameters["k"]
    errors = []
    for d in (1.2, 0.8, 0.6, 0.4):
        res = profile_match(CalibrationProblem(
            system=dyn_system,
            box={"k": (0.63, 1.47), "x0": (1.08, 2.48)}, seeds=(9, 9),
            window=(-d, 0.0)))
        errors.append(abs(res.parameters["k"] - k_ref))
        assert res.parameters["x0"] == pytest.approx(full.parameters["x0"], abs=0.01)
    assert errors[0] < errors[1] < errors[2] < errors[3]


def test_mode_mismatch_errors(herm_system, dyn_system):
    with pytest.raises(ValueError):
        profile_match(default_problem(herm_system))
    with pytest.raises(ValueError):
        spectral_match(default_problem(dyn_system))
