"""Derivative-free calibration of tight-binding models to exact systems.

Spectral matching (static systems) minimizes the summed absolute deviation
between the exact eigenvalues {-k2^2, -k1^2} and the two-well TB spectrum
as a function of the TB parameters the system kind fits (`SystemKind.fit`:
(k, x0) or (k, x0, alpha_tilde)); each point solves the TBModel's own pencil,
`tightbinding.pair_pencil` of the alpha_tilde-free `pair_parts` of its (k, x0),
kept in a one-slot memo. Profile matching (dynamic system) minimizes the
worst-case deviation of Re V over a window covering the left well at the input facet.

Everything is deterministic: fixed multistart grids, fixed simplex
construction, no randomness. For the pt-well family the spectral
objective under the PT metric is exactly independent of alpha_tilde, so
ties between multistart candidates are broken toward the physical
gain/loss scale of the target system (candidates are enumerated by
|alpha_tilde - alpha| ascending and a strictly better objective is
required to displace an earlier winner).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .systems import KINDS, WaveguideSystem
from .tightbinding import WellBasis, pair_parts, pair_pencil, single_well_potential, solve_spectrum

__all__ = [
    "NelderMeadResult",
    "nelder_mead",
    "CalibrationProblem",
    "CalibrationResult",
    "spectral_match",
    "profile_match",
    "default_problem",
    "well_separation",
    "CalibrationFailed",
]


class CalibrationFailed(RuntimeError):
    pass


DIAM_TOL = 1e-6  # Nelder-Mead stops once the simplex diameter drops below this
TIE_TOL = 1e-9  # a later multistart point must beat the running best by more than this
WINDOW_POINTS = 2001  # samples of the profile-matching window
SEPARATION_SPAN, SEPARATION_POINTS = 8.0, 16001  # well_separation's scan of (0.05, span]
# what scores a point inf (LinAlgError is a ValueError; a RuntimeWarning raised as an error); others propagate
NUMERICAL_FAILURES = (ValueError, ArithmeticError, RuntimeWarning)


# ---------------------------------------------------------------------------
# Nelder-Mead (standard coefficients, diameter convergence)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NelderMeadResult:
    x: np.ndarray
    fun: float
    n_iter: int
    n_eval: int
    converged: bool


def nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: Sequence[float],
    steps: Sequence[float],
    *,
    max_iter: int = 500,
) -> NelderMeadResult:
    """Simplex minimization: reflection 1, expansion 2, contraction 0.5, shrink 0.5.

    Stops when the simplex diameter drops below DIAM_TOL or after max_iter
    iterations. The best vertex never worsens, so the result is no worse
    than f(x0).
    """
    x0 = np.asarray(x0, dtype=float)
    steps = np.asarray(steps, dtype=float)
    n = len(x0)
    pts = [x0.copy()]
    for i in range(n):
        p = x0.copy()
        p[i] += steps[i]
        pts.append(p)
    vals = [f(p) for p in pts]
    n_eval = n + 1
    it = 0
    converged = False
    while it < max_iter:
        order = np.argsort(vals, kind="stable")
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        diam = max(np.max(np.abs(p - pts[0])) for p in pts[1:])
        if diam < DIAM_TOL:
            converged = True
            break
        it += 1
        centroid = np.mean(pts[:-1], axis=0)
        xr = centroid + 1.0 * (centroid - pts[-1])
        fr = f(xr)
        n_eval += 1
        if fr < vals[0]:
            xe = centroid + 2.0 * (xr - centroid)
            fe = f(xe)
            n_eval += 1
            if fe < fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (pts[-1] - centroid)
            fc = f(xc)
            n_eval += 1
            if fc < vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    vals[i] = f(pts[i])
                n_eval += n
    order = np.argsort(vals, kind="stable")
    best = order[0]
    return NelderMeadResult(x=pts[best].copy(), fun=float(vals[best]),
                            n_iter=it, n_eval=n_eval, converged=converged)


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationProblem:
    system: WaveguideSystem  # its kind picks the route: spectral if static, profile if modulated
    box: dict  # fitted parameter -> (lo, hi)
    seeds: tuple[int, ...]  # multistart grid size per fitted parameter
    window: Optional[tuple[float, float]] = None  # profile window (dynamic)

    def __post_init__(self) -> None:
        if len(self.seeds) != len(self.box):
            raise ValueError(f"need one multistart grid size per searched parameter, "
                             f"got {len(self.seeds)} for {len(self.box)}")
        for name, (lo, hi) in self.box.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"search interval for {name} must be finite and ordered")


@dataclass(frozen=True)
class CalibrationResult:
    parameters: dict
    objective_value: float
    trace: dict
    achieved_energies: Optional[np.ndarray] = None


def well_separation(system: WaveguideSystem) -> float:
    """Location of the Re V minimum for x > 0, by dense scan."""
    xs = np.linspace(0.05, SEPARATION_SPAN, SEPARATION_POINTS)
    v = np.real(system.potential(xs, 0.0))
    return float(xs[np.argmin(v)])


def default_problem(system: WaveguideSystem) -> CalibrationProblem:
    """Search boxes and multistart grid sizes for the fitted parameters (`SystemKind.fit`), the
    boxes anchored at the exact well separation and energy scale."""
    p = system.params
    fit = system.facts.fit
    x_d = well_separation(system)
    k_ref = math.sqrt((p.k1**2 + p.k2**2) / 2.0)
    bounds = {"k": (0.6 * k_ref, 1.4 * k_ref), "x0": (max(0.2, x_d - 0.7), x_d + 0.7),
              "alpha_tilde": (0.0, min(0.45, 2 * abs(getattr(p, "alpha", 0.0)) + 0.1))}
    window = (-(x_d + 3.0 / abs(p.k1)), 0.0) if system.is_dynamic else None
    return CalibrationProblem(system, {name: bounds[name] for name in fit},
                              tuple(fit.values()), window)


def _parameters(names: Sequence[str], x: np.ndarray) -> dict:
    """The TB pair's parameters from a fitted vector; alpha_tilde is 0 (Hermitian wells) unless fitted."""
    return {"alpha_tilde": 0.0, **{name: float(v) for name, v in zip(names, x)}}


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def _multistart_then_refine(
    objective: Callable[[np.ndarray], float],
    names: Sequence[str],
    grids: Sequence[np.ndarray],
    box: dict,
) -> tuple[NelderMeadResult, dict]:
    lows = np.array([box[n][0] for n in names])
    highs = np.array([box[n][1] for n in names])

    def boxed(x: np.ndarray) -> float:
        if np.any(x < lows) or np.any(x > highs):
            return math.inf
        return objective(x)

    best_val = math.inf
    best_x: Optional[np.ndarray] = None
    n_ok = 0
    for combo in itertools.product(*grids):
        x = np.array(combo, dtype=float)
        v = boxed(x)
        if math.isfinite(v):
            n_ok += 1
        if v < best_val - TIE_TOL:
            best_val, best_x = v, x
    if best_x is None:
        raise CalibrationFailed("objective failed at every multistart point")
    steps = 0.08 * (highs - lows)
    result = nelder_mead(boxed, best_x, steps)
    trace = {"multistart_best": best_val, "multistart_point": best_x.tolist(),
             "n_feasible_starts": n_ok, "nm_iterations": result.n_iter,
             "nm_evaluations": result.n_eval, "nm_converged": result.converged}
    return result, trace


def spectral_match(problem: CalibrationProblem) -> CalibrationResult:
    """Fit the kind's TB parameters (`SystemKind.fit`) so the TB spectrum hits the exact energies."""
    system = problem.system
    if system.is_dynamic:
        raise ValueError("spectral_match needs a static system")
    energies = system.energies()
    e_targets = np.array([energies[kind] for kind in system.facts.stationary])
    names = list(system.facts.fit)
    # one slot: the multistart varies alpha_tilde innermost, so its points share (k, x0)'s parts
    parts = functools.lru_cache(maxsize=1)(functools.partial(pair_parts, system.facts.wells))

    def tb_energies(x: np.ndarray) -> np.ndarray:
        p = _parameters(names, x)
        return solve_spectrum(pair_pencil(parts(p["k"], p["x0"]), p["alpha_tilde"])).energies

    def objective(x: np.ndarray) -> float:
        try:
            ev = tb_energies(x)
        except NUMERICAL_FAILURES:
            return math.inf
        return float(abs(e_targets[0] - ev[0]) + abs(e_targets[1] - ev[1]))

    grids = [np.linspace(*problem.box[name], s) for name, s in zip(names, problem.seeds)]
    if "alpha_tilde" in names:
        # enumerate nearest the physical gain/loss scale first (flat direction)
        i = names.index("alpha_tilde")
        grids[i] = grids[i][np.argsort(np.abs(grids[i] - abs(system.params.alpha)), kind="stable")]
    res, trace = _multistart_then_refine(objective, names, grids, problem.box)
    x_best, f_best = res.x, res.fun
    if "alpha_tilde" in names:
        # Under the PT metric the objective is exactly flat in alpha_tilde
        # (the pencil is alpha_tilde-independent); among tied minimizers
        # prefer the physical gain/loss scale of the target system.
        lo, hi = problem.box["alpha_tilde"]
        probe = x_best.copy()
        probe[i] = min(max(abs(system.params.alpha), lo), hi)
        f_probe = objective(probe)
        if f_probe <= f_best + 1e-9:
            x_best, f_best = probe, f_probe
            trace = dict(trace, alpha_tie_break="snapped to system alpha")
    achieved = tb_energies(x_best)
    return CalibrationResult(parameters=_parameters(names, x_best), objective_value=float(f_best),
                             trace=trace, achieved_energies=achieved)


def profile_match(problem: CalibrationProblem) -> CalibrationResult:
    """Fit the modulated pair's TB parameters (k, x0) to Re V at the input facet."""
    if problem.window is None:
        raise ValueError("profile_match needs a profile window")
    system = problem.system
    lo, hi = problem.window
    xs = np.linspace(lo, hi, WINDOW_POINTS)
    target = np.real(system.potential(xs, 0.0))
    facts = KINDS["pt_dynamic"]  # profile matching is the modulated pair's route
    names = list(facts.fit)

    def objective(x: np.ndarray) -> float:
        k, x0 = x
        try:
            vtb = (single_well_potential(WellBasis(facts.wells, k, 0.0, +x0), xs)
                   + single_well_potential(WellBasis(facts.wells, k, 0.0, -x0), xs))
        except NUMERICAL_FAILURES:
            return math.inf
        return float(np.max(np.abs(target - np.real(vtb))))

    grids = [np.linspace(*problem.box[name], s) for name, s in zip(names, problem.seeds)]
    res, trace = _multistart_then_refine(objective, names, grids, problem.box)
    return CalibrationResult(parameters=_parameters(names, res.x), objective_value=res.fun, trace=trace)
