"""Derivative-free calibration of tight-binding models to exact systems.

Spectral matching (static systems) minimizes the summed absolute deviation
between the exact eigenvalues {-k2^2, -k1^2} and the two-well TB spectrum
as a function of (k, x0) or (k, x0, alpha_tilde). Profile matching
(dynamic system) minimizes the worst-case deviation of Re V over a window
covering the left well at the input facet.

Everything is deterministic: fixed multistart grids, fixed simplex
construction, no randomness. For the pt-well family the spectral
objective under the PT metric is exactly independent of alpha_tilde, so
ties between multistart candidates are broken toward the physical
gain/loss scale of the target system (candidates are enumerated by
|alpha_tilde - alpha| ascending and a strictly better objective is
required to displace an earlier winner).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .systems import WaveguideSystem
from .tightbinding import single_well_potential, solve_spectrum, two_well_model, WellBasis

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
    diam_tol: float = 1e-6,
    max_iter: int = 500,
) -> NelderMeadResult:
    """Simplex minimization: reflection 1, expansion 2, contraction 0.5, shrink 0.5.

    Stops when the simplex diameter drops below diam_tol or after max_iter
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
        if diam < diam_tol:
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
    system: WaveguideSystem
    mode: str  # spectral_hermitian | spectral_pt | profile_dynamic
    box: dict  # name -> (lo, hi); names: x0, k[, alpha_tilde]
    seeds: tuple[int, ...]  # multistart grid shape per parameter
    window: Optional[tuple[float, float]] = None  # profile window (dynamic)
    n_window: int = 2001

    def __post_init__(self) -> None:
        if self.mode not in ("spectral_hermitian", "spectral_pt", "profile_dynamic"):
            raise ValueError(f"unknown calibration mode {self.mode!r}")
        for name, (lo, hi) in self.box.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"search interval for {name} must be finite and ordered")


@dataclass(frozen=True)
class CalibrationResult:
    parameters: dict
    objective_value: float
    trace: dict
    achieved_energies: Optional[np.ndarray] = None
    achieved_profile_error: Optional[float] = None


def well_separation(system: WaveguideSystem, *, span: float = 8.0, n: int = 16001) -> float:
    """Location of the Re V minimum for x > 0, by dense scan."""
    xs = np.linspace(0.05, span, n)
    v = np.real(system.potential(xs, 0.0))
    return float(xs[np.argmin(v)])


def default_problem(system: WaveguideSystem, *, seeds: Optional[tuple[int, ...]] = None) -> CalibrationProblem:
    """Search boxes anchored at the exact well separation and energy scale."""
    p = system.params
    x_d = well_separation(system)
    k_ref = math.sqrt((p.k1**2 + p.k2**2) / 2.0)
    box = {
        "x0": (max(0.2, x_d - 0.7), x_d + 0.7),
        "k": (0.6 * k_ref, 1.4 * k_ref),
    }
    if system.kind == "hermitian_static":
        return CalibrationProblem(system, "spectral_hermitian", box, seeds or (9, 9))
    if system.kind == "pt_static":
        box["alpha_tilde"] = (0.0, min(0.45, 2 * abs(p.alpha) + 0.1))
        return CalibrationProblem(system, "spectral_pt", box, seeds or (9, 9, 5))
    d = x_d + 3.0 / abs(p.k1)
    return CalibrationProblem(system, "profile_dynamic", box, seeds or (9, 9),
                              window=(-d, 0.0))


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def _multistart_then_refine(
    objective: Callable[[np.ndarray], float],
    names: Sequence[str],
    grids: Sequence[np.ndarray],
    box: dict,
    *,
    tie_tol: float = 1e-9,
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
        if v < best_val - tie_tol:
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
    """Fit (k, x0[, alpha_tilde]) so the TB spectrum hits the exact energies."""
    system = problem.system
    if problem.mode not in ("spectral_hermitian", "spectral_pt"):
        raise ValueError("spectral_match needs a spectral problem")
    energies = system.energies()
    e_targets = np.array([energies["ground"], energies["excited"]])
    is_pt = problem.mode == "spectral_pt"
    kind = "pt" if is_pt else "hermitian"

    def tb_energies(x: np.ndarray) -> np.ndarray:
        if is_pt:
            k, x0, at = x
        else:
            (k, x0), at = x, 0.0
        model = two_well_model(kind, k, x0, at)
        return solve_spectrum(model).energies

    def objective(x: np.ndarray) -> float:
        try:
            ev = tb_energies(x)
        except Exception:
            return math.inf
        return float(abs(e_targets[0] - ev[0]) + abs(e_targets[1] - ev[1]))

    names = ["k", "x0", "alpha_tilde"] if is_pt else ["k", "x0"]
    grids = []
    for n, s in zip(names, problem.seeds):
        lo, hi = problem.box[n]
        g = np.linspace(lo, hi, s)
        if n == "alpha_tilde":
            # enumerate nearest the physical gain/loss scale first (flat direction)
            g = g[np.argsort(np.abs(g - abs(system.params.alpha)), kind="stable")]
        grids.append(g)
    res, trace = _multistart_then_refine(objective, names, grids, problem.box)
    x_best, f_best = res.x, res.fun
    if is_pt:
        # Under the PT metric the objective is exactly flat in alpha_tilde
        # (the pencil is alpha_tilde-independent); among tied minimizers
        # prefer the physical gain/loss scale of the target system.
        lo, hi = problem.box["alpha_tilde"]
        a_phys = min(max(abs(system.params.alpha), lo), hi)
        probe = np.array([x_best[0], x_best[1], a_phys])
        f_probe = objective(probe)
        if f_probe <= f_best + 1e-9:
            x_best, f_best = probe, f_probe
            trace = dict(trace, alpha_tie_break="snapped to system alpha")
    params = {"k": float(x_best[0]), "x0": float(x_best[1])}
    if is_pt:
        params["alpha_tilde"] = float(x_best[2])
    achieved = tb_energies(x_best)
    return CalibrationResult(parameters=params, objective_value=float(f_best), trace=trace,
                             achieved_energies=achieved)


def profile_match(problem: CalibrationProblem) -> CalibrationResult:
    """Fit (k, x0) to the real part of the exact potential at the input facet."""
    if problem.mode != "profile_dynamic":
        raise ValueError("profile_match needs a profile problem")
    system = problem.system
    lo, hi = problem.window
    xs = np.linspace(lo, hi, problem.n_window)
    target = np.real(system.potential(xs, 0.0))

    def objective(x: np.ndarray) -> float:
        k, x0 = x
        try:
            vtb = (single_well_potential(WellBasis("hermitian", k, 0.0, +x0), xs)
                   + single_well_potential(WellBasis("hermitian", k, 0.0, -x0), xs))
        except Exception:
            return math.inf
        return float(np.max(np.abs(target - np.real(vtb))))

    grids = [np.linspace(*problem.box[n], s) for n, s in zip(["k", "x0"], problem.seeds)]
    res, trace = _multistart_then_refine(objective, ["k", "x0"], grids, problem.box)
    return CalibrationResult(parameters={"k": float(res.x[0]), "x0": float(res.x[1])},
                             objective_value=res.fun, trace=trace,
                             achieved_profile_error=res.fun)
