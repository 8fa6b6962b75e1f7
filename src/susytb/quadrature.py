"""Quadrature rules over symmetric transverse windows [-L, L].

All integrals in the artifact run over the real line against fields with
sech-type decay; the window half-width defaults to 12 / min|k| which puts
the truncated tails below 1e-12 of the integrand scale. There are two
rules. Simpson's uniform grid carries every observable series and the
4th-order finite-difference stencils below; a scenario sets only its node
count and window. Composite Gauss-Legendre is internal, used where
spectral accuracy pays off (overlap integrals, matrix elements). Every
integral is `np.sum(w * f(x))` on the nodes and weights of `quad_nodes`. Both the exact and
the tight-binding engines build their localized left/right modes with
`localized_combos`, so the two are labelled the same way, and both keep
x-only functions in a `NodeCache`: the last frozen node set (`read_only`)
keeps its value, any other array is computed afresh at every call. Both
read their z dependence off one `PeriodicSeries` over the period T_V: the
exact engine its Gram stacks, the tight-binding march its H(z).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import numpy.fft  # loaded with the module, not inside a run

__all__ = ["QuadratureSpec", "quad_nodes", "default_half_width", "localized_combos", "d1_fourth",
           "d2_fourth", "fold_phases", "NodeCache", "read_only", "PeriodicSeries"]

RULES = ("simpson", "gauss_legendre_composite")
PHASE_TOL = 1e-9  # phases (z mod T) closer than this fraction of the period are one phase
SERIES_TARGET = 1e-13  # rho^{N/2} a periodic series' first N reaches: its top harmonic, predicted
SERIES_TERMS = 64  # most harmonics per product: zgemm sums > 128 terms apart under 1 and 2 threads (Haswell)


@dataclass(frozen=True)
class QuadratureSpec:
    half_width: float
    nodes: int
    rule: str = "simpson"

    def __post_init__(self) -> None:
        if not 0 < self.half_width < math.inf:  # NaN included
            raise ValueError(f"half_width must be {'finite' if self.half_width > 0 else 'positive'}")
        if self.nodes < 64:
            raise ValueError("need at least 64 quadrature nodes")
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}")

    @functools.cached_property
    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """`quad_nodes(self)` frozen (`read_only`), built once per spec: every reader shares one node set."""
        return tuple(read_only(a) for a in quad_nodes(self))


def default_half_width(min_k: float) -> float:
    """The window rule: half-width 12 / |min_k|, min_k the slowest decay rate."""
    return 12.0 / abs(min_k)


def quad_nodes(spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, new arrays the caller owns; symmetric about 0 for every rule, but only to rounding.
    At the presets 1,640-1,804 of the 4,097 Simpson nodes differ from `-x[::-1]`, by up to 3.6e-15, and on
    the TB pairs' Gauss-Legendre rule 844-1,032 of the 2,048 nodes and 1,088-1,600 of the weights differ
    from their mirrors. Readers that take the grid as exactly even: the phase series' mirror (`PeriodicSeries`
    with a `flip`), `_Fields`' `wcf_pt`, and the rows at -x, `conj(phi[::-1])`, in `tightbinding._pair` and
    `static_guided_modes`."""
    L = spec.half_width
    if spec.rule == "simpson":
        n = spec.nodes + 1 - spec.nodes % 2  # Simpson needs an even interval count
        x = np.linspace(-L, L, n)
        h = x[1] - x[0]
        w = np.zeros(n)
        w[0] = w[-1] = h / 3
        w[1:-1:2] = 4 * h / 3
        w[2:-1:2] = 2 * h / 3
        return x, w
    # composite Gauss-Legendre: ~16 points per panel, even panel count
    panels = max(2, 2 * (spec.nodes // 32))
    xs, ws = _legendre_rule(16)
    edges = np.linspace(-L, L, panels + 1)
    a, b = edges[:-1], edges[1:]
    x = (0.5 * (b - a)[:, None] * xs[None, :] + 0.5 * (a + b)[:, None]).ravel()
    w = (0.5 * (b - a)[:, None] * ws[None, :]).ravel()
    return x, w


@functools.lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order, read-only."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


def read_only(a: np.ndarray) -> np.ndarray:
    """a frozen: read-only and owning its data (a view is copied first), so nothing can write it."""
    if a.base is not None:
        a = a.copy()
    a.flags.writeable = False
    return a


def _frozen(x: np.ndarray) -> bool:
    """Nothing can write x's data: x is read-only and owns it, or views a read-only array that does."""
    base = x.base
    return not x.flags.writeable and (
        base is None or (isinstance(base, np.ndarray) and base.base is None and not base.flags.writeable))


class NodeCache:
    """compute(x), kept for the last frozen (`_frozen`) array only; any other is computed afresh.

    The slot holds the array itself, so its id cannot be reused while it is
    kept. (An owner that makes a frozen array writeable, changes it and
    freezes it again between two calls defeats the slot; nothing in this
    package does.)
    """

    def __init__(self, compute: Callable[[np.ndarray], object]):
        self._compute = compute
        self._last: Optional[tuple[np.ndarray, object]] = None

    def __call__(self, x):
        last = self._last
        if last is not None and x is last[0] and _frozen(x):
            return last[1]
        x = np.asarray(x, dtype=float)
        value = self._compute(x)
        if _frozen(x):
            self._last = (x, value)
        return value


def localized_combos(superpose: Callable[[int], np.ndarray], x: np.ndarray,
                     w: np.ndarray) -> dict[str, tuple[int, float]]:
    """Label the two superpositions even + s * odd (s = +-1) by the sign of <x>.

    `superpose(s)` returns that superposition on the nodes x (weights w);
    each engine sums its own way. Returns {"left"|"right": (s, 1/sqrt(P))}
    with P the Dirac power of the superposition.
    """
    combos = {}
    for sign in (+1, -1):
        f = superpose(sign)
        power = float(np.sum(w * np.abs(f) ** 2).real)
        xmean = float(np.sum(w * x * np.abs(f) ** 2).real) / power
        combos["right" if xmean > 0 else "left"] = (sign, 1.0 / math.sqrt(power))
    if len(combos) != 2:
        raise RuntimeError("could not label left/right modes by <x>")
    return combos


def d1_fourth(f: np.ndarray, h: float) -> np.ndarray:
    """4th-order central d/dx along the last axis of a uniform grid; two edge nodes per side are 0."""
    out = np.zeros_like(f)
    d1_five(f[..., :-4], f[..., 1:-3], f[..., 3:-1], f[..., 4:], h, out=out[..., 2:-2])
    return out


def d1_five(f0, f1, f3, f4, h: float, out=None) -> np.ndarray:
    """d1_fourth's (f0 - 8 f1 + 8 f3 - f4) / 12h at the middle of five samples, term by term (into `out`)."""
    acc = np.subtract(f0, np.multiply(f1, 8, out=out), out=out)
    acc += f3 * 8
    acc -= f4
    return np.divide(acc, 12 * h, out=acc)


def d2_fourth(f: np.ndarray, h: float) -> np.ndarray:
    """4th-order central d^2/dx^2 along the last axis of a uniform grid; two edge nodes per side are 0."""
    out = np.zeros_like(f)  # (-f0 + 16 f1 - 30 f2 + 16 f3 - f4) / 12h^2, term by term, in place
    acc = out[..., 2:-2]
    np.multiply(f[..., 1:-3], 16, out=acc)
    acc -= f[..., :-4]
    term = f[..., 2:-2] * 30
    acc -= term
    np.multiply(f[..., 3:-1], 16, out=term)
    acc += term
    acc -= f[..., 4:]
    acc /= 12 * h * h
    return out


def fold_phases(z: np.ndarray, period: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split each z into n T + r: (n per z, index of its phase, the sorted distinct phases).

    A z within PHASE_TOL * T of k T folds to (k, 0), and phases within PHASE_TOL * T of the
    smallest of them are that phase, so a grid aligned to T meets each phase once despite rounding.
    """
    tol = PHASE_TOL * period
    turns = np.floor(z / period)
    r = z - turns * period
    up = r > period - tol
    turns[up] += 1
    r[up | (r < tol)] = 0.0
    phases: list[float] = []
    which = np.empty(len(z), dtype=int)
    for i in np.argsort(r, kind="stable"):
        if not phases or r[i] - phases[-1] > tol:
            phases.append(float(r[i]))
        which[i] = len(phases) - 1
    return turns.astype(int), which, np.array(phases)


class PeriodicSeries:
    """A T-periodic stack P(r), matrices on its last two axes, as a truncated Fourier series from one
    `sample(r)` per distinct phase; with `flip`, P(T - r) = flip * conj P(r), and one sample at the lesser
    of r and T - r serves both.

    `fit(budget)` takes N uniform phases, N the least power of two >= 8 with rho^{N/2} <= SERIES_TARGET (the
    harmonics fall like rho^|m|), doubled, reusing every sample held (2j T / 2N is j T / N bit for bit), while
    the tail, the largest harmonic |m| >= N/2 - 1 over each stack's `scale`, is above `tol` and above the
    mirrored samples' PT defect at 0 and T/2 (their own mirrors: a sample's rounding); `n` stays 0 (no series)
    once N takes more than `budget` samples. It keeps |m| <= N/2, the harmonic N/2 split between +-N/2.
    `error` estimates its distance from a fresh sample over `scale`: 4 / (1 - rho) times the top harmonic (those
    past N/2, aliased back) plus 8 times a sample's rounding, the largest of sqrt(N) tail, the PT defect and
    `floor` (on the exact pair's Gram stacks, the distance stays below 5.4 times that rounding over 46 draws).
    """

    def __init__(self, sample: Callable[[float], np.ndarray], period: float, tol: float, *, rho: float = 0.0,
                 floor: float = 0.0, flip: Optional[np.ndarray] = None):
        self._sample, self._held, self.period, self.tol = sample, {}, period, tol
        self.rho, self.floor, self.flip, self.n, self.tail = rho, floor, flip, 0, math.inf

    def fit(self, budget: float) -> "PeriodicSeries":
        """The series of at most `budget` samples, if the tail test passes within them (see the class)."""
        n, flip, mirrored = 8, self.flip, self.flip is not None
        while (n // 2 + 1 if mirrored else n) <= budget:
            if self.rho ** (n // 2) <= SERIES_TARGET:  # mirrored: r = k T / N up to T / 2, then the mirrors
                held = self.at_phases(np.arange(n // 2 + 1 if mirrored else n) * self.period / n)
                samples = np.concatenate([held, flip * np.conj(held[n // 2 - 1:0:-1])]) if mirrored else held
                harmonics = np.fft.fft(samples, axis=0) / n
                self.scale = np.maximum(np.abs(samples).max(axis=(0, -2, -1)), np.finfo(float).tiny)
                self.tail = np.abs(harmonics[n // 2 - 1:n // 2 + 2]).max(axis=(0, -2, -1)) / self.scale
                defect = np.abs(held[[0, -1]] - flip * np.conj(held[[0, -1]])).max(axis=(0, -2, -1)) / self.scale \
                    if mirrored else 0.0
                if np.all(self.tail <= np.maximum(self.tol, defect)):  # no doubling gets under the rounding
                    rounding = np.maximum(np.maximum(math.sqrt(n) * self.tail, defect), self.floor)
                    self.n, self.error = n, 4 * self.tail / (1 - self.rho) + 8 * rounding
                    self.coefficients = np.concatenate([harmonics[n // 2:], harmonics[:n // 2 + 1]])
                    self.coefficients[[0, -1]] /= 2
                    return self
            n *= 2
        return self

    def fold(self, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(each phase's index among the distinct phases sampled, those): `fold_phases`, mirrored to min(r, T - r)."""
        mirrored = np.minimum(phases, self.period - phases) if self.flip is not None else phases
        return fold_phases(mirrored, self.period)[1:]

    def at_phases(self, phases: np.ndarray) -> np.ndarray:
        """P at each phase in [0, T): one sample per distinct phase (`fold`), none at a phase sampled before."""
        which, distinct = self.fold(phases)
        for r in [r for r in distinct.tolist() if r not in self._held]:
            self._held[r] = self._sample(r)
        out = np.stack([self._held[r] for r in distinct.tolist()])[which]
        if self.flip is not None:
            upper = phases > self.period / 2
            out[upper] = self.flip * np.conj(out[upper])
        return out

    def __call__(self, z) -> np.ndarray:
        """P at each z from the series: sum over |m| <= N/2 of c_m e^{2 pi i m z / T}."""
        m, c = np.arange(-(self.n // 2), self.n // 2 + 1), self.coefficients.reshape(self.n + 1, -1)
        e = np.exp(2j * np.pi / self.period * np.outer(np.mod(z, self.period), m))
        out = e[:, :SERIES_TERMS] @ c[:SERIES_TERMS]
        for i in range(SERIES_TERMS, len(m), SERIES_TERMS):
            out += e[:, i:i + SERIES_TERMS] @ c[i:i + SERIES_TERMS]
        return out.reshape((len(z),) + self.coefficients.shape[1:])
