import math

import numpy as np
import pytest

from susytb import quadrature
from susytb.quadrature import (
    RULES,
    NodeCache,
    QuadratureSpec,
    d1_fourth,
    d2_fourth,
    default_half_width,
    localized_combos,
    quad_nodes,
    read_only,
)


@pytest.mark.parametrize("rule", ["simpson", "gauss_legendre_composite"])
def test_nodes_symmetric_and_weights_positive(rule):
    spec = QuadratureSpec(half_width=5.0, nodes=256, rule=rule)
    x, w = quad_nodes(spec)
    assert np.allclose(x, -x[::-1], atol=1e-14)
    assert np.all(w > 0)
    assert np.sum(w) == pytest.approx(10.0, rel=1e-12)


def test_simpson_forces_odd_point_count():
    spec = QuadratureSpec(half_width=1.0, nodes=100, rule="simpson")
    x, _ = quad_nodes(spec)
    assert len(x) % 2 == 1


def test_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(half_width=-1.0, nodes=64)
    with pytest.raises(ValueError):
        QuadratureSpec(half_width=1.0, nodes=8)
    for rule in ("monte_carlo", "trapezoid"):
        with pytest.raises(ValueError):
            QuadratureSpec(half_width=1.0, nodes=64, rule=rule)


@pytest.mark.parametrize("half_width, message", [(math.nan, "positive"), (math.inf, "finite"),
                                                 (-math.inf, "positive"), (0.0, "positive")])
def test_half_width_must_be_positive_and_finite(half_width, message):
    """As `PropagationGrid` does: a NaN window would give NaN nodes, an infinite one no nodes at all."""
    with pytest.raises(ValueError, match=f"half_width must be {message}"):
        QuadratureSpec(half_width=half_width, nodes=64)


def _integral(f, spec):
    x, w = quad_nodes(spec)
    return np.sum(w * f(x))


def test_gaussian_integral_against_closed_form():
    # int exp(-x^2) = sqrt(pi); tails below 1e-12 at L = 8
    for rule in ("simpson", "gauss_legendre_composite"):
        spec = QuadratureSpec(half_width=8.0, nodes=2048, rule=rule)
        got = _integral(lambda x: np.exp(-x * x), spec)
        assert abs(got - math.sqrt(math.pi)) < 1e-12


def test_sech_squared_closed_form():
    # int sech^2(kx) = 2/k
    k = 0.7454
    spec = QuadratureSpec(half_width=16.0 / k, nodes=4096, rule="gauss_legendre_composite")
    got = _integral(lambda x: 1.0 / np.cosh(k * x) ** 2, spec)
    assert abs(got - 2.0 / k) < 1e-12


def test_default_spec_window():
    assert default_half_width(0.645) == pytest.approx(12.0 / 0.645)
    assert default_half_width(-0.645) == default_half_width(0.645)


def _two_lobes():
    x, w = quad_nodes(QuadratureSpec(half_width=12.0, nodes=2049))
    right, left = 1 / np.cosh(x - 2.0), 1 / np.cosh(x + 2.0)
    return x, w, right, left


@pytest.mark.parametrize("odd_sign", [+1, -1])
def test_localized_combos_label_by_mean_position(odd_sign):
    x, w, right, left = _two_lobes()
    even, odd = 0.3 * (right + left), 0.7 * odd_sign * (right - left)
    combos = localized_combos(lambda s: even + s * odd, x, w)
    assert set(combos) == {"left", "right"}
    for label, (sign, inv_n) in combos.items():
        f = inv_n * (even + sign * odd)
        assert np.sum(w * np.abs(f) ** 2) == pytest.approx(1.0, rel=1e-12)
        xmean = np.sum(w * x * np.abs(f) ** 2)
        assert (xmean > 0) == (label == "right")
    # the odd member's right lobe carries odd_sign, so "right" adds it with that sign
    assert combos["right"][0] == odd_sign
    assert combos["left"][0] == -odd_sign


def test_localized_combos_refuse_one_sided_pair():
    x, w, right, _ = _two_lobes()
    with pytest.raises(RuntimeError, match="could not label"):
        localized_combos(lambda s: right + s * 0.1 * right, x, w)


@pytest.mark.parametrize("stencil", [d1_fourth, d2_fourth])
def test_stencils_along_any_axis_are_the_line_stencil(stencil):
    """On a 2-D array the stencil acts along the last axis: the line stencil of each row, bit for bit."""
    f = np.random.default_rng(3).standard_normal((7, 40)) + 1j
    per_line = np.stack([stencil(row, 0.05) for row in f])
    assert np.array_equal(stencil(f, 0.05), per_line)
    assert np.all(per_line[:, :2] == 0) and np.all(per_line[:, -2:] == 0)


def test_line_stencils_keep_their_arithmetic():
    """On one line the stencils give, bit for bit, the slices of the plain 1-D formulas."""
    f = np.random.default_rng(4).standard_normal(40) + 1j * np.random.default_rng(5).standard_normal(40)
    h = 0.05
    d1 = np.zeros_like(f)
    d1[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    d2 = np.zeros_like(f)
    d2[2:-2] = (-f[:-4] + 16 * f[1:-3] - 30 * f[2:-2] + 16 * f[3:-1] - f[4:]) / (12 * h * h)
    assert np.array_equal(d1_fourth(f, h), d1)
    assert np.array_equal(d2_fourth(f, h), d2)


# ---------------------------------------------------------------------------
# cached rules and node-set caches
# ---------------------------------------------------------------------------

def test_gauss_legendre_nodes_unchanged_and_panel_rule_read_only():
    spec = QuadratureSpec(half_width=7.5, nodes=1024, rule="gauss_legendre_composite")
    xs, ws = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(-7.5, 7.5, 2 * (1024 // 32) + 1)
    a, b = edges[:-1], edges[1:]
    x_ref = (0.5 * (b - a)[:, None] * xs[None, :] + 0.5 * (a + b)[:, None]).ravel()
    w_ref = (0.5 * (b - a)[:, None] * ws[None, :]).ravel()
    x, w = quad_nodes(spec)
    assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
    x[:] = 0.0  # each caller owns its nodes and weights
    w[:] = 0.0
    x, w = quad_nodes(spec)
    assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
    for cached in quadrature._legendre_rule(16):
        with pytest.raises(ValueError):
            cached[0] = 0.0


@pytest.mark.parametrize("rule", RULES)
def test_spec_points_are_one_frozen_copy_of_its_nodes(rule):
    spec = QuadratureSpec(half_width=7.5, nodes=1024, rule=rule)
    x, w = spec.points
    assert spec.points[0] is x and spec.points[1] is w
    assert np.array_equal(x, quad_nodes(spec)[0]) and np.array_equal(w, quad_nodes(spec)[1])
    assert quadrature._frozen(x) and quadrature._frozen(w)
    assert QuadratureSpec(half_width=7.5, nodes=1024, rule=rule) == spec  # points are no field


def test_node_cache_keeps_only_the_last_frozen_node_set():
    calls = []

    def compute(x):
        calls.append(x.copy())
        return 2.0 * x

    cache = NodeCache(compute)

    # equal-valued writeable arrays are computed every time and never kept
    a = np.linspace(0.0, 1.0, 5)
    for x in (a, a, a.copy(), a.tolist()):
        assert np.array_equal(cache(x), 2.0 * a)
    assert len(calls) == 4 and cache._last is None

    # a frozen array handed again: the kept value, not computed again; a
    # writeable array in between is computed and leaves the slot alone
    frozen = read_only(np.linspace(2.0, 3.0, 20))
    value = cache(frozen)
    assert cache(frozen) is value
    assert np.array_equal(cache(a), 2.0 * a)
    assert cache(frozen) is value and len(calls) == 6

    # a second frozen array replaces the first, even with equal values
    twin = read_only(frozen.copy())
    kept = cache(twin)
    assert kept is not value and cache(twin) is kept and len(calls) == 7
    assert cache(frozen) is not value and np.array_equal(cache(frozen), 2.0 * frozen)
    assert len(calls) == 8 and cache._last[0] is frozen

    # a writeable array changed in place between two calls is computed anew
    b = np.linspace(0.0, 1.0, 30)
    cache(b)
    b *= 3.0
    assert np.array_equal(cache(b), 2.0 * b) and len(calls) == 10

    # a read-only view of a writeable base is not trusted: the base can still change it
    base = np.linspace(0.0, 1.0, 31).copy()
    view = base[:]
    view.flags.writeable = False
    cache(view)
    base += 1.0
    assert np.array_equal(cache(view), 2.0 * view) and len(calls) == 12
    assert cache._last[0] is frozen

    # nor is a frozen array its owner made writeable again
    owned = read_only(np.linspace(0.0, 1.0, 32))
    cache(owned)
    owned.flags.writeable = True
    owned += 1.0
    assert np.array_equal(cache(owned), 2.0 * owned) and len(calls) == 14

    # nor one changed while writeable and frozen only afterwards; once frozen it is kept
    late = np.linspace(0.0, 1.0, 33).copy()  # owns its data
    cache(late)
    late += 1.0
    late.flags.writeable = False
    assert np.array_equal(cache(late), 2.0 * late) and len(calls) == 16
    assert np.array_equal(cache(late), 2.0 * late) and len(calls) == 16
