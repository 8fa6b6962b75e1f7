import math

import numpy as np
import pytest

from susytb.quadrature import (
    QuadratureSpec,
    certify_tail,
    default_spec,
    integrate,
    localized_combos,
    quad_nodes,
)


@pytest.mark.parametrize("rule", ["trapezoid", "simpson", "gauss_legendre_composite"])
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
        QuadratureSpec(half_width=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(half_width=1.0, nodes=8)
    with pytest.raises(ValueError):
        QuadratureSpec(half_width=1.0, rule="monte_carlo")


def test_gaussian_integral_against_closed_form():
    # int exp(-x^2) = sqrt(pi); tails below 1e-12 at L = 8
    for rule in ("simpson", "gauss_legendre_composite"):
        spec = QuadratureSpec(half_width=8.0, nodes=2048, rule=rule)
        got = integrate(lambda x: np.exp(-x * x), spec)
        assert abs(got - math.sqrt(math.pi)) < 1e-12


def test_sech_squared_closed_form():
    # int sech^2(kx) = 2/k
    k = 0.7454
    spec = QuadratureSpec(half_width=16.0 / k, nodes=4096, rule="gauss_legendre_composite")
    got = integrate(lambda x: 1.0 / np.cosh(k * x) ** 2, spec)
    assert abs(got - 2.0 / k) < 1e-12


def test_trapezoid_second_order():
    spec_a = QuadratureSpec(half_width=1.0, nodes=128, rule="trapezoid")
    spec_b = QuadratureSpec(half_width=1.0, nodes=256, rule="trapezoid")
    f = lambda x: np.cos(x)
    exact = 2 * math.sin(1.0)
    e_a = abs(integrate(f, spec_a) - exact)
    e_b = abs(integrate(f, spec_b) - exact)
    assert 3.0 < e_a / e_b < 5.0


def test_certify_tail():
    k = 1.0
    wide = QuadratureSpec(half_width=16.0, nodes=2048, rule="gauss_legendre_composite", tail_tol=1e-10)
    ok, tail = certify_tail(lambda x: 1.0 / np.cosh(k * x) ** 2, wide)
    assert ok and tail < 1e-10
    narrow = QuadratureSpec(half_width=2.0, nodes=2048, rule="gauss_legendre_composite", tail_tol=1e-10)
    ok2, tail2 = certify_tail(lambda x: 1.0 / np.cosh(k * x) ** 2, narrow)
    assert not ok2 and tail2 > 1e-3


def test_default_spec_window():
    spec = default_spec(0.645)
    assert spec.half_width == pytest.approx(12.0 / 0.645)
    spec2 = default_spec(0.645, nodes=512, rule="trapezoid")
    assert spec2.nodes == 512 and spec2.rule == "trapezoid"


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
