import numpy as np
import pytest

from susytb.seeds import (
    SeedSuperposition,
    SeedTerm,
    eval_seed,
    wronskian_bundle,
)


def test_even_term_at_origin():
    u = SeedSuperposition.even(1.0, 1.0)
    b = eval_seed(u, 0.0, 0.0)
    assert b.value == pytest.approx(1.0)
    assert b.d1x == pytest.approx(0.0)
    assert b.d1z == pytest.approx(1j)  # d_z multiplies by i k^2


def test_odd_term_at_origin():
    u = SeedSuperposition.odd(1.0, 2.0)
    b = eval_seed(u, 0.0, 0.0)
    assert b.value == pytest.approx(0.0)
    assert b.d1x == pytest.approx(2j)  # i * B * k * cosh(0)


def test_term_validation():
    with pytest.raises(ValueError):
        SeedTerm("sideways", 1.0, 1.0)
    with pytest.raises(ValueError):
        SeedTerm("even", float("inf"), 1.0)
    with pytest.raises(ValueError):
        SeedSuperposition(())


def test_free_equation_identity(rng):
    """Each superposition solves i d_z u + d_x^2 u = 0 exactly."""
    u = SeedSuperposition.build([
        ("even", 0.7, 1.1), ("odd", -1.3, 0.8), ("even", 2.0, 0.3), ("odd", 0.05, 1.7),
    ])
    x = rng.uniform(-4, 4, 100)
    z = rng.uniform(-20, 20, 100)
    for xx, zz in zip(x, z):
        b = eval_seed(u, xx, float(zz))
        scale = max(1.0, abs(b.value))
        assert abs(1j * b.d1z + b.d2x) < 1e-12 * scale


def test_wronskian_antisymmetry():
    u = SeedSuperposition.build([("even", 1.0, 0.9), ("odd", 0.4, 0.5)])
    x = np.linspace(-3, 3, 11)
    w = wronskian_bundle(u, u, x, 0.7)
    scale = np.max(np.abs(np.cosh(0.9 * x)))
    assert np.max(np.abs(w.value)) < 1e-14 * scale


def test_wronskian_static_pair_origin():
    """v1 = cosh(k1 x), v2 = i sinh(k2 x): W(0) = i k2."""
    v1 = SeedSuperposition.even(1.0, 0.645)
    v2 = SeedSuperposition.odd(1.0, 0.865)
    w = wronskian_bundle(v1, v2, 0.0, 0.0)
    assert w.value == pytest.approx(1j * 0.865)


def _fd(fun, t, h):
    return (fun(t - 2 * h) - 8 * fun(t - h) + 8 * fun(t + h) - fun(t + 2 * h)) / (12 * h)


def test_wronskian_partials_match_finite_differences(rng):
    u1 = SeedSuperposition.build([("even", 1.0, 1.0), ("odd", 0.5, 0.95)])
    u2 = SeedSuperposition.odd(1.0, 1.1)
    for _ in range(20):
        x = float(rng.uniform(-3, 3))
        z = float(rng.uniform(0, 10))
        b = wronskian_bundle(u1, u2, x, z)
        h = 1e-4
        w_of_x = lambda t: wronskian_bundle(u1, u2, t, z).value
        w_of_z = lambda t: wronskian_bundle(u1, u2, x, t).value
        wx_of_x = lambda t: wronskian_bundle(u1, u2, t, z).d1x
        for got, fd in [
            (b.d1x, _fd(w_of_x, x, h)),
            (b.d2x, _fd(wx_of_x, x, h)),
            (b.d1z, _fd(w_of_z, z, h)),
        ]:
            assert abs(got - fd) < 1e-6 * max(1.0, abs(got))


def test_seed_partials_match_finite_differences(rng):
    u = SeedSuperposition.build([("even", 0.8, 1.2), ("odd", -0.6, 0.7)])
    for _ in range(20):
        x = float(rng.uniform(-3, 3))
        z = float(rng.uniform(0, 10))
        b = eval_seed(u, x, z)
        h = 1e-4
        f_x = lambda t: eval_seed(u, t, z).value
        f1_x = lambda t: eval_seed(u, t, z).d1x
        f_z = lambda t: eval_seed(u, x, t).value
        for got, fd in [
            (b.d1x, _fd(f_x, x, h)),
            (b.d2x, _fd(f1_x, x, h)),
            (b.d1z, _fd(f_z, z, h)),
        ]:
            assert abs(got - fd) < 1e-6 * max(1.0, abs(got))


def test_vectorized_evaluation_matches_scalar():
    u = SeedSuperposition.build([("even", 1.0, 1.0), ("odd", 0.3, 0.5)])
    x = np.linspace(-2, 2, 9)
    b = eval_seed(u, x, 1.5)
    for i, xx in enumerate(x):
        bs = eval_seed(u, float(xx), 1.5)
        assert b.value[i] == pytest.approx(bs.value)
        assert b.d2x[i] == pytest.approx(bs.d2x)
