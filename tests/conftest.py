import numpy as np
import pytest

from susytb.systems import (
    HermitianStaticParams,
    PTDynamicParams,
    PTStaticParams,
    make_system,
)

# benchmark parameter sets used throughout
HERM = HermitianStaticParams(k1=0.645, k2=0.865)
PTS = PTStaticParams(k1=1.1, k2=1.2, alpha=0.2)
PTD = PTDynamicParams(k1=1.0, k2=1.1, k3=0.95, alpha=0.1)
PTD_STRONG = PTDynamicParams(k1=1.0, k2=1.1, k3=0.95, alpha=0.5)


@pytest.fixture(scope="session")
def herm_system():
    return make_system(HERM)


@pytest.fixture(scope="session")
def pt_system():
    return make_system(PTS)


@pytest.fixture(scope="session")
def dyn_system():
    return make_system(PTD)


@pytest.fixture(scope="session")
def dyn_strong_system():
    return make_system(PTD_STRONG)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def potential_pt_dynamic_complex(p: PTDynamicParams, x, z: float):
    """The modulated pair's V as the closed form writes it: h1..h8 and the phases e^{+-i delta z} as
    complex exponentials. The reference for `systems`, which writes V's real and imaginary parts."""
    x = np.asarray(x, dtype=float)
    k1, k2, k3, a = p.k1, p.k2, p.k3, p.alpha
    c1, s1, c2, s2, c3, s3 = (f(k * x) for k in (k1, k2, k3) for f in (np.cosh, np.sinh))
    h1 = k2 * c1 * c2 - k1 * s1 * s2
    h2 = k2 * c2 * s3 - k3 * c3 * s2
    h3 = (k1**2 - k2**2) * (2 * k1**2 * s2**2 + k2**2 * (1 + np.cosh(2 * k1 * x)))
    h4 = 2 * (k2**2 - k3**2) * (k2**2 * s3**2 - k3**2 * s2**2)
    h5 = 2 * k1 * k3 * (k1**2 - 2 * k2**2 + k3**2) * c3 * s1 * s2**2
    h6 = (4 * k2**4 - 4 * k1**2 * k3**2 * s2**2 + k2**2 * (k1**2 + k3**2) * (np.cosh(2 * k2 * x) - 3)) * c1 * s3
    h7 = k2 * (k1**2 - k3**2) * (k3 * c1 * c3 - k1 * s1 * s3) * np.sinh(2 * k2 * x)
    delta = k1**2 - k3**2
    ep, em = np.exp(1j * delta * z), np.exp(-1j * delta * z)
    den = h1**2 * ep - a**2 * h2**2 * em + 2j * a * h1 * h2
    return (h3 * ep + a**2 * h4 * em - 1j * a * (h5 + h6 + h7)) / den


def reference_pencil(kind: str, k: float, x0: float, alpha_tilde: float = 0.0):
    """(H, S) of `two_well_model(kind, k, x0, alpha_tilde)` as TBModel wrote it row by row: each well's
    mode and potential from their own D(xi), every PT row at xs = -x evaluated there. The reference
    for the well-sum pencil that `tightbinding.pair_pencil` and `TBModel` build."""
    from susytb.quadrature import QuadratureSpec, quad_nodes
    from susytb.tightbinding import WellBasis, mode_norm_constant

    wells = (WellBasis(kind, k, alpha_tilde, +x0), WellBasis(kind, k, alpha_tilde, -x0))
    x, w = quad_nodes(QuadratureSpec(half_width=max(abs(b.center) for b in wells) + 13.0 / abs(k),
                                     nodes=2048, rule="gauss_legendre_composite"))
    xs = -x if kind == "pt" else x

    def mode(b, xx):
        xi = xx - b.center
        if b.kind == "hermitian":
            return mode_norm_constant(b) * b.k / np.cosh(b.k * xi)
        return mode_norm_constant(b) * b.k / (np.cosh(b.k * xi) + 1j * b.alpha_tilde * np.sinh(b.k * xi))

    def potential(b, xx):
        xi = xx - b.center
        if b.kind == "hermitian":
            return -2 * b.k**2 / np.cosh(b.k * xi) ** 2
        d = np.cosh(b.k * xi) + 1j * b.alpha_tilde * np.sinh(b.k * xi)
        return -2 * b.k**2 * (1 + b.alpha_tilde**2) / d**2

    phi = np.stack([mode(b, x) for b in wells])
    phi_s = np.stack([mode(b, xs) for b in wells])
    v0_s = np.stack([potential(b, xs) for b in wells])
    h_phi = np.empty(phi_s.shape, dtype=complex)
    for j, b in enumerate(wells):
        v_other = sum(v0_s[m] for m in range(len(wells)) if m != j)
        h_phi[j] = (b.beta + v_other) * phi_s[j]
    return np.conj(phi) @ (w[:, None] * h_phi.T), np.conj(phi) @ (w[:, None] * phi_s.T)


def reference_eig(h, s):
    """`scipy.linalg.eig(h, s)` sorted as `tightbinding.solve_spectrum` sorts: the reference for it."""
    import scipy.linalg as sla

    vals, vecs = sla.eig(h, s)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order], vecs[:, order]
