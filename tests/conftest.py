import math

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from susytb.quadrature import default_half_width
from susytb.systems import (
    HermitianStaticParams,
    PTDynamicParams,
    PTStaticParams,
    make_system,
    x_limit,
)

# benchmark parameter sets used throughout
HERM = HermitianStaticParams(k1=0.645, k2=0.865)
PTS = PTStaticParams(k1=1.1, k2=1.2, alpha=0.2)
PTD = PTDynamicParams(k1=1.0, k2=1.1, k3=0.95, alpha=0.1)
PTD_STRONG = PTDynamicParams(k1=1.0, k2=1.1, k3=0.95, alpha=0.5)


@st.composite
def certified_dynamic_params(draw):
    """|k3| < |k1| < |k2| with alpha inside the sufficient nodelessness bound."""
    k2 = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from((1.0, -1.0)))
    k1 = k2 * draw(st.floats(0.2, 0.95)) * draw(st.sampled_from((1.0, -1.0)))
    k3 = k1 * draw(st.floats(-0.95, 0.95))
    assume(k3 != 0)  # k3 = 0 leaves floquet2 unguided
    bound = (1.0 - abs(k1 / k2)) / (1.0 + abs(k3 / k2))
    p = PTDynamicParams(k1=k1, k2=k2, k3=k3, alpha=bound * draw(st.floats(-0.95, 0.95)))
    assert p.certified
    assume(default_half_width(k3) <= x_limit(p))  # refused: a small |k3| widens the window past float range
    return p


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


def reference_rows(kind: str, k: float, x0: float, alpha_tilde: float = 0.0):
    """(wells, w, phi, phi_s, v0_s) of `two_well_model(kind, k, x0, alpha_tilde)` evaluated row by row: each
    well's mode and potential from their own D(xi), every PT row at xs = -x evaluated there, not mirrored.
    The reference for the rows that `tightbinding.pair_parts` evaluates once and the model keeps."""
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
    return wells, w, phi, phi_s, v0_s


def reference_pencil(kind: str, k: float, x0: float, alpha_tilde: float = 0.0):
    """(H, S) of `two_well_model(kind, k, x0, alpha_tilde)` from its `reference_rows`, well by well, as an N-well
    sum over the other wells' potentials: the reference for the well-sum pencil of `tightbinding._pair`."""
    wells, w, phi, phi_s, v0_s = reference_rows(kind, k, x0, alpha_tilde)
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


def reference_raw_mode(p, kind: str, x, z: float = 0.0, dz: bool = False):
    """One unnormalized mode as the per-kind closed forms wrote it, mode by mode: a static pair's
    profile (z-free), or a modulated Floquet mode pre * A / W at z and, with `dz`, its d/dz. The
    reference for `systems`' pair rows, which share one Wronskian between both modes."""
    x = np.asarray(x, dtype=float)
    if isinstance(p, HermitianStaticParams):
        k1, k2 = p.k1, p.k2
        w = k2 * np.cosh(k1 * x) * np.cosh(k2 * x) - k1 * np.sinh(k1 * x) * np.sinh(k2 * x)
        if kind == "ground":
            return k2 * (k2**2 - k1**2) * np.cosh(k1 * x) / w
        return k1 * (k2**2 - k1**2) * np.sinh(k2 * x) / w
    if isinstance(p, PTStaticParams):
        k1, k2, a = p.k1, p.k2, p.alpha
        v1 = np.cosh(k1 * x) + 1j * a * np.sinh(k1 * x)
        dv1 = np.sinh(k1 * x) + 1j * a * np.cosh(k1 * x)
        w = k2 * np.cosh(k2 * x) * v1 - k1 * np.sinh(k2 * x) * dv1
        if kind == "ground":
            return k2 * (k2**2 - k1**2) * (np.cosh(k1 * x) + 1j * a * np.sinh(k1 * x)) / w
        return k1 * (k2**2 - k1**2) * np.sinh(k2 * x) / w
    k1, k2, k3, a = p.k1, p.k2, p.k3, p.alpha
    b1, b2, b3 = k1**2, k2**2, k3**2
    c1, s1 = np.cosh(k1 * x), np.sinh(k1 * x)
    c2, s2 = np.cosh(k2 * x), np.sinh(k2 * x)
    c3, s3 = np.cosh(k3 * x), np.sinh(k3 * x)
    h1 = k2 * c1 * c2 - k1 * s1 * s2
    h2 = k2 * c2 * s3 - k3 * c3 * s2
    kx = (k2 * (k1**2 - k3**2) * c2 * np.cosh((k1 - k3) * x)
          + (k1 + k3) * (k1 * k3 - k2**2) * s2 * np.sinh((k1 - k3) * x))
    e_w = np.exp(1j * (b1 + b2) * z)
    e_minus = np.exp(-1j * (b1 - b3) * z)
    w = e_w * (h1 + 1j * a * h2 * e_minus)
    delta = b1 - b3
    if kind == "floquet1":
        pre = k2 * np.exp(2j * b2 * z)
        A = np.exp(1j * b1 * z) * (b2 - b1) * c1 + 1j * a * np.exp(1j * b3 * z) * (b2 - b3) * s3
        pre_z = 2j * b2 * pre
        A_z = (1j * b1 * np.exp(1j * b1 * z) * (b2 - b1) * c1
               + 1j * a * 1j * b3 * np.exp(1j * b3 * z) * (b2 - b3) * s3)
    else:
        pre = np.exp(1j * (b1 + b2 + b3) * z)
        A = (np.exp(1j * delta * z) * k1 * (b1 - b2) * s2 + e_minus * a**2 * k3 * (b3 - b2) * s2
             - 1j * a * kx)
        pre_z = 1j * (b1 + b2 + b3) * pre
        A_z = (1j * delta * np.exp(1j * delta * z) * k1 * (b1 - b2) * s2
               - 1j * delta * e_minus * a**2 * k3 * (b3 - b2) * s2)
    if not dz:
        return pre * A / w
    wz = 1j * (b1 + b2) * w + a * delta * h2 * e_w * e_minus
    return (pre_z * A + pre * A_z) / w - pre * A * wz / (w * w)


def reference_mode(system, kind: str, x, z: float, order: int = 0):
    """A normalized stationary or Floquet mode (order 0), its d/dz (1) or H^2 applied (2, static only),
    from `reference_raw_mode` and norms taken as the per-kind code took them on the system's nodes."""
    p = system.params
    nodes, w = system.quad.points
    f = reference_raw_mode(p, kind, nodes)
    if system.is_dynamic:
        norm = 1.0 / math.sqrt(float(np.sum(w * np.abs(f) ** 2).real))
        return norm * reference_raw_mode(p, kind, x, z, dz=order == 1)
    norm = 1.0 / math.sqrt(abs(complex(np.sum(w * np.conj(f) * reference_raw_mode(p, kind, -nodes)))))
    e = system.energies()[kind]
    if order == 1:
        return -1j * e * norm * np.exp(-1j * e * z) * reference_raw_mode(p, kind, x)
    field = norm * np.exp(-1j * e * z) * reference_raw_mode(p, kind, x)
    return e**2 * field if order == 2 else field
