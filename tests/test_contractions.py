"""The batched matrix-product kernels against their index-by-index einsum forms.

The geometry and spin layers contract per-node tensors as matrix products
over flattened index pairs, and write the per-node 3x3 algebra (inverse,
determinant, frames) in closed form.  The reference implementations below
are the plain einsum statements of the same formulas and the LAPACK calls
and Gram-Schmidt loops they replace; every kernel must match them to 1e-13
of the scale of the terms it sums, on `graph_slice` (k != 0), on a
Schwarzschild sphere and on a polynomial metric with no symmetry.
"""

import math

import numpy as np
import pytest

from creaselab.catalog import (
    _radial_tensor_deriv,
    _radial_tensor_deriv2,
    graph_slice,
    schwarzschild_isotropic,
)
from creaselab.cliffords import DIM, GAMMA, TAU
from creaselab.geometry import (
    Chart,
    InitialData,
    PointFields,
    _normal_derivative,
    bulk_frame,
    christoffel,
    constraint_fields,
    hypersurface_geometry,
    inverse_metric,
    outward_unit_normal,
    scalar_curvature,
    sphere_frame,
)
from creaselab.integrals import bulk_spin_coefficients, sen_derivatives, volume_quadrature
from creaselab.killing import killing_development, lapse_shift_from_spinor, riemann_norm
from creaselab.spheregrid import sphere_grid, theta_phi_tangents
from creaselab.spinorfields import constant_spinor_field, random_polynomial_field

TOL = 1e-13


def polynomial_data(seed: int = 3, eps: float = 0.05) -> InitialData:
    """g = delta + eps (A + B x + C x x) and k = K0 + K1 x with random coefficients: no symmetry at all."""
    rng = np.random.default_rng(seed)

    def sym_ij(t):
        return 0.5 * (t + np.swapaxes(t, 0, 1))

    A = sym_ij(rng.normal(size=(3, 3)))
    B = sym_ij(rng.normal(size=(3, 3, 3)))
    C = rng.normal(size=(3, 3, 3, 3))
    C = sym_ij(0.5 * (C + np.swapaxes(C, 2, 3)))
    K0 = sym_ij(rng.normal(size=(3, 3)))
    K1 = sym_ij(rng.normal(size=(3, 3, 3)))

    def g(x):
        return np.eye(3) + eps * (A + np.einsum("ijl,ml->mij", B, x) + np.einsum("ijlp,ml,mp->mij", C, x, x))

    def dg(x):
        return eps * (B + 2.0 * np.einsum("ijlp,mp->mijl", C, x))

    def d2g(x):
        return np.broadcast_to(2.0 * eps * C, (len(x), 3, 3, 3, 3)).copy()

    def k(x):
        return 0.1 * (K0 + np.einsum("ijl,ml->mij", K1, x))

    def dk(x):
        return np.broadcast_to(0.1 * K1, (len(x), 3, 3, 3)).copy()

    return InitialData(chart=Chart(0.0, 2.0), g=g, k=k, dg=dg, dk=dk, d2g=d2g, label="polynomial")


# each data set with volume nodes inside its chart
DATA = [
    ("graph_slice", graph_slice(0.4, 4.5, 1.0), volume_quadrature(("annulus", 3.0, 6.0), 8, 8)[0]),
    ("polynomial", polynomial_data(), volume_quadrature(("ball", 1.5), 6, 6)[0]),
]
IDS = [name for name, _, _ in DATA]
# each data set with a coordinate sphere r0 inside its chart, sampled on the nodes of an order-8 grid
SPHERES = [
    ("graph_slice", graph_slice(0.4, 4.5, 1.0), 4.5),
    ("schwarzschild", schwarzschild_isotropic(1.0), 3.0),
    ("polynomial", polynomial_data(), 1.5),
]
SPHERE_IDS = [name for name, _, _ in SPHERES]


def close(new, ref, *terms):
    """|new - ref| within TOL of the largest term that went into ref."""
    scale = max(float(np.max(np.abs(t))) for t in (ref,) + terms)
    assert np.max(np.abs(new - ref)) <= TOL * scale


# ---------------------------------------------------------------------------
# reference forms


def ref_christoffel(ginv, dg):
    lowered = np.einsum("...jli->...lij", dg) + np.einsum("...ilj->...lij", dg) - np.einsum("...ijl->...lij", dg)
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, lowered)


def ref_scalar_curvature_terms(ginv, dg, gamma, d2g):
    H = np.einsum("...ka,...abj->...jkb", ginv, dg)
    first = np.einsum("...kl,...ij,...jlik->...", ginv, ginv, d2g)
    second = np.einsum("...kl,...ij,...ijlk->...", ginv, ginv, d2g)
    hh = 0.5 * np.einsum("...ij,...jkb,...ibk->...", ginv, H, H)
    c_minus_u = 0.5 * np.einsum("...ikk->...i", H) - np.einsum("...kkb->...b", H)
    cu = np.einsum("...m,...ij,...mij->...", c_minus_u, ginv, gamma)
    gg = np.einsum("...ij,...kjm,...mik->...", ginv, gamma, gamma)
    return [first, -second, hh, cu, -gg]


def ref_constraints(g, ginv, dg, gamma, d2g, k, dk):
    R_terms = ref_scalar_curvature_terms(ginv, dg, gamma, d2g)
    kmix = ginv @ k
    kup = kmix @ ginv
    trk = np.einsum("...ii->...", kmix)
    ksq = np.einsum("...ij,...ji->...", kmix, kmix)
    mu_terms = [0.5 * t for t in R_terms] + [0.5 * trk**2, -0.5 * ksq]
    pi = k - trk[..., None, None] * g
    dtrk = np.einsum("...ab,...abl->...l", ginv, dk) - np.einsum("...ab,...abl->...l", kup, dg)
    dpi = dk - dtrk[..., None, None, :] * g[..., :, :, None] - trk[..., None, None, None] * dg
    J_terms = [
        np.einsum("...jl,...jil->...i", ginv, dpi),
        -np.einsum("...m,...mi->...i", np.einsum("...jl,...mlj->...m", ginv, gamma), pi),
        -np.einsum("...lm,...mli->...i", ginv @ pi, gamma),
    ]
    return mu_terms, J_terms


def ref_spin_coefficients(frame, dg):
    G = np.einsum("mai,mjp,mlq,mpqi->majl", frame, frame, frame, dg)
    phi = np.tril(np.ones((3, 3)), -1) + 0.5 * np.eye(3)
    return 0.5 * (G + np.einsum("mjla->majl", G) - np.einsum("mlaj->majl", G)) - phi * G


def ref_sen_derivatives(f, field, W):
    c = field.evaluate(f.x)
    e_c = np.einsum("mai,...mIi->...mIa", f.frame, field.cartesian_gradient(f.x))
    kf = np.einsum("mai,mij,mbj->mab", f.frame, f.k, f.frame)
    spin = 0.25 * np.einsum("majl,jIK,lKL,...mL->...mIa", W, GAMMA, GAMMA, c)
    extrinsic = 0.5 * np.einsum("maj,jIK,KL,...mL->...mIa", kf, GAMMA, TAU, c)
    return e_c, spin, extrinsic


def ref_bulk_frame(g):
    """Gram-Schmidt on the coordinate basis in index order, one quadratic form per einsum."""
    frame = np.zeros(g.shape)
    for i in range(3):
        v = np.zeros(g.shape[:-1])
        v[:, i] = 1.0
        for j in range(i):
            v = v - np.einsum("...a,...ab,...b->...", frame[:, j], g, v)[:, None] * frame[:, j]
        frame[:, i] = v / np.sqrt(np.einsum("...a,...ab,...b->...", v, g, v))[:, None]
    return frame


def ref_normal(ginv, x):
    omega = x / np.linalg.norm(x, axis=1)[:, None]
    u = np.einsum("...ij,...j->...i", ginv, omega)
    return omega, u, np.einsum("...i,...i->...", omega, u)


def ref_normal_derivative_terms(ginv, dg, x):
    """The two terms of d_i N^j = d_i u^j / sqrt(s) - u^j d_i s / (2 s^3/2), N = u / sqrt(s)."""
    omega, u, s = ref_normal(ginv, x)
    domega = (np.eye(3) - omega[:, :, None] * omega[:, None, :]) / np.linalg.norm(x, axis=1)[:, None, None]
    dginv = -np.einsum("...ja,...abi,...bl->...jli", ginv, dg, ginv)
    du = np.einsum("...jli,...l->...ji", dginv, omega) + np.einsum("...jl,...li->...ji", ginv, domega)
    ds = np.einsum("...jli,...j,...l->...i", dginv, omega, omega) + 2.0 * np.einsum("...l,...li->...i", u, domega)
    return [du / np.sqrt(s)[:, None, None], -0.5 * u[:, :, None] * (ds / s[:, None] ** 1.5)[:, None, :]]


def ref_sphere_frame(g, ginv, x, skip_tol=1e-8):
    """Induced-metric Gram-Schmidt of the Euclidean projections of the coordinate basis, then the normal, then
    the orientation by np.linalg.det."""
    omega, u, s = ref_normal(ginv, x)
    accepted, count = np.zeros((len(x), 2, 3)), np.zeros(len(x), dtype=int)
    for i in range(3):
        cand = np.eye(3)[i] - omega * omega[:, i:i + 1]
        ref = np.sqrt(np.einsum("...a,...ab,...b->...", cand, g, cand))
        for j in range(2):
            proj = np.einsum("...a,...ab,...b->...", accepted[:, j], g, cand)
            cand = cand - np.where(count > j, proj, 0.0)[:, None] * accepted[:, j]
        nrm = np.sqrt(np.einsum("...a,...ab,...b->...", cand, g, cand))
        idx = np.nonzero((nrm > skip_tol * ref) & (count < 2))[0]
        accepted[idx, count[idx]] = cand[idx] / nrm[idx, None]
        count[idx] += 1
    frame = np.concatenate([accepted, (u / np.sqrt(s)[:, None])[:, None]], axis=1)
    frame[np.linalg.det(frame) < 0.0, 1] *= -1.0
    return frame


def ref_boundary_terms(f, r0):
    """Terms of H (normal derivative, connection), tr k, beta and the area element, each from einsums."""
    frame = ref_sphere_frame(f.g, f.ginv, f.x)
    t, nu = frame[:, :2], frame[:, 2]
    dN = sum(ref_normal_derivative_terms(f.ginv, f.dg, f.x))
    H_terms = [
        np.einsum("...ai,...ji,...jl,...al->...", t, cov, f.g, t)
        for cov in (dN, np.einsum("...jil,...l->...ji", f.gamma, nu))
    ]
    trk = np.einsum("...ai,...aj,...ij->...", t, t, f.k)
    beta = np.einsum("...i,...ij,...aj->...a", nu, f.k, t)
    om = f.x / r0
    theta, phi = np.arccos(np.clip(om[:, 2], -1.0, 1.0)), np.arctan2(om[:, 1], om[:, 0])
    xt, xp = (r0 * d for d in theta_phi_tangents(theta, phi))
    g_tt, g_tp, g_pp = (np.einsum("...i,...ij,...j->...", a, f.g, b) for a, b in ((xt, xt), (xt, xp), (xp, xp)))
    area_terms = [g_tt * g_pp / np.sin(theta) ** 2, g_tp**2 / np.sin(theta) ** 2]
    return H_terms, trk, beta, area_terms


def ref_radial_tensor_deriv(x, u, du, v, dv):
    r = np.linalg.norm(x, axis=-1)
    om = x / r[:, None]
    eye = np.eye(3)
    P = om[:, :, None] * om[:, None, :]
    dP = (
        (eye[None, :, None, :] - om[:, :, None, None] * om[:, None, None, :]) * om[:, None, :, None]
        + (eye[None, None, :, :] - om[:, None, :, None] * om[:, None, None, :]) * om[:, :, None, None]
    ) / r[:, None, None, None]
    terms = [
        du[:, None, None, None] * eye[None, :, :, None] * om[:, None, None, :],
        dv[:, None, None, None] * P[..., None] * om[:, None, None, :],
        v[:, None, None, None] * dP,
    ]
    return sum(terms), terms


def ref_radial_tensor_deriv2(x, u, du, d2u, v, dv, d2v):
    r = np.linalg.norm(x, axis=-1)
    om = x / r[:, None]
    eye = np.eye(3)
    w = v / r**2
    dw = dv / r**2 - 2.0 * v / r**3
    d2w = d2v / r**2 - 4.0 * dv / r**3 + 6.0 * v / r**4
    P = om[:, :, None] * om[:, None, :]
    Q = (eye - P) / r[:, None, None]
    U = d2u[:, None, None] * P + du[:, None, None] * Q
    W = d2w[:, None, None] * P + dw[:, None, None] * Q
    D = np.einsum("il,mj->mijl", eye, x) + np.einsum("mi,jl->mijl", x, eye)
    terms = [
        np.einsum("ij,mlp->mijlp", eye, U),
        np.einsum("mi,mj,mlp->mijlp", x, x, W),
        dw[:, None, None, None, None] * (np.einsum("mp,mijl->mijlp", om, D) + np.einsum("ml,mijp->mijlp", om, D)),
        w[:, None, None, None, None] * (np.einsum("il,jp->ijlp", eye, eye) + np.einsum("ip,jl->ijlp", eye, eye)),
    ]
    return sum(terms), terms


# ---------------------------------------------------------------------------
# comparisons


@pytest.mark.parametrize("name,data,pts", DATA, ids=IDS)
def test_christoffel_and_curvature_match_reference(name, data, pts):
    f = PointFields(data, pts)
    ref_gamma = ref_christoffel(f.ginv, f.dg)
    close(christoffel(data, f), ref_gamma, 0.5 * np.abs(f.ginv).max() * np.abs(f.dg).max())
    terms = ref_scalar_curvature_terms(f.ginv, f.dg, f.gamma, f.d2g)
    close(scalar_curvature(data, f), sum(terms), *terms)


@pytest.mark.parametrize("name,data,pts", DATA, ids=IDS)
def test_constraint_fields_match_reference(name, data, pts):
    f = PointFields(data, pts)
    mu_terms, J_terms = ref_constraints(f.g, f.ginv, f.dg, f.gamma, f.d2g, f.k, f.dk)
    cons = constraint_fields(data, f)
    close(cons.mu, sum(mu_terms), *mu_terms)
    close(cons.J, sum(J_terms), *J_terms)
    norm_sq = np.einsum("...ij,...i,...j->...", f.ginv, cons.J, cons.J)
    close(cons.momentum_norm(data, f) ** 2, norm_sq, np.einsum("...ij,...i,...j->...", np.abs(f.ginv), cons.J, cons.J))


@pytest.mark.parametrize("name,data,pts", DATA, ids=IDS)
def test_spin_coefficients_and_sen_derivatives_match_reference(name, data, pts):
    f = PointFields(data, pts)
    ref_W = ref_spin_coefficients(f.frame, f.dg)
    W = bulk_spin_coefficients(data, f)
    close(W, ref_W, np.abs(f.dg).max())
    field = random_polynomial_field(np.random.default_rng(11), (3, 2), degree=2, scale=0.3)
    e_c, spin, extrinsic = ref_sen_derivatives(f, field, ref_W)
    close(field.frame_derivatives(data, f), e_c, np.abs(field.cartesian_gradient(f.x)).max())
    sen = sen_derivatives(data, field, f)
    assert sen.shape == (3, 2, len(f.x), DIM, 3)
    close(sen, e_c + spin + extrinsic, e_c, spin, extrinsic)


@pytest.mark.parametrize("name,data,r0", SPHERES, ids=SPHERE_IDS)
def test_metric_inverse_and_bulk_frame_match_lapack_and_gram_schmidt(name, data, r0):
    f = PointFields(data, r0 * sphere_grid(8).nodes)
    ref_inv = np.linalg.inv(f.g)
    close(inverse_metric(f.g), ref_inv)
    close(bulk_frame(data, f), ref_bulk_frame(f.g))


@pytest.mark.parametrize("name,data,r0", SPHERES, ids=SPHERE_IDS)
def test_sphere_normal_and_frame_match_reference(name, data, r0):
    f = PointFields(data, r0 * sphere_grid(8).nodes)
    omega, u, s = ref_normal(f.ginv, f.x)
    close(outward_unit_normal(data, f), u / np.sqrt(s)[:, None])
    terms = ref_normal_derivative_terms(f.ginv, f.dg, f.x)
    close(_normal_derivative(f), sum(terms), *terms)
    close(sphere_frame(data, f), ref_sphere_frame(f.g, f.ginv, f.x))


@pytest.mark.parametrize("name,data,r0", SPHERES, ids=SPHERE_IDS)
def test_boundary_geometry_matches_reference(name, data, r0):
    f = PointFields(data, r0 * sphere_grid(8).nodes)
    H_terms, trk, beta, area_terms = ref_boundary_terms(f, r0)
    hg = hypersurface_geometry(data, r0, sphere_grid(8).nodes)
    close(hg.H, sum(H_terms), *H_terms)
    close(hg.trk, trk, f.k)
    close(hg.beta, beta, f.k)
    # dA^2 = (g_tt g_pp - g_tp^2) / sin^2(theta): compared squared, against its two products
    close(hg.area_element**2, area_terms[0] - area_terms[1], *area_terms)


def test_radial_tensor_derivatives_match_reference():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3)) * rng.uniform(0.5, 8.0, size=(40, 1))
    u, du, d2u, v, dv, d2v = rng.normal(size=(6, 40))
    ref, terms = ref_radial_tensor_deriv(x, u, du, v, dv)
    close(_radial_tensor_deriv(x, u, du, v, dv), ref, *terms)
    ref2, terms2 = ref_radial_tensor_deriv2(x, u, du, d2u, v, dv, d2v)
    close(_radial_tensor_deriv2(x, u, du, d2u, v, dv, d2v), ref2, *terms2)


def ref_riemann_norm(dm, x0):
    """The nested stencil one point at a time: 82 metric evaluations."""

    def metric4(z):
        return dm.evaluate(z[0], z[1:])

    def christoffel4(z, h=1e-5):
        dg = np.zeros((4, 4, 4))
        for mu in range(4):
            dz = np.zeros(4)
            dz[mu] = h
            dg[..., mu] = (metric4(z + dz) - metric4(z - dz)) / (2.0 * h)
        combo = np.transpose(dg, (0, 2, 1)) + dg - np.transpose(dg, (2, 1, 0))
        return 0.5 * np.einsum("ad,dbc->abc", np.linalg.inv(metric4(z)), combo)

    z0, h2 = np.concatenate([[0.0], x0]), 2e-4
    gam0 = christoffel4(z0)
    dgam = np.zeros((4, 4, 4, 4))
    for mu in range(4):
        dz = np.zeros(4)
        dz[mu] = h2
        dgam[..., mu] = (christoffel4(z0 + dz) - christoffel4(z0 - dz)) / (2.0 * h2)
    riem = np.einsum("rnsm->rsmn", dgam) - np.einsum("rmsn->rsmn", dgam)
    riem += np.einsum("rml,lns->rsmn", gam0, gam0) - np.einsum("rnl,lms->rsmn", gam0, gam0)
    return math.sqrt(np.sum(np.einsum("rl,lsmn->rsmn", metric4(z0), riem) ** 2))


def test_batched_riemann_norm_matches_point_loop():
    data = schwarzschild_isotropic(1.0)
    # the static pair u = 1, Y = 0 of the constant spinor e_0
    ls = lapse_shift_from_spinor(constant_spinor_field(np.eye(DIM)[0]), data)
    dev = killing_development(data, ls)
    for p in ([3.0, 0.2, 0.1], [1.5, -2.0, 0.7]):
        point = np.array(p)
        assert riemann_norm(dev, point) == pytest.approx(ref_riemann_norm(dev, point), rel=1e-12)
