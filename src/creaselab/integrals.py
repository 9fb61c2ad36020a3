"""Surface and volume quadrature for mass integrals and spinor identities.

Implements the ADM energy-momentum integrals over coordinate spheres (flat
area element and Euclidean normal, the standard convention), the Sen
connection and Dirac-Witten operator in the deterministic bulk frame, the
spinor flux shared by the Witten flux and the integrated
Lichnerowicz-Schrodinger-Weitzenbock identity, and the crease
boundary-term identity with its Cauchy-Schwarz bound.

A spinor boundary term takes one of two forms.  A bulk field -- the LSW
test fields, the constant spinors of the Witten flux -- has analytic
derivatives in every direction, so `spinor_flux` integrates the bulk form

    Re<psi, nabla-bar_nu psi + nu . D_W psi>

in the bulk frame, on one field bundle of the sphere nodes.  The crease
traces are functions on the sphere only, so `crease_boundary_terms` uses
the paper's outward-convention D^Sigma - H/2 form

    <psi, D psi - H/2 psi - 1/2[(tr k) nu - k(nu, t_a) t^a] tau psi>

in the adapted sphere frame (shared tangential vectors, normal last),
where the interface identification of the two sides' spinors is the
identity matrix; the minus side takes nu = outward and the plus side
nu = inward, and the tangential derivatives are 4th-order angle stencils
of the traces.  D carries no spin connection of the sphere's tangent
frame: that term is nu . Gamma^a Gamma^b Gamma^c over tangential a, b, c,
an anti-Hermitian matrix, so it has no part in Re<psi, D psi>.  For a bulk
field the two forms differ by a tangential divergence, which integrates
to zero over the sphere.

Spinor operands may carry leading batch axes: components (..., m, I) on a
point batch of m nodes (see `spinorfields`).  The metric, frames, spin
coefficients and constraint fields depend only on the nodes, so each is
computed once per point batch whatever the number of spinors, and every
spinor result gains the same leading axes.  Unbatched spinors give
unbatched (scalar) results.  Each batch of nodes -- a block of the LSW
volume grid, a sphere grid -- gets one `geometry.PointFields` bundle,
built where the batch is made and passed to every function that works on
those nodes; a bundle is dropped with its batch.  A crease side's Bartnik
data come from one place: boundary_term_density reads its geometry off the
record that `geometry.hypersurface_geometry` makes at the sphere grid's
nodes and returns it, and crease_boundary_terms hands it to the margin.
lsw_residual sums the volume terms over `geometry.field_blocks` of at most
BLOCK_NODES nodes, so its memory is set by the block, and the block size
changes only the sums' order.  Its matter term reads mu and J
off the data's radial profile at |x| (`geometry.matter_densities`) when
the data has one, and from `geometry.constraint_fields` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bartnik import crease_margin
from .cliffords import DIM, GAMMA, GAMMA_GAMMA, GAMMA_TAU, TAU, spinor_rotation
from .geometry import (
    FRAME_PROJECTOR,
    SPHERE_AREA,
    CreasedData,
    GeometryError,
    InitialData,
    PointFields,
    as_fields,
    constraint_fields,
    determinant,
    field_blocks,
    hypersurface_geometry,
    matter_densities,
    outward_unit_normal,
    sphere_area_element,
)
from .spheregrid import SphereGrid, sphere_grid, theta_phi_tangents, unit_vectors
from .spinorfields import SpinorField, constant_spinor_field


class IntegralsError(GeometryError):
    pass


IMAG_TOL = 1e-9


def real_checked(value, scale=1.0, label: str = "integral"):
    """Return the real part, asserting the imaginary part is quadrature noise (elementwise)."""
    value = np.asarray(value, dtype=complex)
    bad = np.abs(value.imag) > IMAG_TOL * (np.abs(value.real) + np.abs(scale))
    if np.any(bad):
        worst = np.max(np.abs(value.imag[bad]))
        raise IntegralsError(f"{label} has non-negligible imaginary part {worst:.3e}")
    return value.real[()]


# ---------------------------------------------------------------------------
# volume quadrature over radial regions


def volume_quadrature(region: Sequence, r_order: int, sph_order: int):
    """Flat-measure nodes and weights of ("ball", r) or ("annulus", lo, hi): sum w f = int f r^2 dr dOmega.

    One Gauss-Legendre panel of r_order nodes in r times the sphere grid of sph_order.
    """
    kind = region[0]
    if kind == "ball":
        lo, hi = 0.0, float(region[1])
    elif kind == "annulus":
        lo, hi = float(region[1]), float(region[2])
    else:
        raise IntegralsError(f"unknown region kind {kind!r}")
    if not hi > lo >= 0.0:
        raise IntegralsError("region radii must satisfy 0 <= lo < hi")
    grid = sphere_grid(sph_order)
    x_gl, w_gl = leggauss(r_order)
    rr = 0.5 * (hi - lo) * x_gl + 0.5 * (hi + lo)
    wr = 0.5 * (hi - lo) * w_gl * rr**2
    pts = rr[:, None, None] * grid.nodes[None, :, :]
    w = wr[:, None] * grid.weights[None, :]
    return pts.reshape(-1, 3), w.reshape(-1)


# ---------------------------------------------------------------------------
# ADM energy-momentum


@dataclass(frozen=True)
class MassReport:
    E: float
    P: np.ndarray
    m: float
    radii: tuple[float, ...]
    E_by_radius: tuple[float, ...]
    P_by_radius: np.ndarray  # (nradii, 3)
    decay_exponent: float | None
    extrapolation_residual: float
    monotone: bool
    warning: str = ""


def _extrapolate_sequence(radii: np.ndarray, vals: np.ndarray):
    """Limit of vals = V + c r^-p from the last three entries; the last entry when no p in [0.05, 8] fits."""
    if len(vals) < 3:
        return float(vals[-1]), None, 0.0
    r1, r2, r3 = radii[-3:]
    v1, v2, v3 = vals[-3:]
    d1, d2 = v1 - v2, v2 - v3
    scale = max(abs(v1), abs(v2), abs(v3), 1e-30)
    if abs(d2) < 1e-13 * scale or d1 * d2 <= 0.0:
        return float(v3), None, float(abs(d2))

    def ratio_of(p):
        return (r1**-p - r2**-p) / (r2**-p - r3**-p)

    target = d1 / d2
    p_lo, p_hi = 0.05, 8.0
    f_lo, f_hi = ratio_of(p_lo) - target, ratio_of(p_hi) - target
    if f_lo * f_hi >= 0.0:
        return float(v3), None, float(abs(d2))
    # bisection until the midpoint is an endpoint: deterministic, full precision
    p = 0.5 * (p_lo + p_hi)
    while p_lo < p < p_hi:
        f = ratio_of(p) - target
        if f == 0.0:
            break
        if (f < 0.0) == (f_lo < 0.0):
            p_lo, f_lo = p, f
        else:
            p_hi = p
        p = 0.5 * (p_lo + p_hi)
    c = d2 / (r2**-p - r3**-p)
    limit = v3 - c * r3**-p
    return float(limit), p, float(abs(c * r3**-p))


def adm_energy_momentum(data: InitialData, radii: Sequence[float], order: int = 24) -> MassReport:
    """ADM energy and linear momentum from coordinate-sphere flux integrals.

    E picks up the (d_i g_ij - d_j g_ii) nu^j integrand with normalization
    1/(16 pi); P_i the (k_ij - (tr k) g_ij) nu^j integrand with 1/(8 pi);
    both against the Euclidean area element and
    outward coordinate normal, then extrapolated in the radius.
    """
    radii = np.asarray([float(r) for r in radii])
    if len(radii) < 1 or np.any(np.diff(radii) <= 0.0):
        raise IntegralsError("radii must be strictly increasing")
    data.chart.require(radii, what="ADM sphere")
    grid = sphere_grid(order)
    norm_e, norm_p = 1.0 / (16.0 * math.pi), 1.0 / (8.0 * math.pi)

    e_vals, p_vals = [], []
    for r in radii:
        f = PointFields(data, r * grid.nodes)
        trk = np.sum(f.ginv * f.k, axis=(1, 2))
        # (d_i g_ij - d_j g_ii) nu^j: the two traces of dg[..., i, j, l] = d_l g_ij, summed over i
        flux = sum(f.dg[:, i, :, i] - f.dg[:, i, i, :] for i in range(3))
        e_int = np.sum(flux * grid.nodes, axis=1)
        p_int = ((f.k - trk[:, None, None] * f.g) @ grid.nodes[:, :, None])[:, :, 0]
        e_vals.append(r**2 * grid.integrate(e_int) * norm_e)
        p_vals.append(r**2 * (grid.weights @ p_int) * norm_p)
    e_vals = np.asarray(e_vals)
    p_vals = np.asarray(p_vals)

    E, p_exp, resid = _extrapolate_sequence(radii, e_vals)
    P = np.empty(3)
    for i in range(3):
        P[i], _, _ = _extrapolate_sequence(radii, p_vals[:, i])

    diffs = np.abs(np.diff(e_vals))
    monotone = bool(np.all(np.diff(diffs) <= 1e-12 + 0.0)) if len(diffs) >= 2 else True
    warning = "" if monotone else "per-radius energies do not converge monotonically"
    m = math.sqrt(max(E**2 - float(P @ P), 0.0))
    return MassReport(
        E=float(E), P=P, m=m, radii=tuple(radii), E_by_radius=tuple(e_vals),
        P_by_radius=p_vals, decay_exponent=p_exp, extrapolation_residual=resid,
        monotone=monotone, warning=warning,
    )


# ---------------------------------------------------------------------------
# spin coefficients and the Dirac-Witten operator in the bulk frame


def bulk_spin_coefficients(data: InitialData, x) -> np.ndarray:
    """W[m, a, j, l] = g(nabla_{e_a} e_j, e_l) for the deterministic bulk frame.

    Gram-Schmidt on the coordinate basis in fixed order gives frame rows F
    with F g F^T = I and F lower-triangular, so F = L^{-1} for the Cholesky
    factor g = L L^T, and d_i F = -Phi(F d_i g F^T) F, where Phi
    (`geometry.FRAME_PROJECTOR`) keeps the strict lower triangle and halves
    the diagonal.  With the frame
    components G[a, j, l] = (d_{e_a} g)(e_j, e_l) of dg, the frame
    derivative gives -Phi(G_a) and the Christoffel symbols the rest:
    W_ajl = -Phi(G_a)_jl + 1/2 (G_ajl + G_jla - G_laj).
    """
    f = as_fields(data, x)
    m = len(f.x)
    frame = f.frame
    # G[m, a, j, l] = e_a^i e_j^p e_l^q d_i g_pq: F on one index of dg at a time, each an (m, 3, 3 3) product
    by_direction = (f.dg.reshape(m, 9, 3) @ np.swapaxes(frame, 1, 2)).reshape(m, 3, 9)  # [p, (q, a)]
    half = np.ascontiguousarray((frame @ by_direction).reshape(m, 3, 3, 3).swapaxes(1, 2))  # [q, j, a]
    G = np.ascontiguousarray((frame @ half.reshape(m, 3, 9)).reshape(m, 3, 3, 3).transpose(0, 3, 2, 1))
    return 0.5 * (G + G.transpose(0, 3, 1, 2) - G.transpose(0, 2, 3, 1)) - FRAME_PROJECTOR * G


def sen_derivatives(data: InitialData, field: SpinorField, x, values: np.ndarray | None = None) -> np.ndarray:
    """Spacetime-connection derivatives in all frame directions; (..., m, I, 3).

    nabla-bar_a psi = e_a(c) + 1/4 W_{jl}(e_a) Gamma^j Gamma^l c
                      + 1/2 k(e_a, e_j) Gamma^j tau c.
    `values`, when the caller has them, are the field's components c at x.
    """
    f = as_fields(data, x)
    c = field.evaluate(f.x) if values is None else values
    W = bulk_spin_coefficients(data, f)
    kf = f.frame @ f.k @ np.swapaxes(f.frame, -1, -2)
    # the connection's algebraic part as one (m, a I, K) operator, applied once to the batch:
    # one real product of [W/4 | k/2] per direction with the float view of [Gamma^j Gamma^l; Gamma^j tau]
    coeffs = np.concatenate([0.25 * W.reshape(-1, 9), 0.5 * kf.reshape(-1, 3)], axis=1)
    products = np.concatenate([GAMMA_GAMMA.reshape(9, DIM * DIM), GAMMA_TAU.reshape(3, DIM * DIM)]).view(float)
    conn = (coeffs @ products).view(complex).reshape(-1, 3 * DIM, DIM)
    out = np.asarray(field.frame_derivatives(data, f), dtype=complex)
    # the product lands in out's (..., m, a, I) memory
    np.swapaxes(out, -1, -2)[...] += (conn @ c[..., None]).reshape(c.shape[:-1] + (3, DIM))
    return out


def _gamma_contract(sen: np.ndarray) -> np.ndarray:
    """Gamma^a applied to frame derivatives (..., I, 3) and summed over a: one product over (a, K)."""
    by_direction = np.swapaxes(sen, -1, -2).reshape(sen.shape[:-2] + (3 * DIM,))
    return by_direction @ np.swapaxes(GAMMA, -1, -2).reshape(3 * DIM, DIM)


# ---------------------------------------------------------------------------
# crease boundary integrand: the D^Sigma - H/2 form in the adapted sphere gauge


ANGLE_STEP = 3e-4  # tuned for the 4th-order angular stencil (truncation vs roundoff)


def boundary_term_density(
    data: InitialData,
    r0: float,
    grid: SphereGrid,
    trace: Callable[[np.ndarray, np.ndarray], np.ndarray],
    nu_sign: int,
):
    """Per-node D^Sigma - H/2 boundary integrand on |x| = r0, and the sphere's outward Bartnik data B there.

    trace(theta, phi) gives the adapted sphere-frame components (..., m, I)
    at the nodes r0 * omega(theta, phi); the density gains the same leading
    axes.  The tangential derivatives of the trace are 4th-order angle
    stencils, so the trace is called once at the grid and at each of 8
    shifted copies of it, while the fields are read on the grid nodes only.
    B's area element times grid.weights is the induced measure.  With
    nu = nu_sign * outward unit normal, the density is the outward-convention
    combination <psi, D psi - H/2 psi - 1/2[(tr k) nu - k(nu,t_a) t^a] tau psi>;
    H, k(nu,.) and the boundary Dirac operator all use the signed normal.
    The density keeps Re<psi, D psi>, to which the spin connection of the
    tangent frame, 1/4 w_bc(t_a) nu . Gamma^a Gamma^b Gamma^c, adds nothing:
    nu . Gamma^a Gamma^b Gamma^c is anti-Hermitian for tangential a, b, c,
    so D psi is nu . Gamma^a times the trace's derivative along t_a alone.
    """
    theta, phi = grid.theta, grid.phi
    B = hypersurface_geometry(data, r0, grid.nodes)
    t = B.tangent  # (m, 2, 3)
    H, beta = nu_sign * B.H, nu_sign * B.beta

    c0 = np.asarray(trace(theta, phi), dtype=complex)

    # tangential derivatives of psi via 4th-order angle stencils; the sum m2 - 8 m1 + 8 p1 - p2
    # is accumulated point by point, so a single shifted copy of the (batched) spinor is alive at a time
    def fd4(angles, h):
        c_sum = None
        for d, w in ((-2.0, 1.0), (-1.0, -8.0), (1.0, 8.0), (2.0, -1.0)):
            c_d = np.asarray(trace(*angles(d)), dtype=complex)
            c_sum = c_d if c_sum is None else c_sum + w * c_d
        return c_sum / (12.0 * h[..., None])

    # phi variation slows like sin(theta) near the poles; widen the step there
    step_phi = ANGLE_STEP / np.maximum(np.sin(theta), 0.05)
    dc_dtheta = fd4(lambda d: (theta + d * ANGLE_STEP, phi), np.asarray(ANGLE_STEP))
    dc_dphi = fd4(lambda d: (theta, phi + d * step_phi), step_phi)

    # coordinates of t_alpha in the (theta, phi) parameter basis
    e_th, e_ph_raw = theta_phi_tangents(theta, phi)
    sin2 = np.sin(theta) ** 2
    a_co = np.einsum("mai,mi->ma", t, e_th) / r0
    b_co = np.einsum("mai,mi->ma", t, e_ph_raw) / (r0 * sin2[:, None])

    # derivative of the trace along t_alpha
    along_t = a_co[:, :, None] * dc_dtheta[..., :, None, :] + b_co[:, :, None] * dc_dphi[..., :, None, :]
    del dc_dtheta, dc_dphi

    # D psi = nu . e^alpha (derivative along t_alpha) of psi
    contracted = np.einsum("aIK,...maK->...mI", GAMMA[:2], along_t)
    dirac_b = nu_sign * np.einsum("IK,...mK->...mI", GAMMA[2], contracted)

    tau_part = nu_sign * B.trk[:, None] * np.einsum("IK,...mK->...mI", GAMMA_TAU[2], c0) - np.einsum(
        "ma,aIK,...mK->...mI", beta, GAMMA_TAU[:2], c0
    )
    # The boundary Dirac term is symmetrized pointwise: its anti-Hermitian
    # part is an exact tangential divergence with vanishing surface
    # integral, so Re<psi, D psi> integrates to the same value while the
    # remaining (algebraic, Hermitian) terms keep the imaginary-part
    # sanity check meaningful.
    dirac_density = np.einsum("...mI,...mI->...m", np.conj(c0), dirac_b).real
    algebraic_vec = -0.5 * H[:, None] * c0 - 0.5 * tau_part
    density = dirac_density + np.einsum("...mI,...mI->...m", np.conj(c0), algebraic_vec)
    return density, B


# ---------------------------------------------------------------------------
# spinor flux through coordinate spheres (bulk form)


def spinor_flux(data: InitialData, field: SpinorField, r: float, order: int, nu_sign: int = 1):
    """Integral of Re<psi, nabla-bar_nu psi + nu . D_W psi> over |x| = r; one value per batch member.

    nu = nu_sign * outward unit normal.  Every factor is read in the bulk
    frame on one field bundle of the sphere grid's nodes, from the field's
    analytic derivatives; of the sphere's geometry only nu
    (`outward_unit_normal`) and dA (`sphere_area_element`, with its chart
    and metric guards) enter.  For a bulk field this is the D^Sigma - H/2
    form of `boundary_term_density` up to a tangential divergence, which
    integrates to zero over the closed sphere.
    """
    grid = sphere_grid(order)
    f = PointFields(data, r * grid.nodes)
    dA = sphere_area_element(data, r, f) * grid.weights
    nu = nu_sign * (f.frame @ (f.g @ outward_unit_normal(data, f)[:, :, None]))[:, :, 0]  # nu_a = e_a . g . nu
    c = field.evaluate(f.x)
    sen = sen_derivatives(data, field, f, values=c)
    along = (sen @ nu[:, :, None])[..., 0]  # nabla-bar_nu psi
    nu_gamma = (nu @ GAMMA.reshape(3, DIM * DIM)).reshape(-1, DIM, DIM)  # nu_a Gamma^a
    along += (nu_gamma @ _gamma_contract(sen)[..., None])[..., 0]
    density = np.sum(c.real * along.real + c.imag * along.imag, axis=-1)  # Re<psi, along>
    return density @ dA


def witten_flux(data: InitialData, psi_inf: np.ndarray, r: float, order: int = 24):
    """Spinor flux of constant spinors (..., I) through |x| = r; the leading axes of psi_inf batch them.

    In the limit of large r this converges to
    4 pi (E |psi_inf|^2 - <psi_inf, P_i e^i tau psi_inf>).
    """
    return spinor_flux(data, constant_spinor_field(psi_inf), r, order)


def flux_mass_pairing(E: float, P: np.ndarray, psi_inf: np.ndarray) -> float:
    """4 pi (E |psi|^2 - <psi, P_i e^i tau psi>) for constant psi."""
    psi = np.asarray(psi_inf, dtype=complex)
    pmat = np.einsum("i,iIK->IK", np.asarray(P, dtype=float), GAMMA) @ TAU
    val = E * np.vdot(psi, psi) - np.vdot(psi, pmat @ psi)
    return float(SPHERE_AREA * real_checked(val, label="flux pairing"))


def flux_fit_energy_momentum(data: InitialData, r: float, order: int = 16):
    """Reconstruct (E, P) from Witten fluxes of a spinor basis by polarization.

    The flux of a constant spinor tends to C (E |psi|^2 - <psi, M psi>)
    with C = 4 pi and M = P_i Gamma^i tau Hermitian and
    traceless; basis and pairwise fluxes determine E and M, and P_i is
    recovered by projecting M onto the Clifford directions.  All
    polarization spinors go through one batched flux evaluation.
    """
    basis = np.eye(DIM, dtype=complex)
    l, mdx = np.triu_indices(DIM, k=1)
    spinors = np.concatenate([basis, basis[l] + basis[mdx], basis[l] + 1j * basis[mdx]])
    F = witten_flux(data, spinors, r, order=order) / SPHERE_AREA
    diag, f_re, f_im = F[:DIM], F[DIM : DIM + len(l)], F[DIM + len(l) :]

    E_fit = float(np.mean(diag))
    M = np.diag(E_fit - diag).astype(complex)
    # F(u) = E|u|^2 - <u, M u>: the two pairings isolate Re and Im of M_lm
    M[l, mdx] = 0.5 * (diag[l] + diag[mdx] - f_re) - 0.5j * (diag[l] + diag[mdx] - f_im)
    M[mdx, l] = np.conj(M[l, mdx])
    P_fit = np.einsum("IK,iIK->i", M, np.conj(GAMMA_TAU)).real / DIM
    return E_fit, P_fit


# ---------------------------------------------------------------------------
# integrated Lichnerowicz-Schrodinger-Weitzenbock identity


@dataclass(frozen=True)
class LswResult:
    """Identity terms; arrays with the field's batch shape for a batched field."""

    bulk: float | np.ndarray
    boundary: float | np.ndarray
    residual: float | np.ndarray
    dirichlet: float | np.ndarray
    dirac_sq: float | np.ndarray
    matter: float | np.ndarray


def lsw_residual(
    data: InitialData,
    field: SpinorField,
    region: Sequence,
    order: int = 16,
    r_order: int | None = None,
) -> LswResult:
    """Bulk minus boundary of the integrated Weitzenbock identity.

    bulk = int (|nabla-bar psi|^2 - |D_W psi|^2 + 1/2 <psi, (mu + J tau) psi>) dV
    boundary = outward-convention spinor flux over the region boundary.
    The residual vanishes for any smooth spinor; its size is set by the
    volume and sphere quadrature.  mu and J.nu are closed forms of the
    data's radial profile at r = |x|, so the volume nodes never evaluate dk
    or d2g; data without a profile get both from the 3-D constraint pass.
    """
    if r_order is None:
        r_order = max(24, order)
    pts, w_flat = volume_quadrature(region, r_order, order)
    gt = GAMMA_TAU.reshape(3, -1).view(float)
    matter_int = dirichlet = dirac_sq = 0.0
    for f in field_blocks(data, pts):
        dV, w_flat = np.sqrt(determinant(f.g)) * w_flat[: len(f.x)], w_flat[len(f.x) :]  # later blocks' weights remain
        if data.profile is None:
            cons = constraint_fields(data, f)
            mu, J = cons.mu, cons.J
        else:  # J is radial and nu_i = A omega_i, so J_i = (J.nu) A x_i / r
            r = np.linalg.norm(f.x, axis=1)
            data.chart.require(r, what="matter node")
            mu, jn = matter_densities(p := data.profile(r))
            J = (jn * p.A / r)[:, None] * f.x
        # the matter operator mu + J_a Gamma^a tau per node: frame components of J times the float view of gt
        matter_op = ((f.frame @ J[:, :, None])[:, :, 0] @ gt).view(complex)
        matter_op = matter_op.reshape(-1, DIM, DIM) + mu[:, None, None] * np.eye(DIM)
        c = field.evaluate(f.x)
        # 1/2 Re<psi, (mu + J tau) psi> as a real inner product of float views
        matter = 0.5 * np.sum(c.view(float) * (matter_op @ c[..., None])[..., 0].view(float), axis=-1)
        matter_int = matter_int + np.sum(matter * dV, axis=-1)
        sen = sen_derivatives(data, field, f, values=c)
        dirichlet = dirichlet + np.sum(np.einsum("...mIa,...mIa->...m", np.conj(sen), sen).real * dV, axis=-1)
        dw = _gamma_contract(sen)
        dirac_sq = dirac_sq + np.sum(np.einsum("...mI,...mI->...m", np.conj(dw), dw).real * dV, axis=-1)
    bulk = dirichlet - dirac_sq + matter_int

    boundary = spinor_flux(data, field, float(region[-1]), order)
    if region[0] == "annulus":
        boundary = boundary + spinor_flux(data, field, float(region[1]), order, nu_sign=-1)
    return LswResult(
        bulk=bulk,
        boundary=boundary,
        residual=bulk - boundary,
        dirichlet=dirichlet,
        dirac_sq=dirac_sq,
        matter=matter_int,
    )


# ---------------------------------------------------------------------------
# crease boundary terms


@dataclass(frozen=True)
class CreaseBoundaryResult:
    """Crease terms; arrays with the traces' batch shape for batched traces."""

    direct: float | np.ndarray
    formula: float | np.ndarray
    bound: float | np.ndarray
    i_minus: float | np.ndarray
    i_plus: float | np.ndarray

    @property
    def mismatch(self) -> float | np.ndarray:
        return abs(self.direct - self.formula)


def crease_boundary_terms(
    cd: CreasedData,
    psi_plus: Callable[[np.ndarray, np.ndarray], np.ndarray],
    order: int = 16,
) -> CreaseBoundaryResult:
    """Crease boundary terms: direct one-sided integrals vs the jump formula.

    `psi_plus` gives adapted-frame components (..., m, I) on the crease
    sphere, and the minus trace is its transmission image, the spinor
    rotation by the crease angle; every result has the traces' leading
    batch shape.  The contract is |direct - formula| small, direct <=
    bound, and bound <= 0 whenever the crease margin is nonnegative.
    """
    grid = sphere_grid(order)
    r0 = cd.r0

    def minus_trace(th, ph):
        rot = spinor_rotation(np.asarray(cd.angle.value(unit_vectors(th, ph)), dtype=float))
        return np.einsum("mIK,...mK->...mI", rot, np.asarray(psi_plus(th, ph), dtype=complex))

    c_plus = np.asarray(psi_plus(grid.theta, grid.phi), dtype=complex)

    def one_side(data, trace, nu_sign):
        # the Bartnik data are the density's geometry
        density, B = boundary_term_density(data, r0, grid, trace, nu_sign)
        return np.sum(density * (B.area_element * grid.weights), axis=-1), B

    i_minus, bm = one_side(cd.minus, minus_trace, 1)
    i_plus, bp = one_side(cd.plus, psi_plus, -1)
    # the jump H_+ - F(H_-) is minus the margin report's F(H_-) - H_+, in both its components
    crease = crease_margin(bm, bp, cd.angle)

    psi_sq = np.einsum("...mI,...mI->...m", np.conj(c_plus), c_plus).real
    vec = -crease.tau_component[:, None] * np.einsum("IK,...mK->...mI", GAMMA_TAU[2], c_plus) - np.einsum(
        "ma,aIK,...mK->...mI", crease.beta_delta, GAMMA_TAU[:2], c_plus
    )
    formula_density = 0.5 * (psi_sq * -crease.nu_component + np.einsum("...mI,...mI->...m", np.conj(c_plus), vec))
    dA = bp.area_element * grid.weights
    formula = real_checked(np.sum(formula_density * dA, axis=-1), scale=1.0, label="crease formula")

    # 1/2 |psi|^2 (<H_+ - F(H_-), nu_+> + sqrt(<.., tau_+>^2 + |beta^Delta|^2)) = -1/2 |psi|^2 margin
    bound = np.sum(-0.5 * psi_sq * crease.margin * dA, axis=-1)

    direct = real_checked(i_minus + i_plus, scale=abs(formula) + 1.0, label="crease direct term")
    return CreaseBoundaryResult(
        direct=direct,
        formula=formula,
        bound=bound,
        i_minus=real_checked(i_minus, scale=1.0, label="I_minus"),
        i_plus=real_checked(i_plus, scale=1.0, label="I_plus"),
    )
