import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from creaselab import bartnik, geometry
from creaselab.catalog import (
    graph_slice,
    miao_corner,
    minkowski_slice,
    schwarzschild_exterior_area_radius,
    schwarzschild_isotropic,
)
from creaselab.cliffords import DIM, GAMMA, TAU
from creaselab.geometry import (
    Chart,
    InitialData,
    PointFields,
    bulk_frame,
    christoffel,
    constraint_fields,
    scalar_curvature,
)
from creaselab.integrals import (
    IntegralsError,
    _extrapolate_sequence,
    _gamma_contract,
    adm_energy_momentum,
    boundary_term_density,
    bulk_spin_coefficients,
    crease_boundary_terms,
    flux_fit_energy_momentum,
    flux_mass_pairing,
    lsw_residual,
    sen_derivatives,
    spinor_flux,
    volume_quadrature,
    witten_flux,
)
from creaselab.spheregrid import sphere_grid, unit_vectors
from creaselab.spinorfields import (
    SpinorField,
    anchored_spin_lift,
    constant_spinor_field,
    polynomial_spinor_field,
    random_polynomial_field,
    rotation_between_frames,
    spin_lift,
    spin_lift_any,
)
from test_geometry import matter_ball


def dirac_witten_apply(data: InitialData, field: SpinorField, x) -> np.ndarray:
    """Frame-contracted spacetime connection, e^a nabla-bar_a psi."""
    return _gamma_contract(sen_derivatives(data, field, x))


def radial_bump_field(components: np.ndarray, r_lo: float, r_hi: float) -> SpinorField:
    """Constant spinor windowed by a Gaussian in radius, supported well inside [r_lo, r_hi]."""
    comp = np.asarray(components, dtype=complex)
    center = 0.5 * (r_lo + r_hi)
    width = (r_hi - r_lo) / 7.0

    def window(r):
        return np.exp(-(((r - center) / width) ** 2))

    def values(x):
        r = np.linalg.norm(x, axis=-1)
        return window(r)[:, None] * comp[None, :]

    def gradient(x):
        r = np.linalg.norm(x, axis=-1)
        dwin = window(r) * (-2.0 * (r - center) / width**2)
        om = x / r[:, None]
        return dwin[:, None, None] * comp[None, :, None] * om[:, None, :]

    return SpinorField(values=values, cartesian_gradient=gradient)


# ---------------------------------------------------------------------------
# sphere quadrature


def test_sphere_grid_area():
    grid = sphere_grid(8)
    assert 2.0**2 * grid.integrate(np.ones(grid.size)) == pytest.approx(16.0 * math.pi, abs=1e-12)


def test_sphere_grid_is_built_once_per_order_and_read_only():
    grid = sphere_grid(16)
    assert sphere_grid(16) is grid and sphere_grid(12) is not grid
    for values in (grid.theta, grid.phi, grid.nodes, grid.weights):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


def test_sphere_grid_odd_symmetry():
    grid = sphere_grid(8)
    assert abs(grid.integrate(grid.nodes[:, 2])) < 1e-12


def test_sphere_grid_moment():
    grid = sphere_grid(12)
    assert grid.integrate(grid.nodes[:, 2] ** 2) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-10)


# ---------------------------------------------------------------------------
# spin lift


def test_spin_lift_intertwines_random_rotations():
    from scipy.linalg import expm

    rng = np.random.default_rng(0)
    for _ in range(15):
        w = rng.normal(size=3)
        W = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
        O = expm(W)
        for lift in (spin_lift, spin_lift_any):
            if lift is spin_lift and np.trace(O) < -0.6:
                continue
            sigma = lift(O[None])[0]
            assert np.max(np.abs(sigma @ sigma.conj().T - np.eye(4))) < 1e-13
            for j in range(3):
                lhs = sigma @ GAMMA[j] @ sigma.conj().T
                rhs = np.einsum("i,ikl->kl", O[:, j], GAMMA)
                assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_spin_lift_any_handles_half_turns():
    O = np.diag([1.0, -1.0, -1.0])  # half turn about x
    sigma = spin_lift_any(O[None])[0]
    for j in range(3):
        lhs = sigma @ GAMMA[j] @ sigma.conj().T
        rhs = np.einsum("i,ikl->kl", O[:, j], GAMMA)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# ADM energy-momentum


def test_adm_minkowski_zero():
    rep = adm_energy_momentum(minkowski_slice(), [10.0, 20.0, 40.0], order=8)
    assert rep.E == 0.0
    assert np.all(rep.P == 0.0)
    assert rep.m == 0.0


def test_adm_schwarzschild_isotropic():
    rep = adm_energy_momentum(schwarzschild_isotropic(1.0), [50.0, 100.0, 200.0], order=24)
    assert 0.999 <= rep.E <= 1.001
    assert np.max(np.abs(rep.P)) < 1e-6
    assert rep.m == pytest.approx(rep.E, abs=1e-9)


def test_adm_miao_corner_exterior():
    mc = miao_corner(1.0, 4.0)
    rep = adm_energy_momentum(mc.plus, [50.0, 100.0, 200.0], order=24)
    assert 0.99 <= rep.E <= 1.01
    assert np.max(np.abs(rep.P)) < 1e-6


def test_adm_rotation_invariance():
    base = schwarzschild_isotropic(1.0)
    # rigid rotation of the data: g_R(x) = R^T g(Rx) R, likewise k and the derivatives
    th = 0.7
    R = np.array(
        [
            [math.cos(th), -math.sin(th), 0.0],
            [math.sin(th), math.cos(th), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )

    def rot_metric(x):
        return np.einsum("ia,mab,jb->mij", R.T, base.g(x @ R.T), R.T)

    def rot_dg(x):
        d = base.dg(x @ R.T)
        return np.einsum("ia,jb,lc,mabc->mijl", R.T, R.T, R.T, d)

    def rot_d2g(x):
        d = base.d2g(x @ R.T)
        return np.einsum("ia,jb,lc,nd,mabcd->mijln", R.T, R.T, R.T, R.T, d)

    rotated = InitialData(
        chart=base.chart, g=rot_metric, k=base.k, dg=rot_dg, dk=base.dk, d2g=rot_d2g, label="rotated",
    )
    r1 = adm_energy_momentum(base, [50.0, 100.0, 200.0], order=24)
    r2 = adm_energy_momentum(rotated, [50.0, 100.0, 200.0], order=24)
    assert abs(r1.E - r2.E) <= 1e-3 * abs(r1.E)
    assert np.max(np.abs(r1.P - r2.P)) <= 1e-3 * (abs(r1.E) + 1.0)


def test_adm_momentum_of_a_dipole_extrinsic_curvature():
    """g = delta and k_ij = (p_i x_j + p_j x_i) / |x|^3: the flux (k_ij - tr k g_ij) nu^j integrates to 8 pi p / 3 at
    every radius, since k_ij nu^j = p_i / r^2 + x_i (p.x) / r^4 and tr k nu_i = 2 x_i (p.x) / r^4; so P = p / 3."""
    flat, p = minkowski_slice(), np.array([0.3, -0.2, 0.5])

    def k(x):
        r = np.linalg.norm(x, axis=1)[:, None, None]
        return (p[None, :, None] * x[:, None, :] + x[:, :, None] * p[None, None, :]) / r**3

    def dk(x):
        r = np.linalg.norm(x, axis=1)[:, None, None, None]
        sym = np.eye(3)[None, None, :, :] * p[None, :, None, None]  # p_i delta_jl
        return (sym + np.swapaxes(sym, 1, 2)) / r**3 - 3.0 * k(x)[..., None] * x[:, None, None, :] / r**2

    data = InitialData(chart=Chart(0.0, math.inf), g=flat.g, k=k, dg=flat.dg, dk=dk, d2g=flat.d2g, label="dipole-k")
    rep = adm_energy_momentum(data, [10.0, 20.0, 40.0], order=8)
    assert rep.E == 0.0
    assert np.max(np.abs(rep.P_by_radius - p / 3.0)) <= 1e-15
    assert np.max(np.abs(rep.P - p / 3.0)) <= 1e-15


def test_adm_radii_validation():
    with pytest.raises(IntegralsError):
        adm_energy_momentum(minkowski_slice(), [20.0, 10.0], order=8)


def _decay(radii, V, c, p):
    radii = np.asarray(radii, dtype=float)
    return radii, V + c * radii**-p


@pytest.mark.parametrize("p", [0.6, 1.0, 1.7, 3.2])
def test_extrapolate_sequence_non_geometric_radii(p):
    c = 2.5 * 30.0**p  # the tail is 2.5 at the first radius
    radii, vals = _decay([30.0, 70.0, 200.0], 0.83, c, p)
    limit, p_fit, tail = _extrapolate_sequence(radii, vals)
    assert abs(p_fit - p) <= 1e-12
    assert abs(limit - 0.83) <= 1e-12 * 0.83
    assert tail == pytest.approx(c * 200.0**-p, rel=1e-9)


def test_extrapolate_sequence_geometric_radii():
    # ratio 2 between radii: the decay exponent is log2 of the ratio of differences
    radii, vals = _decay([50.0, 100.0, 200.0], 1.0, -0.4, 1.3)
    d1, d2 = vals[0] - vals[1], vals[1] - vals[2]
    limit, p_fit, _ = _extrapolate_sequence(radii, vals)
    assert p_fit == pytest.approx(math.log2(d1 / d2), abs=1e-12)
    assert limit == pytest.approx(1.0, rel=1e-12)


def test_extrapolate_sequence_without_sign_change():
    # p = 10 lies outside the bracket [0.05, 8]: the last value, no exponent, the last difference
    radii, vals = _decay([2.0, 4.0, 8.0], 1.0, 1.0, 10.0)
    assert _extrapolate_sequence(radii, vals) == (vals[2], None, abs(vals[1] - vals[2]))


def test_extrapolate_sequence_early_returns():
    assert _extrapolate_sequence(np.array([10.0, 20.0]), np.array([1.5, 1.25])) == (1.25, None, 0.0)
    radii = np.array([10.0, 20.0, 40.0])
    # not monotone, then converged to roundoff: the last value, no exponent
    assert _extrapolate_sequence(radii, np.array([1.0, 1.2, 1.1])) == (1.1, None, pytest.approx(0.1))
    assert _extrapolate_sequence(radii, np.array([1.0, 1.0, 1.0])) == (1.0, None, 0.0)


# ---------------------------------------------------------------------------
# Sen connection and Dirac-Witten operator


def test_spin_coefficients_antisymmetric():
    data = schwarzschild_isotropic(1.0)
    pts = np.array([[2.0, 1.0, -0.5], [4.0, 0.2, 0.9]])
    W = bulk_spin_coefficients(data, pts)
    assert np.max(np.abs(W + np.swapaxes(W, 2, 3))) < 1e-9


@pytest.mark.parametrize(
    "maker",
    [lambda: schwarzschild_isotropic(1.0), lambda: schwarzschild_exterior_area_radius(1.0), graph_slice,
     lambda: miao_corner(1.0, 3.0).plus],
    ids=["schwarzschild_isotropic", "schwarzschild_exterior_area_radius", "graph_slice", "miao_corner.plus"],
)
def test_spin_coefficients_match_frame_differences(maker):
    # oracle: differentiate the Gram-Schmidt frame by central differences
    data = maker()
    pts = np.array([[3.5, 1.0, -0.5], [4.0, -2.0, 1.5], [0.5, 4.5, 3.0], [-5.0, 0.3, 2.2]])
    h = 1e-5
    frame = bulk_frame(data, pts)
    dframe = np.stack(
        [(bulk_frame(data, pts + h * e) - bulk_frame(data, pts - h * e)) / (2.0 * h) for e in np.eye(3)], axis=-1
    )
    cov = dframe + np.einsum("mpiq,mjq->mjpi", christoffel(data, pts), frame)
    oracle = np.einsum("mai,mjpi,mpq,mlq->majl", frame, cov, data.g(pts), frame)
    assert np.max(np.abs(bulk_spin_coefficients(data, pts) - oracle)) < 1e-9


def test_sen_fused_operator_matches_unfused_contraction():
    data = graph_slice()
    rng = np.random.default_rng(13)
    fld = random_polynomial_field(rng, (3,), degree=2, scale=0.3)
    pts = np.array([[4.0, 1.0, 1.5], [3.5, -2.0, 0.7], [5.0, 0.1, -0.4], [-1.0, 4.2, 2.0]])
    frame = bulk_frame(data, pts)
    W = bulk_spin_coefficients(data, pts)
    kf = np.einsum("mai,mij,mbj->mab", frame, data.k(pts), frame)
    gg = np.einsum("jIK,lKL->jlIL", GAMMA, GAMMA)
    gt = np.einsum("jIK,KL->jIL", GAMMA, TAU)
    c = fld.evaluate(pts)
    unfused = (fld.frame_derivatives(data, pts)
               + 0.25 * np.einsum("majl,jlIK,...mK->...mIa", W, gg, c)
               + 0.5 * np.einsum("maj,jIK,...mK->...mIa", kf, gt, c))
    fused = sen_derivatives(data, fld, pts)
    assert fused.shape == unfused.shape == (3, 4, DIM, 3)
    assert np.max(np.abs(fused - unfused)) < 1e-14 * max(1.0, np.max(np.abs(unfused)))


def test_sen_constant_on_flat():
    flat = minkowski_slice()
    fld = constant_spinor_field(np.array([1.0, 0.5j, -0.25, 0.125]))
    pts = np.array([[1.0, 2.0, 0.5], [0.3, -0.2, 4.0]])
    assert np.max(np.abs(sen_derivatives(flat, fld, pts))) == 0.0
    assert np.max(np.abs(dirac_witten_apply(flat, fld, pts))) == 0.0


def test_sen_reduces_to_spin_derivative_when_k_zero():
    data = schwarzschild_isotropic(1.0)
    rng = np.random.default_rng(5)
    fld = random_polynomial_field(rng, (), degree=2, scale=0.2)
    pts = np.array([[3.0, 1.0, 0.5]])
    sen = sen_derivatives(data, fld, pts)
    # re-assemble the pure spin derivative: k = 0 means no tau coupling
    dc = fld.frame_derivatives(data, pts)
    W = bulk_spin_coefficients(data, pts)
    gg = np.einsum("jIK,lKL->jlIL", GAMMA, GAMMA)
    spin = 0.25 * np.einsum("majl,jlIK,mK->mIa", W, gg, fld.evaluate(pts))
    assert np.max(np.abs(sen - (dc + spin))) < 1e-14


def test_sen_step_halving_oracle():
    data = graph_slice()
    rng = np.random.default_rng(11)
    analytic = random_polynomial_field(rng, (), degree=2, scale=0.2)
    h = 5e-7

    def central_difference(x):
        return np.stack([(analytic.values(x + e) - analytic.values(x - e)) / (2.0 * h) for e in h * np.eye(3)], axis=-1)

    fd_half = SpinorField(values=analytic.values, cartesian_gradient=central_difference)
    pts = np.array([[4.0, 1.0, 1.5], [3.5, -2.0, 0.7], [5.0, 0.1, -0.4]])
    a = sen_derivatives(data, analytic, pts)
    b = sen_derivatives(data, fd_half, pts)
    assert np.max(np.abs(a - b)) < 1e-6


def test_sen_single_direction_accessor():
    # direction i of the connection is the slice sen_derivatives(...)[..., i - 1];
    # check each slice against a hand-assembled derivative along the frame vector e_i
    data = graph_slice()
    rng = np.random.default_rng(2)
    fld = random_polynomial_field(rng, (), degree=1, scale=0.3)
    pts = np.array([[4.0, 0.5, 1.0]])
    allof = sen_derivatives(data, fld, pts)
    frame = bulk_frame(data, pts)[0]
    W = bulk_spin_coefficients(data, pts)[0]
    kf = frame @ data.k(pts)[0] @ frame.T
    c = fld.evaluate(pts)[0]
    h = 1e-6
    for i in (1, 2, 3):
        e = frame[i - 1]
        along = (fld.evaluate(pts + h * e)[0] - fld.evaluate(pts - h * e)[0]) / (2.0 * h)
        conn = sum(0.25 * W[i - 1, j, l] * GAMMA[j] @ GAMMA[l] for j in range(3) for l in range(3))
        conn = conn + sum(0.5 * kf[i - 1, j] * GAMMA[j] @ TAU for j in range(3))
        assert np.max(np.abs(allof[0, :, i - 1] - (along + conn @ c))) < 1e-8


def test_dirac_witten_linearity():
    data = graph_slice()
    rng = np.random.default_rng(7)
    f1 = random_polynomial_field(rng, (), degree=2, scale=0.2)
    f2 = random_polynomial_field(rng, (), degree=2, scale=0.2)
    a, b = 1.3 - 0.2j, -0.7j
    combo = SpinorField(
        values=lambda x: a * f1.values(x) + b * f2.values(x),
        cartesian_gradient=lambda x: a * f1.cartesian_gradient(x) + b * f2.cartesian_gradient(x),
    )
    pts = np.array([[4.0, 1.0, 0.3], [2.0, -1.0, 2.0]])
    lhs = dirac_witten_apply(data, combo, pts)
    rhs = a * dirac_witten_apply(data, f1, pts) + b * dirac_witten_apply(data, f2, pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_dirac_witten_formal_self_adjointness():
    flat = minkowski_slice()
    psi = radial_bump_field(np.array([1.0, 0.3j, -0.2, 0.5]), 0.5, 2.0)
    phi = radial_bump_field(np.array([0.2, 1.0, 0.4j, -0.3]), 0.5, 2.0)
    pts, w = volume_quadrature(("ball", 2.0), 32, 12)
    dwp = dirac_witten_apply(flat, psi, pts)
    dwq = dirac_witten_apply(flat, phi, pts)
    lhs = np.sum(w * np.einsum("mI,mI->m", np.conj(dwp), phi.evaluate(pts)))
    rhs = np.sum(w * np.einsum("mI,mI->m", np.conj(psi.evaluate(pts)), dwq))
    assert abs(lhs - rhs) < 1e-10


def test_dirac_witten_green_identity_with_boundary():
    flat = minkowski_slice()
    rng = np.random.default_rng(3)
    f1 = random_polynomial_field(rng, (), degree=2, scale=0.3)
    f2 = random_polynomial_field(rng, (), degree=2, scale=0.3)
    pts, w = volume_quadrature(("ball", 2.0), 32, 16)
    dw1 = dirac_witten_apply(flat, f1, pts)
    dw2 = dirac_witten_apply(flat, f2, pts)
    vol = np.sum(
        w
        * (
            np.einsum("mI,mI->m", np.conj(dw1), f2.evaluate(pts))
            - np.einsum("mI,mI->m", np.conj(f1.evaluate(pts)), dw2)
        )
    )
    grid = sphere_grid(16)
    xb = 2.0 * grid.nodes
    nu_psi = np.einsum("mi,iIK,mK->mI", grid.nodes, GAMMA, f1.evaluate(xb))
    bnd = 4.0 * grid.integrate(np.einsum("mI,mI->m", np.conj(nu_psi), f2.evaluate(xb)))
    assert abs(vol - bnd) < 1e-10 * (1.0 + abs(vol))


# ---------------------------------------------------------------------------
# Witten flux


def test_witten_flux_flat_vanishes():
    flat = minkowski_slice()
    assert abs(witten_flux(flat, np.array([1.0, 0.5j, -0.25, 0.125]), 10.0, order=12)) < 1e-10


def test_witten_flux_schwarzschild_limit():
    data = schwarzschild_isotropic(1.0)
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    flux = witten_flux(data, psi, 200.0, order=16)
    target = flux_mass_pairing(1.0, np.zeros(3), psi)
    assert target == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert abs(flux - target) <= 0.02 * target


def test_witten_flux_decay_rate():
    data = schwarzschild_isotropic(1.0)
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    errs = [abs(witten_flux(data, psi, r, order=16) - 4.0 * math.pi)
            for r in (50.0, 100.0, 200.0, 400.0)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    rate = math.log2(errs[0] / errs[-1]) / 3.0
    assert rate > 0.8  # q' > 0, empirically ~ 1


def test_witten_flux_batch_matches_single_spinors():
    data = schwarzschild_isotropic(1.0)
    rng = np.random.default_rng(12)
    spinors = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
    batch = witten_flux(data, spinors, 50.0, order=12)
    assert batch.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        single = witten_flux(data, spinors[idx], 50.0, order=12)
        assert np.ndim(single) == 0
        assert abs(batch[idx] - single) <= 1e-13 * abs(single)


@pytest.mark.parametrize("order", [12, 16])
@pytest.mark.parametrize("data, r", [(graph_slice(), 4.5), (schwarzschild_exterior_area_radius(1.0), 10.0)],
                         ids=["graph_slice", "schwarzschild_exterior_area_radius"])
def test_witten_flux_matrix_matches_the_spinor_flux_of_constant_fields(data, r, order):
    # the one-matrix flux against the bulk form carried through every node; graph_slice has k != 0 at r = 4.5
    rng = np.random.default_rng(35)
    psi = rng.normal(size=(8, DIM)) + 1j * rng.normal(size=(8, DIM))
    fast = witten_flux(data, psi, r, order=order)
    reference = spinor_flux(data, constant_spinor_field(psi), r, order)
    assert fast.shape == (8,)
    assert np.all(np.abs(fast - reference) <= 1e-13 * np.maximum(np.abs(reference), 1.0))


def _sphere_gauge_trace(data, field, r, grid):
    """trace(theta, phi) of a bulk-frame field on |x| = r in the adapted sphere frame.

    The bulk-to-sphere rotation sweeps through every angle over the sphere,
    so its spin lift is anchored at the grid nodes; the angle stencil's
    shifted copies of the grid stay near the anchor.
    """

    def fields_and_rotation(theta, phi):
        f = PointFields(data, r * unit_vectors(theta, phi))
        return f, rotation_between_frames(f.g, frame_from=geometry.sphere_frame(data, f), frame_to=f.frame)

    _, anchor = fields_and_rotation(grid.theta, grid.phi)

    def trace(theta, phi):
        f, rotation = fields_and_rotation(theta, phi)
        sigma = anchored_spin_lift(anchor, rotation)
        return np.einsum("mji,...mj->...mi", np.conj(sigma), field.evaluate(f.x))

    return trace


@pytest.mark.parametrize("nu_sign", [1, -1])
@pytest.mark.parametrize("data", [schwarzschild_isotropic(1.0), graph_slice()], ids=["schwarzschild", "graph_slice"])
def test_sphere_gauge_form_matches_bulk_form(data, nu_sign):
    # the paper's D^Sigma - H/2 integrand of a bulk field's sphere-gauge trace
    # differs from the bulk form by a tangential divergence; graph_slice has k != 0 at r = 4.5
    r, order = 4.5, 16
    grid = sphere_grid(order)
    field = random_polynomial_field(np.random.default_rng(5), (3,), degree=2, scale=0.2)
    trace = _sphere_gauge_trace(data, field, r, grid)
    density, hg = boundary_term_density(data, r, grid, trace, nu_sign)
    sigma_form = np.sum(density * (hg.area_element * grid.weights), axis=-1)
    bulk_form = spinor_flux(data, field, r, order, nu_sign=nu_sign)
    assert np.max(np.abs(sigma_form - bulk_form)) <= 1e-8 * np.max(np.abs(bulk_form))


def test_flux_fit_matches_adm():
    data = schwarzschild_isotropic(1.0)
    adm = adm_energy_momentum(data, [50.0, 100.0, 200.0], order=24)
    E_fit, P_fit = flux_fit_energy_momentum(data, 200.0, order=12)
    assert abs(E_fit - adm.E) <= 0.02 * abs(adm.E)
    assert np.max(np.abs(P_fit - adm.P)) <= 0.02 * (abs(adm.E) + 1.0)


# ---------------------------------------------------------------------------
# integrated Weitzenbock identity


def test_lsw_flat_constant():
    flat = minkowski_slice()
    fld = constant_spinor_field(np.array([1.0, 0.5j, -0.25, 0.125]))
    res = lsw_residual(flat, fld, ("ball", 2.0), order=12)
    assert res.bulk == 0.0
    assert abs(res.boundary) < 1e-10
    assert abs(res.residual) < 1e-10


@pytest.mark.parametrize("maker", [schwarzschild_isotropic, lambda m=None: graph_slice()])
def test_lsw_identity_annulus(maker):
    data = maker(1.0) if maker is schwarzschild_isotropic else maker()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(3):
        fld = random_polynomial_field(rng, (), degree=2, scale=0.2)
        res = lsw_residual(data, fld, ("annulus", 3.0, 6.0), order=16)
        worst = max(worst, abs(res.residual) / (abs(res.bulk) + 1.0))
    assert worst <= 1e-6


@pytest.mark.parametrize(
    "data, r_order",
    [(minkowski_slice(), None), (schwarzschild_isotropic(1.0), None), (graph_slice(), 48)],
    ids=["minkowski", "schwarzschild", "graph_slice"],
)
def test_lsw_closes_at_roundoff(data, r_order):
    # every term is analytic, so only the quadrature limits the residual
    fld = random_polynomial_field(np.random.default_rng(1), (3,), degree=2, scale=0.2)
    res = lsw_residual(data, fld, ("annulus", 3.0, 6.0), order=16, r_order=r_order)
    assert np.max(np.abs(res.residual) / (np.abs(res.bulk) + 1.0)) <= 1e-12


def test_lsw_batch_matches_single_spinors():
    data = graph_slice()
    region = ("annulus", 3.0, 6.0)
    batch = random_polynomial_field(np.random.default_rng(8), (3,), degree=2, scale=0.2)
    res = lsw_residual(data, batch, region, order=8, r_order=16)
    rng = np.random.default_rng(8)  # the batch consumes the generator like three draws in a row
    pts = np.array([[4.0, 1.0, -0.5], [3.2, 0.1, 2.0]])
    for k in range(3):
        single = random_polynomial_field(rng, (), degree=2, scale=0.2)
        assert np.array_equal(batch.evaluate(pts)[k], single.evaluate(pts))
        one = lsw_residual(data, single, region, order=8, r_order=16)
        scale = abs(one.bulk) + 1.0
        for name in ("bulk", "boundary", "residual", "dirichlet", "dirac_sq", "matter"):
            assert np.ndim(getattr(one, name)) == 0
            assert abs(getattr(res, name)[k] - getattr(one, name)) <= 1e-13 * scale, name


def test_lsw_identity_synthetic_full_terms():
    # flat metric with k = c x1 delta: mu and J are both nonzero, so every
    # term of the identity is exercised, including the J tau pairing sign
    flat = minkowski_slice()
    cc = 0.3

    def kfun(x):
        return cc * x[:, 0, None, None] * np.broadcast_to(np.eye(3), (x.shape[0], 3, 3))

    def dkfun(x):
        out = np.zeros((x.shape[0], 3, 3, 3))
        out[:, :, :, 0] = np.eye(3)[None] * cc
        return out

    synth = InitialData(
        chart=Chart(0.0, math.inf), g=flat.g, dg=flat.dg,
        k=kfun, dk=dkfun, d2g=flat.d2g, label="synthetic-k",
    )
    rng = np.random.default_rng(4)
    fld = random_polynomial_field(rng, (), degree=2, scale=0.3)
    res = lsw_residual(synth, fld, ("ball", 2.0), order=12)
    assert abs(res.residual) <= 1e-6 * (abs(res.bulk) + 1.0)


def test_lsw_quadrature_order_refinement():
    # the graph-slice bump under-resolves at low radial order, so the
    # residual there is pure quadrature error and must decay spectrally
    data = graph_slice()
    rng = np.random.default_rng(9)
    fld = random_polynomial_field(rng, (), degree=2, scale=0.2)
    coarse = abs(lsw_residual(data, fld, ("ball", 6.0), order=12, r_order=24).residual)
    fine = abs(lsw_residual(data, fld, ("ball", 6.0), order=12, r_order=48).residual)
    assert coarse > 1e-6  # under-resolved on purpose
    assert fine < 1e-2 * coarse


# ---------------------------------------------------------------------------
# one field bundle per point batch, checked against straightforward references


def _synthetic_matter_data():
    """graph_slice's metric with k = 0.3 x1 delta: R, mu and J all nonzero, d2g in closed form."""
    base = graph_slice()

    def kfun(x):
        return 0.3 * x[:, 0, None, None] * np.broadcast_to(np.eye(3), (x.shape[0], 3, 3))

    def dkfun(x):
        out = np.zeros((x.shape[0], 3, 3, 3))
        out[:, :, :, 0] = 0.3 * np.eye(3)[None]
        return out

    # no radial profile: this k is not spherically symmetric, so mu and J come from the 3-D constraint pass
    return dataclasses.replace(base, k=kfun, dk=dkfun, label="graph-metric-synthetic-k", profile=None)


def _reference_constraints(data, pts):
    """mu and J from the full Ricci tensor, with plain einsums on the closures."""
    g, dg, d2g, k, dk = data.g(pts), data.dg(pts), data.d2g(pts), data.k(pts), data.dk(pts)
    ginv = np.linalg.inv(g)
    low = np.einsum("mjli->mlij", dg) + np.einsum("milj->mlij", dg) - np.einsum("mijl->mlij", dg)
    gamma = 0.5 * np.einsum("mkl,mlij->mkij", ginv, low)
    dlow = (np.einsum("mjlin->mlijn", d2g) + np.einsum("miljn->mlijn", d2g)
            - np.einsum("mijln->mlijn", d2g))
    dginv = -np.einsum("mka,mabn,mbl->mkln", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("mkln,mlij->mkijn", dginv, low) + np.einsum("mkl,mlijn->mkijn", ginv, dlow))
    ricci = (np.einsum("mkijk->mij", dgamma) - np.einsum("mkikj->mij", dgamma)
             + np.einsum("mkkl,mlij->mij", gamma, gamma) - np.einsum("mkjl,mlik->mij", gamma, gamma))
    R = np.einsum("mij,mij->m", ginv, ricci)
    trk = np.einsum("mij,mij->m", ginv, k)
    mu = 0.5 * (R + trk**2 - np.einsum("mia,mab,mbj,mji->m", ginv, k, ginv, k))
    pi = k - trk[:, None, None] * g
    dtrk = np.einsum("mab,mabl->ml", ginv, dk) - np.einsum("mac,mcd,mdb,mabl->ml", ginv, k, ginv, dg)
    dpi = dk - np.einsum("ml,mij->mijl", dtrk, g) - trk[:, None, None, None] * dg
    J = (np.einsum("mjl,mjil->mi", ginv, dpi) - np.einsum("mjl,mklj,mki->mi", ginv, gamma, pi)
         - np.einsum("mjl,mkli,mjk->mi", ginv, gamma, pi))
    return R, mu, J


def _reference_polynomial(coeffs, exponents, pts):
    """Values (..., m, I) and Cartesian gradients (..., m, I, n) of a polynomial spinor, term by term."""
    mono = np.prod(pts[:, None, :] ** exponents[None], axis=-1)
    values = np.einsum("...It,mt->...mI", coeffs, mono)
    grads = []
    for i in range(3):
        lowered = np.maximum(exponents - np.eye(3, dtype=int)[i], 0)
        dmono = exponents[:, i] * np.prod(pts[:, None, :] ** lowered[None], axis=-1)
        grads.append(np.einsum("...It,mt->...mI", coeffs, dmono))
    return values, np.stack(grads, axis=-1)


def _reference_sen(data, coeffs, exponents, pts):
    """Sen derivatives (..., m, I, a) from the frame F = L^-1 of the Cholesky factor, term by term."""
    g, dg, k = data.g(pts), data.dg(pts), data.k(pts)
    F = np.linalg.inv(np.linalg.cholesky(g))
    G = np.einsum("mai,mjp,mlq,mpqi->majl", F, F, F, dg)
    phi = np.tril(np.ones((3, 3)), -1) + 0.5 * np.eye(3)
    W = 0.5 * (G + np.einsum("mjla->majl", G) - np.einsum("mlaj->majl", G)) - phi * G
    kf = np.einsum("mai,mij,mbj->mab", F, k, F)
    gg = np.einsum("jIK,lKL->jlIL", GAMMA, GAMMA)
    gt = np.einsum("jIK,KL->jIL", GAMMA, TAU)
    c, grad = _reference_polynomial(coeffs, exponents, pts)
    return c, (np.einsum("...mIi,mai->...mIa", grad, F)
               + 0.25 * np.einsum("majl,jlIK,...mK->...mIa", W, gg, c)
               + 0.5 * np.einsum("maj,jIK,...mK->...mIa", kf, gt, c))


def _batched_polynomial(seed):
    exponents = np.array([(a, b, t - a - b) for t in range(3) for a in range(t + 1) for b in range(t - a + 1)])
    z = np.random.default_rng(seed).normal(size=(2, 3, DIM, len(exponents)))
    coeffs = (z[0] + 1j * z[1]) * 0.2 ** exponents.sum(axis=1)
    return coeffs, exponents, polynomial_spinor_field(coeffs, exponents)


def test_constraint_fields_match_full_ricci_reference():
    data = _synthetic_matter_data()
    pts, _ = volume_quadrature(("annulus", 3.0, 6.0), 8, 8)
    R, mu, J = _reference_constraints(data, pts)
    cons = constraint_fields(data, pts)
    assert np.max(np.abs(R)) > 1e-3 and np.max(np.abs(J)) > 1e-3
    assert np.max(np.abs(scalar_curvature(data, pts) - R)) <= 1e-13 * np.max(np.abs(R))
    assert np.max(np.abs(cons.mu - mu)) <= 1e-13 * np.max(np.abs(mu))
    assert np.max(np.abs(cons.J - J)) <= 1e-13 * np.max(np.abs(J))


def test_sen_derivatives_match_reference_on_a_batch():
    data = _synthetic_matter_data()
    coeffs, exponents, fld = _batched_polynomial(21)
    pts, _ = volume_quadrature(("annulus", 3.0, 6.0), 8, 8)
    _, ref = _reference_sen(data, coeffs, exponents, pts)
    sen = sen_derivatives(data, fld, pts)
    assert sen.shape == ref.shape == (3, pts.shape[0], DIM, 3)
    assert np.max(np.abs(sen - ref)) <= 1e-13 * np.max(np.abs(ref))
    dw = np.einsum("aIK,...mKa->...mI", GAMMA, ref)
    assert np.max(np.abs(dirac_witten_apply(data, fld, pts) - dw)) <= 1e-13 * np.max(np.abs(dw))


def test_lsw_bulk_terms_match_reference_on_a_batch():
    data = _synthetic_matter_data()
    coeffs, exponents, fld = _batched_polynomial(22)
    region = ("annulus", 3.0, 6.0)
    res = lsw_residual(data, fld, region, order=8)
    pts, w = volume_quadrature(region, 24, 8)
    dV = np.sqrt(np.linalg.det(data.g(pts))) * w
    _, mu, J = _reference_constraints(data, pts)
    c, sen = _reference_sen(data, coeffs, exponents, pts)
    F = np.linalg.inv(np.linalg.cholesky(data.g(pts)))
    jtau = np.einsum("mi,mai,aIK,KL,...mL->...mI", J, F, GAMMA, TAU, c)
    matter = 0.5 * np.sum((mu * np.sum(np.abs(c) ** 2, axis=-1) + np.einsum("...mI,...mI->...m", np.conj(c), jtau).real)
                          * dV, axis=-1)
    dirichlet = np.sum(np.sum(np.abs(sen) ** 2, axis=(-2, -1)) * dV, axis=-1)
    dw = np.einsum("aIK,...mKa->...mI", GAMMA, sen)
    dirac_sq = np.sum(np.sum(np.abs(dw) ** 2, axis=-1) * dV, axis=-1)
    for name, ref in (("dirichlet", dirichlet), ("dirac_sq", dirac_sq), ("matter", matter),
                      ("bulk", dirichlet - dirac_sq + matter)):
        assert np.max(np.abs(getattr(res, name) - ref)) <= 1e-13 * np.max(np.abs(dirichlet)), name
    assert np.max(np.abs(matter)) > 1e-3
    assert np.array_equal(res.residual, res.bulk - res.boundary)


def _volume_evaluations(monkeypatch, data):
    """Run lsw_residual on data with counted closures: the volume blocks' sizes and nodes, and per field (and
    for the bulk frame) the batches evaluated on the volume nodes."""
    calls = []

    def counted(name, fn):
        def closure(x):
            calls.append((name, np.array(x)))
            return fn(x)

        return closure

    data = dataclasses.replace(data, **{f: counted(f, getattr(data, f)) for f in ("g", "dg", "k", "dk", "d2g")})
    original = geometry.bulk_frame

    def counted_frame(d, x):
        calls.append(("frame", np.array(getattr(x, "x", x))))
        return original(d, x)

    # every module that bound bulk_frame by name calls through the counter
    for module in [m for name, m in sys.modules.items() if name.startswith("creaselab")]:
        if getattr(module, "bulk_frame", None) is original:
            monkeypatch.setattr(module, "bulk_frame", counted_frame)
    region = ("annulus", 3.5, 6.5)
    nodes = volume_quadrature(region, 20, 8)[0]
    size = geometry.BLOCK_NODES
    blocks = [min(size, len(nodes) - start) for start in range(0, len(nodes), size)]
    assert len(blocks) == 3 and blocks[-1] < size  # two full blocks and a partial one
    lsw_residual(data, random_polynomial_field(np.random.default_rng(3), (2,), degree=2), region,
                 order=8, r_order=20)

    # the boundary fluxes' sphere nodes lie on the annulus edges, the volume nodes inside
    on_volume = [(n, x) for n, x in calls if np.all(np.abs(np.linalg.norm(x, axis=1) - 5.0) < 1.5 - 1e-9)]
    names = ("g", "dg", "k", "dk", "d2g", "frame")
    return blocks, nodes, {name: [x for n, x in on_volume if n == name] for name in names}


def test_lsw_evaluates_each_field_once_on_the_volume_nodes(monkeypatch):
    # with a profile, mu and J are closed forms of |x|: dk and d2g, which only the constraint pass reads, never run
    blocks, nodes, batches = _volume_evaluations(monkeypatch, miao_corner(1.0, 3.0).plus)
    for name in ("g", "dg", "k", "frame"):
        assert [len(x) for x in batches[name]] == blocks, name
        assert np.array_equal(np.concatenate(batches[name]), nodes), name
    assert batches["dk"] == [] and batches["d2g"] == []


def test_lsw_evaluates_each_field_once_without_a_profile(monkeypatch):
    blocks, nodes, batches = _volume_evaluations(monkeypatch, dataclasses.replace(miao_corner(1.0, 3.0).plus,
                                                                                   profile=None))
    for name, found in batches.items():
        assert [len(x) for x in found] == blocks, name
        assert np.array_equal(np.concatenate(found), nodes), name


@pytest.mark.parametrize("region", [("annulus", 1.0, 2.5), ("ball", 2.0)], ids=["annulus", "ball"])
def test_lsw_matter_term_from_the_profile_matches_the_constraint_pass(region):
    # spherically symmetric data with mu and J != 0: the profile's closed forms against the 3-D pass on the same nodes
    data = matter_ball()
    fld = random_polynomial_field(np.random.default_rng(12), (3,), degree=2, scale=0.3)
    closed = lsw_residual(data, fld, region, order=16)
    full = lsw_residual(dataclasses.replace(data, profile=None), fld, region, order=16)
    assert np.min(np.abs(full.matter)) > 1e-2
    assert np.max(np.abs(closed.matter - full.matter) / np.abs(full.matter)) <= 1e-13
    for name in ("dirichlet", "dirac_sq", "boundary"):
        assert np.array_equal(getattr(closed, name), getattr(full, name)), name
    assert np.max(np.abs(closed.residual) / (np.abs(closed.bulk) + 1.0)) <= 1e-12


@pytest.mark.parametrize("data", [graph_slice(), miao_corner(1.0, 3.0).plus], ids=["graph_slice", "miao_corner.plus"])
def test_lsw_terms_agree_with_a_single_block(monkeypatch, data):
    region = ("annulus", 3.5, 6.5)
    assert volume_quadrature(region, 24, 12)[0].shape[0] > 6 * geometry.BLOCK_NODES
    fld = random_polynomial_field(np.random.default_rng(6), (3,), degree=2, scale=0.2)
    blocked = lsw_residual(data, fld, region, order=12)
    monkeypatch.setattr(geometry, "BLOCK_NODES", 10**9)
    whole = lsw_residual(data, fld, region, order=12)
    # only the summation order differs, so each term agrees to roundoff of the summed magnitudes:
    # dirichlet and dirac_sq (both sums of positive densities) can exceed their difference, bulk, 1000-fold
    scale = np.abs(whole.dirichlet) + np.abs(whole.dirac_sq) + 1.0
    for name in ("bulk", "boundary", "residual", "dirichlet", "dirac_sq", "matter"):
        assert np.all(np.abs(getattr(blocked, name) - getattr(whole, name)) <= 1e-13 * scale), name
    assert np.array_equal(blocked.boundary, whole.boundary)


def test_lsw_working_set_does_not_grow_with_the_radial_order():
    data = miao_corner(1.0, 3.0).plus
    fld = random_polynomial_field(np.random.default_rng(2), (3,), degree=2, scale=0.2)

    def peak(r_order):
        tracemalloc.start()
        try:
            lsw_residual(data, fld, ("annulus", 3.5, 6.5), order=16, r_order=r_order)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(24)  # fills the module caches (sphere grid, Clifford products) before anything is compared
    assert peak(96) <= 1.25 * peak(24)


def _record_calls(monkeypatch, module, name):
    """Argument tuples of every call to module.name, through each module that bound it by name."""
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in [m for key, m in sys.modules.items() if key.startswith("creaselab")]:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, recorded)
    return calls


def test_witten_flux_builds_no_sphere_frame_or_hypersurface_geometry(monkeypatch):
    frames = _record_calls(monkeypatch, geometry, "sphere_frame")
    geometries = _record_calls(monkeypatch, geometry, "hypersurface_geometry")
    witten_flux(schwarzschild_isotropic(1.0), np.eye(DIM, dtype=complex), 20.0, order=12)
    # the bulk-form flux reads the outward normal and the area element alone
    assert frames == [] and geometries == []


def test_boundary_density_builds_one_sphere_frame_per_side(monkeypatch):
    frames = _record_calls(monkeypatch, geometry, "sphere_frame")
    mc = miao_corner(1.0, 4.0)
    grid = sphere_grid(8)
    traces = []

    def trace(theta, phi):
        traces.append(len(theta))
        return np.ones((np.shape(theta)[0], DIM), dtype=complex)

    boundary_term_density(mc.minus, mc.r0, grid, trace, 1)
    # the fields are read on the grid nodes only; the angle stencils shift the trace alone
    assert len(frames) == 1
    assert traces == [grid.size] * 9


def test_crease_terms_read_the_bartnik_data_from_the_densities(monkeypatch):
    geometries = _record_calls(monkeypatch, geometry, "hypersurface_geometry")
    sampled = _record_calls(monkeypatch, bartnik, "bartnik_from_data")
    mc = miao_corner(1.0, 4.0)
    crease_boundary_terms(mc, lambda th, ph: np.ones((np.shape(th)[0], DIM), dtype=complex), order=8)
    assert [args[0] for args in geometries] == [mc.minus, mc.plus]
    assert sampled == []

