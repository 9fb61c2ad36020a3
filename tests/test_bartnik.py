import dataclasses
import math

import numpy as np
import pytest

from creaselab.bartnik import (
    BartnikError,
    angle_gradient_frame,
    bartnik_from_data,
    beta_delta,
    crease_margin,
    crease_report_for,
    equivalence_angle,
    nodal_angle,
    rotated_components,
    spacelike_form_check,
)
from creaselab.catalog import miao_corner, trivial_crease
from creaselab.geometry import BartnikData, CreaseAngle, hypersurface_geometry
from creaselab.spheregrid import sphere_grid, surface_gradient, unit_vectors

MIAO_MARGIN = 0.5 * (1.0 - math.sqrt(0.5))


def rotate_bartnik(B: BartnikData, angle: CreaseAngle) -> BartnikData:
    """Equivalent Bartnik data after the gauge rotation by `angle` (beta -> beta + df)."""
    nu_c, tau_c = rotated_components(B, angle.value(B.omega))
    return dataclasses.replace(B, H=nu_c, trk=tau_c, beta=B.beta + angle_gradient_frame(angle, B))


@pytest.fixture(scope="module")
def miao_pair():
    mc = miao_corner(1.0, 4.0)
    bm = bartnik_from_data(mc.minus, mc.r0, order=16)
    bp = bartnik_from_data(mc.plus, mc.r0, order=16)
    return mc, bm, bp


def test_rotated_components_identity(miao_pair):
    _, bm, _ = miao_pair
    nu, tau = rotated_components(bm, np.zeros(len(bm.H)))
    assert np.allclose(nu, bm.H) and np.allclose(tau, bm.trk)


def test_rotated_components_log2(miao_pair):
    _, bm, _ = miao_pair
    # H = 0.5, trk = 0 on the flat side of the corner
    nu, tau = rotated_components(bm, np.full(len(bm.H), math.log(2.0)))
    assert np.allclose(nu, 0.625, atol=1e-12)
    assert np.allclose(tau, 0.375, atol=1e-12)


def test_rotation_preserves_causal_length(miao_pair):
    _, bm, _ = miao_pair
    rng = np.random.default_rng(2)
    f = rng.normal(size=len(bm.H))
    nu, tau = rotated_components(bm, f)
    assert np.max(np.abs(nu**2 - tau**2 - (bm.H**2 - bm.trk**2))) < 1e-12


def test_beta_delta_trivial_and_gradient():
    tc = trivial_crease(2.0)
    grid = sphere_grid(12)
    bm = bartnik_from_data(tc.minus, 2.0, order=12)
    bp = bartnik_from_data(tc.plus, 2.0, order=12)
    assert np.max(np.abs(beta_delta(bm, bp, nodal_angle(grid, np.full(grid.size, 0.7))))) < 1e-14  # constant f

    ang = CreaseAngle.cos_theta(0.1)
    bd = beta_delta(bm, bp, ang)
    expect = 0.1 * np.abs(np.sin(grid.theta)) / 2.0
    assert np.max(np.abs(np.linalg.norm(bd, axis=1) - expect)) < 1e-13

    # the spectral gradient of the nodal values agrees with the analytic gradient
    spectral = nodal_angle(grid, ang.value(grid.nodes))
    assert np.max(np.abs(beta_delta(bm, bp, spectral) - bd)) < 1e-12


@pytest.mark.parametrize("order, bound", [(4, 1e-12), (16, 1e-12), (32, 1e-11), (64, 1e-9)])
def test_surface_gradient_closed_forms(order, bound):
    # s = omega . a has tangential gradient a - s omega; s^L is the grid's band limit, e^s is not band-limited
    grid = sphere_grid(order)
    a = np.array([0.3, -0.5, 0.8]) / np.sqrt(0.98)
    s = grid.nodes @ a
    tangent = a - s[:, None] * grid.nodes
    L = grid.ntheta - 2
    cases = [(s, tangent), (s**L, L * s[:, None] ** (L - 1) * tangent)]
    if order >= 16:
        cases.append((np.exp(s), np.exp(s)[:, None] * tangent))
    for values, want in cases:
        assert np.max(np.abs(surface_gradient(grid, values) - want)) <= bound * np.max(np.abs(want))


def test_beta_delta_grid_mismatch(miao_pair):
    _, bm, _ = miao_pair
    tc = trivial_crease(2.0)
    other = bartnik_from_data(tc.plus, 2.0, order=16)
    with pytest.raises(BartnikError):
        beta_delta(bm, other, CreaseAngle.from_constant(0.0))


def test_crease_margin_identical_data():
    tc = trivial_crease(1.5)
    rep = crease_report_for(tc, order=12)
    assert np.max(np.abs(rep.margin)) < 1e-13
    assert rep.dec_creased


def test_miao_corner_margin_closed_form(miao_pair):
    mc, _, _ = miao_pair
    rep = crease_report_for(mc, order=16)
    assert rep.min_margin == pytest.approx(MIAO_MARGIN, abs=1e-9)
    assert np.max(np.abs(rep.margin - MIAO_MARGIN)) < 1e-12  # constant over the sphere
    assert rep.dec_creased


def test_negative_mass_corner_fails():
    rep = crease_report_for(miao_corner(-0.2, 4.0), order=12)
    assert rep.min_margin < 0.0
    assert not rep.dec_creased


def test_margin_gauge_invariance(miao_pair):
    _, bm, bp = miao_pair
    grid = sphere_grid(16)
    ang = CreaseAngle.cos_theta(0.2)
    f = ang.value(grid.nodes)
    rep1 = crease_margin(bm, bp, ang)
    rep2 = crease_margin(rotate_bartnik(bm, CreaseAngle.from_constant(0.35)), bp, nodal_angle(grid, f - 0.35))
    assert np.max(np.abs(rep1.margin - rep2.margin)) < 1e-11


@pytest.mark.parametrize("angle", [CreaseAngle.from_constant(0.0), CreaseAngle.cos_theta(0.3)], ids=["constant", "cos_theta"])
def test_argmin_node_is_stable_under_roundoff_noise(miao_pair, angle):
    # the constant angle gives 288 margins equal up to roundoff, cos(theta) a ring of equal minima:
    # noise of 1e-15 in H must not move the reported node
    _, bm, bp = miao_pair
    clean = crease_margin(bm, bp, angle).argmin_node
    rng = np.random.default_rng(11)
    for _ in range(4):
        noisy = dataclasses.replace(bp, H=bp.H + 1e-15 * rng.normal(size=len(bp.H)))
        assert crease_margin(bm, noisy, angle).argmin_node == clean
    if angle.constant is not None:
        assert clean == 0


def test_flat_corner_margin_is_mean_curvature_jump(miao_pair):
    mc, bm, bp = miao_pair
    rep = crease_margin(bm, bp, CreaseAngle.from_constant(0.0))
    assert np.allclose(rep.margin, bm.H - bp.H, atol=1e-13)


def test_spacelike_form_agreement(miao_pair):
    mc, _, _ = miao_pair
    rep = crease_report_for(mc, order=16)
    cond = spacelike_form_check(rep)
    assert np.all(cond)
    rep_neg = crease_report_for(miao_corner(-0.2, 4.0), order=12)
    cond_neg = spacelike_form_check(rep_neg)
    assert not np.all(cond_neg)


def test_formulation_equivalence_random_triples():
    rng = np.random.default_rng(42)
    nu, tau, bd = rng.normal(size=(3, 1000))
    bd = np.abs(bd)
    margin = nu - np.sqrt(tau**2 + bd**2)
    cond = (nu >= np.abs(tau)) & (nu**2 - tau**2 >= bd**2)
    assert np.array_equal(margin >= 0.0, cond)


def test_boundary_case_equality():
    # nu = |tau|, beta-delta = 0: both formulations mark the equality case
    nu, tau, bd = 0.7, -0.7, 0.0
    margin = nu - math.sqrt(tau**2 + bd**2)
    cond = (nu >= abs(tau)) and (nu**2 - tau**2 >= bd**2)
    assert margin == 0.0 and cond


def test_equivalence_angle_roundtrip(miao_pair):
    _, bm, _ = miao_pair
    grid = sphere_grid(16)
    assert np.max(np.abs(equivalence_angle(grid, bm, bm).value(grid.nodes))) < 1e-12

    ang = CreaseAngle.cos_theta(0.3)
    rotated = rotate_bartnik(bm, ang)
    f = equivalence_angle(grid, bm, rotated)
    assert f is not None
    assert np.max(np.abs(f.value(grid.nodes) - ang.value(grid.nodes))) < 1e-10


def test_equivalence_angle_obstruction(miao_pair):
    import dataclasses

    _, bm, _ = miao_pair
    rotated = rotate_bartnik(bm, CreaseAngle.from_constant(0.3))
    bad = dataclasses.replace(rotated, H=rotated.H * 1.01)
    assert equivalence_angle(sphere_grid(16), bm, bad) is None


def test_equivalence_angle_null_error(miao_pair):
    import dataclasses

    _, bm, _ = miao_pair
    null = dataclasses.replace(bm, trk=bm.H.copy())  # H^2 - trk^2 = 0
    with pytest.raises(BartnikError):
        equivalence_angle(sphere_grid(16), null, null)


def test_beta_delta_side_swap_antisymmetry(miao_pair):
    _, bm, bp = miao_pair
    grid = sphere_grid(16)
    f = CreaseAngle.cos_theta(0.15).value(grid.nodes)
    forward = beta_delta(bm, bp, nodal_angle(grid, f))
    backward = beta_delta(bp, bm, nodal_angle(grid, -f))
    assert np.max(np.abs(forward + backward)) < 1e-12


def test_crease_margin_at_off_grid_unit_vectors_is_the_closed_form():
    # 50 unit vectors on the meridian phi = 0.3, none a grid node: flat inside, Schwarzschild outside,
    # f = a cos(theta), so nu = (2/r0)(cosh f - sqrt(1 - 2m/r0)), tau = (2/r0) sinh f and |beta^Delta| = a sin(theta)/r0
    m, r0, a = 1.0, 3.0, 0.3
    mc = miao_corner(m, r0)
    theta = np.linspace(1e-3, math.pi - 1e-3, 50)
    omega = unit_vectors(theta, np.full_like(theta, 0.3))
    bm, bp = (hypersurface_geometry(d, r0, omega) for d in (mc.minus, mc.plus))
    rep = crease_margin(bm, bp, CreaseAngle.cos_theta(a))
    f = a * np.cos(theta)
    want = (2.0 / r0) * (np.cosh(f) - math.sqrt(1.0 - 2.0 * m / r0)) - np.sqrt(
        (2.0 / r0) ** 2 * np.sinh(f) ** 2 + (a * np.sin(theta) / r0) ** 2
    )
    assert rep.scale == pytest.approx(2.0 / r0, rel=1e-14)
    assert np.max(np.abs(rep.margin - want)) <= 1e-13 * rep.scale


def test_crease_margin_rejects_records_at_different_points():
    mc = miao_corner(1.0, 3.0)
    omega = sphere_grid(8).nodes
    shifted = omega.copy()
    shifted[5, 2] += 1e-12
    bm, bp = hypersurface_geometry(mc.minus, mc.r0, omega), hypersurface_geometry(mc.plus, mc.r0, shifted)
    with pytest.raises(BartnikError, match="different points"):
        crease_margin(bm, bp, CreaseAngle.from_constant(0.0))


def test_nodal_angle_exists_at_its_grid_nodes_only():
    grid = sphere_grid(8)
    angle = nodal_angle(grid, CreaseAngle.cos_theta(0.2).value(grid.nodes))
    assert angle.value(grid.nodes.copy()).shape == (grid.size,)
    for omega in (sphere_grid(10).nodes, grid.nodes[:-1], grid.nodes + 1e-15):
        for evaluate in (angle.value, angle.surface_gradient):
            with pytest.raises(BartnikError, match="grid's nodes only"):
                evaluate(omega)
    with pytest.raises(BartnikError, match="do not match the grid"):
        nodal_angle(grid, np.zeros(grid.size - 1))
