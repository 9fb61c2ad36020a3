import dataclasses
import math

import numpy as np
import pytest

from creaselab.catalog import (
    _radial_data,
    _validate_positive_definite,
    build,
    check_spec,
    flat_ball,
    graph_slice,
    miao_corner,
    minkowski_slice,
    schwarzschild_exterior_area_radius,
    schwarzschild_isotropic,
    trivial_crease,
)
from creaselab.geometry import (
    SPHERE_AREA,
    Chart,
    GeometryError,
    InitialData,
    as_fields,
    bulk_frame,
    constraint_fields,
    hypersurface_geometry,
    matter_densities,
    scalar_curvature,
    second_metric_derivative,
    sphere_area_element,
    sphere_frame,
)
from creaselab.integrals import volume_quadrature
from creaselab.spheregrid import sphere_grid, theta_phi_tangents


def sample_points(rng, m, rlo, rhi):
    xs = rng.normal(size=(m, 3))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    return xs * rng.uniform(rlo, rhi, size=m)[:, None]


def matter_ball() -> InitialData:
    """Smooth spherically symmetric data with matter (mu != 0, J != 0) on all of R^3, built like a catalog model:
    g = u delta + v P with u = 1 + a sin^2(pi r / 3), so B = 1 on r = 3, v = b r^2 exp(-r^2), and
    k = k_u delta + k_v P with k_u = c exp(-r^2/2), k_v = d r^2 exp(-r^2/2)."""
    a, b, c, d, w = 0.4, 0.5, 0.3, 0.2, 2.0 * math.pi / 3.0

    def metric_uv(r):
        e, s, co = np.exp(-(r**2)), np.sin(w * r), np.cos(w * r)
        u, du, d2u = 1.0 + 0.5 * a * (1.0 - co), 0.5 * a * w * s, 0.5 * a * w**2 * co
        return u, du, d2u, b * r**2 * e, b * e * (2.0 * r - 2.0 * r**3), b * e * (2.0 - 10.0 * r**2 + 4.0 * r**4)

    def curv_uv(r):
        e = np.exp(-0.5 * r**2)
        return c * e, -c * r * e, d * r**2 * e, d * e * (2.0 * r - r**3)

    return _radial_data(Chart(0.0, math.inf), "matter_ball", metric_uv, curv_uv)


def test_unit_sphere_volume():
    # the unit 2-sphere's area 2 pi^(3/2) / Gamma(3/2), to the bit
    assert SPHERE_AREA == 2.0 * math.pi**1.5 / math.gamma(1.5) == pytest.approx(4.0 * math.pi, rel=1e-15)


def test_catalog_dispatch_and_errors():
    assert build({"name": "minkowski_slice"}).label == "minkowski_slice"
    assert build({"name": "miao_corner", "params": {"m": 1.0, "rho0": 4.0}}).r0 == 4.0
    with pytest.raises(GeometryError):
        check_spec({"name": "no_such_model"})
    # well-formed specs whose values only the model refuses: a horizon inside the gluing sphere, a slope above 1
    for spec in ({"name": "miao_corner", "params": {"m": 3.0, "rho0": 4.0}},
                 {"name": "graph_slice", "params": {"amplitude": 1.5}}):
        check_spec(spec)
        with pytest.raises(GeometryError):
            build(spec)


def test_minkowski_constraints_zero():
    flat = minkowski_slice()
    rng = np.random.default_rng(1)
    pts = sample_points(rng, 25, 0.5, 10.0)
    c = constraint_fields(flat, pts)
    assert np.max(np.abs(c.mu)) == 0.0
    assert np.max(np.abs(c.J)) == 0.0


@pytest.mark.parametrize(
    "maker,rlo,rhi",
    [
        (lambda: schwarzschild_isotropic(1.0), 2.0, 12.0),
        (lambda: schwarzschild_exterior_area_radius(1.0), 3.0, 12.0),
        (lambda: graph_slice(), 1.0, 9.0),
    ],
)
def test_vacuum_constraint_residuals(maker, rlo, rhi):
    data = maker()
    rng = np.random.default_rng(7)
    pts = sample_points(rng, 100, rlo, rhi)
    c = constraint_fields(data, pts)
    assert np.max(np.abs(c.mu)) < 1e-6
    assert np.max(c.momentum_norm(data, pts)) < 1e-6
    # graph slices are vacuum Minkowski slices: mu >= |J| holds within noise
    assert np.all(c.mu >= c.momentum_norm(data, pts) - 1e-7)


# every catalog model with the radii of its chart to sample (interior points only)
CATALOG_SIDES = [
    ("minkowski_slice", lambda: minkowski_slice(), 0.5, 10.0),
    ("schwarzschild_isotropic", lambda: schwarzschild_isotropic(1.0), 1.0, 12.0),
    ("schwarzschild_exterior_area_radius", lambda: schwarzschild_exterior_area_radius(1.0), 3.0, 12.0),
    # m != 1, so that a closed form confusing m with 1/m shows
    ("schwarzschild_exterior_area_radius(0.6)", lambda: schwarzschild_exterior_area_radius(0.6), 1.8, 12.0),
    ("flat_ball", lambda: flat_ball(3.0), 0.5, 2.8),
    ("miao_corner.minus", lambda: miao_corner(1.0, 3.0).minus, 0.5, 2.8),
    ("miao_corner.plus", lambda: miao_corner(1.0, 3.0).plus, 3.2, 12.0),
    ("trivial_crease.minus", lambda: trivial_crease(2.0).minus, 0.5, 1.8),
    ("trivial_crease.plus", lambda: trivial_crease(2.0).plus, 2.2, 8.0),
    ("graph_slice", lambda: graph_slice(), 1.0, 9.0),
    ("graph_slice(0.3, 4.2, 0.8)", lambda: graph_slice(0.3, 4.2, 0.8), 2.0, 7.0),
]


@pytest.mark.parametrize("name,maker,rlo,rhi", CATALOG_SIDES, ids=[c[0] for c in CATALOG_SIDES])
def test_closed_form_d2g_matches_finite_differences(name, maker, rlo, rhi):
    data = maker()
    assert data.d2g is not None
    pts = sample_points(np.random.default_rng(17), 60, rlo, rhi)
    d2g = data.d2g(pts)
    assert d2g.shape == (60, 3, 3, 3, 3)
    roundoff = 1e-15 * (np.max(np.abs(d2g)) + 1.0)
    assert np.max(np.abs(d2g - np.swapaxes(d2g, 1, 2))) < roundoff  # symmetric in i, j
    assert np.max(np.abs(d2g - np.swapaxes(d2g, 3, 4))) < roundoff  # and in l, m
    fd = second_metric_derivative(data, pts)
    assert np.max(np.abs(d2g - fd)) <= 1e-8 * np.max(np.abs(d2g))


@pytest.mark.parametrize("name,maker,rlo,rhi", CATALOG_SIDES, ids=[c[0] for c in CATALOG_SIDES])
def test_closed_form_dk_matches_finite_differences(name, maker, rlo, rhi):
    data = maker()
    pts = sample_points(np.random.default_rng(19), 60, rlo, rhi)
    dk = data.dk(pts)
    assert dk.shape == (60, 3, 3, 3)
    h = 1e-5 * np.maximum(1.0, np.linalg.norm(pts, axis=1))
    fd = np.empty_like(dk)
    for m in range(3):
        dx = np.zeros_like(pts)
        dx[:, m] = h
        fd[..., m] = (data.k(pts + dx) - data.k(pts - dx)) / (2.0 * h)[:, None, None]
    assert np.max(np.abs(dk - fd)) <= 1e-8 * np.max(np.abs(dk))


@pytest.mark.parametrize("name,maker,rlo,rhi", CATALOG_SIDES, ids=[c[0] for c in CATALOG_SIDES])
def test_radial_profile_matches_the_fields_on_an_axis(name, maker, rlo, rhi):
    """The profile derived from the radial functions is what g, dg, d2g, k and dk give at x = r e_3:
    A^2 = g_33, B^2 = g_11, 2 A A' = d_3 g_33, 2 B B' = d_3 g_11, 2 (B B'' + B'^2) = d_3 d_3 g_11,
    kappa_n A^2 = k_33, kappa_t B^2 = k_11, kappa_t' B^2 + 2 kappa_t B B' = d_3 k_11."""
    data = maker()
    r = np.linspace(rlo, rhi, 23)
    x = r[:, None] * np.array([0.0, 0.0, 1.0])
    p, g, dg, d2g, k, dk = data.profile(r), data.g(x), data.dg(x), data.d2g(x), data.k(x), data.dk(x)
    assert np.array_equal(p.r, r)
    for have, want in (
        (p.A**2, g[:, 2, 2]), (p.B**2, g[:, 0, 0]),
        (2.0 * p.A * p.dA, dg[:, 2, 2, 2]), (2.0 * p.B * p.dB, dg[:, 0, 0, 2]),
        (2.0 * (p.B * p.d2B + p.dB**2), d2g[:, 0, 0, 2, 2]),
        (p.kappa_n * p.A**2, k[:, 2, 2]), (p.kappa_t * p.B**2, k[:, 0, 0]),
        (p.dkappa_t * p.B**2 + 2.0 * p.kappa_t * p.B * p.dB, dk[:, 0, 0, 2]),
    ):
        assert np.max(np.abs(have - want) / (1.0 + np.abs(want))) <= 1e-14


@pytest.mark.parametrize(
    "maker",
    [minkowski_slice, lambda: schwarzschild_isotropic(1.0), lambda: schwarzschild_exterior_area_radius(1.0),
     lambda: graph_slice(0.4, 4.5, 1.0), lambda: graph_slice(0.9, 4.5, 0.5), matter_ball],
    ids=["minkowski_slice", "schwarzschild_isotropic", "schwarzschild_exterior_area_radius",
         "graph_slice(0.4, 4.5, 1)", "graph_slice(0.9, 4.5, 0.5)", "matter_ball"],
)
def test_matter_densities_match_the_constraint_fields(maker):
    """The closed-form mu and J.nu of the profile are `constraint_fields` of the 3-D fields: on the x-axis
    mu and J_x / A, in random directions mu and |J.nu| = |J|, J being radial."""
    data = maker()
    r = np.geomspace(max(0.05, data.chart.r_min), 50.0, 300)
    p = data.profile(r)
    mu, jn = matter_densities(p)
    axis = r[:, None] * np.array([1.0, 0.0, 0.0])
    on_axis = constraint_fields(data, axis)
    om = sample_points(np.random.default_rng(5), len(r), 1.0, 1.0)
    anywhere = constraint_fields(data, r[:, None] * om)
    for have, want in ((mu, on_axis.mu), (jn, on_axis.J[:, 0] / p.A), (mu, anywhere.mu),
                       (np.abs(jn), anywhere.momentum_norm(data, r[:, None] * om))):
        assert np.max(np.abs(have - want)) <= 1e-12
    if maker is matter_ball:
        assert np.max(np.abs(mu)) > 0.1 and np.max(np.abs(jn)) > 0.1  # the model has matter to compare


def test_scalar_curvature_of_conformally_flat_metric():
    # g = phi^4 delta has R = -8 phi^-5 Laplacian(phi); this phi is not spherically symmetric
    a = np.array([0.05, -0.02, 0.03])
    eye = np.eye(3)

    def phi(x):
        return 1.0 + 0.1 * np.sum(x**2, axis=-1) + x @ a

    def dg(x):
        return (4.0 * phi(x) ** 3)[:, None, None, None] * eye[None, :, :, None] * (0.2 * x + a)[:, None, None, :]

    def d2g(x):
        p, dp = phi(x), 0.2 * x + a
        hess = 12.0 * (p**2)[:, None, None] * dp[:, :, None] * dp[:, None, :] + 0.8 * (p**3)[:, None, None] * eye
        return eye[None, :, :, None, None] * hess[:, None, None, :, :]

    zero = minkowski_slice()
    data = InitialData(
        chart=Chart(0.0, math.inf), g=lambda x: (phi(x) ** 4)[:, None, None] * eye,
        k=zero.k, dg=dg, dk=zero.dk, d2g=d2g, label="conformally-flat",
    )
    pts = sample_points(np.random.default_rng(21), 30, 0.5, 3.0)
    expected = -8.0 * 0.6 / phi(pts) ** 5
    assert np.max(np.abs(scalar_curvature(data, pts) - expected)) < 1e-12
    # the finite-difference oracle as d2g: the formula itself, apart from the closed form
    oracle = dataclasses.replace(data, d2g=lambda x: second_metric_derivative(data, x))
    assert np.max(np.abs(scalar_curvature(oracle, pts) - expected)) < 1e-7


def test_constraints_match_finite_difference_d2g_oracle():
    # the closed-form d2g against central differences of dg, through the constraints
    data = schwarzschild_isotropic(1.0)
    oracle = dataclasses.replace(data, d2g=lambda x: second_metric_derivative(data, x))
    pts = sample_points(np.random.default_rng(8), 40, 2.0, 10.0)
    assert np.max(np.abs(scalar_curvature(data, pts) - scalar_curvature(oracle, pts))) < 1e-8
    exact, approx = constraint_fields(data, pts), constraint_fields(oracle, pts)
    assert np.max(np.abs(exact.mu - approx.mu)) < 1e-8
    assert np.max(np.abs(exact.J - approx.J)) == 0.0  # J never needs second derivatives


@pytest.mark.parametrize(
    "maker",
    [minkowski_slice, lambda: schwarzschild_isotropic(1.0), lambda: schwarzschild_exterior_area_radius(1.0),
     graph_slice],
    ids=["minkowski_slice", "schwarzschild_isotropic", "schwarzschild_exterior_area_radius", "graph_slice"],
)
def test_vacuum_constraints_at_lsw_nodes_are_roundoff(maker):
    # the volume nodes `identities` integrates over: annulus [a, a + 3], radial order 24, sphere order 16
    data = maker()
    a = max(3.0, data.chart.r_min + 0.5)
    pts, _ = volume_quadrature(("annulus", a, a + 3.0), 24, 16)
    c = constraint_fields(data, pts)
    assert np.max(np.abs(c.mu)) <= 1e-13
    assert np.max(c.momentum_norm(data, pts)) <= 1e-13


def test_schwarzschild_isotropic_point_example():
    data = schwarzschild_isotropic(1.0)
    c = constraint_fields(data, np.array([[3.0, 0.0, 0.0]]))  # a batch of one point
    assert c.mu.shape == (1,) and c.J.shape == (1, 3)
    assert abs(c.mu[0]) < 1e-7
    assert float(np.max(np.abs(c.J))) < 1e-7
    with pytest.raises(GeometryError):
        constraint_fields(data, np.array([3.0, 0.0, 0.0]))  # a bare point is not a batch


def test_constraints_out_of_domain():
    mc = miao_corner(1.0, 4.0)
    with pytest.raises(GeometryError):
        constraint_fields(mc.plus, np.array([[3.9, 0.0, 0.0]]))  # the plus chart starts at r = 4
    # every field the constraints read is closed form: the chart's edge has them
    assert np.all(np.isfinite(constraint_fields(mc.plus, np.array([[4.0, 0.0, 0.0]])).mu))


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_flat_sphere_mean_curvature():
    flat = minkowski_slice()
    hg = hypersurface_geometry(flat, 1.0, unit([[0.3, -0.5, 0.8]]))
    assert hg.H[0] == pytest.approx(2.0, abs=1e-12)
    hg2 = hypersurface_geometry(flat, 2.5, unit([[0.0, 1.0, 1.0]]))
    assert hg2.H[0] == pytest.approx(2.0 / 2.5, abs=1e-12)


def test_schwarzschild_area_radius_mean_curvature():
    data = schwarzschild_exterior_area_radius(1.0)
    hg = hypersurface_geometry(data, 4.0, unit([[0.2, 0.4, 0.6]]))
    assert hg.H[0] == pytest.approx(0.5 * math.sqrt(0.5), abs=1e-12)


@pytest.mark.parametrize("side", ["minus", "plus", None], ids=["flat_ball", "miao_plus", "graph_slice"])
def test_hypersurface_geometry_of_bundle_equals_points(side):
    # the record at unit vectors omega is the geometry of the points r0 * omega, read off their bundle; some
    # order-12 nodes r0 * omega lie an ulp off r0, where the two sides' charts meet: the chart is checked at r0 itself
    data = graph_slice() if side is None else getattr(miao_corner(1.0, 4.0), side)
    omega = sphere_grid(12).nodes
    record = hypersurface_geometry(data, 4.0, omega)
    bundle = as_fields(data, 4.0 * omega)
    frame = sphere_frame(data, bundle)
    assert record.r0 == 4.0 and record.omega is omega
    for got, want in ((record.tangent, frame[:, :2]), (record.nu, frame[:, 2]),
                      (record.area_element, sphere_area_element(data, 4.0, bundle))):
        assert np.array_equal(got, want)


# indefinite matrices whose only negative leading minor is the first, the second and the third
INDEFINITE = {
    "first-minor": np.diag([-1.0, -1.0, 1.0]),
    "second-minor": np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0], [2.0, 2.0, 1.0]]),
    "third-minor": np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]]),
}


def _indefinite_at_first_node(matrix) -> InitialData:
    """Flat data whose metric is `matrix` at the first point of every batch: one bad node."""

    def g(x):
        out = np.broadcast_to(np.eye(3), (len(x), 3, 3)).copy()
        out[0] = matrix
        return out

    return dataclasses.replace(minkowski_slice(), g=g, label="indefinite")


@pytest.mark.parametrize("matrix", INDEFINITE.values(), ids=INDEFINITE.keys())
def test_indefinite_metric_at_one_node_is_rejected(matrix):
    data = _indefinite_at_first_node(matrix)
    with pytest.raises(GeometryError, match="not positive definite on the sphere"):
        hypersurface_geometry(data, 2.0, sphere_grid(8).nodes)
    with pytest.raises(GeometryError, match="indefinite: metric not positive definite at r=2"):
        _validate_positive_definite(data, [2.0])


def test_graph_slice_beta_matches_direct_contraction():
    data = graph_slice()
    omega = np.array([[0.3, 0.5, 0.8], [0.6, -0.7, 0.2], [0.0, 0.6, 0.8]])
    omega /= np.linalg.norm(omega, axis=1)[:, None]
    r0 = 4.0
    hg = hypersurface_geometry(data, r0, omega)
    k = data.k(r0 * omega)
    direct = np.einsum("mi,mij,maj->ma", hg.nu, k, hg.tangent)
    assert np.max(np.abs(direct - hg.beta)) < 1e-12
    # spherically symmetric k has no nu-tangential mixing
    assert np.max(np.abs(hg.beta)) < 1e-12


def test_graph_slice_with_constant_slope_is_flat():
    # h' == 0 reduces the slice to the flat catalog entry
    data = graph_slice(amplitude=0.0)
    flat = minkowski_slice()
    pts = np.array([[1.0, 2.0, 2.0], [4.0, 0.0, 1.0]])
    assert np.allclose(data.g(pts), flat.g(pts))
    assert np.allclose(data.k(pts), flat.k(pts))
    assert np.allclose(data.dg(pts), flat.dg(pts))


def test_miao_corner_crease_match():
    # both sides induce the same metric on the crease sphere: compare
    # cd.minus.g and cd.plus.g on the sphere's (theta, phi) tangents
    mc = miao_corner(1.0, 4.0)
    grid = sphere_grid(16)
    pts = mc.r0 * grid.nodes
    tangents = [mc.r0 * t for t in theta_phi_tangents(grid.theta, grid.phi)]
    jump = mc.minus.g(pts) - mc.plus.g(pts)
    for a in tangents:
        for b in tangents:
            assert np.max(np.abs(np.einsum("mi,mij,mj->m", a, jump, b))) < 1e-12
    # the normal-normal component does jump across the corner
    assert np.max(np.abs(np.einsum("mi,mij,mj->m", grid.nodes, jump, grid.nodes))) > 0.1


@pytest.mark.parametrize("maker", [schwarzschild_isotropic, schwarzschild_exterior_area_radius])
def test_frames_orthonormal(maker):
    data = maker(1.0)
    rng = np.random.default_rng(3)
    pts = sample_points(rng, 40, 3.0, 9.0)
    g = data.g(pts)
    fr = bulk_frame(data, pts)
    gram = np.einsum("mai,mij,mbj->mab", fr, g, fr)
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    sf = sphere_frame(data, pts)
    gram2 = np.einsum("mai,mij,mbj->mab", sf, g, sf)
    assert np.max(np.abs(gram2 - np.eye(3))) < 1e-12
    # positively oriented and normal-adapted
    assert np.all(np.linalg.det(sf) > 0.0)
    radial = np.einsum("mi,mi->m", sf[:, 2], pts)
    assert np.all(radial > 0.0)


def test_shared_tangential_frame_across_crease():
    mc = miao_corner(1.0, 4.0)
    rng = np.random.default_rng(5)
    om = rng.normal(size=(30, 3))
    om /= np.linalg.norm(om, axis=1)[:, None]
    pts = 4.0 * om
    fm = sphere_frame(mc.minus, pts)
    fp = sphere_frame(mc.plus, pts)
    assert np.max(np.abs(fm[:, :2] - fp[:, :2])) < 1e-10
