import math

import numpy as np
import pytest

from creaselab.catalog import graph_slice, minkowski_slice, schwarzschild_isotropic, trivial_crease
from creaselab.cliffords import build_rep
from creaselab.geometry import CreaseAngle
from creaselab.integrals import sen_derivatives
from creaselab.killing import (
    KillingError,
    crease_lorentz_check,
    graph_slice_parallel_spinor,
    killing_conditions_residual,
    killing_development,
    lapse_shift_from_spinor,
    lorentz_length_drift,
    riemann_norm,
)
from creaselab.spheregrid import unit_vectors
from creaselab.spinorfields import constant_spinor_field, polynomial_spinor_field

REP = build_rep()
FLAT = minkowski_slice()
SAMPLES = np.array([[1.0, 2.0, 0.5], [3.0, 0.0, 1.0], [0.5, -1.0, 2.0]])
E0 = np.eye(REP.dim, dtype=complex)[0]


def static_pair(data):
    """The lapse-shift pair of the constant spinor e_0: u = 1 and Y = 0, exactly."""
    return lapse_shift_from_spinor(REP, constant_spinor_field(REP, E0), data)


# ---------------------------------------------------------------------------
# lapse-shift extraction


def test_upper_block_spinor_gives_pure_lapse():
    c = np.zeros(4, dtype=complex)
    c[0] = 1.0
    ls = lapse_shift_from_spinor(REP, constant_spinor_field(REP, c), FLAT, check_points=SAMPLES)
    assert np.allclose(ls.u(SAMPLES), 1.0)
    assert np.max(np.abs(ls.Y_frame(SAMPLES))) < 1e-14


def test_quadratic_scaling():
    rng = np.random.default_rng(0)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    lam = 1.3 - 0.7j
    ls1 = lapse_shift_from_spinor(REP, constant_spinor_field(REP, c), FLAT)
    ls2 = lapse_shift_from_spinor(REP, constant_spinor_field(REP, lam * c), FLAT)
    assert np.allclose(ls2.u(SAMPLES), abs(lam) ** 2 * ls1.u(SAMPLES))
    assert np.allclose(ls2.Y_frame(SAMPLES), abs(lam) ** 2 * ls1.Y_frame(SAMPLES))


def test_cauchy_schwarz_u_dominates_shift():
    rng = np.random.default_rng(1)
    for _ in range(100):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        ls = lapse_shift_from_spinor(REP, constant_spinor_field(REP, c), FLAT)
        pt = rng.normal(size=(1, 3)) + np.array([[0.0, 0.0, 3.0]])
        u = float(ls.u(pt)[0])
        ynorm = float(np.linalg.norm(ls.Y_frame(pt)[0]))
        assert u >= ynorm - 1e-12


# ---------------------------------------------------------------------------
# crease Lorentz relations


def trace_closure(rng):
    a0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    a1 = 0.2 * (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))

    def psi(theta, phi):
        om = unit_vectors(np.asarray(theta), np.asarray(phi))
        return a0[None, :] + om @ a1

    return psi


def test_lorentz_relations_trivial_angle():
    tc = trivial_crease(2.0)
    rng = np.random.default_rng(2)
    chk = crease_lorentz_check(REP, tc, trace_closure(rng), order=12)
    assert chk.max_residual < 1e-13
    assert chk.causal_invariant_residual < 1e-13


def test_lorentz_relations_log2_angle():
    tc = trivial_crease(2.0).with_angle(CreaseAngle.from_constant(math.log(2.0)))
    rng = np.random.default_rng(3)
    for _ in range(5):
        chk = crease_lorentz_check(REP, tc, trace_closure(rng), order=12)
        assert chk.max_residual < 1e-10
        assert chk.causal_invariant_residual < 1e-10


def test_lorentz_residuals_scale_quadratically():
    tc = trivial_crease(2.0).with_angle(CreaseAngle.from_constant(0.8))
    rng = np.random.default_rng(4)
    base = trace_closure(rng)
    lam = 2.0

    def scaled(theta, phi):
        return lam * base(theta, phi)

    # u and Y are quadratic in psi, so the defect scale is |lam|^2
    c1 = crease_lorentz_check(REP, tc, base, order=8)
    c2 = crease_lorentz_check(REP, tc, scaled, order=8)
    assert c2.causal_invariant_residual <= lam**4 * (c1.causal_invariant_residual + 1e-14)


# ---------------------------------------------------------------------------
# Killing conditions


def test_flat_constant_spinor_killing_conditions():
    rng = np.random.default_rng(6)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    ls = lapse_shift_from_spinor(REP, constant_spinor_field(REP, c), FLAT)
    res = killing_conditions_residual(FLAT, ls, SAMPLES)
    assert res.max_tensor < 1e-9
    assert res.max_covector < 1e-9
    assert np.max(res.symmetry_defect) < 1e-8


def test_static_slice_trivial_lapse():
    data = schwarzschild_isotropic(1.0)
    ls = static_pair(data)
    pts = SAMPLES + np.array([[2.0, 0.0, 0.0]])
    assert np.array_equal(ls.u(pts), np.ones(len(pts)))
    assert not np.any(ls.Y_frame(pts))
    res = killing_conditions_residual(data, ls, pts)
    assert res.max_tensor < 1e-12
    assert res.max_covector < 1e-12


def test_graph_slice_parallel_spinor_is_parallel():
    gs = graph_slice()
    par = graph_slice_parallel_spinor(REP, gs, np.array([1.0, 0.3j, -0.2, 0.5]))
    pts = np.array([[4.5, 0.3, 0.2], [3.0, 1.0, -2.0], [2.0, 4.0, 1.0]])
    sen = sen_derivatives(gs, REP, par, pts)
    assert np.max(np.abs(sen)) < 1e-13


def _shell_points(rng, count, r_lo, r_hi):
    directions = rng.normal(size=(count, 3))
    return rng.uniform(r_lo, r_hi, size=count)[:, None] * directions / np.linalg.norm(directions, axis=1)[:, None]


def test_graph_slice_killing_identities_close():
    # The lapse-shift of a spacetime-parallel spinor on the slice (g, k) satisfies
    # the Killing conditions L_Y g - 2 u k = 0 and du - k(Y, .) = 0 of (g, k) itself.
    # The points reach r = 17, past r = 8.7, where the slope bump of graph_slice() has decayed to |h'| = 1e-8.
    pts = _shell_points(np.random.default_rng(11), 1200, 0.3, 17.0)
    for params in [(), (0.9, 4.5, 0.5), (0.4, 2.0, 0.5), (-0.6, 3.0, 0.8)]:
        gs = graph_slice(*params)
        par = graph_slice_parallel_spinor(REP, gs, np.array([1.0, 0.3j, -0.2, 0.5]))
        ls = lapse_shift_from_spinor(REP, par, gs, check_points=pts)
        res = killing_conditions_residual(gs, ls, pts)
        assert res.max_tensor < 1e-12, params
        assert res.max_covector < 1e-12, params
        # with the tensor residual, pointwise nabla_a Y_b = u k_ab: |nabla Y - u k| <= (tensor + defect) / 2
        assert np.max(res.symmetry_defect) < 1e-12, params


# ---------------------------------------------------------------------------
# Killing development


def test_development_of_flat_slice_is_minkowski():
    c = np.zeros(4, dtype=complex)
    c[0] = 1.0
    ls = lapse_shift_from_spinor(REP, constant_spinor_field(REP, c), FLAT)
    dev = killing_development(FLAT, ls, sample_points=SAMPLES)
    g4 = dev.evaluate(0.0, np.array([1.0, 2.0, 0.5]))
    assert np.allclose(g4, np.diag([-1.0, 1.0, 1.0, 1.0]), atol=1e-14)
    assert riemann_norm(dev, np.array([1.0, 2.0, 0.5])) < 1e-6


def test_development_metric_components():
    rng = np.random.default_rng(7)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    ls = lapse_shift_from_spinor(REP, constant_spinor_field(REP, c), FLAT)
    dev = killing_development(FLAT, ls, sample_points=SAMPLES)
    pt = np.array([2.0, -1.0, 0.5])
    g4 = dev.evaluate(1.3, pt)
    q = float(ls.lorentz_length_squared(pt[None])[0])
    assert g4[0, 0] == pytest.approx(-q, abs=1e-13)
    assert np.allclose(g4[1:, 1:], FLAT.g(pt[None])[0], atol=1e-14)
    # timelike Killing direction wherever u > |Y|
    assert g4[0, 0] < 0.0
    # t-independence
    assert np.allclose(dev.evaluate(5.0, pt), g4, atol=1e-15)


def test_development_requires_positive_lapse():
    # the zero spinor's lapse u = 0 is not positive
    ls = lapse_shift_from_spinor(REP, constant_spinor_field(REP, np.zeros(REP.dim)), FLAT)
    with pytest.raises(KillingError):
        killing_development(FLAT, ls, sample_points=SAMPLES)


def test_graph_slice_development_is_flat():
    gs = graph_slice()
    par = graph_slice_parallel_spinor(REP, gs, np.array([1.0, 0.3j, -0.2, 0.5]))
    pts = np.array([[3.0, 1.0, -2.0], [2.0, 4.0, 1.0]])
    ls = lapse_shift_from_spinor(REP, par, gs, check_points=pts)
    dev = killing_development(gs, ls, sample_points=pts)
    for p in pts:
        assert riemann_norm(dev, p) < 2e-6


def test_schwarzschild_static_development_not_flat():
    data = schwarzschild_isotropic(1.0)
    dev = killing_development(data, static_pair(data))
    assert riemann_norm(dev, np.array([3.0, 0.2, 0.1])) > 1e-3


# ---------------------------------------------------------------------------
# Lorentz-length conservation


def test_drift_vanishes_for_static_pair():
    ls = static_pair(FLAT)
    ts = np.linspace(1.0, 10.0, 30)
    curve = np.stack([ts, 0.0 * ts, 0.2 * ts], axis=1)
    assert lorentz_length_drift(FLAT, ls, curve) == 0.0


def test_drift_constant_spinor_radial_curve():
    rng = np.random.default_rng(8)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    ls = lapse_shift_from_spinor(REP, constant_spinor_field(REP, c), FLAT)
    ts = np.linspace(1.0, 10.0, 50)
    curve = np.stack([ts, np.zeros_like(ts), np.zeros_like(ts)], axis=1)
    assert lorentz_length_drift(FLAT, ls, curve) < 1e-8


def test_drift_on_graph_slice_parallel_pair():
    gs = graph_slice()
    par = graph_slice_parallel_spinor(REP, gs, np.array([1.0, 0.3j, -0.2, 0.5]))
    ls = lapse_shift_from_spinor(REP, par, gs)
    ts = np.linspace(1.0, 8.0, 40)
    curve = np.stack([ts, 0.3 * np.ones_like(ts), 0.1 * ts], axis=1)
    assert lorentz_length_drift(gs, ls, curve) < 1e-8


def test_drift_detects_broken_killing_condition():
    # perturbing the spinor so the Killing conditions fail by O(eps) produces
    # a comparable drift of the squared Lorentz length: psi = e_0 + eps x_1 w with
    # w = tau e_1 e_0, which is orthogonal to e_0, has u = 1 + (eps x_1)^2 and Y_1 = 2 eps x_1
    eps = 1e-2
    w = REP.tau @ REP.gamma[0] @ E0
    coeffs = np.stack([E0, eps * w], axis=1)  # (I, terms) over the monomials 1 and x_1
    ls = lapse_shift_from_spinor(REP, polynomial_spinor_field(REP, coeffs, np.array([[0, 0, 0], [1, 0, 0]])), FLAT)
    ts = np.linspace(1.0, 10.0, 50)
    curve = np.stack([ts, np.zeros_like(ts), np.zeros_like(ts)], axis=1)
    res = killing_conditions_residual(FLAT, ls, curve[::10])
    drift = lorentz_length_drift(FLAT, ls, curve)
    assert res.max_tensor > eps  # the hypothesis fails decisively
    assert drift > 1e-4  # and the conservation law breaks at matching order
