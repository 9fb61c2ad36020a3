import numpy as np
import pytest

from creaselab.bartnik import crease_report_for
from creaselab.catalog import miao_corner, rotated_crease, trivial_crease
from creaselab.cliffords import spinor_rotation
from creaselab.geometry import CreaseAngle
from creaselab.integrals import boundary_term_density, crease_boundary_terms
from creaselab.spheregrid import sphere_grid, unit_vectors


def random_trace_closure(rng, scale=0.3):
    """Random degree-1 angular polynomial trace in the adapted sphere gauge."""
    a0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    a1 = scale * (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))

    def psi(theta, phi):
        om = unit_vectors(np.asarray(theta), np.asarray(phi))
        return a0[None, :] + om @ a1

    return psi


def test_trivial_crease_terms_vanish():
    tc = trivial_crease(2.0)
    rng = np.random.default_rng(0)
    res = crease_boundary_terms(tc, random_trace_closure(rng), order=12)
    assert res.direct == pytest.approx(0.0, abs=1e-12)
    assert res.formula == pytest.approx(0.0, abs=1e-12)


def test_miao_corner_identity_random_pairs():
    mc = miao_corner(1.0, 4.0)
    report = crease_report_for(mc, order=16)
    assert report.min_margin > 0.0
    rng = np.random.default_rng(1)
    for _ in range(10):
        res = crease_boundary_terms(mc, random_trace_closure(rng), order=16)
        assert res.mismatch <= 1e-8 * (abs(res.formula) + 1e-12)
        assert res.direct <= res.bound + 1e-10
        assert res.bound <= 1e-12  # margin > 0 forces a nonpositive bound
        assert res.direct <= 1e-10


def test_rotated_crease_identity_nonconstant_angle():
    rc = rotated_crease(miao_corner(1.0, 4.0), CreaseAngle.cos_theta(0.2))
    assert crease_report_for(rc, order=16).min_margin > 0.0
    rng = np.random.default_rng(2)
    for _ in range(10):
        res = crease_boundary_terms(rc, random_trace_closure(rng), order=16)
        assert res.mismatch <= 1e-8 * (abs(res.formula) + 1e-12)
        assert res.direct <= res.bound + 1e-10
        assert res.direct <= 1e-10


def test_batched_traces_match_single_traces():
    rc = rotated_crease(miao_corner(1.0, 4.0), CreaseAngle.cos_theta(0.2))
    rng = np.random.default_rng(6)
    a0 = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    a1 = 0.3 * (rng.normal(size=(3, 3, 4)) + 1j * rng.normal(size=(3, 3, 4)))

    def traces(k):
        def psi(theta, phi):
            om = unit_vectors(np.asarray(theta), np.asarray(phi))
            return a0[k][..., None, :] + om @ a1[k]

        return psi

    batch = crease_boundary_terms(rc, traces(slice(None)), order=12)
    for k in range(3):
        one = crease_boundary_terms(rc, traces(k), order=12)
        for name in ("direct", "formula", "bound", "i_minus", "i_plus", "mismatch"):
            single = getattr(one, name)
            assert np.ndim(single) == 0
            assert abs(getattr(batch, name)[k] - single) <= 1e-13 * (abs(one.formula) + 1.0), name


def test_explicit_matching_minus_trace_accepted():
    # the minus side's integral is the one of the explicit transmission image of psi_plus
    mc = rotated_crease(miao_corner(1.0, 4.0), CreaseAngle.from_constant(0.4))
    rng = np.random.default_rng(4)
    psi_plus = random_trace_closure(rng)

    def psi_minus(theta, phi):
        f = mc.angle.value(unit_vectors(np.asarray(theta), np.asarray(phi)))
        rot = spinor_rotation(f)
        return np.einsum("mIK,mK->mI", rot, np.asarray(psi_plus(theta, phi), dtype=complex))

    res = crease_boundary_terms(mc, psi_plus, order=12)
    grid = sphere_grid(12)
    density, hg = boundary_term_density(mc.minus, mc.r0, grid, psi_minus, 1)
    i_minus = np.sum(density * (hg.area_element * grid.weights))
    assert abs(res.i_minus - i_minus) <= 1e-13 * (abs(i_minus) + 1.0)
    assert res.mismatch <= 1e-8 * (abs(res.formula) + 1e-12)


def test_negative_margin_allows_positive_bound():
    neg = miao_corner(-0.2, 4.0)
    rng = np.random.default_rng(5)
    res = crease_boundary_terms(neg, random_trace_closure(rng), order=12)
    # identity still holds; only the sign guarantee is lost
    assert res.mismatch <= 1e-8 * (abs(res.formula) + 1e-12)
    assert res.bound > 0.0
