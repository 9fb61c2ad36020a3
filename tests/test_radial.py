import dataclasses
import math

import numpy as np
import pytest

from creaselab.catalog import (
    graph_slice,
    miao_corner,
    minkowski_slice,
    schwarzschild_exterior_area_radius,
    rotated_crease,
    schwarzschild_isotropic,
    trivial_crease,
)
from creaselab.cliffords import build_rep
from creaselab.geometry import ConstraintValues, CreaseAngle, PointFields, hypersurface_geometry
from creaselab import geometry, integrals, radial
from creaselab.integrals import adm_energy_momentum
from creaselab.radial import (
    ORACLE_GRADIENT_TOL,
    ORACLE_OPERATOR_TOL,
    RadialError,
    RadialGrid,
    SideCoefficients,
    _oracle_side,
    _rotation_blocks,
    assemble,
    derivative_matrix,
    mass_gap,
    mode_field,
    mode_operator_values,
    poincare_estimate,
    reduce_radial,
    solve,
)

REP = build_rep(3)
PSI_INF = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


@pytest.fixture(scope="module")
def miao_problem():
    return reduce_radial(miao_corner(1.0, 4.0), REP)


@pytest.fixture(scope="module")
def trivial_problem():
    return reduce_radial(trivial_crease(1.0), REP)


# ---------------------------------------------------------------------------
# reduction oracle


@pytest.mark.parametrize(
    "maker,lo,hi",
    [
        (minkowski_slice, 0.5, 8.0),
        (lambda: schwarzschild_isotropic(1.0), 2.0, 12.0),
        (lambda: schwarzschild_exterior_area_radius(1.0), 3.0, 12.0),
        (graph_slice, 0.5, 8.0),
    ],
)
def test_reduction_oracle_every_spherical_datum(maker, lo, hi):
    side = SideCoefficients(data=maker(), r_lo=lo, r_hi=hi)
    operator_defect, gradient_defect = _oracle_side(REP, side, np.random.default_rng(97), 20)
    assert operator_defect <= ORACLE_OPERATOR_TOL
    assert gradient_defect <= ORACLE_GRADIENT_TOL


@pytest.mark.parametrize(
    "maker,lo,hi",
    [
        (minkowski_slice, 0.5, 8.0),
        (lambda: schwarzschild_isotropic(1.0), 2.0, 12.0),
        (lambda: schwarzschild_exterior_area_radius(1.0), 3.0, 12.0),
        (graph_slice, 0.5, 8.0),
        (lambda: miao_corner(1.0, 4.0).minus, 0.3, 3.8),
        (lambda: miao_corner(1.0, 4.0).plus, 4.2, 12.0),
    ],
    ids=["minkowski", "schwarzschild_isotropic", "schwarzschild_area_radius", "graph_slice", "miao_minus", "miao_plus"],
)
def test_mode_field_gradient_matches_central_differences(maker, lo, hi):
    """The closed-form gradient of a mode field is the 4th-order central difference of its values."""
    data = maker()
    rng = np.random.default_rng(23)
    dirs = rng.normal(size=(12, 3))
    pts = rng.uniform(lo, hi, size=12)[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    u0, v0 = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    s = 1.0 / hi
    field = mode_field(
        REP, data,
        lambda r: (1.0 + 0.5 * np.sin(s * r))[:, None] * u0,
        lambda r: (s * r + 0.3 * (s * r) ** 2)[:, None] * v0,
        lambda r: (0.5 * s * np.cos(s * r))[:, None] * u0,
        lambda r: (s + 0.6 * s * s * r)[:, None] * v0,
    )
    h = 1e-3
    fd = np.empty((12, 4, 3), dtype=complex)
    for k, e in enumerate(h * np.eye(3)):
        fd[..., k] = (8.0 * (field.values(pts + e) - field.values(pts - e))
                      - (field.values(pts + 2 * e) - field.values(pts - 2 * e))) / (12.0 * h)
    scale = np.max(np.abs(field.values(pts)))
    assert np.max(np.abs(field.cartesian_gradient(pts) - fd)) <= 1e-10 * scale


def test_reduce_radial_takes_sen_derivatives_once_per_side(monkeypatch):
    # the oracle contracts one set of Sen derivatives for both D_W and |nabla-bar psi|^2
    calls = []
    original = integrals.sen_derivatives

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (integrals, radial):
        monkeypatch.setattr(module, "sen_derivatives", counted)
    reduce_radial(miao_corner(1.0, 4.0), REP)
    assert len(calls) == 2


def test_reduce_radial_certifies_both_sides(miao_problem):
    assert miao_problem.oracle.operator_defect <= ORACLE_OPERATOR_TOL
    assert miao_problem.oracle.gradient_defect <= ORACLE_GRADIENT_TOL
    assert miao_problem.oracle.radii_checked >= 20


def test_reduce_radial_rejects_nonradial_input():
    from creaselab.catalog import rotated_crease
    from creaselab.geometry import CreaseAngle

    rc = rotated_crease(miao_corner(1.0, 4.0), CreaseAngle.cos_theta(0.2))
    with pytest.raises(RadialError):
        reduce_radial(rc, REP)  # nonconstant angle
    mc = miao_corner(1.0, 4.0)
    with pytest.raises(RadialError):
        reduce_radial(dataclasses.replace(mc, minus=dataclasses.replace(mc.minus, profile=None)), REP)


def test_reduced_coefficients_schwarzschild_closed_form(miao_problem):
    side = miao_problem.plus
    for r in (5.0, 10.0):
        rr = np.array([r])
        root = math.sqrt(1.0 - 2.0 / r)
        assert side.F(rr)[0] == pytest.approx(root, abs=1e-14)
        assert side.mu_c(rr)[0] == pytest.approx((1.0 - root) / r, abs=1e-14)
        assert side.ell(rr)[0] == pytest.approx(2.0 / r - (1.0 - root) / r, abs=1e-14)
        assert side.m_c(rr)[0] == pytest.approx((1.0 - root) / r, abs=1e-14)


def test_reduced_operator_annihilates_constants_on_flat(trivial_problem):
    # constant U, V = 0 solves the flat radial system exactly
    r = np.linspace(0.2, 0.9, 7)
    U = np.ones((7, 4), dtype=complex)
    one, omega = mode_operator_values(REP, trivial_problem.minus, r, U, 0.0 * U, 0.0 * U, 0.0 * U)
    assert np.max(np.abs(one)) == 0.0
    assert np.max(np.abs(omega)) == 0.0


# ---------------------------------------------------------------------------
# discretization


def test_derivative_matrix_is_4th_order():
    errs = []
    for m in (33, 65):
        r = np.linspace(0.0, 2.0, m)
        D = derivative_matrix(m, r[1] - r[0])
        f = np.sin(1.7 * r)
        errs.append(np.max(np.abs(D @ f - 1.7 * np.cos(1.7 * r))))
    assert errs[0] / errs[1] > 10.0  # ~16 for 4th order


@pytest.mark.parametrize("m", [6, 7, 33])
def test_derivative_matrix_matches_dense_stencil(m):
    h = 0.3
    dense = np.zeros((m, m))
    for i in range(2, m - 2):
        dense[i, i - 2 : i + 3] = [1.0, -8.0, 0.0, 8.0, -1.0]
    dense[0, :5] = [-25.0, 48.0, -36.0, 16.0, -3.0]
    dense[1, :5] = [-3.0, -10.0, 18.0, -6.0, 1.0]
    dense[m - 2, m - 5 :] = [-1.0, 6.0, -18.0, 10.0, 3.0]
    dense[m - 1, m - 5 :] = [3.0, -16.0, 36.0, -48.0, 25.0]
    D = derivative_matrix(m, h)
    assert np.array_equal(D.toarray(), dense * (1.0 / (12.0 * h)))
    assert D.nnz == int(np.count_nonzero(dense))


def test_manufactured_solution_convergence(miao_problem):
    """Interior truncation error of the assembled rows drops ~16x per halving."""

    def exact_profiles(r):
        U = np.exp(-0.05 * r)[:, None] * np.array([1.0, 0.5j, -0.2, 0.1])[None, :]
        dU = (-0.05 * np.exp(-0.05 * r))[:, None] * np.array([1.0, 0.5j, -0.2, 0.1])[None, :]
        V = (np.sin(0.3 * r) * 0.2)[:, None] * np.array([0.3, 1.0, 0.2j, -0.4])[None, :]
        dV = (0.3 * np.cos(0.3 * r) * 0.2)[:, None] * np.array([0.3, 1.0, 0.2j, -0.4])[None, :]
        return U, dU, V, dV

    side = miao_problem.plus
    errs = []
    for n in (128, 256):
        r = np.linspace(4.0, 40.0, n + 1)
        h = r[1] - r[0]
        D = derivative_matrix(n + 1, h)
        U, dU, V, dV = exact_profiles(r)
        one_exact, omega_exact = mode_operator_values(REP, side, r, U, dU, V, dV)
        one_disc, omega_disc = mode_operator_values(REP, side, r, U, D @ U, V, D @ V)
        errs.append(
            max(np.max(np.abs(one_disc - one_exact)), np.max(np.abs(omega_disc - omega_exact)))
        )
    ratio = errs[0] / errs[1]
    assert 8.0 < ratio < 40.0


def test_assemble_transmission_block(miao_problem):
    from creaselab.cliffords import HyperbolicRotation, spinor_rotation

    grid = RadialGrid(n_minus=64, n_plus=64, r_max=40.0)
    f = math.log(2.0)
    import dataclasses

    prob = dataclasses.replace(miao_problem, angle=f)
    system = assemble(prob, grid)
    blk = system.transmission_block
    # the mode transmission matrix realizes the spinor rotation: check the
    # defining identities cosh/sinh block structure reproduces A, B
    A, B = math.cosh(f / 2.0), math.sinh(f / 2.0)
    eye = np.eye(4)
    assert np.allclose(blk[:4, :4], A * eye, atol=1e-15)
    assert np.allclose(blk[4:, 4:], A * eye, atol=1e-15)
    assert np.allclose(blk[:4, 4:], B * REP.tau.real, atol=1e-15)
    # and it intertwines with the fiberwise spinor rotation at the normal slot:
    # (A + B eps) acting on U + (omega Gamma) V at omega = e_3 reproduces blk
    rot = spinor_rotation(REP, HyperbolicRotation(f), 3)
    U = np.array([1.0, 0.5, -0.25, 0.125], dtype=complex)
    V = np.array([0.3, -0.1, 0.7, 0.2], dtype=complex)
    c = U + REP.gamma[2] @ V
    rotated = rot @ c
    stack = blk @ np.concatenate([U, V])
    expect = stack[:4] + REP.gamma[2] @ stack[4:]
    assert np.max(np.abs(rotated - expect)) < 1e-13


def test_assemble_trivial_crease_trace_continuity(trivial_problem):
    grid = RadialGrid(n_minus=64, n_plus=64, r_max=20.0)
    system = assemble(trivial_problem, grid)
    assert np.allclose(system.transmission_block, np.eye(8), atol=1e-15)


def test_constraint_map_satisfies_constraints(miao_problem):
    """S x + b meets the channel transmission, v_-(0) = 0 and the Dirichlet rows for every x."""
    grid = RadialGrid(n_minus=64, n_plus=128, r_max=40.0)
    system = assemble(miao_problem, grid)
    rng = np.random.default_rng(5)
    Mm, Mp = system.layout()
    assert system.S.shape[0] == 2 * (Mm + Mp)
    R = _rotation_blocks(np.eye(1), miao_problem.angle)
    for _ in range(3):
        x = rng.normal(size=system.S.shape[1])
        um, vm, up, vp = system.split_full(system.S @ x + system.b_dirichlet)
        trace_minus = np.array([um[-1], vm[-1]])
        trace_plus = np.array([up[0], vp[0]])
        assert np.max(np.abs(trace_minus - R @ trace_plus)) <= 1e-14
        assert abs(vm[0]) <= 1e-14
        assert abs(up[-1] - 1.0) <= 1e-14
        assert abs(vp[-1]) <= 1e-14


def _with_extrinsic_curvature(problem):
    """The problem with nonzero kappa_n, kappa_t on both sides, so every tau block is exercised."""
    import dataclasses

    from creaselab.geometry import RadialProfile

    def side(s, a):
        p = s.data.profile
        profile = RadialProfile(
            A=p.A, B=p.B, dB=p.dB,
            kappa_n=lambda r: a / (1.0 + r**2),
            kappa_t=lambda r: -0.7 * a * r / (1.0 + r**2),
        )
        return dataclasses.replace(s, data=dataclasses.replace(s.data, profile=profile))

    return dataclasses.replace(problem, minus=side(problem.minus, 0.03), plus=side(problem.plus, 0.05))


def _kron_side_blocks(side, r, skip_first, tau):
    """Reference build of one side's weighted residual rows and |nabla-bar|^2 form on the
    spinor index of the real involution tau (I = len(tau) components per node), one
    kron/hstack block per term and one triple product per gradient block."""
    import scipy.sparse as sp

    from creaselab.geometry import unit_sphere_volume
    from creaselab.radial import _hat_weights

    I = len(tau)
    eyeI = sp.identity(I, format="csr")
    tau_s = sp.csr_matrix(tau)
    rr = np.where(r > 0, r, r[1])
    F = sp.diags(side.F(rr))
    FD = (F @ derivative_matrix(len(r), r[1] - r[0])).tocsr()
    w = _hat_weights(r, moment=0) * side.volume_factor(rr) * unit_sphere_volume(side.data.n)
    if skip_first:
        w[0] = 0.0
    ell = sp.diags(side.ell(rr))
    m_c = sp.diags(side.m_c(rr))
    trk = sp.diags(0.5 * side.trk(rr))
    r1 = sp.hstack([sp.kron(trk, tau_s), sp.kron(FD + ell, eyeI)], format="csr")
    r2 = sp.hstack([sp.kron(FD - m_c, eyeI), sp.kron(trk, tau_s)], format="csr")
    keep2 = np.concatenate([np.repeat(w > 0, I)] * 2)
    weights2 = np.concatenate([np.sqrt(np.repeat(w, I))] * 2)
    residual = (sp.diags(weights2[keep2]) @ sp.vstack([r1, r2], format="csr")[keep2]).tocsr()

    kn = sp.diags(0.5 * side.data.profile.kappa_n(rr))
    kt = sp.diags(0.5 * side.data.profile.kappa_t(rr))
    gr = sp.diags(side.G(rr) / rr - 0.5 * side.mu_c(rr))
    muh = sp.diags(0.5 * side.mu_c(rr))
    P = sp.hstack([sp.kron(FD, eyeI), sp.kron(kn, tau_s)], format="csr")
    Q = sp.hstack([sp.kron(kn, tau_s), sp.kron(FD, eyeI)], format="csr")
    Pt = sp.hstack([sp.kron(kt, tau_s), sp.kron(gr, eyeI)], format="csr")
    Qt = sp.hstack([sp.kron(muh, eyeI), -sp.kron(kt, tau_s)], format="csr")
    wI = np.repeat(w, I)
    n1 = float(side.data.n - 1)
    grad = sum(op.T @ sp.diags(wgt * wI) @ op for op, wgt in ((P, 1.0), (Q, 1.0), (Pt, n1), (Qt, n1)))
    return residual, grad.tocsr()


def _kron_mass_diagonal(problem, system, I):
    """Diagonal of the |psi/rho|^2 form with I components per node."""
    from creaselab.geometry import unit_sphere_volume
    from creaselab.radial import _hat_weights

    mass = []
    for side, r in ((problem.minus, system.r_minus), (problem.plus, system.r_plus)):
        rr = np.where(r > 0, r, r[1])
        prof = side.data.profile
        w2 = _hat_weights(r, moment=2) * prof.A(rr) * prof.B(rr) ** 2 * unit_sphere_volume(3)
        mass.append(np.tile(np.repeat(w2 / (r**2 + (0.5 * problem.cd.r0) ** 2), I), 2))
    return np.concatenate(mass)


@pytest.mark.parametrize("n_minus,n_plus,r_max", [(64, 128, 40.0), (256, 1024, 400.0)])
def test_assemble_matches_kron_reference(miao_problem, n_minus, n_plus, r_max):
    """The one-pass COO assembly equals the blockwise kron/hstack build on the channel tau -> 1."""
    import scipy.sparse as sp

    problem = _with_extrinsic_curvature(miao_problem)
    system = assemble(problem, RadialGrid(n_minus, n_plus, r_max))
    one = np.ones((1, 1))
    rows_m, Gm = _kron_side_blocks(problem.minus, system.r_minus, True, one)
    rows_p, Gp = _kron_side_blocks(problem.plus, system.r_plus, False, one)
    A_full = sp.block_diag([rows_m, rows_p], format="csr")
    B = system.grad_rows
    got = {
        "A_full": system.A_full,
        "A": system.A,
        "grad_form": B.T @ sp.diags(system.grad_weights) @ B,
        "mass_form": sp.diags(system.mass_diag),
    }
    reference = {
        "A_full": A_full,
        "A": A_full @ system.S,
        "grad_form": sp.block_diag([Gm, Gp]),
        "mass_form": sp.diags(_kron_mass_diagonal(problem, system, 1)),
    }
    assert Gm.nnz and abs(Gm).max() > 0.0
    for name, want in reference.items():
        have, want = got[name].tocsr(), want.tocsr()
        assert have.shape == want.shape, name
        # entrywise: a relative bound on the largest entry would hide the small tau blocks
        assert (abs(have - want) - 1e-14 * abs(want)).max() <= 0.0, name


def _spinor_reference(problem, system):
    """The 4-component system on `system`'s nodes, built with REP.tau in the original variables.

    Returns the residual rows, the number of minus-side rows, the gradient and
    mass forms and the constraint rows C with their datum template D: the
    constraints are C x = D psi_inf (transmission, V_-(0) = 0, U_+(r_max) = psi_inf,
    V_+(r_max) = 0).
    """
    import scipy.sparse as sp

    tau, I = REP.tau.real, REP.dim
    rows_m, Gm = _kron_side_blocks(problem.minus, system.r_minus, True, tau)
    rows_p, Gp = _kron_side_blocks(problem.plus, system.r_plus, False, tau)
    Mm, Mp = len(system.r_minus), len(system.r_plus)
    Lm = 2 * Mm * I
    L = Lm + 2 * Mp * I

    def at(block, node):
        return block + node * I + np.arange(I)

    trace_m = np.concatenate([at(0, Mm - 1), at(Mm * I, Mm - 1)])
    trace_p = np.concatenate([at(Lm, 0), at(Lm + Mp * I, 0)])
    C = np.zeros((5 * I, L))
    C[: 2 * I, trace_m] = np.eye(2 * I)
    C[: 2 * I, trace_p] = -_rotation_blocks(tau, problem.angle)
    for k, idx in enumerate((at(Mm * I, 0), at(Lm, Mp - 1), at(Lm + Mp * I, Mp - 1))):
        C[(2 + k) * I + np.arange(I), idx] = 1.0
    D = np.zeros((5 * I, I))
    D[3 * I : 4 * I] = np.eye(I)
    A_full = sp.block_diag([rows_m, rows_p], format="csr").toarray()
    grad = sp.block_diag([Gm, Gp]).toarray()
    return A_full, rows_m.shape[0], grad, _kron_mass_diagonal(problem, system, I), C, D


def test_solve_matches_spinor_component_least_squares(miao_problem):
    """One channel solve lifted as U = u psi_inf, V = v tau psi_inf equals the 4-component constrained least squares."""
    import scipy.linalg as sla

    problem = _with_extrinsic_curvature(miao_problem)
    system = assemble(problem, RadialGrid(n_minus=64, n_plus=64, r_max=40.0))
    A_full, n_minus_rows, _, _, C, D = _spinor_reference(problem, system)
    rng = np.random.default_rng(11)
    data = [
        PSI_INF,
        rng.normal(size=4) + 1j * rng.normal(size=4),
        np.array([1.0, 0.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0),  # tau-eigenvector, eigenvalue +1
        np.array([0.0, 1.0, 0.0, -1.0], dtype=complex) / math.sqrt(2.0),  # eigenvalue -1: P_+ psi_inf = 0
    ]
    assert np.allclose(REP.tau @ data[2], data[2])
    assert np.allclose(REP.tau @ data[3], -data[3])
    # minimize |A_full x| over C x = D psi_inf: x = x0 + Z y with Z spanning the kernel of C
    Z = sla.null_space(C)
    x0 = np.linalg.lstsq(C, D @ np.array(data).T, rcond=None)[0]
    X = x0 + Z @ np.linalg.lstsq(A_full @ Z, -(A_full @ x0), rcond=None)[0]
    Mm = len(system.r_minus)
    for psi_inf, x in zip(data, X.T):
        sol = solve(system, psi_inf)
        um, vm = x[: Mm * 4].reshape(Mm, 4), x[Mm * 4 : 2 * Mm * 4].reshape(Mm, 4)
        up, vp = x[2 * Mm * 4 :].reshape(2, -1, 4)
        scale = np.max(np.abs(x))
        for got, want in ((sol.u_minus, um), (sol.v_minus, vm), (sol.u_plus, up), (sol.v_plus, vp)):
            assert np.max(np.abs(got - want)) <= 1e-10 * scale
        res = A_full @ x
        assert sol.residual_norm_minus == pytest.approx(np.linalg.norm(res[:n_minus_rows]), rel=1e-9)
        assert sol.residual_norm_plus == pytest.approx(np.linalg.norm(res[n_minus_rows:]), rel=1e-9)
        assert sol.transmission_defect <= 1e-13 and sol.origin_defect <= 1e-13


def test_poincare_matches_spinor_component_eigenvalue(miao_problem):
    """The channel forms' smallest eigenvalue is the 4-component one on the constraint space."""
    import scipy.linalg as sla

    problem = _with_extrinsic_curvature(miao_problem)
    grid = RadialGrid(n_minus=64, n_plus=128, r_max=40.0)
    _, _, grad, mass, C, _ = _spinor_reference(problem, assemble(problem, grid))
    Z = sla.null_space(C)
    lam = sla.eigh(Z.T @ grad @ Z, (Z.T * mass) @ Z, eigvals_only=True, subset_by_index=[0, 0])[0]
    assert poincare_estimate(problem, grid) == pytest.approx(lam, rel=1e-10)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda t: 1j * t,  # not real
        lambda t: t + np.triu(np.ones_like(t), 1),  # not symmetric
        lambda t: 2.0 * t,  # not an involution
    ],
)
def test_assemble_rejects_tau_without_channel_split(miao_problem, tamper):
    rep = dataclasses.replace(REP, tau=tamper(REP.tau))
    with pytest.raises(RadialError, match="tau"):
        assemble(dataclasses.replace(miao_problem, rep=rep), RadialGrid(n_minus=64, n_plus=64, r_max=40.0))


def test_grid_validation():
    with pytest.raises(RadialError):
        RadialGrid(n_minus=32, n_plus=64, r_max=10.0).validate()
    with pytest.raises(RadialError):
        RadialGrid(n_minus=65, n_plus=64, r_max=10.0).validate()


# ---------------------------------------------------------------------------
# solving


def test_trivial_crease_constant_solution(trivial_problem):
    grid = RadialGrid(n_minus=64, n_plus=128, r_max=12.0)
    sol = solve(assemble(trivial_problem, grid), PSI_INF)
    assert sol.sup_distance_to(PSI_INF) <= 1e-8
    assert sol.transmission_defect <= 1e-12
    assert sol.origin_defect <= 1e-12


def test_zero_datum_gives_zero(trivial_problem):
    grid = RadialGrid(n_minus=64, n_plus=128, r_max=12.0)
    sol = solve(assemble(trivial_problem, grid), np.zeros(4, dtype=complex))
    for arr in (sol.u_minus, sol.v_minus, sol.u_plus, sol.v_plus):
        assert np.max(np.abs(arr)) <= 1e-12


def test_miao_solve_diagnostics(miao_problem):
    grid = RadialGrid(n_minus=256, n_plus=512, r_max=200.0)
    sol = solve(assemble(miao_problem, grid), PSI_INF)
    assert sol.relative_residual <= 1e-6
    assert sol.transmission_defect <= 1e-10
    assert sol.origin_defect <= 1e-12
    assert sol.smallest_singular_value > 0.0


# ---------------------------------------------------------------------------
# mass gap


def test_mass_gap_trivial_crease(trivial_problem):
    grid = RadialGrid(n_minus=64, n_plus=128, r_max=12.0)
    sol = solve(assemble(trivial_problem, grid), PSI_INF)
    mass = adm_energy_momentum(trivial_problem.cd.plus, [4.0, 8.0, 12.0], order=12)
    gap = mass_gap(sol, mass)
    assert abs(gap.flux_term) <= 1e-8
    assert abs(gap.bulk_term) <= 1e-8
    assert abs(gap.gap) <= 1e-6
    assert gap.dirichlet_part >= 0.0


def test_mass_gap_miao_inequality(miao_problem):
    grid = RadialGrid(n_minus=256, n_plus=1024, r_max=400.0)
    sol = solve(assemble(miao_problem, grid), PSI_INF)
    mass = adm_energy_momentum(miao_problem.cd.plus, [100.0, 200.0, 400.0], order=16)
    gap = mass_gap(sol, mass)
    assert gap.flux_term == pytest.approx(4.0 * math.pi * mass.E, rel=1e-9)
    assert gap.gap >= -1e-4 * gap.flux_term
    assert gap.dirichlet_part >= 0.0
    assert gap.dec_creased and gap.bulk_dec_satisfied
    # the gap must reproduce the negated crease boundary term up to truncation
    assert abs(gap.gap + gap.crease_term) <= 0.02 * abs(gap.gap)


def test_mass_gap_crease_term_matches_the_rotated_geometry_at_one_node():
    # reference: each side's geometry at one crease node, the minus side rotated by the angle by hand
    f = 0.3
    cd = rotated_crease(miao_corner(1.0, 4.0), CreaseAngle.from_constant(f))
    sol = solve(assemble(reduce_radial(cd, REP), RadialGrid(n_minus=64, n_plus=128, r_max=100.0)), PSI_INF)
    gap = mass_gap(sol, adm_energy_momentum(cd.plus, [25.0, 50.0, 100.0], order=12))
    hg_m, hg_p = (hypersurface_geometry(d, cd.r0, np.array([[cd.r0, 0.0, 0.0]])) for d in (cd.minus, cd.plus))
    nu_rot = math.cosh(f) * hg_m.H[0] + math.sinh(f) * hg_m.trk[0]
    tau_rot = math.sinh(f) * hg_m.H[0] + math.cosh(f) * hg_m.trk[0]
    Up, Vp = sol.u_plus[0], sol.v_plus[0]
    psi_sq = float((np.vdot(Up, Up) + np.vdot(Vp, Vp)).real)
    eps_pair = 2.0 * float(np.vdot(Up, REP.tau @ Vp).real)
    area = 4.0 * math.pi * float(hg_p.area_element[0])
    expected = 0.5 * area * ((hg_p.H[0] - nu_rot) * psi_sq + (hg_p.trk[0] - tau_rot) * eps_pair)
    assert abs(expected) > 1e-3
    assert gap.crease_term == pytest.approx(expected, rel=1e-12)


def test_mass_gap_flags_violated_hypothesis():
    neg = miao_corner(-0.2, 4.0)
    prob = reduce_radial(neg, REP)
    grid = RadialGrid(n_minus=128, n_plus=256, r_max=100.0)
    sol = solve(assemble(prob, grid), PSI_INF)
    mass = adm_energy_momentum(neg.plus, [25.0, 50.0, 100.0], order=12)
    gap = mass_gap(sol, mass)
    assert not gap.dec_creased
    assert not gap.hypothesis_flags["gap_nonnegative_expected"]


def test_mass_gap_evaluates_constraints_once_per_side(monkeypatch, trivial_problem):
    sol = solve(assemble(trivial_problem, RadialGrid(n_minus=64, n_plus=128, r_max=12.0)), PSI_INF)
    mass = adm_energy_momentum(trivial_problem.cd.plus, [4.0, 8.0, 12.0], order=12)
    calls = []
    original = radial.constraint_fields

    def counting(data, x):
        calls.append(data)
        return original(data, x)

    monkeypatch.setattr(radial, "constraint_fields", counting)
    mass_gap(sol, mass)
    assert calls == [trivial_problem.cd.minus, trivial_problem.cd.plus]


def test_mass_gap_is_the_same_in_blocks_as_in_one_block(monkeypatch, miao_problem):
    grid = RadialGrid(n_minus=1280, n_plus=2560, r_max=400.0)
    sol = solve(assemble(miao_problem, grid), PSI_INF)
    assert min(len(sol.system.r_minus), len(sol.system.r_plus)) > geometry.BLOCK_NODES  # several blocks a side
    mass = adm_energy_momentum(miao_problem.cd.plus, [100.0, 200.0, 400.0], order=12)
    blocked = mass_gap(sol, mass)
    monkeypatch.setattr(geometry, "BLOCK_NODES", 10**9)
    # mu and J are per-node values and the Simpson sums run over whole sides, so nothing moves
    assert mass_gap(sol, mass) == blocked


def test_mass_gap_matter_term_integrates_every_node(monkeypatch, miao_problem):
    # with mu = 1 and J = 0 the matter part is half the integral of |psi|^2 dV, the crease and origin nodes included
    from scipy.integrate import simpson

    sol = solve(assemble(miao_problem, RadialGrid(n_minus=64, n_plus=128, r_max=100.0)), PSI_INF)
    mass = adm_energy_momentum(miao_problem.cd.plus, [25.0, 50.0, 100.0], order=12)

    def unit_mu(data, x):
        m = len(x.x) if isinstance(x, PointFields) else len(x)
        return ConstraintValues(mu=np.ones(m), J=np.zeros((m, 3)))

    monkeypatch.setattr(radial, "constraint_fields", unit_mu)
    expected = 0.0
    for side, r, U, V in ((miao_problem.minus, sol.system.r_minus, sol.u_minus, sol.v_minus),
                          (miao_problem.plus, sol.system.r_plus, sol.u_plus, sol.v_plus)):
        psi_sq = np.sum(np.abs(U) ** 2 + np.abs(V) ** 2, axis=1)
        expected += 0.5 * simpson(psi_sq * side.volume_factor(r) * 4.0 * math.pi, dx=r[1] - r[0])
    assert mass_gap(sol, mass).matter_part == pytest.approx(expected, rel=1e-12)


def test_truncation_study(miao_problem):
    gaps = []
    for rmax, n_plus in ((100.0, 256), (200.0, 512), (400.0, 1024)):
        grid = RadialGrid(n_minus=128, n_plus=n_plus, r_max=rmax)
        sol = solve(assemble(miao_problem, grid), PSI_INF)
        mass = adm_energy_momentum(miao_problem.cd.plus, [rmax / 4, rmax / 2, rmax], order=12)
        gaps.append(mass_gap(sol, mass).gap)
    d1, d2 = abs(gaps[1] - gaps[0]), abs(gaps[2] - gaps[1])
    assert d2 < d1  # drift shrinks as r_max grows, consistent with O(1/r_max)
    assert d2 / max(d1, 1e-30) < 0.8


# ---------------------------------------------------------------------------
# Poincare estimate


def test_poincare_positive_and_stable(trivial_problem, miao_problem):
    for prob, rmax in ((trivial_problem, 50.0), (miao_problem, 100.0)):
        vals = [
            poincare_estimate(prob, RadialGrid(n_minus=n, n_plus=n, r_max=rmax))
            for n in (256, 512)
        ]
        assert vals[0] > 0.0 and vals[1] > 0.0
        assert abs(vals[0] - vals[1]) <= 0.2 * abs(vals[1])


def test_poincare_perturbed_by_extrinsic_curvature(trivial_problem):
    # adding a small k-term moves the estimate by a correspondingly small amount
    import dataclasses

    from creaselab.geometry import RadialProfile

    base = trivial_problem
    lam0 = poincare_estimate(base, RadialGrid(n_minus=128, n_plus=128, r_max=30.0))
    eps = 1e-3
    flat_prof = base.minus.data.profile

    def bump_profile(p):
        return RadialProfile(
            A=p.A, B=p.B, dB=p.dB,
            kappa_n=lambda r: eps / (1.0 + r**2),
            kappa_t=lambda r: eps / (1.0 + r**2),
        )

    minus_data = dataclasses.replace(base.minus.data, profile=bump_profile(flat_prof))
    plus_data = dataclasses.replace(base.plus.data, profile=bump_profile(base.plus.data.profile))
    minus = dataclasses.replace(base.minus, data=minus_data)
    plus = dataclasses.replace(base.plus, data=plus_data)
    prob = dataclasses.replace(base, minus=minus, plus=plus)
    lam1 = poincare_estimate(prob, RadialGrid(n_minus=128, n_plus=128, r_max=30.0))
    assert abs(lam1 - lam0) <= 50.0 * eps
    assert abs(lam1 - lam0) > 0.0
