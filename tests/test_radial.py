import dataclasses
import math
import tracemalloc

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
from creaselab.bartnik import crease_report_for
from creaselab.cliffords import DIM, GAMMA, TAU
from creaselab.geometry import Chart, CreaseAngle, CreasedData, constraint_fields, hypersurface_geometry
from creaselab import geometry, integrals, radial
from creaselab.integrals import adm_energy_momentum
from creaselab.radial import (
    ORACLE_GRADIENT_TOL,
    ORACLE_OPERATOR_TOL,
    RadialError,
    RadialGrid,
    ReductionOracleError,
    SideCoefficients,
    _oracle_side,
    _rotation_blocks,
    apply_blocks,
    assemble,
    derivative_matrix,
    mass_gap,
    mode_field,
    poincare_estimate,
    reduce_radial,
    solve,
)
from test_banded import _dense
from test_geometry import matter_ball

PSI_INF = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


@pytest.fixture(scope="module")
def miao_problem():
    return reduce_radial(miao_corner(1.0, 4.0))


@pytest.fixture(scope="module")
def trivial_problem():
    return reduce_radial(trivial_crease(1.0))


@pytest.fixture(scope="module")
def matter_problem():
    """A ball with matter, r <= 3, glued to the Schwarzschild exterior of miao_corner(0.5, 3)."""
    ball = dataclasses.replace(matter_ball(), chart=Chart(0.0, 3.0), label="matter_ball|r<=3")
    cd = CreasedData(minus=ball, plus=miao_corner(0.5, 3.0).plus, r0=3.0, angle=CreaseAngle.from_constant(0.0),
                     label="matter_ball glued to miao_corner(0.5, 3)")
    return reduce_radial(cd)


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
    operator_defect, gradient_defect = _oracle_side(side, np.random.default_rng(97), 20)
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
    field = mode_field(data, lambda r: (
        (1.0 + 0.5 * np.sin(s * r))[:, None] * u0,
        (s * r + 0.3 * (s * r) ** 2)[:, None] * v0,
        (0.5 * s * np.cos(s * r))[:, None] * u0,
        (s + 0.6 * s * s * r)[:, None] * v0,
    ))
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
    reduce_radial(miao_corner(1.0, 4.0))
    assert len(calls) == 2


def test_reduce_radial_certifies_both_sides(miao_problem):
    assert miao_problem.oracle.operator_defect <= ORACLE_OPERATOR_TOL
    assert miao_problem.oracle.gradient_defect <= ORACLE_GRADIENT_TOL
    assert miao_problem.oracle.radii_checked >= 20


def test_reduce_radial_rejects_a_flipped_table_coefficient(monkeypatch):
    """The oracle certifies the table that `assemble` discretizes: one wrong sign in it fails reduce_radial."""
    original = SideCoefficients.blocks

    def flipped(self, p):
        table = original(self, p)
        table["r2"] = table["r2"]._replace(own=-table["r2"].own)
        return table

    monkeypatch.setattr(SideCoefficients, "blocks", flipped)
    with pytest.raises(ReductionOracleError):
        reduce_radial(miao_corner(1.0, 4.0))


@pytest.mark.parametrize(
    "block,coef",
    [(b, "tau_coef") for b in ("r1", "r2", "P", "Q", "Pt", "Qt")] + [(b, "own") for b in ("r1", "r2", "Pt", "Qt")],
)
def test_oracle_sees_every_table_coefficient(monkeypatch, block, coef):
    # graph_slice has kappa_n and kappa_t nonzero, so every coefficient of the table is live (P and Q have no own)
    original = SideCoefficients.blocks

    def flipped(self, p):
        table = original(self, p)
        table[block] = table[block]._replace(**{coef: -getattr(table[block], coef)})
        return table

    side = SideCoefficients(data=graph_slice(), r_lo=3.0, r_hi=6.0)
    monkeypatch.setattr(SideCoefficients, "blocks", flipped)
    defects = _oracle_side(side, np.random.default_rng(97), 20)
    assert defects[block in ("P", "Q", "Pt", "Qt")] > 1e3 * ORACLE_OPERATOR_TOL


def test_reduce_radial_rejects_nonradial_input():
    from creaselab.catalog import rotated_crease
    from creaselab.geometry import CreaseAngle

    rc = rotated_crease(miao_corner(1.0, 4.0), CreaseAngle.cos_theta(0.2))
    with pytest.raises(RadialError):
        reduce_radial(rc)  # nonconstant angle
    mc = miao_corner(1.0, 4.0)
    with pytest.raises(RadialError):
        reduce_radial(dataclasses.replace(mc, minus=dataclasses.replace(mc.minus, profile=None)))


def test_reduced_coefficients_schwarzschild_closed_form(miao_problem):
    side = miao_problem.plus
    for r in (5.0, 10.0):
        p = side.data.profile(np.array([r]))
        root = math.sqrt(1.0 - 2.0 / r)
        table = side.blocks(p)
        assert 1.0 / p.A[0] == pytest.approx(root, abs=1e-14)  # F
        assert radial.mu_c(p)[0] == pytest.approx((1.0 - root) / r, abs=1e-14)
        assert table["r1"].own[0] == pytest.approx(2.0 / r - (1.0 - root) / r, abs=1e-14)  # (n-1)(G/r - mu_c/2)
        assert -table["r2"].own[0] == pytest.approx((1.0 - root) / r, abs=1e-14)  # (n-1) mu_c/2
        assert table["Qt"].own[0] == pytest.approx(0.5 * (1.0 - root) / r, abs=1e-14)


def test_reduced_operator_annihilates_constants_on_flat(trivial_problem):
    # constant U, V = 0 solves the flat radial system exactly, on spinors and on the channel
    p = trivial_problem.minus.data.profile(np.linspace(0.2, 0.9, 7))
    for U, tau in ((np.ones((7, 4), dtype=complex), TAU), (np.ones(7), None)):
        b = apply_blocks(trivial_problem.minus, p, U, 0.0 * U, 0.0 * U, 0.0 * U, tau)
        assert np.max(np.abs(b["r1"])) == 0.0
        assert np.max(np.abs(b["r2"])) == 0.0


def test_apply_blocks_channel_is_the_spinor_table_on_the_tau_lift(miao_problem):
    """U = u psi, V = v tau psi turns every spinor block into its channel value times psi or tau psi."""
    side = _with_extrinsic_curvature(miao_problem).plus
    rng = np.random.default_rng(8)
    p = side.data.profile(np.linspace(4.5, 30.0, 9))
    u, du, v, dv = rng.normal(size=(4, 9))
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    tau_psi = TAU @ psi
    spinor = apply_blocks(side, p, *(np.outer(f, w) for f, w in ((u, psi), (du, psi), (v, tau_psi), (dv, tau_psi))),
                          TAU)
    channel = apply_blocks(side, p, u, du, v, dv)
    for name, block in side.blocks(p).items():
        lift = psi if block.field == "U" else tau_psi
        assert np.max(np.abs(spinor[name] - np.outer(channel[name], lift))) <= 1e-15 * np.max(np.abs(spinor[name]))


# ---------------------------------------------------------------------------
# discretization


def _dense_derivative(m, h):
    """Dense copy of derivative_matrix's five-node windows."""
    coef, start = derivative_matrix(m, h)
    dense = np.zeros((m, m))
    for i in range(m):
        dense[i, start[i] : start[i] + 5] = coef[i]
    return dense


def _dense_rows(rows):
    """Dense copy of a WindowRows matrix, its window columns outside [0, n) dropped."""
    out = np.zeros(rows.shape)
    cols = rows.start[:, None] + np.arange(rows.coef.shape[1])
    inside = (cols >= 0) & (cols < rows.n)
    np.add.at(out, (np.nonzero(inside)[0], cols[inside]), rows.coef[inside])
    return out


def test_derivative_matrix_is_4th_order():
    errs = []
    for m in (33, 65):
        r = np.linspace(0.0, 2.0, m)
        D = _dense_derivative(m, r[1] - r[0])
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
    assert np.array_equal(_dense_derivative(m, h), dense * (1.0 / (12.0 * h)))
    # every row's window holds its five stencil nodes
    coef, start = derivative_matrix(m, h)
    assert np.count_nonzero(coef) == int(np.count_nonzero(dense))


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
        D = _dense_derivative(n + 1, h)
        U, dU, V, dV = exact_profiles(r)
        p = side.data.profile(r)
        exact = apply_blocks(side, p, U, dU, V, dV, TAU)
        disc = apply_blocks(side, p, U, D @ U, V, D @ V, TAU)
        errs.append(max(np.max(np.abs(disc[k] - exact[k])) for k in ("r1", "r2")))
    ratio = errs[0] / errs[1]
    assert 8.0 < ratio < 40.0


def test_assemble_transmission_block(miao_problem):
    from creaselab.cliffords import spinor_rotation

    grid = RadialGrid(n_minus=64, n_plus=64, r_max=40.0)
    f = math.log(2.0)
    import dataclasses

    prob = _with_angle(miao_problem, f)
    system = assemble(prob, grid)
    blk = system.transmission_block
    # the mode transmission matrix realizes the spinor rotation: check the
    # defining identities cosh/sinh block structure reproduces A, B
    A, B = math.cosh(f / 2.0), math.sinh(f / 2.0)
    eye = np.eye(4)
    assert np.allclose(blk[:4, :4], A * eye, atol=1e-15)
    assert np.allclose(blk[4:, 4:], A * eye, atol=1e-15)
    assert np.allclose(blk[:4, 4:], B * TAU.real, atol=1e-15)
    # and it intertwines with the fiberwise spinor rotation at the normal slot:
    # (A + B eps) acting on U + (omega Gamma) V at omega = e_3 reproduces blk
    rot = spinor_rotation(f)
    U = np.array([1.0, 0.5, -0.25, 0.125], dtype=complex)
    V = np.array([0.3, -0.1, 0.7, 0.2], dtype=complex)
    c = U + GAMMA[2] @ V
    rotated = rot @ c
    stack = blk @ np.concatenate([U, V])
    expect = stack[:4] + GAMMA[2] @ stack[4:]
    assert np.max(np.abs(rotated - expect)) < 1e-13


def test_assemble_trivial_crease_trace_continuity(trivial_problem):
    grid = RadialGrid(n_minus=64, n_plus=64, r_max=20.0)
    system = assemble(trivial_problem, grid)
    assert np.allclose(system.transmission_block, np.eye(8), atol=1e-15)


def test_constraint_map_satisfies_constraints(miao_problem):
    """The node values of every x meet the channel transmission, v_-(0) = 0 and the Dirichlet rows."""
    grid = RadialGrid(n_minus=64, n_plus=128, r_max=40.0)
    problem = _with_angle(miao_problem, 0.3)
    system = assemble(problem, grid)
    rng = np.random.default_rng(5)
    Mm, Mp = len(system.r_minus), len(system.r_plus)
    assert system.A.shape[1] == 2 * (Mm + Mp) - 5
    R = _rotation_blocks(np.eye(1), problem.cd.angle.constant)
    for _ in range(3):
        x = rng.normal(size=system.A.shape[1])
        um, vm, up, vp = system.nodes(x)
        assert [len(a) for a in (um, vm, up, vp)] == [Mm, Mm, Mp, Mp]
        trace_minus = np.array([um[-1], vm[-1]])
        trace_plus = np.array([up[0], vp[0]])
        assert np.max(np.abs(trace_minus - R @ trace_plus)) <= 1e-14
        assert abs(vm[0]) <= 1e-14
        assert abs(up[-1] - 1.0) <= 1e-14
        assert abs(vp[-1]) <= 1e-14


def _with_angle(problem, f):
    """The problem with the constant crease angle f."""
    return dataclasses.replace(problem, cd=problem.cd.with_angle(CreaseAngle.from_constant(f)))


def _with_extrinsic_curvature(problem):
    """The problem with nonzero kappa_n, kappa_t on both sides, so every tau block is exercised."""

    def side(s, a):
        profile = s.data.profile

        def bumped(r):
            return profile(r)._replace(kappa_n=a / (1.0 + r**2), kappa_t=-0.7 * a * r / (1.0 + r**2),
                                       dkappa_t=-0.7 * a * (1.0 - r**2) / (1.0 + r**2) ** 2)

        return dataclasses.replace(s, data=dataclasses.replace(s.data, profile=bumped))

    return dataclasses.replace(problem, minus=side(problem.minus, 0.03), plus=side(problem.plus, 0.05))


def _kron_side_blocks(side, r, skip_first, tau):
    """Reference build of one side's weighted residual rows and |nabla-bar|^2 form on the
    spinor index of the real involution tau (I = len(tau) components per node), one
    kron/hstack block per term and one triple product per gradient block."""
    import scipy.sparse as sp

    from creaselab.radial import _hat_weights

    I = len(tau)
    eyeI = sp.identity(I, format="csr")
    tau_s = sp.csr_matrix(tau)
    rr = np.where(r > 0, r, r[1])
    prof = side.data.profile(rr)
    F = sp.diags(1.0 / prof.A)
    FD = (F @ sp.csr_matrix(_dense_derivative(len(r), r[1] - r[0]))).tocsr()
    w = _hat_weights(r, moment=0) * side.volume_factor(prof) * (4.0 * math.pi)
    if skip_first:
        w[0] = 0.0
    # the coefficients written out from the profile, not read off `side.blocks`
    n1 = 2  # tangential directions
    gr_vals = (1.0 / prof.B) / rr - 0.5 * radial.mu_c(prof)
    ell = sp.diags(n1 * gr_vals)
    m_c = sp.diags(0.5 * n1 * radial.mu_c(prof))
    trk = sp.diags(0.5 * (prof.kappa_n + n1 * prof.kappa_t))
    r1 = sp.hstack([sp.kron(trk, tau_s), sp.kron(FD + ell, eyeI)], format="csr")
    r2 = sp.hstack([sp.kron(FD - m_c, eyeI), sp.kron(trk, tau_s)], format="csr")
    keep2 = np.concatenate([np.repeat(w > 0, I)] * 2)
    weights2 = np.concatenate([np.sqrt(np.repeat(w, I))] * 2)
    residual = (sp.diags(weights2[keep2]) @ sp.vstack([r1, r2], format="csr")[keep2]).tocsr()

    kn = sp.diags(0.5 * prof.kappa_n)
    kt = sp.diags(0.5 * prof.kappa_t)
    gr = sp.diags(gr_vals)
    muh = sp.diags(0.5 * radial.mu_c(prof))
    P = sp.hstack([sp.kron(FD, eyeI), sp.kron(kn, tau_s)], format="csr")
    Q = sp.hstack([sp.kron(kn, tau_s), sp.kron(FD, eyeI)], format="csr")
    Pt = sp.hstack([sp.kron(kt, tau_s), sp.kron(gr, eyeI)], format="csr")
    Qt = sp.hstack([sp.kron(muh, eyeI), -sp.kron(kt, tau_s)], format="csr")
    wI = np.repeat(w, I)
    grad = sum(op.T @ sp.diags(wgt * wI) @ op for op, wgt in ((P, 1.0), (Q, 1.0), (Pt, n1), (Qt, n1)))
    return residual, grad.tocsr()


def _kron_mass_diagonal(problem, system, I):
    """Diagonal of the |psi/rho|^2 form with I components per node."""
    from creaselab.radial import _hat_weights

    mass = []
    for side, r in ((problem.minus, system.r_minus), (problem.plus, system.r_plus)):
        rr = np.where(r > 0, r, r[1])
        prof = side.data.profile(rr)
        w2 = _hat_weights(r, moment=2) * prof.A * prof.B**2 * (4.0 * math.pi)
        mass.append(np.tile(np.repeat(w2 / (r**2 + (0.5 * problem.cd.r0) ** 2), I), 2))
    return np.concatenate(mass)


def _constraint_map(system):
    """S and b of the stacked vector [u_-, v_-, u_+, v_+] = S x + b, read off `system.nodes`."""
    b = np.concatenate(system.nodes(np.zeros(system.A.shape[1])))
    return np.column_stack([np.concatenate(system.nodes(e)) - b for e in np.eye(system.A.shape[1])]), b


@pytest.mark.parametrize("n_minus,n_plus,r_max", [(64, 128, 40.0), (256, 1024, 400.0)])
def test_assemble_matches_kron_reference(miao_problem, n_minus, n_plus, r_max):
    """The window rows and their block tridiagonal forms equal the blockwise kron/hstack build on the channel
    tau -> 1, with extrinsic curvature and a crease angle, so the one-sided rows couple unknowns nine apart."""
    import scipy.sparse as sp

    problem = _with_angle(_with_extrinsic_curvature(miao_problem), 0.3)
    system = assemble(problem, RadialGrid(n_minus, n_plus, r_max))
    one = np.ones((1, 1))
    rows_m, Gm = _kron_side_blocks(problem.minus, system.r_minus, True, one)
    rows_p, Gp = _kron_side_blocks(problem.plus, system.r_plus, False, one)
    S, b = _constraint_map(system)
    A_full = sp.block_diag([rows_m, rows_p], format="csr").toarray()
    A = _dense_rows(system.A)
    assert Gm.nnz and abs(Gm).max() > 0.0
    for name, have, want in (("A", A, A_full @ S), ("rhs", system.rhs, -(A_full @ b))):
        # entrywise: a relative bound on the largest entry would hide the small tau blocks
        assert (np.abs(have - want) - 1e-14 * np.abs(want)).max() <= 0.0, name
    forms = {
        "normal_matrix": (system.A, A.T @ A),
        "grad_form": (system.grad_rows, S.T @ sp.block_diag([Gm, Gp]).toarray() @ S),
        "mass_form": (system.mass_rows, (S.T * _kron_mass_diagonal(problem, system, 1)) @ S),
    }
    assert np.count_nonzero(np.diag(forms["normal_matrix"][1], -9)) > 0
    for name, (rows, want) in forms.items():
        have, C = _dense(rows.gram()), _dense_rows(rows)
        assert have.shape == want.shape, name
        # entrywise against |C|^T |C|, the roundoff scale of a Gram entry: the crease fold's entries cancel
        assert (np.abs(have - want) - 1e-14 * (np.abs(C).T @ np.abs(C))).max() <= 0.0, name


def _spinor_reference(problem, system):
    """The 4-component system on `system`'s nodes, built with TAU in the original variables.

    Returns the residual rows, the number of minus-side rows, the gradient and
    mass forms and the constraint rows C with their datum template D: the
    constraints are C x = D psi_inf (transmission, V_-(0) = 0, U_+(r_max) = psi_inf,
    V_+(r_max) = 0).
    """
    import scipy.sparse as sp

    tau, I = TAU.real, DIM
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
    C[: 2 * I, trace_p] = -_rotation_blocks(tau, problem.cd.angle.constant)
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
    assert np.allclose(TAU @ data[2], data[2])
    assert np.allclose(TAU @ data[3], -data[3])
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
        # the channel values lifted as U = u psi_inf, V = v tau psi_inf
        for u, psi, want in ((sol.u_minus, psi_inf, um), (sol.v_minus, TAU @ psi_inf, vm),
                             (sol.u_plus, psi_inf, up), (sol.v_plus, TAU @ psi_inf, vp)):
            assert np.max(np.abs(np.outer(u, psi) - want)) <= 1e-10 * scale
        res = A_full @ x
        assert sol.residual_norm_minus == pytest.approx(np.linalg.norm(res[:n_minus_rows]), rel=1e-9)
        assert sol.residual_norm_plus == pytest.approx(np.linalg.norm(res[n_minus_rows:]), rel=1e-9)
        assert sol.transmission_defect <= 1e-13 and sol.origin_defect <= 1e-13
        w_m, w_p = system.norm_weights[:Mm], system.norm_weights[Mm:]
        norm_sq = sum(np.sum(w[:, None] * np.abs(f) ** 2) for w, f in ((w_m, um), (w_m, vm), (w_p, up), (w_p, vp)))
        assert sol.solution_norm == pytest.approx(math.sqrt(norm_sq), rel=1e-9)


def test_poincare_matches_spinor_component_eigenvalue(miao_problem):
    """The channel forms' smallest eigenvalue is the 4-component one on the constraint space."""
    import scipy.linalg as sla

    problem = _with_extrinsic_curvature(miao_problem)
    grid = RadialGrid(n_minus=64, n_plus=128, r_max=40.0)
    _, _, grad, mass, C, _ = _spinor_reference(problem, assemble(problem, grid))
    Z = sla.null_space(C)
    lam = sla.eigh(Z.T @ grad @ Z, (Z.T * mass) @ Z, eigvals_only=True, subset_by_index=[0, 0])[0]
    assert poincare_estimate(problem, grid) == pytest.approx(lam, rel=1e-10)


def test_each_reader_builds_only_the_row_sets_it_reads(monkeypatch, miao_problem):
    """solve builds the residual rows alone; poincare_estimate the gradient rows (width 10) and mass rows (width 2)."""
    widths = []

    class Counted(radial.spla.WindowRows):
        def __post_init__(self):
            widths.append(self.coef.shape[1])
            super().__post_init__()

    monkeypatch.setattr(radial.spla, "WindowRows", Counted)
    grid = RadialGrid(n_minus=64, n_plus=128, r_max=40.0)
    solve(assemble(miao_problem, grid), PSI_INF)
    assert widths == [10]
    widths.clear()
    poincare_estimate(miao_problem, grid)
    assert sorted(widths) == [2, 10]


def test_solve_peak_memory_per_unknown():
    """The traced peak of assembling and solving stays below 700 bytes per unknown; building the gradient and mass
    rows for solve too, and holding the normal matrix to the end, reads 834."""
    problem = reduce_radial(miao_corner(1.0, 3.0))

    def peak_per_unknown(grid):
        tracemalloc.start()
        try:
            system = assemble(problem, grid)
            solve(system, PSI_INF)
            return tracemalloc.get_traced_memory()[1] / system.A.shape[1]
        finally:
            tracemalloc.stop()

    peak_per_unknown(RadialGrid(64, 128, 40.0))  # fills the module caches before anything is measured
    assert peak_per_unknown(RadialGrid(256, 1024, 400.0)) <= 700.0


def test_grid_validation():
    with pytest.raises(RadialError):
        RadialGrid(n_minus=32, n_plus=64, r_max=10.0).validate()
    with pytest.raises(RadialError):
        RadialGrid(n_minus=65, n_plus=64, r_max=10.0).validate()
    RadialGrid(n_minus=radial.MAX_INTERVALS, n_plus=64, r_max=10.0).validate()
    for n_minus, n_plus in ((radial.MAX_INTERVALS + 2, 64), (64, radial.MAX_INTERVALS + 2)):
        with pytest.raises(RadialError, match="at most"):
            RadialGrid(n_minus=n_minus, n_plus=n_plus, r_max=10.0).validate()
    RadialGrid(n_minus=64, n_plus=64, r_max=radial.MAX_R_MAX).validate()
    for r_max in (2.0 * radial.MAX_R_MAX, math.inf, math.nan):
        with pytest.raises(RadialError, match="r_max must be at most"):
            RadialGrid(n_minus=64, n_plus=64, r_max=r_max).validate()


# ---------------------------------------------------------------------------
# solving


def test_trivial_crease_constant_solution(trivial_problem):
    grid = RadialGrid(n_minus=64, n_plus=128, r_max=12.0)
    sol = solve(assemble(trivial_problem, grid), PSI_INF)
    assert max(float(np.max(np.abs(u - 1.0))) for u in (sol.u_minus, sol.u_plus)) <= 1e-8
    assert max(float(np.max(np.abs(v))) for v in (sol.v_minus, sol.v_plus)) <= 1e-8
    assert sol.transmission_defect <= 1e-12
    assert sol.origin_defect <= 1e-12


def test_zero_datum_gives_zero(trivial_problem):
    grid = RadialGrid(n_minus=64, n_plus=128, r_max=12.0)
    sol = solve(assemble(trivial_problem, grid), np.zeros(4, dtype=complex))
    assert sol.solution_norm == 0.0 and sol.residual_norm == 0.0
    assert sol.transmission_defect == 0.0 and sol.origin_defect == 0.0
    mass = adm_energy_momentum(trivial_problem.cd.plus, [4.0, 8.0, 12.0], order=12)
    gap = mass_gap(sol, mass)
    assert gap.bulk_term == 0.0 and gap.crease_term == 0.0


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
    psi_inf = np.array([0.6, -0.3j, 0.2 + 0.5j, 0.1])  # not of unit norm, and with both tau-eigenparts
    sol = solve(assemble(reduce_radial(cd), RadialGrid(n_minus=64, n_plus=128, r_max=100.0)), psi_inf)
    gap = mass_gap(sol, adm_energy_momentum(cd.plus, [25.0, 50.0, 100.0], order=12))
    hg_m, hg_p = (hypersurface_geometry(d, cd.r0, np.array([[1.0, 0.0, 0.0]])) for d in (cd.minus, cd.plus))
    nu_rot = math.cosh(f) * hg_m.H[0] + math.sinh(f) * hg_m.trk[0]
    tau_rot = math.sinh(f) * hg_m.H[0] + math.cosh(f) * hg_m.trk[0]
    Up, Vp = sol.u_plus[0] * psi_inf, sol.v_plus[0] * (TAU @ psi_inf)
    psi_sq = float((np.vdot(Up, Up) + np.vdot(Vp, Vp)).real)
    eps_pair = 2.0 * float(np.vdot(Up, TAU @ Vp).real)
    area = 4.0 * math.pi * float(hg_p.area_element[0])
    expected = 0.5 * area * ((hg_p.H[0] - nu_rot) * psi_sq + (hg_p.trk[0] - tau_rot) * eps_pair)
    assert abs(expected) > 1e-3
    assert gap.crease_term == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("m,r0", [(1.0, 4.0), (1.0, 3.0), (0.95, 3.1)])
def test_closed_form_solution_zeroes_the_table_and_closes_the_gap(m, r0):
    """On miao_corner, u = ((1 + F)/2)^2 with F = sqrt(1 - 2m/r) outside, its crease value inside, and v = 0.

    That solution zeroes the table's r1 and r2 rows on both sides, and with the
    table's gradient blocks and the crease term of `crease_report_for` it
    closes the gap identity 4 pi m - Dirichlet + crease term = 0 (vacuum on
    both sides, so no matter term); the exterior integral is Gauss-Legendre
    in s = r0/r over (0, 1].
    """
    cd = miao_corner(m, r0)
    problem = reduce_radial(cd)
    x, w = np.polynomial.legendre.leggauss(200)
    s, w = 0.5 * (x + 1.0), 0.5 * w
    r = r0 / s
    F = np.sqrt(1.0 - 2.0 * m / r)
    u, du, zero = ((1.0 + F) / 2.0) ** 2, 0.5 * (1.0 + F) * m / (r**2 * F), np.zeros_like(r)
    u0 = ((1.0 + math.sqrt(1.0 - 2.0 * m / r0)) / 2.0) ** 2
    r_in = r0 * s
    inside = apply_blocks(problem.minus, cd.minus.profile(r_in), np.full_like(r_in, u0), zero, zero, zero)
    outside = apply_blocks(problem.plus, cd.plus.profile(r), u, du, zero, zero)
    for b in (inside, outside):
        assert max(np.max(np.abs(b["r1"])), np.max(np.abs(b["r2"]))) <= 1e-14
    # the interior blocks all vanish: flat data, constant u
    assert max(np.max(np.abs(v)) for v in inside.values()) == 0.0
    dens = outside["P"] ** 2 + outside["Q"] ** 2 + 2.0 * (outside["Pt"] ** 2 + outside["Qt"] ** 2)
    vol = problem.plus.volume_factor(cd.plus.profile(r))
    dirichlet = 4.0 * math.pi * np.sum(w * dens * vol * r0 / s**2)  # dr = r0 ds / s^2
    report = crease_report_for(cd, order=4)
    crease_term = -0.5 * 4.0 * math.pi * report.area_element[0] * report.nu_component[0] * u0**2
    closure = 4.0 * math.pi * m - dirichlet + crease_term
    assert abs(closure) <= 1e-12 * 4.0 * math.pi * m


def test_mass_gap_dirichlet_is_the_spinor_table_integral(miao_problem):
    """The channel Dirichlet part times |psi_inf|^2 is the table on the lifted spinors, integrated the same way."""
    problem = _with_extrinsic_curvature(miao_problem)
    psi_inf = np.array([0.6, -0.3j, 0.2 + 0.5j, 0.1])
    sol = solve(assemble(problem, RadialGrid(n_minus=64, n_plus=128, r_max=100.0)), psi_inf)
    gap = mass_gap(sol, adm_energy_momentum(problem.cd.plus, [25.0, 50.0, 100.0], order=12))
    expected = 0.0
    for side, r, u, v in ((problem.minus, sol.system.r_minus, sol.u_minus, sol.v_minus),
                          (problem.plus, sol.system.r_plus, sol.u_plus, sol.v_plus)):
        U, V = np.outer(u, psi_inf), np.outer(v, TAU @ psi_inf)
        D = _dense_derivative(len(r), r[1] - r[0])
        p = side.data.profile(np.where(r > 0, r, r[1]))
        b = apply_blocks(side, p, U, D @ U, V, D @ V, TAU)
        dens = sum(wt * np.sum(np.abs(b[k]) ** 2, axis=1) for k, wt in (("P", 1), ("Q", 1), ("Pt", 2), ("Qt", 2)))
        dens = dens * side.volume_factor(p) * 4.0 * math.pi
        dens[0] = 0.0 if r[0] == 0.0 else dens[0]
        expected += radial._simpson(dens, r[1] - r[0])
    assert gap.dirichlet_part == pytest.approx(expected, rel=1e-12)


def test_mass_gap_flags_violated_hypothesis():
    neg = miao_corner(-0.2, 4.0)
    prob = reduce_radial(neg)
    grid = RadialGrid(n_minus=128, n_plus=256, r_max=100.0)
    sol = solve(assemble(prob, grid), PSI_INF)
    mass = adm_energy_momentum(neg.plus, [25.0, 50.0, 100.0], order=12)
    gap = mass_gap(sol, mass)
    assert not gap.dec_creased
    assert gap.bulk_dec_satisfied  # vacuum on both sides: the crease hypothesis alone fails


def test_mass_gap_needs_no_second_metric_derivative(matter_problem):
    """mu and J come off the profile: mass_gap calls neither side's d2g nor its dk."""
    problem = matter_problem
    sol = solve(assemble(problem, RadialGrid(n_minus=64, n_plus=128, r_max=100.0)), PSI_INF)
    mass = adm_energy_momentum(problem.cd.plus, [25.0, 50.0, 100.0], order=12)

    def unreachable(x):
        raise AssertionError("mass_gap evaluated d2g or dk")

    cd = problem.cd
    minus, plus = (dataclasses.replace(d, d2g=unreachable, dk=unreachable) for d in (cd.minus, cd.plus))
    stripped = dataclasses.replace(
        problem, cd=dataclasses.replace(cd, minus=minus, plus=plus),
        minus=dataclasses.replace(problem.minus, data=minus), plus=dataclasses.replace(problem.plus, data=plus),
    )
    with pytest.raises(AssertionError):
        constraint_fields(plus, np.array([[4.0, 0.0, 0.0]]))  # the 3-D constraints would call them
    assert mass_gap(dataclasses.replace(sol, system=dataclasses.replace(sol.system, problem=stripped)), mass) \
        == mass_gap(sol, mass)


def _matter_part_by_constraint_fields(sol):
    """The matter part and bulk DEC flag by the 3-D constraint fields of the radial nodes on the x-axis."""
    matter, dec = 0.0, True
    for side, r, u, v in ((sol.system.problem.minus, sol.system.r_minus, sol.u_minus, sol.v_minus),
                          (sol.system.problem.plus, sol.system.r_plus, sol.u_plus, sol.v_plus)):
        rr = np.where(r > 0, r, r[1])
        mu, jx = [], []
        for f in geometry.field_blocks(side.data, rr[:, None] * np.array([1.0, 0.0, 0.0])):
            cons = constraint_fields(side.data, f)
            dec = dec and bool(np.all(cons.mu >= cons.momentum_norm(side.data, f) - 1e-7))
            mu, jx = mu + [cons.mu], jx + [cons.J[:, 0]]
        p = side.data.profile(rr)
        mu, jn = np.concatenate(mu), np.concatenate(jx) / p.A
        dens = 0.5 * (mu * (u * u + v * v) + jn * (2.0 * u * v)) * side.volume_factor(p) * 4.0 * math.pi
        dens[0] = 0.0 if r[0] == 0.0 else dens[0]
        matter += radial._simpson(dens, r[1] - r[0])
    return float(np.vdot(sol.psi_inf, sol.psi_inf).real) * matter, dec


def test_mass_gap_matter_term_on_data_with_matter(matter_problem):
    """The closed-form matter term is the 3-D constraint fields' one on a ball with mu != 0 and J != 0."""
    problem = matter_problem
    psi_inf = np.array([0.6, -0.3j, 0.2 + 0.5j, 0.1])
    sol = solve(assemble(problem, RadialGrid(n_minus=256, n_plus=512, r_max=100.0)), psi_inf)
    gap = mass_gap(sol, adm_energy_momentum(problem.cd.plus, [25.0, 50.0, 100.0], order=12))
    matter, dec = _matter_part_by_constraint_fields(sol)
    assert abs(matter) > 0.1
    assert gap.matter_part == pytest.approx(matter, rel=1e-12, abs=0.0)
    assert gap.bulk_dec_satisfied == dec


def test_mass_gap_matter_term_integrates_every_node(monkeypatch, miao_problem):
    # with mu = 1 and J = 0 the matter part is half the integral of |psi|^2 dV, the crease and origin nodes included
    from scipy.integrate import simpson

    psi_inf = np.array([0.6, -0.3j, 0.2 + 0.5j, 0.1])
    sol = solve(assemble(miao_problem, RadialGrid(n_minus=64, n_plus=128, r_max=100.0)), psi_inf)
    mass = adm_energy_momentum(miao_problem.cd.plus, [25.0, 50.0, 100.0], order=12)

    monkeypatch.setattr(radial, "matter_densities", lambda p: (np.ones_like(p.r), np.zeros_like(p.r)))
    expected = 0.0
    for side, r, u, v in ((miao_problem.minus, sol.system.r_minus, sol.u_minus, sol.v_minus),
                          (miao_problem.plus, sol.system.r_plus, sol.u_plus, sol.v_plus)):
        U, V = np.outer(u, psi_inf), np.outer(v, TAU @ psi_inf)
        psi_sq = np.sum(np.abs(U) ** 2 + np.abs(V) ** 2, axis=1)
        expected += 0.5 * simpson(psi_sq * side.volume_factor(side.data.profile(r)) * 4.0 * math.pi, dx=r[1] - r[0])
    assert mass_gap(sol, mass).matter_part == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("jn,dec", [(0.5, True), (-0.5, True), (1.5, False), (-1.5, False)])
def test_mass_gap_bulk_dec_compares_mu_with_the_momentum_norm(monkeypatch, trivial_problem, jn, dec):
    # mu >= |J|: the sign of J.nu does not matter
    sol = solve(assemble(trivial_problem, RadialGrid(n_minus=64, n_plus=128, r_max=12.0)), PSI_INF)
    mass = adm_energy_momentum(trivial_problem.cd.plus, [4.0, 8.0, 12.0], order=12)
    monkeypatch.setattr(radial, "matter_densities", lambda p: (np.ones_like(p.r), np.full_like(p.r, jn)))
    assert mass_gap(sol, mass).bulk_dec_satisfied is dec


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
    base = trivial_problem
    lam0 = poincare_estimate(base, RadialGrid(n_minus=128, n_plus=128, r_max=30.0))
    eps = 1e-3

    def bump_profile(profile):
        return lambda r: profile(r)._replace(kappa_n=eps / (1.0 + r**2), kappa_t=eps / (1.0 + r**2),
                                             dkappa_t=-2.0 * eps * r / (1.0 + r**2) ** 2)

    minus_data = dataclasses.replace(base.minus.data, profile=bump_profile(base.minus.data.profile))
    plus_data = dataclasses.replace(base.plus.data, profile=bump_profile(base.plus.data.profile))
    minus = dataclasses.replace(base.minus, data=minus_data)
    plus = dataclasses.replace(base.plus, data=plus_data)
    prob = dataclasses.replace(base, minus=minus, plus=plus)
    lam1 = poincare_estimate(prob, RadialGrid(n_minus=128, n_plus=128, r_max=30.0))
    assert abs(lam1 - lam0) <= 50.0 * eps
    assert abs(lam1 - lam0) > 0.0
