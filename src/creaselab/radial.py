"""Radial Dirac-Witten transmission problem for spherically symmetric creases.

For metrics A(r)^2 dr^2 + (r B(r))^2 dOmega^2 with extrinsic curvature
diagonal in the adapted frame, the lowest angular sector

    psi(x) = U(r) + (omega . Gamma) V(r),     U, V : (0, infty) -> C^I

is closed under the Dirac-Witten operator when spinor components are taken
in the symmetric-square-root frame g^{-1/2} d/dx.  Writing F = 1/A,
G = 1/B,

    mu_c = -B'/(A B) - 1/(r A) + 1/(r B),
    ell  = (n-1) (G/r - mu_c/2),   m_c = (n-1) mu_c / 2,
    trk  = kappa_n + (n-1) kappa_t,

the operator acts as

    D_W psi = -(F V' + ell V + trk/2 tau U)
              + (omega . Gamma) (F U' - m_c U + trk/2 tau V),

and the squared spacetime-connection norm reduces to four radial blocks

    P = F U' + kappa_n/2 tau V          Q = F V' + kappa_n/2 tau U
    Pt = (G/r - mu_c/2) V + kappa_t/2 tau U
    Qt = (mu_c/2) U - kappa_t/2 tau V

with |nabla-bar psi|^2 integrating to omega_{n-1} (|P|^2 + |Q|^2 +
(n-1)(|Pt|^2 + |Qt|^2)) A B^{n-1} r^{n-1} dr.  None of this is trusted
blindly: reduce_radial certifies the reduction against the full operator
before a problem is returned.

The boundary-value problem (both interior equations, the transmission
rotation at the crease, odd-parity regularity V(0) = 0, and a Dirichlet
approximation psi(r_max) = psi_inf of the decay condition) is solved by
minimizing the quadrature-weighted residual norm over the affine space
satisfying the constraints exactly, through a sparse LU factorization of
the normal equations.

The coefficients are real and reach the spinor index only through 1 and
the real symmetric involution tau, so the problem is discretized on one real
scalar channel, tau -> 1, not I components: since tau^2 = 1 the substitution
U = u psi_inf, V = v tau psi_inf turns every equation and constraint into the
channel one times psi_inf or tau psi_inf, and the solution for psi_inf is that
lift of the channel solution (u, v) for the datum 1.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bartnik import crease_report_for
from .cliffords import CliffordRep
from .geometry import (
    CreasedData,
    GeometryError,
    InitialData,
    PointFields,
    as_fields,
    constraint_fields,
    field_blocks,
    unit_sphere_volume,
)
from .integrals import MassReport, _gamma_contract, flux_mass_pairing, sen_derivatives
from .spinorfields import SpinorField, rotation_between_frames, spin_lift


class RadialError(GeometryError):
    pass


class ReductionOracleError(RadialError):
    pass


# ---------------------------------------------------------------------------
# radial coefficients of one side


@dataclass(frozen=True)
class SideCoefficients:
    """Radial coefficient closures of the reduced operator on one side."""

    data: InitialData
    r_lo: float
    r_hi: float

    def F(self, r):
        return 1.0 / self.data.profile.A(r)

    def G(self, r):
        return 1.0 / self.data.profile.B(r)

    def mu_c(self, r):
        p = self.data.profile
        A, B = p.A(r), p.B(r)
        return -p.dB(r) / (A * B) - 1.0 / (r * A) + 1.0 / (r * B)

    def ell(self, r):
        n = self.data.n
        return (n - 1) * (self.G(r) / r - 0.5 * self.mu_c(r))

    def m_c(self, r):
        return (self.data.n - 1) * 0.5 * self.mu_c(r)

    def trk(self, r):
        p = self.data.profile
        return p.kappa_n(r) + (self.data.n - 1) * p.kappa_t(r)

    def volume_factor(self, r):
        p = self.data.profile
        return p.A(r) * p.B(r) ** (self.data.n - 1) * r ** (self.data.n - 1)


def spd_frame(data: InitialData, x: np.ndarray) -> np.ndarray:
    """Symmetric-square-root frame rows for spherically symmetric data."""
    p = data.profile
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    om = pts / r[:, None]
    P = om[:, :, None] * om[:, None, :]
    eye = np.eye(data.n)
    return (1.0 / p.B(r))[:, None, None] * (eye[None] - P) + (1.0 / p.A(r))[:, None, None] * P


def _spd_to_bulk_lift(rep: CliffordRep, data: InitialData, x) -> np.ndarray:
    """Spin lift (m, I, I) taking symmetric-square-root-frame components to bulk-frame ones at x."""
    f = as_fields(data, x)
    return spin_lift(rep, rotation_between_frames(f.g, frame_from=spd_frame(data, f.x), frame_to=f.frame))


def mode_field(rep: CliffordRep, data: InitialData, u_of_r, v_of_r, du_of_r, dv_of_r) -> SpinorField:
    """Bulk-frame spinor field of the separated form U(r) + (omega.Gamma) V(r), with its gradient.

    The mode profiles live in the symmetric-square-root gauge; components
    are rotated into the deterministic bulk frame pointwise, c = L c_spd,
    through the spin lift L of the (small-angle) frame rotation
    O = F_bulk g F_spd^T.  The Cartesian gradient is the product rule
    d_k c = (d_k L) c_spd + L d_k c_spd in closed form, from d_k F_bulk =
    -Phi(F d_k g F^T) F, from A, B and their radial derivatives (A' read off
    dg) for d_k F_spd, and from U', V' (`du_of_r`, `dv_of_r`) for the mode.
    """

    def mode(x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        om = pts / r[:, None]
        omg = np.einsum("mi,iIK->mIK", om, rep.gamma)
        V = np.asarray(v_of_r(r), dtype=complex)
        return pts, r, om, omg, V, np.asarray(u_of_r(r), dtype=complex) + np.einsum("mIK,mK->mI", omg, V)

    def values(x):
        pts, *_, c_spd = mode(x)
        return np.einsum("mIK,mK->mI", _spd_to_bulk_lift(rep, data, pts), c_spd)

    def gradient(x):
        pts, r, om, omg, V, c_spd = mode(x)
        f, p, A, B = PointFields(data, pts), data.profile, data.profile.A(r), data.profile.B(r)
        dA = np.einsum("mi,mijl,mj,ml->m", om, f.dg, om, om) / (2.0 * A)  # d_r g(omega, omega) = 2 A A'
        P, S, col = om[:, :, None] * om[:, None, :], spd_frame(data, pts), (lambda s: s[:, None, None, None])
        T = np.eye(data.n) - P
        # d_k S = omega_k (-(B'/B^2) T - (A'/A^2) P) + (1/A - 1/B) d_k P, with r d_k P_ij = T_ik om_j + om_i T_jk
        dS = om[:, :, None, None] * (col(-p.dB(r) / B**2) * T[:, None] - col(dA / A**2) * P[:, None])
        dS += col((1.0 / A - 1.0 / B) / r) * (np.einsum("mik,mj->mkij", T, om) + np.einsum("mi,mjk->mkij", om, T))
        F, Fk, dg = f.frame, f.frame[:, None], np.moveaxis(f.dg, -1, 1)  # dg[m, k] = d_k g
        phi = np.tril(np.ones((data.n, data.n)), -1) + 0.5 * np.eye(data.n)
        dF = -(phi * (Fk @ dg @ np.swapaxes(Fk, -1, -2))) @ Fk  # d_k F_bulk
        dO = (dF @ f.g[:, None] + Fk @ dg) @ S[:, None] + (F @ f.g)[:, None] @ dS  # S and dS are symmetric
        sigma, dsigma = spin_lift(rep, F @ f.g @ S, dO)
        # d_k c_spd = (U' + (omega.Gamma) V') omega_k + (T_kj / r) Gamma^j V
        d_radial = du_of_r(r) + np.einsum("mIK,mK->mI", omg, dv_of_r(r))
        dc_spd = d_radial[:, None] * om[:, :, None] + np.einsum("mkj,jIK,mK->mkI", T / r[:, None, None], rep.gamma, V)
        grad = np.einsum("mkIK,mK->mkI", dsigma, c_spd) + np.einsum("mIK,mkK->mkI", sigma, dc_spd)
        return np.swapaxes(grad, -1, -2)

    return SpinorField(rep=rep, values=values, cartesian_gradient=gradient)


def mode_operator_values(rep: CliffordRep, side: SideCoefficients, r, U, dU, V, dV):
    """Reduced D_W on the mode: returns (one_part, omega_part) at radii r."""
    r = np.asarray(r, dtype=float)
    F = side.F(r)[:, None]
    ell = side.ell(r)[:, None]
    m_c = side.m_c(r)[:, None]
    trk = side.trk(r)[:, None]
    tau = rep.tau
    tU = np.einsum("IK,mK->mI", tau, U)
    tV = np.einsum("IK,mK->mI", tau, V)
    one = -(F * dV + ell * V + 0.5 * trk * tU)
    omega = F * dU - m_c * U + 0.5 * trk * tV
    return one, omega


def mode_gradient_blocks(rep: CliffordRep, side: SideCoefficients, r, U, dU, V, dV):
    """The four radial blocks P, Q, Pt, Qt of the spacetime-connection norm."""
    r = np.asarray(r, dtype=float)
    p = side.data.profile
    F = side.F(r)[:, None]
    G = side.G(r)[:, None]
    mu_c = side.mu_c(r)[:, None]
    kn = p.kappa_n(r)[:, None]
    kt = p.kappa_t(r)[:, None]
    tau = rep.tau
    tU = np.einsum("IK,mK->mI", tau, U)
    tV = np.einsum("IK,mK->mI", tau, V)
    P = F * dU + 0.5 * kn * tV
    Q = F * dV + 0.5 * kn * tU
    Pt = (G / r[:, None] - 0.5 * mu_c) * V + 0.5 * kt * tU
    Qt = 0.5 * mu_c * U - 0.5 * kt * tV
    return P, Q, Pt, Qt


# ---------------------------------------------------------------------------
# the reduced problem and its certification oracle


# the largest oracle defects certified; both read roundoff, below 1e-15, on the catalog data
ORACLE_OPERATOR_TOL = 1e-12  # max |D_W psi - reduced D_W psi|
ORACLE_GRADIENT_TOL = 1e-12  # max ||nabla-bar psi|^2 - reduced| / (1 + |nabla-bar psi|^2)


@dataclass(frozen=True)
class OracleReport:
    operator_defect: float
    gradient_defect: float
    radii_checked: int

    @property
    def certified(self) -> bool:
        return self.operator_defect <= ORACLE_OPERATOR_TOL and self.gradient_defect <= ORACLE_GRADIENT_TOL


@dataclass(frozen=True)
class RadialProblem:
    cd: CreasedData
    rep: CliffordRep
    minus: SideCoefficients
    plus: SideCoefficients
    angle: float
    oracle: OracleReport


def _oracle_side(
    rep: CliffordRep, side: SideCoefficients, rng: np.random.Generator, n_radii: int
) -> tuple[float, float]:
    r_lo = side.r_lo if side.r_lo > 0 else 0.12 * side.r_hi
    r_hi = side.r_hi if math.isfinite(side.r_hi) else max(4.0 * max(r_lo, 1.0), 10.0)
    lo = r_lo + 0.08 * (r_hi - r_lo)
    hi = r_hi - 0.08 * (r_hi - r_lo)
    radii = rng.uniform(lo, hi, size=n_radii)
    dirs = rng.normal(size=(n_radii, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = radii[:, None] * dirs

    u0 = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    v0 = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    s = 1.0 / max(r_hi, 1.0)

    def u_of_r(r):
        return (1.0 + 0.5 * np.sin(s * r))[:, None] * u0[None, :]

    def du_of_r(r):
        return (0.5 * s * np.cos(s * r))[:, None] * u0[None, :]

    def v_of_r(r):
        return (s * r + 0.3 * (s * r) ** 2)[:, None] * v0[None, :]

    def dv_of_r(r):
        return (s + 0.6 * s * s * r)[:, None] * v0[None, :]

    field = mode_field(rep, side.data, u_of_r, v_of_r, du_of_r, dv_of_r)
    f = PointFields(side.data, pts)
    sen = sen_derivatives(side.data, rep, field, f)
    full = _gamma_contract(rep, sen)  # the Dirac-Witten operator
    grad_sq_full = np.einsum("mIa,mIa->m", np.conj(sen), sen).real

    U, dU = u_of_r(radii), du_of_r(radii)
    V, dV = v_of_r(radii), dv_of_r(radii)
    one, omega_part = mode_operator_values(rep, side, radii, U, dU, V, dV)
    omg = np.einsum("mi,iIK->mIK", dirs, rep.gamma)
    reduced_spd = one + np.einsum("mIK,mK->mI", omg, omega_part)
    reduced_bulk = np.einsum("mIK,mK->mI", _spd_to_bulk_lift(rep, side.data, f), reduced_spd)
    op_defect = float(np.max(np.abs(full - reduced_bulk)))

    P, Q, Pt, Qt = mode_gradient_blocks(rep, side, radii, U, dU, V, dV)
    amp = P + np.einsum("mIK,mK->mI", omg, Q)
    bmp = Pt + np.einsum("mIK,mK->mI", omg, Qt)
    grad_sq_mode = (
        np.einsum("mI,mI->m", np.conj(amp), amp).real
        + (side.data.n - 1) * np.einsum("mI,mI->m", np.conj(bmp), bmp).real
    )
    grad_defect = float(np.max(np.abs(grad_sq_full - grad_sq_mode) / (1.0 + np.abs(grad_sq_full))))
    return op_defect, grad_defect


def reduce_radial(cd: CreasedData, rep: CliffordRep) -> RadialProblem:
    """Certified reduction of the transmission problem to its lowest angular mode.

    Requires spherically symmetric data on both sides and a constant
    hyperbolic angle.  The reduced operator and gradient-norm blocks are
    validated against the full Dirac-Witten machinery at 10 seeded random
    radii and directions per side before the problem is returned.
    """
    if cd.minus.profile is None or cd.plus.profile is None:
        raise RadialError("reduce_radial needs spherically symmetric data (radial profiles)")
    if not cd.angle.is_constant:
        raise RadialError("reduce_radial needs a constant hyperbolic angle on the crease")
    minus = SideCoefficients(data=cd.minus, r_lo=0.0, r_hi=cd.r0)
    plus = SideCoefficients(data=cd.plus, r_lo=cd.r0, r_hi=cd.plus.chart.r_max)
    rng = np.random.default_rng(712)
    per_side = 10
    defects = [_oracle_side(rep, s, rng, per_side) for s in (minus, plus)]
    op_defect = max(d[0] for d in defects)
    grad_defect = max(d[1] for d in defects)
    report = OracleReport(operator_defect=op_defect, gradient_defect=grad_defect, radii_checked=2 * per_side)
    if not report.certified:
        raise ReductionOracleError(
            f"radial reduction disagrees with the full machinery: operator defect {op_defect:.3e}, gradient defect "
            f"{grad_defect:.3e} (tolerances {ORACLE_OPERATOR_TOL:g}, {ORACLE_GRADIENT_TOL:g})"
        )
    return RadialProblem(cd=cd, rep=rep, minus=minus, plus=plus,
                         angle=float(cd.angle.constant), oracle=report)


# ---------------------------------------------------------------------------
# discretization


def derivative_matrix(m: int, h: float) -> sp.csr_matrix:
    """4th-order first-derivative matrix on a uniform grid of m nodes."""
    if m < 6:
        raise RadialError("need at least 6 nodes per side")
    c = 1.0 / (12.0 * h)
    # centered rows 2..m-3 (the zero center weight is not stored)
    mid = np.arange(2, m - 2)
    offsets = np.array([-2, -1, 1, 2])
    rows = [np.repeat(mid, 4)]
    cols = [(mid[:, None] + offsets[None, :]).ravel()]
    vals = [np.tile(np.array([1.0, -8.0, 8.0, -1.0]) * c, len(mid))]
    # one-sided rows at both ends
    for i, start, stencil in (
        (0, 0, np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) * c),
        (1, 0, np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) * c),
        (m - 2, m - 5, -np.array([1.0, -6.0, 18.0, -10.0, -3.0]) * c),
        (m - 1, m - 5, -np.array([-3.0, 16.0, -36.0, 48.0, -25.0]) * c),
    ):
        rows.append(np.full(5, i))
        cols.append(np.arange(start, start + 5))
        vals.append(stencil)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(m, m)
    )


def _hat_weights(r: np.ndarray, moment: int = 0) -> np.ndarray:
    """Exact integrals of the P1 hat functions against r^moment dr."""
    h = r[1] - r[0]
    w = np.empty_like(r)
    if moment == 0:
        w[:] = h
        w[0] = w[-1] = h / 2.0
    elif moment == 2:
        w = h * (r**2 + h**2 / 6.0)
        w[0] = h * (r[0] ** 2 / 2.0 + r[0] * h / 3.0 + h**2 / 12.0)
        w[-1] = h * (r[-1] ** 2 / 2.0 - r[-1] * h / 3.0 + h**2 / 12.0)
    else:
        raise RadialError("unsupported moment")
    return w


@dataclass(frozen=True)
class RadialGrid:
    n_minus: int
    n_plus: int
    r_max: float

    def validate(self):
        if self.n_minus < 64 or self.n_plus < 64:
            raise RadialError("need at least 64 intervals per side")
        if self.n_minus % 2 or self.n_plus % 2:
            raise RadialError("interval counts must be even (Simpson quadrature)")


@dataclass(frozen=True)
class AssembledSystem:
    """The problem on the scalar channel tau -> 1: the full vector is [u_-, v_-, u_+, v_+], one value per node."""

    problem: RadialProblem
    r_minus: np.ndarray
    r_plus: np.ndarray
    A: sp.csr_matrix  # weighted residual operator on free unknowns
    A_full: sp.csr_matrix  # ... on the full stacked vector
    S: sp.csr_matrix  # full = S free + b_dirichlet
    b_dirichlet: np.ndarray  # (L,) full vector of the datum 1 at r_max, zero elsewhere
    transmission_block: np.ndarray  # (2 dim, 2 dim) spinor map plus trace -> minus trace
    grad_rows: sp.csr_matrix  # P, Q, Pt, Qt rows of both sides on the full vector
    grad_weights: np.ndarray  # their quadrature weights: |nabla-bar|^2 = B^T diag(grad_weights) B
    mass_diag: np.ndarray  # |psi/rho|^2 form (diagonal) on the full vector
    norm_weights: np.ndarray  # residual-row quadrature weights (squared scale)

    def layout(self):
        return len(self.r_minus), len(self.r_plus)

    def split_full(self, x: np.ndarray):
        Mm, Mp = self.layout()
        return np.split(x, np.cumsum([Mm, Mm, Mp]))


def _rotation_blocks(tau: np.ndarray, f: float) -> np.ndarray:
    """Transmission map on stacked (U, V): [[A, B tau], [B tau, A]], A = cosh(f/2), B = sinh(f/2)."""
    A, B, eye = math.cosh(0.5 * f), math.sinh(0.5 * f), np.eye(len(tau))
    return np.block([[A * eye, B * tau], [B * tau, A * eye]])


def assemble(problem: RadialProblem, grid: RadialGrid) -> AssembledSystem:
    """Discretize the transmission problem with constraints eliminated.

    Interior rows collocate both reduced equations with 4th-order stencils
    (one-sided at the crease, which is a two-sided node with independent
    traces).  Constraint rows, transmission, odd-parity regularity at the
    origin, and the Dirichlet truncation at r_max, are eliminated exactly
    through an affine substitution, so the least-squares solve can never
    trade a constraint defect for residual.
    Only `transmission_block` is built on spinor components; the rest is the
    scalar channel tau -> 1, so rep.tau must be real, symmetric and square to 1.
    The Poincare forms are left as their factors, the gradient rows with their
    weights and the mass diagonal, for `poincare_estimate` to form.
    """
    grid.validate()
    rep = problem.rep
    if np.abs(rep.tau - rep.tau.real.T).max() > 1e-14 or np.abs(rep.tau @ rep.tau - np.eye(rep.dim)).max() > 1e-14:
        raise RadialError("the tau-channel split needs tau real, symmetric and squaring to 1")
    cd = problem.cd
    Mm, Mp = grid.n_minus + 1, grid.n_plus + 1
    r_m = np.linspace(0.0, cd.r0, Mm)
    r_p = np.linspace(cd.r0, grid.r_max, Mp)
    if grid.r_max <= cd.r0:
        raise RadialError("r_max must exceed the crease radius")
    if math.isfinite(cd.plus.chart.r_max) and grid.r_max > cd.plus.chart.r_max:
        raise RadialError("r_max outside the exterior chart")

    Lm, L = 2 * Mm, 2 * (Mm + Mp)

    def scale_rows(mat, weights):
        mat.data *= np.repeat(weights, np.diff(mat.indptr))
        return mat

    def side_blocks(side: SideCoefficients, r, skip_first: bool, col0: int):
        """Weighted residual rows, gradient rows with their form weights, node weights of one side.

        Columns are those of the full stacked vector, this side's starting
        at col0.  Coefficients at r = 0 take their node-1 value; skip_first
        gives node 0 zero weight, so its residual and gradient rows are
        dropped and it adds nothing to the form.
        """
        M = len(r)
        rr = np.where(r > 0, r, r[1])
        w = _hat_weights(r, moment=0) * side.volume_factor(rr) * unit_sphere_volume(side.data.n)
        if skip_first:
            w[0] = 0.0
        keep = np.flatnonzero(w > 0)
        K = len(keep)
        rk = rr[keep]
        D = derivative_matrix(M, r[1] - r[0])[keep].tocoo()
        FD = (D.row, D.col, side.F(rk)[D.row] * D.data)

        def diag(d):
            return np.arange(K), keep, d

        def block_rows(*eqs):
            """CSR of the equations' rows, K each, over the full vector.

            Each equation is a list of (column half u/v, node matrix as a COO
            triple); duplicate entries add up.
            """
            rows, cols, vals = [], [], []
            for eq, terms in enumerate(eqs):
                for half, (xr, xc, xv) in terms:
                    rows.append(eq * K + xr)
                    cols.append(col0 + half * M + xc)
                    vals.append(xv)
            out = sp.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(len(eqs) * K, L)
            )
            out.eliminate_zeros()
            return out

        trk = diag(0.5 * side.trk(rk))
        # r1 = F v' + ell v + (trk/2) u ; r2 = F u' - m_c u + (trk/2) v
        residual = block_rows(
            [(0, trk), (1, FD), (1, diag(side.ell(rk)))],
            [(0, FD), (0, diag(-side.m_c(rk))), (1, trk)],
        )
        residual = scale_rows(residual, np.tile(np.sqrt(w[keep]), 2))

        p = side.data.profile
        kn = diag(0.5 * p.kappa_n(rk))
        kt = diag(0.5 * p.kappa_t(rk))
        # P = F u' + kn v, Q = kn u + F v', Pt = kt u + gr v, Qt = muh u - kt v
        grad_rows = block_rows(
            [(0, FD), (1, kn)],
            [(0, kn), (1, FD)],
            [(0, kt), (1, diag(side.G(rk) / rk - 0.5 * side.mu_c(rk)))],
            [(0, diag(0.5 * side.mu_c(rk))), (1, diag(-0.5 * p.kappa_t(rk)))],
        )
        n1 = float(side.data.n - 1)
        return residual, grad_rows, np.concatenate([w[keep], w[keep], n1 * w[keep], n1 * w[keep]]), w

    rows_m, grad_m, gw_m, w_m = side_blocks(problem.minus, r_m, skip_first=True, col0=0)
    rows_p, grad_p, gw_p, w_p = side_blocks(problem.plus, r_p, skip_first=False, col0=Lm)
    A_full = sp.vstack([rows_m, rows_p], format="csr")

    # ---- constraint elimination ------------------------------------------
    # full vector layout: [u_-, v_-, u_+, v_+], one value per node.
    # Eliminated unknowns are affine in the free ones: S = diag(is_free) + C on
    # the free columns, with C the couplings of the eliminated unknowns.
    trace_m = np.array([Mm - 1, 2 * Mm - 1])  # minus trace (u, v)
    trace_p = np.array([Lm, Lm + Mp])  # plus trace
    v_m_0 = Mm  # origin
    end_p = np.array([Lm + Mp - 1, L - 1])  # r_max

    # transmission: minus trace from plus trace; on the channel tau -> 1 the map is the
    # 2 x 2 [[cosh, sinh], [sinh, cosh]] on (u, v).  Origin parity v_-(0) = 0 couples nothing.
    c_rows, c_cols = np.repeat(trace_m, 2), np.tile(trace_p, 2)
    c_vals = _rotation_blocks(np.eye(1), problem.angle).ravel()
    coupled = c_vals != 0.0

    # Dirichlet truncation at r_max: u_+(r_max) = 1, v_+(r_max) = 0
    is_free = np.ones(L, dtype=bool)
    is_free[np.concatenate([trace_m, [v_m_0], end_p])] = False
    free = np.flatnonzero(is_free)
    free_col = np.cumsum(is_free) - 1  # column of each free unknown in S
    S_rows = np.concatenate([free, c_rows[coupled]])
    S_cols = free_col[np.concatenate([free, c_cols[coupled]])]
    S_vals = np.concatenate([np.ones(len(free)), c_vals[coupled]])
    S = sp.csr_matrix((S_vals, (S_rows, S_cols)), shape=(L, len(free)))
    b_dirichlet = np.zeros(L)
    b_dirichlet[end_p[0]] = 1.0

    A = (A_full @ S).tocsr()

    # ---- mass diagonal for the Poincare estimate ---------------------------
    rho0 = 0.5 * cd.r0
    mass_diag = []
    for side, r in ((problem.minus, r_m), (problem.plus, r_p)):
        rr = np.where(r > 0, r, r[1])
        prof = side.data.profile
        fac = prof.A(rr) * prof.B(rr) ** 2 * unit_sphere_volume(3)
        w2 = _hat_weights(r, moment=2) * fac / (r**2 + rho0**2)
        mass_diag += [w2, w2]

    return AssembledSystem(
        problem=problem, r_minus=r_m, r_plus=r_p, A=A, A_full=A_full, S=S, b_dirichlet=b_dirichlet,
        transmission_block=_rotation_blocks(rep.tau.real, problem.angle),
        grad_rows=sp.vstack([grad_m, grad_p], format="csr"), grad_weights=np.concatenate([gw_m, gw_p]),
        mass_diag=np.concatenate(mass_diag), norm_weights=np.concatenate([w_m, w_p]),
    )


# ---------------------------------------------------------------------------
# solving


@dataclass
class RadialSolution:
    system: AssembledSystem
    psi_inf: np.ndarray
    u_minus: np.ndarray
    v_minus: np.ndarray
    u_plus: np.ndarray
    v_plus: np.ndarray
    residual_norm_minus: float
    residual_norm_plus: float
    solution_norm: float
    transmission_defect: float
    origin_defect: float
    smallest_singular_value: float  # of the reduced operator, from the normal equations' factorization

    @property
    def residual_norm(self) -> float:
        return math.hypot(self.residual_norm_minus, self.residual_norm_plus)

    @property
    def relative_residual(self) -> float:
        """Weighted residual norm per unit of solution norm (the interior
        residual diagnostic; the absolute norm scales with the domain volume)."""
        return self.residual_norm / max(self.solution_norm, 1e-300)

    def sup_distance_to(self, psi_inf: np.ndarray) -> float:
        d = 0.0
        for u in (self.u_minus, self.u_plus):
            d = max(d, float(np.max(np.abs(u - psi_inf[None, :]))))
        for v in (self.v_minus, self.v_plus):
            d = max(d, float(np.max(np.abs(v))))
        return d


def solve(system: AssembledSystem, psi_inf: np.ndarray) -> RadialSolution:
    """Least-squares solution of an assembled transmission problem for the datum psi_inf.

    The grid and problem are the ones `assemble` built `system` from.
    Minimizes the weighted residual norm over the affine constraint space
    through a sparse LU factorization of the normal equations, and records
    the smallest singular value of the reduced operator on the solution.
    One real solve for the channel datum 1 is lifted as U = u psi_inf,
    V = v tau psi_inf; tau is unitary, so the residual norm is |psi_inf|
    times the channel one.
    """
    rep = system.problem.rep
    psi_inf = np.asarray(psi_inf, dtype=complex)
    if psi_inf.shape != (rep.dim,):
        raise RadialError("psi_inf must be a single spinor")
    b = system.b_dirichlet
    rhs = -(system.A_full @ b)

    N = (system.A.T @ system.A).tocsc()
    lu = spla.splu(N)
    x = lu.solve(system.A.T @ rhs)
    # cheap full-rank diagnostic: inverse power iteration on N
    v = np.random.default_rng(0).normal(size=N.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(8):
        v = lu.solve(v)
        v /= np.linalg.norm(v)
    lam_min = float(v @ (N @ v))
    if not np.isfinite(x).all():
        raise RadialError("direct solve produced non-finite values (rank deficiency?)")

    full = system.S @ x + b
    Mm, _ = system.layout()
    res_vec = (system.A_full @ full) * np.linalg.norm(psi_inf)
    um, vm, up, vp = system.split_full(full)
    tau_psi = rep.tau @ psi_inf
    um, up = np.outer(um, psi_inf), np.outer(up, psi_inf)
    vm, vp = np.outer(vm, tau_psi), np.outer(vp, tau_psi)

    w_m, w_p = system.norm_weights[:Mm], system.norm_weights[Mm:]
    n_minus_rows = 2 * int(np.sum(w_m > 0))
    res_m = float(np.linalg.norm(res_vec[:n_minus_rows]))
    res_p = float(np.linalg.norm(res_vec[n_minus_rows:]))
    sol_norm = float(np.sqrt(np.sum(w_m[:, None] * (np.abs(um) ** 2 + np.abs(vm) ** 2))
                             + np.sum(w_p[:, None] * (np.abs(up) ** 2 + np.abs(vp) ** 2))))

    rot = system.transmission_block
    trace_plus = np.concatenate([up[0], vp[0]])
    trace_minus = np.concatenate([um[-1], vm[-1]])
    trans_defect = float(np.max(np.abs(trace_minus - rot @ trace_plus)))
    origin_defect = float(np.max(np.abs(vm[0])))
    return RadialSolution(
        system=system, psi_inf=psi_inf, u_minus=um, v_minus=vm, u_plus=up, v_plus=vp,
        residual_norm_minus=res_m, residual_norm_plus=res_p, solution_norm=sol_norm,
        transmission_defect=trans_defect, origin_defect=origin_defect,
        smallest_singular_value=math.sqrt(max(lam_min, 0.0)),
    )


# ---------------------------------------------------------------------------
# mass gap


@dataclass(frozen=True)
class MassGapReport:
    flux_term: float
    bulk_term: float
    dirichlet_part: float
    matter_part: float
    gap: float
    crease_term: float
    min_crease_margin: float
    bulk_dec_satisfied: bool
    dec_creased: bool
    hypothesis_flags: dict

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["hypothesis_flags"] = dict(self.hypothesis_flags)
        return d


def _simpson(vals: np.ndarray, h: float) -> float:
    n = len(vals) - 1
    coeff = np.ones(len(vals))
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(coeff * vals))


def mass_gap(sol: RadialSolution, mass: MassReport) -> MassGapReport:
    """Witten mass-gap diagnostics of a radial solution.

    flux - bulk should be nonnegative (up to discretization) whenever the
    bulk dominant energy conditions and the DEC-crease condition hold; the
    crease term reproduces the boundary-term formula from the traces and
    must then be nonpositive.  mu and J are evaluated once per node, in
    `field_blocks` of the radial nodes on the x-axis (so |x| = r exactly);
    the matter term integrates them and the bulk DEC check reads them too.
    """
    system = sol.system
    problem = system.problem
    rep = problem.rep
    flux = flux_mass_pairing(rep, mass.E, mass.P, sol.psi_inf)

    dirichlet = 0.0
    matter = 0.0
    mu_ok = True
    omega2 = unit_sphere_volume(3)
    for side, r, U, V in (
        (problem.minus, system.r_minus, sol.u_minus, sol.v_minus),
        (problem.plus, system.r_plus, sol.u_plus, sol.v_plus),
    ):
        h = r[1] - r[0]
        D = derivative_matrix(len(r), h)
        dU = D @ U
        dV = D @ V
        rr = np.where(r > 0, r, r[1])
        P, Q, Pt, Qt = mode_gradient_blocks(rep, side, rr, U, dU, V, dV)
        dens = (
            np.einsum("mI,mI->m", np.conj(P), P)
            + np.einsum("mI,mI->m", np.conj(Q), Q)
            + 2.0 * (np.einsum("mI,mI->m", np.conj(Pt), Pt) + np.einsum("mI,mI->m", np.conj(Qt), Qt))
        ).real
        vol = side.volume_factor(rr) * omega2
        dens = dens * vol
        dens[0] = 0.0 if r[0] == 0.0 else dens[0]
        dirichlet += _simpson(dens, h)

        # matter terms: mu |psi|^2 + <psi, J tau psi> against the volume, J paired with the unit normal
        mu, jx = [], []
        for f in field_blocks(side.data, rr[:, None] * np.array([1.0, 0.0, 0.0])):
            cons = constraint_fields(side.data, f)
            mu_ok = mu_ok and bool(np.all(cons.mu >= cons.momentum_norm(side.data, f) - 1e-7))
            mu, jx = mu + [cons.mu], jx + [cons.J[:, 0]]
        mu, jn = np.concatenate(mu), np.concatenate(jx) / side.data.profile.A(rr)
        psi_sq = (np.einsum("mI,mI->m", np.conj(U), U) + np.einsum("mI,mI->m", np.conj(V), V)).real
        tauU = np.einsum("IK,mK->mI", rep.tau, U)
        cross = 2.0 * np.einsum("mI,mI->m", np.conj(V), tauU).real  # <psi, (omega.Gamma) tau psi>
        mdens = 0.5 * (mu * psi_sq + jn * cross) * vol
        if r[0] == 0.0:
            mdens[0] = 0.0
        matter += _simpson(mdens, h)

    bulk = dirichlet + matter
    gap = flux - bulk

    # crease term from the boundary formula on the traces, which are spherically symmetric: one node
    # suffices, so the report samples the smallest sphere grid
    report = crease_report_for(problem.cd, order=4)
    Up, Vp = sol.u_plus[0], sol.v_plus[0]
    psi_sq_tr = float((np.vdot(Up, Up) + np.vdot(Vp, Vp)).real)
    eps_pair = 2.0 * float(np.vdot(Up, rep.tau @ Vp).real)
    area = omega2 * float(report.area_element[0])
    crease_term = -0.5 * area * (report.nu_component[0] * psi_sq_tr + report.tau_component[0] * eps_pair)

    flags = {
        "bulk_dec": mu_ok,
        "dec_creased": bool(report.dec_creased),
        "gap_nonnegative_expected": bool(mu_ok and report.dec_creased),
    }
    return MassGapReport(
        flux_term=flux, bulk_term=bulk, dirichlet_part=dirichlet, matter_part=matter,
        gap=gap, crease_term=crease_term, min_crease_margin=report.min_margin,
        bulk_dec_satisfied=mu_ok, dec_creased=bool(report.dec_creased), hypothesis_flags=flags,
    )


# ---------------------------------------------------------------------------
# Poincare estimate


def poincare_estimate(problem: RadialProblem, grid: RadialGrid) -> float:
    """Smallest Rayleigh quotient ||nabla-bar psi||^2 / ||psi/rho||^2 on the kernel.

    The quotient runs over the discrete constraint space with zero
    asymptotic datum; rho = sqrt(r^2 + (r0/2)^2) is the positive extension
    of the radial weight.  The estimate is the reciprocal square of the
    constant in the weighted Poincare inequality.  On spinor components the
    forms are four orthogonal copies of the channel forms, one per basis
    spinor psi through U = u psi, V = v tau psi, so their smallest eigenvalue
    is the channel one.  The forms are built here from the factors `assemble`
    keeps: G = (B S)^T W (B S) and M = S^T diag(mass) S.  ARPACK starts from a
    fixed vector, so the estimate is reproducible to the last digit.
    """
    system = assemble(problem, grid)
    BS = (system.grad_rows @ system.S).tocsr()
    G = (BS.T @ sp.diags(system.grad_weights) @ BS).tocsc()
    M = (system.S.T @ sp.diags(system.mass_diag) @ system.S).tocsc()
    G = (G + G.T) * 0.5
    M = (M + M.T) * 0.5
    v0 = np.random.default_rng(0).normal(size=G.shape[0])
    vals = spla.eigsh(G, k=1, M=M, sigma=0.0, which="LM", v0=v0, return_eigenvectors=False)
    lam = float(vals[0])
    if lam <= 0.0:
        raise RadialError(f"Poincare estimate not positive: {lam:.3e}")
    return lam
