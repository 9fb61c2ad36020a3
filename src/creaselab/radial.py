"""Radial Dirac-Witten transmission problem for spherically symmetric creases.

For metrics A(r)^2 dr^2 + (r B(r))^2 dOmega^2 with extrinsic curvature
diagonal in the adapted frame (eigenvalues kappa_n, kappa_t), the lowest
angular sector

    psi(x) = U(r) + (omega . Gamma) V(r),     U, V : (0, infty) -> C^I

is closed under the Dirac-Witten operator when spinor components are taken
in the symmetric-square-root frame g^{-1/2} d/dx.  Writing F = 1/A,
G = 1/B,

    mu_c = -B'/(A B) - 1/(r A) + 1/(r B),   gr = G/r - mu_c/2,
    trk  = kappa_n + (n-1) kappa_t,

the operator is D_W psi = -r1 + (omega . Gamma) r2, and the squared
spacetime-connection norm integrates to omega_{n-1} (|P|^2 + |Q|^2 +
(n-1)(|Pt|^2 + |Qt|^2)) A B^{n-1} r^{n-1} dr, for six blocks that each read
F X' (when differentiated) + a X + b tau Y on one field X, the other Y:

    r1 = F V' + (n-1) gr V + trk/2 tau U      r2 = F U' - (n-1) mu_c/2 U + trk/2 tau V
    P  = F U' + kappa_n/2 tau V               Q  = F V' + kappa_n/2 tau U
    Pt = gr V + kappa_t/2 tau U               Qt = mu_c/2 U - kappa_t/2 tau V

A, B, B', kappa_n and kappa_t are read off the data's `InitialData.profile`
at the radii of a node set, once per set; `catalog` derives that profile
from the same radial functions as g and k, so there is no second
description of the data to disagree with the first.
`SideCoefficients.blocks` is that table, and `apply_blocks` evaluates it
both on spinors, with tau = cliffords.TAU, and on the channel below,
with tau -> 1.  reduce_radial certifies the table on spinors against the
full Dirac-Witten machinery before a problem is returned; `assemble`
discretizes the same table, and `mass_gap` integrates it on the channel,
with the constraint densities mu and J.nu in closed form from the same
profile (`matter_densities`).

The boundary-value problem (both interior equations, the transmission
rotation at the crease, odd-parity regularity V(0) = 0, and a Dirichlet
approximation psi(r_max) = psi_inf of the decay condition) is solved by
minimizing the quadrature-weighted residual norm over the affine space
satisfying the constraints exactly.  With the unknowns ordered node by node
across the crease, every row lives on the five nodes of one 4th-order
stencil, so the normal equations are block tridiagonal; `banded` factors
them by block cyclic reduction in numpy, and its Lanczos iteration gives the
Poincare estimate's smallest eigenvalue.

The coefficients are real and reach the spinor index only through 1 and
the real symmetric involution tau, so the problem is discretized on one real
scalar channel, tau -> 1, not I components: since tau^2 = 1 the substitution
U = u psi_inf, V = v tau psi_inf turns every equation and constraint into the
channel one times psi_inf or tau psi_inf.  A solution keeps the channel
values (u, v) for the datum 1 with psi_inf; tau is unitary, so its norms and
quadratic forms are the channel ones times |psi_inf|^2.  Spinors are formed
only at the two crease traces, for the transmission defect.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng

from . import banded as spla
from .bartnik import crease_report_for
from .cliffords import DIM, GAMMA, TAU
from .geometry import (
    CreasedData,
    GeometryError,
    InitialData,
    PointFields,
    RadialProfile,
    as_fields,
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


class Block(NamedTuple):
    """One reduced block: F X' (when `derivative`) + own X + tau_coef tau Y, Y the field other than X."""

    field: str  # X: "U" or "V"
    derivative: bool
    own: np.ndarray | None  # None: the block has no X term
    tau_coef: np.ndarray


def mu_c(p: RadialProfile) -> np.ndarray:
    """The module docstring's mu_c at the radii of p."""
    return -p.dB / (p.A * p.B) - 1.0 / (p.r * p.A) + 1.0 / (p.r * p.B)


def matter_densities(p: RadialProfile) -> tuple[np.ndarray, np.ndarray]:
    """`geometry.constraint_fields`' mu and J.nu (J is radial, |J| = |J.nu|) at p's radii, all r > 0: with S = r B,
    R = 2 (1 - (S'/A)^2) / S^2 - 4 (S'/A)' / (A S), mu = R/2 + 2 kappa_n kappa_t + kappa_t^2 and
    J.nu = (2 (S'/S) (kappa_n - kappa_t) - 2 kappa_t') / A."""
    S, q = p.r * p.B, (p.B + p.r * p.dB) / p.A  # q = S'/A
    dq = (2.0 * p.dB + p.r * p.d2B - q * p.dA) / p.A
    mu = (1.0 - q * q) / S**2 - 2.0 * dq / (p.A * S) + p.kappa_t * (2.0 * p.kappa_n + p.kappa_t)
    return mu, 2.0 * (q * (p.kappa_n - p.kappa_t) / S - p.dkappa_t / p.A)


@dataclass(frozen=True)
class SideCoefficients:
    """Radial coefficients of the reduced operator on one side, read off its data's profile at given radii."""

    data: InitialData
    r_lo: float
    r_hi: float

    def blocks(self, p: RadialProfile) -> dict[str, Block]:
        """The six reduced blocks at p's radii: the equations r1, r2 and the connection-norm blocks P, Q, Pt, Qt."""
        n1 = self.data.n - 1
        mu = mu_c(p)
        gr = (1.0 / p.B) / p.r - 0.5 * mu
        trk, kn, kt = 0.5 * (p.kappa_n + n1 * p.kappa_t), 0.5 * p.kappa_n, 0.5 * p.kappa_t
        return {
            "r1": Block("V", True, n1 * gr, trk),
            "r2": Block("U", True, -(n1 * 0.5 * mu), trk),
            "P": Block("U", True, None, kn),
            "Q": Block("V", True, None, kn),
            "Pt": Block("V", False, gr, kt),
            "Qt": Block("U", False, 0.5 * mu, -kt),
        }

    def volume_factor(self, p: RadialProfile):
        return p.A * p.B ** (self.data.n - 1) * p.r ** (self.data.n - 1)


def apply_blocks(side: SideCoefficients, p: RadialProfile, U, dU, V, dV, tau=None) -> dict[str, np.ndarray]:
    """Every block of `side.blocks(p)` on fields whose first axis is the radii of p.

    Spinor fields (m, I) take tau = cliffords.TAU; channel values (m,) take
    tau = None, the substitution tau -> 1.
    """
    tU, tV = (U, V) if tau is None else (np.einsum("IK,mK->mI", tau, f) for f in (U, V))
    fields = {"U": (U, dU, tV), "V": (V, dV, tU)}

    def col(c):
        return np.reshape(c, np.shape(c) + (1,) * (np.ndim(U) - 1))

    F, out = col(1.0 / p.A), {}
    for name, b in side.blocks(p).items():
        X, dX, tY = fields[b.field]
        value = F * dX if b.derivative else 0.0
        if b.own is not None:
            value = value + col(b.own) * X
        out[name] = value + col(b.tau_coef) * tY
    return out


def spd_frame(p: RadialProfile, om: np.ndarray) -> np.ndarray:
    """Symmetric-square-root frame rows at the points r omega of spherically symmetric data, p its profile at r."""
    P = om[:, :, None] * om[:, None, :]
    return (1.0 / p.B)[:, None, None] * (np.eye(om.shape[1]) - P) + (1.0 / p.A)[:, None, None] * P


def _spd_to_bulk_lift(data: InitialData, x) -> np.ndarray:
    """Spin lift (m, I, I) taking symmetric-square-root-frame components to bulk-frame ones at x."""
    f = as_fields(data, x)
    r = np.linalg.norm(f.x, axis=1)
    S = spd_frame(data.profile(r), f.x / r[:, None])
    return spin_lift(rotation_between_frames(f.g, frame_from=S, frame_to=f.frame))


def mode_field(data: InitialData, modes) -> SpinorField:
    """Bulk-frame spinor field of the separated form U(r) + (omega.Gamma) V(r), with its gradient.

    The mode profiles live in the symmetric-square-root gauge; components
    are rotated into the deterministic bulk frame pointwise, c = L c_spd,
    through the spin lift L of the (small-angle) frame rotation
    O = F_bulk g F_spd^T.  The Cartesian gradient is the product rule
    d_k c = (d_k L) c_spd + L d_k c_spd in closed form, from d_k F_bulk =
    -Phi(F d_k g F^T) F, from the profile's A, B, A' and B' for d_k F_spd,
    and from U', V' for the mode.  `modes` maps radii r (m,) to U, V, U' and
    V' at r, each (m, I).
    """

    def mode(x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        om = pts / r[:, None]
        omg = np.einsum("mi,iIK->mIK", om, GAMMA)
        U, V, dU, dV = (np.asarray(a, dtype=complex) for a in modes(r))
        return pts, r, om, omg, V, dU, dV, U + np.einsum("mIK,mK->mI", omg, V)

    def values(x):
        pts, *_, c_spd = mode(x)
        return np.einsum("mIK,mK->mI", _spd_to_bulk_lift(data, pts), c_spd)

    def gradient(x):
        pts, r, om, omg, V, dU, dV, c_spd = mode(x)
        f, p = PointFields(data, pts), data.profile(r)
        A, B = p.A, p.B
        P, S, col = om[:, :, None] * om[:, None, :], spd_frame(p, om), (lambda s: s[:, None, None, None])
        T = np.eye(data.n) - P
        # d_k S = omega_k (-(B'/B^2) T - (A'/A^2) P) + (1/A - 1/B) d_k P, with r d_k P_ij = T_ik om_j + om_i T_jk
        dS = om[:, :, None, None] * (col(-p.dB / B**2) * T[:, None] - col(p.dA / A**2) * P[:, None])
        dS += col((1.0 / A - 1.0 / B) / r) * (np.einsum("mik,mj->mkij", T, om) + np.einsum("mi,mjk->mkij", om, T))
        F, Fk, dg = f.frame, f.frame[:, None], np.moveaxis(f.dg, -1, 1)  # dg[m, k] = d_k g
        phi = np.tril(np.ones((data.n, data.n)), -1) + 0.5 * np.eye(data.n)
        dF = -(phi * (Fk @ dg @ np.swapaxes(Fk, -1, -2))) @ Fk  # d_k F_bulk
        dO = (dF @ f.g[:, None] + Fk @ dg) @ S[:, None] + (F @ f.g)[:, None] @ dS  # S and dS are symmetric
        sigma, dsigma = spin_lift(F @ f.g @ S, dO)
        # d_k c_spd = (U' + (omega.Gamma) V') omega_k + (T_kj / r) Gamma^j V
        d_radial = dU + np.einsum("mIK,mK->mI", omg, dV)
        dc_spd = d_radial[:, None] * om[:, :, None] + np.einsum("mkj,jIK,mK->mkI", T / r[:, None, None], GAMMA, V)
        grad = np.einsum("mkIK,mK->mkI", dsigma, c_spd) + np.einsum("mIK,mkK->mkI", sigma, dc_spd)
        return np.swapaxes(grad, -1, -2)

    return SpinorField(values=values, cartesian_gradient=gradient)


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


@dataclass(frozen=True)
class RadialProblem:
    cd: CreasedData
    minus: SideCoefficients
    plus: SideCoefficients
    angle: float
    oracle: OracleReport


def _oracle_side(side: SideCoefficients, rng: np.random.Generator, n_radii: int) -> tuple[float, float]:
    r_lo = side.r_lo if side.r_lo > 0 else 0.12 * side.r_hi
    r_hi = side.r_hi if math.isfinite(side.r_hi) else max(4.0 * max(r_lo, 1.0), 10.0)
    lo = r_lo + 0.08 * (r_hi - r_lo)
    hi = r_hi - 0.08 * (r_hi - r_lo)
    radii = rng.uniform(lo, hi, size=n_radii)
    dirs = rng.normal(size=(n_radii, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = radii[:, None] * dirs

    u0 = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    v0 = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    s = 1.0 / max(r_hi, 1.0)

    def modes(r):  # U, V, U', V'
        return ((1.0 + 0.5 * np.sin(s * r))[:, None] * u0[None, :], (s * r + 0.3 * (s * r) ** 2)[:, None] * v0[None, :],
                (0.5 * s * np.cos(s * r))[:, None] * u0[None, :], (s + 0.6 * s * s * r)[:, None] * v0[None, :])

    field = mode_field(side.data, modes)
    f = PointFields(side.data, pts)
    sen = sen_derivatives(side.data, field, f)
    full = _gamma_contract(sen)  # the Dirac-Witten operator
    grad_sq_full = np.einsum("mIa,mIa->m", np.conj(sen), sen).real

    U, V, dU, dV = modes(radii)
    b = apply_blocks(side, side.data.profile(radii), U, dU, V, dV, TAU)
    omg = np.einsum("mi,iIK->mIK", dirs, GAMMA)
    reduced_spd = np.einsum("mIK,mK->mI", omg, b["r2"]) - b["r1"]
    reduced_bulk = np.einsum("mIK,mK->mI", _spd_to_bulk_lift(side.data, f), reduced_spd)
    op_defect = float(np.max(np.abs(full - reduced_bulk)))

    amp = b["P"] + np.einsum("mIK,mK->mI", omg, b["Q"])
    bmp = b["Pt"] + np.einsum("mIK,mK->mI", omg, b["Qt"])
    grad_sq_mode = (
        np.einsum("mI,mI->m", np.conj(amp), amp).real
        + (side.data.n - 1) * np.einsum("mI,mI->m", np.conj(bmp), bmp).real
    )
    grad_defect = float(np.max(np.abs(grad_sq_full - grad_sq_mode) / (1.0 + np.abs(grad_sq_full))))
    return op_defect, grad_defect


def reduce_radial(cd: CreasedData) -> RadialProblem:
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
    rng = default_rng(712)
    per_side = 10
    defects = [_oracle_side(s, rng, per_side) for s in (minus, plus)]
    op_defect = max(d[0] for d in defects)
    grad_defect = max(d[1] for d in defects)
    if not (op_defect <= ORACLE_OPERATOR_TOL and grad_defect <= ORACLE_GRADIENT_TOL):
        raise ReductionOracleError(
            f"radial reduction disagrees with the full machinery: operator defect {op_defect:.3e}, gradient defect "
            f"{grad_defect:.3e} (tolerances {ORACLE_OPERATOR_TOL:g}, {ORACLE_GRADIENT_TOL:g})"
        )
    return RadialProblem(cd=cd, minus=minus, plus=plus, angle=float(cd.angle.constant),
                         oracle=OracleReport(op_defect, grad_defect, radii_checked=2 * per_side))


# ---------------------------------------------------------------------------
# discretization


def derivative_matrix(m: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """4th-order first-derivative matrix on a uniform grid of m nodes, as five-node windows.

    Row i is coef[i] on nodes start[i] .. start[i] + 4: centered rows, and
    one-sided rows at both ends, the last two mirroring the first two.
    """
    if m < 6:
        raise RadialError("need at least 6 nodes per side")
    c = 1.0 / (12.0 * h)
    coef = np.tile(np.array([1.0, -8.0, 0.0, 8.0, -1.0]) * c, (m, 1))
    coef[:2] = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]]) * c
    coef[-2:] = -coef[1::-1, ::-1]
    return coef, np.clip(np.arange(m) - 2, 0, m - 5)


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


MAX_INTERVALS = 32768  # per side, 4x the finest benchmark grid; the solve's memory grows linearly with it
# 1250x the farthest benchmark r_max (800); an unbounded one overflows the r^2 quadrature weights and the volume factor
MAX_R_MAX = 1e6


@dataclass(frozen=True)
class RadialGrid:
    n_minus: int
    n_plus: int
    r_max: float

    def validate(self):
        if self.n_minus < 64 or self.n_plus < 64:
            raise RadialError("need at least 64 intervals per side")
        if self.n_minus > MAX_INTERVALS or self.n_plus > MAX_INTERVALS:
            raise RadialError(f"at most {MAX_INTERVALS} intervals per side")
        if self.n_minus % 2 or self.n_plus % 2:
            raise RadialError("interval counts must be even (Simpson quadrature)")
        if not self.r_max <= MAX_R_MAX:
            raise RadialError(f"r_max must be at most {MAX_R_MAX:g}, got {self.r_max:g}")


@dataclass(frozen=True)
class AssembledSystem:
    """The problem on the scalar channel tau -> 1, on the free unknowns x.

    The nodes are merged across the crease: minus nodes 0 .. Mm - 2, then plus
    nodes 0 .. Mp - 1, with (v, u) at each; the minus trace is the rotation R
    of plus node 0.  x is that vector without its first entry, v_-(0) = 0, and
    its last two, the Dirichlet values v_+ = 0 and u_+ = 1 at r_max.  Every
    row below is nonzero only on the five nodes of one derivative stencil.
    """

    problem: RadialProblem
    r_minus: np.ndarray
    r_plus: np.ndarray
    A: spla.WindowRows  # weighted residual rows on x: the minus side's r1 and r2 rows, then the plus side's
    rhs: np.ndarray  # the Dirichlet datum's part of the residual moved to the right: residual = A x - rhs
    transmission_block: np.ndarray  # (2 dim, 2 dim) spinor map plus trace -> minus trace
    grad_rows: spla.WindowRows  # P, Q, Pt, Qt rows of both sides times the roots of their weights: |nabla-bar|^2 = |B x|^2
    mass_rows: spla.WindowRows  # |psi/rho|^2 = |C x|^2
    norm_weights: np.ndarray  # residual-row quadrature weights (squared scale)

    def nodes(self, x: np.ndarray):
        """Channel values u_-, v_-, u_+, v_+ at every node of both sides for the free unknowns x."""
        Mm = len(self.r_minus)
        y = np.concatenate([[0.0], x, [0.0, 1.0]]).reshape(-1, 2)
        minus = np.vstack([y[: Mm - 1], _rotation_blocks(np.eye(1), self.problem.angle) @ y[Mm - 1]])
        plus = y[Mm - 1 :]
        return minus[:, 1], minus[:, 0], plus[:, 1], plus[:, 0]


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
    scalar channel tau -> 1, which holds as TAU is real, symmetric and squares to 1.
    The Poincare forms are left as their rows, for `poincare_estimate` to form.
    """
    grid.validate()
    cd = problem.cd
    Mm, Mp = grid.n_minus + 1, grid.n_plus + 1
    r_m = np.linspace(0.0, cd.r0, Mm)
    r_p = np.linspace(cd.r0, grid.r_max, Mp)
    if grid.r_max <= cd.r0:
        raise RadialError("r_max must exceed the crease radius")
    if math.isfinite(cd.plus.chart.r_max) and grid.r_max > cd.plus.chart.r_max:
        raise RadialError("r_max outside the exterior chart")
    n = 2 * (Mm + Mp) - 5
    rot = _rotation_blocks(np.eye(1), problem.angle)  # the channel's transmission; the same on (v, u) as on (u, v)
    rho0 = 0.5 * cd.r0

    def side_rows(side: SideCoefficients, r, minus: bool):
        """Residual, gradient and mass rows of one side as windows on x, and its node weights.

        Coefficients at r = 0 take their node-1 value; the minus side gives
        node 0 zero weight, so it has no residual or gradient rows, and
        folds its trace, node Mm - 1, onto plus node 0 through R.
        """
        M = len(r)
        p = side.data.profile(np.where(r > 0, r, r[1]))
        w = _hat_weights(r, moment=0) * side.volume_factor(p) * unit_sphere_volume(side.data.n)
        if minus:
            w[0] = 0.0
        keep = np.flatnonzero(w > 0)
        K, pk = len(keep), p._make(a[keep] for a in p)
        coef, start = derivative_matrix(M, r[1] - r[0])
        FD, start = (1.0 / pk.A)[:, None] * coef[keep], start[keep]

        def rows(b: Block):
            """Block b's rows at the kept nodes, as (K, 5 nodes, (v, u))."""
            out, at = np.zeros((K, 5, 2)), int(b.field == "U")  # the (v, u) slot of the block's field
            if b.derivative:
                out[:, :, at] = FD
            diag = np.zeros((K, 2))
            if b.own is not None:
                diag[:, at] = b.own
            diag[:, 1 - at] = b.tau_coef
            out[np.arange(K), keep - start] += diag
            return out

        table = side.blocks(pk)
        residual = np.concatenate([rows(table[k]) for k in ("r1", "r2")])
        grad = np.concatenate([rows(table[k]) for k in ("P", "Q", "Pt", "Qt")])
        n1 = float(side.data.n - 1)
        residual *= np.tile(np.sqrt(w[keep]), 2)[:, None, None]
        grad *= np.sqrt(np.concatenate([w[keep], w[keep], n1 * w[keep], n1 * w[keep]]))[:, None, None]
        mass = _hat_weights(r, moment=2) * p.A * p.B**2 * unit_sphere_volume(3) / (r**2 + rho0**2)
        mass = np.sqrt(mass)[:, None, None] * np.eye(2)  # (M, 2 rows, (v, u))
        if minus:
            for a in (residual, grad):
                trace = np.tile(start == M - 5, len(a) // K)
                a[trace, 4] = a[trace, 4] @ rot
            mass[-1] = mass[-1] @ rot
        node0 = 0 if minus else Mm - 1  # x column of node j's v is 2 (node0 + j) - 1
        starts = 2 * (node0 + start) - 1
        return (residual.reshape(-1, 10), np.tile(starts, 2), grad.reshape(-1, 10), np.tile(starts, 4),
                mass.reshape(-1, 2), np.repeat(2 * (node0 + np.arange(M)) - 1, 2), w)

    res_m, s_m, grad_m, gs_m, mass_m, ms_m, w_m = side_rows(problem.minus, r_m, minus=True)
    res_p, s_p, grad_p, gs_p, mass_p, ms_p, w_p = side_rows(problem.plus, r_p, minus=False)
    residual, start = np.concatenate([res_m, res_p]), np.concatenate([s_m, s_p])
    # the Dirichlet value u_+(r_max) = 1 is column n + 1, which WindowRows drops
    at = np.clip(n + 1 - start, 0, 9)
    rhs = -np.where(start + at == n + 1, residual[np.arange(len(at)), at], 0.0)
    A = spla.WindowRows(residual, start, n)
    return AssembledSystem(
        problem=problem, r_minus=r_m, r_plus=r_p, A=A, rhs=rhs,
        transmission_block=_rotation_blocks(TAU.real, problem.angle),
        grad_rows=spla.WindowRows(np.concatenate([grad_m, grad_p]), np.concatenate([gs_m, gs_p]), n),
        mass_rows=spla.WindowRows(np.concatenate([mass_m, mass_p]), np.concatenate([ms_m, ms_p]), n),
        norm_weights=np.concatenate([w_m, w_p]),
    )


# ---------------------------------------------------------------------------
# solving


@dataclass
class RadialSolution:
    """A solution as channel values at every node: U = u psi_inf, V = v tau psi_inf."""

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


def solve(system: AssembledSystem, psi_inf: np.ndarray) -> RadialSolution:
    """Least-squares solution of an assembled transmission problem for the datum psi_inf.

    The grid and problem are the ones `assemble` built `system` from.
    Minimizes the weighted residual norm over the affine constraint space
    through a block cyclic reduction of the normal equations, and records
    the smallest singular value of the reduced operator on the solution.
    One real solve for the channel datum 1 serves every psi_inf: the
    solution keeps its channel values, and its residual and solution norms
    are the channel ones times |psi_inf|, as tau is unitary.
    """
    psi_inf = np.asarray(psi_inf, dtype=complex)
    if psi_inf.shape != (DIM,):
        raise RadialError("psi_inf must be a single spinor")
    A = system.A
    N = A.gram()
    try:
        lu = spla.splu(N)
        # full-rank diagnostic: N's smallest eigenvalue, by Lanczos on the factorization at hand; a residual
        # of 1e-6 leaves an eigenvalue error of order 1e-12
        lam_min = spla.lanczos(lu, None, default_rng(0).normal(size=A.shape[1]), tol=1e-6)
    except np.linalg.LinAlgError as exc:
        raise RadialError(f"solve: normal equations: {exc}") from exc
    x = lu.solve(A.rmatvec(system.rhs))
    if not np.isfinite(x).all():
        raise RadialError("direct solve produced non-finite values (rank deficiency?)")

    Mm = len(system.r_minus)
    psi_norm = float(np.linalg.norm(psi_inf))
    res_vec = (A @ x - system.rhs) * psi_norm
    um, vm, up, vp = system.nodes(x)
    w_m, w_p = system.norm_weights[:Mm], system.norm_weights[Mm:]
    n_minus_rows = 2 * int(np.sum(w_m > 0))
    res_m = float(np.linalg.norm(res_vec[:n_minus_rows]))
    res_p = float(np.linalg.norm(res_vec[n_minus_rows:]))
    sol_norm = psi_norm * math.sqrt(np.sum(w_m * (um**2 + vm**2)) + np.sum(w_p * (up**2 + vp**2)))

    # the traces as spinors (U, V) on both sides of the crease
    tau_psi = TAU @ psi_inf
    trace_plus = np.concatenate([up[0] * psi_inf, vp[0] * tau_psi])
    trace_minus = np.concatenate([um[-1] * psi_inf, vm[-1] * tau_psi])
    trans_defect = float(np.max(np.abs(trace_minus - system.transmission_block @ trace_plus)))
    return RadialSolution(
        system=system, psi_inf=psi_inf, u_minus=um, v_minus=vm, u_plus=up, v_plus=vp,
        residual_norm_minus=res_m, residual_norm_plus=res_p, solution_norm=sol_norm,
        transmission_defect=trans_defect, origin_defect=abs(float(vm[0])) * psi_norm,
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
    coeff = np.ones(len(vals))
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(coeff * vals))


def mass_gap(sol: RadialSolution, mass: MassReport) -> MassGapReport:
    """Witten mass-gap diagnostics of a radial solution.

    flux - bulk should be nonnegative (up to discretization) whenever the
    bulk dominant energy conditions and the DEC-crease condition hold; the
    crease term reproduces the boundary-term formula from the traces and
    must then be nonpositive.  Each side's profile is read once at its
    radial nodes (at r[1] for r = 0, where both integrands are set to 0 by
    their factor r^2); the Dirichlet integrand is the block table on the
    channel values, and mu and J.nu are `matter_densities` of the same
    profile, which the matter term integrates and the bulk DEC check reads.
    """
    system = sol.system
    problem = system.problem
    flux = flux_mass_pairing(mass.E, mass.P, sol.psi_inf)
    psi_sq = float(np.vdot(sol.psi_inf, sol.psi_inf).real)  # every term below is the channel one times |psi_inf|^2

    dirichlet = 0.0
    matter = 0.0
    mu_ok = True
    omega2 = unit_sphere_volume(3)
    for side, r, u, v in (
        (problem.minus, system.r_minus, sol.u_minus, sol.v_minus),
        (problem.plus, system.r_plus, sol.u_plus, sol.v_plus),
    ):
        h = r[1] - r[0]
        coef, start = derivative_matrix(len(r), h)
        du, dv = (sum(coef[:, k] * f[start + k] for k in range(5)) for f in (u, v))
        rr = np.where(r > 0, r, r[1])
        side.data.chart.require(rr, what="matter node")
        p = side.data.profile(rr)
        b = apply_blocks(side, p, u, du, v, dv)
        dens = b["P"] ** 2 + b["Q"] ** 2 + (side.data.n - 1) * (b["Pt"] ** 2 + b["Qt"] ** 2)
        vol = side.volume_factor(p) * omega2
        dens = dens * vol
        dens[0] = 0.0 if r[0] == 0.0 else dens[0]
        dirichlet += _simpson(dens, h)

        # matter terms: mu |psi|^2 + <psi, J tau psi> against the volume, J paired with the unit normal;
        # <psi, (omega.Gamma) tau psi> = 2 u v on the channel
        mu, jn = matter_densities(p)
        mu_ok = mu_ok and bool(np.all(mu >= np.abs(jn) - 1e-7))
        mdens = 0.5 * (mu * (u * u + v * v) + jn * (2.0 * (v * u))) * vol
        if r[0] == 0.0:
            mdens[0] = 0.0
        matter += _simpson(mdens, h)

    dirichlet, matter = psi_sq * dirichlet, psi_sq * matter
    bulk = dirichlet + matter
    gap = flux - bulk

    # crease term from the boundary formula on the traces, which are spherically symmetric: one node
    # suffices, so the report samples the smallest sphere grid
    report = crease_report_for(problem.cd, order=4)
    u0, v0 = sol.u_plus[0], sol.v_plus[0]
    area = omega2 * float(report.area_element[0])
    crease_term = -0.5 * area * psi_sq * (report.nu_component[0] * (u0 * u0 + v0 * v0)
                                          + report.tau_component[0] * (2.0 * (u0 * v0)))

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
    keeps: G = B^T B and M = C^T C.  The Lanczos iteration starts from a
    fixed vector, so the estimate is reproducible to the last digit.
    """
    system = assemble(problem, grid)
    C = system.mass_rows
    try:
        lam = spla.eigsh(system.grad_rows.gram(), lambda v: C.rmatvec(C @ v), default_rng(0).normal(size=C.n))
    except np.linalg.LinAlgError as exc:
        raise RadialError(f"Poincare estimate: the eigensolve failed ({exc})") from exc
    if lam <= 0.0:
        raise RadialError(f"Poincare estimate not positive: {lam:.3e}")
    return lam
