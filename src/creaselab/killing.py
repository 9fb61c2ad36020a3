"""Lapse-shift pairs, crease Lorentz relations, and Killing developments.

A spinor psi induces the lapse-shift pair u = |psi|^2, <Y, W> = <tau W psi,
psi>.  When psi is parallel for the spacetime connection, (u, Y) satisfies
the Killing initial-data conditions L_Y g - 2 u k = 0 and du - k(Y,.) = 0
for k signed as in `geometry` (w.r.t. the future timelike normal),
the stationary development -(u^2-|Y|^2)dt^2 + 2Y dt + g is flat for the
catalog's Minkowski slices, and the squared Lorentz length u^2 - |Y|^2 is
conserved along curves.  This module evaluates all of those statements
numerically; it certifies identities on data with explicit parallel
spinors rather than attempting any global construction.

The Killing residuals are closed-form: the derivatives of u and Y come from
the field's values c and analytic frame derivatives e_a(c), as
e_a(u) = 2 Re<psi, e_a psi> and, tau e_b being Hermitian,
e_a(Y_b) = 2 Re<e_a psi, tau e_b psi>; nabla_a Y_b adds Y_c W_acb with the
bulk spin coefficients W.  Only `riemann_norm` differentiates numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cliffords import GAMMA, TAU, TAU_GAMMA, spinor_rotation
from .geometry import CreasedData, GeometryError, InitialData, PointFields, as_points, bulk_frame
from .integrals import bulk_spin_coefficients
from .spheregrid import sphere_grid
from .spinorfields import SpinorField


class KillingError(GeometryError):
    pass


REALITY_TOL = 1e-12


@dataclass(frozen=True)
class LapseShift:
    """Lapse u = |psi|^2 and shift Y_a = <tau e_a psi, psi> (bulk-frame components) of a spinor field."""

    data: InitialData
    field: SpinorField

    def u(self, x: np.ndarray) -> np.ndarray:
        return _lapse_shift(self.field.evaluate(np.atleast_2d(x)))[0]

    def Y_frame(self, x: np.ndarray) -> np.ndarray:
        return _lapse_shift(self.field.evaluate(np.atleast_2d(x)))[1].real

    def Y_vector(self, x: np.ndarray) -> np.ndarray:
        """Coordinate components of the shift vector."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        frame = bulk_frame(self.data, pts)
        return np.einsum("ma,mai->mi", self.Y_frame(pts), frame)

    def lorentz_length_squared(self, x: np.ndarray) -> np.ndarray:
        """u^2 - |Y|_g^2 (positive where the Killing vector is timelike)."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        Yf = self.Y_frame(pts)
        return self.u(pts) ** 2 - np.einsum("ma,ma->m", Yf, Yf)


def _lapse_shift(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = |psi|^2 and Y_a = <tau e_a psi, psi> of spinor components c (m, I); Y is complex, (m, n),
    and real for a genuine shift."""
    u = np.einsum("mI,mI->m", np.conj(c), c).real
    # <tau e_a psi, psi> = conj pairing in the first slot
    return u, np.conj(np.einsum("aIK,mK,mI->ma", TAU_GAMMA, c, np.conj(c)))


def lapse_shift_from_spinor(field: SpinorField, data: InitialData, check_points: np.ndarray | None = None) -> LapseShift:
    """Lapse-shift pair of a spinor field; the shift is checked to be real."""
    if check_points is not None:
        worst = float(np.max(np.abs(_lapse_shift(field.evaluate(np.atleast_2d(check_points)))[1].imag)))
        if worst > REALITY_TOL:
            raise KillingError(f"shift vector not real: imaginary part {worst:.3e}")
    return LapseShift(data=data, field=field)


# ---------------------------------------------------------------------------
# crease Lorentz relations


@dataclass(frozen=True)
class LorentzCheck:
    tangential_residual: float
    normal_residual: float
    lapse_residual: float
    causal_invariant_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.tangential_residual, self.normal_residual, self.lapse_residual)


def crease_lorentz_check(
    cd: CreasedData,
    psi_plus: Callable[[np.ndarray, np.ndarray], np.ndarray],
    order: int = 12,
) -> LorentzCheck:
    """Residuals of the hyperbolic-rotation relations between the two sides'
    lapse-shift traces: tangential shifts agree, while the (normal, lapse)
    pair mixes through (cosh f, sinh f).

    Traces are adapted-frame components on the crease sphere; the minus
    trace is the transmission image of psi_plus.
    """
    grid = sphere_grid(order)
    f = np.asarray(cd.angle.value(grid.nodes), dtype=float)
    c_plus = np.asarray(psi_plus(grid.theta, grid.phi), dtype=complex)
    c_minus = np.einsum("mIK,mK->mI", spinor_rotation(f), c_plus)

    n = len(GAMMA)
    u_p, y_p = _lapse_shift(c_plus)
    u_m, y_m = _lapse_shift(c_minus)
    y_p, y_m = y_p.real, y_m.real
    y_nu_p, y_nu_m = y_p[:, n - 1], y_m[:, n - 1]
    a, b = np.cosh(f), np.sinh(f)
    return LorentzCheck(
        tangential_residual=float(np.max(np.abs(y_m[:, : n - 1] - y_p[:, : n - 1]))),
        normal_residual=float(np.max(np.abs(y_nu_m - (a * y_nu_p - b * u_p)))),
        lapse_residual=float(np.max(np.abs(u_m - (a * u_p - b * y_nu_p)))),
        causal_invariant_residual=float(
            np.max(np.abs((u_m**2 - y_nu_m**2) - (u_p**2 - y_nu_p**2)))
        ),
    )


# ---------------------------------------------------------------------------
# Killing conditions


def _lapse_shift_jet(data: InitialData, ls: LapseShift, f: PointFields):
    """u (m,), Y (m, b), du (m, a) and nablaY[m, a, b] = g(nabla_{e_a} Y, e_b) in the deterministic frame.

    From the field's values c and closed-form frame derivatives e_a(c):
    e_a(u) = 2 Re<psi, e_a psi> and e_a(Y_b) = 2 Re<e_a psi, tau e_b psi>.
    """
    c = ls.field.evaluate(f.x)
    dc = ls.field.frame_derivatives(data, f)  # (m, I, a)
    u, Y = _lapse_shift(c)
    Y = Y.real
    du = 2.0 * np.einsum("mI,mIa->ma", np.conj(c), dc).real
    dY = 2.0 * np.einsum("mIa,bIK,mK->mab", np.conj(dc), TAU_GAMMA, c).real
    W = bulk_spin_coefficients(data, f)  # W[m, a, c, b] = g(nabla_a e_c, e_b)
    return u, Y, du, dY + np.einsum("mc,macb->mab", Y, W)


@dataclass(frozen=True)
class KillingResiduals:
    symmetry_defect: np.ndarray  # (m,): antisymmetric part of nabla Y
    max_tensor: float  # max |L_Y g - 2 u k| over the frame components
    max_covector: float  # max |du - k(Y, .)|


def killing_conditions_residual(data: InitialData, ls: LapseShift, pts: np.ndarray) -> KillingResiduals:
    """Residuals of the Killing initial-data equations at sample points, from closed-form derivatives."""
    f = PointFields(data, as_points(pts, data.n))
    kf = np.einsum("mai,mij,mbj->mab", f.frame, f.k, f.frame)
    u, Yf, du, nablaY = _lapse_shift_jet(data, ls, f)
    lie = nablaY + np.swapaxes(nablaY, 1, 2)
    tensor = lie - 2.0 * u[:, None, None] * kf
    covector = du - np.einsum("mb,mab->ma", Yf, kf)
    sym_defect = np.max(np.abs(nablaY - np.swapaxes(nablaY, 1, 2)), axis=(1, 2))
    return KillingResiduals(
        symmetry_defect=sym_defect,
        max_tensor=float(np.max(np.abs(tensor))),
        max_covector=float(np.max(np.abs(covector))),
    )


# ---------------------------------------------------------------------------
# Killing development


@dataclass(frozen=True)
class DevelopmentMetric:
    """Stationary development -(u^2 - |Y|^2) dt^2 + 2 Y dt + g."""

    data: InitialData
    ls: LapseShift

    def evaluate(self, t: float, x: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        m = pts.shape[0]
        g = self.data.g(pts)
        Yvec = self.ls.Y_vector(pts)
        Ylow = np.einsum("mij,mj->mi", g, Yvec)
        q = self.ls.lorentz_length_squared(pts)
        out = np.zeros((m, 4, 4))
        out[:, 0, 0] = -q
        out[:, 0, 1:] = Ylow
        out[:, 1:, 0] = Ylow
        out[:, 1:, 1:] = g
        return out[0] if np.asarray(x).ndim == 1 else out


def killing_development(data: InitialData, ls: LapseShift, sample_points: np.ndarray | None = None) -> DevelopmentMetric:
    """Development metric of a lapse-shift pair; requires u > 0."""
    if sample_points is not None:
        u = ls.u(np.atleast_2d(sample_points))
        if np.any(u <= 0.0):
            raise KillingError("lapse must be positive for a Killing development")
    return DevelopmentMetric(data=data, ls=ls)


def riemann_norm(dm: DevelopmentMetric, point: np.ndarray) -> float:
    """Frobenius norm of the development's Riemann tensor at the point (0, x).

    Christoffel symbols come from central differences of the metric
    evaluator (step 1e-5); their derivatives from a second, wider stencil
    (step 2e-4).  The documented noise floor of the two nested differences
    is about 1e-6.  The 9 x 9 nested stencil points are one batch, each
    evaluated at its spatial part, since the development is stationary.
    """
    h, h2 = 1e-5, 2e-4
    offsets = np.concatenate([np.zeros((1, 4)), np.kron(np.eye(4), [[1.0], [-1.0]])])  # 0, +e_0, -e_0, .., -e_3
    centers = np.concatenate([[0.0], np.asarray(point, dtype=float)]) + h2 * offsets  # the outer stencil
    z = centers[:, None, :] + h * offsets[None, :, :]  # each center's inner stencil
    g4 = dm.evaluate(0.0, z.reshape(-1, 4)[:, 1:]).reshape(9, 9, 4, 4)

    # Gamma^a_{bc} = 1/2 g^{ad} (d_b g_dc + d_c g_db - d_d g_bc) at every center
    dg = np.moveaxis((g4[:, 1::2] - g4[:, 2::2]) / (2.0 * h), 1, -1)  # dg[k, ..., mu] = d_mu g at center k
    combo = np.swapaxes(dg, -1, -2) + dg - np.transpose(dg, (0, 3, 2, 1))
    gam = 0.5 * (np.linalg.inv(g4[:, 0]) @ combo.reshape(9, 4, 16)).reshape(9, 4, 4, 4)
    gam0, dgam = gam[0], np.moveaxis((gam[1::2] - gam[2::2]) / (2.0 * h2), 0, -1)
    # R^r_{s m n} = d_m Gamma^r_{n s} - d_n Gamma^r_{m s}
    #             + Gamma^r_{m l} Gamma^l_{n s} - Gamma^r_{n l} Gamma^l_{m s}
    riem = np.einsum("rnsm->rsmn", dgam) - np.einsum("rmsn->rsmn", dgam)
    riem += np.einsum("rml,lns->rsmn", gam0, gam0) - np.einsum("rnl,lms->rsmn", gam0, gam0)
    riem_low = np.einsum("rl,lsmn->rsmn", g4[0, 0], riem)
    return float(np.sqrt(np.sum(riem_low**2)))


def lorentz_length_drift(data: InitialData, ls: LapseShift, curve: np.ndarray) -> float:
    """Max drift of u^2 - |Y|^2 along a sampled curve (conservation check)."""
    pts = np.atleast_2d(np.asarray(curve, dtype=float))
    q = ls.lorentz_length_squared(pts)
    return float(np.max(np.abs(q - q[0])))


# ---------------------------------------------------------------------------
# explicit parallel spinors on catalog data


def graph_slice_parallel_spinor(data: InitialData, c0: np.ndarray) -> SpinorField:
    """Spacetime-parallel spinor restricted to a Minkowski graph slice.

    The slice normal is boosted radially with rapidity chi = -atanh(h');
    the corresponding spinor is the mode field cosh(chi/2) c0 +
    sinh(chi/2) (omega.Gamma) tau c0, which is parallel for the spacetime
    connection (checked by tests, not assumed).  The slope is read off the
    profile as h' = r A kappa_t, since A = sqrt(1 - h'^2) and
    kappa_t = h'/(r A); it keeps full relative precision where h' is tiny.
    """
    from .radial import mode_field

    if data.profile is None:
        raise KillingError("graph_slice_parallel_spinor needs a radial profile")
    c0 = np.asarray(c0, dtype=complex)
    tau_c0 = TAU @ c0

    def modes(r):  # U, V, U', V'
        p = data.profile(r)
        # h' = r A kappa_t; chi' = -A kappa_n
        half = -0.5 * np.arctanh(r * p.A * p.kappa_t)
        ch, sh, dhalf = np.cosh(half)[:, None], np.sinh(half)[:, None], (-0.5 * p.A * p.kappa_n)[:, None]
        return ch * c0, sh * tau_c0, dhalf * sh * c0, dhalf * ch * tau_c0

    return mode_field(data, modes)
