"""Lapse-shift pairs, crease Lorentz relations, and Killing developments.

A spinor psi induces the lapse-shift pair u = |psi|^2, <Y, W> = <tau W psi,
psi>.  When psi is parallel for the spacetime connection, (u, Y) satisfies
the Killing initial-data conditions L_Y g + 2 u k = 0 and du + k(Y,.) = 0,
the stationary development -(u^2-|Y|^2)dt^2 + 2Y dt + g is flat for the
catalog's Minkowski slices, and the squared Lorentz length u^2 - |Y|^2 is
conserved along curves.  This module evaluates all of those statements
numerically; it certifies identities on data with explicit parallel
spinors rather than attempting any global construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cliffords import CliffordRep
from .geometry import CreasedData, GeometryError, InitialData, bulk_frame
from .integrals import TRANSMISSION_TOL, bulk_spin_coefficients, transmission_matrix_nodes
from .spheregrid import sphere_grid
from .spinorfields import SpinorField


class KillingError(GeometryError):
    pass


REALITY_TOL = 1e-12


@dataclass(frozen=True)
class LapseShift:
    """Scalar lapse and shift vector (frame components) as field closures."""

    data: InitialData
    rep: CliffordRep
    u: Callable[[np.ndarray], np.ndarray]
    Y_frame: Callable[[np.ndarray], np.ndarray]

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


def _lapse_shift_map(rep: CliffordRep) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The map from spinor components c (m, I) to (u, Y) with u = |psi|^2 and
    Y_a = <tau e_a psi, psi> (complex, (m, n); real for a genuine shift)."""
    tau_gam = np.einsum("IK,aKL->aIL", rep.tau, rep.gamma)

    def pair(c):
        u = np.einsum("mI,mI->m", np.conj(c), c).real
        # <tau e_a psi, psi> = conj pairing in the first slot
        return u, np.conj(np.einsum("aIK,mK,mI->ma", tau_gam, c, np.conj(c)))

    return pair


def lapse_shift_from_spinor(rep: CliffordRep, field: SpinorField, data: InitialData,
                            check_points: np.ndarray | None = None) -> LapseShift:
    """Lapse-shift pair of a spinor field; the shift is checked to be real."""
    pair = _lapse_shift_map(rep)

    def u(x):
        return pair(field.evaluate(np.atleast_2d(x)))[0]

    def Y_frame(x):
        return pair(field.evaluate(np.atleast_2d(x)))[1].real

    if check_points is not None:
        worst = float(np.max(np.abs(pair(field.evaluate(np.atleast_2d(check_points)))[1].imag)))
        if worst > REALITY_TOL:
            raise KillingError(f"shift vector not real: imaginary part {worst:.3e}")
    return LapseShift(data=data, rep=rep, u=u, Y_frame=Y_frame)


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
    rep: CliffordRep,
    cd: CreasedData,
    psi_plus: Callable[[np.ndarray, np.ndarray], np.ndarray],
    order: int = 12,
    psi_minus: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> LorentzCheck:
    """Residuals of the hyperbolic-rotation relations between the two sides'
    lapse-shift traces: tangential shifts agree, while the (normal, lapse)
    pair mixes through (cosh f, sinh f).

    Traces are adapted-frame components on the crease sphere; psi_minus
    defaults to the transmission image of psi_plus and is otherwise checked
    against it to TRANSMISSION_TOL, the tolerance of the crease identities.
    """
    grid = sphere_grid(order)
    f = np.asarray(cd.angle.value(grid.nodes), dtype=float)
    c_plus = np.asarray(psi_plus(grid.theta, grid.phi), dtype=complex)
    rot = transmission_matrix_nodes(rep, f)
    if psi_minus is None:
        c_minus = np.einsum("mIK,mK->mI", rot, c_plus)
    else:
        c_minus = np.asarray(psi_minus(grid.theta, grid.phi), dtype=complex)
        defect = float(np.max(np.abs(c_minus - np.einsum("mIK,mK->mI", rot, c_plus))))
        if defect > TRANSMISSION_TOL:
            raise KillingError(f"traces violate the transmission condition: {defect:.3e}")

    n = rep.n
    pair = _lapse_shift_map(rep)
    u_p, y_p = pair(c_plus)
    u_m, y_m = pair(c_minus)
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


FD_STEP = 1e-5


def _frame_directional(data: InitialData, fn, pts: np.ndarray):
    """e_a(fn) for scalar or frame-vector nodal closures; appends axis a."""
    frame = bulk_frame(data, pts)
    cols = []
    for a in range(data.n):
        v = frame[:, a, :]
        cols.append((np.asarray(fn(pts + FD_STEP * v)) - np.asarray(fn(pts - FD_STEP * v))) / (2.0 * FD_STEP))
    return np.stack(cols, axis=-1)


def shift_covariant_derivative(data: InitialData, ls: LapseShift, pts: np.ndarray) -> np.ndarray:
    """nablaY[m, a, b] = g(nabla_{e_a} Y, e_b) in the deterministic frame."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    dY = _frame_directional(data, ls.Y_frame, pts)  # (m, b, a)
    W = bulk_spin_coefficients(data, pts)  # W[m, a, c, b] = g(nabla_a e_c, e_b)
    Y = ls.Y_frame(pts)
    return np.transpose(dY, (0, 2, 1)) + np.einsum("mc,macb->mab", Y, W)


@dataclass(frozen=True)
class KillingResiduals:
    symmetry_defect: np.ndarray  # (m,): antisymmetric part of nabla Y
    max_tensor: float  # max |L_Y g + 2 u k| over the frame components
    max_covector: float  # max |du + k(Y, .)|


def killing_conditions_residual(data: InitialData, ls: LapseShift, pts: np.ndarray) -> KillingResiduals:
    """Residuals of the Killing initial-data equations at sample points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    frame = bulk_frame(data, pts)
    k = data.k(pts)
    kf = np.einsum("mai,mij,mbj->mab", frame, k, frame)
    nablaY = shift_covariant_derivative(data, ls, pts)
    u = ls.u(pts)
    lie = nablaY + np.swapaxes(nablaY, 1, 2)
    tensor = lie + 2.0 * u[:, None, None] * kf
    du = _frame_directional(data, ls.u, pts)
    Yf = ls.Y_frame(pts)
    covector = du + np.einsum("mb,mab->ma", Yf, kf)
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


def graph_slice_parallel_spinor(rep: CliffordRep, data: InitialData, c0: np.ndarray) -> SpinorField:
    """Spacetime-parallel spinor restricted to a Minkowski graph slice.

    The slice normal is boosted radially with rapidity chi = -atanh(h');
    the corresponding spinor is the mode field cosh(chi/2) c0 +
    sinh(chi/2) (omega.Gamma) tau c0, which is parallel for the spacetime
    connection (checked by tests, not assumed).
    """
    from .radial import mode_field

    prof = data.profile
    if prof is None:
        raise KillingError("graph_slice_parallel_spinor needs a radial profile")
    c0 = np.asarray(c0, dtype=complex)

    def chi(r):
        # A = sqrt(1 - h'^2) fixes |h'|; kappa_t = h'/(r sqrt(1-h'^2)) its sign
        hp = np.sqrt(np.clip(1.0 - prof.A(r) ** 2, 0.0, None)) * np.sign(prof.kappa_t(r))
        return -np.arctanh(hp)

    def u_of_r(r):
        return np.cosh(0.5 * chi(r))[:, None] * c0[None, :]

    def v_of_r(r):
        return np.sinh(0.5 * chi(r))[:, None] * (rep.tau @ c0)[None, :]

    def du_of_r(r):  # chi' = -A kappa_n
        return (-0.5 * prof.A(r) * prof.kappa_n(r) * np.sinh(0.5 * chi(r)))[:, None] * c0[None, :]

    def dv_of_r(r):
        return (-0.5 * prof.A(r) * prof.kappa_n(r) * np.cosh(0.5 * chi(r)))[:, None] * (rep.tau @ c0)[None, :]

    return mode_field(rep, data, u_of_r, v_of_r, du_of_r, dv_of_r)
