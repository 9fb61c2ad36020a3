"""Bartnik boundary data, hyperbolic gauge algebra, and the DEC-crease margin.

Each side's boundary data are one `geometry.BartnikData` record at the unit
vectors omega given to `hypersurface_geometry`, and a `CreaseAngle` is read
at those omega.  The mean-curvature vector has components (H, tr_gamma k)
in the (nu, tau) frame of the normal bundle; hyperbolic gauge rotations mix
them as an SO+(1,1) action, and the connection 1-form beta = k(nu, .),
stored by its components in the shared orthonormal tangential frame,
shifts by df.  A margin has the unit 1/length, so its thresholds are
relative to the curvature scale, the largest |H| or |tr k| of either side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    BartnikData,
    CreaseAngle,
    CreasedData,
    GeometryError,
    InitialData,
    hypersurface_geometry,
)
from .spheregrid import SphereGrid, sphere_grid, surface_gradient


class BartnikError(GeometryError):
    pass


def bartnik_from_data(data: InitialData, r0: float, order: int = 16) -> BartnikData:
    """The Bartnik data of the sphere r = r0 (outward normal) at the nodes of the order's sphere grid."""
    return hypersurface_geometry(data, r0, sphere_grid(order).nodes)


def nodal_angle(grid: SphereGrid, values) -> CreaseAngle:
    """The crease angle of the values at the grid's nodes; it raises at any other unit vectors.

    Its gradient is that of the values' spherical-harmonic projection,
    `spheregrid.surface_gradient`, or exactly zero when they are all equal.
    """
    f = np.asarray(values, dtype=float)
    if f.shape != (grid.size,):
        raise BartnikError("nodal angle values do not match the grid")
    grad = np.zeros_like(grid.nodes) if np.ptp(f) == 0.0 else surface_gradient(grid, f)

    def at_nodes(omega, result):
        if not np.array_equal(omega, grid.nodes):
            raise BartnikError("a nodal angle exists at its grid's nodes only")
        return result

    return CreaseAngle(lambda omega: at_nodes(omega, f), lambda omega: at_nodes(omega, grad), description="nodal")


def _check_same_points(a: BartnikData, b: BartnikData) -> None:
    if a.r0 != b.r0 or not np.array_equal(a.omega, b.omega):
        raise BartnikError("Bartnik data live at different points of the sphere")


def curvature_scale(*records: BartnikData) -> float:
    """The largest |H| or |tr k| of the records: the unit 1/length of the crease thresholds."""
    return max(float(np.max(np.abs(np.concatenate([B.H, B.trk])))) for B in records)


def angle_gradient_frame(angle: CreaseAngle, B: BartnikData) -> np.ndarray:
    """Components df(t_alpha) of the angle differential at the record's points.

    The homogeneous degree-0 extension of the angle gives the Cartesian
    covector (1/r0) * unit-sphere gradient.
    """
    cart = np.asarray(angle.surface_gradient(B.omega), dtype=float) / B.r0
    return np.einsum("...i,...ai->...a", cart, B.tangent)


def rotated_components(B_minus: BartnikData, f) -> tuple[np.ndarray, np.ndarray]:
    """Components of the mean-curvature vector rotated by the angle values f at the record's points.

    nu-component = cosh(f) H + sinh(f) trk; tau-component = sinh(f) H +
    cosh(f) trk.  Hyperbolic rotations preserve H^2 - trk^2.
    """
    if not np.all(np.isfinite(f)):
        raise BartnikError("hyperbolic angle must be finite at all nodes")
    ch, sh = np.cosh(f), np.sinh(f)
    return ch * B_minus.H + sh * B_minus.trk, sh * B_minus.H + ch * B_minus.trk


def beta_delta(B_minus: BartnikData, B_plus: BartnikData, angle: CreaseAngle) -> np.ndarray:
    """Connection difference beta_plus - beta_minus - df in frame components."""
    _check_same_points(B_minus, B_plus)
    return B_plus.beta - B_minus.beta - angle_gradient_frame(angle, B_minus)


@dataclass(frozen=True)
class CreaseReport:
    """Pointwise DEC-crease margin diagnostics on the crease sphere."""

    nu_component: np.ndarray  # <F(H_minus) - H_plus, nu_plus>
    tau_component: np.ndarray  # <F(H_minus) - H_plus, tau_plus>
    beta_delta: np.ndarray  # (N, 2), beta^Delta in frame components
    beta_delta_norm: np.ndarray
    margin: np.ndarray
    min_margin: float
    argmin_node: int
    dec_creased: bool
    area_element: np.ndarray
    scale: float  # curvature_scale of the two sides: the unit of the thresholds


# dec_creased slack below 0, times the curvature scale, for a margin that is 0: roundoff eps cosh(10) |H| = 2.4e-12 |H|
DEC_CREASE_TOL = 1e-9


def crease_margin(B_minus: BartnikData, B_plus: BartnikData, angle: CreaseAngle) -> CreaseReport:
    """DEC-crease margin: <F(H_-) - H_+, nu_+> - sqrt(<F(H_-) - H_+, tau_+>^2 + |beta^Delta|^2).

    The angle is evaluated at the records' unit vectors.  The reported node
    is the first whose margin lies within roundoff, 1e-12 max(scale,
    max |margin|), of the minimum, so a margin that is constant up to
    roundoff reports node 0 rather than a tie broken by the last bits.
    """
    bd = beta_delta(B_minus, B_plus, angle)  # checks that the records share their points
    nu_rot, tau_rot = rotated_components(B_minus, angle.value(B_minus.omega))
    nu_c = nu_rot - B_plus.H
    tau_c = tau_rot - B_plus.trk
    bd_norm = np.linalg.norm(bd, axis=-1)
    margin = nu_c - np.sqrt(tau_c**2 + bd_norm**2)
    lowest = float(np.min(margin))
    scale = curvature_scale(B_minus, B_plus)
    tie = 1e-12 * max(scale, float(np.max(np.abs(margin))))
    return CreaseReport(
        nu_component=nu_c,
        tau_component=tau_c,
        beta_delta=bd,
        beta_delta_norm=bd_norm,
        margin=margin,
        min_margin=lowest,
        argmin_node=int(np.argmax(margin <= lowest + tie)),
        dec_creased=bool(lowest >= -DEC_CREASE_TOL * scale),
        area_element=B_minus.area_element,
        scale=scale,
    )


def crease_report_for(cd: CreasedData, order: int = 16) -> CreaseReport:
    """Margin report of a creased datum, sampling both sides on one grid."""
    bm = bartnik_from_data(cd.minus, cd.r0, order=order)
    bp = bartnik_from_data(cd.plus, cd.r0, order=order)
    return crease_margin(bm, bp, cd.angle)


def spacelike_form_check(report: CreaseReport) -> np.ndarray:
    """Equivalent form of the crease condition, checked node by node.

    The jump vector must be spacelike-or-null, point in the nu_+ direction,
    and have length at least |beta^Delta|.  The conjunction must agree with
    margin >= 0 wherever |margin| exceeds 1e-12 of the curvature scale; any
    disagreement there is an internal inconsistency.
    """
    nu, tau, bd = report.nu_component, report.tau_component, report.beta_delta_norm
    cond = (nu >= np.abs(tau)) & (nu**2 - tau**2 >= bd**2)
    margin_sign = report.margin >= 0.0
    decisive = np.abs(report.margin) > 1e-12 * report.scale
    disagreement = decisive & (cond != margin_sign)
    if np.any(disagreement):
        idx = int(np.nonzero(disagreement)[0][0])
        raise BartnikError(
            "equivalent crease formulations disagree at node "
            f"{idx}: margin={report.margin[idx]:.3e}"
        )
    return cond


def equivalence_angle(grid: SphereGrid, B: BartnikData, B_prime: BartnikData) -> CreaseAngle | None:
    """Hyperbolic angle relating two Bartnik data sets at the grid's nodes, or None.

    Solves the rotation nodewise from the (nu, tau) component pair via
    atanh of the well-conditioned ratio; a mean-curvature vector that is
    null (to 1e-10, relative) anywhere makes the angle indeterminate.
    Returns the `nodal_angle` on the grid when both the rotation and
    beta' = beta + df hold within 1e-8 of the curvature scale, otherwise None.
    """
    tol = 1e-8
    _check_same_points(B, B_prime)
    H, trk = B.H, B.trk
    Hp, trkp = B_prime.H, B_prime.trk
    size = np.maximum(H**2 + trk**2, 1e-300)
    causal = H**2 - trk**2
    if np.any(np.abs(causal) <= 1e-10 * size):
        raise BartnikError("mean-curvature vector is null; hyperbolic angle indeterminate")
    # rotation invariant obstruction
    if np.max(np.abs(causal - (Hp**2 - trkp**2))) > tol * np.max(size):
        return None
    ratio = (H * trkp - trk * Hp) / (H * Hp - trk * trkp)
    if np.any(np.abs(ratio) >= 1.0):
        return None
    angle = nodal_angle(grid, np.arctanh(ratio))
    nu_c, tau_c = rotated_components(B, angle.value(B.omega))
    bound = tol * curvature_scale(B, B_prime)
    if max(np.max(np.abs(nu_c - Hp)), np.max(np.abs(tau_c - trkp))) > bound:
        return None
    if np.max(np.abs(B_prime.beta - B.beta - angle_gradient_frame(angle, B))) > bound:
        return None
    return angle
