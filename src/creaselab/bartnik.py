"""Bartnik boundary data, hyperbolic gauge algebra, and the DEC-crease margin.

Boundary data live on a Gauss-Legendre sphere grid.  The mean-curvature
vector has components (H, tr_gamma k) in the (nu, tau) frame of the normal
bundle; hyperbolic gauge rotations mix them as an SO+(1,1) action, and the
connection 1-form beta = k(nu, .) shifts by df.  Tangential covectors are
stored by their components in the shared orthonormal tangential frame, so
their induced-metric norms are plain Euclidean norms of components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    CreaseAngle,
    CreasedData,
    GeometryError,
    HypersurfaceGeometry,
    InitialData,
    hypersurface_geometry,
)
from .spheregrid import SphereGrid, sphere_grid, surface_gradient


class BartnikError(GeometryError):
    pass


@dataclass(frozen=True)
class BartnikData:
    """Induced boundary data sampled on a sphere grid."""

    grid: SphereGrid
    r0: float
    H: np.ndarray  # (N,)
    trk: np.ndarray  # (N,)
    beta: np.ndarray  # (N, 2), frame components of k(nu, .)
    tangent: np.ndarray  # (N, 2, 3) shared tangential frame vectors
    area_element: np.ndarray  # (N,), dA = area_element dOmega

    @property
    def size(self) -> int:
        return self.H.shape[0]


def bartnik_data(grid: SphereGrid, r0: float, hg: HypersurfaceGeometry) -> BartnikData:
    """The Bartnik data of the sphere r = r0 from its geometry on the nodes r0 * grid.nodes."""
    return BartnikData(grid, float(r0), hg.H, hg.trk, hg.beta, hg.tangent, hg.area_element)


def bartnik_from_data(data: InitialData, r0: float, order: int = 16) -> BartnikData:
    """Sample the induced Bartnik data of the sphere r = r0 (outward normal) on a quadrature grid."""
    grid = sphere_grid(order)
    return bartnik_data(grid, r0, hypersurface_geometry(data, r0, r0 * grid.nodes))


def _check_same_grid(a: BartnikData, b: BartnikData) -> None:
    if a.grid.size != b.grid.size or a.r0 != b.r0:
        raise BartnikError("Bartnik data live on different grids")
    if not np.allclose(a.grid.nodes, b.grid.nodes):
        raise BartnikError("Bartnik data live on different grids")


def _angle_values(angle, grid: SphereGrid) -> np.ndarray:
    if isinstance(angle, CreaseAngle):
        return np.asarray(angle.value(grid.nodes), dtype=float)
    arr = np.asarray(angle, dtype=float)
    if arr.shape != (grid.size,):
        raise BartnikError("angle array does not match the grid")
    return arr


def angle_gradient_frame(angle, B: BartnikData) -> np.ndarray:
    """Components df(t_alpha) of the angle differential on the crease sphere.

    A CreaseAngle carries its analytic unit-sphere gradient.  A nodal
    angle (as `equivalence_angle` solves it) takes the gradient of its
    spherical-harmonic projection, `spheregrid.surface_gradient`, or exactly
    zero when its values are all equal.  The homogeneous degree-0 extension
    of the angle gives the Cartesian covector (1/r0) * surface gradient.
    """
    grid = B.grid
    if isinstance(angle, CreaseAngle):
        grad = np.asarray(angle.surface_gradient(grid.nodes), dtype=float)
    else:
        values = _angle_values(angle, grid)
        if np.ptp(values) == 0.0:
            return np.zeros((grid.size, B.tangent.shape[1]))
        grad = surface_gradient(grid, values)
    cart = grad / B.r0
    return np.einsum("...i,...ai->...a", cart, B.tangent)


def rotated_components(B_minus: BartnikData, angle) -> tuple[np.ndarray, np.ndarray]:
    """Components of the rotated mean-curvature vector in the plus frame.

    nu-component = cosh(f) H + sinh(f) trk; tau-component = sinh(f) H +
    cosh(f) trk.  Hyperbolic rotations preserve H^2 - trk^2.
    """
    f = _angle_values(angle, B_minus.grid)
    if not np.all(np.isfinite(f)):
        raise BartnikError("hyperbolic angle must be finite at all nodes")
    ch, sh = np.cosh(f), np.sinh(f)
    return ch * B_minus.H + sh * B_minus.trk, sh * B_minus.H + ch * B_minus.trk


def beta_delta(B_minus: BartnikData, B_plus: BartnikData, angle) -> np.ndarray:
    """Connection difference beta_plus - beta_minus - df in frame components."""
    _check_same_grid(B_minus, B_plus)
    df = angle_gradient_frame(angle, B_minus)
    return B_plus.beta - B_minus.beta - df


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


# dec_creased slack below 0 for a margin that vanishes exactly: its roundoff is at most eps cosh(10) |H| = 2.4e-12 |H|
DEC_CREASE_TOL = 1e-9


def crease_margin(B_minus: BartnikData, B_plus: BartnikData, angle) -> CreaseReport:
    """DEC-crease margin: <F(H_-) - H_+, nu_+> - sqrt(<F(H_-) - H_+, tau_+>^2 + |beta^Delta|^2).

    The reported node is the first whose margin lies within roundoff,
    1e-12 max(1, max |margin|), of the minimum, so a margin that is constant
    up to roundoff reports node 0 rather than a tie broken by the last bits.
    """
    _check_same_grid(B_minus, B_plus)
    nu_rot, tau_rot = rotated_components(B_minus, angle)
    nu_c = nu_rot - B_plus.H
    tau_c = tau_rot - B_plus.trk
    bd = beta_delta(B_minus, B_plus, angle)
    bd_norm = np.linalg.norm(bd, axis=-1)
    margin = nu_c - np.sqrt(tau_c**2 + bd_norm**2)
    lowest = float(np.min(margin))
    tie = 1e-12 * max(1.0, float(np.max(np.abs(margin))))
    return CreaseReport(
        nu_component=nu_c,
        tau_component=tau_c,
        beta_delta=bd,
        beta_delta_norm=bd_norm,
        margin=margin,
        min_margin=lowest,
        argmin_node=int(np.argmax(margin <= lowest + tie)),
        dec_creased=bool(lowest >= -DEC_CREASE_TOL),
        area_element=B_minus.area_element,
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
    margin >= 0 wherever |margin| exceeds 1e-12; any disagreement there
    is an internal inconsistency.
    """
    nu, tau, bd = report.nu_component, report.tau_component, report.beta_delta_norm
    cond = (nu >= np.abs(tau)) & (nu**2 - tau**2 >= bd**2)
    margin_sign = report.margin >= 0.0
    decisive = np.abs(report.margin) > 1e-12
    disagreement = decisive & (cond != margin_sign)
    if np.any(disagreement):
        idx = int(np.nonzero(disagreement)[0][0])
        raise BartnikError(
            "equivalent crease formulations disagree at node "
            f"{idx}: margin={report.margin[idx]:.3e}"
        )
    return cond


def equivalence_angle(B: BartnikData, B_prime: BartnikData) -> np.ndarray | None:
    """Hyperbolic angle relating two Bartnik data sets, or None.

    Solves the rotation nodewise from the (nu, tau) component pair via
    atanh of the well-conditioned ratio; a mean-curvature vector that is
    null (to 1e-10, relative) anywhere makes the angle indeterminate.
    Returns the nodal angle when both the rotation and beta' = beta + df
    hold within 1e-8, otherwise None.
    """
    tol = 1e-8
    _check_same_grid(B, B_prime)
    H, trk = B.H, B.trk
    Hp, trkp = B_prime.H, B_prime.trk
    scale = np.maximum(H**2 + trk**2, 1e-300)
    causal = H**2 - trk**2
    if np.any(np.abs(causal) <= 1e-10 * scale):
        raise BartnikError("mean-curvature vector is null; hyperbolic angle indeterminate")
    # rotation invariant obstruction
    if np.max(np.abs(causal - (Hp**2 - trkp**2))) > tol * np.max(scale):
        return None
    ratio = (H * trkp - trk * Hp) / (H * Hp - trk * trkp)
    if np.any(np.abs(ratio) >= 1.0):
        return None
    f = np.arctanh(ratio)
    nu_c, tau_c = rotated_components(B, f)
    if max(np.max(np.abs(nu_c - Hp)), np.max(np.abs(tau_c - trkp))) > tol * (1.0 + np.max(np.abs(Hp))):
        return None
    df = angle_gradient_frame(f, B)
    if np.max(np.abs(B_prime.beta - B.beta - df)) > tol:
        return None
    return f
