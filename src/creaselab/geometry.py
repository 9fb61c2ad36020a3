"""Charts, initial-data fields, frames, constraints, and induced boundary geometry.

An initial data set is a chart in Cartesian coordinates together with
vectorized closures for the metric g, the extrinsic curvature k, their
first partial derivatives and the second partial derivatives of g, all in
closed form.  Every function here takes point batches of shape (m, 3), a
single point being a batch of one; tensors append index axes, with the
derivative indices last: dg[..., i, j, l] = d_l g_ij and
d2g[..., i, j, l, m] = d_m d_l g_ij.  Curvature reads d2g; central
differences of dg (`second_metric_derivative`) are only its test oracle.

Field bundles: `PointFields` holds one data set's fields on one point
batch -- the points, g, g^-1, dg, Gamma, k, dk, d2g and the bulk frame --
each evaluated on first use and then kept.  The layer functions take
`(data, x)` with x a point batch or a bundle of the same data: given
points they build the bundle (`as_fields`), given one they read it.  A
bundle lives only as long as its batch: made for one set of nodes, passed
down the calls on them, dropped with them; nothing is cached across
batches, and a grid pass holds one per `field_blocks` block.  The boundary
data of a coordinate sphere are one record at unit vectors, `BartnikData`.

Conventions (fixed here, imported everywhere else):
  * k is taken with respect to the future timelike normal, signed so that
    the catalog's Minkowski graph slices satisfy the vacuum constraints.
  * Mean curvature of a round sphere with outward normal in flat space is
    positive, H = 2/r.
  * Orthonormal frames come from Gram-Schmidt on the coordinate basis in
    fixed index order.  On coordinate spheres the frame is adapted: shared
    tangential vectors (Euclidean projections of the coordinate basis,
    orthonormalized in the induced metric) followed by e_3 = outward unit
    normal, with the last tangential vector flipped if needed to keep the
    frame positively oriented.
  * Units G = c = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
import math
from typing import Callable, Iterator, NamedTuple

import numpy as np


class GeometryError(ValueError):
    """Invalid data, out-of-domain evaluation, or degenerate geometry."""


FD_STEP_SCALE = float(np.finfo(float).eps) ** (1.0 / 3.0)


SPHERE_AREA = 4.0 * math.pi  # area of the unit 2-sphere


def as_points(x: np.ndarray) -> np.ndarray:
    """A point batch (m, 3) as a float array; any other shape is an error."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise GeometryError(f"points must have shape (m, 3), got {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# charts and data containers


@dataclass(frozen=True)
class Chart:
    """Radial domain r_min <= |x| <= r_max: a ball (r_min = 0), an annulus, or an exterior region (r_max = inf)."""

    r_min: float
    r_max: float

    def contains(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return (r >= self.r_min) & (r <= self.r_max)

    def require(self, r: np.ndarray, what: str = "point") -> None:
        ok = self.contains(r)
        if not np.all(ok):
            bad = np.asarray(r)[~np.asarray(ok, dtype=bool)]
            raise GeometryError(
                f"{what} at r={float(np.atleast_1d(bad)[0]):.6g} outside chart "
                f"[{self.r_min:.6g}, {self.r_max:.6g}]"
            )


class RadialProfile(NamedTuple):
    """Scale functions of a spherically symmetric datum at the radii r.

    g = A(r)^2 dr^2 + (r B(r))^2 dOmega^2 written on the Cartesian chart as
    B^2 (delta - P) + A^2 P with P the radial projector, dA and dB the radial
    derivatives of A and B, d2B that of dB, and k diagonal in the adapted
    frame with normal eigenvalue kappa_n and tangential eigenvalue kappa_t,
    dkappa_t its radial derivative.  All are finite at r = 0 (not so mu and J,
    which divide by r B: `matter_densities` forms them at r > 0).
    """

    r: np.ndarray
    A: np.ndarray
    B: np.ndarray
    dA: np.ndarray
    dB: np.ndarray
    d2B: np.ndarray
    kappa_n: np.ndarray
    kappa_t: np.ndarray
    dkappa_t: np.ndarray


def matter_densities(p: RadialProfile) -> tuple[np.ndarray, np.ndarray]:
    """`constraint_fields`' mu and J.nu (J is radial, |J| = |J.nu|) at p's radii, all r > 0: with S = r B,
    R = 2 (1 - (S'/A)^2) / S^2 - 4 (S'/A)' / (A S), mu = R/2 + 2 kappa_n kappa_t + kappa_t^2 and
    J.nu = (2 (S'/S) (kappa_n - kappa_t) - 2 kappa_t') / A."""
    S, q = p.r * p.B, (p.B + p.r * p.dB) / p.A  # q = S'/A
    dq = (2.0 * p.dB + p.r * p.d2B - q * p.dA) / p.A
    mu = (1.0 - q * q) / S**2 - 2.0 * dq / (p.A * S) + p.kappa_t * (2.0 * p.kappa_n + p.kappa_t)
    return mu, 2.0 * (q * (p.kappa_n - p.kappa_t) / S - p.dkappa_t / p.A)


@dataclass(frozen=True)
class InitialData:
    """Metric/extrinsic-curvature fields with closed-form derivatives on a chart.

    Each closure maps a point batch (m, 3) to its tensor field: g and k
    (m, 3, 3), dg and dk (m, 3, 3, 3) with the derivative index last, and
    d2g (m, 3, 3, 3, 3) with d2g[..., i, j, l, m] = d_m d_l g_ij.
    `profile` maps radii to the `RadialProfile` of spherically symmetric
    data, derived from the same radial functions as g and k; None means the
    data is not spherically symmetric.
    """

    chart: Chart
    g: Callable[[np.ndarray], np.ndarray]
    k: Callable[[np.ndarray], np.ndarray]
    dg: Callable[[np.ndarray], np.ndarray]
    dk: Callable[[np.ndarray], np.ndarray]
    d2g: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    profile: Callable[[np.ndarray], RadialProfile] | None = None


@dataclass(frozen=True)
class CreaseAngle:
    """Hyperbolic angle function on the crease sphere.

    `value` maps unit vectors (m, 3) to angles; `surface_gradient` maps
    them to the analytic unit-sphere gradient in Cartesian components
    (divide by the coordinate radius for the covector on a sphere of radius
    r0).  `constant` is the angle's value when it is constant, else None.
    """

    value: Callable[[np.ndarray], np.ndarray]
    surface_gradient: Callable[[np.ndarray], np.ndarray]
    constant: float | None = None
    description: str = ""

    @staticmethod
    def from_constant(value: float) -> "CreaseAngle":
        c = float(value)
        return CreaseAngle(
            value=lambda omega: np.full(np.shape(omega)[0], c),
            surface_gradient=lambda omega: np.zeros_like(np.asarray(omega, dtype=float)),
            constant=c,
            description=f"constant {c:g}",
        )

    @staticmethod
    def cos_theta(amplitude: float) -> "CreaseAngle":
        amp = float(amplitude)

        def value(omega):
            return amp * np.asarray(omega, dtype=float)[:, 2]

        def grad(omega):
            om = np.asarray(omega, dtype=float)
            # gradient of the degree-0 extension amp * x3/|x| on the unit sphere
            out = -om * om[:, 2:3]
            out[:, 2] += 1.0
            return amp * out

        return CreaseAngle(value=value, surface_gradient=grad, description=f"{amp:g}*cos(theta)")


@dataclass(frozen=True)
class CreasedData:
    """Two initial data sets glued across the coordinate sphere r = r0."""

    minus: InitialData
    plus: InitialData
    r0: float
    angle: CreaseAngle
    label: str = ""

    def with_angle(self, angle: CreaseAngle, label: str | None = None) -> "CreasedData":
        return replace(self, angle=angle, label=self.label if label is None else label)


# ---------------------------------------------------------------------------
# metric algebra


_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]  # the cyclic successors i + 1 and i + 2 of the indices 0, 1, 2


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis: np.cross's products, without its generic axis handling."""
    return a[..., _NEXT] * b[..., _AFTER] - a[..., _AFTER] * b[..., _NEXT]


def determinant(g: np.ndarray) -> np.ndarray:
    """det of a 3x3 batch (..., 3, 3): the triple product of its rows."""
    return np.sum(g[..., 0, :] * _cross(g[..., 1, :], g[..., 2, :]), axis=-1)


def positive_definite(g: np.ndarray) -> bool:
    """Whether every matrix of the symmetric 3x3 batch g is positive definite: Sylvester's leading minors."""
    minor2 = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    return bool(np.all((g[..., 0, 0] > 0.0) & (minor2 > 0.0) & (determinant(g) > 0.0)))


def inverse_metric(g: np.ndarray) -> np.ndarray:
    """g^-1 of a symmetric 3x3 batch by cofactors: row i of the cofactor matrix is the cross product of the
    rows i + 1 and i + 2 (cyclic), row 0 dotted with it is det g, and for symmetric g it is its own transpose."""
    cof = _cross(g[..., _NEXT, :], g[..., _AFTER, :])
    return cof / np.sum(g[..., 0, :] * cof[..., 0, :], axis=-1)[..., None, None]


def christoffel(data: InitialData, x) -> np.ndarray:
    """Gamma[..., k, i, j] = 1/2 g^{kl} (dg_jl,i + dg_il,j - dg_ij,l): g^-1 times the lowered terms as (m, 3, 3 3)."""
    f = as_fields(data, x)
    m, n = f.x.shape
    dg = f.dg  # the lowered terms below are in the order [..., l, i, j]
    lowered = dg.transpose(0, 2, 3, 1) + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 3, 1, 2)
    return 0.5 * (f.ginv @ lowered.reshape(m, n, n * n)).reshape(m, n, n, n)


@dataclass(frozen=True, eq=False)
class PointFields:
    """One data set's fields on one point batch x (m, 3), each evaluated once.

    Attributes are computed on first access by the functions a caller with
    raw points would use, and kept (shared by every reader, so never written
    in place) for the bundle's life: one batch, or one block of a grid pass.
    """

    data: InitialData
    x: np.ndarray

    g = cached_property(lambda self: self.data.g(self.x))
    ginv = cached_property(lambda self: inverse_metric(self.g))
    dg = cached_property(lambda self: self.data.dg(self.x))
    gamma = cached_property(lambda self: christoffel(self.data, self))
    k = cached_property(lambda self: self.data.k(self.x))
    dk = cached_property(lambda self: self.data.dk(self.x))
    d2g = cached_property(lambda self: self.data.d2g(self.x))
    frame = cached_property(lambda self: bulk_frame(self.data, self))  # bulk Gram-Schmidt frame


BLOCK_NODES = 1024  # nodes per bundle of a grid pass: two order-16 sphere shells, whose d2g (0.66 MB) stays in cache


def field_blocks(data: InitialData, x, radii=(1.0,)) -> Iterator[PointFields]:
    """Bundles of the consecutive blocks of at most BLOCK_NODES points r_i x_j (the batch x by default), in order."""
    pts, radii = as_points(x), np.asarray(radii, dtype=float)
    total = len(radii) * len(pts)
    for start in range(0, total, BLOCK_NODES):
        shell, node = np.divmod(np.arange(start, min(start + BLOCK_NODES, total)), len(pts))
        yield PointFields(data, radii[shell, None] * pts[node])


def as_fields(data: InitialData, x) -> PointFields:
    """The field bundle of the point batch x, built unless x is one already."""
    if isinstance(x, PointFields):
        if x.data is not data:
            raise GeometryError("field bundle belongs to another data set")
        return x
    return PointFields(data, as_points(x))


def second_metric_derivative(data: InitialData, x: np.ndarray) -> np.ndarray:
    """d2g[..., i, j, l, m] = d_m d_l g_ij by central differences on dg: the oracle of `data.d2g`."""
    pts = as_points(x)
    h = FD_STEP_SCALE * np.maximum(1.0, np.linalg.norm(pts, axis=1))
    out = np.empty(pts.shape[:1] + (3, 3, 3, 3))
    for m in range(3):
        dx = np.zeros_like(pts)
        dx[:, m] = h
        out[..., m] = (data.dg(pts + dx) - data.dg(pts - dx)) / (2.0 * h)[:, None, None, None]
    return out


def scalar_curvature(data: InitialData, x) -> np.ndarray:
    """Scalar curvature of g from its closed-form first and second derivatives.

    Only traces of d Gamma enter R, so it is assembled from batched matrix
    products over flattened index pairs, on views of the fields' memory:

        R = g^ij g^kl (d_k d_i g_jl - d_k d_l g_ij) + 1/2 g^ij tr(H_i H_j)
            + (c - u)_m Gamma^m - g^ij Gamma^k_jm Gamma^m_ik

    with H_i = g^-1 d_i g, c_i = tr(H_i)/2 = Gamma^k_ki, u_b = (H_k)^k_b
    and Gamma^m = g^ij Gamma^m_ij.
    """
    f = as_fields(data, x)
    ginv, dg, gamma, d2g = f.ginv, f.dg, f.gamma, f.d2g
    m, n = f.x.shape
    row = ginv.reshape(m, 1, n * n)  # g^ij as a row over the pair (i, j)
    # the d2g traces as forms in that row: d2g[..., j, l, k, i] pairs (l, k) but not j with i, so the
    # first one takes one derivative index i at a time rather than a transposed copy of d2g
    second = sum(ginv[:, i : i + 1] @ d2g[..., i].reshape(m, n, n * n) for i in range(n))
    r = ((second - row @ d2g.reshape(m, n * n, n * n)) @ row.swapaxes(1, 2))[:, 0, 0]
    Y = (ginv @ dg.reshape(m, n, n * n)).reshape(m, n, n, n)  # Y[..., k, b, j] = (H_j)^k_b
    HH = Y.reshape(m, n * n, n).swapaxes(1, 2) @ Y.swapaxes(1, 2).reshape(m, n * n, n)  # tr(H_i H_j)
    r += 0.5 * np.sum(ginv * HH, axis=(1, 2))
    c_minus_u = 0.5 * np.trace(Y, axis1=1, axis2=2) - np.trace(Y, axis1=1, axis2=3)
    r += (c_minus_u[:, None, :] @ gamma.reshape(m, n, n * n) @ row.swapaxes(1, 2))[:, 0, 0]
    # Gamma^k_mj g^ji, by the symmetry of Gamma's lower pair, against a transposed view of Gamma^m_ik
    raised = (gamma.reshape(m, n * n, n) @ ginv).reshape(m, n, n, n)
    return r - np.sum(raised * gamma.transpose(0, 3, 1, 2), axis=(1, 2, 3))


@dataclass(frozen=True)
class ConstraintValues:
    mu: np.ndarray
    J: np.ndarray  # coordinate covector components, shape (m, 3)

    def momentum_norm(self, data: InitialData, x) -> np.ndarray:
        return np.sqrt((self.J[:, None] @ as_fields(data, x).ginv @ self.J[:, :, None])[:, 0, 0])


def constraint_fields(data: InitialData, x) -> ConstraintValues:
    """Energy and momentum densities of the constraint equations.

    mu = (R + (tr k)^2 - |k|^2)/2 and J = div(k - (tr k) g), both analytic
    given dg, d2g and dk, so every point of the chart has them.
    """
    f = as_fields(data, x)
    data.chart.require(np.linalg.norm(f.x, axis=1), what="constraint point")

    g, dg, k, dk, ginv, gamma = f.g, f.dg, f.k, f.dk, f.ginv, f.gamma
    m, n = f.x.shape

    kmix = ginv @ k  # k^i_j
    kup = kmix @ ginv  # k^{ij}
    trk = np.trace(kmix, axis1=1, axis2=2)
    ksq = np.sum(kmix * np.swapaxes(kmix, 1, 2), axis=(1, 2))

    mu = 0.5 * (scalar_curvature(data, f) + trk**2 - ksq)

    # J_i = g^{jl} (d_l pi_ij - Gamma^m_{lj} pi_mi - Gamma^m_{li} pi_jm) with pi = k - (tr k) g and
    # g^{jl} d_l pi_ij = g^{jl} (d_l k_ij - tr k d_l g_ij) - d_i tr k: (m, 1, n n) @ (m, n n, n) products
    row = ginv.reshape(m, 1, n * n)
    dtrk = row @ dk.reshape(m, n * n, n) - kup.reshape(m, 1, n * n) @ dg.reshape(m, n * n, n)
    pi = k - trk[:, None, None] * g
    J = row @ (dk - trk[:, None, None, None] * dg).reshape(m, n, n * n).swapaxes(1, 2) - dtrk
    J -= row @ gamma.reshape(m, n, n * n).swapaxes(1, 2) @ pi
    J -= (pi @ ginv).reshape(m, 1, n * n) @ gamma.reshape(m, n * n, n)
    return ConstraintValues(mu=mu, J=J[:, 0])


# ---------------------------------------------------------------------------
# deterministic orthonormal frames


# Phi of the bulk frame's derivative d_i F = -Phi(F d_i g F^T) F: keeps the strict lower triangle, halves the diagonal
FRAME_PROJECTOR = np.tril(np.ones((3, 3)), -1) + 0.5 * np.eye(3)
FRAME_PROJECTOR.flags.writeable = False


def bulk_frame(data: InitialData, x) -> np.ndarray:
    """Gram-Schmidt frame on the coordinate basis in index order; rows are e_1, e_2, e_3.

    The rows F are lower triangular with F g F^T = I, so F = L^-1 for the
    Cholesky factor g = L L^T; both 3x3 triangles are written out entry by entry.
    """
    g = as_fields(data, x).g
    l00 = np.sqrt(g[:, 0, 0])
    l10, l20 = g[:, 1, 0] / l00, g[:, 2, 0] / l00
    l11 = np.sqrt(g[:, 1, 1] - l10 * l10)
    l21 = (g[:, 2, 1] - l20 * l10) / l11
    l22 = np.sqrt(g[:, 2, 2] - l20 * l20 - l21 * l21)
    f00, f11, f22 = 1.0 / l00, 1.0 / l11, 1.0 / l22
    f10 = -l10 * f00 * f11
    frame = np.zeros(g.shape)
    frame[:, 0, 0], frame[:, 1, 1], frame[:, 2, 2], frame[:, 1, 0] = f00, f11, f22, f10
    frame[:, 2, 1] = -l21 * f11 * f22
    frame[:, 2, 0] = -(l20 * f00 + l21 * f10) * f22
    return frame


def _quadratic(a: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . g . b per node of vector batches a, b (m, 3) and a matrix batch g (m, 3, 3)."""
    return np.sum(a * (g @ b[:, :, None])[:, :, 0], axis=1)


def _normal_parts(f: PointFields) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """r, omega = x / r, u = g^-1 omega and s = omega . u: the outward unit normal is u / sqrt(s)."""
    r = np.linalg.norm(f.x, axis=1)
    omega = f.x / r[:, None]
    u = (f.ginv @ omega[:, :, None])[:, :, 0]
    return r, omega, u, np.sum(omega * u, axis=1)


def outward_unit_normal(data: InitialData, x) -> np.ndarray:
    """g-unit normal of the coordinate sphere through x, pointing outward."""
    _, _, u, s = _normal_parts(as_fields(data, x))
    return u / np.sqrt(s)[:, None]


FRAME_SKIP_TOL = 1e-8


def sphere_frame(data: InitialData, x) -> np.ndarray:
    """Positively oriented adapted frame (m, 3, 3) at points of a coordinate sphere: rows t_1, t_2, outward nu.

    Tangential candidates are the Euclidean projections of the coordinate
    basis in fixed order, orthonormalized in the induced metric, so data
    sets inducing one boundary metric share them; candidates whose residual
    drops below FRAME_SKIP_TOL (relative) are skipped, which happens only on
    measure-zero degeneracy sets avoided by the grids.
    """
    f = as_fields(data, x)
    m = f.x.shape[0]
    r = np.linalg.norm(f.x, axis=1)
    omega = f.x / r[:, None]
    g = f.g

    accepted = np.zeros((m, 2, 3))
    count = np.zeros(m, dtype=int)
    for i in range(3):
        if np.all(count == 2):  # the third candidate is needed only where one of the first two was skipped
            break
        cand = -omega * omega[:, i:i+1]
        cand[:, i] += 1.0
        ref = np.sqrt(_quadratic(cand, g, cand))
        for j in range(i):
            sel = count > j  # points whose slot j is already filled
            proj = _quadratic(accepted[:, j], g, cand)
            cand = cand - np.where(sel, proj, 0.0)[:, None] * accepted[:, j]
        nrm = np.sqrt(_quadratic(cand, g, cand))
        ok = (nrm > FRAME_SKIP_TOL * np.maximum(ref, 1e-300)) & (count < 2)
        idx = np.nonzero(ok)[0]
        accepted[idx, count[idx]] = cand[idx] / nrm[idx, None]
        count[idx] += 1
    if np.any(count < 2):
        raise GeometryError("tangential frame construction degenerated at a node")

    nu = outward_unit_normal(data, f)
    frame = np.concatenate([accepted, nu[:, None, :]], axis=1)
    # enforce positive orientation by flipping the last tangential vector
    neg = determinant(frame) < 0.0
    frame[neg, 1, :] *= -1.0
    return frame


# ---------------------------------------------------------------------------
# induced hypersurface geometry


@dataclass(frozen=True)
class BartnikData:
    """Bartnik data of the coordinate sphere r = r0 at unit vectors omega, for the outward normal."""

    r0: float
    omega: np.ndarray  # (m, 3) unit vectors
    nu: np.ndarray  # (m, 3) outward unit normal
    tangent: np.ndarray  # (m, 2, 3) shared tangential frame
    H: np.ndarray
    trk: np.ndarray  # trace of k over the tangential frame
    beta: np.ndarray  # (m, 2), beta_alpha = k(nu, t_alpha)
    area_element: np.ndarray  # dA = area_element * dOmega


def _normal_derivative(f: PointFields) -> np.ndarray:
    """dN[..., j, i] = d_i N^j for the outward unit normal field N = u / sqrt(s).

    With d_i g^-1 = -g^-1 (d_i g) g^-1 and W[..., a, i] = (d_i g)_ab u^b:
    d_i u = g^-1 (d_i omega - W_i) and d_i s = u . (2 d_i omega - W_i).
    """
    r, omega, u, s = _normal_parts(f)
    domega = (np.eye(3) - omega[:, :, None] * omega[:, None, :]) / r[:, None, None]
    W = (u[:, None, None, :] @ f.dg)[:, :, 0, :]
    du = f.ginv @ (domega - W)
    ds = (u[:, None, :] @ (2.0 * domega - W))[:, 0, :]
    return du / np.sqrt(s)[:, None, None] - 0.5 * u[:, :, None] * (ds / s[:, None] ** 1.5)[:, None, :]


def sphere_area_element(data: InitialData, r0: float, x) -> np.ndarray:
    """dA / dOmega of the sphere r = r0 at its points x = r0 * omega (m, 3), a point batch or its bundle.

    Raises GeometryError off the chart, where g is not positive definite,
    and where the induced metric degenerates.  The chart is checked at the
    nominal radius r0, since |r0 * omega| may miss it by an ulp.  The exact
    poles omega = (0, 0, +-1), which no grid node is, raise too: both
    coordinate tangents below vanish with sin(theta), so the quotient is 0/0.
    """
    f = as_fields(data, x)
    data.chart.require(np.full(f.x.shape[0], r0), what="sphere")
    g = f.g
    if not positive_definite(g):
        raise GeometryError("metric not positive definite on the sphere")
    om = f.x / r0
    sin2 = om[:, 0] ** 2 + om[:, 1] ** 2  # sin^2(theta)
    # the coordinate tangents r0 d omega / d theta (times sin(theta)) and r0 d omega / d phi, without angles
    xt = r0 * np.stack([om[:, 2] * om[:, 0], om[:, 2] * om[:, 1], -sin2], axis=1)
    xp = r0 * np.stack([-om[:, 1], om[:, 0], np.zeros_like(sin2)], axis=1)
    gxt = (g @ xt[:, :, None])[:, :, 0]
    g_tp = np.sum(xp * gxt, axis=1)
    det = np.sum(xt * gxt, axis=1) * _quadratic(xp, g, xp) - g_tp**2  # sin^2(theta) det of the induced metric
    if np.any(det <= 0.0):
        raise GeometryError("degenerate induced metric on the sphere")
    return np.sqrt(det) / sin2


def hypersurface_geometry(data: InitialData, r0: float, omega) -> BartnikData:
    """The Bartnik data of the sphere r = r0 at the unit vectors omega (m, 3).

    The fields are read on one bundle of the points r0 * omega.  The normal
    is the outward one; a caller that needs the inward normal flips H and
    beta.  The guards of `sphere_area_element` run before anything else is
    computed.
    """
    r0, omega = float(r0), as_points(omega)
    f = PointFields(data, r0 * omega)
    area_element = sphere_area_element(data, r0, f)
    g, k, gamma = f.g, f.k, f.gamma
    frame = sphere_frame(data, f)
    t, nu = frame[:, :-1, :], frame[:, -1, :]

    cov = _normal_derivative(f) + (gamma @ nu[:, None, :, None])[..., 0]  # nabla_i nu^j
    # H = sum_alpha g(nabla_{t_alpha} nu, t_alpha), with (t g)[a, j] = g(t_a, .)_j and (t cov^T)[a, j] = (nabla_{t_a} nu)^j
    Hval = np.sum((t @ np.swapaxes(cov, 1, 2)) * (t @ g), axis=(1, 2))
    tk = t @ k  # k(t_alpha, .)
    trk = np.sum(tk * t, axis=(1, 2))
    beta = (tk @ nu[:, :, None])[:, :, 0]
    return BartnikData(r0, omega, nu, t, Hval, trk, beta, area_element)
