"""Spinor-valued fields and spin-frame changes.

A spinor field is a closure for its component functions relative to the
deterministic bulk Gram-Schmidt frame together with a closure for their
analytic Cartesian gradient, the one derivative path.  Components
may carry leading batch axes: a field of K spinors maps a point batch
(m, 3) to values (K, m, I) and gradients (K, m, I, 3), so everything that
depends only on the points is computed once for the whole batch.
Frame derivatives are stored direction-major, (..., m, 3, I) in memory,
and handed out as (..., m, I, 3) views: the real frame acts on the float
view of that memory, and every contraction over the direction or the
spinor index is one matrix product on contiguous memory.  Changing
between two orthonormal frames of the same metric lifts the relating
SO(3) rotation to the spinor representation; the lift is closed-form via
the axis-angle of the rotation, and so is its derivative along a family
of rotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cliffords import DIM, GAMMA
from .geometry import GeometryError, InitialData, as_fields


class SpinGaugeError(GeometryError):
    pass


def rotation_between_frames(g: np.ndarray, frame_from: np.ndarray, frame_to: np.ndarray) -> np.ndarray:
    """SO(3) matrix O with (components in `frame_to`) = O (components in `frame_from`).

    Both arguments are batched orthonormal frames (rows are frame vectors)
    of the same metric g; O = F_to g F_from^T.
    """
    return np.einsum("...ai,...ij,...bj->...ab", frame_to, g, frame_from)


def _rotation_bivector(axis_scaled: np.ndarray) -> np.ndarray:
    """sum_k axis_k * (Gamma_i Gamma_j) over cyclic (i,j,k); batched over axis."""
    b23 = GAMMA[1] @ GAMMA[2]
    b31 = GAMMA[2] @ GAMMA[0]
    b12 = GAMMA[0] @ GAMMA[1]
    return (
        axis_scaled[..., 0, None, None] * b23
        + axis_scaled[..., 1, None, None] * b31
        + axis_scaled[..., 2, None, None] * b12
    )


def _axial(M: np.ndarray) -> np.ndarray:
    """Axial vector of the skew part of M (..., 3, 3)."""
    d = M - np.swapaxes(M, -1, -2)
    return 0.5 * np.stack([d[..., 2, 1], d[..., 0, 2], d[..., 1, 0]], axis=-1)


def spin_lift(O: np.ndarray, dO: np.ndarray | None = None):
    """Spinor rotation sigma with sigma Gamma_j sigma^{-1} = sum_i O_ij Gamma_i.

    Smooth in O away from half turns, as the small frame rotations of
    `radial` are; `anchored_spin_lift` lifts rotations of any angle.
    Given partials dO (..., k, 3, 3) it returns (sigma, dsigma), dsigma
    (..., k, I, I): sigma = h 1 + bivector(v/2h) with h = sqrt((1 + c)/2),
    so dh = tr(dO)/8h, d(v/2h) = dv/2h - (v/2h) dh/h.
    """
    O = np.asarray(O, dtype=float)
    c = np.clip((np.trace(O, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    if np.any(c < -0.9):
        raise SpinGaugeError("frame rotation too close to a half turn for a stable lift")
    half_cos = np.sqrt((1.0 + c) / 2.0)
    axis_scaled = _axial(O) / (2.0 * half_cos[..., None])  # sin(theta/2) axis, smooth in O
    eye = np.eye(DIM, dtype=complex)
    sigma = half_cos[..., None, None] * eye + _rotation_bivector(axis_scaled)
    if dO is None:
        return sigma
    dh = np.trace(dO, axis1=-2, axis2=-1) / (8.0 * half_cos[..., None])
    d_axis = (0.5 * _axial(dO) - axis_scaled[..., None, :] * dh[..., None]) / half_cos[..., None, None]
    return sigma, dh[..., None, None] * eye + _rotation_bivector(d_axis)


def spin_lift_any(O: np.ndarray) -> np.ndarray:
    """Pointwise lift valid for every rotation angle.

    The sign/axis choices are deterministic but not continuous in O; use
    only as a per-node anchor, never inside a difference stencil.
    """
    O = np.asarray(O, dtype=float)
    if O.shape[-2:] != (3, 3):
        raise SpinGaugeError("rotation batch must have shape (..., 3, 3)")
    flat = O.reshape(-1, 3, 3)
    c = np.clip((np.trace(flat, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    sigma = np.empty((flat.shape[0], DIM, DIM), dtype=complex)
    far = c >= -0.8
    if np.any(far):
        sigma[far] = spin_lift(flat[far])
    near = ~far
    if np.any(near):
        cn = c[near]
        theta = np.arccos(cn)
        M = ((flat[near] + np.swapaxes(flat[near], -1, -2)) / 2.0 - cn[:, None, None] * np.eye(3)) / (
            1.0 - cn[:, None, None]
        )  # = axis axis^T
        col = np.argmax(np.einsum("kii->ki", M), axis=-1)
        picked = np.take_along_axis(M, col[:, None, None], axis=-1)[..., 0]
        picked = picked / np.linalg.norm(picked, axis=-1)[:, None]
        # deterministic sign: make the largest-magnitude component positive
        lead = np.take_along_axis(picked, np.argmax(np.abs(picked), axis=-1)[:, None], axis=-1)[:, 0]
        picked = picked * np.where(lead < 0.0, -1.0, 1.0)[:, None]
        # align the axis with the skew part when the rotation is not an exact half turn
        dots = np.einsum("ki,ki->k", picked, _axial(flat[near]))
        picked = picked * np.where(dots < 0.0, -1.0, 1.0)[:, None]
        eye = np.eye(DIM, dtype=complex)
        bivector = _rotation_bivector(np.sin(theta / 2.0)[:, None] * picked)
        sigma[near] = np.cos(theta / 2.0)[:, None, None] * eye + bivector
    return sigma.reshape(O.shape[:-2] + (DIM, DIM))


def anchored_spin_lift(O_anchor: np.ndarray, O: np.ndarray) -> np.ndarray:
    """Lift of O, smooth for O near the per-node anchor rotations.

    sigma(O) = sigma_any(O_anchor) * sigma_smooth(O_anchor^T O); the
    relative rotation stays near the identity inside difference stencils,
    so the result is smooth there regardless of the anchor's angle.  The
    tests use it to put a bulk field into the adapted sphere gauge.
    """
    sigma0 = spin_lift_any(O_anchor)
    rel = np.einsum("...ji,...jk->...ik", O_anchor, O)
    return sigma0 @ spin_lift(rel)


@dataclass
class SpinorField:
    """Spinor components in the deterministic bulk frame, with their Cartesian gradient.

    `values` maps points (m, 3) to components (..., m, I) and
    `cartesian_gradient` maps them to the partials d_i c, (..., m, I, 3);
    frame derivatives are the frame applied to that gradient.
    """

    values: Callable[[np.ndarray], np.ndarray]
    cartesian_gradient: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self.values(np.asarray(x, dtype=float)), dtype=complex)

    def frame_derivatives(self, data: InitialData, x) -> np.ndarray:
        """e_a(c) for all frame directions at points or a field bundle x; shape (..., m, I, 3)."""
        f = as_fields(data, x)
        # direction-major (..., m, 3, I) memory, whose float view the real frame multiplies
        by_direction = np.ascontiguousarray(np.swapaxes(self.cartesian_gradient(f.x), -1, -2), dtype=complex)
        return np.swapaxes((f.frame @ by_direction.view(float)).view(complex), -1, -2)


def constant_spinor_field(components: np.ndarray) -> SpinorField:
    """Constant components (..., I); leading axes batch several spinors."""
    comp = np.asarray(components, dtype=complex)
    if comp.shape[-1:] != (DIM,):
        raise GeometryError(f"constant spinor needs {DIM} components")

    def values(x):
        return np.broadcast_to(comp[..., None, :], comp.shape[:-1] + (np.shape(x)[0], DIM)).copy()

    def gradient(x):
        return np.zeros(comp.shape[:-1] + (np.shape(x)[0], DIM, 3), dtype=complex)

    return SpinorField(values=values, cartesian_gradient=gradient)


def polynomial_spinor_field(coeffs: np.ndarray, exponents: np.ndarray) -> SpinorField:
    """Components c_I(x) = sum_t coeffs[..., I, t] * prod_i x_i^exponents[t, i]."""
    coeffs = np.asarray(coeffs, dtype=complex)
    exponents = np.asarray(exponents, dtype=int)
    nterms = exponents.shape[0]
    if coeffs.shape[-2:] != (DIM, nterms):
        raise GeometryError("coefficient array must have shape (..., I, nterms)")
    axes = np.arange(3)
    # coefficients as a real (..., t, 2I) matrix (interleaved real and imaginary parts), so a real
    # monomial matrix multiplies it without a complex copy and the product views as complex
    coeffs_ri = np.ascontiguousarray(np.swapaxes(coeffs, -1, -2)).view(float)
    # d_i x^e = e_i x^(e - delta_i): exponents and factors per direction i
    lowered = [np.maximum(exponents - np.eye(3, dtype=int)[i], 0) for i in range(3)]

    def powers(x):  # powers[m, i, e] = x_i^e
        pw = np.ones(x.shape + (int(exponents.max(initial=0)) + 1,))
        pw[..., 1:] = x[..., None]
        return np.cumprod(pw, axis=-1)

    def values(x):
        mono = np.prod(powers(x)[:, axes, exponents], axis=-1)  # (m, t)
        return (mono @ coeffs_ri).view(complex)

    def gradient(x):
        pw = powers(x)
        dmono = np.stack([exponents[:, i] * np.prod(pw[:, axes, lowered[i]], axis=-1) for i in range(3)], axis=1)
        grad = (dmono.reshape(-1, nterms) @ coeffs_ri).view(complex)  # (..., m 3, I)
        return np.swapaxes(grad.reshape(grad.shape[:-2] + (x.shape[0], 3, DIM)), -1, -2)

    return SpinorField(values=values, cartesian_gradient=gradient)


def random_polynomial_field(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    degree: int = 2,
    scale: float = 0.1,
) -> SpinorField:
    """Random low-degree polynomial spinors, scaled so values stay order one.

    `shape` is the batch shape, () for a single spinor.  A batch consumes
    the generator exactly as the same number of single draws in sequence.
    """
    exps = []
    for total in range(degree + 1):
        for a in range(total + 1):
            for b in range(total - a + 1):
                exps.append((a, b, total - a - b))
    exponents = np.asarray(exps, dtype=int)
    damp = scale ** np.sum(exponents, axis=1)
    z = rng.normal(size=tuple(shape) + (2, DIM, len(exps)))  # real and imaginary parts
    coeffs = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) * damp
    return polynomial_spinor_field(coeffs, exponents)
