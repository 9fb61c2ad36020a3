"""Gauss-Legendre x uniform-phi quadrature grids on the unit sphere.

The grid is the product rule with Gauss-Legendre nodes in cos(theta) and a
uniform azimuthal grid, spectrally accurate for smooth integrands.
`sphere_grid` builds one grid per order and hands that one read-only grid
to every caller.  `surface_gradient` differentiates nodal values through
their spherical-harmonic projection on the same grid: a Fourier transform
on each polar ring and normalized associated Legendre functions in
cos(theta), so band-limited values have their exact gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature grid on S^2; weights integrate dOmega exactly."""

    ntheta: int
    theta: np.ndarray  # (N,) polar angle per node
    phi: np.ndarray  # (N,)
    nodes: np.ndarray  # (N, 3) unit vectors
    weights: np.ndarray  # (N,), sum = 4 pi

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values: np.ndarray) -> np.ndarray | complex:
        """Integrate nodal values against dOmega (pairwise summation order)."""
        return np.sum(self.weights * np.asarray(values), axis=-1)


def unit_vectors(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    st, ct = np.sin(theta), np.cos(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)


def theta_phi_tangents(theta: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d(omega)/d(theta) and d(omega)/d(phi) at the given angles."""
    st, ct = np.sin(theta), np.cos(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    d_theta = np.stack([ct * cp, ct * sp, -st], axis=-1)
    d_phi = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1)
    return d_theta, d_phi


@lru_cache(maxsize=16)
def sphere_grid(order: int) -> SphereGrid:
    """Grid with `order` (rounded up to even) Gauss-Legendre polar nodes.

    Even polar counts keep nodes off the equator, where the deterministic
    tangential frame construction degenerates.  Each order's grid is built
    once and handed to every caller, so its arrays are read-only.
    """
    if order < 4:
        raise ValueError("sphere quadrature order must be >= 4")
    ntheta = order + (order % 2)
    nphi = 2 * ntheta
    x, wx = leggauss(ntheta)
    theta_1d = np.arccos(x)
    phi_1d = 2.0 * np.pi * np.arange(nphi) / nphi
    theta = np.repeat(theta_1d, nphi)
    phi = np.tile(phi_1d, ntheta)
    weights = np.repeat(wx, nphi) * (2.0 * np.pi / nphi)
    nodes = unit_vectors(theta, phi)
    for arr in (theta, phi, nodes, weights):
        arr.flags.writeable = False
    return SphereGrid(ntheta=ntheta, theta=theta, phi=phi, nodes=nodes, weights=weights)


def _legendre(x: np.ndarray, s: np.ndarray, L: int) -> np.ndarray:
    """Fully normalized P_l^m(x), Condon-Shortley phase, at x = cos(theta), s = sin(theta).

    Shape (L + 1, L + 2, len(x)), indexed [l, m]; entries with m > l are zero.
    Y_lm = P_l^m(cos theta) e^{i m phi} is orthonormal on the unit sphere.
    """
    P = np.zeros((L + 1, L + 2, len(x)))
    P[0, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    for l in range(1, L + 1):
        P[l, l] = -np.sqrt((2 * l + 1) / (2 * l)) * s * P[l - 1, l - 1]
        P[l, l - 1] = np.sqrt(2 * l + 1) * x * P[l - 1, l - 1]
        m = np.arange(l - 1)[:, None]
        P[l, : l - 1] = np.sqrt((4 * l * l - 1) / (l * l - m * m)) * (
            x * P[l - 1, : l - 1] - np.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1)) * P[l - 2, : l - 1]
        )
    return P


def surface_gradient(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """Unit-sphere gradient, as (N, 3) Cartesian components, of the nodal values' spherical-harmonic projection.

    The projection keeps degrees 0 .. ntheta - 2 and takes its coefficients
    with the grid's own quadrature, so it reproduces band-limited values
    exactly.  Each polar ring is Fourier transformed in phi; then
    d/dtheta P_l^m = m cot(theta) P_l^m + sqrt((l - m)(l + m + 1)) P_l^{m+1}
    and d/dphi = i m.
    """
    nt = grid.ntheta
    nphi, L = grid.size // nt, nt - 2
    theta = grid.theta[::nphi]
    x, s = np.cos(theta), np.sin(theta)
    P = _legendre(x, s, L)
    rings = np.fft.rfft(np.reshape(values, (nt, nphi)), axis=1)[:, : L + 1]
    coef = np.einsum("lmi,i,im->lm", P[:, : L + 1], grid.weights[::nphi], rings)  # [l, m], m >= 0
    l, m = np.ogrid[: L + 1, : L + 1]
    f = np.einsum("lm,lmi->im", coef, P[:, : L + 1])  # the projection's phi modes on each ring
    raising = np.einsum("lm,lmi->im", coef * np.sqrt(np.maximum((l - m) * (l + m + 1), 0)), P[:, 1:])
    # synthesis over m = -L .. L of a real function: n * irfft
    f_theta = nphi * np.fft.irfft(m * (x / s)[:, None] * f + raising, nphi, axis=1)
    f_phi = nphi * np.fft.irfft(1j * m * f, nphi, axis=1) / (s * s)[:, None]
    e_theta, e_phi = theta_phi_tangents(grid.theta, grid.phi)
    return f_theta.reshape(-1, 1) * e_theta + f_phi.reshape(-1, 1) * e_phi
