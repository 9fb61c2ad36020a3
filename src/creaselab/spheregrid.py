"""Gauss-Legendre x uniform-phi quadrature grids on the unit sphere.

The grid is the product rule with Gauss-Legendre nodes in cos(theta) and a
uniform azimuthal grid, spectrally accurate for smooth integrands.  A
truncated spherical-harmonic fit provides exact tangential differentiation
of band-limited functions on the sphere.
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


@lru_cache(maxsize=None)
def sphere_grid(order: int) -> SphereGrid:
    """Grid with `order` (rounded up to even) Gauss-Legendre polar nodes.

    Even polar counts keep nodes off the equator, where the deterministic
    tangential frame construction degenerates.
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
    return SphereGrid(
        ntheta=ntheta,
        theta=theta,
        phi=phi,
        nodes=unit_vectors(theta, phi),
        weights=weights,
    )


def _sph_harm(l: int, m: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    # imported here so that no CLI start pays for scipy.special; only this fallback needs it
    from scipy.special import sph_harm_y

    return sph_harm_y(l, m, theta, phi)


class SphericalHarmonicFit:
    """Least-squares-free spectral fit of a smooth function on the sphere.

    Coefficients of degree 0 .. ntheta - 2 come from quadrature projection
    on the Gauss-Legendre grid, which is exact for band-limited input.
    Tangential derivatives are the analytic derivatives of the truncated
    expansion.
    """

    def __init__(self, grid: SphereGrid, values: np.ndarray):
        vals = np.asarray(values, dtype=complex)
        self._coeffs: dict[tuple[int, int], complex] = {}
        for l in range(grid.ntheta - 1):
            for m in range(-l, l + 1):
                y = _sph_harm(l, m, grid.theta, grid.phi)
                self._coeffs[(l, m)] = complex(grid.integrate(vals * np.conj(y)))

    def _basis_sum(self, theta, phi, term) -> np.ndarray:
        out = np.zeros(np.shape(theta), dtype=complex)
        for (l, m), c in self._coeffs.items():
            if abs(c) < 1e-300:
                continue
            out = out + c * term(l, m, theta, phi)
        return out

    def d_theta(self, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        def term(l, m, th, ph):
            # d/dtheta Y_lm = m cot(theta) Y_lm + sqrt((l-m)(l+m+1)) e^{-i phi} Y_{l,m+1}
            out = m * (np.cos(th) / np.sin(th)) * _sph_harm(l, m, th, ph)
            if m < l:
                out = out + np.sqrt((l - m) * (l + m + 1)) * np.exp(-1j * ph) * _sph_harm(l, m + 1, th, ph)
            return out

        return np.real(self._basis_sum(theta, phi, term))

    def d_phi(self, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        def term(l, m, th, ph):
            return 1j * m * _sph_harm(l, m, th, ph)

        return np.real(self._basis_sum(theta, phi, term))

    def surface_gradient(self, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Unit-sphere gradient as Cartesian components, (N, 3)."""
        ft = self.d_theta(theta, phi)
        fp = self.d_phi(theta, phi)
        e_theta, e_phi_raw = theta_phi_tangents(theta, phi)
        st = np.sin(theta)
        return ft[..., None] * e_theta + (fp / st**2)[..., None] * e_phi_raw
