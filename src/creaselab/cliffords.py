"""Concrete matrix model of the spacetime spinor space in three spatial dimensions.

The fiber is S = S0 + S0 with S0 = C^2 carrying the Pauli representation of
the three spatial generators, so spinors have four complex components.  A
spatial frame vector e_i acts block diagonally as (i sigma_i psi1) +
(-i sigma_i psi2) and the timelike endomorphism tau swaps the two factors.
Sign convention throughout: V W + W V = -2 h(V, W), so spatial generators
are anti-Hermitian and square to -1 while tau is Hermitian with tau^2 = +1.
The adapted-frame normal nu is the last frame vector e_3.

Everything here is exact finite-dimensional linear algebra; every call of
`build_rep` returns fresh arrays with the same bits, so every module shares
one global sign and orientation convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CliffordRep:
    """Spatial Clifford generators and the timelike swap on S = S0 + S0.

    gamma has shape (3, 4, 4) with gamma[i] the action of the i-th
    orthonormal spatial frame vector e_{i+1}; tau is the block swap.
    """

    n: int
    dim: int
    gamma: np.ndarray = field(repr=False)
    tau: np.ndarray = field(repr=False)


def build_rep() -> CliffordRep:
    """The spinor representation of three spatial dimensions: gamma_i = diag(i sigma_i, -i sigma_i), tau the swap."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = complex(0.0, -1.0) * (s1 @ s2)  # sigma_3 = -i sigma_1 sigma_2, the chirality element
    gamma = np.zeros((3, 4, 4), dtype=complex)
    for i, g in enumerate((s1, s2, s3)):
        e = 1j * g  # anti-Hermitian, squares to -1
        gamma[i, :2, :2] = e
        gamma[i, 2:, 2:] = -e
    tau = np.zeros((4, 4), dtype=complex)
    tau[:2, 2:] = np.eye(2)
    tau[2:, :2] = np.eye(2)
    return CliffordRep(n=3, dim=4, gamma=gamma, tau=tau)


def epsilon_action(rep: CliffordRep) -> np.ndarray:
    """Matrix of epsilon = nu tau, with the normal nu = e_3."""
    return rep.gamma[2] @ rep.tau


def spinor_rotation(rep: CliffordRep, f) -> np.ndarray:
    """Spinor-level boost cosh(f/2) Id + sinh(f/2) epsilon by the angle f.

    A scalar f gives one (I, I) matrix; nodal angles f of shape (m,) give
    (m, I, I), applied to (batched) traces c as einsum("mIK,...mK->...mI").
    """
    half = 0.5 * np.asarray(f, dtype=float)[..., None, None]
    return np.cosh(half) * np.eye(rep.dim, dtype=complex) + np.sinh(half) * epsilon_action(rep)
