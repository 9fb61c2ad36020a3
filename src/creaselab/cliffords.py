"""Concrete matrix model of the spacetime spinor space in three spatial dimensions.

The fiber is S = S0 + S0 with S0 = C^2 carrying the Pauli representation of
the three spatial generators, so spinors have four complex components.  A
spatial frame vector e_i acts block diagonally as (i sigma_i psi1) +
(-i sigma_i psi2) and the timelike endomorphism tau swaps the two factors.
Sign convention throughout: V W + W V = -2 h(V, W), so spatial generators
are anti-Hermitian and square to -1 while tau is Hermitian with tau^2 = +1.
The adapted-frame normal nu is the last frame vector e_3.

There is one representation, so it is a set of module constants, built
once at import: GAMMA (3, I, I) with GAMMA[i] the action of e_{i+1}, TAU,
and the products the layers contract with.  Every constant is read-only,
and the tests pin the generators' bits, signed zeros included, so every
module shares one global sign and orientation convention.
"""

from __future__ import annotations

import numpy as np

DIM = 4  # complex components of a spinor


def _gamma() -> np.ndarray:
    """gamma_i = diag(i sigma_i, -i sigma_i), (3, I, I)."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = complex(0.0, -1.0) * (s1 @ s2)  # sigma_3 = -i sigma_1 sigma_2, the chirality element
    gamma = np.zeros((3, DIM, DIM), dtype=complex)
    for i, g in enumerate((s1, s2, s3)):
        e = 1j * g  # anti-Hermitian, squares to -1
        gamma[i, :2, :2] = e
        gamma[i, 2:, 2:] = -e
    return gamma


GAMMA = _gamma()
TAU = np.roll(np.eye(DIM, dtype=complex), DIM // 2, axis=1)  # the block swap
GAMMA_GAMMA = GAMMA[:, None] @ GAMMA[None]  # [j, l] = Gamma^j Gamma^l
GAMMA_TAU = GAMMA @ TAU  # [j] = Gamma^j tau
TAU_GAMMA = np.einsum("IK,aKL->aIL", TAU, GAMMA)  # [a] = tau Gamma^a, each Hermitian
EPSILON = GAMMA[2] @ TAU  # epsilon = nu tau, with the normal nu = e_3
for _constant in (GAMMA, TAU, GAMMA_GAMMA, GAMMA_TAU, TAU_GAMMA, EPSILON):
    _constant.flags.writeable = False


def spinor_rotation(f) -> np.ndarray:
    """Spinor-level boost cosh(f/2) Id + sinh(f/2) epsilon by the angle f.

    A scalar f gives one (I, I) matrix; nodal angles f of shape (m,) give
    (m, I, I), applied to (batched) traces c as einsum("mIK,...mK->...mI").
    """
    half = 0.5 * np.asarray(f, dtype=float)[..., None, None]
    return np.cosh(half) * np.eye(DIM, dtype=complex) + np.sinh(half) * EPSILON
