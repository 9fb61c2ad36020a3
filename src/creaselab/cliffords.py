"""Concrete matrix model of the spacetime spinor space.

The fiber is S = S0 + S0 where S0 carries an irreducible complex Clifford
module for n spatial generators.  A spatial frame vector X acts block
diagonally as (X psi1) + (-X psi2) and the timelike endomorphism tau swaps
the two factors.  Sign convention throughout: V W + W V = -2 h(V, W), so
spatial generators are anti-Hermitian and square to -1 while tau is
Hermitian with tau^2 = +1.

Everything here is exact finite-dimensional linear algebra; all operations
are pure functions of immutable data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import math

import numpy as np


class CliffordError(ValueError):
    """Unsupported dimension or malformed spinor/vector arguments."""


def _hermitian_generators(m: int) -> list[np.ndarray]:
    """Hermitian matrices G_1..G_m with G_i G_j + G_j G_i = 2 delta_ij.

    Built by repeated Kronecker doubling from the first two Pauli matrices;
    odd m appends the normalized top product (the chirality element) of the
    even case.  Deterministic: same m always yields identical matrices.
    """
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    if m == 1:
        return [np.array([[1.0 + 0j]])]
    gens = [s1, s2]
    even_target = m if m % 2 == 0 else m - 1
    while len(gens) < even_target:
        eye = np.eye(gens[0].shape[0], dtype=complex)
        gens = [np.kron(s1, g) for g in gens] + [np.kron(s2, eye), np.kron(s3, eye)]
    if m % 2 == 1:
        k = len(gens) // 2
        top = gens[0]
        for g in gens[1:]:
            top = top @ g
        gens = gens + [((-1j) ** k) * top]
    return gens


@dataclass(frozen=True)
class CliffordRep:
    """Spatial Clifford generators and the timelike swap on S = S0 + S0.

    gamma has shape (n, I, I) with gamma[i] the action of the i-th
    orthonormal spatial frame vector; tau is the block swap.  Frame labels
    are 1-based in the public API (e_1 .. e_n), matching the usual index
    conventions; gamma[i-1] is the matrix of e_i.
    """

    n: int
    dim: int
    gamma: np.ndarray = field(repr=False)
    tau: np.ndarray = field(repr=False)

    def gamma_of(self, index: int) -> np.ndarray:
        """Matrix of the 1-based frame label e_index."""
        if not 1 <= index <= self.n:
            raise CliffordError(f"frame index {index} outside 1..{self.n}")
        return self.gamma[index - 1]

@dataclass(frozen=True)
class HyperbolicRotation:
    """Boost angle f with the half-angle quantities used on spinors."""

    f: float

    @property
    def a(self) -> float:
        return math.cosh(self.f)

    @property
    def b(self) -> float:
        return math.sinh(self.f)

    @property
    def half_cosh(self) -> float:
        return math.cosh(self.f / 2.0)

    @property
    def half_sinh(self) -> float:
        return math.sinh(self.f / 2.0)


@lru_cache(maxsize=None)
def _build_rep_cached(n: int) -> CliffordRep:
    base = _hermitian_generators(n)
    d0 = base[0].shape[0]
    dim = 2 * d0
    gamma = np.zeros((n, dim, dim), dtype=complex)
    for i, g in enumerate(base):
        e = 1j * g  # anti-Hermitian, squares to -1
        gamma[i, :d0, :d0] = e
        gamma[i, d0:, d0:] = -e
    tau = np.zeros((dim, dim), dtype=complex)
    tau[:d0, d0:] = np.eye(d0)
    tau[d0:, :d0] = np.eye(d0)
    return CliffordRep(n=n, dim=dim, gamma=gamma, tau=tau)


def build_rep(n: int) -> CliffordRep:
    """Spinor representation for spatial dimension n (3 <= n <= 6).

    The construction is deterministic, so every module sharing a rep shares
    one global sign and orientation convention.
    """
    if not isinstance(n, (int, np.integer)) or not 3 <= int(n) <= 6:
        raise CliffordError(f"spatial dimension must be an integer in 3..6, got {n!r}")
    rep = _build_rep_cached(int(n))
    # Return defensive copies so callers cannot mutate the cached arrays.
    return CliffordRep(n=rep.n, dim=rep.dim, gamma=rep.gamma.copy(), tau=rep.tau.copy())


def epsilon_action(rep: CliffordRep, nu_index: int | None = None) -> np.ndarray:
    """Matrix of epsilon = nu tau for the frame vector e_{nu_index} playing nu.

    Defaults to the last frame label e_n, the adapted-frame normal slot.
    """
    if nu_index is None:
        nu_index = rep.n
    return rep.gamma_of(nu_index) @ rep.tau


def spinor_rotation(rep: CliffordRep, f, nu_index: int | None = None) -> np.ndarray:
    """Spinor-level boost cosh(f/2) Id + sinh(f/2) epsilon by the angle f.

    A scalar f gives one (I, I) matrix; nodal angles f of shape (m,) give
    (m, I, I), applied to (batched) traces c as einsum("mIK,...mK->...mI").
    """
    half = 0.5 * np.asarray(f, dtype=float)[..., None, None]
    return np.cosh(half) * np.eye(rep.dim, dtype=complex) + np.sinh(half) * epsilon_action(rep, nu_index)
