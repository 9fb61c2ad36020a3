"""Banded symmetric positive definite systems in numpy.

Rows whose nonzeros lie in one window of w consecutive columns have a Gram
matrix C^T C of half-bandwidth w - 1, block tridiagonal in blocks of w
(`WindowRows.gram`).  `splu` factors it by block cyclic reduction (Heller,
SIAM J. Numer. Anal. 13, 1976): each level eliminates the odd-numbered blocks
through one batched Cholesky factorization and keeps D^-1, D^-1 L and D^-1 U
of those blocks, so a solve is batched matrix-vector products over
log2(blocks) levels.  `eigsh` gives the smallest eigenvalue of a pencil by
shift-invert Lanczos.  A pivot block that is non-finite or not positive
definite raises `np.linalg.LinAlgError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BlockTridiagonal:
    """Symmetric block tridiagonal matrix of `size` rows, padded with identity to whole blocks."""

    diag: np.ndarray  # (nb, b, b)
    lower: np.ndarray  # (nb - 1, b, b): block (i + 1, i); block (i, i + 1) is its transpose
    size: int


@dataclass(frozen=True)
class WindowRows:
    """An (rows, n) matrix whose row k is coef[k] on columns start[k] .. start[k] + w - 1.

    Window columns outside [0, n) are dropped: their entries are set to zero
    when the rows are built, so no product sees them, not even a NaN.
    """

    coef: np.ndarray  # (rows, w)
    start: np.ndarray  # (rows,)
    n: int

    def __post_init__(self):
        w = self.coef.shape[1]
        edge = np.flatnonzero((self.start < 0) | (self.start > self.n - w))  # windows that leave [0, n)
        column = self.start[edge, None] + np.arange(w)
        coef = self.coef.copy()
        coef[edge] = np.where((column >= 0) & (column < self.n), coef[edge], 0.0)
        object.__setattr__(self, "coef", coef)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.coef), self.n

    def _padded(self, j: int) -> np.ndarray:
        """Each row's window column j as an index into its vector padded with one entry at each end."""
        return np.clip(self.start + j, -1, self.n) + 1

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        padded = np.concatenate([[0.0], x, [0.0]])
        return sum(self.coef[:, j] * padded[self._padded(j)] for j in range(self.coef.shape[1]))

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """The transpose applied to y."""
        out = sum(np.bincount(self._padded(j), weights=self.coef[:, j] * y, minlength=self.n + 2)
                  for j in range(self.coef.shape[1]))
        return out[1:-1]

    def gram(self) -> BlockTridiagonal:
        """C^T C in blocks of w columns: a row's outer product lands in two neighbouring blocks.

        Rows are grouped by the block of their first column, so each group's
        Gram matrix over its two blocks is one batched product.
        """
        n, w = self.n, self.coef.shape[1]
        nb = -(-n // w)
        # group g covers blocks g - 1 and g; a window starting before column 0 falls in group 0
        group, offset = np.divmod(np.clip(self.start, -w, n) + w, w)
        order = np.argsort(group, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order)) - np.searchsorted(group[order], group[order])
        rows = np.zeros((nb + 2, rank.max() + 1, 2 * w))
        rows.reshape(-1)[((group * rows.shape[1] + rank) * 2 * w + offset)[:, None] + np.arange(w)] = self.coef
        first, second = rows[:, :, :w], rows[:, :, w:]
        diag = (np.swapaxes(first, 1, 2) @ first)[1 : nb + 1]
        diag += (np.swapaxes(second, 1, 2) @ second)[:nb]
        pad = np.arange(n, nb * w)
        diag[pad // w, pad % w, pad % w] = 1.0
        return BlockTridiagonal(diag=diag, lower=np.swapaxes(second[1:nb], 1, 2) @ first[1:nb], size=n)


def _inverse_cholesky(D: np.ndarray) -> np.ndarray:
    """X = C^-1 for the Cholesky factor C of each SPD block of the stack D, so that D^-1 = X^T X."""
    if not np.isfinite(D).all():
        raise np.linalg.LinAlgError("non-finite pivot block")
    C = np.linalg.cholesky(D)  # raises when a block is not positive definite
    X = np.zeros_like(C)
    for j, e in enumerate(np.eye(D.shape[1])):
        X[:, j] = (e - np.einsum("ki,kim->km", C[:, j, :j], X[:, :j])) / C[:, j, j, None]
    return X


class CyclicReduction:
    """Block cyclic reduction of a BlockTridiagonal SPD matrix; `solve` applies its inverse."""

    def __init__(self, A: BlockTridiagonal):
        self.size, self.blocks = A.size, A.diag.shape[:2]
        D, L = A.diag, A.lower
        self.levels = []
        while len(D) > 1:
            # odd block o couples to o - 1 through L[o - 1] and to o + 1 through L[o]^T
            X = _inverse_cholesky(D[1::2])
            Xt, n_right = np.swapaxes(X, 1, 2), len(L) // 2
            to_left, to_right = X @ L[0::2], X[:n_right] @ np.swapaxes(L[1::2], 1, 2)
            # D^-1 L, D^-1 U and D^-1 of the odd blocks; the Schur complements are products Y^T Y
            self.levels.append((Xt @ to_left, Xt[:n_right] @ to_right, Xt @ X))
            D = D[0::2].copy()
            D[: len(X)] -= np.swapaxes(to_left, 1, 2) @ to_left
            D[1 : 1 + n_right] -= np.swapaxes(to_right, 1, 2) @ to_right
            L = -np.swapaxes(to_right, 1, 2) @ to_left[:n_right]
        X = _inverse_cholesky(D)[0]
        self.last = X.T @ X

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        X = np.zeros(self.blocks)
        X.reshape(-1)[: self.size] = rhs
        reduced = []
        for left, right, inv in self.levels:
            odd, even = X[1::2], X[0::2].copy()
            even[: len(left)] -= (odd[:, None, :] @ left)[:, 0]
            even[1 : 1 + len(right)] -= (odd[: len(right), None, :] @ right)[:, 0]
            reduced.append((inv @ odd[:, :, None])[:, :, 0])
            X = even
        X = X @ self.last.T
        for (left, right, inv), z in zip(reversed(self.levels), reversed(reduced)):
            z[:] -= (left @ X[: len(left), :, None])[:, :, 0]
            z[: len(right)] -= (right @ X[1 : 1 + len(right), :, None])[:, :, 0]
            out = np.empty((len(X) + len(z), X.shape[1]))
            out[0::2], out[1::2] = X, z
            X = out
        return X.ravel()[: self.size]


def splu(A: BlockTridiagonal) -> CyclicReduction:
    """Factor a symmetric positive definite BlockTridiagonal matrix by block cyclic reduction."""
    return CyclicReduction(A)


def eigsh(G: BlockTridiagonal, mass, v0: np.ndarray, tol: float = 1e-8) -> float:
    """Smallest eigenvalue of G x = lam M x for SPD G and M, with `mass` applying M."""
    return lanczos(splu(G), mass, v0, tol)


def lanczos(lu: CyclicReduction, mass, v0: np.ndarray, tol: float) -> float:
    """Smallest eigenvalue of the pencil (G, M) from a factorization lu of G; `mass` applies M, None is M = 1.

    Lanczos on G^-1 M, self-adjoint in the M inner product, from v0; it stops
    when the largest Ritz value theta has residual at most tol * theta, and
    returns 1 / theta.  The eigenvalue error is then of order tol^2.
    """
    identity = mass is None
    mass = (lambda v: v) if identity else mass
    Mv = mass(v0)
    norm = np.sqrt(v0 @ Mv)
    Q, MQ, alpha, beta = [v0 / norm], [Mv / norm], [], []
    for _ in range(len(v0)):
        w = lu.solve(MQ[-1])
        alpha.append(float(w @ MQ[-1]))
        for _ in range(2):  # full reorthogonalization, twice is enough
            for q, mq in zip(Q, MQ):
                w -= (mq @ w) * q
        Mw = mass(w)
        b = float(np.sqrt(max(w @ Mw, 0.0)))
        theta, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        if b * abs(vecs[-1, -1]) <= tol * theta[-1]:
            return float(1.0 / theta[-1])
        beta.append(b)
        Q.append(w / b)
        MQ.append(Q[-1] if identity else Mw / b)
    raise np.linalg.LinAlgError("Lanczos did not converge")
