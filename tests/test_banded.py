import numpy as np
import pytest
import scipy.linalg as sla

from creaselab.banded import BlockTridiagonal, WindowRows, eigsh, lanczos, splu


def _dense(T):
    """Dense copy of a BlockTridiagonal matrix without its padding."""
    nb, b = T.diag.shape[:2]
    out = np.zeros((nb * b, nb * b))
    for i in range(nb):
        out[i * b : (i + 1) * b, i * b : (i + 1) * b] = T.diag[i]
        if i + 1 < nb:
            out[(i + 1) * b : (i + 2) * b, i * b : (i + 1) * b] = T.lower[i]
            out[i * b : (i + 1) * b, (i + 1) * b : (i + 2) * b] = T.lower[i].T
    return out[: T.size, : T.size]


def _random_spd(rng, nb, b=4):
    """A random SPD block tridiagonal matrix of nb blocks, diagonally dominant by a margin."""
    X = rng.normal(size=(nb, b, b))
    diag = X @ np.swapaxes(X, 1, 2) + 3.0 * b * np.eye(b)
    return BlockTridiagonal(diag=diag, lower=rng.normal(size=(nb - 1, b, b)), size=nb * b)


# 1-9 blocks, and 2^k - 1, 2^k, 2^k + 1: odd and even counts at every level, and the last level's edges
BLOCK_COUNTS = list(range(1, 10)) + [15, 16, 17, 31, 32, 33, 63, 64, 65]


@pytest.mark.parametrize("nb", BLOCK_COUNTS)
def test_cyclic_reduction_matches_dense_solve(nb):
    rng = np.random.default_rng(nb)
    T = _random_spd(rng, nb)
    dense = _dense(T)
    b = rng.normal(size=T.size)
    want = np.linalg.solve(dense, b)
    assert np.max(np.abs(splu(T).solve(b) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 9, 10, 11, 39, 40, 41, 163])
def test_gram_of_window_rows_matches_dense(n):
    # windows of 10 columns reaching past both ends; sizes off and on whole blocks of padding
    rng = np.random.default_rng(n)
    coef, start = rng.normal(size=(3 * n + 7, 10)), rng.integers(-9, n, size=3 * n + 7)
    # plus a row 3 e_j for every column j, so C^T C >= 9 I
    diagonal = np.zeros((n, 10))
    diagonal[:, 0] = 3.0
    rows = WindowRows(np.concatenate([coef, diagonal]), np.concatenate([start, np.arange(n)]), n)
    C = np.zeros(rows.shape)
    for k, (coef, start) in enumerate(zip(rows.coef, rows.start)):
        for j, c in enumerate(coef):
            if 0 <= start + j < n:
                C[k, start + j] = c
    G = rows.gram()
    assert G.diag.shape[1] == 10
    assert np.max(np.abs(_dense(G) - C.T @ C)) <= 1e-14 * np.max(np.abs(C.T @ C))
    x, y = rng.normal(size=n), rng.normal(size=len(C))
    assert np.max(np.abs(rows @ x - C @ x)) <= 1e-14 * np.max(np.abs(C) @ np.abs(x))
    assert np.max(np.abs(rows.rmatvec(y) - C.T @ y)) <= 1e-14 * np.max(np.abs(C.T) @ np.abs(y))
    b = rng.normal(size=n)
    want = np.linalg.solve(C.T @ C, b)
    assert np.max(np.abs(splu(G).solve(b) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 4, 11, 40])
def test_out_of_range_entries_are_dropped_by_every_product(n):
    # NaN on every window column left of 0 and right of n - 1: NaN * 0 is NaN, so each product must drop it
    rng = np.random.default_rng(200 + n)
    coef, start = rng.normal(size=(2 * n + 5, 10)), rng.integers(-9, n, size=2 * n + 5)
    cols = start[:, None] + np.arange(10)
    inside = (cols >= 0) & (cols < n)
    assert (cols < 0).any() and (cols >= n).any()
    C = np.zeros((len(coef), n))
    C[np.nonzero(inside)[0], cols[inside]] = coef[inside]
    coef[~inside] = np.nan
    rows = WindowRows(coef, start, n)
    x, y = rng.normal(size=n), rng.normal(size=len(C))
    assert np.max(np.abs(rows @ x - C @ x)) <= 1e-14 * np.max(np.abs(C) @ np.abs(x))
    assert np.max(np.abs(rows.rmatvec(y) - C.T @ y)) <= 1e-14 * np.max(np.abs(C.T) @ np.abs(y))
    G = rows.gram()
    assert np.isfinite(G.diag).all() and np.isfinite(G.lower).all()
    assert np.max(np.abs(_dense(G) - C.T @ C)) <= 1e-14 * np.max(np.abs(C.T @ C))


@pytest.mark.parametrize("nb", [1, 2, 3, 7, 16, 33])
def test_lanczos_matches_dense_pencil_eigenvalue(nb):
    rng = np.random.default_rng(100 + nb)
    G = _random_spd(rng, nb)
    Y = rng.normal(size=(nb, 4, 4))
    M = _dense(BlockTridiagonal(diag=Y @ np.swapaxes(Y, 1, 2) + 8.0 * np.eye(4),
                                lower=0.5 * rng.normal(size=(nb - 1, 4, 4)), size=4 * nb))
    want = sla.eigh(_dense(G), M, eigvals_only=True, subset_by_index=[0, 0])[0]
    assert eigsh(G, lambda v: M @ v, rng.normal(size=G.size)) == pytest.approx(want, rel=1e-12)
    # the identity mass: the smallest eigenvalue of G itself
    want = np.linalg.eigvalsh(_dense(G))[0]
    assert lanczos(splu(G), None, rng.normal(size=G.size), tol=1e-8) == pytest.approx(want, rel=1e-12)


def test_singular_and_nonfinite_pivots_raise():
    T = _random_spd(np.random.default_rng(3), 5)
    singular = T.diag.copy()
    singular[1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        splu(BlockTridiagonal(diag=singular, lower=T.lower, size=T.size))
    nonfinite = T.diag.copy()
    nonfinite[4, 0, 0] = np.inf
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        splu(BlockTridiagonal(diag=nonfinite, lower=T.lower, size=T.size))
