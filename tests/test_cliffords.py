import math
from dataclasses import dataclass

import numpy as np
import pytest

from creaselab.cliffords import CliffordRep, build_rep, epsilon_action, spinor_rotation


def maxabs(a):
    return float(np.max(np.abs(a)))


# ---------------------------------------------------------------------------
# fiber vectors and pairings, spelled out for the tests of the representation


def vector_matrix(rep: CliffordRep, components: np.ndarray, time_component: float = 0.0) -> np.ndarray:
    """Clifford matrix of c*tau + sum_i v_i e_i (components in an orthonormal frame)."""
    v = np.asarray(components, dtype=complex)
    if v.shape != (rep.n,):
        raise ValueError(f"expected {rep.n} vector components, got shape {v.shape}")
    return np.einsum("i,ijk->jk", v, rep.gamma) + time_component * rep.tau


@dataclass(frozen=True)
class FiberVector:
    """Vector c*tau + X in the Lorentzian fiber, components in an orthonormal frame."""

    spatial: np.ndarray
    time: float = 0.0

    def causal_length_squared(self) -> float:
        """Squared length under h = -dt^2 + delta; negative is timelike."""
        x = np.asarray(self.spatial, dtype=float)
        return float(x @ x - self.time**2)


def clifford_mul(rep: CliffordRep, v: FiberVector, psi: np.ndarray) -> np.ndarray:
    """Clifford product (c tau + sum v_i e_i) psi."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1] != rep.dim:
        raise ValueError(f"spinor dimension {psi.shape[-1]} does not match rep dim {rep.dim}")
    mat = vector_matrix(rep, np.asarray(v.spatial, dtype=float), v.time)
    return psi @ mat.T if psi.ndim > 1 else mat @ psi


def pairings(rep: CliffordRep, psi: np.ndarray, phi: np.ndarray) -> tuple[complex, complex]:
    """The positive-definite pairing <psi, phi> and the indefinite one (psi, phi) = <tau psi, phi>.

    <.,.> is the standard Hermitian product (conjugate-linear in the first
    slot); the invariance properties of the indefinite pairing are what
    `test_pairings_properties` checks.
    """
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if psi.shape != (rep.dim,) or phi.shape != (rep.dim,):
        raise ValueError("pairings expects two spinors of the rep dimension")
    return complex(np.vdot(psi, phi)), complex(np.vdot(rep.tau @ psi, phi))


# the literal representation: gamma_i = diag(i sigma_i, -i sigma_i) and tau the block swap
GAMMA = np.array([
    [[0, 1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, -1j], [0, 0, -1j, 0]],
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    [[1j, 0, 0, 0], [0, -1j, 0, 0], [0, 0, -1j, 0], [0, 0, 0, 1j]],
])
TAU = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex)
# np.signbit of gamma's real and imaginary parts, row by row: the negated lower blocks hold -0.0,
# and so do the entries of i sigma_2 and i sigma_3 whose products carried a -0.0 factor
GAMMA_REAL_SIGNS = ["0000 0000 0011 0011", "0000 1000 0011 0001", "0000 0000 0011 0011"]
GAMMA_IMAG_SIGNS = ["0000 0000 0011 0011", "0100 0000 0010 0011", "0000 0100 0011 0010"]


def _signs(rows):
    return np.array([[[bit == "1" for bit in row] for row in matrix.split()] for matrix in rows])


def test_build_rep_is_the_literal_representation_to_the_sign_of_zero():
    rep = build_rep()
    assert (rep.n, rep.dim) == (3, 4)
    assert np.array_equal(rep.gamma, GAMMA) and np.array_equal(rep.tau, TAU)
    assert np.array_equal(np.signbit(rep.gamma.real), _signs(GAMMA_REAL_SIGNS))
    assert np.array_equal(np.signbit(rep.gamma.imag), _signs(GAMMA_IMAG_SIGNS))
    assert not np.signbit(rep.tau.real).any() and not np.signbit(rep.tau.imag).any()


# n is the paper's spatial dimension, the one the representation has
@pytest.mark.parametrize("n", [3])
def test_defining_relations(n):
    rep = build_rep()
    assert rep.n == n and rep.dim == 2 * 2 ** (n // 2)
    eye = np.eye(rep.dim)
    for i in range(n):
        gi = rep.gamma[i]
        assert maxabs(gi + gi.conj().T) < 1e-14  # anti-Hermitian
        assert maxabs(gi @ gi.conj().T - eye) < 1e-14  # unitary
        for j in range(n):
            anti = gi @ rep.gamma[j] + rep.gamma[j] @ gi
            target = -2.0 * eye if i == j else 0.0 * eye
            assert maxabs(anti - target) < 1e-13


@pytest.mark.parametrize("n", [3])
def test_tau_relations(n):
    rep = build_rep()
    eye = np.eye(rep.dim)
    assert maxabs(rep.tau @ rep.tau - eye) < 1e-14
    assert maxabs(rep.tau - rep.tau.conj().T) < 1e-14
    for i in range(n):
        assert maxabs(rep.tau @ rep.gamma[i] + rep.gamma[i] @ rep.tau) < 1e-14


def test_tau_swaps_blocks():
    rep = build_rep()
    half = rep.dim // 2
    psi = np.arange(1.0, rep.dim + 1.0) + 0j
    swapped = rep.tau @ psi
    assert np.allclose(swapped[:half], psi[half:])
    assert np.allclose(swapped[half:], psi[:half])


def test_build_rep_deterministic_and_validated():
    a = build_rep()
    b = build_rep()
    assert np.array_equal(a.gamma, b.gamma)
    assert np.array_equal(a.tau, b.tau)
    a.gamma[0] = 0.0  # fresh arrays per call: one caller's writes reach no other rep
    assert np.array_equal(build_rep().gamma, b.gamma)
    with pytest.raises(TypeError):
        build_rep(3)  # the dimension is fixed


def test_clifford_mul_basics():
    rep = build_rep()
    rng = np.random.default_rng(7)
    psi = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    e1 = FiberVector(spatial=np.array([1.0, 0.0, 0.0]))
    twice = clifford_mul(rep, e1, clifford_mul(rep, e1, psi))
    assert maxabs(twice + psi) < 1e-14  # e1^2 = -1

    tau_vec = FiberVector(spatial=np.zeros(3), time=1.0)
    half = rep.dim // 2
    out = clifford_mul(rep, tau_vec, psi)
    assert np.allclose(out[:half], psi[half:]) and np.allclose(out[half:], psi[:half])

    with pytest.raises(ValueError):
        clifford_mul(rep, e1, np.zeros(rep.dim + 1))


def test_clifford_mul_spacelike_isometry():
    # <v psi, v phi> = |v|^2 <psi, phi> for spacelike v; oracle is the direct
    # matrix product with the assembled vector matrix.
    rep = build_rep()
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.normal(size=3)
        psi = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
        phi = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
        fv = FiberVector(spatial=v)
        lhs = np.vdot(clifford_mul(rep, fv, psi), clifford_mul(rep, fv, phi))
        rhs = (v @ v) * np.vdot(psi, phi)
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))
        direct = vector_matrix(rep, v) @ psi
        assert maxabs(direct - clifford_mul(rep, fv, psi)) < 1e-14


def test_fiber_vector_causal_length():
    v = FiberVector(spatial=np.array([3.0, 0.0, 0.0]), time=2.0)
    assert v.causal_length_squared() == pytest.approx(5.0)
    w = FiberVector(spatial=np.array([1.0, 0.0, 0.0]), time=2.0)
    assert w.causal_length_squared() == pytest.approx(-3.0)


@pytest.mark.parametrize("n", [3])
def test_epsilon_identities(n):
    rep = build_rep()
    eye = np.eye(rep.dim)
    eps = epsilon_action(rep)
    nu_mat = rep.gamma[n - 1]  # the normal is the last frame vector
    assert maxabs(eps @ eps - eye) < 1e-14
    assert maxabs(eps @ nu_mat + nu_mat @ eps) < 1e-14
    assert maxabs(eps @ nu_mat - rep.tau) < 1e-14
    assert maxabs(eps @ rep.tau + rep.tau @ eps) < 1e-14


def test_epsilon_trace_matches_definition():
    rep = build_rep()
    eps = epsilon_action(rep)
    assert abs(np.trace(eps) - np.trace(rep.gamma[2] @ rep.tau)) < 1e-14


def test_rotation_identity_at_zero():
    rep = build_rep()
    r = spinor_rotation(rep, 0.0)
    assert maxabs(r - np.eye(rep.dim)) < 1e-15


def test_rotation_half_angle_values():
    # at f = log 2 the half-angle factors are cosh(f/2) = 3/(2 sqrt 2) and sinh(f/2) = 1/(2 sqrt 2)
    rep = build_rep()
    expected = (3.0 * np.eye(rep.dim) + epsilon_action(rep)) / (2.0 * math.sqrt(2.0))
    assert maxabs(spinor_rotation(rep, math.log(2.0)) - expected) < 1e-15


@pytest.mark.parametrize("n", [3])
@pytest.mark.parametrize("f", [0.0, 0.3, -0.3, math.log(2.0), 1.7])
def test_rotation_inverse_and_double_angle(n, f):
    rep = build_rep()
    assert rep.n == n
    eye = np.eye(rep.dim)
    eps = epsilon_action(rep)
    r = spinor_rotation(rep, f)
    r_inv = math.cosh(f / 2.0) * eye - math.sinh(f / 2.0) * eps
    assert maxabs(r_inv @ r - eye) < 1e-13
    assert maxabs(r @ r - (math.cosh(f) * eye + math.sinh(f) * eps)) < 1e-13


def test_rotation_composition():
    rep = build_rep()
    rng = np.random.default_rng(3)
    for _ in range(10):
        f1, f2 = rng.normal(size=2)
        lhs = spinor_rotation(rep, f1) @ spinor_rotation(rep, f2)
        rhs = spinor_rotation(rep, f1 + f2)
        assert maxabs(lhs - rhs) < 1e-12


def test_rotation_of_nodal_angles_is_the_rotation_per_node():
    rep = build_rep()
    f = np.array([0.0, 0.3, -1.2, math.log(2.0)])
    nodal = spinor_rotation(rep, f)
    assert nodal.shape == (4, rep.dim, rep.dim)
    for k, fk in enumerate(f):
        assert np.array_equal(nodal[k], spinor_rotation(rep, fk))


def test_pairings_properties():
    rep = build_rep()
    rng = np.random.default_rng(5)
    unit = np.zeros(rep.dim, dtype=complex)
    unit[0] = 1.0
    herm, _ = pairings(rep, unit, unit)
    assert herm == pytest.approx(1.0)

    for _ in range(20):
        psi = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
        phi = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
        h1, ind1 = pairings(rep, psi, phi)
        h2, _ = pairings(rep, phi, psi)
        assert abs(h1 - np.conj(h2)) < 1e-14 * (1 + abs(h1))

        # tau-invariance of the operative indefinite pairing
        _, ind_tau = pairings(rep, rep.tau @ psi, rep.tau @ phi)
        assert abs(ind_tau - ind1) < 1e-13 * (1 + abs(ind1))

        # spacelike isometry of the Hermitian pairing
        v = rng.normal(size=3)
        hv, _ = pairings(rep, vector_matrix(rep, v) @ psi, vector_matrix(rep, v) @ phi)
        assert abs(hv - (v @ v) * h1) < 1e-12 * (1 + abs(h1))


def test_normal_times_three_tangential_generators_is_anti_hermitian():
    # nu . Gamma^a Gamma^b Gamma^c for tangential a, b, c: the sphere connection's term in the
    # boundary Dirac operator, which therefore has no part in Re<psi, D psi>
    rep = build_rep()
    for a in range(2):
        for b in range(2):
            for c in range(2):
                x = rep.gamma[2] @ rep.gamma[a] @ rep.gamma[b] @ rep.gamma[c]
                assert maxabs(x + x.conj().T) == 0.0, (a, b, c)
