import math
from dataclasses import dataclass

import numpy as np
import pytest

from creaselab.cliffords import DIM, EPSILON, GAMMA, GAMMA_GAMMA, GAMMA_TAU, TAU, TAU_GAMMA, spinor_rotation

CONSTANTS = {"GAMMA": GAMMA, "TAU": TAU, "GAMMA_GAMMA": GAMMA_GAMMA, "GAMMA_TAU": GAMMA_TAU,
             "TAU_GAMMA": TAU_GAMMA, "EPSILON": EPSILON}


def maxabs(a):
    return float(np.max(np.abs(a)))


# ---------------------------------------------------------------------------
# fiber vectors and pairings, spelled out for the tests of the representation


def vector_matrix(components: np.ndarray, time_component: float = 0.0) -> np.ndarray:
    """Clifford matrix of c*tau + sum_i v_i e_i (components in an orthonormal frame)."""
    v = np.asarray(components, dtype=complex)
    if v.shape != (len(GAMMA),):
        raise ValueError(f"expected {len(GAMMA)} vector components, got shape {v.shape}")
    return np.einsum("i,ijk->jk", v, GAMMA) + time_component * TAU


@dataclass(frozen=True)
class FiberVector:
    """Vector c*tau + X in the Lorentzian fiber, components in an orthonormal frame."""

    spatial: np.ndarray
    time: float = 0.0

    def causal_length_squared(self) -> float:
        """Squared length under h = -dt^2 + delta; negative is timelike."""
        x = np.asarray(self.spatial, dtype=float)
        return float(x @ x - self.time**2)


def clifford_mul(v: FiberVector, psi: np.ndarray) -> np.ndarray:
    """Clifford product (c tau + sum v_i e_i) psi."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1] != DIM:
        raise ValueError(f"spinor dimension {psi.shape[-1]} is not {DIM}")
    mat = vector_matrix(np.asarray(v.spatial, dtype=float), v.time)
    return psi @ mat.T if psi.ndim > 1 else mat @ psi


def pairings(psi: np.ndarray, phi: np.ndarray) -> tuple[complex, complex]:
    """The positive-definite pairing <psi, phi> and the indefinite one (psi, phi) = <tau psi, phi>.

    <.,.> is the standard Hermitian product (conjugate-linear in the first
    slot); the invariance properties of the indefinite pairing are what
    `test_pairings_properties` checks.
    """
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if psi.shape != (DIM,) or phi.shape != (DIM,):
        raise ValueError("pairings expects two spinors of the spinor dimension")
    return complex(np.vdot(psi, phi)), complex(np.vdot(TAU @ psi, phi))


# the literal representation: gamma_i = diag(i sigma_i, -i sigma_i) and tau the block swap
LITERAL_GAMMA = np.array([
    [[0, 1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, -1j], [0, 0, -1j, 0]],
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    [[1j, 0, 0, 0], [0, -1j, 0, 0], [0, 0, -1j, 0], [0, 0, 0, 1j]],
])
LITERAL_TAU = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex)
# np.signbit of gamma's real and imaginary parts, row by row: the negated lower blocks hold -0.0,
# and so do the entries of i sigma_2 and i sigma_3 whose products carried a -0.0 factor
GAMMA_REAL_SIGNS = ["0000 0000 0011 0011", "0000 1000 0011 0001", "0000 0000 0011 0011"]
GAMMA_IMAG_SIGNS = ["0000 0000 0011 0011", "0100 0000 0010 0011", "0000 0100 0011 0010"]


def _signs(rows):
    return np.array([[[bit == "1" for bit in row] for row in matrix.split()] for matrix in rows])


def test_constants_are_the_literal_representation_to_the_sign_of_zero():
    assert GAMMA.shape == (3, DIM, DIM) and TAU.shape == (DIM, DIM) and DIM == 4
    assert np.array_equal(GAMMA, LITERAL_GAMMA) and np.array_equal(TAU, LITERAL_TAU)
    assert np.array_equal(np.signbit(GAMMA.real), _signs(GAMMA_REAL_SIGNS))
    assert np.array_equal(np.signbit(GAMMA.imag), _signs(GAMMA_IMAG_SIGNS))
    assert not np.signbit(TAU.real).any() and not np.signbit(TAU.imag).any()


def test_products_are_their_definitions_to_the_sign_of_zero():
    # each product as the expression that defines it; array_equal on the float views compares signed zeros
    pairs = [
        (GAMMA_GAMMA, np.stack([np.stack([GAMMA[j] @ GAMMA[l] for l in range(3)]) for j in range(3)])),
        (GAMMA_TAU, np.stack([GAMMA[j] @ TAU for j in range(3)])),
        (TAU_GAMMA, np.stack([TAU @ GAMMA[a] for a in range(3)])),
        (EPSILON, GAMMA[2] @ TAU),
    ]
    for constant, definition in pairs:
        assert np.array_equal(constant, definition)
        assert np.array_equal(np.signbit(constant.view(float)), np.signbit(definition.view(float)))


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_constants_are_read_only(name):
    constant = CONSTANTS[name]
    before = constant.copy()
    with pytest.raises(ValueError):
        constant[...] = 0.0
    with pytest.raises(ValueError):
        constant.reshape(-1)[0] += 1.0  # a view shares the flag
    assert np.array_equal(constant, before)


def test_tau_is_a_real_symmetric_involution():
    # the scalar channel tau -> 1 of `radial.assemble` needs exactly this of tau
    assert not TAU.imag.any()
    assert np.array_equal(TAU, TAU.T)
    assert np.array_equal(TAU @ TAU, np.eye(DIM))


# n is the paper's spatial dimension, the one the representation has
@pytest.mark.parametrize("n", [3])
def test_defining_relations(n):
    assert len(GAMMA) == n and DIM == 2 * 2 ** (n // 2)
    eye = np.eye(DIM)
    for i in range(n):
        gi = GAMMA[i]
        assert maxabs(gi + gi.conj().T) < 1e-14  # anti-Hermitian
        assert maxabs(gi @ gi.conj().T - eye) < 1e-14  # unitary
        for j in range(n):
            anti = gi @ GAMMA[j] + GAMMA[j] @ gi
            target = -2.0 * eye if i == j else 0.0 * eye
            assert maxabs(anti - target) < 1e-13


@pytest.mark.parametrize("n", [3])
def test_tau_relations(n):
    eye = np.eye(DIM)
    assert maxabs(TAU @ TAU - eye) < 1e-14
    assert maxabs(TAU - TAU.conj().T) < 1e-14
    for i in range(n):
        assert maxabs(TAU @ GAMMA[i] + GAMMA[i] @ TAU) < 1e-14


def test_tau_swaps_blocks():
    half = DIM // 2
    psi = np.arange(1.0, DIM + 1.0) + 0j
    swapped = TAU @ psi
    assert np.allclose(swapped[:half], psi[half:])
    assert np.allclose(swapped[half:], psi[:half])


def test_clifford_mul_basics():
    rng = np.random.default_rng(7)
    psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    e1 = FiberVector(spatial=np.array([1.0, 0.0, 0.0]))
    twice = clifford_mul(e1, clifford_mul(e1, psi))
    assert maxabs(twice + psi) < 1e-14  # e1^2 = -1

    tau_vec = FiberVector(spatial=np.zeros(3), time=1.0)
    half = DIM // 2
    out = clifford_mul(tau_vec, psi)
    assert np.allclose(out[:half], psi[half:]) and np.allclose(out[half:], psi[:half])

    with pytest.raises(ValueError):
        clifford_mul(e1, np.zeros(DIM + 1))


def test_clifford_mul_spacelike_isometry():
    # <v psi, v phi> = |v|^2 <psi, phi> for spacelike v; oracle is the direct
    # matrix product with the assembled vector matrix.
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.normal(size=3)
        psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
        phi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
        fv = FiberVector(spatial=v)
        lhs = np.vdot(clifford_mul(fv, psi), clifford_mul(fv, phi))
        rhs = (v @ v) * np.vdot(psi, phi)
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))
        direct = vector_matrix(v) @ psi
        assert maxabs(direct - clifford_mul(fv, psi)) < 1e-14


def test_fiber_vector_causal_length():
    v = FiberVector(spatial=np.array([3.0, 0.0, 0.0]), time=2.0)
    assert v.causal_length_squared() == pytest.approx(5.0)
    w = FiberVector(spatial=np.array([1.0, 0.0, 0.0]), time=2.0)
    assert w.causal_length_squared() == pytest.approx(-3.0)


@pytest.mark.parametrize("n", [3])
def test_epsilon_identities(n):
    eye = np.eye(DIM)
    nu_mat = GAMMA[n - 1]  # the normal is the last frame vector
    assert maxabs(EPSILON @ EPSILON - eye) < 1e-14
    assert maxabs(EPSILON @ nu_mat + nu_mat @ EPSILON) < 1e-14
    assert maxabs(EPSILON @ nu_mat - TAU) < 1e-14
    assert maxabs(EPSILON @ TAU + TAU @ EPSILON) < 1e-14


def test_epsilon_trace_matches_definition():
    assert abs(np.trace(EPSILON) - np.trace(GAMMA[2] @ TAU)) < 1e-14


def test_rotation_identity_at_zero():
    r = spinor_rotation(0.0)
    assert maxabs(r - np.eye(DIM)) < 1e-15


def test_rotation_half_angle_values():
    # at f = log 2 the half-angle factors are cosh(f/2) = 3/(2 sqrt 2) and sinh(f/2) = 1/(2 sqrt 2)
    expected = (3.0 * np.eye(DIM) + EPSILON) / (2.0 * math.sqrt(2.0))
    assert maxabs(spinor_rotation(math.log(2.0)) - expected) < 1e-15


@pytest.mark.parametrize("n", [3])
@pytest.mark.parametrize("f", [0.0, 0.3, -0.3, math.log(2.0), 1.7])
def test_rotation_inverse_and_double_angle(n, f):
    assert len(GAMMA) == n
    eye = np.eye(DIM)
    r = spinor_rotation(f)
    r_inv = math.cosh(f / 2.0) * eye - math.sinh(f / 2.0) * EPSILON
    assert maxabs(r_inv @ r - eye) < 1e-13
    assert maxabs(r @ r - (math.cosh(f) * eye + math.sinh(f) * EPSILON)) < 1e-13


def test_rotation_composition():
    rng = np.random.default_rng(3)
    for _ in range(10):
        f1, f2 = rng.normal(size=2)
        lhs = spinor_rotation(f1) @ spinor_rotation(f2)
        rhs = spinor_rotation(f1 + f2)
        assert maxabs(lhs - rhs) < 1e-12


def test_rotation_of_nodal_angles_is_the_rotation_per_node():
    f = np.array([0.0, 0.3, -1.2, math.log(2.0)])
    nodal = spinor_rotation(f)
    assert nodal.shape == (4, DIM, DIM)
    for k, fk in enumerate(f):
        assert np.array_equal(nodal[k], spinor_rotation(fk))


def test_pairings_properties():
    rng = np.random.default_rng(5)
    unit = np.zeros(DIM, dtype=complex)
    unit[0] = 1.0
    herm, _ = pairings(unit, unit)
    assert herm == pytest.approx(1.0)

    for _ in range(20):
        psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
        phi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
        h1, ind1 = pairings(psi, phi)
        h2, _ = pairings(phi, psi)
        assert abs(h1 - np.conj(h2)) < 1e-14 * (1 + abs(h1))

        # tau-invariance of the operative indefinite pairing
        _, ind_tau = pairings(TAU @ psi, TAU @ phi)
        assert abs(ind_tau - ind1) < 1e-13 * (1 + abs(ind1))

        # spacelike isometry of the Hermitian pairing
        v = rng.normal(size=3)
        hv, _ = pairings(vector_matrix(v) @ psi, vector_matrix(v) @ phi)
        assert abs(hv - (v @ v) * h1) < 1e-12 * (1 + abs(h1))


def test_normal_times_three_tangential_generators_is_anti_hermitian():
    # nu . Gamma^a Gamma^b Gamma^c for tangential a, b, c: the sphere connection's term in the
    # boundary Dirac operator, which therefore has no part in Re<psi, D psi>
    for a in range(2):
        for b in range(2):
            for c in range(2):
                x = GAMMA[2] @ GAMMA[a] @ GAMMA[b] @ GAMMA[c]
                assert maxabs(x + x.conj().T) == 0.0, (a, b, c)
