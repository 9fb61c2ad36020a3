import math
from dataclasses import dataclass

import numpy as np
import pytest

from creaselab.cliffords import (
    CliffordError,
    CliffordRep,
    HyperbolicRotation,
    build_rep,
    epsilon_action,
    spinor_rotation,
)


def maxabs(a):
    return float(np.max(np.abs(a)))


# ---------------------------------------------------------------------------
# fiber vectors and pairings, spelled out for the tests of the representation


def vector_matrix(rep: CliffordRep, components: np.ndarray, time_component: float = 0.0) -> np.ndarray:
    """Clifford matrix of c*tau + sum_i v_i e_i (components in an orthonormal frame)."""
    v = np.asarray(components, dtype=complex)
    if v.shape != (rep.n,):
        raise CliffordError(f"expected {rep.n} vector components, got shape {v.shape}")
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
        raise CliffordError(f"spinor dimension {psi.shape[-1]} does not match rep dim {rep.dim}")
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
        raise CliffordError("pairings expects two spinors of the rep dimension")
    return complex(np.vdot(psi, phi)), complex(np.vdot(rep.tau @ psi, phi))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_defining_relations(n):
    rep = build_rep(n)
    assert rep.dim == 2 * 2 ** (n // 2)
    eye = np.eye(rep.dim)
    for i in range(n):
        gi = rep.gamma[i]
        assert maxabs(gi + gi.conj().T) < 1e-14  # anti-Hermitian
        assert maxabs(gi @ gi.conj().T - eye) < 1e-14  # unitary
        for j in range(n):
            anti = gi @ rep.gamma[j] + rep.gamma[j] @ gi
            target = -2.0 * eye if i == j else 0.0 * eye
            assert maxabs(anti - target) < 1e-13


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_tau_relations(n):
    rep = build_rep(n)
    eye = np.eye(rep.dim)
    assert maxabs(rep.tau @ rep.tau - eye) < 1e-14
    assert maxabs(rep.tau - rep.tau.conj().T) < 1e-14
    for i in range(n):
        assert maxabs(rep.tau @ rep.gamma[i] + rep.gamma[i] @ rep.tau) < 1e-14


def test_tau_swaps_blocks():
    rep = build_rep(3)
    half = rep.dim // 2
    psi = np.arange(1.0, rep.dim + 1.0) + 0j
    swapped = rep.tau @ psi
    assert np.allclose(swapped[:half], psi[half:])
    assert np.allclose(swapped[half:], psi[:half])


def test_build_rep_deterministic_and_validated():
    a = build_rep(3)
    b = build_rep(3)
    assert np.array_equal(a.gamma, b.gamma)
    assert np.array_equal(a.tau, b.tau)
    for bad in (2, 7, 3.5, "three"):
        with pytest.raises(CliffordError):
            build_rep(bad)


def test_n4_spot_check_anticommutator():
    rep = build_rep(4)
    assert rep.dim == 8
    anti = rep.gamma[1] @ rep.gamma[3] + rep.gamma[3] @ rep.gamma[1]
    assert maxabs(anti) < 1e-14


def test_clifford_mul_basics():
    rep = build_rep(3)
    rng = np.random.default_rng(7)
    psi = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    e1 = FiberVector(spatial=np.array([1.0, 0.0, 0.0]))
    twice = clifford_mul(rep, e1, clifford_mul(rep, e1, psi))
    assert maxabs(twice + psi) < 1e-14  # e1^2 = -1

    tau_vec = FiberVector(spatial=np.zeros(3), time=1.0)
    half = rep.dim // 2
    out = clifford_mul(rep, tau_vec, psi)
    assert np.allclose(out[:half], psi[half:]) and np.allclose(out[half:], psi[:half])

    with pytest.raises(CliffordError):
        clifford_mul(rep, e1, np.zeros(rep.dim + 1))


def test_clifford_mul_spacelike_isometry():
    # <v psi, v phi> = |v|^2 <psi, phi> for spacelike v; oracle is the direct
    # matrix product with the assembled vector matrix.
    rep = build_rep(3)
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


@pytest.mark.parametrize("n", [3, 4])
def test_epsilon_identities(n):
    rep = build_rep(n)
    eye = np.eye(rep.dim)
    for nu in range(1, n + 1):
        eps = epsilon_action(rep, nu)
        nu_mat = rep.gamma_of(nu)
        assert maxabs(eps @ eps - eye) < 1e-14
        assert maxabs(eps @ nu_mat + nu_mat @ eps) < 1e-14
        assert maxabs(eps @ nu_mat - rep.tau) < 1e-14
        assert maxabs(eps @ rep.tau + rep.tau @ eps) < 1e-14


def test_epsilon_trace_matches_definition():
    rep = build_rep(3)
    eps = epsilon_action(rep, 3)
    assert abs(np.trace(eps) - np.trace(rep.gamma_of(3) @ rep.tau)) < 1e-14


def test_rotation_identity_at_zero():
    rep = build_rep(3)
    r = spinor_rotation(rep, 0.0)
    assert maxabs(r - np.eye(rep.dim)) < 1e-15


def test_rotation_half_angle_values():
    rot = HyperbolicRotation(math.log(2.0))
    assert rot.half_cosh == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), abs=1e-12)
    assert rot.half_sinh == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), abs=1e-12)
    assert rot.half_cosh**2 - rot.half_sinh**2 == pytest.approx(1.0, abs=1e-14)
    assert rot.half_cosh**2 + rot.half_sinh**2 == pytest.approx(rot.a, abs=1e-14)
    assert 2.0 * rot.half_cosh * rot.half_sinh == pytest.approx(rot.b, abs=1e-14)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("f", [0.0, 0.3, -0.3, math.log(2.0), 1.7])
def test_rotation_inverse_and_double_angle(n, f):
    rep = build_rep(n)
    eye = np.eye(rep.dim)
    rot = HyperbolicRotation(f)
    for nu in range(1, n + 1):
        eps = epsilon_action(rep, nu)
        r = spinor_rotation(rep, f, nu)
        r_inv = rot.half_cosh * eye - rot.half_sinh * eps
        assert maxabs(r_inv @ r - eye) < 1e-13
        assert maxabs(r @ r - (rot.a * eye + rot.b * eps)) < 1e-13


def test_rotation_composition():
    rep = build_rep(3)
    rng = np.random.default_rng(3)
    for _ in range(10):
        f1, f2 = rng.normal(size=2)
        lhs = spinor_rotation(rep, f1) @ spinor_rotation(rep, f2)
        rhs = spinor_rotation(rep, f1 + f2)
        assert maxabs(lhs - rhs) < 1e-12


def test_rotation_of_nodal_angles_is_the_rotation_per_node():
    rep = build_rep(3)
    f = np.array([0.0, 0.3, -1.2, math.log(2.0)])
    nodal = spinor_rotation(rep, f)
    assert nodal.shape == (4, rep.dim, rep.dim)
    for k, fk in enumerate(f):
        assert np.array_equal(nodal[k], spinor_rotation(rep, fk))


def test_pairings_properties():
    rep = build_rep(3)
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
