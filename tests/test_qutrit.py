import numpy as np
import pytest

from ksqrng.errors import ValidationError
from ksqrng.qutrit import (
    QutritState,
    Unitary3,
    apply_unitary,
    born_probabilities,
    measurement_unitary,
    rotation,
    sx_eigenbasis,
)

SQRT2_2 = np.sqrt(2.0) / 2.0
SX = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=np.complex128) / np.sqrt(2.0)
E0 = QutritState([1, 0, 0])
E1 = QutritState([0, 1, 0])
E2 = QutritState([0, 0, 1])


def random_state(rng):
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return QutritState(v / np.linalg.norm(v))


def random_unitary(rng):
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return Unitary3(q)


class TestRotation:
    def test_identity_angle(self):
        assert np.allclose(rotation("01", 0.0).matrix, np.eye(3), atol=1e-12)
        assert np.allclose(rotation("12", 0.0).matrix, np.eye(3), atol=1e-12)

    def test_half_pi_on_ground(self):
        # direct matrix-vector multiply: (cos pi/4, -sin pi/4, 0)
        out = apply_unitary(rotation("01", np.pi / 2), E0)
        assert np.allclose(out.amplitudes, [SQRT2_2, -SQRT2_2, 0.0], atol=1e-12)

    def test_pi_on_excited_12(self):
        out = apply_unitary(rotation("12", np.pi), E1)
        assert np.allclose(out.amplitudes, [0.0, 0.0, -1.0], atol=1e-12)

    def test_entries_real(self):
        for sub in ("01", "12"):
            assert np.max(np.abs(rotation(sub, 0.37).matrix.imag)) == 0.0

    def test_unitarity_over_angles(self):
        rng = np.random.default_rng(11)
        for theta in rng.uniform(-10, 10, 50):
            for sub in ("01", "12"):
                u = rotation(sub, theta).matrix
                assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12

    def test_bad_subspace(self):
        with pytest.raises(ValidationError):
            rotation("02", 0.1)

    def test_nonfinite_angle(self):
        with pytest.raises(ValidationError):
            rotation("01", float("nan"))


class TestApplyUnitary:
    def test_identity(self):
        u = Unitary3(np.eye(3))
        s = QutritState([0.6, 0.8j, 0.0])
        assert apply_unitary(u, s) == QutritState(s.amplitudes)

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            out = apply_unitary(random_unitary(rng), random_state(rng))
            assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12


class TestSxEigenbasis:
    def test_sx_eigen_relations(self):
        # eigenvalues -1, 0, +1 against the Sx matrix of the module docstring
        minus, zero, plus = sx_eigenbasis()
        assert np.max(np.abs(SX @ plus.amplitudes - plus.amplitudes)) < 1e-12
        assert np.max(np.abs(SX @ zero.amplitudes)) < 1e-12
        assert np.max(np.abs(SX @ minus.amplitudes + minus.amplitudes)) < 1e-12

    def test_orthogonality(self):
        minus, zero, plus = sx_eigenbasis()
        assert abs(np.vdot(minus.amplitudes, plus.amplitudes)) < 1e-12

    def test_plus_components(self):
        _, _, plus = sx_eigenbasis()
        assert np.allclose(plus.amplitudes, [SQRT2_2, 0.5, 0.5], atol=1e-12)

    def test_completeness(self):
        total = sum(
            np.outer(v.amplitudes, v.amplitudes.conj()) for v in sx_eigenbasis()
        )
        assert np.max(np.abs(total - np.eye(3))) < 1e-12


class TestBornProbabilities:
    def test_ground_in_sx_basis(self):
        probs = born_probabilities(E0, sx_eigenbasis())
        assert np.allclose(probs, [0.5, 0.0, 0.5], atol=1e-12)

    def test_eigenstate_case(self):
        probs = born_probabilities(sx_eigenbasis()[2], sx_eigenbasis())
        assert np.allclose(probs, [0.0, 0.0, 1.0], atol=1e-12)

    def test_computational(self):
        assert np.allclose(born_probabilities(E1, (E0, E1, E2)), [0, 1, 0], atol=0)
        # a basis whose largest overlap residual is exactly TOL is accepted
        tilted = (E0, QutritState([1e-12, 1, 0]), E2)
        assert np.allclose(born_probabilities(E1, tilted), [0, 1, 0], atol=0)

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValidationError):
            born_probabilities(E0, (E0, E0, E2))

    def test_normalization_and_range(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            probs = born_probabilities(random_state(rng), sx_eigenbasis())
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs >= 0.0) and np.all(probs <= 1.0 + 1e-12)

    def test_matches_linear_system_expansion(self):
        # independent route: expand the state in the basis by solving the
        # 3x3 linear system B c = s, then square the coefficients
        rng = np.random.default_rng(23)
        for _ in range(50):
            u = random_unitary(rng)
            basis = tuple(QutritState(u.matrix[:, k]) for k in range(3))
            s = random_state(rng)
            b = np.column_stack([v.amplitudes for v in basis])
            coeffs = np.linalg.solve(b, s.amplitudes)
            assert np.max(
                np.abs(born_probabilities(s, basis) - np.abs(coeffs) ** 2)
            ) < 1e-12


class TestMeasurementUnitary:
    def test_is_product_of_rotations(self):
        expected = rotation("01", np.pi / 2).matrix @ rotation("12", np.pi / 2).matrix
        assert np.array_equal(measurement_unitary().matrix, expected)

    def test_permutes_sx_basis_onto_energy_basis(self):
        m = measurement_unitary()
        minus, zero, plus = sx_eigenbasis()
        for vec, target in ((minus, E1), (zero, E2), (plus, E0)):
            out = apply_unitary(m, vec)
            assert np.max(np.abs(out.amplitudes - target.amplitudes)) < 1e-12


class TestValidation:
    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValidationError):
            QutritState([1, 1, 0])

    def test_nan_state_rejected(self):
        with pytest.raises(ValidationError):
            QutritState([float("nan"), 0, 0])

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            Unitary3(np.ones((3, 3)))

    def test_residual_at_tolerance_accepted(self):
        # U^dag U - I has largest entry exactly TOL and det U is exactly 1
        m = np.array([[1, 1e-12, 0], [0, 1, 0], [0, 0, 1]], dtype=np.complex128)
        assert np.array_equal(Unitary3(m).matrix, m)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: QutritState([1, 0]), "exactly 3 components"),
            (lambda: Unitary3(np.eye(2)), "must be 3x3"),
            (lambda: Unitary3(np.diag([1.0, np.nan, 1.0])), "non-finite"),
            # U^dag U - I is 9.8e-13, inside TOL, but |det U| - 1 is 1.47e-12
            (lambda: Unitary3(np.diag([1 + 4.9e-13] * 3)), "determinant modulus"),
        ],
        ids=["state-2", "unitary-2x2", "unitary-nan", "unitary-det"],
    )
    def test_wrong_shape_or_nan_rejected(self, make, message):
        with pytest.raises(ValidationError, match=message):
            make()
