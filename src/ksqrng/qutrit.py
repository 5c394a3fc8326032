"""Qutrit states, rotation gates and the Sx measurement basis.

The qutrit lives on the energy eigenstates |0>, |1>, |2>, onto which the
spin-1 basis is mapped as |z,0> -> |0>, |z,+1> -> |1>, |z,-1> -> |2>.
In that ordering the measured spin operator reads

    Sx = 1/sqrt2 * |0 1 1|
                   |1 0 0|
                   |1 0 0|

and the y-rotations in the 01 / 12 two-level subspaces are

    R01(t) = | cos t/2  sin t/2  0|     R12(t) = |1     0        0    |
             |-sin t/2  cos t/2  0|              |0  cos t/2  sin t/2 |
             |    0        0     1|              |0 -sin t/2  cos t/2 |

All matrices are dense 3x3 complex arrays; every constructor validates its
invariants to within ``TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

TOL = 1e-12

_SQRT2 = np.sqrt(2.0)


def _as_complex3(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, order="C")
    if arr.shape != (3,):
        raise ValidationError(f"{what} must have exactly 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidationError(f"{what} contains non-finite amplitudes")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QutritState:
    """Normalized amplitude triple over (|0>, |1>, |2>)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _as_complex3(self.amplitudes, "state vector")
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if abs(norm_sq - 1.0) > TOL:
            raise ValidationError(f"state vector norm^2 = {norm_sq!r} deviates from 1 by more than {TOL}")
        object.__setattr__(self, "amplitudes", arr)

    def __eq__(self, other) -> bool:
        return isinstance(other, QutritState) and np.array_equal(self.amplitudes, other.amplitudes)


@dataclass(frozen=True)
class Unitary3:
    """3x3 unitary: U^dag U = I and |det U| = 1, both to within TOL."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128, order="C")
        if m.shape != (3, 3):
            raise ValidationError(f"unitary must be 3x3, got shape {m.shape}")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ValidationError("unitary contains non-finite entries")
        residual = m.conj().T @ m - np.eye(3)
        if np.max(np.abs(residual)) > TOL:
            raise ValidationError("matrix is not unitary to within tolerance")
        if abs(abs(np.linalg.det(m)) - 1.0) > TOL:
            raise ValidationError("determinant modulus deviates from 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other: "Unitary3") -> "Unitary3":
        return Unitary3(self.matrix @ other.matrix)


def rotation(subspace: str, theta: float) -> Unitary3:
    """Rotation by ``theta`` about y in the two-level subspace "01" or "12".

    Entries are real: cos(theta/2) on the rotated diagonal, +/- sin(theta/2)
    off it, identity on the untouched level.
    """
    if not np.isfinite(theta):
        raise ValidationError("rotation angle must be finite")
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    if subspace == "01":
        m = [[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]
    elif subspace == "12":
        m = [[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]]
    else:
        raise ValidationError(f"unknown subspace {subspace!r}, expected '01' or '12'")
    return Unitary3(np.array(m, dtype=np.complex128))


def apply_unitary(u: Unitary3, s: QutritState) -> QutritState:
    """Return u @ s as a new state."""
    return QutritState(u.matrix @ s.amplitudes)


def sx_eigenbasis() -> tuple[QutritState, QutritState, QutritState]:
    """Eigenstates (|x,-1>, |x,0>, |x,+1>) of Sx in the energy basis."""
    minus = QutritState([-_SQRT2 / 2.0, 0.5, 0.5])
    zero = QutritState([0.0, -_SQRT2 / 2.0, _SQRT2 / 2.0])
    plus = QutritState([_SQRT2 / 2.0, 0.5, 0.5])
    return minus, zero, plus


def born_probabilities(s: QutritState, basis) -> np.ndarray:
    """Born-rule probabilities |<basis_k|s>|^2 for an orthonormal basis.

    Raises ValidationError if the supplied basis is not orthonormal.
    """
    b = np.column_stack([v.amplitudes for v in basis])
    if np.max(np.abs(b.conj().T @ b - np.eye(3))) > TOL:
        raise ValidationError("measurement basis is not orthonormal")
    amps = b.conj().T @ s.amplitudes
    return np.abs(amps) ** 2


def measurement_unitary() -> Unitary3:
    """The pre-readout rotation R01(pi/2) @ R12(pi/2).

    Permutes the Sx eigenbasis onto the energy basis: |x,-1> -> |1>,
    |x,0> -> |2>, |x,+1> -> |0>, so a projective energy measurement after
    this rotation realizes the Sx measurement.
    """
    return rotation("01", np.pi / 2.0) @ rotation("12", np.pi / 2.0)
