"""Phenomenological readout and noise model.

Covers thermal initialization, gate amplitude error, Born-rule outcome
sampling, discrete relaxation during the readout window, IQ-plane response
synthesis and nearest-centroid classification. Each step is one function of
pre-drawn uniforms (and the noise parameters): it draws nothing itself, so
the caller fixes which random word feeds which step. The functions work
elementwise, on a single trial's scalars as on a batch's arrays, and return
numpy levels (uint8) or IQ coordinates (float64).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ValidationError


class ReadoutLevel(IntEnum):
    L0 = 0
    L1 = 1
    L2 = 2


@dataclass(frozen=True)
class IQPoint:
    i: float
    q: float

    def __post_init__(self):
        if not (np.isfinite(self.i) and np.isfinite(self.q)):
            raise ValidationError("IQ point components must be finite")


_DEFAULT_CENTERS = (IQPoint(1.0, 0.0), IQPoint(0.0, 1.0), IQPoint(-1.0, 0.0))

# The float64 domain NoiseParams accepts. Within it every squared IQ distance
# is finite and every squared distance between centres is a normal float64.
_MAX_SCALE = 1e100  # on |coordinate|, iq_sigma and gate_amp_error
_MIN_HALF_GAP = 1e-100  # on half the distance between two centres ...
_HALF_GAP_PER_COORD = 1e-6  # ... and on its ratio to max|coord|
# synth_iq and classify round relative to max|coord|, so on the domain their
# rounding stays below 1e-9 of every half gap, well inside this shrink.
_RADIUS_SHRINK = 0.99


@dataclass(frozen=True)
class NoiseParams:
    """Noise-model parameters.

    Thermal defaults keep the excited-state population well under the 1%
    budget while holding discards below 0.1%; ``p_decay_10`` is calibrated
    so the full pipeline lands on a 0.536 zero-frequency. ``iq_sigma`` at
    unit centre separations puts nearest-centroid misclassification at
    5.70e-5 (:func:`misclassification_rate`).

    This class owns the readout's float64 domain: every centre coordinate,
    ``iq_sigma`` and ``gate_amp_error`` are at most 1e100, and half the
    distance from each centre to its nearest other centre is at least
    max(1e-100, 1e-6 max|coord|). Inside it no readout step overflows or
    underflows a squared distance between centres, and rounding stays within
    :func:`decision_radii`; parameters outside it raise ``ValidationError``.
    """

    p_thermal_1: float = 0.0016
    p_thermal_2: float = 0.0002
    gate_amp_error: float = 0.005
    p_decay_10: float = 0.072
    p_decay_21: float = 0.14
    iq_centers: tuple[IQPoint, IQPoint, IQPoint] = _DEFAULT_CENTERS
    iq_sigma: float = 0.18

    def __post_init__(self):
        for name in ("p_thermal_1", "p_thermal_2", "p_decay_10", "p_decay_21"):
            v = getattr(self, name)
            if not (np.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must be a probability in [0, 1], got {v!r}")
        if self.p_thermal_1 + self.p_thermal_2 >= 1.0:
            raise ValidationError("p_thermal_1 + p_thermal_2 must be < 1")
        if not 0.0 <= self.gate_amp_error <= _MAX_SCALE:
            raise ValidationError(f"gate_amp_error must lie in [0, {_MAX_SCALE:g}], got {self.gate_amp_error!r}")
        if not 0.0 < self.iq_sigma <= _MAX_SCALE:
            raise ValidationError(f"iq_sigma must lie in (0, {_MAX_SCALE:g}], got {self.iq_sigma!r}")
        centers = tuple(self.iq_centers)
        if len(centers) != 3:
            raise ValidationError("iq_centers must hold exactly 3 points")
        centers = tuple(c if isinstance(c, IQPoint) else IQPoint(*c) for c in centers)
        object.__setattr__(self, "iq_centers", centers)
        coords = self.centers_array()
        size = float(np.abs(coords).max())
        if size > _MAX_SCALE:  # checked first, so the differences below stay finite
            raise ValidationError(f"iq_centers coordinates must lie within +-{_MAX_SCALE:g}, got {size!r}")
        floor = max(_MIN_HALF_GAP, _HALF_GAP_PER_COORD * size)
        if _half_gaps(coords).min() < floor:
            raise ValidationError(f"iq_centers must lie at least {2 * floor:g} apart")

    def centers_array(self) -> np.ndarray:
        return np.array([[c.i, c.q] for c in self.iq_centers], dtype=np.float64)


def thermal_init(u, params: NoiseParams):
    """Pre-protocol level: L1 when u < p_thermal_1, L2 when u < p_thermal_1 +
    p_thermal_2, else L0."""
    t1, t2 = params.p_thermal_1, params.p_thermal_2
    u = np.asarray(u)
    # u < t1 implies u < t1 + t2, so 2 * [u < t1 + t2] - [u < t1] is 1, 2 or 0
    return (u < t1 + t2).astype(np.uint8) * np.uint8(2) - (u < t1)


def _radius(u):
    """Box-Muller radius of a uniform: the norm of the normal pair built on
    ``u``, so a bound on either normal whatever the pair's angle."""
    return np.sqrt(-2.0 * np.log1p(-np.asarray(u)))


def _box_muller(u_a, u_b):
    """Radius and angle whose cosine and sine projections are two independent
    standard normals."""
    return _radius(u_a), 2.0 * np.pi * np.asarray(u_b)


def gate_error(u_a, u_b, params: NoiseParams):
    """Relative over-rotation of the measurement pulses: gate_amp_error times
    the cosine-branch Box-Muller normal of two uniforms."""
    r, ang = _box_muller(u_a, u_b)
    return params.gate_amp_error * (r * np.cos(ang))


def _sample_levels(p0, p1, u):
    """Born-rule levels of uniforms ``u`` for level probabilities ``p0`` and
    ``p1`` (level 2 takes the rest), without checking them."""
    u = np.asarray(u)
    return (u >= p0).astype(np.uint8) + (u >= p0 + p1)


def sample_level(probs, u):
    """Born-rule sampling: level 0 when u < p0, level 1 when u < p0 + p1,
    else level 2. ``probs`` is one triple or an (n, 3) array with one row per
    uniform; it must be nonnegative and sum to 1 within 1e-9."""
    probs = np.asarray(probs, dtype=np.float64)
    flat = probs.reshape(-1, 3)
    sums = flat.sum(axis=1)
    if np.any(flat < -1e-9) or np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValidationError("probabilities must be nonnegative and sum to 1 within 1e-9")
    return _sample_levels(probs[..., 0], probs[..., 1], u)


def apply_relaxation(level, u_a, u_b, params: NoiseParams):
    """Readout-window decay: 1 -> 0 when u_a < p_decay_10; 2 -> 1 when
    u_a < p_decay_21, and that decayed branch continues 1 -> 0 when
    u_b < p_decay_10. Levels never increase."""
    level = np.asarray(level)
    u_a = np.asarray(u_a)
    u_b = np.asarray(u_b)
    out = level.astype(np.uint8)
    out[(level == 1) & (u_a < params.p_decay_10)] = 0
    dropped = (level == 2) & (u_a < params.p_decay_21)
    out[dropped] = 1
    out[dropped & (u_b < params.p_decay_10)] = 0
    return out


def synth_iq(level, u_a, u_b, params: NoiseParams):
    """Readout response (i, q): the level's centre plus isotropic Gaussian
    noise of standard deviation iq_sigma per axis (Box-Muller on u_a, u_b)."""
    r, ang = _box_muller(u_a, u_b)
    centers = params.centers_array()
    level = np.asarray(level)
    i = centers[level, 0] + params.iq_sigma * (r * np.cos(ang))
    q = centers[level, 1] + params.iq_sigma * (r * np.sin(ang))
    return i, q


def classify(i, q, params: NoiseParams):
    """Level whose centre is nearest to (i, q) in Euclidean distance; ties
    break toward the lowest level index (strict comparisons keep the first
    minimum)."""
    i = np.asarray(i, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    d0, d1, d2 = (np.square(i - c.i) + np.square(q - c.q) for c in params.iq_centers)
    return np.where(d2 < np.minimum(d0, d1), np.uint8(2), (d1 < d0).astype(np.uint8))


def _half_gaps(centres: np.ndarray) -> np.ndarray:
    """Per centre row, half the distance to the nearest other row."""
    diff = centres[:, None, :] - centres[None, :, :]
    gaps = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(gaps, np.inf)
    return gaps.min(axis=1) / 2.0


def decision_radii(params: NoiseParams) -> np.ndarray:
    """Per level L, a noise radius below which ``classify`` returns L.

    A point nearer centre L than rho_L, half the distance from L to its
    nearest other centre, is nearer L than any other centre, whatever its
    angle; the radii are 0.99 rho_L, which covers the rounding of
    ``synth_iq`` and ``classify`` on the domain of :class:`NoiseParams`.
    """
    return _RADIUS_SHRINK * _half_gaps(params.centers_array())


def decision_uniforms(params: NoiseParams) -> list[float]:
    """Per level L, the uniform whose Box-Muller radius times ``iq_sigma``
    is ``decision_radii(params)[L]``: sqrt(-2 log(1 - u)) sigma < R_L exactly
    when u < 1 - exp(-(R_L / sigma)^2 / 2). Computed in Python floats, where
    a ratio that overflows or underflows gives 1 or 0 without a warning."""
    bounds = []
    for radius in decision_radii(params):
        ratio = float(radius) / params.iq_sigma
        bounds.append(-math.expm1(-0.5 * ratio * ratio))
    return bounds


def misclassification_rate(params: NoiseParams) -> float:
    """Exact P(classify(synth_iq(L)) != L) with L uniform over the levels.

    With d_k the offset from centre L to centre k, j the third centre and
    h_k = |d_k| / (2 iq_sigma), Owen (1956) gives P(error | L) as the sum
    over k of Q(h_k) / 2 + T(h_k, a_k), Q the normal tail, T Owen's T and
    a_k = (h_j - rho h_k) / (h_k sqrt(1 - rho^2)) = d_j.(d_j - d_k) / |d_k x d_j|,
    rho = cos(d_k, d_j). The last form is free of h, so finite for any
    iq_sigma, and +-inf, where T has its limit, for collinear centres.
    """
    from scipy.special import ndtr, owens_t  # scipy stays off the CLI's import path

    total = 0.0
    for zl, zk, zj in itertools.permutations([complex(c.i, c.q) for c in params.iq_centers]):
        h = abs(zk - zl) / (2.0 * params.iq_sigma)
        dot = ((zj - zl).conjugate() * (zj - zk)).real  # d_j.(d_j - d_k)
        cross = abs(((zk - zl).conjugate() * (zj - zl)).imag)  # |d_k x d_j|
        a = dot / cross if cross else dot * np.inf
        total += 0.5 * ndtr(-h) + owens_t(h, a)
    return float(total) / 3.0
