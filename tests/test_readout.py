import numpy as np
import pytest
from scipy.special import ndtr

from ksqrng.errors import ValidationError
from ksqrng.readout import (
    NoiseParams,
    apply_relaxation,
    classify,
    gate_error,
    misclassification_rate,
    sample_level,
    synth_iq,
    thermal_init,
)

DEFAULTS = NoiseParams()

ABOVE_CEILING = float(np.nextafter(1e100, np.inf))

# Noise models whose readout leaves float64's exact range: overflow to inf or
# NaN, squared distances that underflow so classify ties every trial to level
# 0, or centres so close for their size that rounding decides the level.
OUTSIDE_FLOAT_DOMAIN = {
    "gate-1e308": dict(gate_amp_error=1e308),
    "sigma-1e300": dict(iq_sigma=1e300),
    "near-ulp": dict(iq_centers=((1e10, 0.0), (1e10 + 2e-5, 0.0), (0.0, 1e10)), iq_sigma=4e-6),
    "tiny": dict(iq_centers=((1e-160, 0.0), (0.0, 1e-160), (-1e-160, 0.0)), iq_sigma=1e-161),
    "underflow": dict(iq_centers=((1e-170, 0.0), (0.0, 1e-170), (-1e-170, 0.0)), iq_sigma=1e-171),
    "huge": dict(iq_centers=((1e160, 0.0), (0.0, 1e160), (-1e160, 0.0)), iq_sigma=1e159),
    "coord-above-ceiling": dict(iq_centers=((1e100, 0.0), (0.0, 1e100), (-ABOVE_CEILING, 0.0))),
    "sigma-above-ceiling": dict(iq_sigma=ABOVE_CEILING),
    "gate-above-ceiling": dict(gate_amp_error=ABOVE_CEILING),
    "gap-below-floor": dict(iq_centers=((1e-100, 0.0), (-0.99e-100, 0.0), (0.0, 1e-99)), iq_sigma=1e-101),
    "gap-below-per-coord": dict(iq_centers=((1e6, 0.0), (1e6 - 1.75, 0.0), (-1e6, 0.0)), iq_sigma=1e-7),
}


def gen(seed=0):
    return np.random.default_rng(seed)


class TestNoiseParams:
    def test_defaults_valid(self):
        p = NoiseParams()
        assert p.p_thermal_1 + p.p_thermal_2 < 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_thermal_1": 1.5},
            {"p_thermal_1": -0.1},
            {"p_decay_10": 2.0},
            {"p_thermal_1": 0.6, "p_thermal_2": 0.5},
            {"iq_sigma": 0.0},
            {"iq_sigma": -1.0},
            {"gate_amp_error": -0.1},
            {"p_thermal_1": 0.75, "p_thermal_2": 0.25},  # no ground start left
            {"iq_centers": ((1.0, 0.0), (0.0, 1.0))},
            {"iq_centers": ((float("nan"), 0.0), (0.0, 1.0), (-1.0, 0.0))},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            NoiseParams(**kwargs)

    @pytest.mark.parametrize(
        "centers",
        [
            None,
            5,
            ((1, 2, 3),) * 3,
            ((1,), (0, 1), (-1, 0)),
            (("1", "0"), ("0", "1"), ("-1", "0")),
            ((1j, 0), (0, 1), (-1, 0)),
            ((float("inf"), 0), (0, 1), (-1, 0)),
        ],
        ids=["none", "scalar", "triples", "ragged", "strings", "complex", "inf"],
    )
    def test_rejects_malformed_centers(self, centers):
        with pytest.raises(ValidationError, match="iq_centers"):
            NoiseParams(iq_centers=centers)

    def test_centers_stored_as_float_pairs(self):
        p = NoiseParams(iq_centers=np.array([[1, 0], [0, 1], [-1, 0]], dtype=np.int8))
        assert p.iq_centers == DEFAULTS.iq_centers
        assert all(type(x) is float for pair in p.iq_centers for x in pair)

    def test_rejects_coincident_centers(self):
        with pytest.raises(ValidationError):
            NoiseParams(iq_centers=((0, 0), (0, 0), (1, 1)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # validation itself must not overflow
    @pytest.mark.parametrize("kwargs", OUTSIDE_FLOAT_DOMAIN.values(), ids=OUTSIDE_FLOAT_DOMAIN)
    def test_rejects_outside_float_domain(self, kwargs):
        with pytest.raises(ValidationError):
            NoiseParams(**kwargs)


class TestThermalInit:
    def test_noiseless_limit(self):
        p = NoiseParams(p_thermal_1=0.0, p_thermal_2=0.0)
        levels = thermal_init(gen(1).random(1000), p)
        assert np.all(levels == 0)
        assert thermal_init(gen(2).random(), p) == 0

    def test_ground_frequency_at_defaults(self):
        # binomial 3 sigma around 1 - p_thermal_1 - p_thermal_2 = 0.9982
        levels = thermal_init(gen(3).random(1_000_000), DEFAULTS)
        f0 = np.mean(levels == 0)
        assert abs(f0 - 0.9982) < 3 * np.sqrt(0.0018 * 0.9982 / 1e6)

    def test_excited_total_below_one_percent(self):
        levels = thermal_init(gen(4).random(1_000_000), DEFAULTS)
        assert np.mean(levels != 0) < 0.01

    def test_deterministic(self):
        a = thermal_init(gen(5).random(10_000), DEFAULTS)
        b = thermal_init(gen(5).random(10_000), DEFAULTS)
        assert np.array_equal(a, b)


class TestGateError:
    def test_zero_width_is_exact(self):
        p = NoiseParams(gate_amp_error=0.0)
        assert np.all(gate_error(*gen(30).random((2, 1000)), p) == 0.0)

    def test_normal_spread(self):
        eps = gate_error(*gen(31).random((2, 1_000_000)), DEFAULTS)
        assert abs(eps.mean()) < 3 * 0.005 / 1e3
        assert abs(eps.std() - 0.005) < 0.01 * 0.005


class TestSampleLevel:
    def test_deterministic_distribution(self):
        out = sample_level(np.array([1.0, 0.0, 0.0]), gen(6).random(1000))
        assert np.all(out == 0)

    def test_zero_probability_outcome_never_drawn(self):
        out = sample_level(np.array([0.5, 0.0, 0.5]), gen(7).random(1_000_000))
        assert np.count_nonzero(out == 1) == 0

    def test_binomial_band(self):
        out = sample_level(np.array([0.5, 0.0, 0.5]), gen(8).random(1_000_000))
        assert abs(np.mean(out == 0) - 0.5) < 0.0015  # 3 sigma

    def test_rowwise_probabilities(self):
        probs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(sample_level(probs, gen(9).random(3)), [0, 1, 2])

    def test_malformed_distribution_rejected(self):
        with pytest.raises(ValidationError):
            sample_level(np.array([0.5, 0.1, 0.5]), 0.5)
        with pytest.raises(ValidationError):
            sample_level(np.array([1.2, -0.2, 0.0]), 0.5)


class TestApplyRelaxation:
    def test_ground_state_stable(self):
        p = NoiseParams(p_decay_10=1.0, p_decay_21=1.0)
        assert apply_relaxation(0, 0.0, 0.0, p) == 0
        out = apply_relaxation(np.zeros(1000, dtype=np.uint8), *gen(12).random((2, 1000)), p)
        assert np.all(out == 0)

    def test_decay_frequency_from_first_excited(self):
        levels = np.ones(1_000_000, dtype=np.uint8)
        out = apply_relaxation(levels, *gen(13).random((2, levels.size)), DEFAULTS)
        assert abs(np.mean(out == 0) - 0.072) < 0.0008  # binomial 3 sigma

    def test_full_cascade(self):
        p = NoiseParams(p_decay_21=1.0, p_decay_10=1.0)
        out = apply_relaxation(np.full(1000, 2, dtype=np.uint8), *gen(14).random((2, 1000)), p)
        assert np.all(out == 0)

    def test_never_increases_level(self):
        rng = gen(15)
        levels = rng.integers(0, 3, 10_000).astype(np.uint8)
        out = apply_relaxation(levels, *rng.random((2, levels.size)), DEFAULTS)
        assert np.all(out <= levels)


class TestTies:
    """Each step at u == p: the comparisons are strict, u < p, because the
    kernel's word thresholds in ``protocol`` assume exactly that."""

    # dyadic probabilities, so every sum below is exact
    NOISE = NoiseParams(p_thermal_1=0.25, p_thermal_2=0.125, p_decay_10=0.25, p_decay_21=0.5)

    def test_thermal_init(self):
        u = np.array([np.nextafter(0.25, 0.0), 0.25, np.nextafter(0.375, 0.0), 0.375])
        assert thermal_init(u, self.NOISE).tolist() == [1, 2, 2, 0]
        assert [int(thermal_init(x, self.NOISE)) for x in u] == [1, 2, 2, 0]

    def test_sample_level(self):
        u = np.array([np.nextafter(0.25, 0.0), 0.25, np.nextafter(0.75, 0.0), 0.75])
        assert sample_level(np.array([0.25, 0.5, 0.25]), u).tolist() == [0, 1, 1, 2]

    def test_apply_relaxation(self):
        below = np.nextafter(0.25, 0.0)
        cases = [  # (level, u_a, u_b) -> relaxed level
            ((1, below, 0.9), 0),
            ((1, 0.25, 0.9), 1),  # u_a == p_decay_10
            ((2, np.nextafter(0.5, 0.0), 0.9), 1),
            ((2, 0.5, 0.0), 2),  # u_a == p_decay_21
            ((2, 0.3, below), 0),
            ((2, 0.3, 0.25), 1),  # u_b == p_decay_10
        ]
        level, u_a, u_b = (np.array(col) for col in zip(*(args for args, _ in cases)))
        assert apply_relaxation(level.astype(np.uint8), u_a, u_b, self.NOISE).tolist() == [out for _, out in cases]

    def test_sample_level_tolerance_edge(self):
        # an entry of exactly -1e-9 is inside the tolerance, one step below is not
        assert sample_level(np.array([0.5 + 1e-9, -1e-9, 0.5]), 0.25) == 0
        with pytest.raises(ValidationError):
            sample_level(np.array([0.5 + 1e-9, np.nextafter(-1e-9, -1.0), 0.5]), 0.25)


class TestSynthIQ:
    def test_vanishing_noise_returns_center(self):
        p = NoiseParams(iq_sigma=1e-300)
        i, q = synth_iq(1, *gen(16).random(2), p)
        assert abs(i - 0.0) < 1e-250 and q == 1.0

    def test_mean_at_center(self):
        i, q = synth_iq(np.zeros(1_000_000, dtype=np.uint8), *gen(17).random((2, 1_000_000)), DEFAULTS)
        assert abs(i.mean() - 1.0) < 0.001  # 3 sigma / sqrt(N) = 5.4e-4
        assert abs(q.mean() - 0.0) < 0.001

    def test_per_axis_variance(self):
        i, q = synth_iq(np.full(1_000_000, 2, dtype=np.uint8), *gen(18).random((2, 1_000_000)), DEFAULTS)
        for axis in (i, q):
            assert abs(axis.var() - 0.18**2) < 0.05 * 0.18**2


class TestClassify:
    def test_on_center(self):
        assert classify(0.0, 1.0, DEFAULTS) == 1

    def test_near_ground_center(self):
        # squared distances at default centers: 0.02 vs 1.62 vs 3.62
        assert classify(0.9, 0.1, DEFAULTS) == 0

    def test_tie_breaks_to_lowest_index(self):
        # default centres (1, 0), (0, 1), (-1, 0); every point below is
        # exactly equidistant from the tied centres and nearer to them than
        # to any other
        ties = [
            ((0.5, 0.5), 0),  # 0 = 1
            ((0.0, -1.0), 0),  # 0 = 2
            ((-0.5, 0.5), 1),  # 1 = 2
            ((0.0, 0.0), 0),  # 0 = 1 = 2
        ]
        for (i, q), level in ties:
            assert classify(i, q, DEFAULTS) == level
        i, q = np.array([pt for pt, _ in ties]).T
        assert classify(i, q, DEFAULTS).tolist() == [level for _, level in ties]

    def test_translation_invariance(self):
        rng = gen(19)
        for _ in range(50):
            t = rng.standard_normal(2)
            pt = rng.standard_normal(2) * 2
            moved = NoiseParams(iq_centers=tuple((ci + t[0], cq + t[1]) for ci, cq in DEFAULTS.iq_centers))
            assert classify(*(pt + t), moved) == classify(*pt, DEFAULTS)

    def test_vectorized_matches_scalar(self):
        rng = gen(20)
        i = rng.standard_normal(500)
        q = rng.standard_normal(500)
        vec = classify(i, q, DEFAULTS)
        for k in range(500):
            assert vec[k] == classify(i[k], q[k], DEFAULTS)


def monte_carlo_rate(params, seed, n=10**6):
    """Misclassified fraction of n synth_iq + classify draws, levels uniform."""
    rng = gen(seed)
    levels = rng.integers(0, 3, n).astype(np.uint8)
    i, q = synth_iq(levels, *rng.random((2, n)), params)
    return float(np.mean(classify(i, q, params) != levels))


BIG = 1e100
TINY_GAP = 2 * 1e-100  # half of it is the smallest half gap NoiseParams accepts

# The corners of NoiseParams' float64 domain: h = |d| / (2 sigma) overflows,
# underflows, or meets collinear centres, where Owen's a is infinite.
DOMAIN_CORNERS = {
    "huge-centres-tiny-sigma": dict(iq_centers=((BIG, 0.0), (0.0, BIG), (-BIG, 0.0)), iq_sigma=1e-300),
    "huge-collinear-tiny-sigma": dict(iq_centers=((BIG, 0.0), (0.0, 0.0), (-BIG, 0.0)), iq_sigma=1e-300),
    "huge-sigma": dict(iq_sigma=1e100),
    "huge-sigma-collinear": dict(iq_centers=((0.0, 0.0), (1.0, 0.0), (-3.0, 0.0)), iq_sigma=1e100),
    "tiny-gaps": dict(iq_centers=((TINY_GAP, 0.0), (0.0, TINY_GAP), (-TINY_GAP, 0.0)), iq_sigma=1e-100),
    "tiny-gaps-collinear": dict(iq_centers=((0.0, 0.0), (TINY_GAP, 0.0), (2 * TINY_GAP, 0.0)), iq_sigma=1e-100),
}


class TestMisclassification:
    def test_separated_blobs(self):
        assert misclassification_rate(NoiseParams(iq_sigma=1e-6)) == 0.0

    def test_overlapping_blobs_near_chance(self):
        assert misclassification_rate(NoiseParams(iq_sigma=10.0)) > 0.5

    def test_default_rate_matches_calibration_target(self):
        # target 6e-5 within a factor of 2
        assert 3e-5 <= misclassification_rate(DEFAULTS) <= 1.2e-4

    def test_monotone_in_sigma(self):
        rates = [misclassification_rate(NoiseParams(iq_sigma=s)) for s in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize(
        "kwargs, seed",
        [
            (dict(iq_sigma=0.3), 21),
            (dict(iq_sigma=0.5), 22),
            # collinear: for the centre at 2 one neighbour hides behind the other
            (dict(iq_centers=((2.0, 0.0), (0.0, 0.0), (-1.0, 0.0)), iq_sigma=0.5), 23),
            # obtuse at level 1, so levels 0 and 2 take a negative Owen's a
            (dict(iq_centers=((1.0, 0.0), (0.0, 0.3), (-1.0, 0.0)), iq_sigma=0.2), 24),
        ],
        ids=["sigma-0.3", "sigma-0.5", "collinear", "obtuse"],
    )
    def test_matches_monte_carlo(self, kwargs, seed):
        p = NoiseParams(**kwargs)
        exact = misclassification_rate(p)
        se = np.sqrt(exact * (1 - exact) / 10**6)
        assert abs(monte_carlo_rate(p, seed) - exact) < 6 * se

    def test_collinear_limits(self):
        # centres 0, 2, 6 on a line at sigma 1: the boundaries lie h = 1 and
        # 2 deviations out, each end errs by one tail and the middle by two
        q1, q2 = ndtr(-1.0), ndtr(-2.0)
        p = NoiseParams(iq_centers=((0.0, 0.0), (2.0, 0.0), (6.0, 0.0)), iq_sigma=1.0)
        assert misclassification_rate(p) == pytest.approx((q1 + (q1 + q2) + q2) / 3, rel=1e-12)

    @pytest.mark.parametrize("kwargs", DOMAIN_CORNERS.values(), ids=DOMAIN_CORNERS)
    def test_finite_at_domain_corners(self, kwargs):
        # pyproject turns every RuntimeWarning into an error
        assert 0.0 <= misclassification_rate(NoiseParams(**kwargs)) <= 1.0


class TestDeterminism:
    def test_all_sampling_ops_reproduce_with_same_seed(self):
        levels = np.array([0, 1, 2] * 100, dtype=np.uint8)
        probs = np.array([0.3, 0.3, 0.4])
        first = (
            thermal_init(gen(26).random(300), DEFAULTS),
            sample_level(probs, gen(27).random(300)),
            apply_relaxation(levels, *gen(28).random((2, 300)), DEFAULTS),
            synth_iq(levels, *gen(29).random((2, 300)), DEFAULTS),
        )
        second = (
            thermal_init(gen(26).random(300), DEFAULTS),
            sample_level(probs, gen(27).random(300)),
            apply_relaxation(levels, *gen(28).random((2, 300)), DEFAULTS),
            synth_iq(levels, *gen(29).random((2, 300)), DEFAULTS),
        )
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        assert np.array_equal(first[2], second[2])
        assert np.array_equal(first[3][0], second[3][0])
        assert np.array_equal(first[3][1], second[3][1])
