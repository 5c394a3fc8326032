import math

import numpy as np
import pytest

from ksqrng.bits import RawStream
from ksqrng.certify import (
    BOUND_HI,
    BOUND_LO,
    build_report,
    certified_fraction_final,
    certified_fraction_raw,
    check_certified,
    estimate_overlaps,
)
from ksqrng.errors import ValidationError


def stream_with_counts(n0, n1, nd):
    return RawStream(np.array([0] * n0 + [1] * n1 + [2] * nd, dtype=np.uint8))


class TestBounds:
    def test_values(self):
        lo, hi = BOUND_LO, BOUND_HI
        assert abs(lo - 0.597614) < 1e-6
        assert abs(hi - 0.801784) < 1e-6
        assert lo < hi

    def test_exact_radicals(self):
        assert BOUND_LO == math.sqrt(5.0 / 14.0)
        assert BOUND_HI == 3.0 / math.sqrt(14.0)


class TestOverlaps:
    def test_ideal(self):
        a, b = estimate_overlaps(0.5, 0.5)
        assert abs(a - 0.70711) < 1e-5 and a == b

    def test_published_bias(self):
        a, b = estimate_overlaps(0.536, 0.464)
        assert abs(a - 0.73212) < 1e-5
        assert abs(b - 0.68118) < 1e-5

    def test_degenerate(self):
        assert estimate_overlaps(1.0, 0.0) == (1.0, 0.0)
        assert estimate_overlaps(0.0, 1.0) == (0.0, 1.0)

    def test_range_check(self):
        with pytest.raises(ValidationError):
            estimate_overlaps(-0.1, 0.5)
        with pytest.raises(ValidationError):
            estimate_overlaps(0.5, 1.1)


class TestCheckCertified:
    def test_balanced_overlap_inside(self):
        assert check_certified(0.70711)

    def test_half_outside(self):
        assert not check_certified(0.5)

    def test_closed_boundaries(self):
        assert check_certified(BOUND_LO)
        assert check_certified(BOUND_HI)
        assert not check_certified(np.nextafter(BOUND_LO, 0.0))
        assert not check_certified(np.nextafter(BOUND_HI, 1.0))

    @pytest.mark.parametrize("overlap", [-0.1, 1.5, float("nan")], ids=["negative", "above-1", "nan"])
    def test_range_check(self, overlap):
        with pytest.raises(ValidationError, match="overlap must lie in"):
            check_certified(overlap)

    def test_window_matches_probability_interval(self):
        # certified in overlap exactly when the outcome probability lies in
        # [5/14, 9/14]
        lo_p, hi_p = 5.0 / 14.0, 9.0 / 14.0
        for p in np.linspace(0.0, 1.0, 1001):
            if min(abs(p - lo_p), abs(p - hi_p)) < 1e-9:
                continue
            assert check_certified(math.sqrt(p)) == (lo_p <= p <= hi_p)


class TestCertifiedFractions:
    def test_raw_unbiased(self):
        assert certified_fraction_raw(0.5, 0.5) == 1.0

    def test_raw_published_bias(self):
        assert abs(certified_fraction_raw(0.536, 0.464) - 0.928) < 1e-12

    def test_raw_deterministic_limit(self):
        assert certified_fraction_raw(1.0, 0.0) == 0.0
        assert certified_fraction_raw(1.0 + 1e-12, 0.0) == 0.0  # at the rounding allowance

    def test_raw_swap_invariance(self):
        for p0 in np.linspace(0.0, 1.0, 101):
            assert certified_fraction_raw(p0, 1.0 - p0) == pytest.approx(
                certified_fraction_raw(1.0 - p0, p0), abs=1e-15
            )

    def test_final_examples(self):
        assert abs(certified_fraction_final(0.95) - 0.9975) < 1e-9
        assert certified_fraction_final(1.0) == 1.0
        assert certified_fraction_final(0.0) == 0.0

    def test_final_dominates_raw(self):
        for c in np.linspace(0.0, 1.0, 101):
            f = certified_fraction_final(c)
            assert f >= c
            if 0.0 < c < 1.0:
                assert f > c

    def test_range_checks(self):
        with pytest.raises(ValidationError):
            certified_fraction_final(1.5)
        with pytest.raises(ValidationError):
            certified_fraction_raw(0.8, 0.4)
        with pytest.raises(ValidationError, match="without binary outcomes"):
            certified_fraction_raw(0.0, 0.0)


class TestBuildReport:
    def test_published_bias_stream(self):
        report = build_report(stream_with_counts(536, 464, 0))
        assert report.p0 == 0.536
        assert report.p1 == 0.464
        assert report.certified_plus and report.certified_minus
        assert abs(report.certified_fraction_raw - 0.928) < 1e-12
        assert abs(report.certified_fraction_final - (1 - 0.072**2)) < 1e-12

    def test_balanced_stream(self):
        report = build_report(stream_with_counts(5000, 5000, 4))
        assert report.certified_fraction_raw == 1.0
        assert report.p_discard == 4 / 10004

    def test_fully_deterministic_stream(self):
        report = build_report(stream_with_counts(100, 0, 0))
        assert report.certified_fraction_raw == 0.0
        assert not report.certified_plus  # overlap 1 lies above the window
        assert not report.certified_minus  # overlap 0 lies below the window

    def test_discards_excluded_from_bias(self):
        with_discards = build_report(stream_with_counts(60, 40, 900))
        without = build_report(stream_with_counts(60, 40, 0))
        assert with_discards.p0 == without.p0 == 0.6

    def test_pure_function_of_counts(self):
        a = build_report(RawStream(np.array([0, 1, 2, 0], dtype=np.uint8)))
        b = build_report(RawStream(np.array([2, 0, 0, 1], dtype=np.uint8)))
        assert a == b

    def test_all_discard_stream_rejected(self):
        with pytest.raises(ValidationError):
            build_report(stream_with_counts(0, 0, 50))

    def test_stderrs(self):
        report = build_report(stream_with_counts(60, 40, 0))
        assert report.p0_stderr == pytest.approx(math.sqrt(0.6 * 0.4 / 100))
