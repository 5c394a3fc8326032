import numpy as np
import pytest

from ksqrng.bits import BitStream, random_bits
from ksqrng.errors import BitSourceExhaustedError, ValidationError
from ksqrng.primality import (
    BitSource,
    carmichael_harness,
    carmichael_numbers,
    jacobi,
    solovay_strassen,
)


def factorize(n):
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def jacobi_oracle(a, n):
    """Euler-criterion product over the prime factorization of n."""
    result = 1
    for p, k in factorize(n).items():
        if a % p == 0:
            return 0
        legendre = -1 if pow(a, (p - 1) // 2, p) == p - 1 else 1
        result *= legendre**k
    return result


def is_carmichael_oracle(n):
    factors = factorize(n)
    if len(factors) < 2 or any(k > 1 for k in factors.values()):
        return False
    return all((n - 1) % (p - 1) == 0 for p in factors)


def source(seed=0, n=10**6):
    return BitSource(random_bits(seed, n))


class TestJacobi:
    def test_examples(self):
        assert jacobi(1, 9) == 1
        assert jacobi(5, 21) == 1  # (5/3)(5/7) = (-1)(-1)
        assert jacobi(3, 9) == 0

    def test_invalid_modulus(self):
        with pytest.raises(ValidationError):
            jacobi(3, 8)
        with pytest.raises(ValidationError):
            jacobi(3, 0)

    def test_unit_modulus(self):
        assert jacobi(7, 1) == 1

    def test_against_oracle_small_range(self):
        for n in range(1, 300, 2):
            for a in range(n):
                assert jacobi(a, n) == jacobi_oracle(a, n), (a, n)


class TestSolovayStrassen:
    def test_small_prime_survives_many_witnesses(self):
        verdict = solovay_strassen(7, source(1), max_witnesses=20)
        assert verdict.verdict == "probably_prime"
        assert verdict.witnesses_used == 20

    def test_carmichael_number_caught(self):
        verdict = solovay_strassen(561, source(2), max_witnesses=64)
        assert verdict.verdict == "composite"

    def test_even_guard(self):
        verdict = solovay_strassen(4, source(3), max_witnesses=8)
        assert verdict.verdict == "composite"
        assert verdict.witnesses_used == 0
        assert verdict.bits_consumed == 0

    def test_three_has_no_witness_range(self):
        verdict = solovay_strassen(3, source(4), max_witnesses=8)
        assert verdict.verdict == "probably_prime"
        assert verdict.bits_consumed == 0

    def test_primes_never_called_composite(self):
        sieve = np.ones(10**4, dtype=bool)
        sieve[:2] = False
        for p in range(2, 100):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.flatnonzero(sieve)
        for seed in (10, 11):
            src = source(seed, 4 * 10**6)
            for p in primes[1:]:  # odd primes, n >= 3
                verdict = solovay_strassen(int(p), src, max_witnesses=8)
                assert verdict.verdict == "probably_prime", int(p)

    def test_rejection_sampling_accounting(self):
        # n = 11: chunk width = bit_length(8) = 4; values above n - 4 = 7
        # are rejected but still billed. 1001 -> 9 rejected, 0010 -> a = 4.
        src = BitSource(BitStream([1, 0, 0, 1, 0, 0, 1, 0]))
        verdict = solovay_strassen(11, src, max_witnesses=1)
        assert verdict.verdict == "probably_prime"  # 4^5 = 1 mod 11, (4/11) = 1
        assert verdict.witnesses_used == 1
        assert verdict.bits_consumed == 8

    def test_bits_consumed_deterministic(self):
        a = solovay_strassen(561, source(12), max_witnesses=64)
        b = solovay_strassen(561, source(12), max_witnesses=64)
        assert a == b

    def test_exhaustion_carries_partial_counts(self):
        src = BitSource(BitStream([1, 0]))
        with pytest.raises(BitSourceExhaustedError) as err:
            solovay_strassen(11, src, max_witnesses=4)
        assert err.value.bits_consumed == 0
        assert err.value.witnesses_used == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            solovay_strassen(2, source(), max_witnesses=1)
        with pytest.raises(ValidationError):
            solovay_strassen(11, source(), max_witnesses=0)

    def test_modular_exponent_against_naive_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(3, 10**6)) | 1
            a = int(rng.integers(2, n))
            e = (n - 1) // 2
            acc, base, exp = 1, a % n, e
            while exp:
                if exp & 1:
                    acc = acc * base % n
                base = base * base % n
                exp >>= 1
            assert pow(a, e, n) == acc


class TestCarmichaelNumbers:
    def test_first_three(self):
        assert carmichael_numbers(2000) == [561, 1105, 1729]

    def test_smallest_excluded_at_limit(self):
        assert carmichael_numbers(561) == []

    def test_minimal_limit(self):
        assert carmichael_numbers(3) == []

    def test_against_bruteforce_oracle(self):
        mine = carmichael_numbers(20_000)
        oracle = [n for n in range(3, 20_000) if is_carmichael_oracle(n)]
        assert mine == oracle

    def test_validation(self):
        with pytest.raises(ValidationError):
            carmichael_numbers(2)


class TestHarness:
    def test_three_verdicts_below_2000(self):
        result = carmichael_harness(2000, source(20), max_witnesses=64)
        assert len(result.verdicts) == 3
        assert result.all_composite
        assert [v.number for v in result.verdicts] == [561, 1105, 1729]

    def test_totals_match_per_number_counts(self):
        result = carmichael_harness(10**4, source(21), max_witnesses=32)
        assert result.total_bits_consumed == sum(v.bits_consumed for v in result.verdicts)
        assert result.total_witnesses == sum(v.witnesses_used for v in result.verdicts)

    def test_empty_source_exhausts_at_first_number(self):
        with pytest.raises(BitSourceExhaustedError) as err:
            carmichael_harness(2000, BitSource(BitStream([])), max_witnesses=4)
        assert "561" in str(err.value)

    def test_zero_witnesses_rejected_below_first_carmichael(self):
        # no number below 561 reaches solovay_strassen's own check
        with pytest.raises(ValidationError, match="max_witnesses"):
            carmichael_harness(100, source(23), max_witnesses=0)

    def test_sequential_consumption_is_deterministic(self):
        a = carmichael_harness(10**4, source(22), max_witnesses=16)
        b = carmichael_harness(10**4, source(22), max_witnesses=16)
        assert a == b
