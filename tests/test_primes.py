"""Primality: the Baillie-PSW routine and is_prime against trial division and
the fixed-witness Miller-Rabin oracle, and against composites built to fool
weaker tests."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from fusionexp.primes import (
    _MR_DETERMINISTIC_BOUND,
    _baillie_psw,
    _jacobi,
    _miller_rabin,
    _strong_lucas,
    is_prime,
)

# composites that pass one strong Miller-Rabin round to base 2
BASE2_STRONG_PSEUDOPRIMES = (
    2047, 3277, 4033, 4681, 8321, 3215031751, 3825123056546413051,
)
# every composite 2^p - 1 with p prime passes it too; these lie above the
# bound, where is_prime relies on the Lucas half
COMPOSITE_MERSENNE_EXPONENTS = (83, 97, 101, 103, 109, 113, 131, 137, 139, 149)
# composites that pass the strong Lucas test with Selfridge's method A (OEIS A217255)
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971)


def test_agrees_with_trial_division_below_50000():
    for k in range(50_000):
        expected = helpers.trial_division_prime(k)
        assert _baillie_psw(k) == expected, k
        assert is_prime(k) == expected, k
        assert helpers.is_prime_fixed_witnesses(k) == expected, k


@pytest.mark.parametrize("bits", (64, 128, 256, 1024))
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_agrees_with_oracle_on_random_odd(bits, data):
    n = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    expected = helpers.is_prime_fixed_witnesses(n)
    assert _baillie_psw(n) == expected
    assert is_prime(n) == expected


@pytest.mark.parametrize("bits, starts", ((64, 20), (128, 10), (256, 5), (512, 2)))
def test_agrees_with_oracle_up_to_next_prime(bits, starts):
    # random odd integers are nearly all composite: walk from a random start
    # to the next prime, checking every odd number on the way
    rng = random.Random(bits)
    for _ in range(starts):
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        while True:
            expected = helpers.is_prime_fixed_witnesses(n)
            assert _baillie_psw(n) == expected, n
            assert is_prime(n) == expected, n
            if expected:
                break
            n += 2


@pytest.mark.parametrize(
    "n", BASE2_STRONG_PSEUDOPRIMES + tuple(2**p - 1 for p in COMPOSITE_MERSENNE_EXPONENTS))
def test_rejects_base2_strong_pseudoprimes(n):
    assert _miller_rabin(n, 2)
    assert not helpers.is_prime_fixed_witnesses(n)
    assert not _baillie_psw(n)
    assert not is_prime(n)


def chernick_numbers(k_start, count):
    """(6k+1)(12k+1)(18k+1) with all three factors prime, k >= k_start."""
    found = []
    for k in itertools.count(k_start):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(helpers.is_prime_fixed_witnesses(f) for f in factors):
            found.append(factors[0] * factors[1] * factors[2])
            if len(found) == count:
                return found


@pytest.mark.parametrize("k_start", (1, 10**8, 2**40))
def test_rejects_chernick_carmichael_numbers(k_start):
    numbers = chernick_numbers(k_start, 5)
    if k_start == 1:
        assert numbers[0] == 1729
    else:
        assert min(numbers) >= _MR_DETERMINISTIC_BOUND
    for n in numbers:
        assert not _baillie_psw(n), n
        assert not is_prime(n), n


# 1093 and 3511 are the Wieferich primes: their squares are base-2 strong
# pseudoprimes, so only the Lucas half can reject them.  2^128 - 159 is the
# largest 128-bit prime.
@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 101, 1093, 3511, 2**128 - 159))
def test_rejects_prime_squares(p):
    assert helpers.is_prime_fixed_witnesses(p)
    assert not _strong_lucas(p * p)
    assert not _baillie_psw(p * p)
    assert not is_prime(p * p)


def test_square_of_wieferich_prime_passes_base2_round():
    assert _miller_rabin(1093**2, 2) and _miller_rabin(3511**2, 2)


@pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES)
def test_strong_lucas_pseudoprimes_pass_lucas_half_only(n):
    assert not helpers.trial_division_prime(n)
    assert _strong_lucas(n)
    assert not _baillie_psw(n)
    assert not is_prime(n)


def test_jacobi_matches_euler_criterion_and_is_multiplicative():
    odd_primes = [p for p in range(3, 100) if helpers.trial_division_prime(p)]
    for p in odd_primes:
        for a in range(-2 * p, 2 * p):
            euler = pow(a, (p - 1) // 2, p)
            assert _jacobi(a, p) == {0: 0, 1: 1, p - 1: -1}[euler]
    for m, n in itertools.product((1, 9, 15, 21, 35), odd_primes[:8]):
        for a in range(-40, 40):
            assert _jacobi(a, m * n) == _jacobi(a, m) * _jacobi(a, n)


@pytest.mark.parametrize("p", (2**61 - 1, 2**64 - 59, 2**127 - 1, 2**256 - 189, 2**521 - 1))
def test_accepts_known_large_primes(p):
    assert _baillie_psw(p)
    assert is_prime(p)
