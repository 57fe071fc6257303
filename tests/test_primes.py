"""Primality: the Baillie-PSW routine and is_prime against trial division and
the fixed-witness Miller-Rabin oracle, and against composites built to fool
weaker tests."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionexp.primes
import helpers
from fusionexp.primes import (
    _MR_DETERMINISTIC_BOUND,
    _MR_WITNESSES,
    _baillie_psw,
    _has_small_factor,
    jacobi,
    may_be_safe_prime,
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
# composites with U_(n+1) = 0 mod n for those parameters that the strong
# test refuses: the first Lucas pseudoprimes (OEIS A217120) not in A217255
LUCAS_PSEUDOPRIMES = (323, 377, 1159, 1829, 3827)
# the least strong pseudoprimes to the first twelve and the first thirteen
# prime bases, psi_12 and psi_13 (Sorenson-Webster, Math. Comp. 2017)
PSI_12 = 318_665_857_834_031_151_167_461
PSI_13 = 3_317_044_064_679_887_385_961_981


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


@pytest.mark.parametrize("n", BASE2_STRONG_PSEUDOPRIMES + (PSI_12, PSI_13) + tuple(
    2**p - 1 for p in COMPOSITE_MERSENNE_EXPONENTS))
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


def test_the_witnesses_reach_the_least_pseudoprime_to_the_first_twelve():
    # psi_12 passes the rounds to 2 .. 37 and fails only the one to 41;
    # psi_13, the bound, passes all thirteen and is left to Baillie-PSW
    assert PSI_12 == 399_165_290_221 * 798_330_580_441
    assert PSI_13 == 1_287_836_182_261 * 2_575_672_364_521 == _MR_DETERMINISTIC_BOUND
    assert [_miller_rabin(PSI_12, w) for w in _MR_WITNESSES] == [True] * 12 + [False]
    assert all(_miller_rabin(PSI_13, w) for w in _MR_WITNESSES)


def test_a_failing_strong_round_squares_s_minus_1_times():
    # n - 1 = d * 2^s with d odd: no square past w^(d * 2^(s-1)) can be n - 1,
    # as that would make every prime factor of n, and so n, 1 mod 2^(s+1); a
    # round that fails has made exactly those s - 1 squarings
    failed = 0
    for n in range(9, 3000, 2):
        s = ((n - 1) & (1 - n)).bit_length() - 1
        helpers.CountingModulus.reductions = 0
        if not _miller_rabin(helpers.CountingModulus(n), 2):
            assert helpers.CountingModulus.reductions == s - 1, n
            failed += s > 1
    assert failed > 100


def test_square_of_wieferich_prime_passes_base2_round():
    assert _miller_rabin(1093**2, 2) and _miller_rabin(3511**2, 2)


@pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES)
def test_strong_lucas_pseudoprimes_pass_lucas_half_only(n):
    assert not helpers.trial_division_prime(n)
    assert _strong_lucas(n)
    assert not _baillie_psw(n)
    assert not is_prime(n)


def selfridge(n):
    """(D, Q, d, s) of the strong Lucas test of n: n + 1 = d * 2^s, d odd;
    None when a D shares a factor with n first."""
    D = 5
    while jacobi(D, n) != -1:
        if math.gcd(D, n) > 1:
            return None
        D = -D - 2 if D > 0 else -D + 2
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return D, (1 - D) // 4, d, s


@pytest.mark.parametrize("n", LUCAS_PSEUDOPRIMES)
def test_strong_lucas_refuses_plain_lucas_pseudoprimes(n):
    # U_(n+1) = 0 mod n by the recurrence U_(k+1) = U_k - Q U_(k-1), so only
    # the strong test's split of n + 1 into d * 2^s refuses n
    _, Q, _, _ = selfridge(n)
    u, u_next = 0, 1
    for _ in range(n + 1):
        u, u_next = u_next, (u_next - Q * u) % n
    assert u == 0
    assert not _strong_lucas(n)


def test_a_failing_strong_lucas_test_squares_v_s_minus_1_times():
    # n + 1 = d * 2^s with d odd: no V past V_(d * 2^(s-1)) can be 0 mod n,
    # as that would make n = -1 mod 2^(s+1), so a test that fails has made
    # s - 1 squarings of V, two reductions mod n each.  Before them: one
    # reduction per Jacobi symbol taken, one of Q, three per bit of d after
    # the first and three more per set bit
    failed = 0
    for n in range(9, 3000, 2):
        spec = selfridge(n)
        if helpers.trial_division_prime(n) or math.isqrt(n) ** 2 == n or spec is None:
            continue
        D, _, d, s = spec
        bits = bin(d)[3:]
        symbols = (abs(D) - 5) // 2 + 1
        helpers.CountingModulus.reductions = 0
        if not _strong_lucas(helpers.CountingModulus(n)):
            steps = symbols + 1 + 3 * len(bits) + 3 * bits.count("1")
            assert helpers.CountingModulus.reductions == steps + 2 * (s - 1), n
            failed += s > 1
    assert failed > 100


def test_jacobi_matches_euler_criterion_and_is_multiplicative():
    odd_primes = [p for p in range(3, 100) if helpers.trial_division_prime(p)]
    for p in odd_primes:
        for a in range(-2 * p, 2 * p):
            euler = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) == {0: 0, 1: 1, p - 1: -1}[euler]
    for m, n in itertools.product((1, 9, 15, 21, 35), odd_primes[:8]):
        for a in range(-40, 40):
            assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)


@pytest.mark.parametrize("p", (2**61 - 1, 2**64 - 59, 2**127 - 1, 2**256 - 189, 2**521 - 1))
def test_accepts_known_large_primes(p):
    assert _baillie_psw(p)
    assert is_prime(p)


def test_safe_prime_sieve_is_exact_below_2_16():
    # every pair with q and 2q + 1 prime passes, and no other odd q.  Here
    # the sieves alone decide, with no base-2 round failing: a composite
    # below 2^17 has a prime factor below 363, a 2q + 1 below 8,194 one
    # below 200, and from q = 4,097 on the sieve to 4,096 sees every prime
    # up to 362.  The range spans both sieve edges: the word-sized one from
    # q = 15 on, the one to 4,096 from q = 4,097
    for q in range(3, 1 << 16, 2):
        expected = helpers.trial_division_prime(q) and helpers.trial_division_prime(2 * q + 1)
        assert may_be_safe_prime(q) == expected, q


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_safe_prime_sieves_add_only_the_primes_to_4096(monkeypatch, bits):
    # against the filter with the sieve below 200 alone: the word-sized
    # pre-sieve drops nothing that sieve would pass, and the sieve to 4,096
    # drops exactly the q with a prime factor in (200, 4096] on q(2q + 1).
    # Each later step runs on exactly the q that pass the sieves before it:
    # the sieve below 200 after the primes to 13, the base-2 rounds after
    # the primes to 4,096
    odd_primes = [p for p in range(3, 4097, 2) if helpers.trial_division_prime(p)]
    beyond_200 = [p for p in odd_primes if p > 200]
    calls = []

    def counting(step):
        def counted(*args):
            calls.append(step)
            return step(*args)
        return counted

    monkeypatch.setattr(fusionexp.primes, "_has_small_factor", counting(_has_small_factor))
    monkeypatch.setattr(fusionexp.primes, "_miller_rabin", counting(_miller_rabin))
    rng = random.Random(bits)
    for _ in range(20_000):
        q = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        modulus = 2 * q + 1

        def clear(primes):
            return all(q % p and modulus % p for p in primes)

        calls.clear()
        got = may_be_safe_prime(q)
        assert got == (helpers.safe_prime_filter_below_200(q) and clear(beyond_200)), q
        assert (_has_small_factor in calls) == clear((3, 5, 7, 11, 13)), q
        assert (_miller_rabin in calls) == clear(odd_primes), q
