"""Primality testing of arbitrary-precision integers.

`is_prime` is a proof below 3.3·10^24: there, Miller-Rabin with the first
twelve primes as witnesses has no pseudoprime.  At and above that bound it
is the Baillie-PSW test (Baillie-Wagstaff 1980): one strong Miller-Rabin
round to base 2 and one strong Lucas test with Selfridge's parameters.  No
composite is known to pass it, and unlike a fixed set of Miller-Rabin
witnesses it cannot be fooled by a composite built for those witnesses.
"""

from __future__ import annotations

import functools
import math

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)

# Witnesses proving primality for every n < 3_317_044_064_679_887_385_961_981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def _miller_rabin(n: int, witness: int) -> bool:
    """Strong probable-prime test of an odd n > 2 to one base."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(witness, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for an odd n > 0, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 2, Selfridge's method A.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = d·2^s, d odd, n passes when U_d = 0 or
    V_(d·2^r) = 0 (mod n) for some r < s.  A square has no such D, so it
    is rejected before the search.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            # D shares a factor with n; every smaller |D| was coprime to n,
            # so n is prime exactly when it is |D| itself
            return abs(D) == n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k, Q^k for k the bits of d read so far, from k = 1 (P = 1)
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # U_(k+1) = (U_k + V_k)/2 and V_(k+1) = (D U_k + V_k)/2; halving
            # mod n adds n to an odd value first
            U, V = U + V, (D * U + V) % n
            U, V = (U + (U & 1) * n) // 2 % n, (V + (V & 1) * n) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _baillie_psw(n: int) -> bool:
    """Baillie-PSW: a strong base-2 Miller-Rabin round, then a strong Lucas test."""
    if n < 3 or n % 2 == 0:
        return n == 2
    return _miller_rabin(n, 2) and _strong_lucas(n)


@functools.lru_cache(maxsize=8)
def is_prime(n: int) -> bool:
    """True iff n is prime: a proof below 3.3·10^24, Baillie-PSW above.

    Trial division by the primes below 200 comes first.  Below the bound,
    Miller-Rabin to the first twelve prime bases decides every n exactly.
    From the bound on, Baillie-PSW decides; no composite is known to pass
    it.  The last few answers are kept, so a number checked at two
    boundaries, such as a q that both the group and the field's
    irreducibility test check, costs one test.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_DETERMINISTIC_BOUND:
        return _baillie_psw(n)
    return all(_miller_rabin(n, w) for w in _MR_WITNESSES)

