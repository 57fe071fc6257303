"""Arbitrary-precision integers: primality testing and the decimal form of
every integer in the JSON interchange format."""

from __future__ import annotations

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)

# Witnesses proving primality for every n < 3_317_044_064_679_887_385_961_981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

# Extra fixed witnesses used above the deterministic bound; the test is then
# probabilistic with error < 4**-28 per composite, which is ample for
# self-generated parameters.
_MR_EXTRA = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107)


def _miller_rabin(n: int, witness: int) -> bool:
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


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test with a fixed witness set.

    Deterministic for n below ~3.3e24; above that the witness set is fixed
    but the answer is (overwhelmingly) probabilistic.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    witnesses = _MR_WITNESSES
    if n >= _MR_DETERMINISTIC_BOUND:
        witnesses = _MR_WITNESSES + _MR_EXTRA
    return all(_miller_rabin(n, w) for w in witnesses)


def parse_decimal(text: str) -> int:
    """Non-negative integer from a decimal string of ASCII digits only.

    The interchange format writes every integer as str(value), so a sign,
    whitespace, an underscore or a non-ASCII digit (all of which int()
    would take) is a ValueError here.
    """
    if not (isinstance(text, str) and text.isascii() and text.isdigit()):
        raise ValueError(f"expected a decimal string of ASCII digits, got {text!r}")
    return int(text)
