"""The prime-order group: the order-q subgroup of the units modulo a safe prime.

Parameters are generated in the safe-prime shape P = 2q + 1, so the
quadratic residues form the subgroup of prime order q.  Only multiplication,
inversion, and exponentiation are used elsewhere, keeping the group a
swappable black box.
"""

from __future__ import annotations

import random

from .errors import NotPrime, ParamsMismatch, SearchExhausted
from .primes import is_prime, jacobi, may_be_safe_prime
from .value import Value

MAX_DRAWS = 500_000


class GroupParams(Value):
    """Prime modulus P, subgroup order q dividing P-1, and a generator of order q.

    q is tested first.  P is then proven prime by Pocklington's criterion
    (Brillhart-Lehmer-Selfridge 1975) when q^2 > P, q divides P-1, g lies in
    (1, P) and g^q = 1.  Proof: g is not 1 modulo some prime power p^e
    exactly dividing P, so g has the prime order q modulo p^e; q does not
    divide P, so q divides p - 1, and p > q > sqrt(P).  Then P = p*m with
    m < q and m = 1 mod q, so m = 1.  Otherwise `is_prime(P)` decides,
    before any ValueError, so a composite P raises NotPrime.
    """

    __slots__ = ("modulus", "q", "generator")

    def __init__(self, modulus: int, q: int, generator: int):
        if not is_prime(q):
            raise NotPrime(f"subgroup order {q} is not prime")
        divides = (modulus - 1) % q == 0
        in_range = 1 < generator < modulus
        has_order_q = in_range and pow(generator, q, modulus) == 1
        if not (q * q > modulus and divides and has_order_q) and not is_prime(modulus):
            raise NotPrime(f"modulus {modulus} is not prime")
        if not divides:
            raise ValueError("subgroup order must divide modulus - 1")
        if not in_range:
            raise ValueError("generator out of range")
        if not has_order_q:
            raise ValueError("generator does not have the subgroup order")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "generator", generator)


class GroupElement(Value):
    """Residue in [1, P) that lies in the order-q subgroup, else ValueError.

    The constructor checks a residue from outside, the range first.  When
    P = 2q + 1 the subgroup is the quadratic residues, so membership is the
    Legendre symbol (r/P) = 1, by reciprocity at a fraction of the cost of
    r^q at large P (about 32 against 120 us at 256 bits); for any other
    P = kq + 1 it is r^q = 1.  Results that are members by construction (a
    product, inverse or power of members, the generator, the identity) are
    built by `GroupElement.unchecked`, which skips the check.
    """

    __slots__ = ("params", "residue")

    def __init__(self, params: GroupParams, residue: int):
        P, q = params.modulus, params.q
        if not 1 <= residue < P:
            raise ValueError(f"residue {residue} out of range")
        if jacobi(residue, P) != 1 if P == 2 * q + 1 else pow(residue, q, P) != 1:
            raise ValueError(f"residue {residue} is not in the order-{q} subgroup")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "residue", residue)


def identity(params: GroupParams) -> GroupElement:
    return GroupElement.unchecked(params, 1)


def generator_element(params: GroupParams) -> GroupElement:
    return GroupElement.unchecked(params, params.generator)


def gen_group_params(q_bits: int, seed: int) -> GroupParams:
    """Seeded search for a safe-prime group with a q_bits-bit subgroup order.

    Draws random odd q of the requested size until both q and P = 2q + 1
    are prime, then takes 4 = 2^2 as generator (a quadratic residue other
    than 1, as P >= 17, hence of order q).  A draw is tested cheapest
    first: `may_be_safe_prime` drops it when q or P has a prime factor
    other than itself up to 13 (one word-sized gcd), below 200, or, for
    q > 4096, up to 4096, or fails a strong base-2 round.  Only a draw
    that passes reaches GroupParams, which runs the full `is_prime(q)`
    and Pocklington's proof of P; a base-2 strong pseudoprime fails there
    and the search goes on.  Every prime pair passes the filter, so the
    draws and the result are those of testing is_prime(q) and is_prime(P)
    on every draw.  Deterministic per seed; SearchExhausted after
    MAX_DRAWS draws, filtered ones included.
    """
    if q_bits < 4:
        raise ValueError(f"q_bits must be >= 4, got {q_bits}")
    rng = random.Random(seed)
    for _ in range(MAX_DRAWS):
        q = rng.randrange(1 << (q_bits - 1), 1 << q_bits) | 1
        if not may_be_safe_prime(q):
            continue
        try:
            return GroupParams(modulus=2 * q + 1, q=q, generator=4)
        except NotPrime:
            continue
    raise SearchExhausted(f"no {q_bits}-bit safe-prime group found in {MAX_DRAWS} draws")


def _check_same_params(a: GroupElement, b: GroupElement) -> None:
    if a.params != b.params:
        raise ParamsMismatch("group elements from different parameter sets")


def g_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    _check_same_params(a, b)
    return GroupElement.unchecked(a.params, a.residue * b.residue % a.params.modulus)


def g_inv(a: GroupElement) -> GroupElement:
    return GroupElement.unchecked(a.params, pow(a.residue, -1, a.params.modulus))


def pow_sm(base: int, exp: int, modulus: int) -> int:
    """Left-to-right square and multiply; at most 2*bitlen(exp) multiplications."""
    if exp == 0:
        return 1 % modulus
    result = base % modulus
    for bit in bin(exp)[3:]:
        result = result * result % modulus
        if bit == "1":
            result = result * base % modulus
    return result


def g_pow(base: GroupElement, exp: int) -> GroupElement:
    """base**exp with the exponent reduced into [0, q)."""
    e = exp % base.params.q
    return GroupElement.unchecked(base.params, pow_sm(base.residue, e, base.params.modulus))
