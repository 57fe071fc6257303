"""The prime-order group: the order-q subgroup of the units modulo a safe prime.

Parameters are generated in the safe-prime shape P = 2q + 1, so the
quadratic residues form the subgroup of prime order q.  Only multiplication,
inversion, and exponentiation are used elsewhere, keeping the group a
swappable black box.
"""

from __future__ import annotations

import math
import random

from .errors import NotPrime, ParamsMismatch, SearchExhausted
from .primes import is_prime
from .value import Value

MAX_DRAWS = 500_000


class GroupParams(Value):
    """Prime modulus P, subgroup order q dividing P-1, and a generator of order q.

    q is tested first.  P is then proven prime by Pocklington's criterion
    (Brillhart-Lehmer-Selfridge 1975) when q^2 > P, q divides P-1, g lies in
    (1, P), g^q = 1 and gcd(g^((P-1)/q) - 1, P) = 1: every prime factor p of
    P then has q dividing p-1, so p > q > sqrt(P).  Otherwise `is_prime(P)`
    decides, before any ValueError, so a composite P raises NotPrime.
    """

    __slots__ = ("modulus", "q", "generator")

    def __init__(self, modulus: int, q: int, generator: int):
        if not is_prime(q):
            raise NotPrime(f"subgroup order {q} is not prime")
        divides = (modulus - 1) % q == 0
        in_range = 1 < generator < modulus
        has_order_q = in_range and pow(generator, q, modulus) == 1
        proven = (
            q * q > modulus
            and divides
            and has_order_q
            and math.gcd(pow(generator, (modulus - 1) // q, modulus) - 1, modulus) == 1
        )
        if not proven and not is_prime(modulus):
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
    """Residue in [1, P); `group_element` also checks subgroup membership."""

    __slots__ = ("params", "residue")

    def __init__(self, params: GroupParams, residue: int):
        if not 1 <= residue < params.modulus:
            raise ValueError(f"residue {residue} out of range")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "residue", residue)


def identity(params: GroupParams) -> GroupElement:
    return GroupElement(params, 1)


def generator_element(params: GroupParams) -> GroupElement:
    return GroupElement(params, params.generator)


def group_element(params: GroupParams, residue: int) -> GroupElement:
    """Checked constructor: residue must lie in the order-q subgroup."""
    elem = GroupElement(params, residue)
    if pow(residue, params.q, params.modulus) != 1:
        raise ValueError(f"residue {residue} is not in the order-{params.q} subgroup")
    return elem


def gen_group_params(q_bits: int, seed: int) -> GroupParams:
    """Seeded search for a safe-prime group with a q_bits-bit subgroup order.

    Draws random odd q of the requested size until both q and P = 2q + 1
    are prime, then takes the square of the smallest h >= 2 as generator
    (a quadratic residue, hence of order q).  Deterministic per seed;
    SearchExhausted after MAX_DRAWS draws.
    """
    if q_bits < 4:
        raise ValueError(f"q_bits must be >= 4, got {q_bits}")
    rng = random.Random(seed)
    for _ in range(MAX_DRAWS):
        q = rng.randrange(1 << (q_bits - 1), 1 << q_bits) | 1
        if not is_prime(q):
            continue
        modulus = 2 * q + 1
        if not is_prime(modulus):
            continue
        h = 2
        while pow(h, 2, modulus) == 1:
            h += 1
        return GroupParams(modulus=modulus, q=q, generator=h * h % modulus)
    raise SearchExhausted(f"no {q_bits}-bit safe-prime group found in {MAX_DRAWS} draws")


def _check_same_params(a: GroupElement, b: GroupElement) -> None:
    if a.params != b.params:
        raise ParamsMismatch("group elements from different parameter sets")


def g_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    _check_same_params(a, b)
    return GroupElement(a.params, a.residue * b.residue % a.params.modulus)


def g_inv(a: GroupElement) -> GroupElement:
    return GroupElement(a.params, pow(a.residue, -1, a.params.modulus))


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
    return GroupElement(base.params, pow_sm(base.residue, e, base.params.modulus))
