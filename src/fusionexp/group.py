"""The prime-order group: the order-q subgroup of the units modulo a safe prime.

Parameters are generated in the safe-prime shape P = 2q + 1, so the
quadratic residues form the subgroup of prime order q.  Only multiplication,
inversion, and exponentiation are used elsewhere, keeping the group a
swappable black box.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import NotPrime, ParamsMismatch, SearchExhausted
from .primes import is_prime, parse_decimal


@dataclass(frozen=True)
class GroupParams:
    """Prime modulus P, subgroup order q dividing P-1, and a generator of order q."""

    modulus: int
    q: int
    generator: int

    def __post_init__(self):
        if not is_prime(self.modulus):
            raise NotPrime(f"modulus {self.modulus} is not prime")
        if not is_prime(self.q):
            raise NotPrime(f"subgroup order {self.q} is not prime")
        if (self.modulus - 1) % self.q != 0:
            raise ValueError("subgroup order must divide modulus - 1")
        if not 1 < self.generator < self.modulus:
            raise ValueError("generator out of range")
        if pow(self.generator, self.q, self.modulus) != 1:
            raise ValueError("generator does not have the subgroup order")


@dataclass(frozen=True)
class GroupElement:
    """Residue in [1, P); subgroup membership is enforced at deserialization."""

    params: GroupParams
    residue: int

    def __post_init__(self):
        if not 1 <= self.residue < self.params.modulus:
            raise ValueError(f"residue {self.residue} out of range")


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


def gen_group_params(q_bits: int, seed: int, max_tries: int = 500_000) -> GroupParams:
    """Seeded search for a safe-prime group with a q_bits-bit subgroup order.

    Draws random odd q of the requested size until both q and P = 2q + 1
    are prime, then takes the square of the smallest h >= 2 as generator
    (a quadratic residue, hence of order q).  Deterministic per seed.
    """
    if q_bits < 4:
        raise ValueError(f"q_bits must be >= 4, got {q_bits}")
    rng = random.Random(seed)
    for _ in range(max_tries):
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
    raise SearchExhausted(f"no {q_bits}-bit safe-prime group found in {max_tries} draws")


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


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def group_params_to_json(params: GroupParams) -> dict:
    return {
        "modulus": str(params.modulus),
        "q": str(params.q),
        "generator": str(params.generator),
    }


def group_params_from_json(obj: dict) -> GroupParams:
    return GroupParams(
        modulus=parse_decimal(obj["modulus"]),
        q=parse_decimal(obj["q"]),
        generator=parse_decimal(obj["generator"]),
    )


def group_element_to_json(a: GroupElement) -> str:
    return str(a.residue)


def group_element_from_json(params: GroupParams, data: str) -> GroupElement:
    return group_element(params, parse_decimal(data))
