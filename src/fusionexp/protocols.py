"""Demonstration cryptosystems over tuple exponentiation.

Diffie-Hellman key agreement, ElGamal encryption, and Feldman-style
verifiable secret sharing, each phrased over a tuple base and exponents in
GF(q^n).  At n = 1 they collapse to the textbook scalar constructions.
Secrets and nonces are drawn from a caller-supplied random.Random so every
run is reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import BadThreshold, IdentityBase, ParamsMismatch, VerifyFailed
from .field import (
    FieldElement,
    fe_add,
    fe_from_int,
    fe_inv,
    fe_mul,
    fe_pow,
    fe_random,
    fe_sub,
    fe_to_json,
    fe_zero,
)
from .fusion import (
    FusionBase,
    fb_inv,
    fb_mul,
    fusion_base_to_json,
    fusion_pow,
    is_identity,
)
from .value import Value


class FusionKeyPair(Value):
    __slots__ = ("secret", "public")

    def __init__(self, secret: FieldElement, public: FusionBase):
        object.__setattr__(self, "secret", secret)
        object.__setattr__(self, "public", public)


class ElGamalCiphertext(Value):
    __slots__ = ("c1", "c2")

    def __init__(self, c1: FusionBase, c2: FusionBase):
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)


class VssShare(Value):
    __slots__ = ("index", "value")

    def __init__(self, index: int, value: FieldElement):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class VssDealing:
    """Shares of a secret plus public commitments to the sharing polynomial.

    Still a dataclass, unlike the other values, so `dataclasses.replace`
    can swap in a corrupted share.
    """

    threshold: int
    share_count: int
    base: FusionBase
    shares: tuple[VssShare, ...]
    commitments: tuple[FusionBase, ...]


# ---------------------------------------------------------------------------
# Diffie-Hellman key agreement
# ---------------------------------------------------------------------------


def fdh_keygen(base: FusionBase, rng: random.Random) -> FusionKeyPair:
    """Nonzero secret exponent and the matching public tuple."""
    if is_identity(base):
        raise IdentityBase("system base must not be the identity")
    secret = fe_random(base.field, rng, nonzero=True)
    return FusionKeyPair(secret=secret, public=fusion_pow(base, secret))


def fdh_shared(my: FusionKeyPair, their_public: FusionBase) -> FusionBase:
    """Both sides arrive at base**(x1*x2) by commutativity of the exponent field."""
    return fusion_pow(their_public, my.secret)


# ---------------------------------------------------------------------------
# ElGamal encryption (messages are tuple elements; no encoding layer)
# ---------------------------------------------------------------------------


def felgamal_keygen(base: FusionBase, rng: random.Random) -> FusionKeyPair:
    return fdh_keygen(base, rng)


def felgamal_encrypt(
    base: FusionBase, pk: FusionBase, msg: FusionBase, rng: random.Random
) -> ElGamalCiphertext:
    if msg.group != base.group or msg.field != base.field:
        raise ParamsMismatch("message from a different parameter set")
    k = fe_random(base.field, rng, nonzero=True)
    return ElGamalCiphertext(
        c1=fusion_pow(base, k),
        c2=fb_mul(msg, fusion_pow(pk, k)),
    )


def felgamal_decrypt(sk: FieldElement, ct: ElGamalCiphertext) -> FusionBase:
    return fb_mul(ct.c2, fb_inv(fusion_pow(ct.c1, sk)))


# ---------------------------------------------------------------------------
# Feldman-style verifiable secret sharing over GF(q^n)
# ---------------------------------------------------------------------------


def share_point(field_params, j: int) -> FieldElement:
    """Evaluation point for share j: the base-q digit vector of j (nonzero for j >= 1)."""
    return fe_from_int(field_params, j)


def _poly_eval(coeffs: Sequence[FieldElement], x: FieldElement) -> FieldElement:
    acc = fe_zero(x.params)
    for c in reversed(coeffs):
        acc = fe_add(fe_mul(acc, x), c)
    return acc


def vss_deal(
    secret: FieldElement,
    t: int,
    m: int,
    base: FusionBase,
    rng: random.Random,
) -> VssDealing:
    """Split a secret into m shares with threshold t and commit to the polynomial.

    The sharing polynomial has degree t-1 with constant term the secret;
    commitment i is base raised to coefficient i, which lets any holder
    check a share without learning the secret.
    """
    fld = secret.params
    if base.field != fld:
        raise ParamsMismatch("base and secret from different parameter sets")
    if is_identity(base):
        raise IdentityBase("commitment base must not be the identity")
    if not 1 <= t <= m:
        raise BadThreshold(f"need 1 <= t <= m, got t={t}, m={m}")
    if m > fld.field_order - 1:
        raise BadThreshold(f"at most {fld.field_order - 1} distinct share points exist")
    coeffs = [secret] + [fe_random(fld, rng) for _ in range(t - 1)]
    shares = tuple(
        VssShare(index=j, value=_poly_eval(coeffs, share_point(fld, j)))
        for j in range(1, m + 1)
    )
    commitments = tuple(fusion_pow(base, c) for c in coeffs)
    return VssDealing(
        threshold=t, share_count=m, base=base, shares=shares, commitments=commitments
    )


def vss_verify(dealing: VssDealing, j: int) -> bool:
    """Check share j against the commitments.

    base**share_j must equal the product over i of commitment_i raised to
    alpha_j**i, by the homomorphism base**(a+b) = base**a * base**b.
    """
    share = next((s for s in dealing.shares if s.index == j), None)
    if share is None:
        raise ValueError(f"no share with index {j}")
    fld = share.value.params
    alpha = share_point(fld, j)
    lhs = fusion_pow(dealing.base, share.value)
    rhs = dealing.commitments[0]
    for i in range(1, len(dealing.commitments)):
        rhs = fb_mul(rhs, fusion_pow(dealing.commitments[i], fe_pow(alpha, i)))
    return lhs == rhs


def vss_verify_all(dealing: VssDealing) -> None:
    """Raise VerifyFailed naming the first corrupted share, if any."""
    for share in dealing.shares:
        if not vss_verify(dealing, share.index):
            raise VerifyFailed(share.index)


def vss_reconstruct(shares: Iterable[VssShare]) -> FieldElement:
    """Recover the secret by Lagrange interpolation at zero."""
    shares = list(shares)
    if not shares:
        raise BadThreshold("no shares given")
    if len({s.index for s in shares}) != len(shares):
        raise ValueError("duplicate share indices")
    fld = shares[0].value.params
    points = [(share_point(fld, s.index), s.value) for s in shares]
    acc = fe_zero(fld)
    for alpha_j, value in points:
        num = None
        den = None
        for alpha_l, _ in points:
            if alpha_l == alpha_j:
                continue
            num = alpha_l if num is None else fe_mul(num, alpha_l)
            diff = fe_sub(alpha_l, alpha_j)
            den = diff if den is None else fe_mul(den, diff)
        term = value
        if num is not None:
            term = fe_mul(term, fe_mul(num, fe_inv(den)))
        acc = fe_add(acc, term)
    return acc


# ---------------------------------------------------------------------------
# JSON interchange for demo transcripts
# ---------------------------------------------------------------------------


def ciphertext_to_json(ct: ElGamalCiphertext) -> dict:
    return {"c1": fusion_base_to_json(ct.c1), "c2": fusion_base_to_json(ct.c2)}


def dealing_to_json(dealing: VssDealing) -> dict:
    return {
        "threshold": dealing.threshold,
        "share_count": dealing.share_count,
        "base": fusion_base_to_json(dealing.base),
        "shares": [
            {"index": s.index, "value": fe_to_json(s.value)} for s in dealing.shares
        ],
        "commitments": [fusion_base_to_json(c) for c in dealing.commitments],
    }
