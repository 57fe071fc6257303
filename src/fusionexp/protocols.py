"""Demonstration cryptosystems over tuple exponentiation.

Diffie-Hellman key agreement, ElGamal encryption, and Feldman-style
verifiable secret sharing, each phrased over a tuple base and exponents in
GF(q^n).  At n = 1 they collapse to the textbook scalar constructions.
Verifiable sharing is two steps, the dealer's vss_split and a holder's
vss_check; vss_deal and vss_verify keep a sharing in a VssDealing.  Secrets
and nonces are drawn from a caller-supplied random.Random so every run is
reproducible.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterable, Sequence

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
    fe_zero,
)
from .fusion import (
    FusionBase,
    fb_inv,
    fb_mul,
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


@functools.cache
def _vss_dealing_type() -> type:
    """The VssDealing class, made on first use.

    Still a frozen dataclass, unlike the other values, so
    `dataclasses.replace` can swap in a corrupted share; made lazily so that
    importing the package does not import `dataclasses`, and only callers
    of vss_deal make it (the CLI shares through vss_split).  Reached as
    `protocols.VssDealing` through the module `__getattr__`, which is where
    pickle looks it up.
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class VssDealing:
        """Shares of a secret plus public commitments to the sharing polynomial."""

        threshold: int
        share_count: int
        base: FusionBase
        shares: tuple[VssShare, ...]
        commitments: tuple[FusionBase, ...]

    VssDealing.__qualname__ = "VssDealing"  # its __module__ is already this one
    return VssDealing


def __getattr__(name: str):
    if name == "VssDealing":
        return _vss_dealing_type()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    if is_identity(their_public):
        raise IdentityBase("peer public key must not be the identity")
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
    if is_identity(base) or is_identity(pk):
        raise IdentityBase("base and public key must not be the identity")
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
    """Evaluation point for share j: the base-q digit vector of j.

    j must lie in [1, q^n): 0 gives the point of the secret itself, and an
    index outside the range would alias the point of j mod q^n.
    """
    if not 1 <= j < field_params.field_order:
        raise ValueError(f"share index {j} outside [1, {field_params.field_order})")
    return fe_from_int(field_params, j)


def _poly_eval(coeffs: Sequence[FieldElement], x: FieldElement) -> FieldElement:
    acc = fe_zero(x.params)
    for c in reversed(coeffs):
        acc = fe_add(fe_mul(acc, x), c)
    return acc


def vss_split(
    secret: FieldElement,
    t: int,
    m: int,
    base: FusionBase,
    rng: random.Random,
) -> tuple[tuple[VssShare, ...], tuple[FusionBase, ...]]:
    """The dealer's step: m shares of a secret with threshold t, and the commitments.

    The sharing polynomial has degree t-1 with constant term the secret;
    commitment i is base raised to coefficient i, which lets any holder
    check a share (vss_check) without learning the secret.
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
    return shares, tuple(fusion_pow(base, c) for c in coeffs)


def vss_deal(
    secret: FieldElement,
    t: int,
    m: int,
    base: FusionBase,
    rng: random.Random,
) -> VssDealing:
    """vss_split, with its shares and commitments kept in a VssDealing."""
    return _vss_dealing_type()(t, m, base, *vss_split(secret, t, m, base, rng))


def vss_check(base: FusionBase, commitments: Sequence[FusionBase], share: VssShare) -> bool:
    """The holder's step: check one share against the commitments.

    base**share_j must equal the product over i of commitment_i raised to
    alpha_j**i, by the homomorphism base**(a+b) = base**a * base**b.
    """
    if not commitments:
        raise ValueError("no commitments to check a share against")
    alpha = share_point(share.value.params, share.index)
    lhs = fusion_pow(base, share.value)
    rhs = commitments[0]
    for i in range(1, len(commitments)):
        rhs = fb_mul(rhs, fusion_pow(commitments[i], fe_pow(alpha, i)))
    return lhs == rhs


def vss_verify(dealing: VssDealing, j: int) -> bool:
    """Check share j of a dealing against its commitments (vss_check)."""
    share = next((s for s in dealing.shares if s.index == j), None)
    if share is None:
        raise ValueError(f"no share with index {j}")
    return vss_check(dealing.base, dealing.commitments, share)


def vss_verify_all(dealing: VssDealing) -> None:
    """Raise VerifyFailed naming the first corrupted share, if any."""
    for share in dealing.shares:
        if not vss_check(dealing.base, dealing.commitments, share):
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
