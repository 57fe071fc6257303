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
    `dataclasses.replace` can swap in a corrupted share.  Its counts must
    agree, 1 <= threshold <= share_count with threshold commitments and
    share_count shares, or BadThreshold is raised, under `replace` too.
    Made lazily so that importing the package does not import
    `dataclasses`, and only callers of vss_deal make it (the CLI shares
    through vss_split).  Reached as
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

        def __post_init__(self):
            t, m = self.threshold, self.share_count
            if not (1 <= t <= m and len(self.commitments) == t and len(self.shares) == m):
                raise BadThreshold(
                    f"need 1 <= t <= m, t commitments and m shares; got t={t}, m={m},"
                    f" {len(self.commitments)} commitments, {len(self.shares)} shares"
                )

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
    """Nonzero secret exponent and the matching public tuple.

    The base's components lie in the order-q subgroup, as every
    GroupElement does, so its exponents are read mod q and the two sides
    of an agreement agree.
    """
    if is_identity(base):
        raise IdentityBase("system base must not be the identity")
    secret = fe_random(base.field, rng, nonzero=True)
    return FusionKeyPair(secret=secret, public=fusion_pow(base, secret))


def fdh_shared(my: FusionKeyPair, their_public: FusionBase) -> FusionBase:
    """Both sides arrive at base**(x1*x2) by commutativity of the exponent field.

    A peer key from another group raises ParamsMismatch here, one from
    another field in fusion_pow.
    """
    if their_public.group != my.public.group:
        raise ParamsMismatch("peer public key from a different group")
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
        acc = fe_add(fe_mul(x, acc), c)  # a share point first: fe_mul skips its zeros
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
    check a share (vss_check) without learning the secret.  The base's
    components lie in the order-q subgroup, as every GroupElement does,
    so an honest dealing's shares pass that check.
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
    """Raise VerifyFailed naming the first corrupted share, if any.

    With t commitments, the polynomial p' of degree < t through the first t
    shares is interpolated in the field; when every later share lies on p'
    and base**c'_i equals commitment C_i for each coefficient c'_i of p',
    every share passes vss_check, so the call returns after t powers of
    the base instead of checking the m shares one by one.  Proof: each
    component of the base has order dividing q (it is a GroupElement), so
    the exponent laws give
    prod_i C_i**(alpha_j**i) = base**(sum_i c'_i alpha_j**i) = base**p'(alpha_j)
    = base**s_j, which is vss_check's equation.  In every other case (a
    share off p', a commitment that differs, or a dealing the check cannot
    read) the shares are checked one by one, so the outcome is that of the
    per-share loop: a return, VerifyFailed naming the first failing share,
    or its exception.
    """
    if _commitments_fit_shares(dealing):
        return
    for share in dealing.shares:
        if not vss_check(dealing.base, dealing.commitments, share):
            raise VerifyFailed(share.index)


def _commitments_fit_shares(dealing: VssDealing) -> bool:
    """vss_verify_all's check of every share at once; False when it fails or does not apply.

    The preconditions are read without raising, so that a dealing the
    per-share loop rejects is rejected there, at the share it names; an
    exception past them is a fault of the arithmetic and is not caught.
    The dealing itself holds 1 <= t <= m (VssDealing).
    """
    base, shares, commitments = dealing.base, dealing.shares, dealing.commitments
    fld, t = base.field, len(commitments)
    order = fld.field_order
    if not (
        all(
            isinstance(s.index, int)
            and 1 <= s.index < order
            and isinstance(s.value, FieldElement)
            and s.value.params == fld
            for s in shares
        )
        and len({s.index for s in shares[:t]}) == t
    ):
        return False
    points = [share_point(fld, s.index) for s in shares]
    coeffs = _interpolate(points[:t], [s.value for s in shares[:t]])
    return all(
        _poly_eval(coeffs, x) == s.value for x, s in zip(points[t:], shares[t:])
    ) and all(fusion_pow(base, c) == com for c, com in zip(coeffs, commitments))


def _interpolate(
    points: Sequence[FieldElement], values: Sequence[FieldElement]
) -> list[FieldElement]:
    """Coefficients, constant first, of the polynomial of degree < len(points)
    through the (point, value) pairs; the points must be distinct.

    Newton's divided differences d_k, then p = d_0 + (X - x_0)(d_1 + ...)
    expanded from the inside out.  Share points below q are constants, so
    each product and inverse with one costs little.
    """
    d = list(values)
    for k in range(1, len(d)):
        for i in range(len(d) - 1, k - 1, -1):
            d[i] = fe_mul(fe_inv(fe_sub(points[i], points[i - k])), fe_sub(d[i], d[i - 1]))
    coeffs = [d[-1]]
    for x, dk in zip(reversed(points[:-1]), reversed(d[:-1])):
        # coeffs * (X - x) + dk
        shifted = [dk] + coeffs
        coeffs = [fe_sub(high, fe_mul(x, low)) for high, low in zip(shifted, coeffs)]
        coeffs.append(shifted[-1])
    return coeffs


def vss_reconstruct(shares: Iterable[VssShare]) -> FieldElement:
    """Recover the secret: the constant term of the polynomial through the shares."""
    shares = list(shares)
    if not shares:
        raise BadThreshold("no shares given")
    if len({s.index for s in shares}) != len(shares):
        raise ValueError("duplicate share indices")
    fld = shares[0].value.params
    return _interpolate([share_point(fld, s.index) for s in shares], [s.value for s in shares])[0]
