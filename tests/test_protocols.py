import dataclasses
import itertools
import pickle
import random
from dataclasses import replace

import pytest

import helpers
from fusionexp import (
    BadThreshold,
    IdentityBase,
    VerifyFailed,
    VssShare,
    fb_identity,
    fb_mul,
    fdh_keygen,
    fdh_shared,
    fe,
    fe_add,
    fe_mul,
    fe_one,
    fe_random,
    felgamal_decrypt,
    felgamal_encrypt,
    felgamal_keygen,
    fusion_pow,
    generator_element,
    make_field_params,
    scalar_embed,
    unit_embed,
    vss_check,
    vss_deal,
    vss_reconstruct,
    vss_split,
    vss_verify,
    vss_verify_all,
)
from fusionexp import protocols
from fusionexp.protocols import share_point


def test_fdh_worked_example(g23, f121):
    base = unit_embed(generator_element(g23), f121)
    a = fe(f121, [3, 5])
    b = fe(f121, [2, 0])
    pub_a = fusion_pow(base, a)
    pub_b = fusion_pow(base, b)
    shared = fusion_pow(pub_b, a)
    assert shared == fusion_pow(pub_a, b)
    assert fe_mul(a, b).coeffs == (6, 10)
    assert shared == fusion_pow(base, fe(f121, [6, 10]))


def test_fdh_unit_secret(g23, f121):
    rng = random.Random(0)
    base = unit_embed(generator_element(g23), f121)
    me = fdh_keygen(base, rng)
    from fusionexp import FusionKeyPair

    them = FusionKeyPair(secret=fe_one(f121), public=fusion_pow(base, fe_one(f121)))
    assert fdh_shared(them, me.public) == me.public


def test_fdh_agreement_trials(g23, f121):
    rng = random.Random(1)
    base = unit_embed(generator_element(g23), f121)
    for _ in range(300):
        a = fdh_keygen(base, rng)
        b = fdh_keygen(base, rng)
        assert fdh_shared(a, b.public) == fdh_shared(b, a.public)


def test_fdh_rejects_identity_base(g23, f121):
    with pytest.raises(IdentityBase):
        fdh_keygen(fb_identity(g23, f121), random.Random(0))


def test_fdh_shared_rejects_identity_peer_key(g23, f121):
    base = unit_embed(generator_element(g23), f121)
    me = fdh_keygen(base, random.Random(0))
    with pytest.raises(IdentityBase):
        fdh_shared(me, fb_identity(g23, f121))


def test_felgamal_encrypt_rejects_identity_base_or_key(g23, f121):
    # with pk the identity, c2 would be the plaintext itself
    rng = random.Random(1)
    base = unit_embed(generator_element(g23), f121)
    keys = felgamal_keygen(base, rng)
    msg = fusion_pow(base, fe(f121, [4, 7]))
    one = fb_identity(g23, f121)
    for b, pk in ((base, one), (one, keys.public), (one, one)):
        with pytest.raises(IdentityBase):
            felgamal_encrypt(b, pk, msg, rng)


def test_felgamal_roundtrip_trials(g23, f121):
    rng = random.Random(2)
    g = generator_element(g23)
    base = unit_embed(g, f121)
    keys = felgamal_keygen(base, rng)
    for _ in range(300):
        msg = scalar_embed(g, fe_random(f121, rng))
        ct = felgamal_decrypt(keys.secret, felgamal_encrypt(base, keys.public, msg, rng))
        assert ct == msg


def test_felgamal_degree_one_matches_scalar(g23):
    params = make_field_params(11, 1, [0])
    base = unit_embed(generator_element(g23), params)
    scalar = helpers.ScalarElGamal(g23)
    rng_a = random.Random(42)
    rng_b = random.Random(42)
    for _ in range(300):
        keys = felgamal_keygen(base, rng_a)
        sk, pk = scalar.keygen(rng_b)
        assert keys.secret.coeffs == (sk,)
        assert keys.public.components[0].residue == pk
        msg_res = rng_a.randrange(11)
        rng_b.randrange(11)  # mirror the draw
        msg = fusion_pow(base, fe(params, [msg_res]))
        msg_scalar = pow(g23.generator, msg_res, g23.modulus)
        ct = felgamal_encrypt(base, keys.public, msg, rng_a)
        c1, c2 = scalar.encrypt(pk, msg_scalar, rng_b)
        assert ct.c1.components[0].residue == c1
        assert ct.c2.components[0].residue == c2
        back = felgamal_decrypt(keys.secret, ct)
        assert back.components[0].residue == scalar.decrypt(sk, (c1, c2)) == msg_scalar


def test_homomorphic_exponent_sums(g23, f121):
    # the property the share-verification equation relies on
    rng = random.Random(3)
    base = unit_embed(generator_element(g23), f121)
    for _ in range(200):
        a, b = fe_random(f121, rng), fe_random(f121, rng)
        assert fusion_pow(base, fe_add(a, b)) == fb_mul(
            fusion_pow(base, a), fusion_pow(base, b)
        )


def test_vss_worked_example(g23, f121):
    rng = random.Random(4)
    base = unit_embed(generator_element(g23), f121)
    secret = fe(f121, [7, 1])
    dealing = vss_deal(secret, t=2, m=3, base=base, rng=rng)
    assert len(dealing.shares) == 3 and len(dealing.commitments) == 2
    # first commitment binds the secret itself
    assert dealing.commitments[0] == fusion_pow(base, secret)
    for j in (1, 2, 3):
        assert vss_verify(dealing, j)
    for pair in itertools.combinations(dealing.shares, 2):
        assert vss_reconstruct(pair) == secret
    assert vss_reconstruct(dealing.shares) == secret
    vss_verify_all(dealing)  # should not raise


def test_vss_threshold_one_constant_polynomial(g23, f121):
    rng = random.Random(5)
    base = unit_embed(generator_element(g23), f121)
    secret = fe(f121, [4, 9])
    dealing = vss_deal(secret, t=1, m=4, base=base, rng=rng)
    assert all(s.value == secret for s in dealing.shares)
    assert dealing.commitments == (fusion_pow(base, secret),)


def test_vss_exhaustive_subsets(g23, f121):
    rng = random.Random(6)
    base = unit_embed(generator_element(g23), f121)
    for t in (1, 2, 3):
        for m in range(t, 6):
            secret = fe_random(f121, rng, nonzero=True)
            dealing = vss_deal(secret, t, m, base, rng)
            for s in dealing.shares:
                assert vss_verify(dealing, s.index)
            for subset in itertools.combinations(dealing.shares, t):
                assert vss_reconstruct(subset) == secret


def test_vss_single_corruption_detected(g23, f121):
    rng = random.Random(7)
    base = unit_embed(generator_element(g23), f121)
    secret = fe_random(f121, rng, nonzero=True)
    dealing = vss_deal(secret, t=2, m=4, base=base, rng=rng)
    for victim in dealing.shares:
        tampered = VssShare(victim.index, fe_add(victim.value, fe_one(f121)))
        corrupted = replace(
            dealing,
            shares=tuple(
                tampered if s.index == victim.index else s for s in dealing.shares
            ),
        )
        flags = [s.index for s in corrupted.shares if not vss_verify(corrupted, s.index)]
        assert flags == [victim.index]
        with pytest.raises(VerifyFailed) as err:
            vss_verify_all(corrupted)
        assert err.value.share_index == victim.index


def test_vss_split_gives_the_dealing_of_vss_deal(g23, f121):
    base = unit_embed(generator_element(g23), f121)
    for seed in range(20):
        secret = fe_random(f121, random.Random(100 + seed))
        rng_split, rng_deal = random.Random(seed), random.Random(seed)
        t = 1 + seed % 3
        shares, commitments = vss_split(secret, t, t + 2, base, rng_split)
        dealing = vss_deal(secret, t, t + 2, base, rng_deal)
        assert (shares, commitments) == (dealing.shares, dealing.commitments)
        assert (dealing.threshold, dealing.share_count, dealing.base) == (t, t + 2, base)
        assert rng_split.getstate() == rng_deal.getstate()


def test_vss_check_agrees_with_vss_verify(g23, f121):
    rng = random.Random(13)
    base = unit_embed(generator_element(g23), f121)
    for t in (1, 2, 3):
        for m in range(t, 6):
            dealing = vss_deal(fe_random(f121, rng), t, m, base, rng)
            for share in dealing.shares:
                assert vss_check(base, dealing.commitments, share) is True
                assert vss_verify(dealing, share.index) is True
                bumped = VssShare(share.index, fe_add(share.value, fe_one(f121)))
                corrupted = replace(dealing, shares=tuple(
                    bumped if s.index == share.index else s for s in dealing.shares))
                assert vss_check(base, dealing.commitments, bumped) is False
                assert vss_verify(corrupted, share.index) is False


def test_vss_check_needs_a_commitment(g23, f121):
    rng = random.Random(14)
    base = unit_embed(generator_element(g23), f121)
    shares, _ = vss_split(fe_random(f121, rng), 2, 3, base, rng)
    with pytest.raises(ValueError, match="no commitments"):
        vss_check(base, (), shares[0])


def test_vss_share_points_distinct_nonzero(f121):
    points = [share_point(f121, j) for j in range(1, 121)]
    assert len(set(points)) == 120
    assert all(any(c != 0 for c in p.coeffs) for p in points)


def test_vss_share_index_outside_the_point_range_rejected(g23, f121):
    # 1 + 121 would alias the point of share 1, and 0 the secret's own point
    rng = random.Random(12)
    base = unit_embed(generator_element(g23), f121)
    dealing = vss_deal(fe_random(f121, rng), t=2, m=3, base=base, rng=rng)
    first, second = dealing.shares[:2]
    for bad in (VssShare(1 + 121, first.value), VssShare(0, second.value),
                VssShare(-1, second.value)):
        with pytest.raises(ValueError, match="share index"):
            vss_reconstruct([first, bad])
        with pytest.raises(ValueError, match="share index"):
            share_point(f121, bad.index)
    assert share_point(f121, 120) == fe(f121, [10, 10])


def test_vss_bad_threshold(g23, f121):
    rng = random.Random(8)
    base = unit_embed(generator_element(g23), f121)
    secret = fe_random(f121, rng)
    with pytest.raises(BadThreshold):
        vss_deal(secret, t=0, m=3, base=base, rng=rng)
    with pytest.raises(BadThreshold):
        vss_deal(secret, t=4, m=3, base=base, rng=rng)
    tiny = make_field_params(3, 1, [1])
    tiny_base = unit_embed(generator_element(_g7()), tiny)
    with pytest.raises(BadThreshold):
        vss_deal(fe(tiny, [2]), t=1, m=3, base=tiny_base, rng=rng)  # only 2 points


def _g7():
    from fusionexp import GroupParams

    return GroupParams(modulus=7, q=3, generator=2)


def test_vss_reconstruct_input_validation(g23, f121):
    rng = random.Random(9)
    base = unit_embed(generator_element(g23), f121)
    dealing = vss_deal(fe_random(f121, rng), 2, 3, base, rng)
    with pytest.raises(BadThreshold):
        vss_reconstruct([])
    with pytest.raises(ValueError):
        vss_reconstruct([dealing.shares[0], dealing.shares[0]])


def test_vss_dealing_is_one_frozen_dataclass(g23, f121):
    import fusionexp

    dealing_type = fusionexp.VssDealing
    assert dealing_type is protocols.VssDealing
    assert dataclasses.is_dataclass(dealing_type)
    assert dealing_type.__qualname__ == "VssDealing"
    assert dealing_type.__module__ == "fusionexp.protocols"
    rng = random.Random(8)
    base = unit_embed(generator_element(g23), f121)
    dealing = vss_deal(fe_random(f121, rng, nonzero=True), 2, 3, base, rng)
    assert isinstance(dealing, dealing_type)
    assert repr(dealing).startswith("VssDealing(threshold=2, share_count=3, base=")
    with pytest.raises(dataclasses.FrozenInstanceError):
        dealing.threshold = 3
    changed = replace(dealing, threshold=3)
    assert isinstance(changed, dealing_type) and changed.threshold == 3
    assert changed.shares == dealing.shares
    back = pickle.loads(pickle.dumps(dealing))
    assert type(back) is dealing_type and back == dealing
    with pytest.raises(AttributeError):
        protocols.VssDealings
    with pytest.raises(AttributeError):
        fusionexp.VssDealings
