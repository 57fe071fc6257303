import dataclasses
import itertools
import pickle
import random
from dataclasses import replace

import pytest

import helpers
from fusionexp import (
    BadThreshold,
    FusionBase,
    GroupElement,
    GroupParams,
    IdentityBase,
    ParamsMismatch,
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


def test_fdh_keygen_rejects_a_base_off_the_subgroup(g23, f121):
    # over such a base, built here by GroupElement.unchecked, the two sides
    # of an agreement can disagree; the GroupElement constructor refuses its
    # off-subgroup component, so no keygen sees one built from outside
    rng = random.Random(1)
    comps = (GroupElement.unchecked(g23, 21), GroupElement.unchecked(g23, 1))
    unchecked = FusionBase(g23, f121, comps)
    pairs = [(fdh_keygen(unchecked, rng), felgamal_keygen(unchecked, rng)) for _ in range(50)]
    assert any(fdh_shared(a, b.public) != fdh_shared(b, a.public) for a, b in pairs)
    for comps, outside in zip(OFF_SUBGROUP, (21, 21, 22)):
        with pytest.raises(ValueError, match=f"^residue {outside} is not in the order-11"):
            FusionBase(g23, f121, tuple(GroupElement(g23, r) for r in comps))


def test_fdh_shared_rejects_identity_peer_key(g23, f121):
    base = unit_embed(generator_element(g23), f121)
    me = fdh_keygen(base, random.Random(0))
    with pytest.raises(IdentityBase):
        fdh_shared(me, fb_identity(g23, f121))


def test_fdh_shared_rejects_a_peer_key_from_other_parameters(g23, f121):
    # P = 67 has an order-11 subgroup too, and X^2 + 3 is irreducible mod 11
    g67 = GroupParams(modulus=67, q=11, generator=9)
    other_f = make_field_params(11, 2, [3, 0])
    rng = random.Random(15)
    me = fdh_keygen(unit_embed(generator_element(g23), f121), rng)
    for group, fld in ((g67, f121), (g23, other_f), (g67, other_f)):
        peer = fdh_keygen(unit_embed(generator_element(group), fld), rng)
        with pytest.raises(ParamsMismatch):
            fdh_shared(me, peer.public)
        with pytest.raises(ParamsMismatch):
            fdh_shared(peer, me.public)


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


def test_felgamal_encrypt_rejects_a_message_from_other_parameters(g23, f121):
    # rejected before a nonce is drawn, as fb_mul would reject it only after
    g67 = GroupParams(modulus=67, q=11, generator=9)
    rng = random.Random(21)
    base = unit_embed(generator_element(g23), f121)
    keys = felgamal_keygen(base, rng)
    for group, fld in ((g67, f121), (g23, make_field_params(11, 2, [3, 0]))):
        msg = unit_embed(generator_element(group), fld)
        state = rng.getstate()
        with pytest.raises(ParamsMismatch, match="message"):
            felgamal_encrypt(base, keys.public, msg, rng)
        assert rng.getstate() == state


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
    for bad in (VssShare(1 + 121, first.value), VssShare(121, first.value),
                VssShare(0, second.value), VssShare(-1, second.value)):
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
    with pytest.raises(BadThreshold, match="at most 2 distinct share points"):
        vss_deal(fe(tiny, [2]), t=1, m=3, base=tiny_base, rng=rng)  # only 2 points
    assert len(vss_deal(fe(tiny, [2]), t=1, m=2, base=tiny_base, rng=rng).shares) == 2


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
    with pytest.raises(BadThreshold):
        replace(dealing, threshold=3)
    changed = replace(dealing, shares=dealing.shares[::-1])
    assert isinstance(changed, dealing_type) and changed.shares[0] == dealing.shares[-1]
    assert changed.commitments == dealing.commitments
    back = pickle.loads(pickle.dumps(dealing))
    assert type(back) is dealing_type and back == dealing
    with pytest.raises(AttributeError):
        protocols.VssDealings
    with pytest.raises(AttributeError):
        fusionexp.VssDealings


def _outcome(verify, dealing):
    """What a whole-dealing check did: returned, named a share, or raised."""
    try:
        verify(dealing)
    except VerifyFailed as err:
        return ("failed", err.share_index)
    except Exception as err:  # the type is what is compared
        return ("raised", type(err))
    return ("passed",)


def _agrees_with_each(dealing):
    """The outcome of vss_verify_all, checked against the per-share loop."""
    got = _outcome(vss_verify_all, dealing)
    assert got == _outcome(helpers.vss_verify_each, dealing)
    return got


def _bumped(share):
    return VssShare(share.index, fe_add(share.value, fe_one(share.value.params)))


def test_vss_verify_all_agrees_with_each_share_on_honest_dealings(g23, f121, group64, fields64):
    rng = random.Random(16)
    g = generator_element(g23)
    bases = (unit_embed(g, f121), scalar_embed(g, fe(f121, [3, 7])))
    # from m = 11 on, share points leave the prime subfield (index 11 is X)
    sizes = [(t, m) for t in (1, 2, 3, 4) for m in range(t, 7)] + [(3, 13), (4, 14)]
    for base in bases:
        for t, m in sizes:
            dealing = vss_deal(fe_random(f121, rng), t, m, base, rng)
            assert _agrees_with_each(dealing) == ("passed",)
    base64 = scalar_embed(generator_element(group64), fe_random(fields64[2], rng, nonzero=True))
    for t, m in ((1, 2), (3, 5), (4, 6)):
        dealing = vss_deal(fe_random(fields64[2], rng), t, m, base64, rng)
        assert _agrees_with_each(dealing) == ("passed",)


def test_vss_verify_all_agrees_with_each_share_on_tampered_dealings(g23, f121):
    rng = random.Random(17)
    g = generator_element(g23)
    base = scalar_embed(g, fe(f121, [3, 7]))
    dealing = vss_deal(fe_random(f121, rng), 3, 5, base, rng)
    shares, commitments = dealing.shares, dealing.commitments

    def with_shares(*new):
        return replace(dealing, shares=tuple(new))

    for k in range(5):  # each share bumped, and it with a later one
        one = list(shares)
        one[k] = _bumped(one[k])
        assert _agrees_with_each(with_shares(*one)) == ("failed", k + 1)
        for later in range(k + 1, 5):
            two = list(one)
            two[later] = _bumped(two[later])
            assert _agrees_with_each(with_shares(*two)) == ("failed", k + 1)
    shift = unit_embed(g, f121)
    for i in range(3):  # a commitment replaced fails the first share
        swapped = list(commitments)
        swapped[i] = fb_mul(swapped[i], shift)
        assert _agrees_with_each(replace(dealing, commitments=tuple(swapped))) == ("failed", 1)
    for perm in itertools.islice(itertools.permutations(shares), 1, None, 17):
        assert _agrees_with_each(with_shares(*perm)) == ("passed",)
    first, second, third, fourth, fifth = shares
    cases = [
        # duplicate indices, among the first t and after them
        with_shares(first, first, third, fourth, fifth),
        with_shares(first, VssShare(1, second.value), third, fourth, fifth),
        with_shares(first, second, third, third, fifth),
        # an index outside [1, q^n) after a corrupted share, and alone
        with_shares(_bumped(first), second, third, fourth, VssShare(121, fifth.value)),
        with_shares(first, second, third, fourth, VssShare(0, fifth.value)),
        # an index or a value of the wrong type after a corrupted share
        with_shares(_bumped(first), second, third, fourth, VssShare(5.0, fifth.value)),
        with_shares(_bumped(first), second, third, fourth, VssShare(5, 7)),
        # a share from another field, after a corrupted share and first
        with_shares(_bumped(first), VssShare(2, fe(make_field_params(11, 2, [3, 0]), [1, 2])),
                    third, fourth, fifth),
        with_shares(VssShare(1, fe(make_field_params(11, 1, [0]), [4])), second, third,
                    fourth, fifth),
    ]
    outcomes = [_agrees_with_each(case) for case in cases]
    assert [outcomes[k] for k in (3, 5, 6, 7)] == [("failed", 1)] * 4
    assert ("raised", ValueError) in outcomes and ("raised", ParamsMismatch) in outcomes
    # more commitments than shares, none, and no shares: the dealing's counts
    # must agree, so none of these is a dealing
    short = vss_deal(fe_random(f121, rng), 3, 3, base, rng)
    for changes in ({"commitments": short.commitments + (base,)}, {"commitments": ()},
                    {"shares": (), "commitments": ()}, {"shares": ()}):
        with pytest.raises(BadThreshold):
            replace(short, **changes)


# over P = 23, q = 11: P - g = 21 has order 2q and P - 1 = 22 order 2
OFF_SUBGROUP = ((21, 1), (2, 21), (22, 2))


def test_vss_verify_all_agrees_with_each_share_on_an_identity_base(g23, f121):
    rng = random.Random(18)
    g = generator_element(g23)
    one = fb_identity(g23, f121)
    dealing = vss_deal(fe_random(f121, rng), 3, 5, unit_embed(g, f121), rng)
    assert _agrees_with_each(replace(dealing, base=one)) == ("failed", 1)
    trivial = replace(dealing, base=one, commitments=(one,) * 3)
    assert _agrees_with_each(trivial) == ("passed",)


def test_vss_split_rejects_a_base_off_the_subgroup(g23, f121):
    # exponents of such a base, built here by GroupElement.unchecked, are not
    # read mod q, and an honest dealing fails the per-share check; the
    # GroupElement constructor refuses its off-subgroup component, so no
    # dealer sees one built from outside
    rng = random.Random(21)
    for comps, outside in zip(OFF_SUBGROUP, (21, 21, 22)):
        unchecked = FusionBase(g23, f121, tuple(GroupElement.unchecked(g23, r) for r in comps))
        shares, commitments = vss_split(fe_random(f121, rng), 3, 5, unchecked, rng)
        assert not all(vss_check(unchecked, commitments, s) for s in shares)
        with pytest.raises(ValueError, match=f"^residue {outside} is not in the order-11"):
            FusionBase(g23, f121, tuple(GroupElement(g23, r) for r in comps))


def test_vss_dealing_counts_must_agree(g23, f121):
    rng = random.Random(23)
    dealing = vss_deal(fe_random(f121, rng), 2, 3, unit_embed(generator_element(g23), f121), rng)
    shares, commitments, base = dealing.shares, dealing.commitments, dealing.base
    dealing_type = protocols.VssDealing
    assert dealing_type(2, 3, base, shares, commitments) == dealing
    for t, m, s, c in ((0, 3, shares, ()), (3, 2, shares[:2], commitments + commitments[:1]),
                       (2, 3, shares[:2], commitments), (2, 3, shares + shares[:1], commitments),
                       (2, 3, shares, commitments[:1]), (2, 2, shares, commitments),
                       (1, 3, shares, commitments)):
        with pytest.raises(BadThreshold):
            dealing_type(t, m, base, s, c)


def test_vss_verify_all_powers_the_base_once_per_commitment(g23, f121, group64, fields64,
                                                            monkeypatch):
    calls = []

    def counted(base, exp):
        calls.append(exp)
        return fusion_pow(base, exp)

    rng = random.Random(19)
    for g, fld in ((generator_element(g23), f121), (generator_element(group64), fields64[4])):
        base = scalar_embed(g, fe_random(fld, rng, nonzero=True))
        # the per-share loop takes m + m(t - 1) powers: 15, 2 and 9
        dealings = [vss_deal(fe_random(fld, rng), t, m, base, rng)
                    for t, m in ((3, 5), (1, 2), (3, 3))]
        monkeypatch.setattr(protocols, "fusion_pow", counted)
        for dealing in dealings:
            calls.clear()
            vss_verify_all(dealing)
            assert tuple(fusion_pow(base, c) for c in calls) == dealing.commitments
        monkeypatch.undo()


def test_vss_verify_all_lets_an_arithmetic_fault_through(g23, f121, monkeypatch):
    rng = random.Random(20)
    dealing = vss_deal(fe_random(f121, rng), 3, 5, unit_embed(generator_element(g23), f121), rng)
    faults = []

    def faulty(base, exp):
        if not faults:
            faults.append(exp)
            raise RuntimeError("injected")
        return fusion_pow(base, exp)

    monkeypatch.setattr(protocols, "fusion_pow", faulty)
    with pytest.raises(RuntimeError, match="injected"):
        vss_verify_all(dealing)
