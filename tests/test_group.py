import itertools
import json
import math
import random

import pytest

import fusionexp.group
import helpers
from fusionexp import (
    DlogInstance,
    FdlogInstance,
    FieldElement,
    FusionBase,
    GroupElement,
    GroupParams,
    NotPrime,
    ParamsMismatch,
    SearchExhausted,
    dlog_bsgs,
    fb_identity,
    fb_inv,
    fb_mul,
    fdh_keygen,
    fdh_shared,
    fdlog_bruteforce,
    fdlog_solve,
    fe,
    fe_add,
    fe_from_int,
    fe_inv,
    fe_mul,
    fe_neg,
    fe_one,
    fe_pow,
    fe_random,
    fe_sub,
    fe_zero,
    fusion_pow,
    g_inv,
    g_mul,
    g_pow,
    gen_group_params,
    generator_element,
    identity,
    scalar_embed,
    unit_embed,
    vss_deal,
    vss_verify_all,
)
from fusionexp.cli import EXIT_OK, load_system_config, main
from fusionexp.group import pow_sm
from fusionexp.primes import is_prime


def test_gen_group_params_4_bits():
    params = gen_group_params(4, seed=7)
    assert params.q == 11 and params.modulus == 23
    assert helpers.trial_division_prime(params.q)
    assert helpers.trial_division_prime(params.modulus)
    assert params.generator != 1
    assert pow(params.generator, params.q, params.modulus) == 1
    # 13 is the only other 4-bit prime, and 2*13+1 = 27 is composite
    assert not helpers.trial_division_prime(2 * 13 + 1)


def test_gen_group_params_deterministic():
    assert gen_group_params(8, seed=3) == gen_group_params(8, seed=3)


def test_gen_group_params_rejects_tiny_size():
    with pytest.raises(ValueError):
        gen_group_params(3, seed=0)


def test_params_validation():
    with pytest.raises(NotPrime):
        GroupParams(modulus=24, q=11, generator=2)
    with pytest.raises(NotPrime):
        GroupParams(modulus=23, q=10, generator=2)
    # a composite P raises NotPrime before the generator's ValueError
    with pytest.raises(NotPrime):
        GroupParams(modulus=15, q=7, generator=4)
    # 1247 = 29 * 43 with 7 | 1246, 16^7 = 1 and gcd(16^178 - 1, 1247) = 1:
    # Pocklington's other conditions hold, and only q^2 > P is missing
    assert pow(16, 7, 1247) == 1
    assert math.gcd(pow(16, 1246 // 7, 1247) - 1, 1247) == 1
    with pytest.raises(NotPrime):
        GroupParams(modulus=1247, q=7, generator=16)
    # 35 = 5 * 7 with 17 | 34 and 17^2 > 35: a generator of 1, or of 36 = 1
    # mod 35, has g^q = 1 but is out of range, so the criterion does not apply
    for g in (1, 36):
        with pytest.raises(NotPrime):
            GroupParams(modulus=35, q=17, generator=g)
    # 69 = 3 * 23 with 11^2 > 69 and 4^11 = 1, but 11 does not divide 68
    assert pow(4, 11, 69) == 1
    with pytest.raises(NotPrime):
        GroupParams(modulus=69, q=11, generator=4)
    # with P and q both composite, q is named
    with pytest.raises(NotPrime, match="subgroup order 10"):
        GroupParams(modulus=21, q=10, generator=4)
    with pytest.raises(ValueError):
        GroupParams(modulus=23, q=11, generator=1)
    with pytest.raises(ValueError):
        GroupParams(modulus=23, q=11, generator=5)  # 5 is not in the subgroup
    # the range is checked before the order: P itself is out of range
    for g in (0, 1, 23, 27):
        with pytest.raises(ValueError, match="^generator out of range$"):
            GroupParams(modulus=23, q=11, generator=g)


def test_pocklington_criterion_needs_no_gcd():
    # GroupParams takes P as prime when q is prime, q | P - 1, q^2 > P and
    # some g in (1, P) has g^q = 1: no odd composite P below 2,000 passes
    pairs = 0
    for P in range(9, 2000, 2):
        if not is_prime(P):
            for q in range(math.isqrt(P) + 1, P):
                if (P - 1) % q == 0 and is_prime(q):
                    pairs += 1
                    assert all(pow(g, q, P) != 1 for g in range(2, P)), (P, q)
    assert pairs > 100


def test_g_mul_worked_example(g23):
    a, b = GroupElement(g23, 4), GroupElement(g23, 18)
    assert g_mul(a, b).residue == 3
    assert g_mul(identity(g23), b) == b


def test_g_inv(g23):
    rng = random.Random(0)
    g = generator_element(g23)
    for _ in range(20):
        a = g_pow(g, rng.randrange(11))
        assert g_mul(a, g_inv(a)) == identity(g23)


def test_params_mismatch(g23):
    other = gen_group_params(8, seed=1)
    with pytest.raises(ParamsMismatch):
        g_mul(GroupElement(g23, 2), GroupElement(other, 2))


def test_g_pow_worked_examples(g23):
    g = generator_element(g23)
    assert g_pow(g, 7).residue == 13
    assert g_pow(g, 0) == identity(g23)
    # (2^3)^4 = 2^(12 mod 11) = 2
    assert g_pow(g_pow(g, 3), 4).residue == 2


def test_g_pow_matches_iterated_multiplication_exhaustive(g23):
    for base in (2, 4, 8, 13):
        b = GroupElement(g23, base)
        for e in range(11):
            assert g_pow(b, e).residue == helpers.iterated_pow(base, e, 23)


def test_g_pow_matches_iterated_multiplication_10bit():
    params = gen_group_params(10, seed=5)
    g = generator_element(params)
    for e in range(params.q):
        assert g_pow(g, e).residue == helpers.iterated_pow(
            params.generator, e, params.modulus
        )


def test_pow_sm_multiplication_budget():
    # left-to-right square and multiply stays within 2*bitlen multiplications
    counting = helpers.CountingInt
    for exp in (1, 2, 13, 255, 1023):
        counting.mults = 0
        result = pow_sm(counting(7), exp, 1000003)
        assert result == pow(7, exp, 1000003)
        assert 0 < counting.mults <= 2 * exp.bit_length() or exp == 1


def exponent_law_trials(params, trials, seed):
    rng = random.Random(seed)
    q = params.q
    g = generator_element(params)
    for _ in range(trials):
        x, y = rng.randrange(q), rng.randrange(q)
        w = rng.randrange(1, q)
        h = g_pow(g, w)
        gx = g_pow(g, x)
        assert g_pow(gx, y) == g_pow(g, x * y % q)
        assert g_pow(g, (x + y) % q) == g_mul(gx, g_pow(g, y))
        assert g_pow(g_mul(g, h), x) == g_mul(gx, g_pow(h, x))


def test_exponent_laws_q11(g23):
    exponent_law_trials(g23, 1000, seed=17)


def test_exponent_laws_64_bit(group64):
    exponent_law_trials(group64, 1000, seed=18)


def test_serialization_roundtrip(tmp_path, capsys):
    # the JSON form belongs to the CLI: the group section that params --out
    # writes loads back to equal GroupParams, and a residue read as part of
    # a base is printed back unchanged by the unit exponent
    path = tmp_path / "sys.json"
    assert main(["params", "--q-bits", "4", "--n", "2", "--seed", "7",
                 "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    obj = json.loads(path.read_text())
    assert obj["version"] == "1"
    assert obj["group"] == {"modulus": "23", "q": "11", "generator": "4"}
    g = load_system_config(str(path))[0]
    assert g == GroupParams(23, 11, 4)
    assert main(["eval", "--config", str(path), "--base", '["13","4"]',
                 "--exp", '["1","0"]']) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == ["13", "4"]
    assert GroupElement(g, 13) == GroupElement.unchecked(g, 13)


def test_gen_group_params_search_exhausted(monkeypatch):
    monkeypatch.setattr(fusionexp.group, "MAX_DRAWS", 2)
    with pytest.raises(SearchExhausted):
        gen_group_params(64, seed=0)


@pytest.mark.parametrize("q_bits, seeds", [
    *((bits, range(1, 31)) for bits in (4, 5, 8, 12, 16, 24, 64)),
    (256, range(1, 4)),
], ids=lambda v: str(v) if isinstance(v, int) else f"seeds{v.start}-{v.stop - 1}")
def test_gen_group_params_matches_full_test_per_draw(q_bits, seeds):
    # the sieve drops draws only; each search ends at the same draw
    for seed in seeds:
        assert gen_group_params(q_bits, seed) == helpers.search_group_params(q_bits, seed)[0]


def test_gen_group_params_goes_on_past_a_composite_the_filter_passed(monkeypatch):
    # a base-2 strong pseudoprime q or P reaches GroupParams, whose NotPrime
    # moves the search to the next draw; with a filter that passes every
    # draw, each composite takes that path
    monkeypatch.setattr(fusionexp.group, "may_be_safe_prime", lambda q: True)
    for seed in range(1, 6):
        assert gen_group_params(16, seed) == helpers.search_group_params(16, seed)[0]


@pytest.mark.parametrize("q_bits, seed", [(64, 1), (256, 2)])
def test_gen_group_params_draw_cap_edge(monkeypatch, q_bits, seed):
    # MAX_DRAWS counts every draw, sieved or tested: the first hit is at
    # draw k, so a cap of k - 1 draws exhausts and a cap of k finds it
    expected, k = helpers.search_group_params(q_bits, seed)
    assert k > 1
    monkeypatch.setattr(fusionexp.group, "MAX_DRAWS", k - 1)
    with pytest.raises(SearchExhausted):
        gen_group_params(q_bits, seed)
    monkeypatch.setattr(fusionexp.group, "MAX_DRAWS", k)
    assert gen_group_params(q_bits, seed) == expected


def kq_plus_one_group(q_bits, seed):
    """A group with P = kq + 1 for the least even k >= 4 that makes P prime."""
    q = gen_group_params(q_bits, seed).q
    k = next(k for k in itertools.count(4, 2) if is_prime(k * q + 1))
    P = k * q + 1
    h = next(h for h in itertools.count(2) if pow(h, k, P) != 1)
    return GroupParams(P, q, pow(h, k, P))


def membership_agrees_with_the_q_th_power(params, residues):
    P, q = params.modulus, params.q
    members = 0
    for r in residues:
        if pow(r, q, P) == 1:
            assert GroupElement(params, r) == GroupElement.unchecked(params, r)
            members += 1
        else:
            with pytest.raises(ValueError, match=f"^residue {r} is not in the order-{q} subgroup$"):
                GroupElement(params, r)
    return members


@pytest.mark.parametrize("params", [GroupParams(23, 11, 4), GroupParams(7, 3, 2),
                                    GroupParams(67, 11, 64), GroupParams(53, 13, 16)],
                         ids=["2q+1", "2q+1-q3", "6q+1", "4q+1"])
def test_group_element_membership_exhaustive(params):
    # every residue of both shapes: by the Legendre symbol at P = 2q + 1,
    # by r^q at P = kq + 1, k > 2; either way exactly q members
    assert membership_agrees_with_the_q_th_power(params, range(1, params.modulus)) == params.q


@pytest.mark.parametrize("shape", ["2q+1", "kq+1"])
@pytest.mark.parametrize("q_bits", [64, 256])
def test_group_element_membership_random(shape, q_bits):
    params = gen_group_params(q_bits, seed=3) if shape == "2q+1" else kq_plus_one_group(q_bits, 3)
    assert (params.modulus == 2 * params.q + 1) == (shape == "2q+1")
    rng = random.Random(q_bits)
    g, P = params.generator, params.modulus
    members = [pow(g, rng.randrange(1, params.q), P) for _ in range(20)]
    others = [r for r in (rng.randrange(2, P) for _ in range(40)) if pow(r, params.q, P) != 1]
    # -1 has order 2, so it lies outside every subgroup of odd order
    assert membership_agrees_with_the_q_th_power(params, members + others + [P - 1, 1]) == 21


@pytest.mark.parametrize("params, by_symbol", [(GroupParams(23, 11, 4), True),
                                               (GroupParams(67, 11, 64), False)],
                         ids=["2q+1", "6q+1"])
def test_group_element_takes_the_symbol_only_at_a_safe_prime(params, by_symbol, monkeypatch):
    # both routes decide membership alike, so only the calls tell them apart
    calls = []
    symbol = fusionexp.group.jacobi
    monkeypatch.setattr(fusionexp.group, "jacobi", lambda a, n: calls.append(a) or symbol(a, n))
    GroupElement(params, 1)
    GroupElement(params, params.generator)
    with pytest.raises(ValueError):
        GroupElement(params, params.modulus - 1)
    assert calls == ([1, params.generator, params.modulus - 1] if by_symbol else [])


@pytest.mark.parametrize("params", [GroupParams(23, 11, 4), GroupParams(67, 11, 64)],
                         ids=["2q+1", "6q+1"])
def test_group_element_checks_the_range_before_membership(params):
    # 0 and P have symbol 0 and P + 4 is a member's lift: each is refused for
    # its range, before the membership test could read it
    P = params.modulus
    for r in (0, -1, P, P + 4, P + params.generator):
        with pytest.raises(ValueError, match=f"^residue {r} out of range$"):
            GroupElement(params, r)


def test_built_results_never_pay_the_membership_check(g23, q11_fields, group64, fields64,
                                                      monkeypatch):
    # results that are members by construction are built by
    # GroupElement.unchecked; with both membership routes made to raise, every
    # operation below still runs, on the per-entry route at q = 11 and the
    # kernel at 64 bits, and each component it built passes the check
    # afterwards.  Field elements, tuples and scalar instances that hold their
    # invariants by construction skip their constructors too, and pass them
    # afterwards: only the boundaries counted below run one, on data read
    # from an oracle or joined from a group and a field
    kq = GroupParams(67, 11, 64)
    systems = []
    for group, fld in ((g23, q11_fields[3]), (group64, fields64[4])):
        gen, P = group.generator, group.modulus
        full = FusionBase(group, fld, tuple(GroupElement(group, pow(gen, k, P))
                                            for k in (1, 2, 5, 7)[: fld.n]))
        systems.append((group, fld, full, fe(fld, [3, 7, 9, 4][: fld.n])))

    def refuse(*args):
        raise AssertionError("membership checked")

    orders = {(group.q, group.modulus) for group in (g23, group64, kq)}
    monkeypatch.setattr(fusionexp.group, "jacobi", refuse)
    monkeypatch.setattr(fusionexp.group, "pow", raising=False,
                        value=lambda b, e, m: refuse() if (e, m) in orders else pow(b, e, m))
    for params in (g23, kq):  # the trap is set on both routes
        with pytest.raises(AssertionError, match="membership checked"):
            GroupElement(params, params.generator)

    checked = []

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            checked.append(cls.__name__)
            init(self, *args, **kwargs)
        return counted

    for cls in (FieldElement, FusionBase, DlogInstance):
        monkeypatch.setattr(cls, "__init__", counting(cls))

    built, elements, tuples = [], [], []
    rng = random.Random(32)
    for group, fld, full, x in systems:
        g = generator_element(group)
        a = g_pow(g, 3)
        built += [identity(group), g, a, g_mul(a, g), g_inv(a)]
        one, w = fe_one(fld), fe_random(fld, rng, nonzero=True)
        arithmetic = [fe_zero(fld), one, w, fe_from_int(fld, 12), fe_add(x, w), fe_neg(x),
                      fe_sub(x, w), fe_mul(x, w), fe_pow(x, 5), fe_inv(x)]
        assert fe_mul(x, arithmetic[-1]) == one
        y = fusion_pow(full, x)
        inst = FdlogInstance(full, y)
        me, peer = fdh_keygen(full, rng), fdh_keygen(full, rng)
        shared = fdh_shared(me, peer.public)
        dealing = vss_deal(fe_random(fld, rng), 2, 3, full, rng)
        vss_verify_all(dealing)
        made = [y, fb_mul(full, y), fb_inv(y), me.public, peer.public, shared,
                *dealing.commitments]
        assert checked == []
        if group is g23:
            assert fdlog_bruteforce(inst) == x
            assert checked == []
            assert fdlog_solve(inst, dlog_bsgs) == x
            # the exponents w and z of the oracle's 2n answers
            assert checked == ["FieldElement"] * 2
            checked.clear()
        made += [scalar_embed(g, x), unit_embed(g, fld), fb_identity(group, fld)]
        # each joins a group and a field
        assert checked == ["FusionBase"] * 3
        checked.clear()
        built += [c for t in made for c in t.components]
        elements += arithmetic
        tuples += made
    monkeypatch.undo()
    assert all(GroupElement(c.params, c.residue) == c for c in built)
    assert all(FieldElement(e.params, e.coeffs) == e for e in elements)
    assert all(FusionBase(t.group, t.field, t.components) == t for t in tuples)
