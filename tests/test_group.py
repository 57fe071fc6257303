import json
import math
import random

import pytest

import fusionexp.group
import helpers
from fusionexp import (
    GroupElement,
    GroupParams,
    NotPrime,
    ParamsMismatch,
    g_inv,
    g_mul,
    g_pow,
    gen_group_params,
    generator_element,
    group_element,
    identity,
)
from fusionexp.cli import EXIT_OK, load_system_config, main
from fusionexp.group import pow_sm


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
    # with P and q both composite, q is named
    with pytest.raises(NotPrime, match="subgroup order 10"):
        GroupParams(modulus=21, q=10, generator=4)
    with pytest.raises(ValueError):
        GroupParams(modulus=23, q=11, generator=1)
    with pytest.raises(ValueError):
        GroupParams(modulus=23, q=11, generator=5)  # 5 is not in the subgroup


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
        b = group_element(g23, base)
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
    assert group_element(g, 13) == GroupElement(g, 13)


def test_gen_group_params_search_exhausted(monkeypatch):
    from fusionexp import SearchExhausted

    monkeypatch.setattr(fusionexp.group, "MAX_DRAWS", 2)
    with pytest.raises(SearchExhausted):
        gen_group_params(64, seed=0)
