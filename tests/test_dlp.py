import itertools
import math
import random

import pytest

from fusionexp import (
    CapExceeded,
    DlogInstance,
    FdlogInstance,
    GroupElement,
    GroupParams,
    IdentityBase,
    dlog_bruteforce,
    dlog_bsgs,
    dlog_pollard_rho,
    fdlog_bruteforce,
    fdlog_solve,
    fe,
    fe_random,
    fe_one,
    fusion_pow,
    g_pow,
    gen_group_params,
    generator_element,
    fb_identity,
    fe_zero,
    find_irreducible,
    identity,
    make_field_params,
    scalar_embed,
)


def make_instance(params, x):
    g = generator_element(params)
    return DlogInstance(g, g_pow(g, x))


def test_solvers_worked_example(g23):
    inst = DlogInstance(generator_element(g23), GroupElement(g23, 13))
    assert dlog_bruteforce(inst) == 7
    assert dlog_bsgs(inst) == 7
    for seed in range(5):
        assert dlog_pollard_rho(inst, seed) == 7


def test_solvers_trivial_targets(g23):
    g = generator_element(g23)
    for solver in (dlog_bruteforce, dlog_bsgs, dlog_pollard_rho):
        assert solver(DlogInstance(g, identity(g23))) == 0
        assert solver(DlogInstance(g, g)) == 1


def test_instance_rejects_identity_base(g23):
    with pytest.raises(IdentityBase):
        DlogInstance(identity(g23), GroupElement(g23, 13))


def test_bruteforce_cap(g23):
    inst = make_instance(g23, 5)
    with pytest.raises(CapExceeded):
        dlog_bruteforce(inst, cap=10)  # cap below q = 11


def test_bsgs_32_bit_instances():
    params = gen_group_params(32, seed=1)
    rng = random.Random(2)
    for _ in range(10):
        x = rng.randrange(params.q)
        assert dlog_bsgs(make_instance(params, x)) == x


def test_rho_32_bit_agrees_with_bsgs():
    params = gen_group_params(32, seed=4)
    rng = random.Random(3)
    for trial in range(5):
        x = rng.randrange(params.q)
        inst = make_instance(params, x)
        assert dlog_pollard_rho(inst, seed=trial) == dlog_bsgs(inst) == x


def test_cross_solver_agreement_small(g23):
    params12 = gen_group_params(12, seed=6)
    rng = random.Random(5)
    for params in (g23, params12):
        for _ in range(60):
            x = rng.randrange(params.q)
            inst = make_instance(params, x)
            assert dlog_bruteforce(inst) == dlog_bsgs(inst) == dlog_pollard_rho(inst, 1) == x


def test_bsgs_multiplication_budget():
    for q_bits, seed in ((4, 7), (10, 8), (16, 9)):
        params = gen_group_params(q_bits, seed)
        bound = 2 * math.isqrt(params.q - 1) + 2 + 4  # 2*ceil(sqrt(q)) + 4
        rng = random.Random(seed)
        for _ in range(20):
            stats = {}
            x = rng.randrange(params.q)
            assert dlog_bsgs(make_instance(params, x), stats=stats) == x
            assert stats["mults"] <= bound


def counting_group(q_bits, seed):
    """gen_group_params(q_bits, seed) with a modulus that counts the reductions
    mod P made by it, one per group multiplication; returns (params, counts)."""
    counts = [0]

    class CountingModulus(int):
        def __rmod__(self, other):
            counts[0] += 1
            return other % int(self)

    plain = gen_group_params(q_bits, seed)
    return GroupParams(CountingModulus(plain.modulus), plain.q, plain.generator), counts


def test_bsgs_reuses_baby_steps_per_generator():
    params = gen_group_params(20, seed=31)
    other = gen_group_params(20, seed=32)
    g = generator_element(params)
    bases = (g, g, g_pow(g, 3), g_pow(g, 3), generator_element(other), g)
    rng = random.Random(14)
    prev = None
    for base in bases:
        q = base.params.q
        m = math.isqrt(q - 1) + 1
        x = rng.randrange(q)
        stats = {}
        assert dlog_bsgs(DlogInstance(base, g_pow(base, x)), stats=stats) == x
        if prev is None:
            assert stats["mults"] <= 2 * m + 4
        elif base == prev:  # the table of the previous call is reused
            assert stats["mults"] <= m
        else:  # another generator or modulus: the table is built again
            assert m <= stats["mults"] <= 2 * m + 4
        prev = base


def test_rho_multiplication_budget():
    # the r-adding walk with Brent's cycle finding averages about 2.1*sqrt(q)
    # group multiplications per solve; the mod-3 walk with Floyd's about 4.1*sqrt(q)
    params, counts = counting_group(24, seed=1)
    rng = random.Random(13)
    trials = 200
    total = 0
    for trial in range(trials):
        x = rng.randrange(params.q)
        inst = make_instance(params, x)
        counts[0] = 0
        assert dlog_pollard_rho(inst, seed=trial) == x
        total += counts[0]
    assert total / trials <= 3 * math.sqrt(params.q)


def test_rho_fixed_seed_repeats():
    params, counts = counting_group(24, seed=1)
    inst = make_instance(params, 1234567)
    runs = []
    for _ in range(2):
        counts[0] = 0
        runs.append((dlog_pollard_rho(inst, seed=5), counts[0]))
    assert runs[0] == runs[1]
    assert runs[0][0] == 1234567


@pytest.mark.parametrize("modulus, q, gen", [(11, 5, 4), (23, 11, 2)])
def test_rho_matches_bruteforce_tiny_groups(modulus, q, gen):
    # degenerate collisions and restarts are common at tiny q
    params = GroupParams(modulus, q, gen)
    g = generator_element(params)
    for base in (g_pow(g, k) for k in range(1, q)):
        for x in range(q):
            inst = DlogInstance(base, g_pow(base, x))
            want = dlog_bruteforce(inst)
            for seed in range(21):
                assert dlog_pollard_rho(inst, seed) == want


def test_fdlog_solve_worked_example(g23, f121):
    g = generator_element(g23)
    base = scalar_embed(g, fe(f121, [1, 2]))  # (2, 4)
    target = fusion_pow(base, fe(f121, [3, 5]))  # (16, 1)
    inst = FdlogInstance(base, target)
    assert fdlog_solve(inst, dlog_bruteforce).coeffs == (3, 5)
    assert fdlog_bruteforce(inst).coeffs == (3, 5)


def test_fdlog_trivial_targets(g23, f121):
    g = generator_element(g23)
    base = scalar_embed(g, fe(f121, [1, 2]))
    assert fdlog_solve(FdlogInstance(base, base), dlog_bruteforce) == fe_one(f121)
    ident = fb_identity(g23, f121)
    assert fdlog_solve(FdlogInstance(base, ident), dlog_bruteforce) == fe_zero(f121)
    assert fdlog_bruteforce(FdlogInstance(base, base)) == fe_one(f121)


def test_fdlog_instance_rejects_identity_base(g23, f121):
    ident = fb_identity(g23, f121)
    with pytest.raises(IdentityBase):
        FdlogInstance(ident, ident)


def test_fdlog_solve_oracle_swappable(g23, f121):
    rng = random.Random(10)
    g = generator_element(g23)
    for _ in range(30):
        base = scalar_embed(g, fe_random(f121, rng, nonzero=True))
        x = fe_random(f121, rng)
        inst = FdlogInstance(base, fusion_pow(base, x))
        assert (
            fdlog_solve(inst, dlog_bruteforce)
            == fdlog_solve(inst, dlog_bsgs)
            == fdlog_solve(inst, lambda i: dlog_pollard_rho(i, 2))
            == x
        )


def test_fdlog_solve_counts_two_n_oracle_calls(g23, q11_fields):
    g = generator_element(g23)
    rng = random.Random(11)
    for n in (1, 2, 3):
        params = q11_fields[n]
        calls = 0

        def counting(inst):
            nonlocal calls
            calls += 1
            return dlog_bruteforce(inst)

        base = scalar_embed(g, fe_random(params, rng, nonzero=True))
        x = fe_random(params, rng)
        fdlog_solve(FdlogInstance(base, fusion_pow(base, x)), counting)
        assert calls == 2 * n


def test_fdlog_bruteforce_cap(g23, f121):
    g = generator_element(g23)
    base = scalar_embed(g, fe(f121, [1, 2]))
    inst = FdlogInstance(base, base)
    with pytest.raises(CapExceeded):
        fdlog_bruteforce(inst, cap=100)


def test_fdlog_bruteforce_cap_is_inclusive(g23, f121):
    g = generator_element(g23)
    base = scalar_embed(g, fe(f121, [1, 2]))
    target = fusion_pow(base, fe(f121, [10, 10]))  # the last candidate scanned
    assert fdlog_bruteforce(FdlogInstance(base, target), cap=121) == fe(f121, [10, 10])
    with pytest.raises(CapExceeded):
        fdlog_bruteforce(FdlogInstance(base, target), cap=120)


def test_fdlog_bruteforce_exhaustive_roundtrip(g23, f121):
    # every exponent, for a full tuple base and for one with an identity component
    g = generator_element(g23)
    for base in (scalar_embed(g, fe(f121, [3, 7])), scalar_embed(g, fe(f121, [0, 5]))):
        for coeffs in itertools.product(range(11), repeat=2):
            x = fe(f121, coeffs)
            assert fdlog_bruteforce(FdlogInstance(base, fusion_pow(base, x))) == x


def test_fdlog_bruteforce_agrees_with_solve_degree_three(g23, q11_fields):
    params = q11_fields[3]
    g = generator_element(g23)
    rng = random.Random(12)
    for _ in range(10):
        base = scalar_embed(g, fe_random(params, rng, nonzero=True))
        inst = FdlogInstance(base, fusion_pow(base, fe_random(params, rng)))
        assert fdlog_bruteforce(inst) == fdlog_solve(inst, dlog_bsgs)


def test_fdlog_solve_exhaustive_small_degrees(g23, q11_fields):
    g = generator_element(g23)
    for n in (1, 2, 3):
        params = q11_fields[n]
        base = scalar_embed(g, fe_random(params, random.Random(n), nonzero=True))
        for coeffs in itertools.product(range(11), repeat=n):
            x = fe(params, coeffs)
            inst = FdlogInstance(base, fusion_pow(base, x))
            assert fdlog_solve(inst, dlog_bruteforce) == x


def test_fdlog_solve_random_larger_group():
    params = gen_group_params(16, seed=21)
    fld_params = make_field_params(params.q, 2, find_irreducible(params.q, 2, seed=1))
    g = generator_element(params)
    rng = random.Random(22)
    for _ in range(1000):
        base = scalar_embed(g, fe_random(fld_params, rng, nonzero=True))
        x = fe_random(fld_params, rng)
        inst = FdlogInstance(base, fusion_pow(base, x))
        assert fdlog_solve(inst, dlog_bsgs) == x


def test_fdlog_degree_one_matches_scalar(g23, q11_fields):
    params = q11_fields[1]
    g = generator_element(g23)
    for w in range(1, 11):
        base = scalar_embed(g_pow(g, w), fe_one(params))
        for x in range(11):
            target = fusion_pow(base, fe(params, [x]))
            got = fdlog_bruteforce(FdlogInstance(base, target))
            assert got.coeffs == (x,)


def test_rho_rejects_tiny_group(g7):
    g = generator_element(g7)
    with pytest.raises(ValueError):
        dlog_pollard_rho(DlogInstance(g, g), seed=0)
