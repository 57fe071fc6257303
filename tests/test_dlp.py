import concurrent.futures
import itertools
import math
import random
import sys
import time
import tracemalloc

import pytest

import fusionexp
import fusionexp.dlp as dlp
import helpers
from fusionexp import (
    CapExceeded,
    DlogInstance,
    FdlogInstance,
    GroupElement,
    GroupParams,
    IdentityBase,
    NotFound,
    dlog_bruteforce,
    dlog_bsgs,
    dlog_pollard_rho,
    fdlog_bruteforce,
    fdlog_solve,
    fe,
    fe_inv,
    fe_mul,
    fe_pow,
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
from fusionexp.group import pow_sm


@pytest.fixture(autouse=True)
def fresh_solver_caches():
    # the baby-step table and rho's store of known points outlive a call, and
    # helpers.CountingModulus hashes and compares equal to its plain P, so
    # without this a counted budget would depend on which test ran first
    dlp._kept.cache_clear()


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


def test_bruteforce_cap(g23, monkeypatch):
    inst = make_instance(g23, 5)
    monkeypatch.setattr(dlp, "BRUTE_CAP", 10)  # cap below q = 11
    with pytest.raises(CapExceeded):
        dlog_bruteforce(inst)
    monkeypatch.setattr(dlp, "BRUTE_CAP", 11)  # cap at q: the scan runs
    assert dlog_bruteforce(inst) == 5


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
    """gen_group_params(q_bits, seed) with a helpers.CountingModulus modulus,
    which counts one reduction mod P per group multiplication."""
    plain = gen_group_params(q_bits, seed)
    return GroupParams(helpers.CountingModulus(plain.modulus), plain.q, plain.generator)


def mults_of(call, *args):
    """call(*args) and the group multiplications it made on a counting_group."""
    helpers.CountingModulus.reductions = 0
    out = call(*args)
    return out, helpers.CountingModulus.reductions


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
    # the distinguished-point walk averages about 1.35*sqrt(q) group
    # multiplications per solve on an empty store (each trial has a seed of
    # its own); the mod-3 walk with Floyd's about 4.1*sqrt(q)
    params = counting_group(24, seed=1)
    rng = random.Random(13)
    trials = 200
    total = 0
    for trial in range(trials):
        x = rng.randrange(params.q)
        got, mults = mults_of(dlog_pollard_rho, make_instance(params, x), trial)
        assert got == x
        total += mults
    assert total / trials <= 3 * math.sqrt(params.q)


def test_rho_fixed_seed_repeats():
    # from an empty store, one seed repeats the same work
    params = counting_group(24, seed=1)
    inst = make_instance(params, 1234567)
    runs = []
    for _ in range(2):
        dlp._kept.cache_clear()
        runs.append(mults_of(dlog_pollard_rho, inst, 5))
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


def tuple_of(group, field, residues):
    """A FusionBase built without the subgroup check of group_element."""
    return fusionexp.FusionBase(group, field, tuple(GroupElement(group, r) for r in residues))


def test_fdlog_instance_rejects_components_outside_the_subgroup(g23, f121):
    # 22 = -1 and 5 are not squares mod 23: no exponent maps a base onto a
    # target with such a component, and the base (1, 22) has every component
    # of base**X equal to 1, so the exhaustive scan finds no component to scan
    ok = tuple_of(g23, f121, (2, 4))
    cases = [((1, 22), (1, 22)), ((2, 4), (5, 4)), ((5, 4), (2, 4))]
    for base, target in cases:
        with pytest.raises(ValueError, match="not in the order-11 subgroup"):
            FdlogInstance(tuple_of(g23, f121, base), tuple_of(g23, f121, target))
    assert fdlog_bruteforce(FdlogInstance(ok, ok)) == fe_one(f121)


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
    # the oracle sees 2n instances against the generator, each with batch
    # 2n: the base's components first, then the target's
    g = generator_element(g23)
    rng = random.Random(11)
    for n in (1, 2, 3):
        params = q11_fields[n]
        seen = []

        def recording(inst):
            seen.append(inst)
            return dlog_bruteforce(inst)

        base = scalar_embed(g, fe_random(params, rng, nonzero=True))
        x = fe_random(params, rng)
        target = fusion_pow(base, x)
        assert fdlog_solve(FdlogInstance(base, target), recording) == x
        comps = base.components + target.components
        assert seen == [DlogInstance(g, c, 2 * n) for c in comps]


def test_fdlog_bruteforce_cap(g23, f121, monkeypatch):
    g = generator_element(g23)
    base = scalar_embed(g, fe(f121, [1, 2]))
    inst = FdlogInstance(base, base)
    monkeypatch.setattr(dlp, "FUSION_BRUTE_CAP", 100)
    with pytest.raises(CapExceeded):
        fdlog_bruteforce(inst)


def test_fdlog_bruteforce_cap_is_inclusive(g23, f121, monkeypatch):
    g = generator_element(g23)
    base = scalar_embed(g, fe(f121, [1, 2]))
    target = fusion_pow(base, fe(f121, [10, 10]))  # the last candidate scanned
    monkeypatch.setattr(dlp, "FUSION_BRUTE_CAP", 121)
    assert fdlog_bruteforce(FdlogInstance(base, target)) == fe(f121, [10, 10])
    monkeypatch.setattr(dlp, "FUSION_BRUTE_CAP", 120)
    with pytest.raises(CapExceeded):
        fdlog_bruteforce(FdlogInstance(base, target))


def last_step(base):
    """H_{n-1} = base**X^(n-1), the step of the fastest digit."""
    n = base.field.n
    return fusion_pow(base, fe(base.field, [int(i == n - 1) for i in range(n)]))


def draw_base(g, field, rng, kind):
    """A base at n >= 2 of one of three kinds: 'full' (no component is 1),
    'identity' (one component is 1), or 'off_zero' (full, but H_{n-1} has
    component 0 at 1, so that the fastest digit is scanned on a later one)."""
    n = field.n
    x_last = fe_pow(fe(field, [0, 1] + [0] * (n - 2)), n - 1)
    while True:
        if kind == "off_zero":
            # H_{n-1} = g**(w * X^(n-1)) componentwise, so pick w * X^(n-1)
            v = fe(field, [0] + [rng.randrange(1, field.q) for _ in range(n - 1)])
            w = fe_mul(v, fe_inv(x_last))
        else:
            coeffs = [rng.randrange(1, field.q) for _ in range(n)]
            if kind == "identity":
                coeffs[rng.randrange(n)] = 0
            w = fe(field, coeffs)
        if kind == "identity" or all(w.coeffs):
            return scalar_embed(g, w)


def test_fdlog_bruteforce_exhaustive_roundtrip(g23, f121):
    # every exponent, against the odometer, for a full tuple base, one with an
    # identity component, and one whose last step H_1 has component 0 at 1, so
    # that the fastest digit is scanned on component 1
    g = generator_element(g23)
    bases = [scalar_embed(g, fe(f121, w)) for w in ([3, 7], [0, 5], [5, 0])]
    assert [last_step(b).components[0].residue == 1 for b in bases] == [False, False, True]
    for base in bases:
        for coeffs in itertools.product(range(11), repeat=2):
            x = fe(f121, coeffs)
            inst = FdlogInstance(base, fusion_pow(base, x))
            assert fdlog_bruteforce(inst) == helpers.odometer_fdlog(inst) == x


def test_fdlog_bruteforce_agrees_with_solve_degree_three(g23, q11_fields):
    params = q11_fields[3]
    g = generator_element(g23)
    rng = random.Random(12)
    for _ in range(10):
        base = scalar_embed(g, fe_random(params, rng, nonzero=True))
        inst = FdlogInstance(base, fusion_pow(base, fe_random(params, rng)))
        assert fdlog_bruteforce(inst) == fdlog_solve(inst, dlog_bsgs)


@pytest.mark.parametrize("n, count", [(3, 60), (4, 15)])
def test_fdlog_bruteforce_agrees_with_odometer_on_random_instances(g23, q11_fields, n, count):
    field = q11_fields[n]
    g = generator_element(g23)
    rng = random.Random(30 + n)
    for i in range(count):
        kind = ("full", "identity", "off_zero")[i % 3]
        base = draw_base(g, field, rng, kind)
        if kind == "off_zero":
            assert last_step(base).components[0].residue == 1
        x = fe_random(field, rng)
        inst = FdlogInstance(base, fusion_pow(base, x))
        assert fdlog_bruteforce(inst) == helpers.odometer_fdlog(inst) == x


def test_fdlog_bruteforce_keeps_no_table():
    # at n = 1 and a 20-bit q the scan runs over q exponents one multiply
    # each; a table of the 50,000 it passes here would take MB, the scan
    # itself a few kB
    q = 898_409
    params = GroupParams(2 * q + 1, q, 4)
    field = make_field_params(q, 1, [0])
    base = scalar_embed(generator_element(params), fe_one(field))
    x = fe(field, [50_000])
    inst = FdlogInstance(base, fusion_pow(base, x))
    tracemalloc.start()
    try:
        assert fdlog_bruteforce(inst) == x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


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
            inst = FdlogInstance(base, fusion_pow(base, fe(params, [x])))
            got = fdlog_bruteforce(inst)
            assert got.coeffs == (x,) and got == helpers.odometer_fdlog(inst)


def test_rho_rejects_tiny_group(g7):
    g = generator_element(g7)
    with pytest.raises(ValueError):
        dlog_pollard_rho(DlogInstance(g, g), seed=0)


@pytest.mark.parametrize("batch", [1, 3], ids=["lone", "batched"])
@pytest.mark.parametrize("solver", [dlog_bsgs, dlog_pollard_rho])
def test_square_root_solvers_raise_not_found_outside_subgroup(g23, solver, batch):
    # 5 is not a square mod 23, so no power of g reaches it; the giant steps
    # run out for BSGS, and rho's step budget bounds its walks
    g = generator_element(g23)
    with pytest.raises(NotFound):
        solver(DlogInstance(g, GroupElement(g23, 5), batch))
    # the failed target leaves the kept table and walk sound
    assert solver(DlogInstance(g, GroupElement(g23, 13), batch)) == 7


# ---------------------------------------------------------------------------
# Batched instances: the 2n targets of fdlog_solve share one baby-step table
# and one distinguished-point rho walk
# ---------------------------------------------------------------------------


def batch_of(base, xs):
    """One DlogInstance per x, each counting all len(xs) targets as its batch."""
    return [DlogInstance(base, g_pow(base, x), len(xs)) for x in xs]


def assert_batch_solved(base, xs, seed):
    for inst in batch_of(base, xs):
        want = dlog_bruteforce(inst)
        assert dlog_bsgs(inst) == want
        assert dlog_pollard_rho(inst, seed) == want


@pytest.mark.parametrize("modulus, q, gen", [(11, 5, 4), (23, 11, 2)])
def test_batched_solvers_match_bruteforce_tiny_groups(modulus, q, gen):
    # every point is distinguished at this size, and every x is a target
    params = GroupParams(modulus, q, gen)
    g = generator_element(params)
    for base in (g_pow(g, k) for k in range(1, q)):
        for seed in range(21):
            rng = random.Random(seed)
            every_x = rng.sample(range(q), q)
            assert_batch_solved(base, every_x, seed)
            assert_batch_solved(base, [rng.randrange(q) for _ in range(8)], seed)


def test_batched_solvers_match_bruteforce_8_to_16_bits():
    for q_bits in range(8, 17):
        params = gen_group_params(q_bits, seed=q_bits)
        g = generator_element(params)
        rng = random.Random(q_bits)
        for trial in range(4):
            base = g_pow(g, rng.randrange(1, params.q))
            xs = [rng.randrange(params.q) for _ in range(2 * (trial + 1))]
            assert_batch_solved(base, xs, seed=trial)


def test_batched_solvers_duplicates_and_identity(g23):
    params = gen_group_params(16, seed=3)
    for group in (g23, params):
        g = generator_element(group)
        x = 7
        # y = 1 first, so it opens the shared walk; repeats of y and of 1
        for xs in ([0, x, x, 0], [x, 0, x, 0, 0], [x] * 6, [0] * 4):
            for seed in range(5):
                assert_batch_solved(g, xs, seed)


def test_batched_rho_survives_cut_walks(monkeypatch):
    # one expected walk length as the cap: about a third of the walks are cut off
    monkeypatch.setattr(dlp, "_DP_WALK_CAP", 1)
    params = gen_group_params(20, seed=5)
    g = generator_element(params)
    rng = random.Random(6)
    for seed in range(3):
        xs = [rng.randrange(params.q) for _ in range(6)]
        for inst, x in zip(batch_of(g, xs), xs):
            assert dlog_pollard_rho(inst, seed) == x


def test_lone_rho_call_feeds_the_batch_store():
    # lone and batched calls on one (P, g, seed) walk on one store: a lone
    # call between batched calls adds its ends to the points the batch
    # left, and the rest of the batch keeps them all
    params = gen_group_params(24, seed=1)
    g = generator_element(params)
    rng = random.Random(16)
    xs = [rng.randrange(params.q) for _ in range(8)]
    insts = batch_of(g, xs)
    assert dlog_pollard_rho(insts[0], 3) == xs[0]
    first = dict(rho_store(params, 3))
    assert dlog_pollard_rho(make_instance(params, 7654321), 3) == 7654321
    after_lone = dict(rho_store(params, 3))
    assert first.items() < after_lone.items()
    for inst, x in zip(insts[1:], xs[1:]):
        assert dlog_pollard_rho(inst, 3) == x
    assert after_lone.items() < rho_store(params, 3).items()
    assert_store_sound(params, 3)


def test_batch_must_hold_the_target(g23):
    # batch counts the targets solved together, the instance's own among
    # them: a lone instance counts 1, and a count below that is refused
    g = generator_element(g23)
    y = GroupElement(g23, 13)
    assert DlogInstance(g, y).batch == 1
    for count in (0, -1):
        with pytest.raises(ValueError):
            DlogInstance(g, y, count)


def test_list_batch_is_stored_as_a_tuple(g23):
    # an instance is a hashable value, so its batch is a plain int count:
    # a sequence of residues (a list or a tuple) is refused, not stored
    g = generator_element(g23)
    y = GroupElement(g23, 13)
    for not_a_count in ([13, 2, 4], (13, 2, 4), 1.5):
        with pytest.raises(TypeError):
            DlogInstance(g, y, not_a_count)
    inst = DlogInstance(g, y, 3)
    assert inst == DlogInstance(g, y, batch=3)
    assert hash(inst) == hash(DlogInstance(g, y, batch=3))
    assert dlog_pollard_rho(inst, 1) == dlog_bruteforce(inst) == 7


def test_bsgs_batch_table_serves_lone_calls():
    params = gen_group_params(20, seed=33)
    g = generator_element(params)
    q = params.q
    wide = math.isqrt(8 * q - 1) + 1  # ceil(sqrt(8q))
    rng = random.Random(15)
    xs = [rng.randrange(q) for _ in range(8)]
    stats = {}
    insts = batch_of(g, xs)
    assert dlog_bsgs(insts[0], stats) == xs[0]
    assert wide <= stats["mults"] <= wide + -(-q // wide) + 1
    # a lone call, then the rest of the batch: no table is built again
    for inst, x in [(make_instance(params, 5), 5)] + list(zip(insts[1:], xs[1:])):
        assert dlog_bsgs(inst, stats) == x
        assert stats["mults"] <= -(-q // wide)
    # a larger batch needs a wider table: only the missing entries are added
    new = math.isqrt(16 * q - 1) + 1
    assert dlog_bsgs(batch_of(g, xs * 2)[0], stats) == xs[0]
    assert new - wide <= stats["mults"] <= new - wide + -(-q // new) + 1


def test_bsgs_wider_batch_adds_only_the_missing_entries():
    params = gen_group_params(20, seed=34)
    g = generator_element(params)
    q = params.q
    narrow, wide = math.isqrt(q - 1) + 1, math.isqrt(8 * q - 1) + 1
    stats = {}
    assert dlog_bsgs(make_instance(params, 3), stats) == 3
    assert len(kept_for(params).table) == narrow
    assert dlog_bsgs(batch_of(g, [5] * 8)[0], stats) == 5
    assert len(kept_for(params).table) == wide
    assert wide - narrow <= stats["mults"] <= wide - narrow + -(-q // wide)


class SlowToGrow(dict):
    """A baby-step table that counts the entries offered to it and pauses now
    and then while it grows, so other threads walk on it with an older width
    before the new one is published, or try to grow it themselves."""

    offered = 0

    def setdefault(self, key, j):
        self.offered += 1
        if j % 256 == 0:
            time.sleep(0.0005)
        return super().setdefault(key, j)


def solve_bsgs(insts_and_xs):
    for inst, x in insts_and_xs:
        assert dlog_bsgs(inst) == x


def test_bsgs_table_grown_by_threads():
    # 4 threads solve lone, batch-8 and batch-16 targets in their own
    # orders against one generator, on one table that grows under them, by
    # batch size and by the giant steps walked, up to the cap; each entry
    # is computed once
    params = gen_group_params(24, seed=1)
    g, q, P = generator_element(params), params.q, params.modulus
    kept = kept_for(params)
    kept.table = SlowToGrow()
    work = []
    for t in range(4):
        rng = random.Random(60 + t)
        jobs = []
        for batch in rng.sample([1, 8, 16] * 10, 30):
            x = rng.randrange(q)
            jobs.append((DlogInstance(g, g_pow(g, x), batch), x))
        work.append(jobs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve_bsgs, jobs) for jobs in work]
            for future in futures:
                future.result(timeout=60)  # re-raises a failed assert
    finally:
        sys.setswitchinterval(interval)
    # ceil(sqrt(16q)) = 13,348 < the cap: the last growth was by steps walked
    assert math.isqrt(16 * q - 1) + 1 < dlp._GROWN_WIDTH
    width = dlp._GROWN_WIDTH
    assert kept.steps[0] == width == kept.table.offered
    assert sorted(kept.table.values()) == list(range(width))
    for key, j in kept.table.items():
        assert pow_sm(params.generator, j, P) == key


def counting_tuple_instances(q_bits, n, count, seed):
    """Tuple-dlog instances of degree n on counting_group(q_bits, seed):
    returns ([(instance, exponent)], q)."""
    params = counting_group(q_bits, seed)
    fld = make_field_params(params.q, n, find_irreducible(params.q, n, seed=1))
    g = generator_element(params)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        base = scalar_embed(g, fe_random(fld, rng, nonzero=True))
        x = fe_random(fld, rng)
        out.append((FdlogInstance(base, fusion_pow(base, x)), x))
    return out, params.q


def warm_table(params, L, seed):
    """Solve batches of L random targets against params' generator until the
    kept table stops growing; returns its final width."""
    g = generator_element(params)
    q = params.q
    final = min(q, max(dlp._GROWN_WIDTH, math.isqrt(L * q - 1) + 1))
    rng = random.Random(seed)
    for _ in range(100_000):
        if kept_for(params).steps[0] == final:
            return final
        x = rng.randrange(q)
        assert dlog_bsgs(DlogInstance(g, g_pow(g, x), L)) == x
    raise AssertionError("the table never reached its final width")


def test_fdlog_solve_batched_budgets():
    # the dlog benchmark workload's group: q = 11,135,009, n = 4, L = 2n = 8
    instances, q = counting_tuple_instances(24, 4, 40, seed=1)
    assert q == 11_135_009
    L = 8
    group = instances[0][0].base.group
    W = warm_table(group, L, seed=2)  # the table is grown here, not below
    kept = kept_for(group)
    stats = {}
    giant = []
    rho = []

    def bsgs(inst):
        out = dlog_bsgs(inst, stats)
        giant[-1] += stats["mults"]
        return out

    for inst, x in instances:
        giant.append(0)
        assert fdlog_solve(inst, bsgs) == x
        assert giant[-1] <= L * (-(-q // W) + 1)
        kept.walk = None  # each batch starts on an empty rho store; the table stays
        got, mults = mults_of(fdlog_solve, inst, dlog_pollard_rho)
        assert got == x
        rho.append(mults)
    assert kept.steps[0] == W
    # a target takes about q/(2W) giant steps on a table W wide
    expected = L * q / (2 * W)
    assert 0.85 * expected <= sum(giant) / len(giant) <= 1.15 * expected
    # a cold batch of eight targets takes about 4.4 * sqrt(q), where eight
    # solves each on an empty store would take about 8 * 1.35 * sqrt(q); a
    # batch on a warm store costs far less (test_rho_store_steady_state_budget)
    assert sum(rho) / len(rho) <= 6 * math.sqrt(q)


@pytest.mark.parametrize("q_bits, seed", [(16, 36), (20, 37)])
def test_bsgs_grows_by_steps_walked_up_to_the_cap(q_bits, seed):
    # batches of 8 with lone calls among them, until the table stops
    # growing: every answer is right on the grown table, the width stays
    # within the cap, a batched call doubles the table (up to the cap)
    # exactly when the giant steps that batched calls walked since it last
    # grew exceed the entries the growth adds, so no growth adds more
    params = gen_group_params(q_bits, seed)
    g, q = generator_element(params), params.q
    L = 8
    first = math.isqrt(L * q - 1) + 1
    final = min(q, max(dlp._GROWN_WIDTH, first))
    assert first < final  # the table does grow by steps walked
    kept = kept_for(params)
    rng = random.Random(seed)
    walked = 0  # giant steps of batched calls since the table last grew
    stats = {}
    calls = 0
    while kept.steps[0] < final:
        calls += 1
        assert calls < 100_000
        x = rng.randrange(q)
        lone = calls % 32 == 0
        inst = make_instance(params, x) if lone else DlogInstance(g, g_pow(g, x), L)
        before = kept.steps[0]
        assert dlog_bsgs(inst, stats) == x
        width = kept.steps[0]
        added = width - before
        assert width <= max(dlp._GROWN_WIDTH, first)
        if lone:
            assert added == 0 and stats["mults"] <= -(-q // width)
            assert dlog_bruteforce(inst) == x
            continue
        if before == 0:
            assert width == first
        else:
            grown = min(2 * before, final)
            assert (added > 0) == (walked > grown - before)
            if added:
                assert width == grown
                assert added <= walked
        if added:
            walked = 0
        walked += stats["mults"] - added
    for x in rng.sample(range(q), 20):
        inst = DlogInstance(g, g_pow(g, x), L)
        assert dlog_bsgs(inst) == dlog_bruteforce(inst) == x
    assert kept.steps[0] == final


def test_bsgs_table_is_final_after_two_batches():
    # at the dlog benchmark's q a cold table grows to the cap within the
    # second batch of 8, so every later tuple dlog does the same work on it
    params = gen_group_params(24, seed=1)
    g, q = generator_element(params), params.q
    first = math.isqrt(8 * q - 1) + 1
    assert first < dlp._GROWN_WIDTH < 2 * first
    for seed in range(5):
        dlp._kept.cache_clear()
        rng = random.Random(seed)
        for _ in range(16):
            x = rng.randrange(q)
            assert dlog_bsgs(DlogInstance(g, g_pow(g, x), 8)) == x
        assert kept_for(params).steps[0] == dlp._GROWN_WIDTH


def test_bsgs_lone_calls_never_widen_the_table():
    params = gen_group_params(16, seed=38)
    g, q = generator_element(params), params.q
    assert dlog_bsgs(batch_of(g, [7] * 8)[0]) == 7
    kept = kept_for(params)
    width = kept.steps[0]
    assert width == math.isqrt(8 * q - 1) + 1
    rng = random.Random(16)
    for _ in range(1000):
        x = rng.randrange(q)
        assert dlog_bsgs(make_instance(params, x)) == x
    assert kept.steps[0] == len(kept.table) == width
    assert kept.walked <= -(-q // width)  # only the batched call's steps count


def test_bsgs_refuses_a_table_wider_than_the_cap():
    # ceil(sqrt(q)) = 2^32 baby steps at 64-bit q: refused before any is built
    params = gen_group_params(64, seed=1)
    g = generator_element(params)
    for batch in (1, 8):
        with pytest.raises(CapExceeded):
            dlog_bsgs(DlogInstance(g, g_pow(g, 12345), batch))
    assert dlp._kept.cache_info().currsize == 0


def test_bsgs_batch_width_is_capped(monkeypatch):
    # a batch may ask for more than the cap; the table stops at it
    params = gen_group_params(20, seed=39)
    g, q = generator_element(params), params.q
    lone = math.isqrt(q - 1) + 1
    monkeypatch.setattr(dlp, "BRUTE_CAP", lone + 10)
    rng = random.Random(17)
    xs = [rng.randrange(q) for _ in range(8)]
    for inst, x in zip(batch_of(g, xs), xs):
        assert dlog_bsgs(inst) == x
    assert kept_for(params).steps[0] == len(kept_for(params).table) == lone + 10
    monkeypatch.setattr(dlp, "BRUTE_CAP", lone - 1)
    with pytest.raises(CapExceeded):
        dlog_bsgs(make_instance(params, 5))
    # a cap at ceil(sqrt(q)) still holds a lone table
    monkeypatch.setattr(dlp, "BRUTE_CAP", lone)
    dlp._kept.cache_clear()
    assert dlog_bsgs(make_instance(params, 5)) == 5
    assert kept_for(params).steps[0] == lone


@pytest.mark.parametrize("modulus, q, gen, batch, width", [
    (11, 5, 4, 2, 4),  # batch * q = 10, one above a square
    (23, 11, 2, 9, 10),  # batch * q = 99, one below a square
])
def test_bsgs_table_is_ceil_sqrt_batch_q_wide(modulus, q, gen, batch, width):
    params = GroupParams(modulus, q, gen)
    g = generator_element(params)
    stats = {}
    # on a cold table, a target at j = 0 costs exactly the table's entries
    assert dlog_bsgs(DlogInstance(g, identity(params), batch), stats) == 0
    assert stats["mults"] == width == kept_for(params).steps[0]
    # g^width is one giant step away, which a batched call counts as walked
    assert dlog_bsgs(DlogInstance(g, g_pow(g, width), batch), stats) == width
    assert stats["mults"] == kept_for(params).walked == 1


# ---------------------------------------------------------------------------
# The rho store: points of known log kept per (P, g, seed) across batches
# ---------------------------------------------------------------------------


def rho_batches(params, count, seed, lone=False):
    """count batches of 8 random targets against the generator: [[(instance, x)]];
    with lone, every instance is a lone one (batch 1)."""
    g = generator_element(params)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        xs = [rng.randrange(params.q) for _ in range(8)]
        insts = [make_instance(params, x) for x in xs] if lone else batch_of(g, xs)
        out.append(list(zip(insts, xs)))
    return out


def solve_batches(batches, seed):
    for batch in batches:
        for inst, x in batch:
            assert dlog_pollard_rho(inst, seed) == x


def kept_for(params):
    """The precomputation the scalar solvers keep for params' generator."""
    return dlp._kept(params.modulus, params.q, params.generator)


def rho_store(params, seed):
    """The store of known points that rho keeps for (params, seed)."""
    walk = kept_for(params).walk
    assert walk[0] == seed
    return walk[3]


def assert_store_sound(params, seed):
    points = rho_store(params, seed)
    assert points
    for point, log in points.items():
        assert 0 <= log < params.q
        assert pow_sm(params.generator, log, params.modulus) == point


def test_rho_store_outlives_the_batch_and_stays_sound():
    params = gen_group_params(20, seed=5)
    batches = rho_batches(params, 12, seed=40)
    solve_batches(batches[:1], seed=2)
    first = dict(rho_store(params, 2))
    solve_batches(batches[1:], seed=2)
    points = rho_store(params, 2)
    assert first.items() <= points.items() and len(points) > len(first)
    assert_store_sound(params, 2)


def test_rho_store_stops_at_the_cap():
    params = gen_group_params(24, seed=1)
    assert params.q == 11_135_009
    batches = rho_batches(params, 500, seed=41)
    solve_batches(batches[:400], seed=0)
    assert len(rho_store(params, 0)) <= dlp._KNOWN_POINTS
    solve_batches(batches[400:], seed=0)  # the store fills at about batch 450
    assert len(rho_store(params, 0)) == dlp._KNOWN_POINTS
    assert_store_sound(params, 0)


def test_rho_gives_up_after_its_walk_budget(g23):
    # at q = 11 every point is distinguished (dp_bits = 0), so a walk is one
    # draw of its start (a, b) and no step; 5 is outside the subgroup, so
    # its target is given up after exactly 1024 * (isqrt(11) + 1) walks,
    # counted here through the walk's random stream after the 20 logs of
    # the multipliers
    g = generator_element(g23)
    with pytest.raises(NotFound):
        dlog_pollard_rho(DlogInstance(g, GroupElement(g23, 5)), seed=3)
    want = random.Random(3)
    for _ in range(20):
        want.randrange(11)
    for _ in range(1024 * (math.isqrt(11) + 1)):
        want.randrange(11), want.randrange(1, 11)
    assert kept_for(g23).walk[4].getstate() == want.getstate()


def test_rho_store_survives_a_target_outside_the_subgroup(g23):
    # 5 is not a square mod 23: its walks give no log, so none of their ends
    # joins the store, and the next batches are solved as before
    g = generator_element(g23)
    solve_batches(rho_batches(g23, 2, seed=42), seed=1)
    with pytest.raises(NotFound):
        dlog_pollard_rho(DlogInstance(g, GroupElement(g23, 5), 3), 1)
    assert_store_sound(g23, 1)
    solve_batches(rho_batches(g23, 20, seed=43), seed=1)
    assert_store_sound(g23, 1)


class SlowToCount(dict):
    """A store that pauses after counting its points, so other threads can
    add theirs between a size check and the additions it guards."""

    def __len__(self):
        size = super().__len__()
        time.sleep(0.001)
        return size


def test_rho_store_shared_by_threads(monkeypatch):
    # more threads than cores, each solving its own targets on one store,
    # batched and then lone; a cap the targets overrun shows whether the
    # size check and the additions stay together
    monkeypatch.setattr(dlp, "_KNOWN_POINTS", 300)
    params = gen_group_params(24, seed=1)
    assert dlog_pollard_rho(make_instance(params, 1), 3) == 1
    kept = kept_for(params)
    for lone in (False, True):
        store = SlowToCount()
        kept.walk = kept.walk[:3] + (store,) + kept.walk[4:]
        work = [rho_batches(params, 10, seed=50 + t, lone=lone) for t in range(4)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve_batches, batches, 3) for batches in work]
            for future in futures:
                future.result(timeout=60)  # re-raises a failed assert
        assert len(store) == 300
        assert_store_sound(params, 3)


def test_rho_store_steady_state_budget():
    # a cold batch of 8 takes about 4.4 * sqrt(q); after 100 batches the
    # store holds about 2,000 points and a batch costs about 0.32 * sqrt(q)
    params = counting_group(24, seed=1)
    q = params.q
    assert q == 11_135_009
    batches = rho_batches(params, 200, seed=44)
    solve_batches(batches[:100], seed=0)
    _, mults = mults_of(solve_batches, batches[100:], 0)
    assert mults / 100 <= 0.6 * math.sqrt(q)


def test_rho_lone_warm_store_budget():
    # a lone call keeps its points as a batched one does: on an empty store
    # a lone solve costs about 1.35 * sqrt(q), and after 100 lone solves
    # against one (P, g, seed) about 0.07 * sqrt(q)
    params = counting_group(24, seed=1)
    q = params.q
    assert q == 11_135_009
    rng = random.Random(46)
    xs = [rng.randrange(q) for _ in range(300)]
    targets = [(make_instance(params, x), x) for x in xs]  # built before counting
    solve_batches([targets[:100]], seed=0)
    _, mults = mults_of(solve_batches, [targets[100:]], 0)
    assert mults / 200 <= 0.3 * math.sqrt(q)


def rebind_everywhere(monkeypatch, name, make):
    """Replace dlp.<name> in every fusionexp namespace that holds it."""
    original = getattr(dlp, name)
    replacement = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "fusionexp" or mod_name.startswith("fusionexp."):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, replacement)


@pytest.mark.parametrize("name", ["dlog_bsgs", "dlog_pollard_rho"])
@pytest.mark.parametrize("mode", ["count", "wrong", "raise"])
def test_rebound_solver_sees_every_call(monkeypatch, name, mode):
    params = gen_group_params(16, seed=21)
    fld = make_field_params(params.q, 3, find_irreducible(params.q, 3, seed=1))
    g = generator_element(params)
    rng = random.Random(23)
    base = scalar_embed(g, fe_random(fld, rng, nonzero=True))
    x = fe_random(fld, rng, nonzero=True)
    inst = FdlogInstance(base, fusion_pow(base, x))
    calls = 0

    def make(original):
        def rebound(*args):
            nonlocal calls
            calls += 1
            out = original(*args)
            if calls == 1 and mode == "raise":
                raise RuntimeError("injected")
            return out + (calls == 1 and mode == "wrong")

        return rebound

    rebind_everywhere(monkeypatch, name, make)
    solver = getattr(fusionexp, name)  # looked up at call time, as the benchmark does
    if mode == "raise":
        with pytest.raises(RuntimeError):
            fdlog_solve(inst, solver)
        return
    got = fdlog_solve(inst, solver)
    assert calls == 2 * fld.n
    assert (got == x) == (mode == "count")
