import concurrent.futures
import itertools
import math
import random
import sys
import time

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
    # rho's store of known points and the baby-step table outlive a call, and
    # helpers.CountingModulus hashes and compares equal to its plain P, so
    # without this a counted budget would depend on which test ran first
    dlp._walk.cache_clear()
    dlp._baby_table = (0, 0, 0, {}, 0)


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
        dlp._walk.cache_clear()
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
    # a larger batch needs a wider table
    assert dlog_bsgs(batch_of(g, xs * 2)[0], stats) == xs[0]
    assert stats["mults"] >= math.isqrt(16 * q - 1) + 1


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


def test_fdlog_solve_batched_budgets():
    # the dlog benchmark workload's group: q = 11,135,009, n = 4, L = 2n = 8
    instances, q = counting_tuple_instances(24, 4, 40, seed=1)
    assert q == 11_135_009
    L = 8
    m = math.isqrt(L * q - 1) + 1
    stats = {}
    dlog_bsgs(batch_of(generator_element(instances[0][0].base.group), [1] * L)[0], stats)
    assert stats["mults"] >= m  # the table for L targets is built here, not below
    giant = []
    rho = []

    def bsgs(inst):
        out = dlog_bsgs(inst, stats)
        giant[-1] += stats["mults"]
        return out

    for inst, x in instances:
        giant.append(0)
        assert fdlog_solve(inst, bsgs) == x
        assert giant[-1] <= L * (-(-q // m) + 1)
        dlp._walk.cache_clear()  # each batch starts on an empty rho store
        got, mults = mults_of(fdlog_solve, inst, dlog_pollard_rho)
        assert got == x
        rho.append(mults)
    expected = L * math.sqrt(q / L) / 2
    assert 0.85 * expected <= sum(giant) / len(giant) <= 1.15 * expected
    # a cold batch of eight targets takes about 4.4 * sqrt(q), where eight
    # solves each on an empty store would take about 8 * 1.35 * sqrt(q); a
    # batch on a warm store costs far less (test_rho_store_steady_state_budget)
    assert sum(rho) / len(rho) <= 6 * math.sqrt(q)


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


def rho_store(params, seed):
    """The store of known points that rho keeps for (params, seed)."""
    return dlp._walk(params.modulus, params.q, params.generator, seed)[2]


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
    multipliers, logs, _, rng = dlp._walk(params.modulus, params.q, params.generator, 3)
    for lone in (False, True):
        store = SlowToCount()
        monkeypatch.setattr(dlp, "_walk", lambda *key: (multipliers, logs, store, rng))
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
