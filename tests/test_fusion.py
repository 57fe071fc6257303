import itertools
import math
import random
import sys
import threading

import pytest

import helpers
from fusionexp import (
    GroupElement,
    GroupParams,
    IdentityBase,
    ParamsMismatch,
    fb_identity,
    fe_add,
    fb_inv,
    fb_mul,
    fe,
    fe_mul,
    fe_one,
    fe_random,
    fe_zero,
    find_irreducible,
    fusion_pow,
    g_pow,
    gen_group_params,
    generator_element,
    identity,
    is_identity,
    make_field_params,
    scalar_embed,
    unit_embed,
)
from fusionexp import fusion
from fusionexp.fusion import FusionBase
from fusionexp.group import pow_sm
from fusionexp.primes import is_prime


def residues(base):
    return tuple(c.residue for c in base.components)


def test_scalar_embed_worked_example(g23, f121):
    g = generator_element(g23)
    assert residues(scalar_embed(g, fe(f121, [1, 2]))) == (2, 4)
    assert residues(scalar_embed(g, fe_zero(f121))) == (1, 1)
    assert residues(scalar_embed(g, fe_one(f121))) == (2, 1)


def test_scalar_embed_rejects_identity(g23, f121):
    with pytest.raises(IdentityBase):
        scalar_embed(identity(g23), fe_one(f121))


@pytest.mark.parametrize("bits", [11, 64, 256])
def test_scalar_embed_matches_square_and_multiply(bits, g23, group64, group256):
    # built-in pow against the group's own square-and-multiply, per coefficient
    group = {11: g23, 64: group64, 256: group256}[bits]
    P = group.modulus
    rng = random.Random(bits)
    for n in (1, 2, 4):
        fld = route_field(group.q, n)
        for _ in range(4):
            g = g_pow(generator_element(group), rng.randrange(1, group.q))
            x = fe_random(fld, rng)
            expected = tuple(pow_sm(g.residue, c, P) for c in x.coeffs)
            assert residues(scalar_embed(g, x)) == expected


def test_unit_embed(g23, q11_fields):
    g = generator_element(g23)
    assert residues(unit_embed(g, q11_fields[3])) == (2, 1, 1)
    assert residues(unit_embed(g, q11_fields[1])) == (2,)
    assert unit_embed(g, q11_fields[2]) == scalar_embed(g, fe_one(q11_fields[2]))


def test_fb_mul_inv(g23, f121):
    a = FusionBase(g23, f121, (GroupElement(g23, 2), GroupElement(g23, 4)))
    b = FusionBase(g23, f121, (GroupElement(g23, 4), GroupElement(g23, 2)))
    assert residues(fb_mul(a, b)) == (8, 8)
    assert is_identity(fb_mul(a, fb_inv(a)))
    assert fb_mul(fb_identity(g23, f121), b) == b


def test_params_mismatch_guards(g23, f121, q11_fields):
    a = unit_embed(generator_element(g23), f121)
    b = unit_embed(generator_element(g23), q11_fields[3])
    with pytest.raises(ParamsMismatch):
        fb_mul(a, b)
    with pytest.raises(ParamsMismatch):
        fusion_pow(a, fe_one(q11_fields[3]))
    # q of group and field must agree
    with pytest.raises(ParamsMismatch):
        FusionBase(g23, make_field_params(5, 2, [2, 0]), (identity(g23),) * 2)


def test_fusion_pow_worked_example(g23, f121):
    g = generator_element(g23)
    base = scalar_embed(g, fe(f121, [1, 2]))  # (2, 4)
    out = fusion_pow(base, fe(f121, [3, 5]))
    # exponent arithmetic: (1,2)*(3,5) = (4,0), so the result is (2^4, 2^0)
    assert residues(out) == (16, 1)


def test_fusion_pow_identity_exponents(g23, f121):
    g = generator_element(g23)
    rng = random.Random(0)
    for _ in range(20):
        base = scalar_embed(g, fe_random(f121, rng, nonzero=True))
        assert fusion_pow(base, fe_one(f121)) == base
        assert is_identity(fusion_pow(base, fe_zero(f121)))


def test_is_identity(g23, f121):
    assert is_identity(fb_identity(g23, f121))
    g = generator_element(g23)
    assert not is_identity(unit_embed(g, f121))


def test_n2_closed_form(g23, f121):
    # (a, b) ** (e, f) = (a^e * b^-f, a^f * b^e)
    g = generator_element(g23)
    rng = random.Random(6)
    for _ in range(300):
        a = g_pow(g, rng.randrange(1, 11))
        b = g_pow(g, rng.randrange(1, 11))
        e, f_ = rng.randrange(11), rng.randrange(11)
        base = FusionBase(g23, f121, (a, b))
        got = fusion_pow(base, fe(f121, [e, f_]))
        expected = (
            g_pow(a, e).residue * g_pow(b, -f_ % 11).residue % 23,
            g_pow(a, f_).residue * g_pow(b, e).residue % 23,
        )
        assert residues(got) == expected


def test_degree_one_degenerates_to_scalar_pow(g23, q11_fields):
    params = q11_fields[1]
    g = generator_element(g23)
    for w in range(1, 11):
        h = g_pow(g, w)
        base = FusionBase(g23, params, (h,))
        for x in range(11):
            assert residues(fusion_pow(base, fe(params, [x]))) == (g_pow(h, x).residue,)


def law_trials(group, params, trials, seed):
    rng = random.Random(seed)
    g = generator_element(group)
    for _ in range(trials):
        gb = scalar_embed(g, fe_random(params, rng))
        hb = scalar_embed(g, fe_random(params, rng))
        x = fe_random(params, rng)
        y = fe_random(params, rng)
        # power of a power multiplies exponents
        assert fusion_pow(fusion_pow(gb, x), y) == fusion_pow(gb, fe_mul(x, y))
        # exponent sums factor into products
        assert fusion_pow(gb, fe_add(x, y)) == fb_mul(
            fusion_pow(gb, x), fusion_pow(gb, y)
        )
        # powers distribute over componentwise products
        assert fusion_pow(fb_mul(gb, hb), x) == fb_mul(
            fusion_pow(gb, x), fusion_pow(hb, x)
        )


def test_exponent_laws_small(g23, q11_fields):
    for n in (1, 2, 3):
        law_trials(g23, q11_fields[n], 200, seed=n)


def test_embedding_consistency(g23, f121):
    # (g^x)^y = g^(x*y) through the scalar embedding
    g = generator_element(g23)
    rng = random.Random(9)
    for _ in range(300):
        x = fe_random(f121, rng)
        y = fe_random(f121, rng)
        assert fusion_pow(scalar_embed(g, x), y) == scalar_embed(g, fe_mul(x, y))


def test_bijectivity_small(g23, f121):
    g = generator_element(g23)
    base = scalar_embed(g, fe(f121, [1, 2]))
    images = {residues(fusion_pow(base, fe(f121, c)))
              for c in itertools.product(range(11), repeat=2)}
    assert len(images) == 121


# Degrees 9 and 10 put bases past the eighth into a second subset table.
KERNEL_DEGREES = (1, 2, 3, 4, 8, 9, 10)


def kernel_cases(group, fields, seed):
    """(base, exponent) pairs covering zero, single-coefficient and full exponents."""
    rng = random.Random(seed)
    g = generator_element(group)
    for n in KERNEL_DEGREES:
        fld = fields[n]
        q = fld.q
        full = fe(fld, [rng.randrange(1, q) for _ in range(n)])
        bases = [
            scalar_embed(g, full),
            scalar_embed(g, fe_random(fld, rng, nonzero=True)),
            unit_embed(g, fld),  # identity in every component but the first
            fb_identity(group, fld),
        ]
        exps = [fe_zero(fld), fe(fld, [q - 1] * n), fe_random(fld, rng)]
        for k in range(n):
            coeffs = [0] * n
            coeffs[k] = rng.randrange(1, q)
            exps.append(fe(fld, coeffs))
        for base in bases:
            for x in exps:
                yield base, x


def assert_kernel_matches_oracle(group, fields, seed):
    checked = 0
    for base, x in kernel_cases(group, fields, seed):
        lam = helpers.lambda_matrix(x.params.q, x.params.f_low, x.coeffs)
        expected = helpers.pow_components(residues(base), lam, group.modulus)
        assert residues(fusion_pow(base, x)) == expected, (base.field.n, x.coeffs)
        checked += 1
    assert checked == sum(4 * (3 + n) for n in KERNEL_DEGREES)


def kernel_fields(q, known):
    fields = dict(known)
    for n in KERNEL_DEGREES:
        if n not in fields:
            fields[n] = make_field_params(q, n, find_irreducible(q, n, seed=n))
    return fields


def test_fusion_pow_matches_per_entry_oracle_q11(g23, q11_fields):
    assert_kernel_matches_oracle(g23, kernel_fields(11, q11_fields), seed=31)


def test_fusion_pow_matches_per_entry_oracle_64_bit(group64, fields64):
    assert_kernel_matches_oracle(group64, kernel_fields(group64.q, fields64), seed=32)


def test_fusion_pow_multiplication_budget(group64, fields64):
    # subset tables once per call, then per row and bit one squaring plus one
    # multiply per table; one square-and-multiply per entry would need up to
    # 2 * n**2 * bitlen(q)
    counting = helpers.CountingInt
    fields = kernel_fields(group64.q, fields64)
    rng = random.Random(33)
    bitlen = group64.q.bit_length()
    for n in (1, 4, 8, 10):
        fld = fields[n]
        g = generator_element(group64)
        comps = tuple(g_pow(g, rng.randrange(1, fld.q)) for _ in range(n))
        counted = tuple(GroupElement(group64, counting(c.residue)) for c in comps)
        base = FusionBase(group64, fld, counted)
        x = fe(fld, [fld.q - 1] * n)
        counting.mults = 0
        got = residues(fusion_pow(base, x))
        count = counting.mults
        tables = [min(8, n - s) for s in range(0, n, 8)]
        budget = sum(2**w - 1 for w in tables) + n * bitlen * (1 + len(tables))
        assert 0 < count <= budget, (n, count, budget)
        assert count < 2 * n * n * bitlen or n == 1
        assert got == residues(fusion_pow(FusionBase(group64, fld, comps), x))


# ---------------------------------------------------------------------------
# Reused bases (comb tables) and prime-subfield exponents (built-in pow)
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_combs():
    """No base seen and no comb table kept, before and after the test."""
    fusion._visits.cache_clear()
    fusion._comb_tables.cache_clear()
    yield
    fusion._visits.cache_clear()
    fusion._comb_tables.cache_clear()


# 9, 10 and 16 bases need two subset tables per slice; at n = 1 the exponent
# one gives a row shorter than a slice.
ROUTE_DEGREES = (1, 2, 3, 4, 8, 9, 10, 16)


def route_bases(group, fld, rng):
    """A full base, unit_embed, and a full base with every other component 1."""
    g = generator_element(group)
    full = scalar_embed(g, fe(fld, [rng.randrange(1, fld.q) for _ in range(fld.n)]))
    holes = tuple(identity(group) if k % 2 else c for k, c in enumerate(full.components))
    return [full, unit_embed(g, fld), FusionBase(group, fld, holes)]


def route_exponents(fld, rng):
    """Zero, one and constant q-1 (the subfield route at n >= 2), all-(q-1), top-only."""
    q, n = fld.q, fld.n
    top = [0] * (n - 1) + [rng.randrange(1, q)]
    return [fe_zero(fld), fe_one(fld), fe(fld, [q - 1] + [0] * (n - 1)),
            fe(fld, [q - 1] * n), fe(fld, top)]


def oracle(base, x):
    lam = helpers.lambda_matrix(x.params.q, x.params.f_low, x.coeffs)
    return helpers.pow_components(residues(base), lam, base.group.modulus)


def assert_routes_match_oracle(group, fld, seed):
    rng = random.Random(seed)
    combs = int(group.modulus.bit_length() > fusion._DIGIT_BITS)
    for base in route_bases(group, fld, rng):
        fusion._visits.cache_clear()
        fusion._comb_tables.cache_clear()
        warm = fe(fld, [rng.randrange(1, fld.q) for _ in range(fld.n)])
        # the first full-width call builds per-call tables, the second the
        # combs, unless P is one CPython digit and no call reaches the kernel
        for _ in range(2):
            assert residues(fusion_pow(base, warm)) == oracle(base, warm)
        assert fusion._comb_tables.cache_info().currsize == combs
        for x in route_exponents(fld, rng):
            assert residues(fusion_pow(base, x)) == oracle(base, x), (fld.n, x.coeffs)
        assert fusion._comb_tables.cache_info().misses == combs


def route_field(q, n):
    return make_field_params(q, n, find_irreducible(q, n, seed=n))


@pytest.fixture(scope="module")
def group32():
    return gen_group_params(32, seed=1)


@pytest.mark.parametrize("n", ROUTE_DEGREES)
def test_comb_and_subfield_routes_match_oracle_q11(g23, n, fresh_combs):
    assert_routes_match_oracle(g23, route_field(11, n), seed=40 + n)


@pytest.mark.parametrize("n", ROUTE_DEGREES)
def test_comb_and_subfield_routes_match_oracle_64_bit(group64, n, fresh_combs):
    assert_routes_match_oracle(group64, route_field(group64.q, n), seed=60 + n)


@pytest.mark.parametrize("n", ROUTE_DEGREES)
def test_comb_and_subfield_routes_match_oracle_32_bit(group32, n, fresh_combs):
    assert_routes_match_oracle(group32, route_field(group32.q, n), seed=30 + n)


def test_comb_and_subfield_routes_match_oracle_256_bit(fresh_combs):
    group = gen_group_params(256, seed=1)
    assert_routes_match_oracle(group, route_field(group.q, 8), seed=256)


def test_subfield_exponents_skip_the_kernel(group64, fields64, monkeypatch, fresh_combs):
    def no_kernel(*args):
        raise AssertionError("kernel ran for a prime-subfield exponent")

    monkeypatch.setattr(fusion, "_multi_pow", no_kernel)
    rng = random.Random(70)
    for n in (2, 8):
        fld = fields64[n]
        for base in route_bases(group64, fld, rng):
            for c in (0, 1, 2, fld.q - 1):
                x = fe(fld, [c] + [0] * (n - 1))
                assert residues(fusion_pow(base, x)) == oracle(base, x)
    assert fusion._visits.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# Per-entry built-in pow while P is one CPython digit, the kernel past it
# ---------------------------------------------------------------------------

DIGIT_DEGREES = (1, 2, 3, 4, 8, 16)


def safe_prime_group(start, step):
    """The group of the first safe prime P = 2q + 1 met from `start`, walking by `step`."""
    P = start
    while not (is_prime(P) and is_prime(P // 2)):
        P += step
    return GroupParams(P, P // 2, 4)


@pytest.fixture(scope="module")
def digit_groups():
    """q = 11, the largest safe-prime group whose P is one CPython digit, and
    the smallest past it."""
    bits = sys.int_info.bits_per_digit
    below, above = safe_prime_group(2**bits - 1, -2), safe_prime_group(2**bits + 1, 2)
    assert [below.modulus.bit_length(), above.modulus.bit_length()] == [bits, bits + 1]
    return {"q11": GroupParams(23, 11, 2), "one_digit": below, "two_digits": above}


def counted_kernel(monkeypatch):
    """Replace _multi_pow by itself plus a list that grows by one per call."""
    calls, kernel = [], fusion._multi_pow
    monkeypatch.setattr(fusion, "_multi_pow", lambda *args: calls.append(1) or kernel(*args))
    return calls


@pytest.mark.parametrize("n", DIGIT_DEGREES)
@pytest.mark.parametrize("which", ["q11", "one_digit", "two_digits"])
def test_routes_at_the_one_digit_bound(digit_groups, which, n, monkeypatch, fresh_combs):
    # up to one digit the kernel never runs and no base is noted; past it
    # the kernel runs and notes each base, by its non-identity components
    group = digit_groups[which]
    fld = route_field(group.q, n)
    rng = random.Random(80 + n)
    calls = counted_kernel(monkeypatch)
    bases = route_bases(group, fld, rng)
    for base in bases:
        for x in route_exponents(fld, rng) + [fe_random(fld, rng)]:
            assert residues(fusion_pow(base, x)) == oracle(base, x), (n, x.coeffs)
    past = which == "two_digits"
    assert bool(calls) == past
    kept = {tuple(r for r in residues(base) if r != 1) for base in bases}
    assert fusion._visits.cache_info().currsize == past * len(kept)


def test_kernel_runs_at_64_bits(group64, fields64, monkeypatch, fresh_combs):
    calls = counted_kernel(monkeypatch)
    rng = random.Random(91)
    base = route_bases(group64, fields64[4], rng)[0]
    for _ in range(2):
        x = fe_random(fields64[4], rng)
        assert residues(fusion_pow(base, x)) == oracle(base, x)
    assert len(calls) == 2
    assert fusion._visits.cache_info().currsize == 1


def test_comb_cache_round_robin_over_more_bases_than_it_holds(group64, fields64, fresh_combs):
    fld = fields64[8]
    rng = random.Random(71)
    g = generator_element(group64)
    bases = [scalar_embed(g, fe_random(fld, rng, nonzero=True)) for _ in range(6)]
    for _ in range(3):
        for base in bases:
            x = fe_random(fld, rng)
            assert residues(fusion_pow(base, x)) == oracle(base, x)
    info = fusion._comb_tables.cache_info()
    assert info.currsize == info.maxsize == 4
    # every base's second and third visit found it seen; none found its tables
    assert info.misses == 12 and info.hits == 0
    assert fusion._visits.cache_info().currsize == 6


def test_one_shot_bases_build_no_comb_tables(group64, fields64, fresh_combs):
    # as in a protocol: a system base used between peers' one-shot keys
    fld = fields64[4]
    rng = random.Random(72)
    g = generator_element(group64)
    system = scalar_embed(g, fe_random(fld, rng, nonzero=True))
    for _ in range(40):
        for base in (scalar_embed(g, fe_random(fld, rng, nonzero=True)), system):
            x = fe_random(fld, rng)
            assert residues(fusion_pow(base, x)) == oracle(base, x)
    info = fusion._comb_tables.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 38, 1)
    assert fusion._visits.cache_info().currsize == fusion._SEEN_BASES


def test_comb_tables_shared_by_threads(group64, fields64, fresh_combs):
    fld = fields64[8]
    rng = random.Random(73)
    g = generator_element(group64)
    bases = [scalar_embed(g, fe_random(fld, rng, nonzero=True)) for _ in range(3)]
    work = [[(base, fe_random(fld, rng)) for base in bases for _ in range(6)]
            for _ in range(4)]
    expected = [[oracle(base, x) for base, x in calls] for calls in work]
    results = [None] * 4

    def run(k):
        results[k] = [residues(fusion_pow(base, x)) for base, x in work[k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected
    assert fusion._comb_tables.cache_info().currsize == 3


def test_reused_base_multiplication_budget(group64, fields64, fresh_combs):
    # the first call on a base counts as before; the second builds its comb
    # tables; from the third on a row takes ceil(64/4) = 16 bits, each with one
    # squaring, three folds of the later slice tables and one table multiply
    counting = helpers.CountingInt
    # the base of test_fusion_pow_multiplication_budget at n = 8
    fields = kernel_fields(group64.q, fields64)
    rng = random.Random(33)
    g = generator_element(group64)
    for n in (1, 4, 8):
        comps = tuple(g_pow(g, rng.randrange(1, fields[n].q)) for _ in range(n))
    fld = fields[8]
    base = FusionBase(group64, fld, tuple(GroupElement(group64, counting(c.residue))
                                          for c in comps))
    x = fe(fld, [fld.q - 1] * 8)
    expected = oracle(base, x)
    counts = []
    for _ in range(3):
        counting.mults = 0
        assert residues(fusion_pow(base, x)) == expected
        counts.append(counting.mults)
    assert counts[0] == 1267
    assert counts[1] > counts[0]
    assert 0 < counts[2] <= 8 * 5 * 16
    info = fusion._comb_tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# ---------------------------------------------------------------------------
# Packed comb tables: a reused base with k < 8 non-identity components fills
# each table's 8 slots with slices of its exponents
# ---------------------------------------------------------------------------


PACKED_DEGREES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16)


@pytest.fixture(scope="module")
def group256():
    return gen_group_params(256, seed=1)


def holed_base(group, fld, holes, rng):
    """A base with `holes` identity components at random places, the rest random."""
    g = generator_element(group)
    ones = set(rng.sample(range(fld.n), holes))
    return FusionBase(group, fld, tuple(identity(group) if j in ones
                                        else g_pow(g, rng.randrange(1, fld.q))
                                        for j in range(fld.n)))


def assert_packed_matches_oracles(group, n, hole_counts, seed):
    # each base's first call (one-shot tables), second (builds the combs) and
    # third (reads them) against the per-call route over every
    # component, identities included, and one pow_sm per lambda entry
    fld = route_field(group.q, n)
    P, bits = group.modulus, group.q.bit_length()
    rng = random.Random(seed)
    for holes in hole_counts:
        base = holed_base(group, fld, holes, rng)
        fusion._visits.cache_clear()
        fusion._comb_tables.cache_clear()
        for _ in range(3):
            x = fe_random(fld, rng)
            lam = helpers.lambda_matrix(fld.q, fld.f_low, x.coeffs)
            one_shot = fusion._comb_tables.__wrapped__(residues(base), P, bits, 1)
            per_call = fusion._multi_pow(*one_shot, lam, P)
            assert residues(fusion_pow(base, x)) == per_call, (n, holes, x.coeffs)
            assert per_call == helpers.pow_components(residues(base), lam, P)
        assert fusion._comb_tables.cache_info()[:2] == (1, 1), (n, holes)


@pytest.mark.parametrize("n", PACKED_DEGREES)
def test_packed_combs_match_oracles_64_bit(group64, n, fresh_combs):
    assert_packed_matches_oracles(group64, n, range(n), seed=80 + n)


@pytest.mark.parametrize("n", PACKED_DEGREES)
def test_packed_combs_match_oracles_256_bit(group256, n, fresh_combs):
    assert_packed_matches_oracles(group256, n, sorted({0, 1 % n, n // 2, n - 1}), seed=90 + n)


@pytest.mark.parametrize("bits", [11, 64, 256])
def test_identity_base_gives_the_identity_without_the_kernel(bits, g23, group64, group256,
                                                              monkeypatch, fresh_combs):
    def no_kernel(*args):
        raise AssertionError("kernel ran for the identity base")

    monkeypatch.setattr(fusion, "_multi_pow", no_kernel)
    group = {11: g23, 64: group64, 256: group256}[bits]
    rng = random.Random(bits)
    for n in (1, 2, 4, 8):
        fld = route_field(group.q, n)
        for _ in range(3):
            x = fe_random(fld, rng)
            assert is_identity(fusion_pow(fb_identity(group, fld), x))
    assert fusion._visits.cache_info().currsize == 0


# Multiplications per reused call at a 256-bit q, from the third call on.
# (n, non-identity components k, bound): k = 1 is one table of 8 slices of
# 32 bits, so a row takes 32 squarings and 32 multiplies; k = 2 one table of
# 4 slices of 64 bits; k = 3, 4 two tables of 2 slices each, so a row adds
# 64 folds; k = 5 to 8 four tables of one slice, 320 per row; k = 9 to 16
# four slices of two tables each, 64 squarings, 64 multiplies and 7·64 folds.
PACKED_COUNTS = [(4, 1, 256), (4, 4, 768), (1, 1, 64), (2, 2, 256), (3, 3, 576),
                 (8, 1, 512), (8, 2, 1024), (8, 5, 2560), (8, 6, 2560), (8, 7, 2560),
                 (16, 9, 16 * 576), (16, 12, 16 * 576), (16, 16, 16 * 576)]


def counted_base(group, fld, k, rng):
    """A base whose first k components are random CountingInts, the rest 1."""
    g = generator_element(group)
    return FusionBase(group, fld, tuple(
        GroupElement(group, helpers.CountingInt(g_pow(g, rng.randrange(1, fld.q)).residue))
        if j < k else identity(group) for j in range(fld.n)))


def reused_counts(base, xs):
    counts = []
    for x in xs:
        expected = oracle(base, x)
        helpers.CountingInt.mults = 0
        assert residues(fusion_pow(base, x)) == expected
        counts.append(helpers.CountingInt.mults)
    return counts


@pytest.mark.parametrize("n, k, bound", PACKED_COUNTS)
def test_packed_comb_multiplication_budget(group256, n, k, bound, fresh_combs):
    fld = route_field(group256.q, n)
    rng = random.Random(100 + 10 * n + k)
    base = counted_base(group256, fld, k, rng)
    xs = [fe(fld, [fld.q - 1] * n)] * 2 + [fe_random(fld, rng) for _ in range(3)]
    counts = reused_counts(base, xs)
    assert 0 < max(counts[2:]) <= bound, counts


def test_full_width_comb_count_is_unchanged(group256, fresh_combs):
    # eight components fill a table with one slice each: four tables of
    # 64-bit slices, 320 multiplications per row and fewer on zero bits
    fld = route_field(group256.q, 8)
    base = counted_base(group256, fld, 8, random.Random(108))
    counts = reused_counts(base, [fe(fld, [fld.q - 1] * 8)] * 3)
    assert counts == [4340, 5108, 2552]


# ---------------------------------------------------------------------------
# The first call on a base: the slice count with the fewest multiplications
# ---------------------------------------------------------------------------


def first_call_count(group, k, n, slices, rng):
    """Multiplications of one first call cut into `slices` slices: the chain,
    the tables and n rows over k bases whose every bit is set, the rows for
    which _slices' count is exact."""
    P, bits = group.modulus, group.q.bit_length()
    bases = tuple(helpers.CountingInt(pow(group.generator, rng.randrange(1, group.q), P))
                  for _ in range(k))
    e = 2**bits - 1
    helpers.CountingInt.mults = 0
    got = fusion._multi_pow(*fusion._comb_tables.__wrapped__(bases, P, bits, slices),
                            [[e] * k] * n, P)
    count = helpers.CountingInt.mults
    assert got == (pow(math.prod(map(int, bases)), e, P),) * n, (k, n, slices)
    return count


# k, n in {1, 2, 4, 8}, and k = 9, n = 11, where at 256 bits one and two
# slices tie and one product less per table would pick two
FIRST_CALL_SHAPES = [(k, n) for k, n in itertools.product((1, 2, 4, 8), repeat=2)
                     if k <= n] + [(9, 11)]


@pytest.mark.parametrize("bits", [64, 256])
def test_first_call_takes_the_counted_best_slice_count(bits, group64, group256):
    group = {64: group64, 256: group256}[bits]
    rng = random.Random(bits)
    for k, n in FIRST_CALL_SHAPES:
        counts = {s: first_call_count(group, k, n, s, rng) for s in range(1, 17)}
        pick = fusion._slices(k, n, bits, False)
        assert pick == min(counts, key=counts.get), (k, n, counts)


@pytest.mark.parametrize("k, n, read", [(8, 8, 4), (1, 4, 11)])
def test_slice_scan_stops_at_its_bound(k, n, read, monkeypatch):
    # a fresh process scans once per layout; from s on no count is below
    # (s - 1)/s*bits*k + the products of s slices + n*bits*k/8, which at 256
    # bits passes the best count at s = 4 (k = n = 8: 1,536 + 1,020 + 2,048
    # against 4,351 at one slice) and s = 11 (k = 1, n = 4: 232 + 262 + 128,
    # the 622 of six slices)
    scanned, spans = [], fusion._spans
    monkeypatch.setattr(fusion, "_spans", lambda k, s: scanned.append(s) or spans(k, s))
    fusion._slices.__wrapped__(k, n, 256, False)
    assert scanned == list(range(1, read + 1))


def test_first_call_on_a_unit_embed_base(group256, fresh_combs):
    # (g^a, 1, 1, 1) at a 256-bit q: six slices of 43 bits share one table,
    # where one slice took 1,523 multiplications
    fld = route_field(group256.q, 4)
    rng = random.Random(109)
    base = counted_base(group256, fld, 1, rng)
    assert fusion._slices(1, 4, 256, False) == 6
    assert reused_counts(base, [fe_random(fld, rng)]) <= [620]
