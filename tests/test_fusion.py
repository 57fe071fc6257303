import itertools
import random
import sys
import threading

import pytest

import helpers
from fusionexp import (
    GroupElement,
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


# 9, 10 and 16 bases need two subset tables per chunk; at n = 1 the exponent
# one gives a row shorter than a chunk.
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
    combs = int(fld.q.bit_length() >= fusion._COMB_MIN_BITS)
    for base in route_bases(group, fld, rng):
        fusion._visits.cache_clear()
        fusion._comb_tables.cache_clear()
        warm = fe(fld, [rng.randrange(1, fld.q) for _ in range(fld.n)])
        # the first full-width call builds per-call tables, the second the
        # combs, unless q is too small for them
        for _ in range(2):
            assert residues(fusion_pow(base, warm)) == oracle(base, warm)
        assert fusion._comb_tables.cache_info().currsize == combs
        for x in route_exponents(fld, rng):
            assert residues(fusion_pow(base, x)) == oracle(base, x), (fld.n, x.coeffs)
        assert fusion._comb_tables.cache_info().misses == combs


def route_field(q, n):
    return make_field_params(q, n, find_irreducible(q, n, seed=n))


@pytest.mark.parametrize("n", ROUTE_DEGREES)
def test_comb_and_subfield_routes_match_oracle_q11(g23, n, fresh_combs):
    assert_routes_match_oracle(g23, route_field(11, n), seed=40 + n)


@pytest.mark.parametrize("n", ROUTE_DEGREES)
def test_comb_and_subfield_routes_match_oracle_64_bit(group64, n, fresh_combs):
    assert_routes_match_oracle(group64, route_field(group64.q, n), seed=60 + n)


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
    # squaring, three folds of the later chunk tables and one table multiply
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
