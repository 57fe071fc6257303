import hashlib
import itertools
import json
import operator
import random

import pytest

import fusionexp.field
import fusionexp.primes
import helpers
from fusionexp import (
    BadDegree,
    FieldElement,
    FieldParams,
    NotIrreducible,
    NotPrime,
    ParamsMismatch,
    ZeroInverse,
    fe,
    fe_add,
    fe_inv,
    fe_is_zero,
    fe_mul,
    fe_neg,
    fe_one,
    fe_pow,
    fe_random,
    fe_sub,
    fe_zero,
    find_irreducible,
    is_irreducible,
    lambda_entries,
    lambda_symbolic,
    make_field_params,
)
from fusionexp.cli import EXIT_OK, lambda_entry_expr, load_system_config, main
from fusionexp.field import _discriminant, _discriminant_admits, fe_from_int


Q64 = 2**64 - 59
Q256 = 2**256 - 189


def all_elements(params):
    for coeffs in itertools.product(range(params.q), repeat=params.n):
        yield fe(params, coeffs)


@pytest.fixture(scope="module")
def field256():
    """GF(q^8) at a 256-bit q, the size of the protocol benchmark."""
    return make_field_params(Q256, 8, find_irreducible(Q256, 8, seed=8))


# ---------------------------------------------------------------------------
# Parameter construction
# ---------------------------------------------------------------------------


def test_make_field_params_valid(f121):
    assert f121.q == 11 and f121.n == 2 and f121.f_low == (1, 0)
    assert f121.field_order == 121


def test_degree_one_modulus_always_irreducible():
    params = make_field_params(11, 1, [0])  # f = X
    assert params.field_order == 11


def test_rejects_composite_q():
    with pytest.raises(NotPrime):
        make_field_params(12, 2, [1, 0])
    with pytest.raises(NotPrime):
        make_field_params(1, 1, [0])
    for q in (0, -7):
        with pytest.raises(NotPrime):
            make_field_params(q, 1, [0])


def test_rejects_reducible_modulus():
    # X^2 + 1 factors mod 5; confirm by exhaustive root search first
    roots = [x for x in range(5) if (x * x + 1) % 5 == 0]
    assert roots == [2, 3]
    with pytest.raises(NotIrreducible):
        make_field_params(5, 2, [1, 0])


def test_rejects_coefficients_outside_range():
    # X^2 + 12 = X^2 + 1 mod 11 is irreducible, but f is not reduced silently
    with pytest.raises(BadDegree):
        make_field_params(11, 2, [12, 0])
    with pytest.raises(BadDegree):
        make_field_params(11, 2, [-1, 0])


def test_rejects_coefficients_outside_range_before_any_power(monkeypatch):
    # f_0 = q + 1 at a 256-bit q and n = 32, where X^q mod f takes about a
    # third of a second: the range check comes first
    def no_power(*args):
        raise AssertionError("X^q computed for a modulus out of range")

    monkeypatch.setattr(fusionexp.field, "_pow", no_power)
    with pytest.raises(BadDegree):
        make_field_params(Q256, 32, [Q256 + 1] + [1] * 31)


def test_rejects_non_integer_values(f121):
    # a float is a TypeError, not a coefficient truncated towards zero
    with pytest.raises(TypeError):
        make_field_params(11, 2, [1.9, 0.2])
    with pytest.raises(TypeError):
        make_field_params(11, 2.0, [1, 0])
    with pytest.raises(TypeError):
        fe(f121, [2.7, 1])
    with pytest.raises(TypeError):
        FieldElement(f121, (2.0, 1))
    with pytest.raises(TypeError):
        fe_from_int(f121, 12.0)
    with pytest.raises(TypeError):
        is_irreducible(11, [1.0, 0, 1])
    with pytest.raises(TypeError):
        lambda_symbolic(2, [1.9, 0.2])


def test_rejects_wrong_length():
    with pytest.raises(BadDegree):
        make_field_params(11, 3, [1, 0])
    with pytest.raises(BadDegree):
        make_field_params(11, 0, [])


# ---------------------------------------------------------------------------
# Irreducibility predicate
# ---------------------------------------------------------------------------


def test_is_irreducible_known_cases():
    assert is_irreducible(2, [1, 1, 0, 1])  # X^3 + X + 1 over Z_2
    assert not is_irreducible(5, [0, 0, 1])  # X^2 = X * X
    assert not is_irreducible(11, [0, 0, 1])
    assert is_irreducible(7, [3, 1])  # degree 1 is always irreducible


def test_is_irreducible_rejects_composite_modulus():
    with pytest.raises(NotPrime):
        is_irreducible(10, [1, 0, 1])


def test_is_irreducible_x4_x_1_mod_11_by_trial_division():
    poly = [1, 1, 0, 0, 1]
    expected = not helpers.poly_has_factor(11, poly)
    assert expected is False  # 7 is a root: 7^4 + 7 + 1 = 2409 = 11 * 219
    assert is_irreducible(11, poly) == expected


@pytest.mark.parametrize("q", [2, 3])
def test_is_irreducible_matches_trial_division_exhaustively(q):
    for degree in (2, 3, 4):
        for tail in itertools.product(range(q), repeat=degree):
            poly = list(tail) + [1]
            assert is_irreducible(q, poly) == (not helpers.poly_has_factor(q, poly))


def test_is_irreducible_matches_trial_division_sampled():
    rng = random.Random(9)
    for _ in range(150):
        poly = [rng.randrange(11) for _ in range(4)] + [1]
        assert is_irreducible(11, poly) == (not helpers.poly_has_factor(11, poly))


def test_find_irreducible_deterministic_and_verified():
    a = find_irreducible(11, 2, seed=42)
    b = find_irreducible(11, 2, seed=42)
    assert a == b
    assert is_irreducible(11, list(a) + [1])
    assert not helpers.poly_has_factor(11, list(a) + [1])


# sha256 prefixes of repr(find_irreducible(q, n, seed=n)), recorded from the
# earlier schoolbook-stack irreducibility test: a changed verdict on any
# drawn candidate changes the output, and with it every generated config
FIND_IRREDUCIBLE_PINS = {
    (Q64, 2): "f6180534d76a375e",
    (Q64, 3): "b1ce489163fb62a0",
    (Q64, 4): "322a6d7c8b06e911",
    (Q64, 8): "d4a90d013be15ab4",
    (Q256, 2): "53561768a2ba74fe",
    (Q256, 3): "a60ae142d3f0f412",
    (Q256, 4): "53423dee0784ede7",
    (Q256, 8): "4630591216b5bc41",
}


@pytest.mark.parametrize("q, n", FIND_IRREDUCIBLE_PINS,
                         ids=[f"q{q.bit_length()}-n{n}" for q, n in FIND_IRREDUCIBLE_PINS])
def test_find_irreducible_outputs_pinned(q, n):
    f_low = find_irreducible(q, n, seed=n)
    digest = hashlib.sha256(repr(f_low).encode()).hexdigest()[:16]
    assert digest == FIND_IRREDUCIBLE_PINS[q, n]


def test_find_irreducible_tests_q_once(monkeypatch):
    # the Baillie-PSW test of a 256-bit q runs once, not once per draw
    draws, rounds = [], []

    def logged(module, name, log):
        original = getattr(module, name)

        def wrapper(*args):
            log.append(args[0])
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    logged(fusionexp.field, "is_irreducible", draws)
    logged(fusionexp.primes, "_baillie_psw", rounds)
    fusionexp.primes.is_prime.cache_clear()
    find_irreducible(Q256, 4, seed=4)
    assert len(draws) >= 3
    assert rounds == [Q256]


@pytest.mark.parametrize("q, n, seed", [(11, 3, 5), (Q64, 4, 1), (Q256, 4, 4), (Q256, 8, 2)])
def test_found_modulus_is_not_tested_again(monkeypatch, q, n, seed):
    # FieldParams re-tests the f that find_irreducible has just returned and
    # reads the kept answer: one X^q power per draw past the discriminant
    # filter, not one more
    draws, powers = [], []
    test, power = fusionexp.field.is_irreducible, fusionexp.field._pow

    def logged_test(q, poly):
        draws.append(poly)
        return test(q, poly)

    def logged_power(*args):
        powers.append(args[1])
        return power(*args)

    monkeypatch.setattr(fusionexp.field, "is_irreducible", logged_test)
    monkeypatch.setattr(fusionexp.field, "_pow", logged_power)
    fusionexp.field._irreducible.cache_clear()
    f_low = find_irreducible(q, n, seed)
    filtered = len(draws)
    assert powers == [q] * filtered
    make_field_params(q, n, list(f_low))
    assert len(draws) == filtered + 1
    assert powers == [q] * filtered


def test_irreducibility_memo_keeps_answers_not_errors():
    fusionexp.field._irreducible.cache_clear()
    assert is_irreducible(11, [1, 0, 1]) is is_irreducible(11, (1, 0, 1)) is True
    assert fusionexp.field._irreducible.cache_info()[:2] == (1, 1)
    # an int and a float compare equal, but the float is still refused
    with pytest.raises(TypeError):
        is_irreducible(11, [1.0, 0, 1])
    for _ in range(2):
        with pytest.raises(NotPrime):
            is_irreducible(10, [1, 0, 1])
        with pytest.raises(BadDegree):
            is_irreducible(11, [11, 0, 1])
    assert not is_irreducible(11, [0, 0, 1])
    assert is_irreducible(11, [1, 0, 1])
    assert fusionexp.field._irreducible.cache_info()[:2] == (1, 7)


FIND_IRREDUCIBLE_ORACLE_CASES = [
    (q, n, seeds)
    for q, seeds in ((3, range(12)), (5, range(12)), (7, range(12)), (11, range(12)),
                     (Q64, range(1, 6)), (Q256, range(1, 4)))
    for n in (2, 3, 4, 8)
]


@pytest.mark.parametrize("q, n, seeds", FIND_IRREDUCIBLE_ORACLE_CASES,
                         ids=[f"q{q.bit_length()}-n{n}" for q, n, _ in FIND_IRREDUCIBLE_ORACLE_CASES])
def test_find_irreducible_matches_full_test_per_draw(q, n, seeds):
    # the discriminant filter drops reducible draws only, so each search
    # ends at the same draw; n = 3, 4, 8 over Z_3 and n = 8 over Z_5 and
    # Z_7 have n >= q, where f' loses its top term
    for seed in seeds:
        assert find_irreducible(q, n, seed) == helpers.search_irreducible(q, n, seed)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_discriminant_filter_never_rejects_an_irreducible(q):
    # every monic f of degree 2-5; at n >= q the derivative loses terms,
    # and over Z_3 and Z_5 f = X^q + aX + b has a constant f'
    rejected = total = 0
    for n in range(2, 6):
        for tail in itertools.product(range(q), repeat=n):
            poly = list(tail) + [1]
            total += 1
            if not _discriminant_admits(poly, q):
                rejected += 1
                assert helpers.poly_has_factor(q, poly), poly
    # it pays: about half the candidates skip the X^q power
    assert rejected > total // 3


def test_discriminant_matches_closed_forms():
    for q in (3, 5, 7, 11, 13):
        for b, c, d in itertools.product(range(q), repeat=3):
            assert _discriminant([c, b, 1], q) == (b * b - 4 * c) % q
            cubic = b * b * c * c - 4 * c**3 - 4 * b**3 * d - 27 * d * d + 18 * b * c * d
            assert _discriminant([d, c, b, 1], q) == cubic % q
    # X^n - 1 over Z_q has discriminant (-1)^(n(n-1)/2) n^n (-1)^(n-1)
    for q, n in ((7, 5), (11, 4), (Q64, 8)):
        expected = (-1) ** (n * (n - 1) // 2) * n**n * (-1) ** (n - 1)
        assert _discriminant([q - 1] + [0] * (n - 1) + [1], q) == expected % q


def test_find_irreducible_rejects_composite_q_on_first_draw(monkeypatch):
    draws = []
    original = fusionexp.field.is_irreducible

    def logged(q, poly):
        draws.append(poly)
        return original(q, poly)

    monkeypatch.setattr(fusionexp.field, "is_irreducible", logged)
    with pytest.raises(NotPrime):
        find_irreducible(4, 2, seed=0)
    assert len(draws) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_find_irreducible_over_z2_skips_the_filter(monkeypatch, n):
    # Stickelberger's criterion needs odd q
    def unused(poly, q):
        raise AssertionError("discriminant read at q = 2")

    monkeypatch.setattr(fusionexp.field, "_discriminant_admits", unused)
    for seed in range(6):
        assert find_irreducible(2, n, seed) == helpers.search_irreducible(2, n, seed)


def test_find_irreducible_degree_one():
    f_low = find_irreducible(11, 1, seed=0)
    assert len(f_low) == 1


def test_find_irreducible_quadratics_over_z3():
    # the full list of monic irreducible quadratics over Z_3, by enumeration
    expected = {
        tail
        for tail in itertools.product(range(3), repeat=2)
        if not helpers.poly_has_factor(3, list(tail) + [1])
    }
    assert len(expected) == 3
    for seed in range(6):
        assert find_irreducible(3, 2, seed) in expected


def poly_mul(q, a, b):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % q
    return prod


BEN_OR_MODULI = (11, Q64, Q256)


@pytest.mark.parametrize("q", BEN_OR_MODULI, ids=lambda q: f"q{q.bit_length()}")
def test_is_irreducible_matches_ben_or_oracle(q):
    # random candidates, most of which fail at X^q, plus an irreducible of
    # each degree, which runs every Frobenius step (at 256 bits the search
    # is slow; the pinned find_irreducible outputs above cover that case)
    rng = random.Random(q)
    for n in range(2, 9):
        polys = [[rng.randrange(q) for _ in range(n)] + [1] for _ in range(4)]
        if q != Q256:
            polys.append(list(find_irreducible(q, n, seed=n)) + [1])
            assert is_irreducible(q, polys[-1])
        for poly in polys:
            assert is_irreducible(q, poly) == helpers.ben_or_irreducible(q, poly), poly


@pytest.mark.parametrize("q", BEN_OR_MODULI, ids=lambda q: f"q{q.bit_length()}")
@pytest.mark.parametrize("degrees", ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)))
def test_is_irreducible_rejects_products_without_linear_factor(q, degrees):
    # X^q - X shares no factor with these, so only a later Frobenius step,
    # X^(q^i) for i = min(degrees), catches them
    a, b = (list(find_irreducible(q, d, seed=d + k)) + [1] for k, d in enumerate(degrees))
    poly = poly_mul(q, a, b)
    assert not helpers.ben_or_irreducible(q, poly)
    assert not is_irreducible(q, poly)


# ---------------------------------------------------------------------------
# Addition and negation
# ---------------------------------------------------------------------------


def test_fe_add_componentwise(f121):
    assert fe_add(fe(f121, [1, 2]), fe(f121, [3, 5])).coeffs == (4, 7)
    assert fe_add(fe(f121, [10, 10]), fe(f121, [1, 1])).coeffs == (0, 0)


def test_fe_neg_is_additive_inverse(f121):
    rng = random.Random(0)
    for _ in range(50):
        a = fe_random(f121, rng)
        assert fe_is_zero(fe_add(a, fe_neg(a)))


def test_fe_add_params_mismatch(f121):
    other = make_field_params(11, 1, [0])
    with pytest.raises(ParamsMismatch):
        fe_add(fe(f121, [1, 2]), fe(other, [3]))


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------


def test_fe_mul_worked_example(f121):
    # (1 + 2X)(3 + 5X) = 3 + 11X + 10X^2 = (3 - 10) + 0X = 4 mod 11
    assert fe_mul(fe(f121, [1, 2]), fe(f121, [3, 5])).coeffs == (4, 0)


def test_fe_mul_identity(q11_fields):
    rng = random.Random(1)
    for params in q11_fields.values():
        one = fe_one(params)
        for _ in range(20):
            a = fe_random(params, rng)
            assert fe_mul(a, one) == a
            assert fe_mul(one, a) == a


def test_fe_mul_matches_schoolbook_exhaustive(f121):
    for a in all_elements(f121):
        for b in all_elements(f121):
            assert (
                fe_mul(a, b).coeffs
                == helpers.schoolbook_mulmod(11, f121.f_low, a.coeffs, b.coeffs)
            )


def test_fe_mul_matches_schoolbook_exhaustive_cubic():
    params = make_field_params(5, 3, [1, 1, 0])  # X^3 + X + 1, no roots mod 5
    for a in all_elements(params):
        for b in all_elements(params):
            assert (
                fe_mul(a, b).coeffs
                == helpers.schoolbook_mulmod(5, params.f_low, a.coeffs, b.coeffs)
            )


def test_fe_mul_matches_schoolbook_random(q11_fields, fields64, field256):
    rng = random.Random(7)
    for params, trials in ((q11_fields[5], 10_000), (fields64[2], 10_000),
                           (fields64[8], 2_000), (field256, 1_000)):
        for _ in range(trials):
            a = fe_random(params, rng)
            b = fe_random(params, rng)
            assert (
                fe_mul(a, b).coeffs
                == helpers.schoolbook_mulmod(params.q, params.f_low, a.coeffs, b.coeffs)
            )


def test_fe_mul_reduction_budget(fields64):
    # one reduction mod q per output coefficient; the lambda route reduces
    # the n(n-1) entries of its n - 1 shift steps and then each of the n
    # outputs
    counting = helpers.CountingModulus
    n = 8
    params = make_field_params(counting(fields64[n].q), n, fields64[n].f_low)
    rng = random.Random(12)
    for _ in range(20):
        a, b = fe_random(params, rng), fe_random(params, rng)
        counting.reductions = 0
        got = fe_mul(a, b)
        assert 0 < counting.reductions <= n
        counting.reductions = 0
        via_lambda = tuple(
            sum(map(operator.mul, a.coeffs, row)) % params.q for row in lambda_entries(b)
        )
        assert counting.reductions == n * n
        assert got.coeffs == via_lambda


def edge_exponents(q):
    """1, 2, 3, 2^j and 2^j - 1 for a small j and j = bits(q), and q."""
    powers = (1 << 5, 1 << q.bit_length())
    return (1, 2, 3, *powers, *(p - 1 for p in powers), q)


X_POWER_MODULI = {"q2": 2, "q3": 3, "q11": 11, "q64": Q64, "q256": Q256}


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("q", X_POWER_MODULI.values(), ids=X_POWER_MODULI)
def test_x_to_the_q_matches_square_and_multiply(q, n):
    # any monic f will do: X^q mod f needs no irreducibility.  A set bit
    # shifts the square by X before its fold: 2^j - 1 sets every bit, the
    # first and the last included, and 2^j only the first
    rng = random.Random(q * 100 + n)
    f_low = tuple(rng.randrange(q) for _ in range(n))
    x = (0, 1) + (0,) * (n - 2)
    for k in edge_exponents(q):
        assert fusionexp.field._pow(x, k, f_low, q) == helpers.column_powmod(q, f_low, x, k), k


@pytest.mark.parametrize("q, n", [(11, 1), (11, 2), (5, 3), (Q64, 4), (Q64, 8), (Q256, 16)])
def test_high_half_fold_matches_full_column_fold(q, n):
    field = fusionexp.field
    rng = random.Random(n)
    f_low = tuple(rng.randrange(q) for _ in range(n))
    # X^0 .. X^(2n-1): a square shifted by X has 2n coefficients
    columns = helpers.reduction_columns(q, f_low, 2 * n)
    high = field._fold_columns(n, f_low, q)
    for _ in range(20):
        # unreduced coefficients up to n * q^2, as a convolution leaves them
        prod = [rng.randrange(n * q * q) for _ in range(2 * n - 1)]
        assert field._fold(prod, high, q) == helpers.column_fold(q, columns, prod)
        shifted = [0] + prod
        assert field._fold(shifted, high, q) == helpers.column_fold(q, columns, shifted)
        a = tuple(rng.randrange(q) for _ in range(n))
        square = field._square(a, q)
        assert all(0 <= c < q for c in square[n - 1 :])
        assert field._fold(square, high, q) == field._mul(a, a, f_low, q)


def test_fe_mul_cubic_closed_form():
    # coefficient rows for f = X^3 + X + 1:
    #   z0 = x0*y0 - x1*y2 - x2*y1
    #   z1 = x0*y1 + x1*(y0 - y2) - x2*(y1 + y2)
    #   z2 = x0*y2 + x1*y1 + x2*(y0 - y2)
    params = make_field_params(5, 3, [1, 1, 0])
    rng = random.Random(3)
    for _ in range(500):
        x = fe_random(params, rng)
        y = fe_random(params, rng)
        x0, x1, x2 = x.coeffs
        y0, y1, y2 = y.coeffs
        expected = (
            (x0 * y0 - x1 * y2 - x2 * y1) % 5,
            (x0 * y1 + x1 * (y0 - y2) - x2 * (y1 + y2)) % 5,
            (x0 * y2 + x1 * y1 + x2 * (y0 - y2)) % 5,
        )
        assert fe_mul(x, y).coeffs == expected


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------


def test_fe_inv_worked_examples(f121):
    assert fe_inv(fe(f121, [1, 2])).coeffs == (9, 4)
    assert fe_inv(fe(f121, [0, 1])).coeffs == (0, 10)
    one = fe_one(f121)
    assert fe_inv(one) == one


def test_fe_inv_all_nonzero_elements(f121):
    one = fe_one(f121)
    for a in all_elements(f121):
        if fe_is_zero(a):
            continue
        assert fe_mul(a, fe_inv(a)) == one


def test_fe_inv_zero_raises(f121):
    with pytest.raises(ZeroInverse):
        fe_inv(fe_zero(f121))


def test_fe_inv_random_large(fields64, field256):
    rng = random.Random(11)
    for params in (fields64[3], fields64[8], field256):
        one = fe_one(params).coeffs
        for _ in range(100):
            a = fe_random(params, rng, nonzero=True)
            inv = fe_inv(a).coeffs
            assert helpers.schoolbook_mulmod(params.q, params.f_low, a.coeffs, inv) == one


def test_fe_pow_matches_repeated_mul(f121, fields64, field256):
    rng = random.Random(5)
    for params in (f121, fields64[8], field256):
        for _ in range(30):
            a = fe_random(params, rng)
            acc = fe_one(params).coeffs
            for k in range(8):
                assert fe_pow(a, k).coeffs == acc
                acc = helpers.schoolbook_mulmod(params.q, params.f_low, acc, a.coeffs)


def test_fe_pow_matches_schoolbook_square_and_multiply(fields64, field256):
    # a general base, multiplied in with _mul on a set bit, at the exponents
    # that reach the first and last bits and at random ones
    rng = random.Random(6)
    fields = [make_field_params(q, n, find_irreducible(q, n, seed=n))
              for q, n in ((11, 2), (11, 4), (11, 8), (Q64, 2), (Q64, 4), (Q256, 2), (Q256, 4))]
    for params in (*fields, fields64[8], field256):
        for k in (*edge_exponents(params.q), *(rng.randrange(params.q) for _ in range(5))):
            a = fe_random(params, rng)
            expected = helpers.schoolbook_powmod(params.q, params.f_low, a.coeffs, k)
            assert fe_pow(a, k).coeffs == expected, (params.q, params.n, k)


def test_fe_pow_group_order(f121, field256):
    # the multiplicative group has order q^n - 1
    for a in all_elements(f121):
        if not fe_is_zero(a):
            assert fe_pow(a, 120) == fe_one(f121)
    rng = random.Random(10)
    for _ in range(2):
        a = fe_random(field256, rng, nonzero=True)
        assert fe_pow(a, field256.field_order - 1) == fe_one(field256)


def test_fe_pow_exponents_zero_and_one(f121, fields64):
    rng = random.Random(13)
    for params in (f121, fields64[1], fields64[8]):
        zero, one = fe_zero(params), fe_one(params)
        a = fe_random(params, rng, nonzero=True)
        assert fe_pow(zero, 0) == fe_pow(a, 0) == one
        assert fe_pow(zero, 1) == zero
        assert fe_pow(a, 1) == a


def test_fe_pow_of_x_matches_schoolbook(q11_fields, fields64):
    # a power of X itself multiplies by a shift on each set bit
    rng = random.Random(14)
    for params in (q11_fields[2], q11_fields[3], q11_fields[5], fields64[2], fields64[3],
                   fields64[8]):
        n, q = params.n, params.q
        x = fe(params, [0, 1] + [0] * (n - 2))
        for k in (1, 2, 3, q, q + 1, q * q - 1, rng.randrange(params.field_order)):
            expected = helpers.schoolbook_powmod(q, params.f_low, x.coeffs, k)
            assert fe_pow(x, k).coeffs == expected, (n, k)


def test_fe_pow_degree_one(fields64):
    # at n = 1, X is not an element (it is the constant -f_0): every power
    # is a scalar power mod q
    params = make_field_params(11, 1, [3])
    for a in range(11):
        for k in range(25):
            assert fe_pow(fe(params, [a]), k).coeffs == (pow(a, k, 11),)
    rng = random.Random(15)
    q = fields64[1].q
    for _ in range(20):
        a, k = rng.randrange(q), rng.randrange(q)
        assert fe_pow(fe(fields64[1], [a]), k).coeffs == (pow(a, k, q),)


# ---------------------------------------------------------------------------
# Lambda matrices
# ---------------------------------------------------------------------------


def test_lambda_matrix_degree_one():
    params = make_field_params(11, 1, [0])
    for y0 in range(11):
        assert lambda_entries(fe(params, [y0])) == ((y0,),)


def test_lambda_matrix_quadratic_shape(f121):
    rng = random.Random(2)
    for _ in range(200):
        y = fe_random(f121, rng)
        y0, y1 = y.coeffs
        assert lambda_entries(y) == ((y0, -y1 % 11), (y1, y0))


def test_lambda_matrix_is_multiplication_matrix(q11_fields):
    # (x*y) equals both Lam(y) @ x and Lam(x) @ y
    rng = random.Random(4)
    for params in q11_fields.values():
        n, q = params.n, params.q
        for _ in range(100):
            x = fe_random(params, rng)
            y = fe_random(params, rng)
            prod = fe_mul(x, y)
            ly = lambda_entries(y)
            lx = lambda_entries(x)
            via_y = tuple(
                sum(ly[i][j] * x.coeffs[j] for j in range(n)) % q for i in range(n)
            )
            via_x = tuple(
                sum(lx[i][j] * y.coeffs[j] for j in range(n)) % q for i in range(n)
            )
            assert prod.coeffs == via_y == via_x


LAMBDA_MODULI = {"q11": 11, "q64": Q64, "q256": Q256}


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("q", LAMBDA_MODULI.values(), ids=LAMBDA_MODULI)
def test_lambda_entries_match_schoolbook_columns(q, n):
    # column j of the matrix is X^j * y, here by convolution and long division
    params = make_field_params(q, n, find_irreducible(q, n, seed=n))
    rng = random.Random(n)
    for _ in range(10):
        y = fe_random(params, rng)
        assert lambda_entries(y) == helpers.lambda_matrix(q, params.f_low, y.coeffs)


def test_lambda_linearity(q11_fields, fields64):
    configs = [(q11_fields[n], 1000) for n in (2, 3, 5)] + [(fields64[2], 1000)]
    for params, trials in configs:
        rng = random.Random(params.n)
        q, n = params.q, params.n
        for _ in range(trials):
            x = fe_random(params, rng)
            y = fe_random(params, rng)
            lx = lambda_entries(x)
            ly = lambda_entries(y)
            lsum = lambda_entries(fe_add(x, y))
            for i in range(n):
                for j in range(n):
                    assert (lx[i][j] + ly[i][j]) % q == lsum[i][j]


def test_lambda_symbolic_matches_bilinear_oracle():
    for n, f_low in [(1, (0,)), (2, (1, 0)), (3, (1, 1, 0)), (4, (1, 1, 0, 0)),
                     (5, (1, 0, 1, 0, 0)), (3, (2, 0, 1)), (4, (3, 1, 2, 0))]:
        assert lambda_symbolic(n, f_low) == helpers.bilinear_lambda(n, f_low)


def test_lambda_symbolic_lifts_to_numeric(q11_fields):
    # evaluating the numeric matrix at unit vectors recovers the symbolic table
    for params in q11_fields.values():
        n, q = params.n, params.q
        sym = lambda_symbolic(n, params.f_low)
        for k in range(n):
            unit = fe(params, [1 if i == k else 0 for i in range(n)])
            num = lambda_entries(unit)
            for i in range(n):
                for j in range(n):
                    assert sym[i][j][k] % q == num[i][j]


def test_lambda_entry_expr_formatting():
    assert lambda_entry_expr((1, 0, -1)) == "y0-y2"
    assert lambda_entry_expr((0, -1, 0)) == "-y1"
    assert lambda_entry_expr((0, 0, 0)) == "0"
    assert lambda_entry_expr((2, -3)) == "2*y0-3*y1"
    assert lambda_entry_expr((0, 1, 1)) == "y1+y2"


def test_lambda_entries_cubic_all_ones():
    params = make_field_params(5, 3, [1, 1, 0])
    y = fe(params, [1, 1, 1])
    # reference matrix at y = (1,1,1): rows (1,-1,-1), (1,0,-2), (1,1,0) mod 5
    expected = [[1, 4, 4], [1, 0, 3], [1, 1, 0]]
    assert [list(r) for r in lambda_entries(y)] == expected


# ---------------------------------------------------------------------------
# Field axioms
# ---------------------------------------------------------------------------


def test_field_axioms_exhaustive_small():
    for q, n, f_low in [(2, 3, None), (3, 2, None), (5, 2, None)]:
        f_low = find_irreducible(q, n, seed=0) if f_low is None else f_low
        params = make_field_params(q, n, f_low)
        elems = list(all_elements(params))
        for a in elems:
            for b in elems:
                assert fe_mul(a, b) == fe_mul(b, a)
                assert fe_add(a, b) == fe_add(b, a)
                for c in elems:
                    assert fe_mul(fe_mul(a, b), c) == fe_mul(a, fe_mul(b, c))
                    assert fe_mul(a, fe_add(b, c)) == fe_add(fe_mul(a, b), fe_mul(a, c))


def test_field_axioms_q11_quadratic(f121):
    elems = list(all_elements(f121))
    for a in elems:
        for b in elems:
            assert fe_mul(a, b) == fe_mul(b, a)
    rng = random.Random(8)
    for _ in range(2000):
        a, b, c = (fe_random(f121, rng) for _ in range(3))
        assert fe_mul(fe_mul(a, b), c) == fe_mul(a, fe_mul(b, c))
        assert fe_mul(a, fe_add(b, c)) == fe_add(fe_mul(a, b), fe_mul(a, c))


# ---------------------------------------------------------------------------
# Helpers and serialization
# ---------------------------------------------------------------------------


def test_fe_from_int_digits(f121):
    assert fe_from_int(f121, 0).coeffs == (0, 0)
    assert fe_from_int(f121, 7).coeffs == (7, 0)
    assert fe_from_int(f121, 23).coeffs == (1, 2)  # 23 = 1 + 2*11
    seen = {fe_from_int(f121, j).coeffs for j in range(121)}
    assert len(seen) == 121


@pytest.mark.parametrize("value", [-1, 121, 122])
def test_fe_from_int_rejects_values_outside_the_field(f121, value):
    # reduced mod 121 these would alias (10, 10), (0, 0) and (1, 0)
    with pytest.raises(ValueError):
        fe_from_int(f121, value)


def test_fe_sub(f121):
    a, b = fe(f121, [3, 4]), fe(f121, [5, 1])
    assert fe_sub(a, b) == fe_add(a, fe_neg(b))


def test_params_json_roundtrip(f121, tmp_path, capsys):
    # the JSON form belongs to the CLI: the field section that params --out
    # writes loads back to equal FieldParams
    path = tmp_path / "sys.json"
    assert main(["params", "--q-bits", "4", "--n", "2", "--seed", "7",
                 "--out", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == json.loads(path.read_text())
    assert json.loads(path.read_text())["field"] == {"q": "11", "n": 2, "f": ["1", "0"]}
    assert FieldParams(*load_system_config(str(path))[1]) == f121


def test_fe_constructor_wrong_length(f121):
    with pytest.raises(BadDegree):
        fe(f121, [1, 2, 3])


def test_find_irreducible_rejects_composite_modulus():
    with pytest.raises(NotPrime):
        find_irreducible(9, 2, seed=0)


def test_is_irreducible_rejects_coefficients_outside_range():
    # X^2 - 1 is not read as X^2 + 6 mod 7
    with pytest.raises(BadDegree):
        is_irreducible(7, [-1, 0, 1])


def test_is_irreducible_rejects_non_monic():
    with pytest.raises(BadDegree):
        is_irreducible(7, [1, 2])  # leading coefficient 2
    with pytest.raises(BadDegree):
        is_irreducible(7, [1])  # degree 0
