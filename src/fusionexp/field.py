"""Arithmetic in the extension field GF(q^n) = Z_q[X]/(f).

An element is the coefficient vector (x_0, ..., x_{n-1}) of a residue
polynomial, index i holding the coefficient of X^i.  The modulus f is monic
of degree n and is stored through its n low coefficients only.

Every product mod f is formed in one place, `_mul`: the plain integer
convolution of two coefficient vectors is folded back below degree n
through the reduction columns of f (each X^m, m < 2n - 1, written in the
base monomials; built once per modulus and cached), with one reduction mod
q per output coefficient.  `fe_mul`, `fe_pow` and the irreducibility test
all go through it.  Inversion and the gcd of the irreducibility test share
one extended Euclid, `_pgcdex`.

The same columns give the coefficient functions lam[i][j]:

    (x * y)_i = sum_j x_j * lam[i][j](y)   (mod q),

where each lam[i][j] is linear in the coefficients of y.  The n x n matrix
of lam values for a fixed y is exposed as `lambda_entries`; tuple
exponentiation in the `fusion` module is driven directly by it.
"""

from __future__ import annotations

import functools
import operator
import random
from collections.abc import Sequence

from .errors import BadDegree, NotIrreducible, NotPrime, ParamsMismatch, ZeroInverse
from .primes import is_prime, parse_decimal
from .value import Value


class FieldParams(Value):
    """Validated parameters of GF(q^n): prime q, degree n, low coefficients of f."""

    __slots__ = ("q", "n", "f_low")

    def __init__(self, q: int, n: int, f_low: tuple[int, ...]):
        n = operator.index(n)
        f_low = tuple(map(operator.index, f_low))
        if n < 1:
            raise BadDegree(f"extension degree must be >= 1, got {n}")
        if len(f_low) != n:
            raise BadDegree(f"f_low must have length n={n}, got {len(f_low)}")
        # is_irreducible raises NotPrime for a q that is not prime
        irreducible = is_irreducible(q, f_low + (1,))
        if any(not 0 <= c < q for c in f_low):
            raise BadDegree("f coefficients must lie in [0, q)")
        if not irreducible:
            raise NotIrreducible(f"X^{n} + {list(f_low)} is reducible mod {q}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "f_low", f_low)

    @property
    def field_order(self) -> int:
        return self.q**self.n


class FieldElement(Value):
    """Coefficient vector of a field element, reduced mod q."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: FieldParams, coeffs: tuple[int, ...]):
        coeffs = tuple(map(operator.index, coeffs))
        if len(coeffs) != params.n:
            raise BadDegree(f"need {params.n} coefficients, got {len(coeffs)}")
        if any(not 0 <= c < params.q for c in coeffs):
            raise BadDegree("coefficients must lie in [0, q)")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "coeffs", coeffs)


def make_field_params(q: int, n: int, f_low: Sequence[int]) -> FieldParams:
    """Field parameters for GF(q^n) with modulus X^n + f.

    q must be prime, the low coefficients must lie in [0, q) and the modulus
    polynomial must be irreducible; FieldParams checks all three.
    """
    return FieldParams(q, n, tuple(f_low))


def fe(params: FieldParams, coeffs: Sequence[int]) -> FieldElement:
    """Field element from any integer vector of length n (reduced mod q)."""
    return FieldElement(params, tuple(operator.index(c) % params.q for c in coeffs))


def fe_zero(params: FieldParams) -> FieldElement:
    return FieldElement(params, (0,) * params.n)


def fe_one(params: FieldParams) -> FieldElement:
    return FieldElement(params, (1,) + (0,) * (params.n - 1))


def fe_is_zero(a: FieldElement) -> bool:
    return all(c == 0 for c in a.coeffs)


def fe_from_int(params: FieldParams, value: int) -> FieldElement:
    """Element whose coefficients are the base-q digits of value."""
    value %= params.field_order
    digits = []
    for _ in range(params.n):
        value, d = divmod(value, params.q)
        digits.append(d)
    return FieldElement(params, tuple(digits))


def fe_random(params: FieldParams, rng: random.Random, nonzero: bool = False) -> FieldElement:
    """Uniformly random element; redraws until nonzero when requested."""
    while True:
        e = FieldElement(params, tuple(rng.randrange(params.q) for _ in range(params.n)))
        if not nonzero or not fe_is_zero(e):
            return e


def _check_same_params(a: FieldElement, b: FieldElement) -> None:
    if a.params != b.params:
        raise ParamsMismatch("field elements from different parameter sets")


def fe_add(a: FieldElement, b: FieldElement) -> FieldElement:
    _check_same_params(a, b)
    q = a.params.q
    return FieldElement(a.params, tuple((x + y) % q for x, y in zip(a.coeffs, b.coeffs)))


def fe_neg(a: FieldElement) -> FieldElement:
    q = a.params.q
    return FieldElement(a.params, tuple(-x % q for x in a.coeffs))


def fe_sub(a: FieldElement, b: FieldElement) -> FieldElement:
    _check_same_params(a, b)
    q = a.params.q
    return FieldElement(a.params, tuple((x - y) % q for x, y in zip(a.coeffs, b.coeffs)))


@functools.lru_cache(maxsize=64)
def _reduction_columns(
    n: int, f_low: tuple[int, ...], q: int | None
) -> tuple[tuple[int, ...], ...]:
    """Columns C[i] with X^m = sum_i C[i][m] X^i modulo the monic modulus.

    Covers m = 0 .. 2n-2, which is every monomial a degree < n product can
    reach.  Row m >= n of the recursion is the shift of row m-1 with the
    overflow folded back through X^n = -f.  With q None the recursion runs
    over the plain integers, giving the canonical signed coefficients.
    Cached per modulus, so a field's reduction is built once, not once per
    product.
    """
    rows = [[0] * n for _ in range(2 * n - 1)]
    for m in range(n):
        rows[m][m] = 1
    for m in range(n, 2 * n - 1):
        prev = rows[m - 1]
        top = prev[n - 1]
        row = [0] + prev[: n - 1]
        if top:
            for i in range(n):
                row[i] -= top * f_low[i]
        if q is not None:
            row = [c % q for c in row]
        rows[m] = row
    return tuple(zip(*rows))


def lambda_entries(y: FieldElement) -> tuple[tuple[int, ...], ...]:
    """Entries lam[i][j](y) of the coefficient matrix at y, as plain rows.

    lam[i][j] = sum_k y_k * C[i][j + k], with C the cached reduction
    columns of y's modulus.
    """
    params, coeffs = y.params, y.coeffs
    q, n = params.q, params.n
    return tuple(
        tuple(sum(map(operator.mul, coeffs, col[j : j + n])) % q for j in range(n))
        for col in _reduction_columns(n, params.f_low, q)
    )


def lambda_symbolic(n: int, f_low: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Symbolic lambda matrix over the integers for a monic modulus X^n + f.

    Returns sym with sym[i][j][k] = the integer coefficient of y_k in
    lam[i][j].  No coefficient modulus is involved; entries are exact, so
    the table can be lifted into any Z_q.
    """
    if n < 1:
        raise BadDegree(f"extension degree must be >= 1, got {n}")
    if len(f_low) != n:
        raise BadDegree(f"f_low must have length n={n}, got {len(f_low)}")
    cols = _reduction_columns(n, tuple(map(operator.index, f_low)), None)
    return tuple(tuple(col[j : j + n] for j in range(n)) for col in cols)


def lambda_entry_expr(coeffs: Sequence[int]) -> str:
    """Render one symbolic entry, e.g. (1, 0, -1) -> 'y0-y2'."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if terms else "")
        mag = abs(c)
        terms.append(f"{sign}{mag}*y{k}" if mag != 1 else f"{sign}y{k}")
    return "".join(terms) if terms else "0"


def _mul(
    a: Sequence[int], b: Sequence[int], f_low: tuple[int, ...], q: int
) -> tuple[int, ...]:
    """Product of two length-n residue vectors modulo (f, q).

    The plain integer convolution is folded through the cached reduction
    columns, so each output coefficient is reduced mod q once.
    """
    n = len(f_low)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                prod[j] += ai * bj
    return tuple(
        sum(map(operator.mul, prod, col)) % q
        for col in _reduction_columns(n, f_low, q)
    )


def _pow(a: Sequence[int], k: int, f_low: tuple[int, ...], q: int) -> tuple[int, ...]:
    """a**k modulo (f, q) for k >= 0, by square and multiply over `_mul`."""
    result = (1,) + (0,) * (len(f_low) - 1)
    while k:
        if k & 1:
            result = _mul(result, a, f_low, q)
        a = _mul(a, a, f_low, q)
        k >>= 1
    return result


def fe_mul(a: FieldElement, b: FieldElement) -> FieldElement:
    """Product: schoolbook convolution folded through the reduction columns."""
    _check_same_params(a, b)
    params = a.params
    return FieldElement(params, _mul(a.coeffs, b.coeffs, params.f_low, params.q))


def fe_pow(a: FieldElement, k: int) -> FieldElement:
    """a to a nonnegative integer power, by square and multiply."""
    if k < 0:
        raise ValueError("negative exponent; invert first")
    params = a.params
    return FieldElement(params, _pow(a.coeffs, k, params.f_low, params.q))


def fe_inv(a: FieldElement) -> FieldElement:
    """Multiplicative inverse by the extended Euclidean algorithm on polynomials."""
    if fe_is_zero(a):
        raise ZeroInverse("zero has no multiplicative inverse")
    params = a.params
    q = params.q
    g, u = _pgcdex(a.coeffs, params.f_low + (1,), q)
    # gcd of a nonzero element with an irreducible modulus is a unit, and
    # the cofactor of a has degree below n
    c_inv = pow(g[0], -1, q)
    return FieldElement(
        params, tuple(c * c_inv % q for c in u) + (0,) * (params.n - len(u))
    )


# ---------------------------------------------------------------------------
# Polynomials of any degree over Z_q (coefficient lists, little-endian,
# trimmed), for the gcds of inversion and of the irreducibility test.
# ---------------------------------------------------------------------------


def _ptrim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pgcdex(a: Sequence[int], b: Sequence[int], q: int) -> tuple[list[int], list[int]]:
    """Extended Euclid over Z_q: (g, u) with g = gcd(a, b) and u*a = g mod b."""
    r0, r1 = _ptrim(list(a)), _ptrim(list(b))
    u0, u1 = [1], []
    while r1:
        # reduce r0 mod r1 in place by leading-term elimination; quot
        # collects the quotient
        quot = [0] * (len(r0) - len(r1) + 1)
        inv_lead = pow(r1[-1], -1, q)
        while len(r0) >= len(r1):
            shift = len(r0) - len(r1)
            factor = r0[-1] * inv_lead % q
            quot[shift] = factor
            for i, c in enumerate(r1, shift):
                r0[i] = (r0[i] - factor * c) % q
            _ptrim(r0)
        # u0 - quot * u1, reduced once per coefficient
        u = u0 + [0] * (len(quot) + len(u1) - 1 - len(u0))
        for i, c in enumerate(quot):
            for j, d in enumerate(u1, i):
                u[j] -= c * d
        r0, r1 = r1, r0
        u0, u1 = u1, _ptrim([c % q for c in u])
    return r0, u0


def is_irreducible(q: int, poly: Sequence[int]) -> bool:
    """True iff the monic polynomial f has no nontrivial factor over Z_q.

    Ben-Or's test: gcd(f, X^(q^i) - X) = 1 for i = 1 .. deg/2.  A factor of
    degree d <= deg/2 divides X^(q^d) - X and is caught by the gcd.

    X^q is one power mod f.  The map h -> h^q is Z_q-linear on Z_q[X]/(f),
    and its matrix has the columns (X^q)^j, j < deg.  So from i = 2 on,
    which needs deg >= 4, each X^(q^i) is one matrix-vector product mod q
    instead of a power with exponent q (von zur Gathen-Shoup 1992).
    """
    if not is_prime(q):
        raise NotPrime(f"coefficient modulus {q} is not prime")
    p = [operator.index(c) % q for c in poly]
    if len(p) < 2 or p[-1] != 1:
        raise BadDegree("polynomial must be monic of degree >= 1")
    n = len(p) - 1
    if n == 1:
        return True
    f_low = tuple(p[:n])
    x_q = _pow((0, 1) + (0,) * (n - 2), q, f_low, q)
    h = x_q
    for i in range(n // 2):
        if i == 1:
            cols = [(1,) + (0,) * (n - 1), x_q]
            while len(cols) < n:
                cols.append(_mul(cols[-1], x_q, f_low, q))
            frobenius_rows = tuple(zip(*cols))
        if i:
            h = tuple(sum(map(operator.mul, h, row)) % q for row in frobenius_rows)
        h_minus_x = list(h)
        h_minus_x[1] = (h_minus_x[1] - 1) % q
        g, _ = _pgcdex(p, h_minus_x, q)
        if len(g) > 1:
            return False
    return True


def find_irreducible(q: int, n: int, seed: int) -> tuple[int, ...]:
    """Low coefficients of a monic irreducible degree-n modulus over Z_q.

    Seeded random search filtered by is_irreducible; deterministic for a
    fixed (q, n, seed).  Roughly one in n monic candidates is irreducible,
    so the search is short.  The first is_irreducible call rejects a q
    that is not prime (NotPrime) or an n below 1 (BadDegree); a q below 1
    already fails the first draw (ValueError).
    """
    rng = random.Random(seed)
    while True:
        cand = tuple(rng.randrange(q) for _ in range(n))
        if is_irreducible(q, cand + (1,)):
            return cand


# ---------------------------------------------------------------------------
# JSON interchange (decimal strings for all coefficient values)
# ---------------------------------------------------------------------------


def field_params_to_json(params: FieldParams) -> dict:
    return {
        "q": str(params.q),
        "n": params.n,
        "f": [str(c) for c in params.f_low],
    }


def field_params_from_json(obj: dict) -> FieldParams:
    n, f = obj["n"], obj["f"]
    if type(n) is not int:
        raise ValueError(f"field degree n must be a JSON integer, got {n!r}")
    if not isinstance(f, list):
        raise ValueError("field modulus f must be a JSON array")
    return make_field_params(parse_decimal(obj["q"]), n, [parse_decimal(c) for c in f])


def fe_to_json(a: FieldElement) -> list[str]:
    return [str(c) for c in a.coeffs]


def fe_from_json(params: FieldParams, data: Sequence[str]) -> FieldElement:
    if len(data) != params.n:
        raise BadDegree(f"need {params.n} coefficients, got {len(data)}")
    return FieldElement(params, tuple(parse_decimal(c) for c in data))
