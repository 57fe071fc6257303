"""Arithmetic in the extension field GF(q^n) = Z_q[X]/(f).

An element is the coefficient vector (x_0, ..., x_{n-1}) of a residue
polynomial, index i holding the coefficient of X^i.  The modulus f is monic
of degree n and is stored through its n low coefficients only.

Every table derived from f comes from one step, `_times_x`: h -> h * X mod
f, a shift with the overflowing coefficient folded back through X^n = -f.
Starting from X^(n-1), n steps give X^n .. X^(2n-1), the fold columns that
bring a product below degree n (built once per modulus and cached).  Only
that high half moves, so a fold costs n(n-1) products and one reduction
mod q per output coefficient.  `_mul` and `_square` feed it, and one power
loop, `_pow`, serves `fe_pow` and the irreducibility test's X^q: it reads
the exponent from the left, squares per bit and, on a set bit, multiplies
by the base.  When the base is X, that multiplication is a shift of the
square by one place before its fold, which then reads the column of
X^(2n-1).  Inversion and the gcd of the irreducibility test share one
extended Euclid, `_pgcdex`, and the irreducible search's discriminant
takes its remainder step, `_prem`.

The coefficient functions lam[i][j] satisfy

    (x * y)_i = sum_j x_j * lam[i][j](y)   (mod q),

each linear in the coefficients of y.  Column j of the n x n matrix of lam
values at a fixed y is y * X^j, so the matrix is n - 1 steps from y; it is
exposed as `lambda_entries`, and tuple exponentiation in the `fusion`
module is driven directly by it.
"""

from __future__ import annotations

import functools
import operator
import random
from collections.abc import Sequence

from .errors import BadDegree, NotIrreducible, NotPrime, ParamsMismatch, ZeroInverse
from .primes import is_prime, jacobi
from .value import Value


class FieldParams(Value):
    """Validated parameters of GF(q^n): prime q, degree n, low coefficients
    of f, checked to lie in [0, q) before f's irreducibility test."""

    __slots__ = ("q", "n", "f_low")

    def __init__(self, q: int, n: int, f_low: tuple[int, ...]):
        n = operator.index(n)
        f_low = tuple(map(operator.index, f_low))
        if n < 1:
            raise BadDegree(f"extension degree must be >= 1, got {n}")
        if len(f_low) != n:
            raise BadDegree(f"f_low must have length n={n}, got {len(f_low)}")
        # is_irreducible checks q (NotPrime), then f's range (BadDegree)
        if not is_irreducible(q, f_low + (1,)):
            raise NotIrreducible(f"X^{n} + {list(f_low)} is reducible mod {q}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "f_low", f_low)

    @property
    def field_order(self) -> int:
        return self.q**self.n


class FieldElement(Value):
    """Coefficient vector of a field element, reduced mod q; arithmetic
    results are built by `FieldElement.unchecked`."""

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
    polynomial must be irreducible; FieldParams checks the three in order.
    """
    return FieldParams(q, n, tuple(f_low))


def fe(params: FieldParams, coeffs: Sequence[int]) -> FieldElement:
    """Field element from any integer vector of length n (reduced mod q)."""
    return FieldElement(params, tuple(operator.index(c) % params.q for c in coeffs))


def fe_zero(params: FieldParams) -> FieldElement:
    return FieldElement.unchecked(params, (0,) * params.n)


def fe_one(params: FieldParams) -> FieldElement:
    return FieldElement.unchecked(params, (1,) + (0,) * (params.n - 1))


def fe_is_zero(a: FieldElement) -> bool:
    return all(c == 0 for c in a.coeffs)


def fe_from_int(params: FieldParams, value: int) -> FieldElement:
    """Element whose coefficients are the base-q digits of value, which must
    lie in [0, q^n): outside it two integers would share one element."""
    value = operator.index(value)
    if not 0 <= value < params.field_order:
        raise ValueError(f"{value} outside [0, {params.field_order})")
    digits = []
    for _ in range(params.n):
        value, d = divmod(value, params.q)
        digits.append(d)
    return FieldElement.unchecked(params, tuple(digits))


def fe_random(params: FieldParams, rng: random.Random, nonzero: bool = False) -> FieldElement:
    """Uniformly random element; redraws until nonzero when requested."""
    while True:
        coeffs = tuple(rng.randrange(params.q) for _ in range(params.n))
        e = FieldElement.unchecked(params, coeffs)
        if not nonzero or not fe_is_zero(e):
            return e


def _check_same_params(a: FieldElement, b: FieldElement) -> None:
    if a.params != b.params:
        raise ParamsMismatch("field elements from different parameter sets")


def fe_add(a: FieldElement, b: FieldElement) -> FieldElement:
    _check_same_params(a, b)
    q = a.params.q
    coeffs = tuple((x + y) % q for x, y in zip(a.coeffs, b.coeffs))
    return FieldElement.unchecked(a.params, coeffs)


def fe_neg(a: FieldElement) -> FieldElement:
    q = a.params.q
    return FieldElement.unchecked(a.params, tuple(-x % q for x in a.coeffs))


def fe_sub(a: FieldElement, b: FieldElement) -> FieldElement:
    _check_same_params(a, b)
    q = a.params.q
    coeffs = tuple((x - y) % q for x, y in zip(a.coeffs, b.coeffs))
    return FieldElement.unchecked(a.params, coeffs)


def _times_x(h: tuple[int, ...], f_low: tuple[int, ...], q: int | None) -> tuple[int, ...]:
    """h * X modulo f: the shift of h, its overflowing coefficient folded back
    through X^n = -f.  Reduced mod q, or exact over the integers when q is
    None.  n products, where a full `_mul` would take n^2."""
    top = h[-1]
    shifted = zip((0,) + h[:-1], f_low)
    if q is None:
        return tuple([c - top * fi for c, fi in shifted])
    return tuple([(c - top * fi) % q for c, fi in shifted])


def lambda_entries(y: FieldElement) -> tuple[tuple[int, ...], ...]:
    """Entries lam[i][j](y) of the coefficient matrix at y, as plain rows.

    Column j is y * X^j mod (f, q), so the matrix is y and n - 1 `_times_x`
    steps from it: n^2 products and reductions mod q.
    """
    params = y.params
    cols = [y.coeffs]
    for _ in range(params.n - 1):
        cols.append(_times_x(cols[-1], params.f_low, params.q))
    return tuple(zip(*cols))


def lambda_symbolic(n: int, f_low: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Symbolic lambda matrix over the integers for a monic modulus X^n + f.

    Returns sym with sym[i][j][k] = the integer coefficient of y_k in
    lam[i][j], which is the coefficient of X^i in X^(j+k).  The powers
    X^0 .. X^(2n-2) are 2n - 2 exact `_times_x` steps from 1; no coefficient
    modulus is involved, so the table can be lifted into any Z_q.
    """
    if n < 1:
        raise BadDegree(f"extension degree must be >= 1, got {n}")
    if len(f_low) != n:
        raise BadDegree(f"f_low must have length n={n}, got {len(f_low)}")
    f_low = tuple(map(operator.index, f_low))
    powers = [(1,) + (0,) * (n - 1)]
    for _ in range(2 * n - 2):
        powers.append(_times_x(powers[-1], f_low, None))
    return tuple(tuple(col[j : j + n] for j in range(n)) for col in zip(*powers))


@functools.lru_cache(maxsize=64)
def _fold_columns(
    n: int, f_low: tuple[int, ...], q: int
) -> tuple[tuple[int, ...], ...]:
    """Columns C[i] with C[i][m - n] the coefficient of X^i in X^m mod
    (f, q), for n <= m <= 2n - 1: the part of a fold that is not the
    identity.  X^(2n-1) serves a square shifted by X in `_pow`; a plain
    product's fold reads only the first n - 1 entries.  Each X^m is
    X^(m-1) * X, so the table is n `_times_x` steps from X^(n-1).  Cached
    per modulus."""
    powers = [(0,) * (n - 1) + (1,)]
    for _ in range(n):
        powers.append(_times_x(powers[-1], f_low, q))
    return tuple(col[1:] for col in zip(*powers))


def _fold(prod: Sequence[int], cols: tuple[tuple[int, ...], ...], q: int) -> tuple[int, ...]:
    """A product's 2n-1 coefficients (2n for a square shifted by X) brought
    below degree n modulo (f, q).

    X^m for m < n is its own base monomial, so only the high half moves:
    out_i = prod[i] + sum_(m >= n) prod[m] * C[i][m - n], which is n(n-1)
    products (n^2 for 2n coefficients), reduced mod q once per output
    coefficient.
    """
    high = prod[len(cols):]
    return tuple(sum(map(operator.mul, high, col), low) % q for low, col in zip(prod, cols))


def _mul(
    a: Sequence[int], b: Sequence[int], f_low: tuple[int, ...], q: int
) -> tuple[int, ...]:
    """Product of two length-n residue vectors modulo (f, q).

    The plain integer convolution is folded through the cached fold
    columns, so each output coefficient is reduced mod q once.
    """
    n = len(f_low)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                prod[j] += ai * bj
    return _fold(prod, _fold_columns(n, f_low, q), q)


def _square(a: Sequence[int], q: int) -> list[int]:
    """The convolution a * a for `_fold`: the symmetric products, n(n+1)/2
    of them, with the coefficients of X^(n-1) and up reduced mod q.  So the
    fold multiplies numbers below q, also after `_pow` shifts the square
    by X, which moves the coefficient of X^(n-1) into the high half."""
    n = len(a)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            prod[2 * i] += ai * ai
            twice = 2 * ai
            for k in range(i + 1, n):
                prod[i + k] += twice * a[k]
    prod[n - 1 :] = [c % q for c in prod[n - 1 :]]
    return prod


def _pow(a: tuple[int, ...], k: int, f_low: tuple[int, ...], q: int) -> tuple[int, ...]:
    """a**k modulo (f, q) for k >= 0, over the bits of k from the left.

    Each bit after the first squares, n(n+1)/2 products, and folds.  On a
    set bit, when a is X, the square is shifted one place before that fold,
    which then reads one more column; otherwise the folded square is
    multiplied by a with `_mul`.
    """
    n = len(f_low)
    if not k:
        return (1,) + (0,) * (n - 1)
    cols = _fold_columns(n, f_low, q)
    by_x = n > 1 and a == (0, 1) + (0,) * (n - 2)
    h = a
    for bit in bin(k)[3:]:
        prod = _square(h, q)
        if bit == "1" and by_x:
            prod.insert(0, 0)
        h = _fold(prod, cols, q)
        if bit == "1" and not by_x:
            h = _mul(h, a, f_low, q)
    return h


def fe_mul(a: FieldElement, b: FieldElement) -> FieldElement:
    """Product: schoolbook convolution, its high half folded back below
    degree n (`_fold`)."""
    _check_same_params(a, b)
    params = a.params
    return FieldElement.unchecked(params, _mul(a.coeffs, b.coeffs, params.f_low, params.q))


def fe_pow(a: FieldElement, k: int) -> FieldElement:
    """a to a nonnegative integer power, by square and multiply from the
    left (`_pow`)."""
    if k < 0:
        raise ValueError("negative exponent; invert first")
    params = a.params
    return FieldElement.unchecked(params, _pow(a.coeffs, k, params.f_low, params.q))


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
    return FieldElement.unchecked(
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


def _prem(r: list[int], m: list[int], q: int) -> list[int]:
    """Reduce the trimmed r modulo the nonzero trimmed m over Z_q, in place,
    by leading-term elimination; returns the quotient."""
    quot = [0] * (len(r) - len(m) + 1)
    inv_lead = pow(m[-1], -1, q)
    while len(r) >= len(m):
        shift = len(r) - len(m)
        factor = r[-1] * inv_lead % q
        quot[shift] = factor
        for i, c in enumerate(m, shift):
            r[i] = (r[i] - factor * c) % q
        _ptrim(r)
    return quot


def _pgcdex(a: Sequence[int], b: Sequence[int], q: int) -> tuple[list[int], list[int]]:
    """Extended Euclid over Z_q: (g, u) with g = gcd(a, b) and u*a = g mod b."""
    r0, r1 = _ptrim(list(a)), _ptrim(list(b))
    u0, u1 = [1], []
    while r1:
        quot = _prem(r0, r1, q)
        # u0 - quot * u1, reduced once per coefficient
        u = u0 + [0] * (len(quot) + len(u1) - 1 - len(u0))
        for i, c in enumerate(quot):
            for j, d in enumerate(u1, i):
                u[j] -= c * d
        r0, r1 = r1, r0
        u0, u1 = u1, _ptrim([c % q for c in u])
    return r0, u0


def _discriminant(poly: Sequence[int], q: int) -> int:
    """disc(f) mod q of a monic f of degree n >= 1 with coefficients in [0, q).

    disc(f) = (-1)^(n(n-1)/2) Res(f, f'), and the resultant comes from one
    Euclid over Z_q: for r = a mod b, Res(a, b) = (-1)^(deg a deg b)
    lc(b)^(deg a - deg r) Res(b, r); Res(a, c) = c^(deg a) for a nonzero
    constant c, and 0 once a remainder vanishes.  Res(f, f') is the product
    of f' over the roots of f, so it holds also where q divides n and f'
    has lower degree, or is zero.
    """
    n = len(poly) - 1
    # disc(f) = factor * Res(a, b), for the current pair a, b
    factor = -1 if n * (n - 1) // 2 % 2 else 1
    a = list(poly)
    b = _ptrim([i * c % q for i, c in enumerate(poly)][1:])
    while b:
        if len(b) == 1:
            return factor * pow(b[0], len(a) - 1, q) % q
        r = a[:]
        _prem(r, b, q)
        if (len(a) - 1) * (len(b) - 1) % 2:
            factor = -factor
        factor = factor * pow(b[-1], len(a) - len(r), q) % q
        a, b = b, r
    return 0


def _discriminant_admits(poly: Sequence[int], q: int) -> bool:
    """False when the monic f of degree n >= 2 over Z_q, q an odd prime, is
    certainly reducible: its discriminant is zero, or its quadratic
    character is not (-1)^(n-1).  Every irreducible f passes."""
    n = len(poly) - 1
    return jacobi(_discriminant(poly, q), q) == (-1) ** (n - 1)


def is_irreducible(q: int, poly: Sequence[int]) -> bool:
    """True iff the monic polynomial f has no nontrivial factor over Z_q.

    Ben-Or's test: gcd(f, X^(q^i) - X) = 1 for i = 1 .. deg/2.  A factor of
    degree d <= deg/2 divides X^(q^d) - X and is caught by the gcd.

    X^q comes from the one power loop, `_pow`, over the bits of q from the
    left: one squaring and fold per bit, a set bit shifting the square by X
    before its fold.  The map h -> h^q is Z_q-linear on Z_q[X]/(f), and its
    matrix has the columns (X^q)^j, j < deg.  So from i = 2 on, which needs
    deg >= 4, each X^(q^i) is one matrix-vector product mod q instead of a
    power with exponent q (von zur Gathen-Shoup 1992).
    A coefficient that is not an integer raises TypeError; then a q that
    is not prime raises NotPrime and a coefficient outside [0, q)
    BadDegree before any power is taken.  `is_prime` keeps its last few
    answers, so a q the group has already tested is not tested again, and
    this test keeps its last answer (never an exception), so the f that
    `find_irreducible` has just returned is not tested again when
    FieldParams checks it.
    """
    return _irreducible(q, tuple(map(operator.index, poly)))


@functools.lru_cache(maxsize=1)
def _irreducible(q: int, p: tuple[int, ...]) -> bool:
    """is_irreducible on coefficients already read as ints."""
    if not is_prime(q):
        raise NotPrime(f"coefficient modulus {q} is not prime")
    if any(not 0 <= c < q for c in p):
        raise BadDegree("coefficients must lie in [0, q)")
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
    so the search is short.  For an odd prime q and n >= 2, a candidate is
    first read by its discriminant, one Euclid (`_discriminant_admits`): a
    squarefree f with r irreducible factors has (disc f / q) = (-1)^(n-r)
    (Stickelberger, in Swan's form, 1962), so an irreducible f has
    (-1)^(n-1), and a zero discriminant means a repeated factor.  About
    half the candidates fail that and skip the X^q power of
    is_irreducible; every irreducible one passes, so the draws and the
    result are those of testing each draw with is_irreducible alone.
    q = 2 skips the filter.  q's primality test runs once, before the
    first draw.  Where it fails, or n is below 2, the first draw goes
    straight to is_irreducible, which rejects a q that is not prime
    (NotPrime) or an n below 1 (BadDegree); a q below 1 already fails the
    first draw (ValueError).
    """
    rng = random.Random(seed)
    sieve = n >= 2 and q > 2 and is_prime(q)
    while True:
        cand = tuple(rng.randrange(q) for _ in range(n))
        poly = cand + (1,)
        if sieve and not _discriminant_admits(poly, q):
            continue
        if is_irreducible(q, poly):
            return cand
