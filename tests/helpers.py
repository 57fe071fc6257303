"""Independent reference implementations used as test oracles.

Everything here recomputes results through a different route than the
library: plain convolution plus top-down long division for field products
(and left-to-right square-and-multiply over it for field powers), the
coefficient matrix built column by column from those products, a fold
through the reduction of every X^m, m < 2n - 1 (and right-to-left
square-and-multiply over it), bilinear-form elimination for the symbolic
coefficient matrices, factor enumeration for irreducibility, Ben-Or's test
with a fresh power for every X^(q^i), iterated multiplication for powers,
one square-and-multiply per coefficient-matrix entry for tuple powers,
an odometer over every candidate's whole tuple for the tuple dlog,
Miller-Rabin with 28 fixed witnesses for primality, and argparse for the
command line, on the argv that it and the CLI read alike.
"""

from __future__ import annotations

import argparse
import itertools

from fusionexp import NotFound, cli, fe, fusion_pow
from fusionexp.group import pow_sm


def schoolbook_mulmod(q, f_low, a, b):
    """Convolution followed by long division by the monic modulus X^n + f."""
    n = len(f_low)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % q
    for m in range(2 * n - 2, n - 1, -1):
        c = prod[m]
        if c:
            prod[m] = 0
            for i in range(n):
                prod[m - n + i] = (prod[m - n + i] - c * f_low[i]) % q
    return tuple(prod[:n])


def schoolbook_powmod(q, f_low, a, k):
    """a**k by left-to-right square and multiply over schoolbook_mulmod."""
    acc = (1,) + (0,) * (len(f_low) - 1)
    for bit in bin(k)[2:]:
        acc = schoolbook_mulmod(q, f_low, acc, acc)
        if bit == "1":
            acc = schoolbook_mulmod(q, f_low, acc, a)
    return acc


def lambda_matrix(q, f_low, y):
    """lam[i][j] of y: column j is the product X^j * y by schoolbook_mulmod."""
    n = len(f_low)
    cols = [schoolbook_mulmod(q, f_low, (0,) * j + (1,) + (0,) * (n - 1 - j), y)
            for j in range(n)]
    return tuple(zip(*cols))


def reduction_columns(q, f_low):
    """Columns C[i] with X^m = sum_i C[i][m] X^i modulo (f, q), m = 0 .. 2n-2.

    Row m >= n is the shift of row m-1 with the overflow folded back
    through X^n = -f.
    """
    n = len(f_low)
    rows = [[0] * n for _ in range(2 * n - 1)]
    for m in range(n):
        rows[m][m] = 1
    for m in range(n, 2 * n - 1):
        prev = rows[m - 1]
        top = prev[n - 1]
        row = [0] + prev[: n - 1]
        for i in range(n):
            row[i] = (row[i] - top * f_low[i]) % q
        rows[m] = row
    return tuple(zip(*rows))


def column_fold(q, columns, prod):
    """All 2n-1 coefficients of a product folded through the full columns."""
    return tuple(sum(c * p for c, p in zip(col, prod)) % q for col in columns)


def column_mulmod(q, f_low, a, b):
    """Convolution folded through every reduction column."""
    prod = [0] * (2 * len(f_low) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return column_fold(q, reduction_columns(q, f_low), prod)


def column_powmod(q, f_low, a, k):
    """a**k by right-to-left square and multiply over column_mulmod."""
    acc = (1,) + (0,) * (len(f_low) - 1)
    while k:
        if k & 1:
            acc = column_mulmod(q, f_low, acc, a)
        a = column_mulmod(q, f_low, a, a)
        k >>= 1
    return acc


def bilinear_lambda(n, f_low):
    """Symbolic multiply-then-reduce over the integers.

    Polynomial coefficients are n x n integer matrices recording the
    coefficient of x_j*y_k.  Returns table[i][j][k], the coefficient of y_k
    in the factor that multiplies x_j in output coordinate i.
    """
    size = 2 * n - 1
    prod = [[[0] * n for _ in range(n)] for _ in range(size)]
    for j in range(n):
        for k in range(n):
            prod[j + k][j][k] += 1
    for m in range(size - 1, n - 1, -1):
        mat = prod[m]
        prod[m] = [[0] * n for _ in range(n)]
        for i in range(n):
            if f_low[i]:
                for j in range(n):
                    for k in range(n):
                        prod[m - n + i][j][k] -= f_low[i] * mat[j][k]
    return tuple(
        tuple(tuple(prod[i][j][k] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def parse_entry(expr, n):
    """Parse a signed linear expression like '-y1-y3+y4' into n coefficients."""
    coeffs = [0] * n
    expr = expr.replace(" ", "")
    if expr == "0":
        return tuple(coeffs)
    for piece in expr.replace("-", "+-").split("+"):
        if not piece:
            continue
        sign = 1
        if piece.startswith("-"):
            sign = -1
            piece = piece[1:]
        if "*" in piece:
            mag, var = piece.split("*")
            sign *= int(mag)
            piece = var
        assert piece.startswith("y"), piece
        coeffs[int(piece[1:])] += sign
    return tuple(coeffs)


def poly_has_factor(q, poly):
    """Trial division by every lower-degree monic polynomial over Z_q."""
    n = len(poly) - 1
    for d in range(1, n // 2 + 1):
        for tail in itertools.product(range(q), repeat=d):
            divisor = list(tail) + [1]
            if _poly_rem(poly, divisor, q) == []:
                return True
    return False


def _poly_rem(a, m, q):
    a = [c % q for c in a]
    while a and a[-1] == 0:
        a.pop()
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = a[-1]  # m is monic
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * c) % q
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_gcd(a, b, q):
    """Monic gcd over Z_q by repeated remainders (an empty list is zero)."""
    a = [c % q for c in a]
    b = [c % q for c in b]
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], -1, q)
        b = [c * inv % q for c in b]
        a, b = b, _poly_rem(a, b, q)
    return a


def ben_or_irreducible(q, poly):
    """Ben-Or's test with a fresh power for each step: gcd(f, X^(q^i) - X) = 1
    for i = 1 .. deg/2, each X^(q^i) computed as (X^(q^(i-1)))**q."""
    n = len(poly) - 1
    f_low = tuple(c % q for c in poly[:n])
    h = (0, 1) + (0,) * (n - 2)
    for _ in range(n // 2):
        h = schoolbook_powmod(q, f_low, h, q)
        h_minus_x = list(h)
        h_minus_x[1] -= 1
        if len(_poly_gcd(poly, h_minus_x, q)) > 1:
            return False
    return True


def iterated_pow(g, e, modulus):
    """Exponentiation by e-fold multiplication; the slow reference."""
    acc = 1
    for _ in range(e):
        acc = acc * g % modulus
    return acc


def pow_components(residues, lam, modulus):
    """Component i = prod_j residues[j] ** lam[i][j], one pow_sm per entry.

    The slow path that tuple exponentiation's simultaneous kernel replaced.
    """
    out = []
    for row in lam:
        acc = 1
        for base, e in zip(residues, row):
            if e and base != 1:
                acc = acc * pow_sm(base, e, modulus) % modulus
        out.append(acc)
    return tuple(out)


def odometer_fdlog(inst):
    """Tuple dlog by building every candidate's whole tuple, in itertools.product order.

    The slow path that fdlog_bruteforce's one-component scan replaced: with
    H_k = base**X^k, moving digit k up by one (or wrapping it from q-1 to
    0) multiplies the current tuple by H_k.
    """
    field = inst.base.field
    n, P = field.n, inst.base.group.modulus
    steps = []
    for k in range(n):
        h = fusion_pow(inst.base, fe(field, [int(i == k) for i in range(n)]))
        steps.append(tuple(c.residue for c in h.components))
    target = tuple(c.residue for c in inst.target.components)
    cur = (1,) * n
    prev = (0,) * n
    for cand in itertools.product(range(field.q), repeat=n):
        for k in range(n):
            if cand[k] != prev[k]:
                cur = tuple(a * h % P for a, h in zip(cur, steps[k]))
        if cur == target:
            return fe(field, cand)
        prev = cand
    raise NotFound("no exponent maps base to target")


class CountingInt(int):
    """An int that adds one to CountingInt.mults per product it takes part in.

    Products and remainders of a CountingInt are CountingInts again, so a
    computation started from one counts every multiplication that follows.
    """

    mults = 0

    def __mul__(self, other):
        CountingInt.mults += 1
        return CountingInt(int(self) * int(other))

    __rmul__ = __mul__

    def __mod__(self, other):
        return CountingInt(int(self) % int(other))


class CountingModulus(int):
    """A modulus that adds one to CountingModulus.reductions per x % modulus."""

    reductions = 0

    def __rmod__(self, other):
        CountingModulus.reductions += 1
        return other % int(self)


_MR_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime_fixed_witnesses(n):
    """Miller-Rabin with fixed witnesses: the first 12 primes below 3.3e24,
    where that set is a proof, and the first 28 primes from there on."""
    if n < 2:
        return False
    for p in _MR_SMALL_PRIMES:
        if n % p == 0:
            return n == p
    witnesses = _MR_SMALL_PRIMES[:12] if n < _MR_BOUND else _MR_SMALL_PRIMES[:28]
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in witnesses:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def draw_nonzero_mod(rng, q):
    """Uniform draw from [1, q) using the library's redraw-on-zero pattern,
    so seeded runs consume the rng identically."""
    while True:
        v = rng.randrange(q)
        if v:
            return v


class ScalarElGamal:
    """Textbook ElGamal in the prime-order subgroup, for n=1 comparisons."""

    def __init__(self, params):
        self.params = params

    def keygen(self, rng):
        q, P, g = self.params.q, self.params.modulus, self.params.generator
        x = draw_nonzero_mod(rng, q)
        return x, pow(g, x, P)

    def encrypt(self, pk, msg, rng):
        q, P, g = self.params.q, self.params.modulus, self.params.generator
        k = draw_nonzero_mod(rng, q)
        return pow(g, k, P), msg * pow(pk, k, P) % P

    def decrypt(self, sk, ct):
        c1, c2 = ct
        P = self.params.modulus
        return c2 * pow(pow(c1, sk, P), -1, P) % P


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise cli.UsageError(message)


def _flag_int(text):
    try:
        return cli.parse_decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser():
    """The argparse parser that cli.parse_args replaced, kept as its oracle.

    On argv where no token after a bare flag starts with "-", no -h cluster
    (-hx) or "--" appears and no help comes before an ambiguous prefix,
    parse_args(argv) gives the same Namespace fields (command and func
    included) or a UsageError; -h and --help print help and raise SystemExit(0).
    """
    parser = _Parser(prog="fusionexp", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("params", help="generate group and field parameters")
    p.add_argument("--q-bits", type=_flag_int, required=True)
    p.add_argument("--n", type=_flag_int, required=True)
    p.add_argument("--seed", type=_flag_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cli.cmd_params)

    p = sub.add_parser("vectors", help="dump symbolic coefficient matrices")
    p.add_argument("--n", default="1,2,3,4,5", help="comma-separated degrees from 1..5")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cli.cmd_vectors)

    p = sub.add_parser("eval", help="raise a tuple base to a field exponent")
    p.add_argument("--config", required=True)
    p.add_argument("--base", required=True, help="JSON array of decimal strings")
    p.add_argument("--exp", required=True, help="JSON array of decimal strings")
    p.set_defaults(func=cli.cmd_eval)

    p = sub.add_parser("fdlog", help="solve a tuple discrete log")
    p.add_argument("--config", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--solver", choices=("bruteforce", "bsgs", "rho"), default="bsgs")
    p.add_argument("--seed", type=_flag_int, default=None)
    p.set_defaults(func=cli.cmd_fdlog)

    p = sub.add_parser("demo", help="run a protocol or reduction demo")
    p.add_argument("--config", required=True)
    p.add_argument("--which", choices=("dh", "elgamal", "vss", "reductions"), required=True)
    p.add_argument("--seed", type=_flag_int, default=None)
    p.add_argument("--trials", type=_flag_int, default=20)
    p.set_defaults(func=cli.cmd_demo)

    return parser
