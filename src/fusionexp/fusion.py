"""Exponentiation of group-element tuples by extension-field exponents.

A base is an n-tuple over the prime-order group (the n-fold direct product,
multiplied componentwise); an exponent is an element of GF(q^n) with the
same q.  Component i of base**exp is

    prod_j base_j ** lam[i][j](exp)

with the lam values taken from `field.lambda_entries`.  The map obeys the
usual exponent laws, degenerates to ordinary exponentiation at n = 1, and
is a bijection from the exponent field onto the product group for every
non-identity base.

`fusion_pow` drops the base's identity components and their lam columns.
When the group modulus P fits in one CPython digit (P.bit_length() <=
sys.int_info.bits_per_digit, 30 bits on most builds), it computes each of
the other k components as a product of k built-in pows, one per lam entry:
there a product is one machine multiply, and the tables below cost more
Python work than the squarings they save.  A larger P goes to one
simultaneous multi-exponentiation kernel, `_multi_pow`, over tables of
subset products of virtual bases, each base cut into slices of the
exponents' bits (`_comb_tables`).  `_slices` picks the slice count: the
fewest multiplications on a first call, whose tables serve that call only,
and Lim-Lee comb tables of max(4, 8 // k) slices for a base that comes back
(one of the last 16 seen, each noted with a call counter in an lru_cache),
kept in a second lru_cache for the last 4 such bases.  An exponent in the
prime subfield skips the kernel: lam is then a multiple of the identity.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys

from .errors import IdentityBase, ParamsMismatch
from .field import FieldElement, FieldParams, fe_one, lambda_entries
from .group import GroupElement, GroupParams, g_inv, g_mul, identity
from .value import Value

# A modulus of at most this many bits is one CPython digit (per-entry pow route).
_DIGIT_BITS = sys.int_info.bits_per_digit
# Virtual bases per subset-product table; a table holds 2**_TABLE_WIDTH products.
_TABLE_WIDTH = 8
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
# A reused base's exponents are cut into at least this many slices (Lim-Lee comb).
_COMB_SLICES = 4
# Reused bases whose comb tables are kept (about 70 kB each at 256 bits, n = 8).
_COMB_BASES = 4
# Full-width bases remembered, so that a second call can be recognised.
_SEEN_BASES = 16


class FusionBase(Value):
    """n-tuple of subgroup elements, tied to matching group and field parameters;
    products, inverses and powers of tuples are built by `FusionBase.unchecked`."""

    __slots__ = ("group", "field", "components")

    def __init__(
        self, group: GroupParams, field: FieldParams, components: tuple[GroupElement, ...]
    ):
        components = tuple(components)
        if group.q != field.q:
            raise ParamsMismatch("group order and exponent-field characteristic differ")
        if len(components) != field.n:
            raise ParamsMismatch(f"need {field.n} components, got {len(components)}")
        if any(c.params != group for c in components):
            raise ParamsMismatch("component from a different group")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "components", components)


def scalar_embed(g: GroupElement, x: FieldElement) -> FusionBase:
    """The tuple (g^x_0, ..., g^x_{n-1}); g must not be the identity."""
    if g.residue == 1:
        raise IdentityBase("cannot embed the group identity")
    P = g.params.modulus
    comps = tuple(GroupElement.unchecked(g.params, pow(g.residue, c, P)) for c in x.coeffs)
    return FusionBase(group=g.params, field=x.params, components=comps)


def unit_embed(g: GroupElement, field: FieldParams) -> FusionBase:
    """The tuple (g, 1, ..., 1), i.e. g raised to the field's one-element."""
    return scalar_embed(g, fe_one(field))


def fb_identity(group: GroupParams, field: FieldParams) -> FusionBase:
    return FusionBase(group, field, tuple(identity(group) for _ in range(field.n)))


def is_identity(a: FusionBase) -> bool:
    return all(c.residue == 1 for c in a.components)


def _check_same_params(a: FusionBase, b: FusionBase) -> None:
    if a.group != b.group or a.field != b.field:
        raise ParamsMismatch("tuple bases from different parameter sets")


def fb_mul(a: FusionBase, b: FusionBase) -> FusionBase:
    _check_same_params(a, b)
    comps = tuple(g_mul(x, y) for x, y in zip(a.components, b.components))
    return FusionBase.unchecked(a.group, a.field, comps)


def fb_inv(a: FusionBase) -> FusionBase:
    return FusionBase.unchecked(a.group, a.field, tuple(g_inv(c) for c in a.components))


def _subset_products(bases: tuple[int, ...], modulus: int) -> list[int]:
    """prods[mask] = product of the bases[k] whose bit k is set in mask."""
    prods = [1]
    for g in bases:
        prods += [p * g % modulus for p in prods]
    return prods


def _bit_columns(row: tuple[int, ...], per: int, slices: int, width: int) -> list[bytes]:
    """The bit columns of a row cut into `slices` slices of `width` bits, one string per table.

    Each exponent's binary digits are spread one per byte over
    slices*width bytes, exponent j of each group of 8 shifted into bit j,
    so that the bytes walk the bit columns from the most significant down
    and slice p is the p-th run of `width` bytes from the end.  Where `per`
    slices share a table (k <= 4, one group), slice p + r is shifted onto
    the run of slice p and into bits r*k up.  One run per table is cut
    out, in table order: slice by slice, then group by group.
    """
    spread = slices * width
    digits = f"0{spread}b"
    runs = []
    for s in range(0, len(row), _TABLE_WIDTH):
        cols = 0
        for j, e in enumerate(row[s : s + _TABLE_WIDTH]):
            cols |= int.from_bytes(format(e, digits).encode().translate(_BIT_BYTES), "big") << j
        folded = cols
        for r in range(1, per):  # per > 1 only at k <= 4, in one group
            folded |= cols >> (8 * r * width) << (r * len(row))
        runs.append(folded.to_bytes(spread, "big"))
    return [run[(slices - 1 - p) * width : (slices - p) * width]
            for p in range(0, slices, per) for run in runs]


def _spans(k: int, slices: int) -> tuple[int, list[tuple[int, int]]]:
    """Slices per table and each table's virtual bases (start, stop): per = max(1, 8 // k)
    slices, or all when fewer, share 8 slots; at k > 8 a slice takes a table per 8 bases."""
    per = min(slices, max(1, _TABLE_WIDTH // k))
    run, total = per * k, slices * k
    return per, [(s, min(s + _TABLE_WIDTH, r + run, total))
                 for r in range(0, total, run) for s in range(r, r + run, _TABLE_WIDTH)]


@functools.lru_cache(maxsize=_COMB_BASES)
def _comb_tables(
    residues: tuple[int, ...], modulus: int, bits: int, slices: int
) -> tuple[list[list[int]], int, int]:
    """Subset-product tables over `slices` slices of each base, slices per table, and stripe.

    The k bases B_j are squared along one chain into the virtual bases
    B_j ** 2**(p*stripe), p below `slices`, stripe = ceil(bits / slices): slice
    p of an exponent, its bits from p*stripe up, goes with virtual base p, in
    slot (p mod per)*k + j of a table laid out by _spans.  The cache keeps
    the comb tables of a reused base."""
    k = len(residues)
    per, spans = _spans(k, slices)
    stripe = -(-bits // slices)
    virtual = list(residues)
    for _ in range(1, slices):
        last = virtual[-k:]
        for _ in range(stripe):
            last = [b * b % modulus for b in last]
        virtual += last
    return [_subset_products(virtual[a:b], modulus) for a, b in spans], per, stripe


@functools.lru_cache
def _slices(k: int, n: int, bits: int, reused: bool) -> int:
    """The slice count s of n rows over k bases and exponents of `bits` bits.

    A reused base takes max(_COMB_SLICES, 8 // k).  A first call takes the s
    with the fewest multiplications: (s - 1)*stripe*k chain squarings, 2**w - 1
    products per table of w virtual bases, and n*stripe*(1 + tables) for the
    rows.  From s on, none counts fewer than (s - 1)/s*bits*k, the products of
    s slices and n*bits*k/8 (8 bases to a table): the scan stops there.
    """
    if reused:
        return max(_COMB_SLICES, _TABLE_WIDTH // k)
    best, rows = (math.inf, 1), n * bits * k // _TABLE_WIDTH
    for s in itertools.count(1):
        spans = _spans(k, s)[1]
        products = sum(2 ** (b - a) - 1 for a, b in spans)
        if (s - 1) * bits * k // s + products + rows >= best[0]:
            break
        stripe = -(-bits // s)
        best = min(best, ((s - 1) * stripe * k + products + n * stripe * (1 + len(spans)), s))
    return best[1]


@functools.lru_cache(maxsize=_SEEN_BASES)
def _visits(modulus: int, residues: tuple[int, ...]) -> itertools.count:
    """A counter of the full-width calls on a base, kept for the last _SEEN_BASES bases."""
    return itertools.count()


def _tables(
    residues: tuple[int, ...], modulus: int, bits: int, n: int
) -> tuple[list[list[int]], int, int]:
    """Tables for _multi_pow's n rows, slices per table, and stripe, as _slices
    picks them: a first call's for that call only, a reused base's from the
    cache.  Two threads that meet a new base at once may both take the first
    route; the result is the same either way."""
    reused = next(_visits(modulus, residues)) > 0
    build = _comb_tables if reused else _comb_tables.__wrapped__
    return build(residues, modulus, bits, _slices(len(residues), n, bits, reused))


def _multi_pow(
    tables: list[list[int]],
    per: int,
    stripe: int,
    lam: tuple[tuple[int, ...], ...],
    modulus: int,
) -> tuple[int, ...]:
    """Component i = prod_j B_j ** lam[i][j], all by one kernel.

    Simultaneous exponentiation (Straus 1964; Moeller, SAC 2001) with
    Lim-Lee combs (CRYPTO '94) over the tables of _comb_tables, `per`
    slices of `stripe` bits to a table.  A row's exponents are cut into
    slices of `stripe` bits, or one slice of all their bits when that is
    shorter, and each table in use reads its column string (_bit_columns).
    A row then makes one left-to-right pass over the bits of a slice: per
    bit, one squaring and one multiply by the product that the bit columns
    select.  With more than one table in use, the per-bit picks of the
    later tables are first multiplied into one per-bit list, indexed from
    1 by bit position.
    """
    out = []
    for row in lam:
        top = max(row).bit_length()
        if not top:
            out.append(1)
            continue
        width = min(stripe, top)
        keys = lookup = None
        for tab, more in zip(tables, _bit_columns(row, per, -(-top // width), width)):
            if keys is None:
                keys, lookup = more, tab
                continue
            lookup = [1] + [lookup[a] * tab[b] % modulus for a, b in zip(keys, more)]
            keys = [i if a or b else 0 for i, (a, b) in enumerate(zip(keys, more), 1)]
        acc = 1
        for k in keys:
            acc = acc * acc % modulus
            if k:
                acc = acc * lookup[k] % modulus
        out.append(acc)
    return tuple(out)


def fusion_pow(base: FusionBase, exp: FieldElement) -> FusionBase:
    """Raise a tuple base to a field exponent through the lambda matrix.

    An exponent in the prime subfield (every coefficient above the
    constant c zero) has lambda = c*I, so for n >= 2 component i is
    B_i ** c by built-in pow.  Otherwise the identity components of the
    base, and their lambda columns, are left out; the rest go through one
    built-in pow per lambda entry when P has at most _DIGIT_BITS bits, and
    through the kernel otherwise.
    """
    if exp.params != base.field:
        raise ParamsMismatch("exponent from a different field")
    residues = tuple(c.residue for c in base.components)
    modulus = base.group.modulus
    kept = [j for j, r in enumerate(residues) if r != 1]
    if not kept:
        return base  # the identity, whatever the exponent
    c, *high = exp.coeffs
    if high and not any(high):
        powered = tuple(pow(r, c, modulus) for r in residues)
    else:
        lam = lambda_entries(exp)
        if len(kept) < len(residues):
            residues = tuple(residues[j] for j in kept)
            lam = [[row[j] for j in kept] for row in lam]
        if modulus.bit_length() <= _DIGIT_BITS:
            mods = (modulus,) * len(residues)
            powered = tuple(math.prod(map(pow, residues, row, mods)) % modulus for row in lam)
        else:
            bits = base.field.q.bit_length()
            powered = _multi_pow(*_tables(residues, modulus, bits, len(lam)), lam, modulus)
    comps = tuple(GroupElement.unchecked(base.group, r) for r in powered)
    return FusionBase.unchecked(base.group, base.field, comps)
