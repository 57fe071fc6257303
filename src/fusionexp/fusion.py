"""Exponentiation of group-element tuples by extension-field exponents.

A base is an n-tuple over the prime-order group (the n-fold direct product,
multiplied componentwise); an exponent is an element of GF(q^n) with the
same q.  Component i of base**exp is

    prod_j base_j ** lam[i][j](exp)

with the lam values taken from `field.lambda_entries`.  The map obeys the
usual exponent laws, degenerates to ordinary exponentiation at n = 1, and
is a bijection from the exponent field onto the product group for every
non-identity base.

`fusion_pow` drops the base's identity components and their lam columns,
then computes the other k components in one simultaneous
multi-exponentiation kernel, `_multi_pow`, over tables of subset products
of the bases.  The first full-width call on a base builds its tables for
that call only.  At a q of 64 bits or more, a base that comes back (one of
the last 16 seen, each noted with a call counter in an lru_cache) gets
Lim-Lee comb tables, kept in a second lru_cache for the last 4 such bases.
Each of the k components is cut there into max(1, 8 // k) slices of its
exponent bits, so that the slices fill a table's 8 slots, and a row runs
over a quarter of the exponent bits, or an eighth at k = 1.  An exponent
in the prime subfield skips the kernel: lam is then a multiple of the
identity.
"""

from __future__ import annotations

import functools
import itertools

from .errors import IdentityBase, ParamsMismatch
from .field import FieldElement, FieldParams, fe_one, lambda_entries
from .group import (
    GroupElement,
    GroupParams,
    g_inv,
    g_mul,
    identity,
)
from .value import Value

# Bases per subset-product table; a table holds 2**_TABLE_WIDTH products.
_TABLE_WIDTH = 8
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
# A reused base's exponents are cut into this many chunks (Lim-Lee comb).
_COMB_CHUNKS = 4
# Below this size of q a comb row costs more time than a plain one: the
# squarings it saves are cheaper than the Python work per chunk table.
_COMB_MIN_BITS = 64
# Reused bases whose comb tables are kept (about 70 kB each at 256 bits, n = 8).
_COMB_BASES = 4
# Full-width bases remembered, so that a second call can be recognised.
_SEEN_BASES = 16


class FusionBase(Value):
    """n-tuple of subgroup elements, tied to matching group and field parameters."""

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
    comps = tuple(GroupElement(g.params, pow(g.residue, c, P)) for c in x.coeffs)
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
    return FusionBase(a.group, a.field, comps)


def fb_inv(a: FusionBase) -> FusionBase:
    return FusionBase(a.group, a.field, tuple(g_inv(c) for c in a.components))


def _subset_products(bases: tuple[int, ...], modulus: int) -> list[int]:
    """prods[mask] = product of the bases[k] whose bit k is set in mask."""
    prods = [1]
    for g in bases:
        prods += [p * g % modulus for p in prods]
    return prods


def _bit_columns(exps: tuple[int, ...], width: int) -> bytes:
    """Byte b has bit k set iff exps[k] has bit width-1-b set.

    Each exponent's binary digits are spread one per byte, then the k-th
    exponent is shifted into bit k of every byte, so reading the bytes in
    order walks the bit columns from the most significant down.
    """
    cols = 0
    for k, e in enumerate(exps):
        digits = format(e, f"0{width}b").encode().translate(_BIT_BYTES)
        cols |= int.from_bytes(digits, "big") << k
    return cols.to_bytes(width, "big")


def _subset_tables(
    residues: tuple[int, ...], modulus: int, chunk: int, chunks: int
) -> list[list[list[int]]]:
    """tables[g][c] = subset products of the bases of group g, each raised to 2**(c*chunk).

    Group g holds residues[8g : 8g + 8]; c runs below `chunks`.  The bases
    may be a reused base's slices (see _comb_tables).
    """
    tables = []
    for s in range(0, len(residues), _TABLE_WIDTH):
        bases = residues[s : s + _TABLE_WIDTH]
        combs = [_subset_products(bases, modulus)]
        for _ in range(1, chunks):
            for _ in range(chunk):
                bases = [b * b % modulus for b in bases]
            combs.append(_subset_products(bases, modulus))
        tables.append(combs)
    return tables


@functools.lru_cache(maxsize=_COMB_BASES)
def _comb_tables(
    residues: tuple[int, ...], modulus: int, bits: int
) -> tuple[list[list[list[int]]], int, int, int]:
    """Comb tables of a reused base, their chunk width, and how rows are cut.

    A table has 8 slots.  With k < 8 bases, the exponent of each base B_j
    is cut into per = 8 // k slices of `stripe` bits; slice p, its bits
    from p*stripe up, goes with the virtual base B_j ** 2**(p*stripe) in
    slot p*k + j.  The exponent bits are cut into max(_COMB_CHUNKS, per)
    chunks, so a stripe spans chunks // per of them, one per table, and
    each lookup reads up to 8 exponent bits; k = 1 takes 8 chunks.  At
    k >= 8, per = 1 and the virtual bases are the bases.
    """
    per = max(1, _TABLE_WIDTH // len(residues))
    chunks = max(_COMB_CHUNKS, per)
    chunk = -(-bits // chunks)
    stripe = chunks // per * chunk
    virtual = list(residues)
    for _ in range(1, per):
        last = virtual[-len(residues) :]
        for _ in range(stripe):
            last = [b * b % modulus for b in last]
        virtual += last
    return _subset_tables(tuple(virtual), modulus, chunk, chunks // per), chunk, per, stripe


@functools.lru_cache(maxsize=_SEEN_BASES)
def _visits(modulus: int, residues: tuple[int, ...]) -> itertools.count:
    """A counter of the full-width calls on a base, kept for the last _SEEN_BASES bases."""
    return itertools.count()


def _tables(
    residues: tuple[int, ...], modulus: int, bits: int
) -> tuple[list[list[list[int]]], int, int, int]:
    """Subset-product tables for _multi_pow, their chunk width, slices and stripe.

    The first full-width call on a base builds one chunk of `bits` bits for
    that call only, over the bases themselves (one slice); _visits counts
    it.  A later call takes the base's comb tables, cached for the last
    _COMB_BASES bases; their rows need each exponent cut into `per` slices
    of `stripe` bits.  A q of fewer than _COMB_MIN_BITS bits always takes
    the first route.  Two threads that meet a new base at once may both
    take the first route; the result is the same either way.
    """
    if bits >= _COMB_MIN_BITS and next(_visits(modulus, residues)) > 0:
        return _comb_tables(residues, modulus, bits)
    return _subset_tables(residues, modulus, bits, 1), bits, 1, bits


def _multi_pow(
    tables: list[list[list[int]]],
    chunk: int,
    lam: tuple[tuple[int, ...], ...],
    modulus: int,
) -> tuple[int, ...]:
    """Component i = prod_j B_j ** lam[i][j], all by one kernel.

    Simultaneous exponentiation (Straus 1964; Moeller, SAC 2001) with
    Lim-Lee combs (CRYPTO '94): tables[g][c] holds the subset products of
    the bases B_j of group g (j in [8g, 8g + 8)) raised to 2**(c*chunk),
    and a row's exponents are cut into chunks of `chunk` bits, chunk c
    looked up in table c.  A row then makes one left-to-right pass over
    the bits of a chunk: per bit, one squaring and one multiply by the
    product that the bit columns select.  With more than one table in
    use, the per-bit picks of the later tables are first multiplied into
    one per-bit list, indexed from 1 by bit position.  One table per
    group with chunk >= bits(q) is plain simultaneous exponentiation.
    The B_j may be a reused base's slices (_comb_tables), each row cut to
    match, so that one table serves up to 8 chunk lookups at once.
    """
    out = []
    for row in lam:
        top = max(row).bit_length()
        if not top:
            out.append(1)
            continue
        width = min(chunk, top)
        used = -(-top // width)
        keys = lookup = None
        for g, combs in enumerate(tables):
            s = g * _TABLE_WIDTH
            cols = _bit_columns(row[s : s + _TABLE_WIDTH], used * width)
            for c in range(used):
                more, tab = cols[(used - 1 - c) * width : (used - c) * width], combs[c]
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
    base, and their lambda columns, are left out of the kernel.
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
        tables, chunk, per, stripe = _tables(residues, modulus, base.field.q.bit_length())
        if per > 1:  # slice p of e is its bits p*stripe and up
            mask = (1 << stripe) - 1
            lam = [[e >> s & mask for s in range(0, per * stripe, stripe) for e in row]
                   for row in lam]
        powered = _multi_pow(tables, chunk, lam, modulus)
    comps = tuple(GroupElement(base.group, r) for r in powered)
    return FusionBase(base.group, base.field, comps)
