"""Exponentiation of group-element tuples by extension-field exponents.

A base is an n-tuple over the prime-order group (the n-fold direct product,
multiplied componentwise); an exponent is an element of GF(q^n) with the
same q.  Component i of base**exp is

    prod_j base_j ** lam[i][j](exp)

with the lam values taken from `field.lambda_entries`.  The map obeys the
usual exponent laws, degenerates to ordinary exponentiation at n = 1, and
is a bijection from the exponent field onto the product group for every
non-identity base.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IdentityBase, ParamsMismatch
from .field import FieldElement, FieldParams, fe_one, lambda_entries
from .group import (
    GroupElement,
    GroupParams,
    g_inv,
    g_mul,
    group_element,
    identity,
    pow_sm,
)
from .primes import parse_decimal

# Bases per subset-product table; a table holds 2**_TABLE_WIDTH products.
_TABLE_WIDTH = 8
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class FusionBase:
    """n-tuple of subgroup elements, tied to matching group and field parameters."""

    group: GroupParams
    field: FieldParams
    components: tuple[GroupElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.group.q != self.field.q:
            raise ParamsMismatch("group order and exponent-field characteristic differ")
        if len(self.components) != self.field.n:
            raise ParamsMismatch(
                f"need {self.field.n} components, got {len(self.components)}"
            )
        if any(c.params != self.group for c in self.components):
            raise ParamsMismatch("component from a different group")


def scalar_embed(g: GroupElement, x: FieldElement) -> FusionBase:
    """The tuple (g^x_0, ..., g^x_{n-1}); g must not be the identity."""
    if g.residue == 1:
        raise IdentityBase("cannot embed the group identity")
    P = g.params.modulus
    comps = tuple(
        GroupElement(g.params, pow_sm(g.residue, c, P)) for c in x.coeffs
    )
    return FusionBase(group=g.params, field=x.params, components=comps)


def unit_embed(g: GroupElement, field: FieldParams) -> FusionBase:
    """The tuple (g, 1, ..., 1), i.e. g raised to the field's one-element."""
    if g.residue == 1:
        raise IdentityBase("cannot embed the group identity")
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


def _multi_pow(
    residues: tuple[int, ...], lam: tuple[tuple[int, ...], ...], modulus: int
) -> tuple[int, ...]:
    """Component i = prod_j residues[j] ** lam[i][j], all by one kernel.

    Simultaneous exponentiation (Straus 1964; Moeller, SAC 2001): the
    bases are split into groups of _TABLE_WIDTH, and each group gets one
    table of its subset products, shared by every row.  A row then makes
    one left-to-right pass over the bits of its exponents: per bit, one
    squaring and one multiply by the product that the bit column selects.
    With more than one table, the per-bit picks of the later tables are
    first multiplied into one per-bit list, indexed from 1 by bit position.
    """
    tables = [
        (s, _subset_products(residues[s : s + _TABLE_WIDTH], modulus))
        for s in range(0, len(residues), _TABLE_WIDTH)
    ]
    first, later = tables[0][1], tables[1:]
    out = []
    for row in lam:
        width = max(row).bit_length()
        keys, lookup = _bit_columns(row[:_TABLE_WIDTH], width), first
        for s, tab in later:
            more = _bit_columns(row[s : s + _TABLE_WIDTH], width)
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
    """Raise a tuple base to a field exponent through the lambda matrix."""
    if exp.params != base.field:
        raise ParamsMismatch("exponent from a different field")
    residues = tuple(c.residue for c in base.components)
    powered = _multi_pow(residues, lambda_entries(exp), base.group.modulus)
    comps = tuple(GroupElement(base.group, r) for r in powered)
    return FusionBase(base.group, base.field, comps)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def fusion_base_to_json(a: FusionBase) -> list[str]:
    return [str(c.residue) for c in a.components]


def fusion_base_from_json(
    group: GroupParams, field: FieldParams, data: list[str]
) -> FusionBase:
    if len(data) != field.n:
        raise ParamsMismatch(f"need {field.n} components, got {len(data)}")
    comps = tuple(group_element(group, parse_decimal(r)) for r in data)
    return FusionBase(group, field, comps)
