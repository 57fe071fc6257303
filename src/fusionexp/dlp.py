"""Discrete-logarithm solvers for the scalar group and for tuple bases.

The scalar solvers (linear scan, baby-step giant-step, Pollard rho) all
return the unique exponent in [0, q).  The tuple problem is solved either
by exhaustive scan over the exponent field or by the generator-relative
reduction: express base and target componentwise as powers of the group
generator via a scalar-dlog oracle, then divide in the exponent field.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from .errors import CapExceeded, IdentityBase, NotFound, ParamsMismatch
from .field import FieldElement, fe, fe_inv, fe_mul
from .fusion import FusionBase, fusion_pow, is_identity
from .group import GroupElement, GroupParams, generator_element

BRUTE_CAP = 1 << 22
FUSION_BRUTE_CAP = 1 << 20


@dataclass(frozen=True)
class DlogInstance:
    """Find x with g**x = y; g must not be the identity."""

    g: GroupElement
    y: GroupElement

    def __post_init__(self):
        if self.g.params != self.y.params:
            raise ParamsMismatch("instance elements from different groups")
        if self.g.residue == 1:
            raise IdentityBase("dlog base must not be the identity")

    @property
    def params(self) -> GroupParams:
        return self.g.params


@dataclass(frozen=True)
class FdlogInstance:
    """Find the field exponent x with base**x = target; base not the identity."""

    base: FusionBase
    target: FusionBase

    def __post_init__(self):
        if self.base.group != self.target.group or self.base.field != self.target.field:
            raise ParamsMismatch("instance tuples from different parameter sets")
        if is_identity(self.base):
            raise IdentityBase("tuple base must not be the identity")


DlogOracle = Callable[[DlogInstance], int]
FdlogOracle = Callable[[FdlogInstance], FieldElement]


def dlog_bruteforce(inst: DlogInstance, cap: int = BRUTE_CAP) -> int:
    """Linear scan over [0, q); the reference oracle for small groups."""
    params = inst.params
    if params.q > cap:
        raise CapExceeded(f"q={params.q} exceeds the scan cap {cap}")
    P = params.modulus
    g, y = inst.g.residue, inst.y.residue
    acc = 1
    for x in range(params.q):
        if acc == y:
            return x
        acc = acc * g % P
    raise NotFound("target is not a power of the base")


def dlog_bsgs(inst: DlogInstance, stats: dict | None = None) -> int:
    """Baby-step giant-step: O(sqrt(q)) time and memory.

    With m = ceil(sqrt(q)), builds a table of g^j for j < m, then walks
    y * (g^-m)^i; the first table hit gives x = i*m + j.  When a stats dict
    is supplied, 'mults' records the group multiplications performed
    (at most 2m, plus one inversion for the giant stride).
    """
    params = inst.params
    P, q = params.modulus, params.q
    g, y = inst.g.residue, inst.y.residue
    m = math.isqrt(q - 1) + 1  # ceil(sqrt(q)) for q >= 1
    mults = 0
    table = {}
    cur = 1
    for j in range(m):
        if cur not in table:
            table[cur] = j
        if j < m - 1:
            cur = cur * g % P
            mults += 1
    cur = cur * g % P  # g^m
    mults += 1
    stride = pow(cur, -1, P)
    cur = y
    for i in range(m):
        j = table.get(cur)
        if j is not None:
            if stats is not None:
                stats["mults"] = mults
            return (i * m + j) % q
        cur = cur * stride % P
        mults += 1
    raise NotFound("target is not a power of the base")


def dlog_pollard_rho(inst: DlogInstance, seed: int = 0) -> int:
    """Pollard rho with Floyd cycle detection; expected O(sqrt(q)) steps.

    The walk partitions elements by residue mod 3: square, multiply by the
    base, or multiply by the target.  A collision with distinct target
    exponents yields x; degenerate collisions restart with seed + 1.
    """
    params = inst.params
    P, q = params.modulus, params.q
    if q <= 3:
        raise ValueError("rho needs q > 3; use the linear scan")
    g, y = inst.g.residue, inst.y.residue

    def step(x: int, a: int, b: int) -> tuple[int, int, int]:
        r = x % 3
        if r == 0:
            return x * x % P, a * 2 % q, b * 2 % q
        if r == 1:
            return x * g % P, (a + 1) % q, b
        return x * y % P, a, (b + 1) % q

    for attempt in range(256):
        rng = random.Random(seed + attempt)
        a = rng.randrange(q)
        b = rng.randrange(q)
        x = pow(g, a, P) * pow(y, b, P) % P
        tx, ta, tb = x, a, b
        hx, ha, hb = step(x, a, b)
        while tx != hx:
            tx, ta, tb = step(tx, ta, tb)
            hx, ha, hb = step(*step(hx, ha, hb))
        if tb == hb:
            continue
        x_val = (ha - ta) * pow(tb - hb, -1, q) % q
        if pow(g, x_val, P) == y:
            return x_val
    raise NotFound("rho failed to converge; target may not be a power of the base")


def fdlog_solve(inst: FdlogInstance, dlog: DlogOracle) -> FieldElement:
    """Tuple dlog via 2n scalar-dlog oracle calls against the group generator.

    With base = (g^w_0, ..., g^w_{n-1}) and target = (g^z_0, ...), the
    sought exponent is z * w^-1 in the exponent field; w is nonzero because
    the base is not the identity.
    """
    gen = generator_element(inst.base.group)
    field = inst.base.field
    w = fe(field, [dlog(DlogInstance(gen, c)) for c in inst.base.components])
    z = fe(field, [dlog(DlogInstance(gen, c)) for c in inst.target.components])
    return fe_mul(z, fe_inv(w))


def fdlog_bruteforce(inst: FdlogInstance, cap: int = FUSION_BRUTE_CAP) -> FieldElement:
    """Exhaustive scan over the exponent field; the reference tuple-dlog oracle.

    Candidates are walked like an odometer in itertools.product order.
    Tuple exponentiation is additive in the exponent, so moving digit k up
    by one multiplies the current tuple by H_k = base**X^k; H_k has order
    q, so the wrap from q-1 to 0 is one multiply as well.
    """
    field = inst.base.field
    if field.field_order > cap:
        raise CapExceeded(f"field order {field.field_order} exceeds the scan cap {cap}")
    n = field.n
    P = inst.base.group.modulus
    steps = []
    for k in range(n):
        monomial = fe(field, [int(i == k) for i in range(n)])
        steps.append(tuple(c.residue for c in fusion_pow(inst.base, monomial).components))
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
    raise NotFound("no exponent maps base to target; bijectivity violated")
