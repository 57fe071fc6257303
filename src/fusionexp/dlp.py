"""Discrete-logarithm solvers for the scalar group and for tuple bases.

The scalar solvers (linear scan, baby-step giant-step, Pollard rho) all
return the unique exponent in [0, q).  Baby-step giant-step keeps the
baby-step table of the last generator it saw, so the 2n calls of one tuple
dlog build it once; Pollard rho walks with Teske's r-adding walk and finds
the cycle by Brent's method.  The tuple problem is solved either
by exhaustive scan over the exponent field or by the generator-relative
reduction: express base and target componentwise as powers of the group
generator via a scalar-dlog oracle, then divide in the exponent field.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=1)
def _baby_steps(P: int, g: int, m: int) -> tuple[dict[int, int], int]:
    """The table {g^j: j} for j < m and the giant stride g^-m, mod P.

    One entry is cached: fdlog_solve makes all its 2n calls against one
    generator, and a process holds at most one table.
    """
    table = {}
    cur = 1
    for j in range(m):
        table.setdefault(cur, j)
        cur = cur * g % P
    return table, pow(cur, -1, P)


def dlog_bsgs(inst: DlogInstance, stats: dict | None = None) -> int:
    """Baby-step giant-step: O(sqrt(q)) time and memory.

    With m = ceil(sqrt(q)), takes the table of g^j for j < m, then walks
    y * (g^-m)^i; the first table hit gives x = i*m + j.  The table and the
    stride are built once per (P, g, m) and reused by later calls with the
    same generator.  When a stats dict is supplied, 'mults' records the
    group multiplications this call made: the giant steps, plus m when the
    call built the table (at most 2m in all, and one inversion).
    """
    params = inst.params
    P, q = params.modulus, params.q
    g, y = inst.g.residue, inst.y.residue
    m = math.isqrt(q - 1) + 1  # ceil(sqrt(q)) for q >= 1
    misses = _baby_steps.cache_info().misses
    table, stride = _baby_steps(P, g, m)
    mults = m if _baby_steps.cache_info().misses != misses else 0
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


# Teske (Math. Comp. 2001): from r = 20 on, an r-adding walk collides about
# as soon as a random mapping does; the mod-3 walk needs markedly more steps.
_RHO_MULTIPLIERS = 20


def dlog_pollard_rho(inst: DlogInstance, seed: int = 0) -> int:
    """Pollard rho on Teske's r-adding walk; expected O(sqrt(q)) steps.

    Each attempt draws r = 20 multipliers M_s = g^a_s * y^b_s and a start
    point from random.Random(seed + attempt); a step multiplies the point
    by M_s with s = point % r.  Brent's method finds the cycle: the walk
    point is saved at each power of two, so a step is one group
    multiplication.  A collision with distinct target exponents yields x;
    a degenerate one starts the next attempt, up to 256.
    """
    params = inst.params
    P, q = params.modulus, params.q
    if q <= 3:
        raise ValueError("rho needs q > 3; use the linear scan")
    g, y = inst.g.residue, inst.y.residue
    r = _RHO_MULTIPLIERS
    for attempt in range(256):
        rng = random.Random(seed + attempt)
        add_a = [rng.randrange(q) for _ in range(r)]
        add_b = [rng.randrange(q) for _ in range(r)]
        mult = [pow(g, a, P) * pow(y, b, P) % P for a, b in zip(add_a, add_b)]
        a, b = rng.randrange(q), rng.randrange(q)
        x = pow(g, a, P) * pow(y, b, P) % P
        # x = g^a * y^b throughout; a and b grow unreduced until the collision
        saved_x, saved_a, saved_b = x, a, b
        power = lam = 1
        while True:
            s = x % r
            x = x * mult[s] % P
            a += add_a[s]
            b += add_b[s]
            if x == saved_x:
                break
            if lam == power:
                saved_x, saved_a, saved_b = x, a, b
                power <<= 1
                lam = 0
            lam += 1
        db = (saved_b - b) % q
        if db == 0:
            continue
        x_val = (a - saved_a) * pow(db, -1, q) % q
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
