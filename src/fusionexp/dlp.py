"""Discrete-logarithm solvers for the scalar group and for tuple bases.

The scalar solvers (linear scan, baby-step giant-step, Pollard rho) all
return the unique exponent in [0, q).  The tuple problem is solved either
by exhaustive scan over the exponent field or by the generator-relative
reduction: express base and target componentwise as powers of the group
generator via a scalar-dlog oracle, then divide in the exponent field.

That reduction makes 2n oracle calls, one DlogInstance each, against one
generator, and each instance carries the residues of all 2n targets as its
batch.  Baby-step giant-step then sizes one table for the whole batch
(about sqrt(2n*q) entries, kept for the generator), and Pollard rho keeps
the distinguished points of its walks across it: its multipliers are powers
of g alone, so once a target is solved the points its walks reached have
known logs, and each later target only walks until it meets one.  A lone
instance (empty batch) gets a sqrt(q) table and runs the same rho walk on a
store of its own.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable

from .errors import CapExceeded, IdentityBase, NotFound, ParamsMismatch
from .field import FieldElement, fe, fe_inv, fe_mul
from .fusion import FusionBase, fusion_pow, is_identity
from .group import GroupElement, GroupParams, generator_element
from .value import Value

BRUTE_CAP = 1 << 22
FUSION_BRUTE_CAP = 1 << 20


class DlogInstance(Value):
    """Find x with g**x = y; g must not be the identity.

    batch, when not empty, holds the residues of all the targets that are
    solved against g together with this one, y among them; the solvers
    then share their work across the batch.
    """

    __slots__ = ("g", "y", "batch")

    def __init__(self, g: GroupElement, y: GroupElement, batch: tuple[int, ...] = ()):
        if g.params != y.params:
            raise ParamsMismatch("instance elements from different groups")
        if g.residue == 1:
            raise IdentityBase("dlog base must not be the identity")
        if batch and y.residue not in batch:
            raise ValueError("the target is not in its batch")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "batch", batch)

    @property
    def params(self) -> GroupParams:
        return self.g.params


class FdlogInstance(Value):
    """Find the field exponent x with base**x = target; base not the identity."""

    __slots__ = ("base", "target")

    def __init__(self, base: FusionBase, target: FusionBase):
        if base.group != target.group or base.field != target.field:
            raise ParamsMismatch("instance tuples from different parameter sets")
        if is_identity(base):
            raise IdentityBase("tuple base must not be the identity")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "target", target)


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


# The one baby-step table a process keeps: (P, g, m, {g^j: j for j < m}, g^-m).
_baby_table: tuple = (0, 0, 0, {}, 0)


def _baby_steps(P: int, g: int, m: int) -> tuple[int, dict[int, int], int, bool]:
    """A baby-step table for (P, g) at least m wide: (width, table, stride, built).

    The cached table is reused when it belongs to the same (P, g) and is
    wide enough, so the 2n calls of one tuple dlog build it once, and a lone
    call after a batched one reuses the batch's wider table.
    """
    global _baby_table
    cached_P, cached_g, width, table, stride = _baby_table
    if (cached_P, cached_g) == (P, g) and width >= m:
        return width, table, stride, False
    table = {}
    cur = 1
    for j in range(m):
        table.setdefault(cur, j)
        cur = cur * g % P
    stride = pow(cur, -1, P)
    _baby_table = (P, g, m, table, stride)
    return m, table, stride, True


def dlog_bsgs(inst: DlogInstance, stats: dict | None = None) -> int:
    """Baby-step giant-step against a table of about sqrt(L*q) baby steps.

    L is the number of targets in the instance's batch (1 for a lone
    instance).  With m = ceil(sqrt(L*q)), capped at q, it takes the table
    of g^j for j < m, then walks y * (g^-m)^i for i < ceil(q/m); the first
    table hit gives x = i*m + j.  A table m wide costs m multiplications
    and saves about m/2 giant steps per target, so sizing it for all L
    targets of a batch balances the two (Bernstein-Lange, "Computing small
    discrete logarithms faster", INDOCRYPT 2012).  The table is built once
    per generator and reused while it is at least m wide.  When a stats
    dict is supplied, 'mults' records the group multiplications this call
    made: the giant steps, plus m when the call built the table.
    """
    params = inst.params
    P, q = params.modulus, params.q
    g, y = inst.g.residue, inst.y.residue
    targets = max(1, len(inst.batch))
    m = min(q, math.isqrt(targets * q - 1) + 1)  # ceil(sqrt(L*q)) for q >= 1
    m, table, stride, built = _baby_steps(P, g, m)
    mults = m if built else 0
    cur = y
    for i in range(-(-q // m)):
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

# A walk ends at its first distinguished point, one whose low dp_bits bits
# are zero, about 2^dp_bits steps on; it is cut off after _DP_WALK_CAP times
# that, since it may have entered a cycle without one.  A target is given up
# after about _DP_BUDGET * sqrt(q) steps.
_DP_WALK_CAP = 16
_DP_BUDGET = 1024

# The one shared walk a process keeps: (P, g, batch, seed), and the
# multipliers, their logs to base g, the points of known log, the answers
# and the random stream.
_shared_walk: tuple = (None, None)


def dlog_pollard_rho(inst: DlogInstance, seed: int = 0) -> int:
    """Pollard rho with distinguished points on Teske's r-adding walk
    (van Oorschot-Wiener, J. Cryptology 1999; Kuhn-Struik, SAC 2001).

    The r = 20 multipliers M_s = g^a_s are drawn from random.Random(seed)
    and do not depend on the target.  A walk starts at a random g^A * y^B
    with B != 0 and multiplies the point by M_s with s = point % r, so only
    A moves; it ends at its first distinguished point.  Two walks that end
    at one point with different B give log y, and so does a walk that ends
    at a point of known log.  Once y is solved, the ends of its walks are
    points of known log.  The answer is checked against g**x == y before it
    is returned.

    An instance with a batch keeps its points for the other targets of the
    batch, whose walks end as soon as they meet one, so the L targets of a
    batch cost about sqrt(2*L*q) steps in all rather than L rho runs, and a
    repeated target costs a lookup.  A lone instance walks on a fresh store
    each call, about 1.35*sqrt(q) steps, so one seed repeats the same work.
    """
    params = inst.params
    P, q = params.modulus, params.q
    if q <= 3:
        raise ValueError("rho needs q > 3; use the linear scan")
    g, y = inst.g.residue, inst.y.residue
    global _shared_walk
    key = (P, g, inst.batch, seed)
    if inst.batch and _shared_walk[0] == key:
        mult, logs, points, solved, rng = _shared_walk[1]
    else:
        rng = random.Random(seed)
        logs = [rng.randrange(q) for _ in range(_RHO_MULTIPLIERS)]
        mult = [pow(g, a, P) for a in logs]
        points, solved = {}, {}
        if inst.batch:
            _shared_walk = key, (mult, logs, points, solved, rng)
    if y not in solved:
        solved[y] = _dp_rho(P, q, g, y, rng, mult, logs, points)
    return solved[y]


def _dp_rho(P: int, q: int, g: int, y: int, rng: random.Random, mult: list[int],
            logs: list[int], points: dict[int, int]) -> int:
    """log y by walks from random g^A * y^B to distinguished points.

    Multiplier s is mult[s] = g^logs[s].  A walk ending at a point of known
    log in points, or at the end of an earlier walk of y with a different
    B, gives log y; the ends of y's walks then join points with their logs.
    """
    dp_bits = max(0, (q.bit_length() - 12) // 2)
    mask, cap = (1 << dp_bits) - 1, _DP_WALK_CAP << dp_bits
    r = _RHO_MULTIPLIERS
    ends = {}
    budget = _DP_BUDGET * (math.isqrt(q) + 1)
    while budget > 0:
        a, b = rng.randrange(q), rng.randrange(1, q)
        x = pow(g, a, P) * pow(y, b, P) % P
        for steps in range(cap):
            if x & mask == 0:
                break
            s = x % r
            x = x * mult[s] % P
            a += logs[s]
        budget -= steps + 1
        if x & mask:
            continue
        if x in points:  # g^log = g^a * y^b
            da, db = points[x] - a, b
        else:  # g^a0 * y^b0 = g^a * y^b
            a0, b0 = ends.setdefault(x, (a, b))
            da, db = a - a0, b0 - b
        if db % q == 0:
            continue
        log = da * pow(db, -1, q) % q
        if pow(g, log, P) == y:
            points.update({pt: (a0 + b0 * log) % q for pt, (a0, b0) in ends.items()})
            return log
    raise NotFound("rho failed to converge; target may not be a power of the base")


def fdlog_solve(inst: FdlogInstance, dlog: DlogOracle) -> FieldElement:
    """Tuple dlog via 2n scalar-dlog oracle calls against the group generator.

    With base = (g^w_0, ..., g^w_{n-1}) and target = (g^z_0, ...), the
    sought exponent is z * w^-1 in the exponent field; w is nonzero because
    the base is not the identity.
    """
    gen = generator_element(inst.base.group)
    field = inst.base.field
    comps = inst.base.components + inst.target.components
    batch = tuple(c.residue for c in comps)
    logs = [dlog(DlogInstance(gen, c, batch)) for c in comps]
    w, z = fe(field, logs[:field.n]), fe(field, logs[field.n:])
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
