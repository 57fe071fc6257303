"""Discrete-logarithm solvers for the scalar group and for tuple bases.

The scalar solvers (linear scan, baby-step giant-step, Pollard rho) all
return the unique exponent in [0, q).  The tuple problem is solved either
by exhaustive scan over the exponent field or by the generator-relative
reduction: express base and target componentwise as powers of the group
generator via a scalar-dlog oracle, then divide in the exponent field.

That reduction makes 2n oracle calls, one DlogInstance each, against one
generator, and each instance carries batch = 2n, the number of targets
solved against the generator together.  One rule covers lone and batched
calls alike: the square-root solvers keep their precomputation per
generator (Bernstein-Lange, INDOCRYPT 2012), and batch only sizes the
baby-step table.  Baby-step giant-step keeps one table of about
sqrt(batch*q) entries; Pollard rho keeps up to _KNOWN_POINTS = 4096 points
of known log, about 0.4 MB, for one (P, g, seed) at a time, and each later
target only walks until it meets one.  The CLI gains nothing from either,
since each command runs in a fresh interpreter.
"""

from __future__ import annotations

import _thread
import functools
import itertools
import math
import operator
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

    batch counts the targets solved against g together with this one, 1 for
    a lone instance; it only sizes the baby-step table of dlog_bsgs.  Both
    square-root solvers keep their precomputation per generator, whatever
    the batch.
    """

    __slots__ = ("g", "y", "batch")

    def __init__(self, g: GroupElement, y: GroupElement, batch: int = 1):
        if g.params != y.params:
            raise ParamsMismatch("instance elements from different groups")
        if g.residue == 1:
            raise IdentityBase("dlog base must not be the identity")
        batch = operator.index(batch)
        if batch < 1:
            raise ValueError("a batch counts at least one target")
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


def dlog_bruteforce(inst: DlogInstance) -> int:
    """Linear scan over [0, q), q at most BRUTE_CAP; the reference oracle for small groups."""
    params = inst.params
    if params.q > BRUTE_CAP:
        raise CapExceeded(f"q={params.q} exceeds the scan cap {BRUTE_CAP}")
    P = params.modulus
    g, y = inst.g.residue, inst.y.residue
    acc = 1
    for x in range(params.q):
        if acc == y:
            return x
        acc = acc * g % P
    raise NotFound("target is not a power of the base")


# The one baby-step table a process keeps: (P, g, m, {g^j: j for j < m}, g^-m).
# Not an lru_cache: a table serves any call for its (P, g) that needs one no
# wider, which a lookup by key cannot express.
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

    L is the instance's batch, the number of targets solved against g
    together (1 for a lone instance).  With m = ceil(sqrt(L*q)), capped at
    q, it takes the table of g^j for j < m, then walks y * (g^-m)^i for
    i < ceil(q/m); the first table hit gives x = i*m + j.  A table m wide
    costs m multiplications and saves about m/2 giant steps per target, so
    sizing it for all L targets of a batch balances the two (Bernstein-Lange, "Computing small
    discrete logarithms faster", INDOCRYPT 2012).  The table is built once
    per generator and reused while it is at least m wide.  When a stats
    dict is supplied, 'mults' records the group multiplications this call
    made: the giant steps, plus m when the call built the table.
    """
    params = inst.params
    P, q = params.modulus, params.q
    g, y = inst.g.residue, inst.y.residue
    m = min(q, math.isqrt(inst.batch * q - 1) + 1)  # ceil(sqrt(L*q)) for q >= 1
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

# Points of known log kept per (P, g, seed); once the store is full no more
# join it.  Bernstein-Lange (INDOCRYPT 2012): T stored points cut a target
# to about sqrt(q/T) steps, which at q of 24 bits is the 64-step walk itself.
# Threads may share a store, so the check of its size and the additions are
# made under one lock; a _thread lock, since importing threading would slow
# every CLI start.
_KNOWN_POINTS = 4096
_points_lock = _thread.allocate_lock()


@functools.lru_cache(maxsize=1)
def _walk(P: int, q: int, g: int, seed: int) -> tuple:
    """The multipliers of the walk, their logs to base g, the points of known
    log and the random stream; cached for the last (P, g, seed)."""
    rng = random.Random(seed)
    logs = [rng.randrange(q) for _ in range(_RHO_MULTIPLIERS)]
    return [pow(g, a, P) for a in logs], logs, {}, rng


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

    Every call, lone or batched, keeps its points, up to _KNOWN_POINTS,
    for every later call with the same (P, g, seed), whose walks end as
    soon as they meet one; the batch plays no part.  So a call's cost
    depends on the calls before it with the same (P, g, seed), and from an
    empty store (_walk.cache_clear()) one seed repeats the same work.
    """
    params = inst.params
    P, q = params.modulus, params.q
    if q <= 3:
        raise ValueError("rho needs q > 3; use the linear scan")
    g, y = inst.g.residue, inst.y.residue
    mult, logs, points, rng = _walk(P, q, g, seed)
    return _dp_rho(P, q, g, y, rng, mult, logs, points)


def _dp_rho(P: int, q: int, g: int, y: int, rng: random.Random, mult: list[int],
            logs: list[int], points: dict[int, int]) -> int:
    """log y by walks from random g^A * y^B to distinguished points.

    Multiplier s is mult[s] = g^logs[s].  A walk ending at a point of known
    log in points, or at the end of an earlier walk of y with a different
    B, gives log y; the ends of y's walks then join points with their logs
    while points holds fewer than _KNOWN_POINTS.
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
            with _points_lock:
                room = _KNOWN_POINTS - len(points)
                for pt, (a0, b0) in itertools.islice(ends.items(), room):
                    points[pt] = (a0 + b0 * log) % q
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
    logs = [dlog(DlogInstance(gen, c, len(comps))) for c in comps]
    w, z = fe(field, logs[:field.n]), fe(field, logs[field.n:])
    return fe_mul(z, fe_inv(w))


def fdlog_bruteforce(inst: FdlogInstance) -> FieldElement:
    """Exhaustive scan over the exponent field, of order at most FUSION_BRUTE_CAP;
    the reference tuple-dlog oracle.

    Candidates are walked like an odometer in itertools.product order.
    Tuple exponentiation is additive in the exponent, so moving digit k up
    by one multiplies the current tuple by H_k = base**X^k; H_k has order
    q, so the wrap from q-1 to 0 is one multiply as well.
    """
    field = inst.base.field
    if field.field_order > FUSION_BRUTE_CAP:
        raise CapExceeded(
            f"field order {field.field_order} exceeds the scan cap {FUSION_BRUTE_CAP}")
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
