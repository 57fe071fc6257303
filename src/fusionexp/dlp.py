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
baby-step table.  Both live in one cache entry per (P, q, g), for the last
generator used: the baby-step table, which only grows, to sqrt(batch*q)
entries for the widest batch yet and, as batched calls walk on it, up to
_GROWN_WIDTH = 14,158 entries, about 1.5 MB; and Pollard rho's up to
_KNOWN_POINTS = 4096 points of known log, about 0.4 MB, for one seed at a
time; each later target only walks until it meets one.  The CLI gains
nothing from either, since each command runs in a fresh interpreter.
"""

from __future__ import annotations

import _thread
import functools
import itertools
import math
import operator
import random
import types
from collections.abc import Callable

from .errors import CapExceeded, IdentityBase, NotFound, ParamsMismatch
from .field import FieldElement, fe, fe_inv, fe_mul, lambda_entries
from .fusion import FusionBase, is_identity
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
    """Find the field exponent x with base**x = target; base not the identity.

    Every component of both tuples lies in the order-q subgroup, since a
    GroupElement does; outside it no exponent need exist, and a solver
    could only fail.
    """

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


# Threads may share the kept precomputation, so the baby-step table grows
# and rho's store takes points under one lock; a _thread lock, since
# importing threading would slow every CLI start.
_lock = _thread.allocate_lock()

# The widest the baby-step table grows by the giant steps walked on it (a
# batch may still ask for more, about sqrt(batch*q)).  At 24-bit q a batch
# of 8 asks for 9,439 entries and walks about 4,718 giant steps on them, so
# the 4,719 entries that this cap adds are paid for within the second batch,
# and from the third on every batch runs on the final table.  About 1.5 MB,
# keys and values included.
_GROWN_WIDTH = 14_158


@functools.lru_cache(maxsize=1)
def _kept(P: int, q: int, g: int) -> types.SimpleNamespace:
    """The precomputation kept for generator g of order q mod P, for the last
    (P, q, g): the baby-step table {g^j: j}, its steps = (width, g^width,
    g^-width), published together, the giant steps that batched calls walked
    since the table last grew, counted under the lock, and rho's walk =
    (seed, multipliers, their logs, points of known log, random stream) for
    one seed at a time."""
    return types.SimpleNamespace(table={}, steps=(0, 1, 1), walked=0, walk=None)


def dlog_bsgs(inst: DlogInstance, stats: dict | None = None) -> int:
    """Baby-step giant-step against a kept table of at least sqrt(L*q) baby steps.

    L is the instance's batch, the number of targets solved against g
    together (1 for a lone instance).  With a table of g^j for j < m, it
    walks y * (g^-m)^i for i < ceil(q/m); the first table hit gives
    x = i*m + j.  A table m wide costs m multiplications and saves about
    m/2 giant steps per target, so for T targets against one generator the
    best width grows like sqrt(T*q) (Bernstein-Lange, "Computing small
    discrete logarithms faster", INDOCRYPT 2012).

    The table is kept per generator and only grows.  A call asks for
    m = ceil(sqrt(L*q)); a batched call (L > 1) asks for twice the width,
    up to _GROWN_WIDTH and q, once batched calls have walked more giant
    steps on the table since it last grew than that growth would add, so a
    growth never adds more entries than the steps before it.  Growing adds
    the missing entries from the last power.  The width is capped at q and
    at BRUTE_CAP; a q whose lone table, ceil(sqrt(q)) entries, exceeds
    BRUTE_CAP raises CapExceeded before anything is built.  When a stats
    dict is supplied, 'mults' records the group multiplications this call
    made: the entries it added to the table, plus the giant steps.
    """
    params = inst.params
    P, q = params.modulus, params.q
    if math.isqrt(q - 1) >= BRUTE_CAP:  # ceil(sqrt(q)) > BRUTE_CAP
        raise CapExceeded(f"q={q} needs more than {BRUTE_CAP} baby steps")
    g, y = inst.g.residue, inst.y.residue
    batched = inst.batch > 1
    kept = _kept(P, q, g)
    width = kept.steps[0]
    m = math.isqrt(inst.batch * q - 1) + 1  # ceil(sqrt(L*q)) for q >= 1
    grown = min(q, 2 * width, _GROWN_WIDTH)
    if batched and kept.walked > grown - width:
        m = max(m, grown)
    m = min(q, BRUTE_CAP, m)
    added = 0
    if width < m:
        with _lock:
            width, cur, _ = kept.steps  # another thread may have grown it
            for j in range(width, m):
                kept.table.setdefault(cur, j)
                cur = cur * g % P
            if width < m:
                kept.steps = (m, cur, pow(cur, -1, P))
                kept.walked = 0
                added = m - width
    # a hit at j beyond an older width still gives x = i*m + j
    m, _, stride = kept.steps
    table = kept.table
    cur = y
    for i in range(-(-q // m)):
        if cur in table:
            if batched:
                with _lock:
                    kept.walked += i
            if stats is not None:
                stats["mults"] = added + i
            return (i * m + table[cur]) % q
        cur = cur * stride % P
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
_KNOWN_POINTS = 4096


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
    empty store (_kept.cache_clear()) one seed repeats the same work.
    """
    params = inst.params
    P, q = params.modulus, params.q
    if q <= 3:
        raise ValueError("rho needs q > 3; use the linear scan")
    g, y = inst.g.residue, inst.y.residue
    kept = _kept(P, q, g)
    walk = kept.walk  # a local, so another thread's seed cannot pull it away
    if walk is None or walk[0] != seed:
        rng = random.Random(seed)
        logs = [rng.randrange(q) for _ in range(_RHO_MULTIPLIERS)]
        walk = kept.walk = (seed, [pow(g, a, P) for a in logs], logs, {}, rng)
    _, mult, logs, points, rng = walk
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
            with _lock:
                room = _KNOWN_POINTS - len(points)
                for pt, (a0, b0) in itertools.islice(ends.items(), room):
                    points[pt] = (a0 + b0 * log) % q
            return log
    raise NotFound("rho failed to converge; target may not be a power of the base")


def fdlog_solve(inst: FdlogInstance, dlog: DlogOracle) -> FieldElement:
    """Tuple dlog via 2n scalar-dlog oracle calls against the group generator.

    With base = (g^w_0, ..., g^w_{n-1}) and target = (g^z_0, ...), the
    sought exponent is z * w^-1 in the exponent field; w is nonzero because
    the base is not the identity.  The oracle's instances are built
    unchecked, as their elements come from a checked FdlogInstance; its
    answers are read through `fe`.
    """
    gen = generator_element(inst.base.group)
    field = inst.base.field
    comps = inst.base.components + inst.target.components
    logs = [dlog(DlogInstance.unchecked(gen, c, len(comps))) for c in comps]
    w, z = fe(field, logs[:field.n]), fe(field, logs[field.n:])
    return fe_mul(z, fe_inv(w))


def fdlog_bruteforce(inst: FdlogInstance) -> FieldElement:
    """Exhaustive scan over the exponent field, of order at most FUSION_BRUTE_CAP;
    the reference tuple-dlog oracle.

    Candidates are scanned in itertools.product order.  Tuple
    exponentiation is additive in the exponent, so with H_k = base**X^k the
    candidate x maps base to prod_k H_k**x_k; H_0 is the base and
    H_{k+1} = H_k**X, n^2 built-in pows by the entries of X's coefficient
    matrix.  The n - 1 slower digits move a prefix tuple like an odometer:
    moving digit k up by one multiplies it by H_k, and H_k has order q, so
    the wrap from q-1 to 0 is one multiply as well.  The odometer carries
    only two components of the prefix: c, the first where H_{n-1} is not 1,
    and d = c + 1 mod n.  The fastest digit j is scanned on c alone, at one
    multiply per candidate.  H_{n-1} has order q at c, so exactly one j per
    prefix matches it; that candidate is filtered on d by one pow, and only
    one that passes is checked on the whole tuple, component i as
    prod_k H_k[i]**x_k.  Each component of base**x is a different nonzero
    linear form in x, so about one prefix in q passes the filter.  Nothing
    is kept that grows with q.
    """
    field = inst.base.field
    if field.field_order > FUSION_BRUTE_CAP:
        raise CapExceeded(
            f"field order {field.field_order} exceeds the scan cap {FUSION_BRUTE_CAP}")
    n, q = field.n, field.q
    P = inst.base.group.modulus
    # the coefficient matrix of X (of 0 at n = 1, where no step uses it)
    lam = lambda_entries(FieldElement.unchecked(field, tuple(int(i == 1) for i in range(n))))
    steps = [tuple(c.residue for c in inst.base.components)]
    for _ in range(n - 1):
        steps.append(tuple(math.prod(map(pow, steps[-1], row, (P,) * n)) % P for row in lam))
    columns = tuple(zip(*steps))  # component i of H_0 .. H_{n-1}
    *steps, last = steps
    target = tuple(c.residue for c in inst.target.components)
    # H_{n-1} is not the identity, since base**x is a bijection
    c = next(i for i, h in enumerate(last) if h != 1)
    d = (c + 1) % n
    h, want, h_d, want_d = last[c], target[c], last[d], target[d]
    steps = [(s[c], s[d]) for s in steps]
    mods = (P,) * n
    cur_c = cur_d = 1
    prev = (0,) * (n - 1)
    for head in itertools.product(range(q), repeat=n - 1):
        for k in range(n - 1):
            if head[k] != prev[k]:
                s_c, s_d = steps[k]
                cur_c, cur_d = cur_c * s_c % P, cur_d * s_d % P
        prev = head
        acc = cur_c
        for j in range(q):
            if acc == want:  # the one j that matches on component c
                x = head + (j,)
                if cur_d * pow(h_d, j, P) % P == want_d and all(
                        math.prod(map(pow, col, x, mods)) % P == t
                        for col, t in zip(columns, target)):
                    return FieldElement.unchecked(field, x)
                break
            acc = acc * h % P
    raise NotFound("no exponent maps base to target; bijectivity violated")
