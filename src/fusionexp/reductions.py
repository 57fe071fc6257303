"""Oracle reductions between the scalar and tuple discrete-log problem families.

Each reduction solves one problem using an oracle for another as a black
box.  Oracles are wrapped in counting adapters so that the advertised query
budgets (a single query for the embedding reductions, 2n scalar queries for
the generator-relative tuple solver) are measurable facts rather than
claims.  `run_reduction_matrix` exercises every implemented arrow on random
instances with exhaustive-scan oracles behind them and reports success
rates and mean query counts.  The report holds plain counts per arrow; the
command line renders them as the `demo --which reductions` transcript.
"""

from __future__ import annotations

import random
from _thread import allocate_lock
from collections.abc import Callable

from .dlp import (
    DlogInstance,
    DlogOracle,
    FdlogInstance,
    FdlogOracle,
    dlog_bruteforce,
    fdlog_bruteforce,
    fdlog_solve,
)
from .errors import OracleInconsistent
from .field import FieldParams, fe_add, fe_mul, fe_random
from .fusion import FusionBase, fusion_pow, scalar_embed, unit_embed
from .group import GroupElement, GroupParams, g_pow, generator_element, identity

DhOracle = Callable[[GroupElement, GroupElement, GroupElement], GroupElement]
FdhOracle = Callable[[FusionBase, FusionBase, FusionBase], FusionBase]
DdhOracle = Callable[[GroupElement, GroupElement, GroupElement, GroupElement], bool]
FddhOracle = Callable[[FusionBase, FusionBase, FusionBase, FusionBase], bool]


class CountingOracle:
    """Wraps a callable and counts invocations; safe under concurrent trials."""

    def __init__(self, fn: Callable):
        self._fn = fn
        self._lock = allocate_lock()  # the type threading.Lock() returns
        self._calls = 0

    def __call__(self, *args, **kwargs):
        with self._lock:
            self._calls += 1
        return self._fn(*args, **kwargs)

    @property
    def calls(self) -> int:
        return self._calls


# ---------------------------------------------------------------------------
# Embedding reductions: scalar problems solved by one tuple-oracle query
# ---------------------------------------------------------------------------


def _first_component_embed(y: GroupElement, fld: FieldParams) -> FusionBase:
    comps = (y,) + tuple(identity(y.params) for _ in range(fld.n - 1))
    return FusionBase(y.params, fld, comps)


def _diagonal_embed(y: GroupElement, fld: FieldParams) -> FusionBase:
    return FusionBase(y.params, fld, (y,) * fld.n)


def reduce_dlp_to_fdlp(
    y: GroupElement, g: GroupElement, fld: FieldParams, fdlog: FdlogOracle
) -> int:
    """Scalar dlog from a single tuple-dlog query.

    Embeds the target diagonally and the base into the first component;
    the oracle's answer must be the constant vector (x, ..., x).
    """
    base = unit_embed(g, fld)
    target = _diagonal_embed(y, fld)
    ans = fdlog(FdlogInstance(base, target))
    if len(set(ans.coeffs)) != 1:
        raise OracleInconsistent(f"expected a constant vector, got {ans.coeffs}")
    return ans.coeffs[0]


def reduce_dhp_to_fdhp(
    y1: GroupElement,
    y2: GroupElement,
    g: GroupElement,
    fld: FieldParams,
    fdh: FdhOracle,
) -> GroupElement:
    """Scalar Diffie-Hellman value from a single tuple-DH query.

    First-component embedding keeps all the structure in coordinate 0, so
    the answer tuple must be (g^(x1*x2), 1, ..., 1).
    """
    ans = fdh(
        _first_component_embed(y1, fld),
        _first_component_embed(y2, fld),
        unit_embed(g, fld),
    )
    if any(c.residue != 1 for c in ans.components[1:]):
        raise OracleInconsistent("trailing components of the answer are not 1")
    return ans.components[0]


def reduce_ddp_to_fddp(
    y1: GroupElement,
    y2: GroupElement,
    y3: GroupElement,
    g: GroupElement,
    fld: FieldParams,
    fddh: FddhOracle,
) -> bool:
    """Scalar decision-DH from a single tuple-decision query, answered verbatim."""
    return fddh(
        _first_component_embed(y1, fld),
        _first_component_embed(y2, fld),
        _first_component_embed(y3, fld),
        unit_embed(g, fld),
    )


# ---------------------------------------------------------------------------
# Downhill adapters: a dlog oracle answers DH; a DH oracle answers decision-DH
# ---------------------------------------------------------------------------


def dh_from_dlog(dlog: DlogOracle) -> DhOracle:
    def dh(y1: GroupElement, y2: GroupElement, g: GroupElement) -> GroupElement:
        x1 = dlog(DlogInstance(g, y1))
        return g_pow(y2, x1)

    return dh


def ddh_from_dh(dh: DhOracle) -> DdhOracle:
    def ddh(
        y1: GroupElement, y2: GroupElement, y3: GroupElement, g: GroupElement
    ) -> bool:
        return dh(y1, y2, g) == y3

    return ddh


def fdh_from_fdlog(fdlog: FdlogOracle) -> FdhOracle:
    def fdh(y1: FusionBase, y2: FusionBase, base: FusionBase) -> FusionBase:
        x1 = fdlog(FdlogInstance(base, y1))
        return fusion_pow(y2, x1)

    return fdh


def fddh_from_fdh(fdh: FdhOracle) -> FddhOracle:
    def fddh(
        y1: FusionBase, y2: FusionBase, y3: FusionBase, base: FusionBase
    ) -> bool:
        return fdh(y1, y2, base) == y3

    return fddh


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------


class ArrowStats:
    def __init__(self, trials: int = 0, successes: int = 0, oracle_calls: int = 0):
        self.trials = trials
        self.successes = successes
        self.oracle_calls = oracle_calls

    @property
    def mean_oracle_calls(self) -> float:
        return self.oracle_calls / self.trials if self.trials else 0.0


class ReductionReport:
    def __init__(self):
        self.arrows: dict[str, ArrowStats] = {}

    def all_successful(self) -> bool:
        return all(s.successes == s.trials for s in self.arrows.values())


def _ddh_exponents(rng: random.Random, q: int) -> tuple[int, int, int, bool]:
    """x1, x2, x3 and a fair coin that says whether x3 = x1 * x2 mod q."""
    x1, x2 = rng.randrange(q), rng.randrange(q)
    genuine = rng.random() < 0.5
    x3 = x1 * x2 % q if genuine else (x1 * x2 + rng.randrange(1, q)) % q
    return x1, x2, x3, genuine


def _trial_dlp_le_fdlp(oracle, rng, g, fld) -> bool:
    x = rng.randrange(g.params.q)
    return reduce_dlp_to_fdlp(g_pow(g, x), g, fld, oracle) == x


def _trial_fdlp_le_dlp(oracle, rng, g, fld) -> bool:
    base = scalar_embed(g, fe_random(fld, rng, nonzero=True))
    x = fe_random(fld, rng)
    return fdlog_solve(FdlogInstance(base, fusion_pow(base, x)), oracle) == x


def _trial_dhp_le_fdhp(oracle, rng, g, fld) -> bool:
    q = g.params.q
    x1, x2 = rng.randrange(q), rng.randrange(q)
    got = reduce_dhp_to_fdhp(g_pow(g, x1), g_pow(g, x2), g, fld, oracle)
    return got == g_pow(g, x1 * x2)


def _trial_ddp_le_fddp(oracle, rng, g, fld) -> bool:
    x1, x2, x3, genuine = _ddh_exponents(rng, g.params.q)
    got = reduce_ddp_to_fddp(g_pow(g, x1), g_pow(g, x2), g_pow(g, x3), g, fld, oracle)
    return got == genuine


def _trial_dhp_le_dlp(oracle, rng, g, fld) -> bool:
    q = g.params.q
    x1, x2 = rng.randrange(q), rng.randrange(q)
    return dh_from_dlog(oracle)(g_pow(g, x1), g_pow(g, x2), g) == g_pow(g, x1 * x2)


def _trial_ddp_le_dhp(oracle, rng, g, fld) -> bool:
    x1, x2, x3, genuine = _ddh_exponents(rng, g.params.q)
    ddh = ddh_from_dh(oracle)
    return ddh(g_pow(g, x1), g_pow(g, x2), g_pow(g, x3), g) == genuine


def _trial_fdhp_le_fdlp(oracle, rng, g, fld) -> bool:
    base = scalar_embed(g, fe_random(fld, rng, nonzero=True))
    x1, x2 = fe_random(fld, rng), fe_random(fld, rng)
    got = fdh_from_fdlog(oracle)(fusion_pow(base, x1), fusion_pow(base, x2), base)
    return got == fusion_pow(base, fe_mul(x1, x2))


def _trial_fddp_le_fdhp(oracle, rng, g, fld) -> bool:
    base = scalar_embed(g, fe_random(fld, rng, nonzero=True))
    x1, x2 = fe_random(fld, rng), fe_random(fld, rng)
    genuine = rng.random() < 0.5
    x3 = fe_mul(x1, x2)
    if not genuine:
        x3 = fe_add(x3, fe_random(fld, rng, nonzero=True))
    got = fddh_from_fdh(oracle)(
        fusion_pow(base, x1), fusion_pow(base, x2), fusion_pow(base, x3), base
    )
    return got == genuine


def _arrows() -> tuple:
    """(arrow, exact oracle for the problem reduced to, one trial on a fresh
    instance).  Trials draw from one shared rng in this order.  Built per
    call, so a solver rebound in this module (a profiler span, a test
    double) is the one every oracle calls."""
    return (
        ("dlp_le_fdlp", fdlog_bruteforce, _trial_dlp_le_fdlp),
        ("fdlp_le_dlp", dlog_bruteforce, _trial_fdlp_le_dlp),
        ("dhp_le_fdhp", fdh_from_fdlog(fdlog_bruteforce), _trial_dhp_le_fdhp),
        ("ddp_le_fddp", fddh_from_fdh(fdh_from_fdlog(fdlog_bruteforce)), _trial_ddp_le_fddp),
        ("dhp_le_dlp", dlog_bruteforce, _trial_dhp_le_dlp),
        ("ddp_le_dhp", dh_from_dlog(dlog_bruteforce), _trial_ddp_le_dhp),
        ("fdhp_le_fdlp", fdlog_bruteforce, _trial_fdhp_le_fdlp),
        ("fddp_le_fdhp", fdh_from_fdlog(fdlog_bruteforce), _trial_fddp_le_fdhp),
    )


def run_reduction_matrix(
    group: GroupParams, fld: FieldParams, trials: int, seed: int
) -> ReductionReport:
    """Run every implemented reduction arrow on seeded random instances.

    All oracles are exact (exhaustive-scan backed), so on correct code every
    arrow succeeds on every trial; per-arrow query counts are accumulated
    from the counting wrappers.  Desk-scale parameters only.  trials must
    be at least 1: a report with no trial would read as a vacuous success.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    g = generator_element(group)
    report = ReductionReport()
    for name, exact, trial in _arrows():
        oracle = CountingOracle(exact)
        successes = sum(trial(oracle, rng, g, fld) for _ in range(trials))
        report.arrows[name] = ArrowStats(trials, successes, oracle.calls)
    return report
