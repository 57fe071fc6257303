"""Layer-alone timings over the reference grid, in microseconds per call.

q of 64 and 256 bits x n in {1, 2, 4, 8}: fusion_pow on a full-tuple base,
fe_mul, fe_inv and is_irreducible; plus is_prime on the prime q at both
sizes.  Parameters and operands come from fixed seeds, so every run times the
same calls.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import fusionexp as fx
from fusionexp import primes

Q_BITS = (64, 256)
DEGREES = (1, 2, 4, 8)
GRID_SEED = 1
BATCH_S = 0.02  # a batch repeats one call until it lasts at least this long
BATCHES = 5


def per_call_us(fn, *args) -> float:
    """Median over BATCHES batches of the mean time of one call."""
    reps, t0 = 0, perf_counter()
    while perf_counter() - t0 < BATCH_S:
        fn(*args)
        reps += 1
    means = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(reps):
            fn(*args)
        means.append((perf_counter() - t0) / reps)
    return statistics.median(means) * 1e6


def _nonzero(fld, rng, full: bool = False):
    lo = 1 if full else 0
    while True:
        e = fx.fe(fld, [rng.randrange(lo, fld.q) for _ in range(fld.n)])
        if not fx.fe_is_zero(e):
            return e


def layer_grid() -> dict[str, float]:
    out = {}
    for bits in Q_BITS:
        group = fx.gen_group_params(bits, GRID_SEED)
        out[f"grid.is_prime.q{bits}.us"] = per_call_us(primes.is_prime, group.q)
        g = fx.generator_element(group)
        for n in DEGREES:
            fld = fx.make_field_params(group.q, n, fx.find_irreducible(group.q, n, GRID_SEED))
            rng = random.Random(f"grid/{bits}/{n}")
            base = fx.scalar_embed(g, _nonzero(fld, rng, full=True))
            a, b = _nonzero(fld, rng), _nonzero(fld, rng)
            key = f"q{bits}.n{n}.us"
            out[f"grid.fusion_pow.{key}"] = per_call_us(fx.fusion_pow, base, a)
            out[f"grid.fe_mul.{key}"] = per_call_us(fx.fe_mul, a, b)
            out[f"grid.fe_inv.{key}"] = per_call_us(fx.fe_inv, a)
            out[f"grid.is_irreducible.{key}"] = per_call_us(
                fx.is_irreducible, fld.q, fld.f_low + (1,)
            )
    return out
