"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Fault injection: in one rotation of each workload, the first op of one
   kind gets a wrong answer or an exception from a fusionexp function.  That op, and only that
   op, must be counted as failed; the run must go on, and the result object
   must say correct = false with failed_op_frac = 1 / ops.
2. Hardware-independent counts (calls, draws per hit, mults per call, oracle
   calls) must repeat exactly across two traced passes with one seed.
3. The metric names the runs print must match BENCHMARK.json.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import random
import sys

import run

sys.path.insert(0, str(run.SRC))

from faults import inject  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
# (workload, op kind that gets the fault, (module, function, mode, nth call))
CASES = [
    ("protocols", "dh", ("fusion", "fusion_pow", "wrong", 2)),
    ("protocols", "elgamal", ("fusion", "fusion_pow", "wrong", 1)),
    ("protocols", "vss", ("protocols", "vss_reconstruct", "wrong", 1)),
    ("protocols", "vss", ("fusion", "fusion_pow", "raise", 4)),
    ("dlog", "fdlog", ("dlp", "dlog_bsgs", "wrong", 1)),
    ("dlog", "fdlog", ("dlp", "dlog_pollard_rho", "raise", 1)),
    ("cli", "eval", ("fusion", "fusion_pow", "wrong", 1)),
    ("cli", "demo_vss", ("protocols", "vss_reconstruct", "wrong", 1)),
    ("cli", "reductions_n2", ("dlp", "dlog_bruteforce", "wrong", 1)),
    ("cli", "eval_malformed", ("cli", "load_system_config", "raise", 1)),
]
COUNT_UNITS = {"count", "draws/hit", "calls/group", "calls/call", "mults/call"}


def faulty_rotation(name: str, faulty_kind: str, fault: tuple) -> list[tuple]:
    wl = WORKLOADS[name]()
    module, fn, mode, nth = fault
    try:
        state = wl.setup(random.Random(f"{name}/{SEED}/setup"))
        rng = random.Random(f"{name}/{SEED}/ops")
        records, armed = [], True
        for kind in wl.rotation:
            inputs = wl.prepare(state, kind, rng)
            restore = None
            if kind == faulty_kind and armed:  # the first op of that kind only
                armed = False
                if name == "cli":
                    wl.fault = {"module": module, "name": fn, "mode": mode, "nth": nth}
                else:
                    restore = inject(module, fn, mode, nth)
            try:
                dt, ok, error, own_probe = run.run_op(wl, state, kind, inputs, None)
                records.append((kind, dt, ok, error, own_probe or run.probe()))
            finally:
                wl.fault = None
                if restore:
                    restore()
        return records
    finally:
        wl.close()


def check_faults() -> list[str]:
    problems = []
    for name, kind, fault in CASES:
        records = faulty_rotation(name, kind, fault)
        failed = [r[0] for r in records if not r[2]]
        detail, result = run.summarize(records, [(1.0, 1.0)], 1)
        label = f"{name}/{kind} with {fault}"
        if failed != [kind]:
            problems.append(f"{label}: failed ops {failed}, expected [{kind!r}]")
        elif result["correct"] or detail["failed_op_frac"] != 1 / len(records):
            problems.append(f"{label}: result {result['correct']}, {detail['failed_op_frac']}")
        else:
            print(f"ok  {label}: {records[[r[0] for r in records].index(kind)][3]}")
    return problems


def traced_metrics() -> dict:
    total, overhead, _, records = run.trace_workloads(SEED, seconds=2)
    if any(not r[2] for r in records):
        raise SystemExit(f"traced pass failed ops: {run.errors_of(records)}")
    return run.layer_metrics(total, overhead, {})


def check_counts(first: dict, second: dict) -> list[str]:
    keys = [k for k, (_, unit) in first.items() if unit in COUNT_UNITS]
    diff = [k for k in keys if first[k] != second[k]]
    if not diff:
        print(f"ok  {len(keys)} counts repeat across two traced passes")
    return [f"count {k} differs: {first[k][0]} vs {second[k][0]}" for k in diff]


def check_names(layer: dict) -> list[str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_layer = {m["name"] for m in bench["per_layer"] if not m["name"].startswith("grid.")}
    e2e = set(run.summarize([("op", 1.0, True, None, 1.0)], [(1.0, 1.0)], 1)[1]["metrics"])
    want_e2e = {m["name"] for m in bench["end_to_end"]}
    problems = []
    if set(layer) != want_layer:
        problems.append(f"per-layer names differ: {sorted(set(layer) ^ want_layer)}")
    if e2e != want_e2e:
        problems.append(f"end-to-end names differ: {sorted(e2e ^ want_e2e)}")
    if not problems:
        print("ok  metric names match BENCHMARK.json")
    return problems


def main() -> int:
    first, second = traced_metrics(), traced_metrics()
    problems = check_faults() + check_counts(first, second) + check_names(first)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
