"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload dlog --seeds 1-10 [--seconds S] [--out FILE]

For every metric: the median over the runs and the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median, the
figure BENCHMARK.json's bounds are set against.  --out writes every run's
result and detail objects and the summary as JSON.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "iqr_share": (q3 - q1) / med if med else None,
                     "min": min(values), "max": max(values)}
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["detail"] = json.loads(lines[-2])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    summary = summarize(results)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, s in summary.items():
        share = "n/a" if s["iqr_share"] is None else f"{s['iqr_share']:.4f}"
        bound = f"  bound {bounds[name]}" if name in bounds else ""
        print(f"{name:40s} median {s['median']:12.4f}  iqr/median {share}{bound}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "runs": results, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
