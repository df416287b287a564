#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 0-9 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs are interleaved (every workload for seed 0, then seed 1, ...) so that a
slow spell on the machine spreads over all workloads.  For each workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread, which is the interquartile distance as a share of the median, next
to the metric's bound; counts that must repeat are listed with every distinct
value seen.  --out writes the raw runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """ "0-9" or "3,3,5" (a repeated seed checks that counts repeat)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            start = time.perf_counter()
            proc = subprocess.run(
                spec["command"]
                + ["--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT,
                capture_output=True,
                text=True,
            )
            took = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, run_s=took)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {took:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    summary = {}
    for workload, results in runs.items():
        summary[workload] = {"run_s_max": max(r["run_s"] for r in results)}
        print(f"\n{workload}  (longest run {summary[workload]['run_s_max']:.1f} s)")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            s = summarise(values)
            summary[workload][m["name"]] = s
            if m.get("unit") in ("count", "bytes"):
                print(f"  {m['name']:36s} distinct values {sorted(set(values))}")
            else:
                bound = m.get("bound")
                flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- spread above bound/3"
                print(f"  {m['name']:36s} median {s['median']:.6g} {m['unit']}  spread {s['spread']:.3f}"
                      f"{'' if bound is None else f' (bound {bound})'}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
