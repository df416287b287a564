#!/usr/bin/env python3
"""Run one blocksets benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; blocksets is imported from its `src/`.
Set-up time is measured by starting a fresh interpreter that imports
blocksets and builds the workload's inputs, three times, and taking the
median.  Then the workload's op list runs in this process, repeatedly, for
about S seconds, and every answer is checked.  Each metric is the median
over the repetitions.  Every time is rescaled to a reference machine speed
by calibration readings taken between the timed pieces (see calibration.py).

With --trace 0 the last stdout line holds the end-to-end metrics named in
BENCHMARK.json; only the 1-worker ops run.  With --trace 1 it holds the
per-layer metrics: an untraced repetition of every op (a 2-worker twin
included) and a traced repetition of the 1-worker ops alternate.  Per-layer times are
medians over the traced repetitions, counts come from the first one,
`trace.overhead_s` is the traced minus the untraced median time of the
1-worker ops, and `parallel.speedup_2w` is the median ratio of the 1-worker
op's time to its twin's (0 on a workload without a twin).  The spans of the
traced repetitions are written to .perfbench/trace-NAME.json.

Exit code 2, with no result line, when the sources or BENCHMARK.json are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_PROBES = 3

sys.pycache_prefix = str(STATE / "pycache")  # keeps bytecode out of the source tree

from calibration import Speed  # noqa: E402


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program() -> None:
    """Make `import blocksets` load this tree's sources, and nothing else."""
    if not (SRC / "blocksets" / "__init__.py").is_file():
        fail(f"no blocksets sources under {SRC}; run from the root of a blocksets source tree")
    sys.path.insert(0, str(SRC))
    import blocksets

    if Path(blocksets.__file__).resolve().parent != SRC / "blocksets":
        fail(f"imported blocksets from {blocksets.__file__}, not from {SRC}")


def setup_seconds(workload: str, seed: int, speed: Speed) -> list[float]:
    """Wall time of each fresh set-up, with calibration readings between them."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(STATE / "pycache"))
    times = []
    speed.sample()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            check=True,
            env=env,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
        speed.sample(times[-1])
    return times


def repeat(seconds: float, rep: Callable[[], Any]) -> list:
    """Call `rep` until `seconds` have passed; the last call may run past them."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(rep())
    return results


def timings(outcomes: list) -> list[tuple]:
    """(op, seconds, placements covered) per op of one repetition.

    The answers are dropped here.  An op that failed covered no placements.
    """
    return [
        (o.op, o.seconds, None if o.op.placements is None else 0 if o.failed else o.op.placements(o.result))
        for o in outcomes
    ]


def end_to_end(reps: list[list[tuple]], factor: float) -> dict[str, float]:
    """`wall_s` and `placements_per_s` from each op's median time over the repetitions."""
    total = placing = placed = 0.0
    for op, _, _ in reps[0]:
        rows = [(t, p) for rep in reps for o, t, p in rep if o.name == op.name]
        median = statistics.median(t for t, _ in rows) * factor
        total += median
        if op.placements is not None:
            placing += median
            placed += min(p for _, p in rows)
    return {"wall_s": total, "placements_per_s": placed / placing}


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and any child it waited for (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Ops attempted and failed over a run; answers are not kept between repetitions."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: dict[str, None] = {}

    def add(self, outcomes: list, label: str) -> list:
        self.attempted += len(outcomes)
        for o in outcomes:
            if o.failed:
                self.failed += 1
                self.failures[f"{o.op.name}: " + (f"raised {o.error}" if o.error else f"wrong answer: {o.wrong}")] = None
            if o.wrong is not None:
                self.correct = False
        times = ", ".join(f"{o.op.name} {o.seconds:.3f}" for o in outcomes)
        print(f"perfbench: {label}: {times} s (unscaled)", file=sys.stderr)
        return outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    load_program()
    from workloads import WORKLOADS, run_ops

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    STATE.mkdir(exist_ok=True)

    speed = Speed()
    setup = setup_seconds(workload.name, args.seed, speed)
    ops = workload.ops(workload.build(args.seed), args.seed)
    tally = Tally()

    if not args.trace:
        ops = [op for op in ops if op.workers == 1]
        reps = repeat(args.seconds, lambda: timings(tally.add(run_ops(ops, speed.sample), "rep")))
        values = end_to_end(reps, speed.factor())
        values["peak_rss_mb"] = peak_rss_mb()
        values["setup_s"] = statistics.median(setup) * speed.factor()
        wanted = spec["end_to_end"]
    else:
        from tracing import Tracer, combine

        one_worker = [op for op in ops if op.workers == 1]
        untraced, traced, speedups, tracers = [], [], [], []

        def pair() -> None:
            times = {o.op.name: o.seconds for o in tally.add(run_ops(ops, speed.sample), "untraced rep")}
            untraced.append(sum(times[op.name] for op in one_worker))
            if workload.speedup:
                one, two = workload.speedup
                speedups.append(times[one] / times[two])
            tracer = Tracer()
            tracer.install()
            try:
                outcomes = tally.add(run_ops(one_worker, speed.sample), "traced rep")
            finally:
                tracer.uninstall()
            traced.append(sum(o.seconds for o in outcomes))
            tracers.append(tracer)

        repeat(args.seconds, pair)
        factor = speed.factor()
        values = combine([tracer.layer_metrics() for tracer in tracers], factor)
        values["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)) * factor
        values["parallel.speedup_2w"] = statistics.median(speedups) if speedups else 0.0
        (STATE / f"trace-{workload.name}.json").write_text(
            json.dumps(
                {
                    "workload": workload.name,
                    "seed": args.seed,
                    "span_fields": ["id", "parent", "name", "start", "duration"],
                    "reps": [{"spans": tracer.spans, "counts": tracer.counts} for tracer in tracers],
                }
            )
        )
        wanted = spec["per_layer"]

    missing = {m["name"] for m in wanted} - values.keys()
    if missing:
        fail(f"metrics not computed: {sorted(missing)}")
    for line in tally.failures:
        print(f"perfbench: failed op {line}", file=sys.stderr)
    print(
        f"perfbench: {workload.name} seed {args.seed}: {tally.attempted} ops, {tally.failed} failed "
        f"(ops_failed_ratio {tally.failed / tally.attempted:.4f})",
        file=sys.stderr,
    )
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
